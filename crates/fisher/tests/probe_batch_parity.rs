//! The batched shape-class probe scheduler must be **bit-identical** to the
//! per-candidate probe: `probe_wave` scores a mixed bag of candidate shapes
//! (several shape classes, duplicates, degenerate zero-channel variants)
//! exactly as `conv_shape_fisher` would have scored each one alone. This is
//! the contract that lets the evaluation pipeline batch probe GEMMs without
//! changing a single legality decision.

use proptest::prelude::*;

use pte_fisher::proxy::{
    batch_conv_shape_fisher, conv_shape_fisher, conv_shape_fisher_unmemoised, probe_wave,
};
use pte_ir::ConvShape;

/// Random-but-plausible candidate shapes: transformed variants of small
/// layers, spanning several probe shape classes (different `c_in` / kernel /
/// stride), grouped and bottlenecked variants that share a class (with
/// `c_out_per_group` down to 1–3, the widths the GEMM dispatcher declines),
/// depthwise variants of layers wider than `PROXY_CHANNEL_CAP` (depthwise
/// at probe scale, on the direct kernel), and the occasional degenerate
/// zero-channel shape.
fn arb_shape() -> impl Strategy<Value = ConvShape> {
    (
        prop::sample::select(vec![8i64, 16, 24, 32]), // c_in
        prop::sample::select(vec![8i64, 16, 24, 32]), // c_out
        prop::sample::select(vec![1i64, 3]),          // kernel
        prop::sample::select(vec![1i64, 2]),          // stride
        prop::sample::select(vec![1i64, 2, 4, 8]),    // groups (kept if divisible)
        prop::sample::select(vec![1i64, 2, 4]),       // output bottleneck
        prop::sample::select(vec![1i64, 2]),          // input bottleneck
        prop::sample::select(vec![1i64, 2]),          // spatial bottleneck
        0u8..24, // 0 = degenerate zero-channel, 1..=4 = wide depthwise
        prop::sample::select(vec![96i64, 128, 256]), // wide depthwise width
    )
        .prop_map(|(ci, co, k, stride, g, b, ib, sb, marker, wide)| {
            if (1..=4).contains(&marker) {
                // `groups == c_in == c_out` above the channel cap: the probe
                // keeps it depthwise at width 64.
                let mut shape = ConvShape::standard(wide, wide, k, 10, 10);
                shape.stride = stride;
                shape.groups = wide;
                shape.sb_h = sb;
                shape.sb_w = sb;
                return shape;
            }
            let mut shape = ConvShape::standard(ci, co, k, 10, 10);
            shape.stride = stride;
            shape.bottleneck = b;
            shape.c_out = (co / b).max(1);
            shape.in_bottleneck = ib;
            shape.c_in = (ci / ib).max(1);
            if shape.c_in % g == 0 && shape.c_out % g == 0 {
                shape.groups = g;
            }
            shape.sb_h = sb;
            shape.sb_w = sb;
            if marker == 0 {
                shape.c_out = 0; // degenerate: must score 0.0 on both paths
            }
            shape
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batched wave ≡ per-shape reference, to the last bit, duplicates
    /// included.
    #[test]
    fn wave_matches_per_shape_probes(
        shapes in prop::collection::vec(arb_shape(), 1..8),
        seed in 0u64..32,
    ) {
        let mut wave = shapes;
        wave.push(wave[0]); // guaranteed duplicate
        let batched = probe_wave(&wave, seed);
        for (shape, &score) in wave.iter().zip(&batched) {
            let reference = conv_shape_fisher_unmemoised(shape, seed);
            prop_assert_eq!(
                score.to_bits(),
                reference.to_bits(),
                "shape {:?}: batched {} vs reference {}",
                shape,
                score,
                reference
            );
        }
    }
}

/// A shape class with no GEMM-path member at all: every depthwise variant of
/// a layer wider than the channel cap shares the layer's class and runs on
/// the direct kernel. Five members share one full-width tail geometry, more
/// than one stacked tail wave holds, so that tail also splits. The wave must
/// still match the per-candidate probe to the last bit, and the
/// direct-member counter must see every member.
#[test]
fn a_class_without_gemm_members_matches_per_candidate_probes() {
    let mut wave = Vec::new();
    for (sb_h, sb_w) in [(1, 1), (2, 2), (1, 2), (4, 4)] {
        let mut shape = ConvShape::standard(128, 128, 3, 16, 16);
        shape.groups = 128;
        shape.sb_h = sb_h;
        shape.sb_w = sb_w;
        wave.push(shape);
    }
    // The layer's own spatial size does not change the probe's geometry.
    for hw in [8, 32, 64, 128] {
        let mut shape = ConvShape::standard(128, 128, 3, hw, hw);
        shape.groups = 128;
        wave.push(shape);
    }
    let seed = 0xD3F7;
    let before = direct_members_total();
    let batched = probe_wave(&wave, seed);
    // Other tests in this binary may add to the process-wide counter too;
    // they never subtract.
    assert!(
        direct_members_total() >= before + wave.len() as u64,
        "every member of an all-direct class must be counted"
    );
    for (shape, &score) in wave.iter().zip(&batched) {
        let reference = conv_shape_fisher_unmemoised(shape, seed);
        assert!(score > 0.0, "shape {shape:?} scored {score}");
        assert_eq!(score.to_bits(), reference.to_bits(), "shape {shape:?}");
    }
}

fn direct_members_total() -> u64 {
    pte_telemetry::global().counter("pte_probe_direct_members_total").get()
}

/// The memo-aware wrapper must agree with — and feed — the process-wide memo
/// consumed by per-candidate `conv_shape_fisher` calls.
#[test]
fn batch_scores_feed_the_probe_memo() {
    let mut grouped = ConvShape::standard(32, 32, 3, 10, 10);
    grouped.groups = 4;
    let wave = vec![ConvShape::standard(32, 32, 3, 10, 10), grouped];
    let seed = 0xBA7C4;
    let batched = batch_conv_shape_fisher(&wave, seed);
    for (shape, &score) in wave.iter().zip(&batched) {
        assert_eq!(score.to_bits(), conv_shape_fisher(shape, seed).to_bits());
    }
}

// The forced multi-thread determinism test lives in `probe_wave_threads.rs`:
// it pins `PTE_THREADS`, which is only safe in a binary with a single test
// (the rayon shim re-reads the environment from worker threads, so mutating
// it while sibling tests run would race their reads).
