//! Differential properties: the im2col + GEMM convolution path must compute
//! the same operator as the reference naive loop nest — forward and backward
//! — across random specs (stride, padding, groups, bottlenecked widths), and
//! the public `conv2d` dispatcher must agree with both. The direct grouped
//! kernel, and `conv2d` wherever it dispatches there, must match the naive
//! loop to the last bit.

use proptest::prelude::*;

use pte_tensor::ops::{
    conv2d, conv2d_backward, conv2d_backward_gemm, conv2d_backward_naive, conv2d_direct,
    conv2d_gemm, conv2d_naive, uses_gemm_path, Conv2dSpec,
};
use pte_tensor::Tensor;

/// Random-but-valid conv spec plus input geometry. Channel counts are chosen
/// as `groups × per_group` so grouped divisibility always holds; bottleneck
/// variants appear as shrunken `c_out`.
fn arb_case() -> impl Strategy<Value = (Conv2dSpec, usize, usize, usize)> {
    (
        prop::sample::select(vec![1usize, 2, 4]), // groups
        1usize..5,                                // c_in per group
        1usize..5,                                // c_out per group
        prop::sample::select(vec![1usize, 3]),    // kernel
        1usize..3,                                // stride
        0usize..2,                                // padding
        1usize..3,                                // batch
        6usize..11,                               // h
        6usize..11,                               // w
    )
        .prop_map(|(g, cipg, copg, k, s, p, n, h, w)| {
            let spec = Conv2dSpec::new(g * cipg, g * copg, k)
                .with_stride(s)
                .with_padding(p)
                .with_groups(g);
            (spec, n, h, w)
        })
}

/// Specs for the direct kernel: group counts from standard (`G = 1`) to
/// depthwise (`G = c_in = c_out`), the `c_out_per_group` 1–3 range the GEMM
/// dispatcher declines plus wider groups it accepts, kernels 1/3/5, strides
/// 1/2, every padding in `0..=k/2`, ragged (odd, non-square) inputs, and
/// batches of 1 and the probe's 8.
fn arb_direct_case() -> impl Strategy<Value = (Conv2dSpec, usize, usize, usize)> {
    (
        prop::sample::select(vec![1usize, 2, 3, 8]),    // groups
        prop::sample::select(vec![1usize, 2, 3]),       // c_in per group
        prop::sample::select(vec![1usize, 2, 3, 4, 6]), // c_out per group
        prop::sample::select(vec![1usize, 3, 5]),       // kernel
        1usize..3,                                      // stride
        0usize..3,                                      // padding (clamped to k/2)
        prop::sample::select(vec![1usize, 8]),          // batch
        5usize..12,                                     // h
        5usize..12,                                     // w
        any::<bool>(),                                  // depthwise override
    )
        .prop_map(|(g, cipg, copg, k, s, p, n, h, w, depthwise)| {
            let (g, cipg, copg) = if depthwise { (g.max(2) * 2, 1, 1) } else { (g, cipg, copg) };
            let spec = Conv2dSpec::new(g * cipg, g * copg, k)
                .with_stride(s)
                .with_padding(p.min(k / 2))
                .with_groups(g);
            (spec, n, h, w)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Forward: the direct kernel ≡ the naive loop, bitwise, and so is the
    /// `conv2d` dispatcher on every problem (direct, or GEMM, whose kernels
    /// also accumulate each element in ascending `k`, unfused).
    #[test]
    fn direct_kernel_and_dispatcher_are_bitwise_naive(
        (spec, n, h, w) in arb_direct_case(),
        seed in 0u64..1000,
    ) {
        let x = Tensor::randn(&[n, spec.c_in, h, w], seed);
        let wt = Tensor::randn(&spec.weight_dims(), seed ^ 0xD1EC);
        let naive = conv2d_naive(&x, &wt, &spec).unwrap();
        let direct = conv2d_direct(&x, &wt, &spec).unwrap();
        let dispatched = conv2d(&x, &wt, &spec).unwrap();
        prop_assert_eq!(direct.shape(), naive.shape());
        for (i, ((d, c), r)) in direct.iter().zip(dispatched.iter()).zip(naive.iter()).enumerate() {
            prop_assert_eq!(
                d.to_bits(), r.to_bits(), "spec {:?} n={} {}x{}: direct differs at {}", spec, n, h, w, i
            );
            prop_assert_eq!(
                c.to_bits(),
                r.to_bits(),
                "spec {:?} n={} {}x{} (gemm: {}): conv2d differs at {}",
                spec,
                n,
                h,
                w,
                uses_gemm_path(&spec, n, h, w),
                i
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Forward: GEMM path ≡ naive path (up to FP reassociation).
    #[test]
    fn forward_paths_agree((spec, n, h, w) in arb_case(), seed in 0u64..1000) {
        prop_assume!(h + 2 * spec.padding >= spec.kernel && w + 2 * spec.padding >= spec.kernel);
        let x = Tensor::randn(&[n, spec.c_in, h, w], seed);
        let wt = Tensor::randn(&spec.weight_dims(), seed ^ 0xABCD);
        let naive = conv2d_naive(&x, &wt, &spec).unwrap();
        let gemm = conv2d_gemm(&x, &wt, &spec).unwrap();
        prop_assert!(
            gemm.allclose(&naive, 1e-3),
            "spec {:?}: max diff {}",
            spec,
            gemm.max_abs_diff(&naive).unwrap()
        );
        // The dispatcher must agree with the paths it chooses between.
        let dispatched = conv2d(&x, &wt, &spec).unwrap();
        prop_assert!(dispatched.allclose(&naive, 1e-3));
    }

    /// Backward: GEMM + col2im ≡ naive scatter, for both gradients.
    #[test]
    fn backward_paths_agree((spec, n, h, w) in arb_case(), seed in 0u64..1000) {
        prop_assume!(h + 2 * spec.padding >= spec.kernel && w + 2 * spec.padding >= spec.kernel);
        let x = Tensor::randn(&[n, spec.c_in, h, w], seed);
        let wt = Tensor::randn(&spec.weight_dims(), seed ^ 0xABCD);
        let y = conv2d_naive(&x, &wt, &spec).unwrap();
        let d_out = Tensor::randn(y.shape().dims(), seed ^ 0x1234);
        let naive = conv2d_backward_naive(&x, &wt, &spec, &d_out).unwrap();
        let gemm = conv2d_backward_gemm(&x, &wt, &spec, &d_out).unwrap();
        prop_assert!(
            gemm.d_input.allclose(&naive.d_input, 1e-3),
            "spec {:?}: d_input max diff {}",
            spec,
            gemm.d_input.max_abs_diff(&naive.d_input).unwrap()
        );
        prop_assert!(
            gemm.d_weight.allclose(&naive.d_weight, 1e-3),
            "spec {:?}: d_weight max diff {}",
            spec,
            gemm.d_weight.max_abs_diff(&naive.d_weight).unwrap()
        );
        let dispatched = conv2d_backward(&x, &wt, &spec, &d_out).unwrap();
        prop_assert!(dispatched.d_input.allclose(&naive.d_input, 1e-3));
        prop_assert!(dispatched.d_weight.allclose(&naive.d_weight, 1e-3));
    }
}

/// Depthwise stays off the GEMM path by design (it runs on the direct
/// kernel), but the GEMM path must still be *correct* there (the dispatcher
/// guard is a performance choice).
#[test]
fn depthwise_gemm_path_is_correct() {
    let spec = Conv2dSpec::new(8, 8, 3).with_padding(1).with_groups(8);
    let x = Tensor::randn(&[2, 8, 9, 9], 77);
    let wt = Tensor::randn(&spec.weight_dims(), 78);
    let naive = conv2d_naive(&x, &wt, &spec).unwrap();
    let gemm = conv2d_gemm(&x, &wt, &spec).unwrap();
    assert!(gemm.allclose(&naive, 1e-4));
}

/// A probe-scale standard conv (the Fisher hot path) must route to GEMM and
/// match the naive reference.
#[test]
fn probe_scale_conv_routes_to_gemm_and_matches() {
    let spec = Conv2dSpec::new(64, 64, 3).with_padding(1);
    let x = Tensor::randn(&[8, 64, 8, 8], 5);
    let wt = Tensor::randn(&spec.weight_dims(), 6);
    assert!(spec.macs(8, 8) * 8 >= pte_tensor::ops::GEMM_MIN_MACS);
    let fast = conv2d(&x, &wt, &spec).unwrap();
    let naive = conv2d_naive(&x, &wt, &spec).unwrap();
    assert!(fast.allclose(&naive, 1e-3), "max diff {}", fast.max_abs_diff(&naive).unwrap());
}
