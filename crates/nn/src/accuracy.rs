//! The trained-accuracy surrogate (a documented substitution for training).
//!
//! The paper trains every evaluated network (200 epochs CIFAR-10 / 90 epochs
//! ImageNet) to report final accuracy. Training is out of scope for this
//! reproduction, so final accuracy is modelled by deterministic, calibrated
//! functions of architecture statistics:
//!
//! * [`cell_oracle_error`] — the NAS-Bench-201 "final error" oracle behind
//!   Figure 3: structural capacity (live paths, convolution edges, skip
//!   connections, parameters) plus seeded noise, calibrated to the
//!   benchmark's published error range (≈5.5%–90% on CIFAR-10).
//! * [`predict_error`] — error of a *transformed* network relative to its
//!   trained original, driven by the compression ratio and the Fisher ratio,
//!   calibrated to the paper's reported deltas (<1% CIFAR, <2% ImageNet,
//!   with occasional small improvements as in §7.2).
//!
//! What is *not* surrogate: Fisher Potential itself (computed numerically in
//! `pte-fisher`) and all performance numbers (from `pte-machine`).

use pte_tensor::rng::{derive_seed, normal, seeded};

use crate::cell::Cell;
use crate::Network;

/// Deterministic unit-normal noise keyed by `(seed, key)`.
fn noise(seed: u64, key: u64) -> f64 {
    let mut rng = seeded(derive_seed(seed, key));
    f64::from(normal(&mut rng))
}

/// Final CIFAR-10 top-1 error (%) for a NAS-Bench-201 cell, at the standard
/// skeleton depth (5 cells per stage).
///
/// Calibration targets the published benchmark statistics: the best cells
/// (convolution-rich, with skip connections) land near 5.5% error; cells with
/// no input→output signal path are untrainable (≈90%, i.e. random); conv-free
/// but connected cells cluster in the teens (the skeleton's fixed stem and
/// reduction blocks still learn something).
pub fn cell_oracle_error(cell: &Cell, seed: u64) -> f64 {
    let key = cell.index() as u64;
    if !cell.has_path() {
        return (88.0 + noise(seed, key) * 1.5).clamp(80.0, 90.0);
    }
    let n_conv = cell.conv_edges() as f64;
    let n_skip = cell.skip_edges() as f64;
    let params = cell.skeleton_params(5) as f64;
    let error = 15.5 - 1.25 * n_conv - 0.45 * n_skip - 0.9 * (1.0 + params / 2.0e4).ln()
        + noise(seed, key) * 1.2;
    error.clamp(5.2, 90.0)
}

/// Top-1 error (%) of a transformed network, anchored at the trained
/// original's error.
///
/// * `network` — the original (provides the anchor error and parameters);
/// * `new_params` — parameter count after the capacity-changing transforms;
/// * `fisher_ratio` — transformed Fisher Potential over original (≥ ~1 for
///   candidates the legality check accepts);
/// * `seed` — experiment seed (training-run noise).
pub fn predict_error(network: &Network, new_params: u64, fisher_ratio: f64, seed: u64) -> f64 {
    let base = network.base_error();
    let ratio = (network.params() as f64 / new_params.max(1) as f64).max(1.0);
    // Compression penalty: sub-1% for the 2–3x compressions the paper
    // reports, growing super-logarithmically for aggressive compression.
    let penalty = 0.45 * ratio.ln().powf(1.6);
    // Capacity penalty: only bites when Fisher dropped below the original —
    // exactly the candidates the legality check would reject.
    let fisher_penalty = if fisher_ratio < 1.0 { 3.0 * (1.0 - fisher_ratio).powi(2) } else { 0.0 };
    // Small systematic gain: compression acts as a regulariser at these
    // scales (the paper's ResNet-34 got slightly *more* accurate, §7.2).
    let regularisation = -0.2;
    let run_noise = noise(seed, new_params ^ 0x5EED) * 0.12;
    (base + penalty + fisher_penalty + regularisation + run_noise).max(base - 0.6)
}

/// Convenience: error delta (transformed − original) in percentage points.
pub fn error_delta(network: &Network, new_params: u64, fisher_ratio: f64, seed: u64) -> f64 {
    predict_error(network, new_params, fisher_ratio, seed) - network.base_error()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::EdgeOp;
    use crate::{resnet34, DatasetKind};

    #[test]
    fn dead_cells_are_random() {
        let dead = Cell::from_index(0);
        let e = cell_oracle_error(&dead, 1);
        assert!(e > 80.0);
    }

    #[test]
    fn conv_rich_cells_beat_conv_free_cells() {
        let rich = Cell::new([EdgeOp::Conv3x3; 6]);
        let mut poor_ops = [EdgeOp::Identity; 6];
        poor_ops[0] = EdgeOp::AvgPool3;
        let poor = Cell::new(poor_ops);
        assert!(cell_oracle_error(&rich, 1) < cell_oracle_error(&poor, 1));
    }

    #[test]
    fn best_cells_near_benchmark_floor() {
        let best = Cell::new([
            EdgeOp::Conv3x3,
            EdgeOp::Conv3x3,
            EdgeOp::Conv3x3,
            EdgeOp::Identity,
            EdgeOp::Conv3x3,
            EdgeOp::Conv3x3,
        ]);
        let e = cell_oracle_error(&best, 1);
        assert!((5.0..8.0).contains(&e), "error {e}");
    }

    #[test]
    fn oracle_is_deterministic() {
        let c = Cell::from_index(1234);
        assert_eq!(cell_oracle_error(&c, 7), cell_oracle_error(&c, 7));
        assert_ne!(cell_oracle_error(&c, 7), cell_oracle_error(&c, 8));
    }

    #[test]
    fn paper_scale_compression_stays_within_one_percent() {
        // §7.2: ResNet-34 compressed 22M → 9M with no accuracy loss; CIFAR
        // networks compressed 2–3x with deltas under 1%.
        let net = resnet34(DatasetKind::ImageNet);
        let delta = error_delta(&net, 9_000_000, 1.05, 3);
        assert!(delta.abs() < 1.0, "delta {delta}");
    }

    #[test]
    fn over_compression_hurts() {
        let net = resnet34(DatasetKind::Cifar10);
        let mild = predict_error(&net, net.params() / 2, 1.0, 3);
        let extreme = predict_error(&net, net.params() / 64, 1.0, 3);
        assert!(extreme > mild + 1.0);
    }

    #[test]
    fn low_fisher_candidates_degrade() {
        let net = resnet34(DatasetKind::Cifar10);
        let ok = predict_error(&net, net.params() / 2, 1.0, 3);
        let bad = predict_error(&net, net.params() / 2, 0.3, 3);
        assert!(bad > ok + 0.5);
    }
}
