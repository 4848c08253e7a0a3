//! Ablation: the Fisher legality filter on vs off.
//!
//! With the filter disabled (tolerance 1.0 ≙ accept-all), every candidate —
//! including capacity-destroying ones — reaches the tuner: the search gets
//! slower *and* its winners would need training to validate. The filter is
//! what "eliminates the need to train while searching" (§1.3).

use criterion::{criterion_group, criterion_main, Criterion};
use pte_core::autotune::TuneOptions;
use pte_core::fisher::FisherLegality;
use pte_core::nn::{resnet18, DatasetKind};
use pte_core::search::unified::{optimize, UnifiedOptions};
use pte_core::Platform;
use std::hint::black_box;

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("fisher_ablation");
    group.sample_size(10);
    let network = resnet18(DatasetKind::Cifar10);
    let platform = Platform::intel_i7();
    let base = UnifiedOptions {
        random_per_layer: 4,
        tune: TuneOptions { trials: 8, seed: 0 },
        ..UnifiedOptions::default()
    };

    group.bench_function("filter_on", |b| {
        b.iter(|| black_box(optimize(&network, &platform, black_box(&base))))
    });

    let off = UnifiedOptions {
        class_legality: FisherLegality { tolerance: 1.0 },
        network_legality: FisherLegality { tolerance: 1.0 },
        ..base.clone()
    };
    group.bench_function("filter_off_accept_all", |b| {
        b.iter(|| black_box(optimize(&network, &platform, black_box(&off))))
    });
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
