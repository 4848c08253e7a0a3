//! Ablation: the cache simulator against the analytical
//! locality model — simulation throughput, plus (in the analysis test of
//! `pte-machine`) agreement on schedule ordering.

use criterion::{criterion_group, criterion_main, Criterion};
use pte_core::exec::trace::address_trace;
use pte_core::ir::{ConvShape, LoopNest};
use pte_core::machine::{cachesim, CacheLevel};
use pte_core::transform::Schedule;
use std::hint::black_box;

fn bench_cachesim(c: &mut Criterion) {
    let mut group = c.benchmark_group("cachesim");
    group.sample_size(10);

    let levels = [
        CacheLevel { size_bytes: 32 << 10, line_bytes: 64, assoc: 8, latency_cycles: 4 },
        CacheLevel { size_bytes: 256 << 10, line_bytes: 64, assoc: 8, latency_cycles: 12 },
    ];
    let shape = ConvShape::standard(32, 32, 3, 20, 20);

    let naive = LoopNest::conv2d(&shape);
    let (naive_trace, _) = address_trace(&naive, 300_000).unwrap();
    group.bench_function("naive_schedule_trace", |b| {
        b.iter(|| black_box(cachesim::simulate_hierarchy(&levels, black_box(&naive_trace))))
    });

    let mut tiled = Schedule::new(LoopNest::conv2d(&shape));
    tiled.tile("ci", 8).unwrap();
    tiled.tile("oh", 6).unwrap();
    let (tiled_trace, _) = address_trace(tiled.nest(), 300_000).unwrap();
    group.bench_function("tiled_schedule_trace", |b| {
        b.iter(|| black_box(cachesim::simulate_hierarchy(&levels, black_box(&tiled_trace))))
    });
    group.finish();
}

criterion_group!(benches, bench_cachesim);
criterion_main!(benches);
