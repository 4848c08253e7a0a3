//! Per-layer timings for the traced run: the benchmark calls each layer's
//! public functions on the workload's own inputs and times them here, so
//! no span has to live inside the program.

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use pte_core::fisher::proxy::{self, PROXY_BATCH, PROXY_RESOLUTION};
use pte_core::ir::ConvShape;
use pte_core::search::candidates;
use pte_core::tensor::ops::{conv2d, gemm::gemm_nn, Conv2dSpec};
use pte_core::tensor::Tensor;
use pte_core::transform::Schedule;
use pte_core::NetworkPlan;
use pte_serve::codec::{PlanPayload, SearchRequest};
use pte_serve::json::fnv1a64;
use pte_serve::{HashRing, Json, PlanCache, PlanStore};

/// Per-layer metric values by name; names never set read as 0 (the layer
/// did no work on this workload).
pub type LayerValues = BTreeMap<&'static str, f64>;

/// Runs `op` until at least `min` has elapsed (and at least once); returns
/// the mean time per call.
fn time_per_call(min: Duration, mut op: impl FnMut()) -> Duration {
    let started = Instant::now();
    let mut calls = 0u32;
    while calls == 0 || started.elapsed() < min {
        op();
        calls += 1;
    }
    started.elapsed() / calls
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The schedules one unified search of `request` samples: for every
/// mutable layer class, the deterministic menu plus the seeded random
/// sequences, exactly as `unified::optimize` draws them.
struct Sampled {
    schedules: Vec<Schedule>,
    attempted: usize,
    valid: usize,
    sample_time: Duration,
    sample_calls: u32,
}

fn sample(request: &SearchRequest) -> Sampled {
    let network = request.network.resolve().expect("generated networks resolve");
    let mut out = Sampled {
        schedules: Vec::new(),
        attempted: 0,
        valid: 0,
        sample_time: Duration::ZERO,
        sample_calls: 0,
    };
    for (idx, layer) in network.distinct_configs().into_iter().enumerate() {
        out.schedules.push(layer.to_schedule());
        if !layer.mutable {
            continue;
        }
        let (menu, menu_attempted) = candidates::enumerate(layer);
        let started = Instant::now();
        let (random, random_attempted) = candidates::random(
            layer,
            request.random_per_layer as usize,
            pte_core::tensor::rng::derive_seed(request.seed, idx as u64),
        );
        out.sample_time += started.elapsed();
        out.sample_calls += 1;
        out.attempted += menu_attempted + random_attempted;
        out.valid += menu.len() + random.len();
        out.schedules.extend(menu.into_iter().chain(random).flat_map(|c| c.schedules));
    }
    out
}

fn distinct_shapes(schedules: &[Schedule]) -> Vec<ConvShape> {
    let mut seen = HashSet::new();
    schedules.iter().filter_map(|s| s.nest().conv().copied()).filter(|s| seen.insert(*s)).collect()
}

/// Kernel, probe, sampling, tuning and cost-model layers, timed on the
/// searches in `requests` (at most four are sampled).
pub fn search_layers(requests: &[SearchRequest], out: &mut LayerValues) {
    let picked: Vec<&SearchRequest> = requests.iter().take(4).collect();
    let (mut wave_ms, mut probes, mut sample_us, mut valid, mut attempted) =
        (0.0, 0.0, 0.0, 0usize, 0usize);
    let (mut tune_total, mut tune_calls, mut estimate_total, mut estimate_calls) =
        (Duration::ZERO, 0u32, Duration::ZERO, 0u32);
    let mut conv_shapes = Vec::new();
    for request in &picked {
        let s = sample(request);
        sample_us += us(s.sample_time) / f64::from(s.sample_calls.max(1));
        valid += s.valid;
        attempted += s.attempted;
        let shapes = distinct_shapes(&s.schedules);
        proxy::clear_probe_cache();
        let started = Instant::now();
        black_box(proxy::batch_conv_shape_fisher(&shapes, request.tune_seed));
        wave_ms += started.elapsed().as_secs_f64() * 1e3;
        probes += proxy::probe_cache_stats().misses as f64;
        proxy::clear_probe_cache();

        let platform = request.platform.resolve();
        let tune = request.tune_options();
        for schedule in s.schedules.iter().step_by((s.schedules.len() / 12).max(1)) {
            let started = Instant::now();
            black_box(pte_core::autotune::tune(schedule, &platform, &tune));
            tune_total += started.elapsed();
            tune_calls += 1;
            estimate_total += time_per_call(Duration::from_millis(2), || {
                black_box(pte_core::machine::cost::estimate(black_box(schedule), &platform));
            });
            estimate_calls += 1;
        }
        let network = request.network.resolve().expect("generated networks resolve");
        conv_shapes
            .extend(network.distinct_configs().into_iter().map(|l| (l.c_in, l.c_out, l.kernel)));
    }
    let n = picked.len().max(1) as f64;
    out.insert("fisher.probe_wave_ms", wave_ms / n);
    out.insert("fisher.probes", probes / n);
    out.insert("transform.sample_us", sample_us / n);
    // Every attempted sequence that did not yield a candidate was invalid.
    out.insert(
        "transform.invalid_ratio",
        crate::stats::ratio(attempted.saturating_sub(valid) as f64, attempted as f64),
    );
    out.insert("autotune.tune_us", us(tune_total) / f64::from(tune_calls.max(1)));
    out.insert("machine.estimate_us", us(estimate_total) / f64::from(estimate_calls.max(1)));
    tensor_layers(&conv_shapes, out);
}

/// GEMM throughput and probe-scale convolution time on the probe geometry
/// of the workload's original layers (channels capped as the Fisher probe
/// caps them, `PROXY_BATCH` images at `PROXY_RESOLUTION`²).
fn tensor_layers(layers: &[(usize, usize, usize)], out: &mut LayerValues) {
    let mut seen = HashSet::new();
    let geometry: Vec<(usize, usize, usize)> = layers
        .iter()
        .map(|&(c_in, c_out, k)| {
            (proxy::proxy_channels(c_in, 1), proxy::proxy_channels(c_out, 1), k)
        })
        .filter(|g| seen.insert(*g))
        .collect();
    let pixels = PROXY_BATCH * PROXY_RESOLUTION * PROXY_RESOLUTION;
    let (mut flops, mut gemm_time) = (0.0, Duration::ZERO);
    let mut conv_time = Duration::ZERO;
    for &(c_in, c_out, k) in &geometry {
        let (m, kk, n) = (c_out, c_in * k * k, pixels);
        let a = vec![0.5f32; m * kk];
        let b = vec![0.25f32; kk * n];
        let mut c = vec![0.0f32; m * n];
        gemm_time += time_per_call(Duration::from_millis(5), || {
            gemm_nn(m, kk, n, black_box(&a), black_box(&b), &mut c);
            black_box(&c);
        });
        flops += 2.0 * (m * kk * n) as f64;

        let spec = Conv2dSpec::new(c_in, c_out, k).with_padding(k / 2);
        let input = Tensor::randn(&[PROXY_BATCH, c_in, PROXY_RESOLUTION, PROXY_RESOLUTION], 1);
        let weight = Tensor::randn(&[c_out, c_in, k, k], 2);
        conv_time += time_per_call(Duration::from_millis(5), || {
            black_box(conv2d(black_box(&input), &weight, &spec).expect("valid probe conv"));
        });
    }
    out.insert("tensor.gemm_gflops", crate::stats::ratio(flops, gemm_time.as_secs_f64()) / 1e9);
    out.insert("tensor.conv_ms", conv_time.as_secs_f64() * 1e3);
}

/// Codec, cache, store and ring-lookup layers, timed in-process on the
/// workload's `(request, payload)` pairs.
pub fn data_plane_layers(
    pairs: &[(SearchRequest, String)],
    work_dir: &Path,
    out: &mut LayerValues,
) {
    let texts: Vec<(String, String)> = pairs
        .iter()
        .map(|(r, payload)| (r.encode().expect("finite request"), payload.clone()))
        .collect();
    let per_op = |total: Duration| us(total) / texts.len().max(1) as f64;
    let min = Duration::from_millis(20);

    let decode = time_per_call(min, || {
        for (canonical, _) in &texts {
            let doc = Json::parse(black_box(canonical)).expect("canonical JSON");
            black_box(SearchRequest::from_json(&doc).expect("valid request"));
        }
    });
    out.insert("codec.decode_us", per_op(decode));
    let key = time_per_call(min, || {
        for (request, _) in pairs {
            let canonical = request.encode().expect("finite request");
            black_box(fnv1a64(canonical.as_bytes()));
        }
    });
    out.insert("codec.key_us", per_op(key));

    let cache = PlanCache::new(256, 8);
    for (canonical, payload) in &texts {
        cache.seed(canonical, fnv1a64(canonical.as_bytes()), payload);
    }
    let hashes: Vec<u64> = texts.iter().map(|(c, _)| fnv1a64(c.as_bytes())).collect();
    let peek = time_per_call(min, || {
        for ((canonical, _), &hash) in texts.iter().zip(&hashes) {
            black_box(cache.peek(canonical, hash).expect("seeded key"));
        }
    });
    out.insert("cache.peek_us", per_op(peek));

    let ring = HashRing::build(&["shard-0".to_string(), "shard-1".to_string()], 64);
    let lookup = time_per_call(min, || {
        for &hash in &hashes {
            black_box(ring.replicas(black_box(hash), 2));
        }
    });
    out.insert("router.ring_lookup_us", per_op(lookup));

    let log = work_dir.join("layer-store.log");
    let _ = std::fs::remove_file(&log);
    let (store, _) = PlanStore::open(&log).expect("plan log opens");
    let started = Instant::now();
    for (canonical, payload) in &texts {
        store.append(canonical, payload).expect("plan log append");
    }
    out.insert("store.append_us", per_op(started.elapsed()));
    drop(store);
    let started = Instant::now();
    let (_, replay) = PlanStore::open(&log).expect("plan log reopens");
    out.insert("store.replay_ms", started.elapsed().as_secs_f64() * 1e3);
    assert_eq!(replay.records.len(), texts.len(), "plan log replays every append");
    let _ = std::fs::remove_file(&log);
}

/// Candidate, rejection and tune-call counts from the search statistics
/// the served plans carry.
pub fn plan_stats_layers(payloads: &[&str], out: &mut LayerValues) {
    let (mut attempted, mut rejected, mut tune_calls, mut plans) = (0.0, 0.0, 0.0, 0.0);
    for plan in payloads.iter().filter_map(|p| PlanPayload::parse(p).ok()) {
        attempted += plan.stats.attempted as f64;
        rejected += plan.stats.fisher_rejected as f64;
        // One tune per layer class for the baseline, one per survivor.
        tune_calls += (plan.stats.survivors + plan.layers.len() as u64) as f64;
        plans += 1.0;
    }
    out.insert("search.candidates", crate::stats::ratio(attempted, plans));
    out.insert("search.fisher_reject_ratio", crate::stats::ratio(rejected, attempted));
    out.insert("autotune.calls", crate::stats::ratio(tune_calls, plans));
}

/// Mean time of `NetworkPlan::baseline` (probe memo cleared first) over
/// up to four of the workload's requests.
pub fn baseline_layer(requests: &[SearchRequest], out: &mut LayerValues) {
    let picked: Vec<&SearchRequest> = requests.iter().take(4).collect();
    let mut total = Duration::ZERO;
    for request in &picked {
        let network = request.network.resolve().expect("generated networks resolve");
        let platform = request.platform.resolve();
        proxy::clear_probe_cache();
        let started = Instant::now();
        black_box(NetworkPlan::baseline(&network, &platform, &request.tune_options()));
        total += started.elapsed();
    }
    proxy::clear_probe_cache();
    out.insert("search.baseline_ms", total.as_secs_f64() * 1e3 / picked.len().max(1) as f64);
}
