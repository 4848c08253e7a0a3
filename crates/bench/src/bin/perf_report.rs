//! Execution-engine performance report.
//!
//! Times the three layers of the vectorized execution engine against their
//! pre-engine baselines and writes `BENCH_exec.json` so future PRs can track
//! the trajectory:
//!
//! 1. **interpreter** — strength-reduced fused-kernel engine
//!    (`CompiledNest::run`) vs the per-point scalar walk (`run_scalar`) over
//!    the conv_variants workload;
//! 2. **gemm** — the packed-panel register-blocked micro-kernels (AVX2 where
//!    the CPU has it, portable scalar otherwise) vs the PR 1 cache-blocked
//!    GEMM, over probe-wave-scale `nn`/`nt`/`tn` products, with SIMD-vs-
//!    scalar bit-identity asserted in **every** mode (quick included);
//! 3. **conv** — im2col + GEMM vs the naive 7-deep loop nest,
//!    forward and backward, at Fisher-probe scale;
//! 4. **probe** — batched shape-class Fisher probing (`probe_wave`: one
//!    im2col per class, multi-image GEMM waves, class-wide BN/readout/
//!    backward tail waves with pooled RNG streams) vs the per-candidate
//!    probe path, over a realistic evaluation wave (every deterministic
//!    candidate of two ResNet layer classes), with scores asserted
//!    bit-identical;
//! 5. **search** — the full unified search: worker-pool parallel + GEMM
//!    probes vs the serial + naive-conv pre-engine configuration (the
//!    process-wide probe memo is cleared before each timed run so both start
//!    cold), plus a bit-identity check between the serial and parallel
//!    drivers;
//! 6. **serve** — the search-as-a-service layer over real TCP: warm-cache
//!    throughput vs a cold-cache search, the single-flight collapse of
//!    concurrent duplicate requests, and the end-to-end contract that the
//!    served payload is byte-identical to a direct in-process search
//!    (asserted in **every** mode; the warm ≥ 5× cold floor in full mode).
//!
//! `PTE_QUICK=1` trims repetitions for smoke runs.

use std::fmt::Write as _;
use std::time::Instant;

use pte_bench::{banner, quick_mode};
use pte_core::autotune::TuneOptions;
use pte_core::exec::{oracle::random_inputs, CompiledNest};
use pte_core::fisher::proxy::{clear_probe_cache, conv_shape_fisher_unmemoised, probe_wave};
use pte_core::ir::{ConvShape, LoopNest};
use pte_core::machine::Platform;
use pte_core::nn::{resnet18, resnet34, resnext29_2x64d, ConvLayer, DatasetKind};
use pte_core::search::candidates;
use pte_core::search::evolve::{self, EvolveOptions};
use pte_core::search::unified::{optimize, optimize_serial, UnifiedOptions};
use pte_core::tensor::ops::gemm::{
    gemm_nn_batch_with, gemm_nn_with, gemm_nt_with, gemm_tn_with, simd_kernel_available,
    GemmBackend, GemmNnTask,
};
use pte_core::tensor::ops::{
    conv2d_backward_gemm, conv2d_backward_naive, conv2d_gemm, conv2d_naive, set_force_naive,
    Conv2dSpec,
};
use pte_core::tensor::Tensor;
use pte_core::transform::Schedule;
use pte_serve::client::Client;
use pte_serve::codec::PlanPayload;
use pte_serve::server::{serve, ServerConfig};
use pte_serve::workload::{bench_request as request, settled_thread_count, thread_count};

fn time_ms<O>(reps: u32, mut f: impl FnMut() -> O) -> f64 {
    std::hint::black_box(f()); // warm-up
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e3 / f64::from(reps)
}

struct Row {
    name: String,
    baseline_ms: f64,
    engine_ms: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.baseline_ms / self.engine_ms
    }
}

fn interpreter_rows(reps: u32) -> Vec<Row> {
    let shape = ConvShape::standard(32, 32, 3, 18, 18);
    let cases: Vec<(&str, Schedule)> = vec![
        ("standard", Schedule::new(LoopNest::conv2d(&shape))),
        ("grouped_g4", {
            let mut s = Schedule::new(LoopNest::conv2d(&shape));
            s.group(4).unwrap();
            s
        }),
        ("depthwise", {
            let mut s = Schedule::new(LoopNest::conv2d(&shape));
            s.depthwise().unwrap();
            s
        }),
        ("bottleneck_b4", {
            let mut s = Schedule::new(LoopNest::conv2d(&shape));
            s.bottleneck("co", 4).unwrap();
            s
        }),
        ("tiled_standard", {
            let mut s = Schedule::new(LoopNest::conv2d(&shape));
            s.tile("ci", 8).unwrap();
            s
        }),
    ];
    cases
        .iter()
        .map(|(name, schedule)| {
            let inputs = random_inputs(schedule.nest(), 7);
            let compiled = CompiledNest::compile(schedule.nest()).unwrap();
            let scalar = time_ms(reps, || compiled.run_scalar(&inputs).unwrap());
            let fast = time_ms(reps, || compiled.run(&inputs).unwrap());
            Row { name: (*name).to_string(), baseline_ms: scalar, engine_ms: fast }
        })
        .collect()
}

fn conv_rows(reps: u32) -> Vec<Row> {
    // Probe-scale (the Fisher hot path) and a mid-size grouped layer.
    let cases = [
        ("probe_64ch_8x8_b8", Conv2dSpec::new(64, 64, 3).with_padding(1), 8usize, 8usize, 8usize),
        (
            "layer_32ch_16x16_g4",
            Conv2dSpec::new(32, 32, 3).with_padding(1).with_groups(4),
            2,
            16,
            16,
        ),
    ];
    let mut rows = Vec::new();
    for (name, spec, n, h, w) in cases {
        let x = Tensor::randn(&[n, spec.c_in, h, w], 1);
        let wt = Tensor::randn(&spec.weight_dims(), 2);
        let naive = time_ms(reps, || conv2d_naive(&x, &wt, &spec).unwrap());
        let gemm = time_ms(reps, || conv2d_gemm(&x, &wt, &spec).unwrap());
        rows.push(Row { name: format!("{name}/forward"), baseline_ms: naive, engine_ms: gemm });

        let y = conv2d_naive(&x, &wt, &spec).unwrap();
        let d_out = Tensor::randn(y.shape().dims(), 3);
        let naive_b = time_ms(reps, || conv2d_backward_naive(&x, &wt, &spec, &d_out).unwrap());
        let gemm_b = time_ms(reps, || conv2d_backward_gemm(&x, &wt, &spec, &d_out).unwrap());
        rows.push(Row {
            name: format!("{name}/backward"),
            baseline_ms: naive_b,
            engine_ms: gemm_b,
        });
    }
    rows
}

/// The micro-kernel backend this machine's `Auto` dispatch resolves to for
/// large products: AVX2 where detected, the portable scalar kernel
/// otherwise.
fn micro_backend() -> GemmBackend {
    if simd_kernel_available() {
        GemmBackend::PackedSimd
    } else {
        GemmBackend::PackedScalar
    }
}

/// Micro-kernel vs PR 1 blocked GEMM over probe-wave-scale products: the
/// `nn` forward shapes a shape-class wave runs (`cog × cig·K² × batch·OH·OW`)
/// and the `nt`/`tn` transposed shapes conv backward runs.
fn gemm_rows(reps: u32) -> Vec<Row> {
    type GemmOp = fn(GemmBackend, usize, usize, usize, &[f32], &[f32], &mut [f32]);
    let kernel = if simd_kernel_available() { "avx2" } else { "scalar" };
    let micro = micro_backend();
    // (name, layout entry point, m, k, n)
    let cases: [(&str, GemmOp, usize, usize, usize); 4] = [
        ("nn_probe_wave_64x576x512", gemm_nn_with, 64, 576, 512),
        ("nn_layer_128x1152x512", gemm_nn_with, 128, 1152, 512),
        ("nt_dweight_64x512x576", gemm_nt_with, 64, 512, 576),
        ("tn_dcol_576x64x512", gemm_tn_with, 576, 64, 512),
    ];
    cases
        .iter()
        .map(|&(name, op, m, k, n)| {
            // An `m×k` / `k×n` allocation also covers the transposed views
            // (`nt` reads `b` as n×k, `tn` reads `a` as k×m — same lengths).
            let a = Tensor::randn(&[m, k], 11).into_vec();
            let b = Tensor::randn(&[k, n], 12).into_vec();
            let mut c = vec![0.0f32; m * n];
            let baseline_ms = time_ms(reps, || {
                c.fill(0.0);
                op(GemmBackend::Blocked, m, k, n, &a, &b, &mut c);
            });
            let engine_ms = time_ms(reps, || {
                c.fill(0.0);
                op(micro, m, k, n, &a, &b, &mut c);
            });
            Row { name: format!("{name}/{kernel}"), baseline_ms, engine_ms }
        })
        .collect()
}

/// SIMD-vs-scalar (and blocked) bit-identity over odd shapes straddling the
/// tile geometry, plus the shared-`B` batched path — the correctness
/// property that makes kernel dispatch invisible. Asserted in every mode;
/// the exhaustive sweep lives in `tensor/tests/gemm_kernel_parity.rs`.
fn gemm_bit_identity() -> bool {
    let backends = [GemmBackend::PackedSimd, GemmBackend::PackedScalar, GemmBackend::Blocked];
    let shapes = [(13usize, 29usize, 17usize), (9, 97, 11), (64, 63, 65)];
    for (m, k, n) in shapes {
        let a = Tensor::randn(&[m, k], 21).into_vec();
        let b = Tensor::randn(&[k, n], 22).into_vec();
        let mut reference: Option<[Vec<f32>; 3]> = None;
        for backend in backends {
            let mut nn = vec![0.0f32; m * n];
            gemm_nn_with(backend, m, k, n, &a, &b, &mut nn);
            let mut nt = vec![0.0f32; m * n];
            gemm_nt_with(backend, m, k, n, &a, &b, &mut nt);
            let mut tn = vec![0.0f32; m * n];
            gemm_tn_with(backend, m, k, n, &a, &b, &mut tn);
            match &reference {
                None => reference = Some([nn, nt, tn]),
                Some(want) => {
                    let bits = |x: &[f32], y: &[f32]| {
                        x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
                    };
                    if !(bits(&nn, &want[0]) && bits(&nt, &want[1]) && bits(&tn, &want[2])) {
                        return false;
                    }
                }
            }
        }
    }
    // Shared-B batch path: forced SIMD vs forced scalar waves.
    let (m, k, n) = (12usize, 41usize, 23usize);
    let a0 = Tensor::randn(&[m, k], 23).into_vec();
    let a1 = Tensor::randn(&[m, k], 24).into_vec();
    let b = Tensor::randn(&[k, n], 25).into_vec();
    let run = |backend: GemmBackend| {
        let mut c0 = vec![0.0f32; m * n];
        let mut c1 = vec![0.0f32; m * n];
        gemm_nn_batch_with(
            backend,
            vec![
                GemmNnTask { m, k, n, a: &a0, b: &b, c: &mut c0 },
                GemmNnTask { m, k, n, a: &a1, b: &b, c: &mut c1 },
            ],
        );
        (c0, c1)
    };
    let (s0, s1) = run(GemmBackend::PackedSimd);
    let (p0, p1) = run(GemmBackend::PackedScalar);
    s0.iter().zip(&p0).chain(s1.iter().zip(&p1)).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// A realistic evaluation wave: every deterministic candidate shape of two
/// ResNet-style layer classes (the shapes one `Evaluator` wave hands the
/// probe scheduler).
fn probe_wave_shapes() -> Vec<ConvShape> {
    let layers = [
        ConvLayer::new("a", 64, 64, 3, 1, 1, 16, 16),
        ConvLayer::new("b", 32, 32, 3, 1, 1, 32, 32),
    ];
    let mut shapes = Vec::new();
    for layer in layers {
        shapes.push(*layer.to_schedule().nest().conv().expect("conv nest"));
        let (cands, _) = candidates::enumerate(&layer);
        shapes.extend(
            cands.iter().flat_map(|c| c.schedules.iter().filter_map(|s| s.nest().conv().copied())),
        );
    }
    shapes
}

fn probe_row(reps: u32) -> (Row, bool) {
    let shapes = probe_wave_shapes();
    let seed = 0u64;
    let per_candidate: Vec<f64> =
        shapes.iter().map(|s| conv_shape_fisher_unmemoised(s, seed)).collect();
    let batched = probe_wave(&shapes, seed);
    let identical = per_candidate.iter().zip(&batched).all(|(a, b)| a.to_bits() == b.to_bits());

    let baseline_ms =
        time_ms(reps, || shapes.iter().map(|s| conv_shape_fisher_unmemoised(s, seed)).sum::<f64>());
    let engine_ms = time_ms(reps, || probe_wave(&shapes, seed).iter().sum::<f64>());
    (
        Row { name: format!("fisher_wave/{}_shapes", shapes.len()), baseline_ms, engine_ms },
        identical,
    )
}

fn search_row(options: &UnifiedOptions) -> (Row, bool) {
    let network = resnet18(DatasetKind::Cifar10);
    let platform = Platform::intel_i7();

    // Pre-engine configuration: serial driver, naive convolution probes.
    set_force_naive(true);
    clear_probe_cache();
    let start = Instant::now();
    let pre = optimize_serial(&network, &platform, options);
    let baseline_ms = start.elapsed().as_secs_f64() * 1e3;
    set_force_naive(false);

    // Engine configuration: parallel driver, GEMM probes.
    clear_probe_cache();
    let start = Instant::now();
    let ours = optimize(&network, &platform, options);
    let engine_ms = start.elapsed().as_secs_f64() * 1e3;

    // Bit-identity between the serial and parallel drivers (same engine).
    let serial = optimize_serial(&network, &platform, options);
    let identical = serial.plan.latency_ms().to_bits() == ours.plan.latency_ms().to_bits()
        && serial.plan.fisher().to_bits() == ours.plan.fisher().to_bits()
        && serial.plan.params() == ours.plan.params()
        && serial.stats == ours.stats;
    let _ = pre; // plans across engines may differ in borderline Fisher calls

    (Row { name: "unified_search/resnet18".into(), baseline_ms, engine_ms }, identical)
}

/// One evolve-vs-unified comparison: both strategies on the same Figure 4
/// workload at the same per-class evaluation budget.
struct EvolveRow {
    workload: &'static str,
    /// Per-class buffer/random evaluation budget both strategies spend.
    budget: usize,
    unified_ms: f64,
    evolve_ms: f64,
    unified_fisher: f64,
    evolve_fisher: f64,
    /// Candidate evaluations each strategy attempted for its final plan.
    unified_evals: usize,
    evolve_evals: usize,
    /// Evolve's serial and parallel drivers produced bit-identical plans
    /// and stats (the seeded-replay contract, asserted in every mode).
    replay_identical: bool,
}

impl EvolveRow {
    fn matches_or_beats(&self) -> bool {
        self.evolve_ms <= self.unified_ms
    }
}

/// Evolutionary vs unified search on Figure 4 workloads at equal per-class
/// evaluation budget. Plan quality is final-plan latency; evaluations per
/// plan come from each strategy's own `SearchStats::attempted`.
fn evolve_rows(budget: usize) -> Vec<EvolveRow> {
    let platform = Platform::intel_i7();
    let tune = TuneOptions { trials: 32, seed: 0 };
    let workloads: Vec<(&'static str, pte_core::nn::Network)> = if quick_mode() {
        vec![("resnet34-cifar10", resnet34(DatasetKind::Cifar10))]
    } else {
        vec![
            ("resnet34-cifar10", resnet34(DatasetKind::Cifar10)),
            ("resnext29_2x64d", resnext29_2x64d()),
        ]
    };
    workloads
        .into_iter()
        .map(|(workload, network)| {
            let unified_options =
                UnifiedOptions { random_per_layer: budget, tune, ..UnifiedOptions::default() };
            let evolve_options = EvolveOptions { tune, ..EvolveOptions::with_budget(budget) };
            clear_probe_cache();
            let unified = optimize(&network, &platform, &unified_options);
            clear_probe_cache();
            let evolved = evolve::optimize(&network, &platform, &evolve_options);
            let serial = evolve::optimize_serial(&network, &platform, &evolve_options);
            let replay_identical = serial.plan.latency_ms().to_bits()
                == evolved.plan.latency_ms().to_bits()
                && serial.plan.fisher().to_bits() == evolved.plan.fisher().to_bits()
                && serial.plan.params() == evolved.plan.params()
                && serial.stats == evolved.stats;
            EvolveRow {
                workload,
                budget: evolve_options.budget(),
                unified_ms: unified.plan.latency_ms(),
                evolve_ms: evolved.plan.latency_ms(),
                unified_fisher: unified.plan.fisher(),
                evolve_fisher: evolved.plan.fisher(),
                unified_evals: unified.stats.attempted,
                evolve_evals: evolved.stats.attempted,
                replay_identical,
            }
        })
        .collect()
}

/// The serve section's measurements.
struct ServeReport {
    /// One cold-cache search over TCP (cache miss running the engine).
    cold_ms: f64,
    /// Mean warm-cache request (pure cache hit over TCP).
    warm_ms: f64,
    /// Warm-request latency percentiles (ms).
    json_warm_p50_ms: f64,
    json_warm_p95_ms: f64,
    /// The served plan's wire size: its canonical JSON text.
    json_payload_bytes: usize,
    /// Concurrent duplicate clients fired at one fresh request...
    collapse_clients: usize,
    /// ...and how many searches the single-flight cache actually ran.
    collapse_searches: u64,
    /// Idle keep-alive connections parked across the warm phases...
    idle_connections: usize,
    /// ...without growing the process thread count (None when
    /// /proc/self/status is unavailable and the check cannot run).
    threads_flat: Option<bool>,
    /// Served payloads (cold, warm, every collapse reply) byte-identical to the direct in-process search's codec output.
    identical: bool,
}

impl ServeReport {
    fn warm_speedup(&self) -> f64 {
        self.cold_ms / self.warm_ms
    }
}

/// Telemetry cost accounting: the complete per-request record path a warm
/// cache hit executes — the `pte_request_json_us`, per-op, and cache-hit
/// histogram records, the queue-depth gauge, and the `search` root span
/// (two clock reads plus one histogram record) — microbenchmarked in
/// isolation and priced against the measured warm p50. Histograms are
/// lock-free atomics and the statics are forced at boot, so this *is* the
/// whole observation cost of a warm request.
struct TelemetryReport {
    /// Mean cost of one request's worth of telemetry records (µs).
    per_request_us: f64,
    /// The warm-path p50 the cost is priced against (ms).
    warm_p50_ms: f64,
}

impl TelemetryReport {
    fn overhead_pct(&self) -> f64 {
        if self.warm_p50_ms <= 0.0 {
            return 0.0;
        }
        self.per_request_us / (self.warm_p50_ms * 1e3) * 100.0
    }
}

fn telemetry_report(warm_p50_ms: f64) -> TelemetryReport {
    let codec_us = pte_telemetry::global().histogram("pte_request_json_us");
    let op_us = pte_telemetry::global().histogram("pte_request_search_us");
    let hit_us = pte_telemetry::global().histogram("pte_cache_hit_us");
    let queue = pte_telemetry::global().gauge("pte_queue_depth");
    let n: u32 = 100_000;
    let start = Instant::now();
    for i in 0..n {
        let _span = pte_telemetry::span("search");
        queue.set(i64::from(i % 4));
        hit_us.record(u64::from(i) & 0x3FF);
        op_us.record(u64::from(i) & 0x3FF);
        codec_us.record(u64::from(i) & 0x3FF);
    }
    let per_request_us = start.elapsed().as_secs_f64() * 1e6 / f64::from(n);
    TelemetryReport { per_request_us, warm_p50_ms }
}

/// The warm-restart measurements: a store-backed daemon is drained and
/// rebooted on its own plan log.
struct RestartReport {
    /// Boot-to-first-reply on the restarted daemon (open + replay the log,
    /// bind, serve one request).
    warmup_ms: f64,
    /// The first post-restart request was answered from the replayed cache.
    first_hit: bool,
    /// ...with payload bytes identical to the pre-restart reply.
    identical: bool,
}

/// Nearest-rank percentile over per-request latencies.
fn percentile_ms(latencies: &mut [f64], q: f64) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let rank = ((q * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
    latencies[rank - 1]
}

/// Cold vs warm serving throughput and the single-flight collapse, over a
/// real TCP daemon started in-process on an ephemeral port.
fn serve_report(reps: u32) -> ServeReport {
    let handle = serve(&ServerConfig { workers: 4, ..ServerConfig::default() })
        .expect("bind ephemeral port");
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");

    // The connection-scaling claim, measured in the same run: park a fleet
    // of idle keep-alive connections for the duration. Under the event
    // loop they cost slots, never threads.
    let idle_connections = if quick_mode() { 64 } else { 256 };
    let threads_before = thread_count();
    let mut parked: Vec<Client> = (0..idle_connections)
        .map(|_| {
            let mut c = Client::connect(addr).expect("parked connect");
            c.ping().expect("parked ping");
            c
        })
        .collect();
    let threads_flat =
        threads_before.and_then(|before| settled_thread_count(before).map(|after| before == after));

    // Cold: the probe memo and plan cache both start empty, so this request
    // pays the full search (the workload a cache miss really costs).
    clear_probe_cache();
    let start = Instant::now();
    let cold = client.search(&request(1)).expect("cold search");
    let cold_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(!cold.cache_hit, "first request must miss");

    // The wire size of this exact plan.
    let json_payload_bytes = cold.payload_canonical.len();

    // Warm: the same request is now a pure cache hit — timed per request
    // so the tail is visible, not just the mean.
    let warm_reps = reps * 40;
    let mut last_warm = None;
    let mut json_lat = Vec::with_capacity(warm_reps as usize);
    let start = Instant::now();
    for _ in 0..warm_reps {
        let req_start = Instant::now();
        let reply = client.search(&request(1)).expect("warm search");
        json_lat.push(req_start.elapsed().as_secs_f64() * 1e3);
        assert!(reply.cache_hit, "warm request must hit");
        last_warm = Some(reply);
    }
    let warm_ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(warm_reps);

    // Collapse: concurrent duplicates of a fresh request; single-flight
    // must run exactly one search.
    let collapse_clients = 4;
    let fresh = request(2);
    let misses_before = handle.state().cache_stats().misses;
    let collapse_payloads: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..collapse_clients)
            .map(|_| {
                let fresh = &fresh;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client.search(fresh).expect("collapse search").payload_canonical
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("collapse client")).collect()
    });
    let collapse_searches = handle.state().cache_stats().misses - misses_before;

    // Bit-identity: cold, warm and collapsed payloads all byte-identical to
    // a direct in-process search serialized through the codec.
    let expected = {
        let net = request(1).network.resolve().expect("resolve");
        let outcome = optimize(&net, &request(1).platform.resolve(), &request(1).unified_options());
        PlanPayload::from_plan(&request(1), &outcome.plan, &outcome.stats, outcome.original_fisher)
            .encode()
            .expect("encode")
    };
    let fresh_expected = {
        let net = fresh.network.resolve().expect("resolve");
        let outcome = optimize(&net, &fresh.platform.resolve(), &fresh.unified_options());
        PlanPayload::from_plan(&fresh, &outcome.plan, &outcome.stats, outcome.original_fisher)
            .encode()
            .expect("encode")
    };
    let identical = cold.payload_canonical == expected
        && last_warm.map(|w| w.payload_canonical == expected).unwrap_or(false)
        && collapse_payloads.iter().all(|p| *p == fresh_expected);

    // The parked fleet is still alive after every phase — and still free.
    for parked_client in parked.iter_mut() {
        parked_client.ping().expect("parked connection must survive the serve phases");
    }
    drop(parked);

    handle.join();
    ServeReport {
        cold_ms,
        warm_ms,
        json_warm_p50_ms: percentile_ms(&mut json_lat, 0.50),
        json_warm_p95_ms: percentile_ms(&mut json_lat, 0.95),
        json_payload_bytes,
        collapse_clients,
        collapse_searches,
        idle_connections,
        threads_flat,
        identical,
    }
}

/// Cold-restart warm start: drain a store-backed daemon, reboot it on the
/// same plan log, and time boot-to-first-reply — which must be a cache hit
/// carrying the pre-restart bytes.
fn restart_report() -> RestartReport {
    let store = std::env::temp_dir().join(format!("pte-perf-restart-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&store);

    let first = serve(&ServerConfig {
        workers: 2,
        store_path: Some(store.clone()),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let mut client = Client::connect(first.addr()).expect("connect");
    let cold = client.search(&request(1)).expect("cold search");
    client.shutdown().expect("shutdown ack");
    first.join();

    let boot = Instant::now();
    let second = serve(&ServerConfig {
        workers: 2,
        store_path: Some(store.clone()),
        ..ServerConfig::default()
    })
    .expect("rebind on the plan log");
    let mut client = Client::connect(second.addr()).expect("reconnect");
    let warm = client.search(&request(1)).expect("warm-start search");
    let warmup_ms = boot.elapsed().as_secs_f64() * 1e3;
    client.shutdown().expect("shutdown ack");
    second.join();
    let _ = std::fs::remove_file(&store);

    RestartReport {
        warmup_ms,
        first_hit: warm.cache_hit,
        identical: warm.payload_canonical == cold.payload_canonical,
    }
}

fn json_rows(rows: &[Row]) -> String {
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {{\"name\": \"{}\", \"baseline_ms\": {:.4}, \"engine_ms\": {:.4}, \"speedup\": {:.3}}}",
            if i == 0 { "" } else { "," },
            row.name,
            row.baseline_ms,
            row.engine_ms,
            row.speedup()
        );
    }
    out
}

fn total_speedup(rows: &[Row]) -> f64 {
    rows.iter().map(|r| r.baseline_ms).sum::<f64>() / rows.iter().map(|r| r.engine_ms).sum::<f64>()
}

fn main() {
    banner(
        "perf_report: vectorized execution engine vs pre-engine baselines",
        "engineering harness (targets: conv_variants >= 5x, search >= 3x, gemm >= 1.8x, probe >= 1.25x, serve warm >= 5x)",
    );
    let reps: u32 = if quick_mode() { 1 } else { 5 };

    println!("\n-- interpreter (conv_variants workload, scalar walk vs fused engine)");
    let interp = interpreter_rows(reps);
    for r in &interp {
        println!(
            "{:<18} {:>9.3} ms -> {:>8.3} ms  {:>5.2}x",
            r.name,
            r.baseline_ms,
            r.engine_ms,
            r.speedup()
        );
    }
    let interp_total = total_speedup(&interp);
    println!("{:<18} {:>26} {:>5.2}x", "TOTAL", "", interp_total);

    println!("\n-- gemm (PR 1 blocked loops vs packed register-blocked micro-kernels)");
    // More reps than the heavier sections: individual GEMMs are milliseconds
    // and the 1.8x floor is asserted, so noise matters most here.
    let gemm = gemm_rows(reps * 4);
    for r in &gemm {
        println!(
            "{:<28} {:>9.3} ms -> {:>8.3} ms  {:>5.2}x",
            r.name,
            r.baseline_ms,
            r.engine_ms,
            r.speedup()
        );
    }
    let gemm_total = total_speedup(&gemm);
    let gemm_identical = gemm_bit_identity();
    println!(
        "{:<28} {:>16} {:>5.2}x   simd==scalar==blocked: {}",
        "TOTAL", "", gemm_total, gemm_identical
    );

    println!("\n-- convolution (naive loops vs im2col + micro-kernel GEMM)");
    let conv = conv_rows(reps);
    for r in &conv {
        println!(
            "{:<24} {:>9.3} ms -> {:>8.3} ms  {:>5.2}x",
            r.name,
            r.baseline_ms,
            r.engine_ms,
            r.speedup()
        );
    }
    let conv_total = total_speedup(&conv);
    println!("{:<24} {:>20} {:>5.2}x", "TOTAL", "", conv_total);

    println!("\n-- fisher probes (per-candidate vs shape-class batched wave)");
    let (probe, probe_identical) = probe_row(reps);
    println!(
        "{:<24} {:>9.3} ms -> {:>8.3} ms  {:>5.2}x   batched==per-candidate: {}",
        probe.name,
        probe.baseline_ms,
        probe.engine_ms,
        probe.speedup(),
        probe_identical
    );

    println!("\n-- unified search (serial + naive probes vs parallel + GEMM probes)");
    let options = UnifiedOptions {
        random_per_layer: if quick_mode() { 8 } else { 24 },
        tune: TuneOptions { trials: 32, seed: 0 },
        ..UnifiedOptions::default()
    };
    let (search, plans_identical) = search_row(&options);
    println!(
        "{:<24} {:>9.1} ms -> {:>8.1} ms  {:>5.2}x   serial==parallel plan: {}",
        search.name,
        search.baseline_ms,
        search.engine_ms,
        search.speedup(),
        plans_identical
    );

    println!("\n-- evolve (grammar-compiled evolutionary search vs unified, equal budget)");
    let evolve_budget = if quick_mode() { 8 } else { 24 };
    let evolve = evolve_rows(evolve_budget);
    for r in &evolve {
        println!(
            "{:<20} unified {:>8.3} ms ({} evals) vs evolve {:>8.3} ms ({} evals)  \
             matches_or_beats: {}  serial==parallel: {}",
            r.workload,
            r.unified_ms,
            r.unified_evals,
            r.evolve_ms,
            r.evolve_evals,
            r.matches_or_beats(),
            r.replay_identical
        );
    }

    println!("\n-- serve (search-as-a-service over TCP: cold search vs warm cache)");
    let serve = serve_report(reps);
    println!(
        "{:<24} {:>9.2} ms -> {:>8.4} ms  {:>5.0}x   served==in-process: {}",
        "cold_vs_warm_request",
        serve.cold_ms,
        serve.warm_ms,
        serve.warm_speedup(),
        serve.identical
    );
    println!(
        "{:<24} json p50 {:.4} / p95 {:.4} ms",
        "warm_latency", serve.json_warm_p50_ms, serve.json_warm_p95_ms
    );
    println!("{:<24} {} bytes JSON", "payload_wire_size", serve.json_payload_bytes);
    println!(
        "{:<24} {} idle keep-alive connections, threads flat: {}",
        "connection_scaling",
        serve.idle_connections,
        serve.threads_flat.map_or("unmeasured".into(), |f| f.to_string())
    );
    println!(
        "{:<24} {} duplicate clients -> {} search(es) run (single-flight)",
        "collapse", serve.collapse_clients, serve.collapse_searches
    );
    let restart = restart_report();
    println!(
        "{:<24} {:.1} ms boot-to-first-reply, first request hit: {} (bit-identical: {})",
        "warm_restart", restart.warmup_ms, restart.first_hit, restart.identical
    );
    let telemetry = telemetry_report(serve.json_warm_p50_ms);
    println!(
        "{:<24} {:.3} µs per warm request ({:.3}% of warm p50, budget 5%)",
        "telemetry_overhead",
        telemetry.per_request_us,
        telemetry.overhead_pct()
    );

    let threads = rayon::current_num_threads();
    let json = format!(
        r#"{{
  "report": "pte execution engine",
  "threads": {threads},
  "interpreter": {{
    "workload": "conv_variants ConvShape::standard(32,32,3,18,18)",
    "rows": [{interp_rows}
    ],
    "total_speedup": {interp_total:.3}
  }},
  "gemm": {{
    "kernel": "{gemm_kernel}",
    "rows": [{gemm_rows}
    ],
    "total_speedup": {gemm_total:.3},
    "simd_bit_identical_to_scalar": {gemm_identical}
  }},
  "conv": {{
    "rows": [{conv_rows}
    ],
    "total_speedup": {conv_total:.3}
  }},
  "probe": {{
    "workload": "{pw}",
    "baseline_ms": {pb:.3},
    "engine_ms": {pe:.3},
    "speedup": {ps:.3},
    "batched_bit_identical_to_per_candidate": {probe_identical}
  }},
  "search": {{
    "workload": "resnet18-cifar10 on intel-i7, random_per_layer={rpl}, trials=32",
    "baseline_ms": {sb:.1},
    "engine_ms": {se:.1},
    "speedup": {ss:.3},
    "parallel_plan_bit_identical_to_serial": {plans_identical}
  }},
  "evolve": {{
    "workload": "Figure 4 networks on intel-i7, per-class budget {evolve_budget}, trials=32",
    "rows": [{evolve_rows}
    ],
    "matches_or_beats_unified_on": {evolve_wins},
    "replay_bit_identical": {evolve_replay}
  }},
  "serve": {{
    "workload": "3-layer custom net, unified quick budget, TCP daemon on 127.0.0.1, 4 workers",
    "cold_search_ms": {serve_cold:.3},
    "warm_cache_ms": {serve_warm:.4},
    "warm_speedup": {serve_speedup:.1},
    "warm_latency_ms": {{ "json_p50": {jp50:.4}, "json_p95": {jp95:.4} }},
    "payload_bytes": {{ "json": {json_bytes} }},
    "connection_scaling": {{ "idle_keepalive_connections": {idle_conns}, "threads_flat": {threads_flat} }},
    "warm_restart": {{ "boot_to_first_reply_ms": {restart_ms:.2}, "first_request_hit": {restart_hit}, "bit_identical": {restart_identical} }},
    "singleflight_collapse": "{collapse_clients} duplicate clients -> {collapse_searches} search",
    "served_payload_bit_identical_to_in_process": {serve_identical},
    "telemetry_overhead": {{ "per_request_record_us": {telemetry_us:.4}, "warm_p50_pct": {telemetry_pct:.4}, "budget_pct": 5.0 }}
  }},
  "targets": {{ "conv_variants_speedup_min": 5.0, "search_speedup_min": 3.0, "probe_speedup_min": 1.25, "gemm_microkernel_speedup_min": 1.8, "serve_warm_speedup_min": 5.0 }}
}}
"#,
        interp_rows = json_rows(&interp),
        gemm_kernel = if simd_kernel_available() { "avx2" } else { "scalar" },
        gemm_rows = json_rows(&gemm),
        conv_rows = json_rows(&conv),
        pw = probe.name,
        pb = probe.baseline_ms,
        pe = probe.engine_ms,
        ps = probe.speedup(),
        rpl = options.random_per_layer,
        sb = search.baseline_ms,
        se = search.engine_ms,
        ss = search.speedup(),
        evolve_rows = {
            let mut out = String::new();
            for (i, r) in evolve.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}\n      {{\"workload\": \"{}\", \"budget\": {}, \"unified_latency_ms\": {:.4}, \
                     \"evolve_latency_ms\": {:.4}, \"unified_fisher\": {:.4}, \"evolve_fisher\": {:.4}, \
                     \"unified_evals\": {}, \"evolve_evals\": {}, \"matches_or_beats\": {}}}",
                    if i == 0 { "" } else { "," },
                    r.workload,
                    r.budget,
                    r.unified_ms,
                    r.evolve_ms,
                    r.unified_fisher,
                    r.evolve_fisher,
                    r.unified_evals,
                    r.evolve_evals,
                    r.matches_or_beats()
                );
            }
            out
        },
        evolve_wins = evolve.iter().filter(|r| r.matches_or_beats()).count(),
        evolve_replay = evolve.iter().all(|r| r.replay_identical),
        serve_cold = serve.cold_ms,
        serve_warm = serve.warm_ms,
        serve_speedup = serve.warm_speedup(),
        jp50 = serve.json_warm_p50_ms,
        jp95 = serve.json_warm_p95_ms,
        json_bytes = serve.json_payload_bytes,
        idle_conns = serve.idle_connections,
        threads_flat = serve.threads_flat.map_or("null".into(), |f| f.to_string()),
        restart_ms = restart.warmup_ms,
        restart_hit = restart.first_hit,
        restart_identical = restart.identical,
        collapse_clients = serve.collapse_clients,
        collapse_searches = serve.collapse_searches,
        serve_identical = serve.identical,
        telemetry_us = telemetry.per_request_us,
        telemetry_pct = telemetry.overhead_pct(),
    );
    std::fs::write("BENCH_exec.json", &json).expect("write BENCH_exec.json");
    println!("\nwrote BENCH_exec.json");

    // Bit-identity checks are correctness properties: asserted
    // unconditionally (quick mode included, so the CI smoke covers them).
    // The speedup floors are only asserted in full mode — quick mode times a
    // single rep, which is too noisy to gate a CI pipeline on.
    assert!(plans_identical, "parallel plan diverged from serial plan");
    assert!(probe_identical, "batched probe wave diverged from per-candidate probes");
    assert!(gemm_identical, "SIMD micro-kernel diverged from the scalar/blocked kernels");
    assert!(serve.identical, "served plan payload diverged from the in-process search");
    assert!(
        evolve.iter().all(|r| r.replay_identical),
        "evolve serial/parallel drivers diverged on a seeded run"
    );
    assert!(
        evolve.iter().any(EvolveRow::matches_or_beats),
        "evolve must match or beat unified plan latency on at least one Figure 4 workload \
         at equal evaluation budget"
    );
    assert_eq!(
        serve.collapse_searches, 1,
        "single-flight must collapse concurrent duplicate requests to one search"
    );
    // Deterministic serving properties, asserted in every mode: the idle
    // fleet never grew the thread count, and a restarted daemon answers its
    // first request from the replayed plan log with the pre-restart bytes.
    if let Some(flat) = serve.threads_flat {
        assert!(flat, "{} idle connections must not grow the thread count", serve.idle_connections);
    }
    assert!(restart.first_hit, "first post-restart request must hit the warm-started cache");
    assert!(restart.identical, "warm-restart payload bytes diverged from the pre-restart reply");
    // Observation must stay in the noise floor of the thing observed. The
    // record path is ~a dozen atomic ops and three clock reads, so the real
    // margin is ~100x; 5% is the contract, not the expectation.
    assert!(
        telemetry.overhead_pct() <= 5.0,
        "telemetry warm-path overhead {:.3}% exceeds the 5% budget ({:.3} µs per request \
         against a {:.4} ms warm p50)",
        telemetry.overhead_pct(),
        telemetry.per_request_us,
        telemetry.warm_p50_ms
    );
    if quick_mode() {
        return;
    }
    assert!(interp_total >= 5.0, "interpreter speedup {interp_total:.2}x fell below the 5x target");
    assert!(
        gemm_total >= 1.8,
        "gemm micro-kernel speedup {gemm_total:.2}x fell below the 1.8x target"
    );
    assert!(
        search.speedup() >= 3.0,
        "search speedup {:.2}x fell below the 3x target",
        search.speedup()
    );
    // Re-pinned UP from 1.05 in PR 5: the probe tail (BN/readout/backward)
    // and every weight/readout RNG draw now run as class-wide waves —
    // stacked BN + fused ReLU + one wide readout GEMM per tail class ×
    // repeat, with pooled Box–Muller streams shared across members — so the
    // per-member work the per-candidate baseline still pays (scalar readout
    // loops, a full Box–Muller set per member × repeat, per-member
    // allocations) is amortised across each class. Measured ~1.6–2.1x on
    // this 1-core container; 1.25x is the conservative floor under timer
    // noise. The remaining gap to the conv GEMM's Amdahl bound needs a
    // multi-core runner (see ROADMAP).
    assert!(
        probe.speedup() >= 1.25,
        "probe-wave speedup {:.2}x fell below the 1.25x target",
        probe.speedup()
    );
    // A warm cache hit is a map lookup + one TCP round trip; a cold request
    // runs a full search. The 5x floor is deliberately loose (the real gap
    // is orders of magnitude) so socket jitter cannot flake CI.
    assert!(
        serve.warm_speedup() >= 5.0,
        "serve warm-cache speedup {:.1}x fell below the 5x target",
        serve.warm_speedup()
    );
}
