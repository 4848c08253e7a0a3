//! `pte-perfbench` — the repository's benchmark.
//!
//! ```text
//! pte-perfbench --workload cold_search|warm_hits --seed N
//!               --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it runs the workload and prints the end-to-end metrics;
//! with `--trace 1` it runs the workload's traced variant and prints the
//! per-layer metrics. Either way it checks every output and prints, as its
//! last line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. `perfbench/run.sh` builds the program and this binary and
//! passes the daemon directory in `PERFBENCH_BIN_DIR`; see
//! `perfbench/README.md` for the workloads and metrics.

mod check;
mod cold;
mod gen;
mod layers;
mod load;
mod procs;
mod stats;
mod warm;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use check::Checker;
use layers::LayerValues;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// Goodput latency limit for a cache hit.
pub const HIT_LIMIT_MS: f64 = 50.0;
/// Goodput latency limit for a small search (a miss or a warm-up search).
pub const MISS_LIMIT_MS: f64 = 3_000.0;
/// Goodput latency limit for a paper-scale cold search.
pub const COLD_LIMIT_MS: f64 = 10_000.0;

/// The end-to-end metrics, with units, in output order.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("search_s", "s"),
    ("plan_speedup", "x"),
    ("hit_p50_ms", "ms"),
    ("hits_per_s", "1/s"),
    ("miss_p50_ms", "ms"),
    ("goodput_frac", "frac"),
];

/// End-to-end figures printed on the `perfbench-run` line of untraced runs
/// but not gated: while the host's steal time drifts, the hit tail and the
/// wall times of CPU-bound work move by more than any bound a gate can
/// hold (see `perfbench/README.md`).
const UNGATED: [(&str, &str); 4] = [
    ("hit_p90_ms", "ms"),
    ("search_wall_s", "s"),
    ("setup_wall_s", "s"),
    ("hits_per_wall_s", "1/s"),
];

/// The per-layer metrics, with units, in output order.
const PER_LAYER: [(&str, &str); 33] = [
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.conv_ms", "ms"),
    ("fisher.probe_wave_ms", "ms"),
    ("fisher.probes", "count"),
    ("fisher.memo_hit_ratio", "ratio"),
    ("autotune.tune_us", "us"),
    ("autotune.calls", "count"),
    ("machine.estimate_us", "us"),
    ("transform.sample_us", "us"),
    ("transform.invalid_ratio", "ratio"),
    ("search.baseline_ms", "ms"),
    ("search.eval_structural_ms", "ms"),
    ("search.eval_cost_gate_ms", "ms"),
    ("search.eval_fisher_ms", "ms"),
    ("search.eval_autotune_ms", "ms"),
    ("search.candidates", "count"),
    ("search.fisher_reject_ratio", "ratio"),
    ("search.unattributed_frac", "frac"),
    ("serve.request_us", "us"),
    ("serve.loop_wait_us", "us"),
    ("serve.polls_per_request", "count"),
    ("codec.decode_us", "us"),
    ("codec.key_us", "us"),
    ("cache.peek_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.coalesced", "count"),
    ("store.append_us", "us"),
    ("store.replay_ms", "ms"),
    ("router.hop_us", "us"),
    ("router.ring_lookup_us", "us"),
    ("router.failovers", "count"),
    ("router.shed", "count"),
    ("telemetry.trace_overhead_frac", "frac"),
];

/// What one invocation runs.
pub struct Ctx {
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
    pub bin_dir: PathBuf,
    pub work_dir: PathBuf,
    pub nproc: usize,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub layers: LayerValues,
    pub sent: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub shed: u64,
    /// Requests answered correctly within their class's latency limit.
    pub good: u64,
    pub checker: Checker,
}

impl Outcome {
    /// Counts one request's fate.
    pub fn count(&mut self, ok: bool) {
        self.sent += 1;
        if ok {
            self.succeeded += 1;
        } else {
            self.failed += 1;
        }
    }
}

fn usage() -> String {
    "usage: pte-perfbench --workload cold_search|warm_hits --seed N --seconds S --trace 0|1"
        .to_string()
}

fn parse_args() -> Result<(String, Ctx), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(usage)?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => trace = Some(value == "1"),
            _ => return Err(usage()),
        }
    }
    let seconds = seconds.filter(|s| *s > 0.0 && s.is_finite()).ok_or_else(usage)?;
    let bin_dir = std::env::var_os("PERFBENCH_BIN_DIR")
        .map(PathBuf::from)
        .ok_or("PERFBENCH_BIN_DIR is not set (run perfbench/run.sh)")?;
    let work_dir = std::env::var_os("PERFBENCH_WORK_DIR")
        .map(PathBuf::from)
        .ok_or("PERFBENCH_WORK_DIR is not set (run perfbench/run.sh)")?;
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed: seed.ok_or_else(usage)?,
        window: Duration::from_secs_f64(seconds),
        trace: trace.ok_or_else(usage)?,
        bin_dir,
        work_dir,
        nproc,
    };
    Ok((workload.ok_or_else(usage)?, ctx))
}

/// `"name":{"value":v,"unit":"u"}` entries for the metrics of `table`; a
/// metric the run did not set, or set to a non-finite value, reads 0.
fn metrics_json(table: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) -> String {
    let entry = |&(name, unit): &(&str, &str)| {
        let value = values.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
        format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
    };
    table.iter().map(entry).collect::<Vec<_>>().join(",")
}

fn provenance(ctx: &Ctx, workload: &str, outcome: &Outcome, steal_frac: f64) -> String {
    let env = |name: &str| std::env::var(name).unwrap_or_else(|_| "unknown".into());
    let json_str = |s: &str| pte_serve::Json::Str(s.to_string()).write().expect("string");
    format!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"commit\":{},\"source_digest\":{},\"nproc\":{},\"rustc\":{},\"profile\":\"release\",\"sent\":{},\"succeeded\":{},\"failed\":{},\"shed\":{},\"checks\":{},\"check_failures\":{},\"host_steal_frac\":{steal_frac:.4},\"ungated\":{{{}}}}}",
        json_str(workload),
        ctx.seed,
        ctx.trace,
        json_str(&env("PERFBENCH_COMMIT")),
        json_str(&env("PERFBENCH_SOURCE_DIGEST")),
        ctx.nproc,
        json_str(&env("PERFBENCH_RUSTC")),
        outcome.sent,
        outcome.succeeded,
        outcome.failed,
        outcome.shed,
        outcome.checker.checked,
        outcome.checker.failures.len(),
        if ctx.trace { String::new() } else { metrics_json(&UNGATED, &outcome.end_to_end) },
    )
}

fn main() -> ExitCode {
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("pte-perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let cpu_before = procs::host_cpu_times();
    let result = match workload.as_str() {
        "cold_search" => cold::run(&ctx),
        "warm_hits" => warm::run(&ctx),
        other => Err(format!("unknown workload `{other}`\n{}", usage())),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("pte-perfbench: {workload}: {message}");
            return ExitCode::FAILURE;
        }
    };
    // How much CPU time the host took away during the run: the figures of
    // a run with a high share are not comparable with a quiet run's.
    let steal_frac = match (cpu_before, procs::host_cpu_times()) {
        (Some((steal_0, total_0)), Some((steal_1, total_1))) => stats::ratio(
            steal_1.saturating_sub(steal_0) as f64,
            total_1.saturating_sub(total_0) as f64,
        ),
        _ => 0.0,
    };
    let goodput = stats::ratio(outcome.good as f64, outcome.sent as f64);
    outcome.end_to_end.insert("goodput_frac", goodput);
    println!("perfbench-run {}", provenance(&ctx, &workload, &outcome, steal_frac));

    let metrics = if ctx.trace {
        metrics_json(&PER_LAYER, &outcome.layers)
    } else {
        metrics_json(&END_TO_END, &outcome.end_to_end)
    };
    let check_failures = outcome.checker.failures.len() as u64;
    let correct = check_failures == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        (outcome.sent + outcome.checker.checked).max(1),
        outcome.failed + check_failures,
        metrics
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
