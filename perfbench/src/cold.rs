//! `cold_search`: a new user's first searches, in-process and closed-loop
//! with one caller. Every cell runs `codec::execute` with the probe memo
//! cleared, so Fisher probing through the tensor kernels dominates.
//!
//! Search and set-up times are this process's CPU time (`procs::cpu_s`):
//! wall time followed the host's steal and doubled between runs of the
//! same code. Wall times still decide goodput and are printed ungated.
//!
//! The searches run on one worker thread (`RAYON_NUM_THREADS=1`, set for
//! this process only; daemons never inherit it). With both vCPUs busy, a
//! 2-vCPU guest saw the host steal 7–33% of its time, against 1–7% with
//! one, and the CPU time of the same search rose with the steal.

use std::time::Instant;

use pte_core::fisher::proxy;
use pte_core::NetworkPlan;
use pte_serve::codec::{execute, SearchRequest};
use pte_telemetry::Trace;

use crate::gen::{self, Cell};
use crate::procs::{Spent, Stopwatch};
use crate::stats::{geomean, median, percentile, ratio};
use crate::{layers, Ctx, Outcome, COLD_LIMIT_MS, MISS_LIMIT_MS, SETUP_REPEATS};

/// Set-up: generate the cells and compile the baseline plans the checks
/// compare against (probe memo cleared first, so every set-up does the
/// same work). Baselines do not depend on candidate seeds, so pass 0's
/// cells stand for every pass. Returns the cells and the set-up's CPU and
/// wall seconds.
fn setup(ctx: &Ctx, out: &mut Outcome) -> (Vec<Cell>, Spent) {
    proxy::clear_probe_cache();
    let watch = Stopwatch::start();
    let cells = gen::cold_cells(ctx.seed, 0);
    out.checker = Default::default();
    for cell in &cells {
        out.checker.baseline_latency(&cell.request);
    }
    (cells, watch.read())
}

/// One cold search with the memo cleared. A failed search is counted and
/// logged here.
fn cold(cell: &Cell, out: &mut Outcome) -> Option<(Spent, String)> {
    proxy::clear_probe_cache();
    let watch = Stopwatch::start();
    let result = execute(&cell.request);
    let spent = watch.read();
    out.count(result.is_ok());
    match result {
        Ok(payload) => Some((spent, payload)),
        Err(e) => {
            eprintln!("perfbench: {}: search failed: {}", cell.label, e.message);
            None
        }
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    // Still single-threaded here, and the pool reads this on every call.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut cells = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (c, spent) = setup(ctx, &mut out);
        cells = c;
        setups.push(spent);
    }
    let setup = Spent::median(&setups);
    out.end_to_end.insert("setup_s", setup.cpu_s);
    out.end_to_end.insert("setup_wall_s", setup.wall_s);

    let plans = if ctx.trace { traced(&cells, &mut out) } else { timed(ctx, &mut out) };
    if plans.is_empty() {
        out.checker.fail("no search succeeded".into());
    }
    let speedups: Vec<f64> = plans.iter().map(|(r, p)| out.checker.legal(r, p)).collect();
    out.end_to_end.insert("plan_speedup", geomean(&speedups));
    if ctx.trace {
        let requests: Vec<SearchRequest> = cells.iter().map(|c| c.request.clone()).collect();
        layers::search_layers(&requests, &mut out.layers);
        layers::data_plane_layers(&plans, &ctx.work_dir, &mut out.layers);
    }
    Ok(out)
}

/// Untraced: whole passes over the cells, each pass with fresh candidate
/// seeds, as many as the first pass's duration says fill the window (at
/// least one). Rounding to the nearest count keeps the number of passes
/// the same from run to run. Returns every searched plan.
fn timed(ctx: &Ctx, out: &mut Outcome) -> Vec<(SearchRequest, String)> {
    let mut plans = Vec::new();
    let mut samples: Vec<Vec<Spent>> = Vec::new();
    let mut repeats: Vec<Vec<Spent>> = Vec::new();
    let mut peaks = Vec::new();
    let mut passes = 1;
    let mut pass = 0;
    while pass < passes {
        let started = Instant::now();
        let cells = gen::cold_cells(ctx.seed, pass as u64);
        samples.resize(cells.len(), Vec::new());
        repeats.resize(cells.len(), Vec::new());
        for (i, cell) in cells.iter().enumerate() {
            reset_peak_rss();
            let searched = cold(cell, out);
            peaks.push(crate::procs::peak_rss_mb("/proc/self/status"));
            let Some((spent, payload)) = searched else { continue };
            samples[i].push(spent);
            out.good += u64::from(spent.wall_s * 1e3 <= COLD_LIMIT_MS);
            repeats[i].extend(repeat(cell, &payload, out));
            plans.push((cell.request.clone(), payload));
        }
        if pass == 0 {
            passes = (ctx.window.as_secs_f64() / started.elapsed().as_secs_f64()).round().max(1.0)
                as usize;
        }
        pass += 1;
    }
    // Per-cell medians first: the cells' costs differ several-fold, so a
    // percentile over raw samples would land in the gap between two cells
    // and jump with either one's noise.
    let medians = |per_cell: &[Vec<Spent>]| -> (Vec<f64>, Vec<f64>) {
        let cells = per_cell.iter().filter(|s| !s.is_empty()).map(|s| Spent::median(s));
        cells.map(|m| (m.cpu_s, m.wall_s)).unzip()
    };
    let (search_medians, search_wall) = medians(&samples);
    out.end_to_end.insert("search_s", geomean(&search_medians));
    out.end_to_end.insert("miss_p50_ms", median(&search_medians) * 1e3);
    out.end_to_end.insert("search_wall_s", geomean(&search_wall));
    let repeat_medians: Vec<f64> = medians(&repeats).0.iter().map(|s| s * 1e3).collect();
    out.end_to_end.insert("hit_p50_ms", median(&repeat_medians));
    out.end_to_end.insert("hit_p90_ms", percentile(&repeat_medians, 0.9));
    let repeat_s: f64 = repeat_medians.iter().sum::<f64>() / 1e3;
    out.end_to_end.insert("hits_per_s", ratio(repeat_medians.len() as f64, repeat_s));
    out.end_to_end.insert("peak_rss_mb", median(&peaks));
    plans
}

/// Traced: one untraced and one traced pass over the cells, with the
/// Evaluator's stage histograms read around each traced search and the
/// baseline compile timed on its own.
fn traced(cells: &[Cell], out: &mut Outcome) -> Vec<(SearchRequest, String)> {
    let registry = pte_telemetry::global();
    const STAGES: [&str; 4] = ["eval_structural", "eval_cost_gate", "eval_fisher", "eval_autotune"];
    let stage_sums = || -> Vec<f64> {
        STAGES
            .iter()
            .map(|s| registry.histogram(&format!("pte_span_{s}_us")).sum() as f64 / 1e3)
            .collect()
    };
    let (mut plain, mut traced_s, mut baseline_ms) = (0.0, 0.0, 0.0);
    let mut stage_ms = [0.0f64; 4];
    let mut memo_ratio = 0.0;
    let mut plans = Vec::new();
    for cell in cells {
        let plain_search = cold(cell, out);
        plain += plain_search.as_ref().map_or(0.0, |(spent, _)| spent.wall_s);

        let network = cell.request.network.resolve().expect("presets resolve");
        let platform = cell.request.platform.resolve();
        proxy::clear_probe_cache();
        let started = Instant::now();
        std::hint::black_box(NetworkPlan::baseline(
            &network,
            &platform,
            &cell.request.tune_options(),
        ));
        baseline_ms += started.elapsed().as_secs_f64() * 1e3;

        let before = stage_sums();
        let trace = Trace::begin(cell.request.seed);
        let traced_search = cold(cell, out);
        std::hint::black_box(trace.finish());
        traced_s += traced_search.as_ref().map_or(0.0, |(spent, _)| spent.wall_s);
        for (total, (after, before)) in stage_ms.iter_mut().zip(stage_sums().iter().zip(&before)) {
            *total += after - before;
        }
        let memo = proxy::probe_cache_stats();
        memo_ratio += ratio(memo.hits as f64, (memo.hits + memo.misses) as f64);
        if let (Some((_, plain)), Some((_, traced))) = (&plain_search, &traced_search) {
            if plain != traced {
                out.checker.fail(format!("{}: traced search gave different bytes", cell.label));
            }
        }
        plans.extend(traced_search.map(|(_, payload)| (cell.request.clone(), payload)));
    }
    let n = cells.len().max(1) as f64;
    out.layers.insert("telemetry.trace_overhead_frac", ratio(traced_s, plain) - 1.0);
    out.layers.insert("search.baseline_ms", baseline_ms / n);
    for (name, total) in [
        "search.eval_structural_ms",
        "search.eval_cost_gate_ms",
        "search.eval_fisher_ms",
        "search.eval_autotune_ms",
    ]
    .into_iter()
    .zip(stage_ms)
    {
        out.layers.insert(name, total / n);
    }
    let covered = baseline_ms + stage_ms.iter().sum::<f64>();
    out.layers.insert("search.unattributed_frac", 1.0 - ratio(covered, traced_s * 1e3));
    let payloads: Vec<&str> = plans.iter().map(|(_, p)| p.as_str()).collect();
    layers::plan_stats_layers(&payloads, &mut out.layers);
    out.layers.insert("fisher.memo_hit_ratio", memo_ratio / n);
    plans
}

/// The repeat of a just-run search: with the probe memo warm, every
/// Fisher probe is a memo hit — the in-process analogue of a cache hit,
/// since there is no plan cache in-process. Must return the same bytes.
fn repeat(cell: &Cell, cold_payload: &str, out: &mut Outcome) -> Option<Spent> {
    let watch = Stopwatch::start();
    let result = execute(&cell.request);
    let spent = watch.read();
    let same = result.as_deref().ok() == Some(cold_payload);
    out.count(same);
    out.good += u64::from(same && spent.wall_s * 1e3 <= MISS_LIMIT_MS);
    if !same {
        out.checker.fail(format!("{}: repeated search gave different bytes", cell.label));
    }
    same.then_some(spent)
}

/// Resets this process's peak resident set (`clear_refs` 5), so that the
/// `VmHWM` read after a search is that search's own peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
