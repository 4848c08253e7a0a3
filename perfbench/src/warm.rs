//! `warm_hits`: `pte-serve` daemons, set up one after another, each
//! answering its pre-warmed key set to `nproc` closed-loop clients with one
//! connection each. Every request is a hit, so only the data plane runs:
//! event-loop wake-up, decode, key hash, cache peek and write.
//!
//! Set-up and search times are CPU time (`procs::cpu_s`): the daemon's
//! for each warm-up search, the daemon's plus this process's for a
//! set-up. On a shared host their wall times followed steal.

use std::collections::HashMap;

use pte_serve::codec::SearchRequest;
use pte_serve::Json;

use crate::gen::{self, Rng};
use crate::load::{self, Hit};
use crate::procs::{prom_value, Proc, Spent, Stopwatch};
use crate::stats::{geomean, median, ratio};
use crate::{layers, Ctx, Outcome, HIT_LIMIT_MS, MISS_LIMIT_MS, SETUP_REPEATS};

/// One set-up: boot a daemon with a fresh plan log and search every key
/// once over one connection. Returns the daemon, the served payloads,
/// each key's search time (the daemon's CPU and the client's wall
/// seconds) and the whole set-up's (this process's and the daemon's CPU).
fn setup(
    ctx: &Ctx,
    keys: &[SearchRequest],
    round: usize,
    out: &mut Outcome,
) -> Result<(Proc, Vec<String>, Vec<Spent>, Spent), String> {
    let watch = Stopwatch::start();
    let store = ctx.work_dir.join(format!("warm-{round}.log"));
    let _ = std::fs::remove_file(&store);
    let daemon = Proc::serve(&ctx.bin_dir, &store).map_err(|e| format!("pte-serve: {e}"))?;
    let daemon_cpu_s = || daemon.cpu_s().map_err(|e| format!("pte-serve CPU clock: {e}"));
    let mut client = daemon.client().map_err(|e| e.to_string())?;
    let (mut payloads, mut times) = (Vec::new(), Vec::new());
    for request in keys {
        let cpu_before = daemon_cpu_s()?;
        let sample = load::send_miss(&mut client, request);
        let cpu_s = daemon_cpu_s()? - cpu_before;
        out.count(sample.ok);
        out.good += u64::from(sample.ok && sample.rtt_ms <= MISS_LIMIT_MS);
        let payload = sample.payload.ok_or("a warm-up search failed")?;
        payloads.push(payload);
        times.push(Spent { cpu_s, wall_s: sample.rtt_ms / 1e3 });
    }
    let mut spent = watch.read();
    spent.cpu_s += daemon_cpu_s()?;
    Ok((daemon, payloads, times, spent))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    // One closed-loop client (thread and connection) per core: load
    // generation never exceeds `nproc`.
    let clients = ctx.nproc;
    let mut out = Outcome::default();
    // Each round sets up a daemon on its own key set and puts it under the
    // same share of the load, so every set-up and every peak is taken over
    // comparable runs.
    let rounds = if ctx.trace { 1 } else { SETUP_REPEATS };
    let slot = ctx.window / rounds as u32;
    let (mut setups, mut search_times) = (Vec::new(), Vec::new());
    let (mut rounds_pairs, mut samples, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let (mut load_cpu_s, mut load_hits) = (0.0, 0.0);
    for round in 0..rounds {
        let keys = gen::warm_keys(ctx.seed, round);
        let (daemon, payloads, times, spent) = setup(ctx, &keys, round, &mut out)?;
        setups.push(spent);
        search_times.extend(times);
        let pairs: Vec<(SearchRequest, String)> = keys.into_iter().zip(payloads).collect();
        let hits: Vec<Hit> = pairs.iter().map(|(r, p)| Hit::new(r, p)).collect();
        let offset_s = (slot * round as u32).as_secs_f64();
        let daemon_cpu_s = || daemon.cpu_s().map_err(|e| format!("pte-serve CPU clock: {e}"));
        let cpu_before = daemon_cpu_s()?;
        let loaded = if ctx.trace {
            traced(ctx, &daemon, &hits, clients, &mut out)?
        } else {
            load::closed_loop(&daemon.addr, clients, slot, &hits, (ctx.seed, round), false)?
        };
        load_cpu_s += daemon_cpu_s()? - cpu_before;
        load_hits += loaded.iter().filter(|s| s.ok).count() as f64;
        samples.extend(loaded.into_iter().map(|s| load::Sample { at_s: s.at_s + offset_s, ..s }));
        peaks.push(daemon.peak_rss_mb());
        daemon_checks(&daemon, &mut out)?;
        daemon.shutdown().map_err(|e| format!("pte-serve shutdown: {e}"))?;
        rounds_pairs.push(pairs);
    }
    // Hits per second of the daemon's CPU time under the load: what one
    // core of it would serve. The clients' pauses bound hits per wall
    // second, which is printed ungated.
    out.end_to_end.insert("hits_per_s", ratio(load_hits, load_cpu_s));
    let setup = Spent::median(&setups);
    out.end_to_end.insert("setup_s", setup.cpu_s);
    out.end_to_end.insert("setup_wall_s", setup.wall_s);
    // Median over the run's daemons of each one's peak after its share of
    // the load: a single process's high-water mark moves with allocator
    // arena luck.
    out.end_to_end.insert("peak_rss_mb", median(&peaks));
    // Pooled over every round's warm-up searches, each round with its own
    // candidate seeds: a key slot's search cost moves with its draw.
    let cpu: Vec<f64> = search_times.iter().map(|s| s.cpu_s).collect();
    let wall: Vec<f64> = search_times.iter().map(|s| s.wall_s).collect();
    out.end_to_end.insert("search_s", geomean(&cpu));
    out.end_to_end.insert("miss_p50_ms", median(&cpu) * 1e3);
    out.end_to_end.insert("search_wall_s", geomean(&wall));

    for s in &samples {
        out.count(s.ok);
        out.shed += u64::from(s.shed);
        out.good += u64::from(s.ok && s.rtt_ms <= HIT_LIMIT_MS);
    }
    out.checker.require(
        samples.iter().all(|s| s.ok),
        "every warm_hits request is a hit with the warmed bytes",
    );
    // Traced runs sample two half windows back to back; either way the
    // slices cover what was sent.
    let window = if ctx.trace { ctx.window / 2 } else { slot * rounds as u32 };
    let seg =
        |stat: &dyn Fn(&[&load::Sample], f64) -> f64| load::segment_median(&samples, window, stat);
    out.end_to_end.insert("hit_p50_ms", seg(&|s, _| load::latency_percentile(s, 0.5)));
    out.end_to_end.insert("hit_p90_ms", seg(&|s, _| load::latency_percentile(s, 0.9)));
    out.end_to_end
        .insert("hits_per_wall_s", seg(&|s, len| s.iter().filter(|s| s.ok).count() as f64 / len));

    // Output checks: a seeded sample of served plans against in-process
    // execution, and every plan's legality.
    let mut rng = Rng::new(ctx.seed, 11);
    for small in [true, true, true, false] {
        let pairs = &rounds_pairs[rng.below(rounds_pairs.len())];
        let index = if small {
            rng.below(gen::SMALL_KEYS)
        } else {
            gen::SMALL_KEYS + rng.below(pairs.len() - gen::SMALL_KEYS)
        };
        let (request, served) = &pairs[index];
        out.checker.parity(request, served);
    }
    // The densenet161 baselines recur in every round's key set: each
    // daemon must serve them the same bytes.
    let mut served: HashMap<String, &str> = HashMap::new();
    for (request, payload) in rounds_pairs.iter().flatten() {
        let canonical = request.encode().expect("finite request");
        if let Some(previous) = served.insert(canonical, payload) {
            out.checker.require(previous == payload, "every daemon serves a repeated key alike");
        }
    }
    let speedups: Vec<f64> =
        rounds_pairs.iter().flatten().map(|(r, p)| out.checker.legal(r, p)).collect();
    out.end_to_end.insert("plan_speedup", geomean(&speedups));

    if ctx.trace {
        let pairs = &rounds_pairs[0];
        let keys: Vec<SearchRequest> = pairs.iter().map(|(r, _)| r.clone()).collect();
        let plans: Vec<&str> = pairs.iter().map(|(_, p)| p.as_str()).collect();
        layers::plan_stats_layers(&plans, &mut out.layers);
        layers::baseline_layer(&keys, &mut out.layers);
        layers::search_layers(&keys, &mut out.layers);
        layers::data_plane_layers(pairs, &ctx.work_dir, &mut out.layers);
    }
    Ok(out)
}

/// A daemon's end-of-round invariant (`conserved: true`) and its cache
/// and probe-memo figures.
fn daemon_checks(daemon: &Proc, out: &mut Outcome) -> Result<(), String> {
    let stats = daemon.stats().map_err(|e| e.to_string())?;
    let cache = stats.get("cache").cloned().unwrap_or(Json::Null);
    out.checker.require(
        cache.get("conserved").and_then(Json::as_bool) == Some(true),
        "daemon cache reports conserved: true",
    );
    out.layers
        .insert("cache.hit_ratio", cache.get("hit_rate").and_then(Json::as_f64).unwrap_or(0.0));
    out.layers
        .insert("cache.coalesced", cache.get("coalesced").and_then(Json::as_f64).unwrap_or(0.0));
    let probe = stats.get("probe_cache").cloned().unwrap_or(Json::Null);
    out.layers.insert(
        "fisher.memo_hit_ratio",
        probe.get("hit_rate").and_then(Json::as_f64).unwrap_or(0.0),
    );
    Ok(())
}

/// Traced: the window split into an untraced and a traced closed loop;
/// the serve-layer figures come from the untraced half.
fn traced(
    ctx: &Ctx,
    daemon: &Proc,
    hits: &[Hit],
    clients: usize,
    out: &mut Outcome,
) -> Result<Vec<load::Sample>, String> {
    // Every search so far was a warm-up miss.
    let warm_page = daemon.prometheus().map_err(|e| e.to_string())?;
    load::daemon_search_layers(&warm_page, hits.len() as f64, &mut out.layers);
    let half = ctx.window / 2;
    let polls = |page: &str| prom_value(page, "pte_event_loop_poll_iterations_total");
    let plain = load::closed_loop(&daemon.addr, clients, half, hits, (ctx.seed, 0), false)?;
    let after_page = daemon.prometheus().map_err(|e| e.to_string())?;
    let traced = load::closed_loop(&daemon.addr, clients, half, hits, (ctx.seed, 1), true)?;

    let rtt: Vec<f64> = plain.iter().map(|s| s.rtt_ms).collect();
    let server_us: Vec<f64> = plain.iter().map(|s| s.server_ms * 1e3).collect();
    let wait_us: Vec<f64> = plain.iter().map(|s| (s.rtt_ms - s.server_ms) * 1e3).collect();
    out.layers.insert("serve.request_us", median(&server_us));
    out.layers.insert("serve.loop_wait_us", median(&wait_us));
    // Each closed-loop request is one op; the metrics scrape adds one more.
    out.layers.insert(
        "serve.polls_per_request",
        ratio(polls(&after_page) - polls(&warm_page), plain.len() as f64 + 1.0),
    );
    let traced_rtt: Vec<f64> = traced.iter().map(|s| s.rtt_ms).collect();
    out.layers
        .insert("telemetry.trace_overhead_frac", ratio(median(&traced_rtt), median(&rtt)) - 1.0);

    // The router hop, priced in front of this daemon: `pte-route` with it
    // as the only shard.
    let router = Proc::route(&ctx.bin_dir, std::slice::from_ref(&daemon.addr))
        .map_err(|e| format!("pte-route: {e}"))?;
    out.layers.insert("router.hop_us", load::hop_us(&router, daemon, hits)?);
    load::check_router(&router, out)?;
    router.shutdown().map_err(|e| format!("pte-route shutdown: {e}"))?;
    Ok(plain.into_iter().chain(traced).collect())
}
