//! Load generation against a running daemon or router: closed-loop
//! clients, each with one connection through `Client::connect`.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use pte_serve::codec::SearchRequest;
use pte_serve::{Client, ClientError, Json};

use crate::gen;
use crate::layers::LayerValues;
use crate::procs::{prom_value, Proc};
use crate::stats::{median, ratio};
use crate::Outcome;

/// One request's fate as its sender saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// When it was sent, in seconds from the start of its loop.
    pub at_s: f64,
    /// Send-to-reply round trip in ms.
    pub rtt_ms: f64,
    /// The server's own `elapsed_ms` for the request.
    pub server_ms: f64,
    /// Answered with the expected bytes (and as a hit, when one was due).
    pub ok: bool,
    /// Refused by load shedding.
    pub shed: bool,
    /// The served payload (misses only, for the output checks).
    pub payload: Option<String>,
}

/// A cache hit to send: its wire lines (plain and traced) and the payload
/// bytes it must come back with.
#[derive(Debug, Clone)]
pub struct Hit {
    line: String,
    traced_line: String,
    pub payload: String,
}

impl Hit {
    pub fn new(request: &SearchRequest, payload: &str) -> Hit {
        let op = |trace: bool| {
            let mut fields =
                vec![("op", Json::Str("search".into())), ("request", request.to_json())];
            if trace {
                fields.push(("trace", Json::Bool(true)));
            }
            Json::obj(fields).write().expect("finite request")
        };
        Hit { line: op(false), traced_line: op(true), payload: payload.to_string() }
    }
}

fn failed(rtt_ms: f64) -> Sample {
    Sample { at_s: 0.0, rtt_ms, server_ms: 0.0, ok: false, shed: false, payload: None }
}

/// Sends a hit as a raw line round trip and checks the reply in place: the
/// server splices the cached payload bytes verbatim at the end of the
/// envelope, so the check is a suffix comparison plus a parse of the small
/// envelope head. (`Client::search` would also decode and re-encode the
/// payload, which costs the client more than the server's whole hit.)
pub fn send_hit(client: &mut Client, hit: &Hit, trace: bool) -> Sample {
    let started = Instant::now();
    let reply = client.round_trip(if trace { &hit.traced_line } else { &hit.line });
    let rtt_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut sample = failed(rtt_ms);
    let text = match reply {
        Ok(text) => text,
        Err(e) => {
            eprintln!("perfbench: hit failed: {e}");
            return sample;
        }
    };
    let head = text
        .strip_suffix('}')
        .and_then(|t| t.strip_suffix(hit.payload.as_str()))
        .and_then(|t| t.strip_suffix(",\"payload\":"));
    let Some(head) = head.and_then(|h| Json::parse(&format!("{h}}}")).ok()) else {
        sample.shed = text.contains("\"overloaded\"");
        eprintln!("perfbench: hit reply without the expected payload");
        return sample;
    };
    let is_hit = head.get("cache").and_then(|c| c.get("hit")).and_then(Json::as_bool) == Some(true);
    sample.ok = is_hit && head.get("ok").and_then(Json::as_bool) == Some(true);
    sample.server_ms = head.get("elapsed_ms").and_then(Json::as_f64).unwrap_or(0.0);
    sample
}

/// Sends a search through the client library and keeps the served plan.
pub fn send_miss(client: &mut Client, request: &SearchRequest) -> Sample {
    let started = Instant::now();
    let reply = client.search(request);
    let mut sample = failed(started.elapsed().as_secs_f64() * 1e3);
    match reply {
        Ok(reply) => {
            sample.server_ms = reply.elapsed_ms;
            sample.ok = true;
            sample.payload = Some(reply.payload_canonical);
        }
        Err(ClientError::Server { error, .. }) => {
            sample.shed = error == "overloaded";
            eprintln!("perfbench: server refused a search: {error}");
        }
        Err(e) => eprintln!("perfbench: search failed: {e}"),
    }
    sample
}

fn connect(addr: &str) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// `clients` closed-loop clients, each on its own connection and its own
/// seeded schedule (`gen::client_schedule` for `seed` and `round`),
/// sending hits over `keys` for `window` and pausing after each reply.
pub fn closed_loop(
    addr: &str,
    clients: usize,
    window: Duration,
    keys: &[Hit],
    (seed, round): (u64, usize),
    trace: bool,
) -> Result<Vec<Sample>, String> {
    let barrier = Barrier::new(clients);
    let results: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = connect(addr)?;
                    let mut schedule = gen::client_schedule(seed, round, c, keys.len());
                    let mut samples = Vec::new();
                    barrier.wait();
                    let started = Instant::now();
                    while started.elapsed() < window {
                        let (key, pause) = schedule.next().expect("endless schedule");
                        let at_s = started.elapsed().as_secs_f64();
                        let sample = send_hit(&mut client, &keys[key], trace);
                        samples.push(Sample { at_s, ..sample });
                        std::thread::sleep(pause);
                    }
                    Ok(samples)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    Ok(all)
}

/// Time slices per window for [`segment_median`].
pub const SEGMENTS: usize = 10;

/// `stat` of each of [`SEGMENTS`] equal time slices of `window`, and the
/// median of those: a neighbour's CPU burst that slows a few slices of a
/// run moves this far less than a statistic over the pooled samples.
/// `stat` gets a slice's samples and its length in seconds; empty slices
/// are skipped.
pub fn segment_median<'a>(
    samples: impl IntoIterator<Item = &'a Sample>,
    window: Duration,
    stat: impl Fn(&[&Sample], f64) -> f64,
) -> f64 {
    let slice_s = window.as_secs_f64() / SEGMENTS as f64;
    let mut slices: Vec<Vec<&Sample>> = vec![Vec::new(); SEGMENTS];
    for sample in samples {
        let index = ((sample.at_s / slice_s) as usize).min(SEGMENTS - 1);
        slices[index].push(sample);
    }
    let stats: Vec<f64> =
        slices.iter().filter(|s| !s.is_empty()).map(|s| stat(s, slice_s)).collect();
    median(&stats)
}

/// Nearest-rank percentile of the latencies of the successful samples.
pub fn latency_percentile(samples: &[&Sample], q: f64) -> f64 {
    let ms: Vec<f64> = samples.iter().filter(|s| s.ok).map(|s| s.rtt_ms).collect();
    crate::stats::percentile(&ms, q)
}

/// The Evaluator stage and search-span histograms of a daemon, from its
/// metrics page taken after `searches` computed searches and nothing
/// else: per-search stage times and the share of search time no stage
/// covers.
pub fn daemon_search_layers(page: &str, searches: f64, out: &mut LayerValues) {
    let search_ms = prom_value(page, "pte_span_search_us_sum") / 1e3;
    let mut covered = 0.0;
    for (stage, name) in [
        ("eval_structural", "search.eval_structural_ms"),
        ("eval_cost_gate", "search.eval_cost_gate_ms"),
        ("eval_fisher", "search.eval_fisher_ms"),
        ("eval_autotune", "search.eval_autotune_ms"),
    ] {
        let ms = prom_value(page, &format!("pte_span_{stage}_us_sum")) / 1e3;
        covered += ms;
        out.insert(name, ratio(ms, searches));
    }
    out.insert("search.unattributed_frac", 1.0 - ratio(covered, search_ms));
}

/// Routed minus direct median hit round trip, in µs: the same keys sent
/// one at a time through `router` and straight to `shard`, its only
/// shard, interleaved.
pub fn hop_us(router: &Proc, shard: &Proc, hits: &[Hit]) -> Result<f64, String> {
    let mut routed = router.client().map_err(|e| e.to_string())?;
    let mut direct = shard.client().map_err(|e| e.to_string())?;
    let (mut via_router, mut straight) = (Vec::new(), Vec::new());
    for round in 0..300 {
        let hit = &hits[round % hits.len()];
        via_router.push(send_hit(&mut routed, hit, false).rtt_ms);
        straight.push(send_hit(&mut direct, hit, false).rtt_ms);
    }
    Ok((median(&via_router) - median(&straight)) * 1e3)
}

/// The router's end-of-run invariants (`conserved: true` and
/// `routed == forwarded + failovers + shed`) and its failover and shed
/// counts.
pub fn check_router(router: &Proc, out: &mut Outcome) -> Result<(), String> {
    let stats = router.stats().map_err(|e| e.to_string())?;
    let count = |name: &str| stats.get(name).and_then(Json::as_u64).unwrap_or(u64::MAX);
    out.checker.require(
        stats.get("conserved").and_then(Json::as_bool) == Some(true),
        "router reports conserved: true",
    );
    out.checker.require(
        count("routed") == count("forwarded") + count("failovers") + count("shed"),
        "router routed == forwarded + failovers + shed",
    );
    out.layers.insert("router.failovers", count("failovers") as f64);
    out.layers.insert("router.shed", count("shed") as f64);
    out.shed += count("shed");
    Ok(())
}
