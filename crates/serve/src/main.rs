//! `pte-serve` — the search-as-a-service daemon.
//!
//! Binds a TCP port, serves line-delimited JSON search requests through
//! the sharded single-flight plan cache, and runs until killed or asked to
//! shut down with a `shutdown` op.
//!
//! ```text
//! pte-serve [--addr 127.0.0.1:7464] [--workers 4] [--cache-cap 256]
//!           [--cache-shards 8] [--probe-cache-cap N]
//!           [--max-pending 32] [--retry-after-ms 200]
//!           [--default-deadline-ms 0]
//!           [--idle-timeout-ms 60000] [--poll-interval-ms 1]
//!           [--store PATH]
//!           [--metrics-every-ms N] [--metrics-file PATH]
//! ```
//!
//! `--probe-cache-cap` sizes the process-wide Fisher probe memo for
//! long-lived serving (equivalent to `PTE_PROBE_CACHE_CAP`, but applied
//! programmatically so it wins over the environment). `--max-pending`
//! bounds concurrent non-hit searches (overflow answers `overloaded` with
//! the `--retry-after-ms` hint; cache hits always serve), and
//! `--default-deadline-ms` caps searches whose request carries no
//! `deadline_ms` of its own (0 disables the default).
//!
//! `--idle-timeout-ms` closes keep-alive connections with no completed
//! request for that long (they cost no threads, only a poll read per
//! sweep); `--poll-interval-ms` sets the event loop's readiness-poll
//! cadence. Both fall back to the `PTE_SERVE_IDLE_TIMEOUT_MS` /
//! `PTE_SERVE_POLL_INTERVAL_MS` environment variables when the flag is
//! absent, so a fleet can be tuned without editing unit files.
//!
//! `--metrics-every-ms` (or `PTE_SERVE_METRICS_EVERY_MS`) appends a
//! metrics snapshot — the same JSON document the `stats` op serves — to
//! `--metrics-file` (default `pte_metrics.jsonl`, or
//! `PTE_SERVE_METRICS_FILE`) every N milliseconds, one document per line,
//! for offline plotting. Live scraping goes through the `metrics` op
//! instead.
//!
//! `--store PATH` (or `PTE_SERVE_STORE`) enables the append-only plan log:
//! replayed into the cache on boot — a restarted daemon answers its prior
//! working set as bit-identical cache hits from the first request — and
//! appended on every computed plan. A tail torn by a crash is truncated
//! away on open, never fatal.

use std::time::Duration;

use pte_serve::server::{serve, ServerConfig};

struct Args {
    config: ServerConfig,
    probe_cache_cap: Option<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: pte-serve [--addr HOST:PORT] [--workers N] [--cache-cap N] \
         [--cache-shards N] [--probe-cache-cap N] [--max-pending N] \
         [--retry-after-ms N] [--default-deadline-ms N] [--idle-timeout-ms N] \
         [--poll-interval-ms N] [--store PATH] [--metrics-every-ms N] \
         [--metrics-file PATH]"
    );
    std::process::exit(2);
}

/// Environment fallback for a millisecond knob: used only when its flag is
/// absent; unparseable values are ignored rather than fatal.
fn env_ms(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

fn parse_args() -> Args {
    let mut config = ServerConfig { addr: "127.0.0.1:7464".into(), ..ServerConfig::default() };
    if let Some(ms) = env_ms("PTE_SERVE_IDLE_TIMEOUT_MS") {
        config.idle_timeout = Duration::from_millis(ms);
    }
    if let Some(ms) = env_ms("PTE_SERVE_POLL_INTERVAL_MS") {
        config.poll_interval = Duration::from_millis(ms);
    }
    if let Ok(path) = std::env::var("PTE_SERVE_STORE") {
        if !path.is_empty() {
            config.store_path = Some(path.into());
        }
    }
    if let Some(ms) = env_ms("PTE_SERVE_METRICS_EVERY_MS") {
        if ms > 0 {
            config.metrics_every = Some(Duration::from_millis(ms));
        }
    }
    if let Ok(path) = std::env::var("PTE_SERVE_METRICS_FILE") {
        if !path.is_empty() {
            config.metrics_path = Some(path.into());
        }
    }
    let mut probe_cache_cap = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => config.addr = value(),
            "--workers" => config.workers = value().parse().unwrap_or_else(|_| usage()),
            "--cache-cap" => config.cache_capacity = value().parse().unwrap_or_else(|_| usage()),
            "--cache-shards" => config.cache_shards = value().parse().unwrap_or_else(|_| usage()),
            "--probe-cache-cap" => {
                probe_cache_cap = Some(value().parse().unwrap_or_else(|_| usage()));
            }
            "--max-pending" => {
                config.max_pending_searches = value().parse().unwrap_or_else(|_| usage());
            }
            "--retry-after-ms" => {
                config.retry_after_ms = value().parse().unwrap_or_else(|_| usage());
            }
            "--default-deadline-ms" => {
                config.default_deadline_ms = value().parse().unwrap_or_else(|_| usage());
            }
            "--idle-timeout-ms" => {
                let ms: u64 = value().parse().unwrap_or_else(|_| usage());
                config.idle_timeout = Duration::from_millis(ms);
            }
            "--poll-interval-ms" => {
                let ms: u64 = value().parse().unwrap_or_else(|_| usage());
                config.poll_interval = Duration::from_millis(ms);
            }
            "--store" => config.store_path = Some(value().into()),
            "--metrics-every-ms" => {
                let ms: u64 = value().parse().unwrap_or_else(|_| usage());
                config.metrics_every = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--metrics-file" => config.metrics_path = Some(value().into()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    Args { config, probe_cache_cap }
}

fn main() {
    let args = parse_args();
    if let Some(cap) = args.probe_cache_cap {
        pte_core::fisher::proxy::set_probe_cache_capacity(Some(cap));
    }
    let handle = match serve(&args.config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("pte-serve: cannot start on {}: {e}", args.config.addr);
            std::process::exit(1);
        }
    };
    println!(
        "pte-serve listening on {} ({} workers, cache {} entries / {} shards, probe memo cap {}, \
         max pending {}, idle timeout {}ms, poll {}µs, store {}; warm-started {} plans)",
        handle.addr(),
        args.config.workers,
        args.config.cache_capacity,
        args.config.cache_shards,
        pte_core::fisher::proxy::probe_cache_capacity(),
        args.config.max_pending_searches,
        args.config.idle_timeout.as_millis(),
        // The clamped value the event loop actually runs, so the banner,
        // the stats op, and the loop can never disagree.
        args.config.effective_poll_interval().as_micros(),
        args.config.store_path.as_deref().map_or("off".into(), |p| p.display().to_string()),
        handle.state().store_loaded(),
    );
    // Runs until a client sends a shutdown op (or the process is killed);
    // join returns once the event loop and workers have drained.
    let state = std::sync::Arc::clone(handle.state());
    while !state.is_stopping() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    handle.join();
    println!("pte-serve: drained, bye");
}
