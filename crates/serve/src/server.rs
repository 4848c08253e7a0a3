//! The std-only TCP search server: a nonblocking event loop in front of a
//! fixed worker pool.
//!
//! ## Wire format
//!
//! Line-delimited JSON: one request document per line, one response
//! document per line. Operations: `search` (optional op-level `deadline_ms`
//! and `trace` outside the `request` subtree, so they can never change the
//! canonical bytes or the cache key), `stats`, `metrics`, `ping`,
//! `shutdown`. A malformed line — invalid UTF-8, invalid JSON, an unknown
//! op, a schema violation — gets `{"ok":false,...}` and the connection
//! stays up. A line longer than 1 MiB is unrecoverable (the buffer cannot
//! grow without bound), so the server answers one error line and closes.
//!
//! Every request is decoded to a [`SearchRequest`] and re-encoded
//! canonically, so **one request key maps to one cache entry regardless of
//! field order or whitespace**, and a hit's payload is the cached canonical
//! bytes spliced verbatim into the reply.
//!
//! ## Threading
//!
//! One event-loop thread owns the listener and every connection. Sockets
//! are nonblocking; the loop sweeps them on a configurable poll interval
//! (readiness polling, the strongest portable primitive std exposes), so an
//! idle keep-alive connection costs a poll read and zero threads — the
//! daemon holds thousands of idle connections with the same fixed thread
//! count it holds one. Complete messages are handed to a fixed worker pool
//! over a channel; completions flow back over another, which doubles as the
//! loop's wake-up (a finished search interrupts the poll sleep
//! immediately). At most one request per connection is in flight at a time
//! — the loop stops extracting messages from a connection until its reply
//! is queued — which preserves reply ordering under pipelining without any
//! reordering machinery.
//!
//! ## Failure containment (unchanged contract)
//!
//! * **Bounded admission**: at most `max_pending_searches` non-hit searches
//!   in flight; overflow answers `overloaded` + `retry_after_ms`
//!   immediately. Cache *hits* bypass admission entirely (a non-blocking
//!   [`PlanCache::peek`]), so a saturated daemon degrades to a read-only
//!   cache instead of hanging everyone.
//! * **Panic isolation**: request handling runs under `catch_unwind` in the
//!   workers; a panicking handler answers `internal panic` on its own
//!   connection and the daemon keeps serving. A panicking single-flight
//!   leader wakes its waiters (one retries, the rest get the failure).
//! * **Fault injection**: an optional [`FaultHook`] is consulted per
//!   request and per cache-miss compute, *in the workers* — an injected
//!   stall or panic pins one worker, never the event loop, so the daemon
//!   keeps accepting and serving hits while a handler is wedged.
//! * **Graceful drain**: shutdown stops accepting, lets in-flight requests
//!   finish, delivers their replies, then closes everything and joins.
//!
//! ## Warm-start persistence
//!
//! With `store_path` set, every single-flight leader's published payload is
//! appended to a CRC-framed log ([`crate::store`]); on boot the log is
//! replayed into the cache (truncating a torn tail from a crash), so a
//! restarted daemon answers its working set as bit-identical cache hits
//! from the first request.

use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, LazyLock, Mutex};
use std::time::{Duration, Instant};

use pte_core::search::CancelToken;
use pte_telemetry::{Counter, Gauge, Histogram, Trace};

use crate::cache::{CacheStats, PlanCache};
use crate::codec::{self, ErrorClass, SearchRequest};
use crate::fault::{FaultAction, FaultHook, FaultPoint};
use crate::json::{fnv1a64, Json};
use crate::store::PlanStore;

// ---------------------------------------------------------------------------
// Telemetry handles
// ---------------------------------------------------------------------------
//
// Every handle is a `LazyLock` static forced once by [`init_metrics`]
// (called from `serve` before any thread spawns), so steady-state recording
// is pure atomics — the event loop and the workers never touch the registry
// mutex. The per-instance `ServerState` counters stay authoritative for the
// `stats` op (tests boot many daemons per process); the process-wide
// registry carries the histograms, gauges and aggregate counters the
// `metrics` op exposes alongside them.

static EL_WAKEUPS: LazyLock<Counter> =
    LazyLock::new(|| pte_telemetry::global().counter("pte_event_loop_wakeups_total"));
static EL_POLLS: LazyLock<Counter> =
    LazyLock::new(|| pte_telemetry::global().counter("pte_event_loop_poll_iterations_total"));
static CONNS_BUSY: LazyLock<Gauge> =
    LazyLock::new(|| pte_telemetry::global().gauge("pte_connections_busy"));
static CONNS_IDLE: LazyLock<Gauge> =
    LazyLock::new(|| pte_telemetry::global().gauge("pte_connections_idle"));
static QUEUE_DEPTH: LazyLock<Gauge> =
    LazyLock::new(|| pte_telemetry::global().gauge("pte_queue_depth"));
static SHED_TOTAL: LazyLock<Counter> =
    LazyLock::new(|| pte_telemetry::global().counter("pte_shed_total"));
static DEADLINE_TOTAL: LazyLock<Counter> =
    LazyLock::new(|| pte_telemetry::global().counter("pte_deadline_total"));
static PANIC_TOTAL: LazyLock<Counter> =
    LazyLock::new(|| pte_telemetry::global().counter("pte_panic_total"));
static REQ_SEARCH_US: LazyLock<Histogram> =
    LazyLock::new(|| pte_telemetry::global().histogram("pte_request_search_us"));
static REQ_STATS_US: LazyLock<Histogram> =
    LazyLock::new(|| pte_telemetry::global().histogram("pte_request_stats_us"));
static REQ_METRICS_US: LazyLock<Histogram> =
    LazyLock::new(|| pte_telemetry::global().histogram("pte_request_metrics_us"));
static REQ_PING_US: LazyLock<Histogram> =
    LazyLock::new(|| pte_telemetry::global().histogram("pte_request_ping_us"));
static REQ_SHUTDOWN_US: LazyLock<Histogram> =
    LazyLock::new(|| pte_telemetry::global().histogram("pte_request_shutdown_us"));
static REQ_JSON_US: LazyLock<Histogram> =
    LazyLock::new(|| pte_telemetry::global().histogram("pte_request_json_us"));

/// The per-op request-latency histogram, if the op has one (error paths
/// and unknown ops do not).
fn op_histogram(op: &str) -> Option<&'static Histogram> {
    Some(match op {
        "search" => &REQ_SEARCH_US,
        "stats" => &REQ_STATS_US,
        "metrics" => &REQ_METRICS_US,
        "ping" => &REQ_PING_US,
        "shutdown" => &REQ_SHUTDOWN_US,
        _ => return None,
    })
}

/// Eagerly registers every metric this daemon can emit — the server's own
/// handles plus the Evaluator's and probe layer's — so a `metrics` scrape
/// lists all names before any traffic, and so no request thread ever pays
/// the registration lock.
fn init_metrics() {
    LazyLock::force(&EL_WAKEUPS);
    LazyLock::force(&EL_POLLS);
    LazyLock::force(&CONNS_BUSY);
    LazyLock::force(&CONNS_IDLE);
    LazyLock::force(&QUEUE_DEPTH);
    LazyLock::force(&SHED_TOTAL);
    LazyLock::force(&DEADLINE_TOTAL);
    LazyLock::force(&PANIC_TOTAL);
    LazyLock::force(&REQ_SEARCH_US);
    LazyLock::force(&REQ_STATS_US);
    LazyLock::force(&REQ_METRICS_US);
    LazyLock::force(&REQ_PING_US);
    LazyLock::force(&REQ_SHUTDOWN_US);
    LazyLock::force(&REQ_JSON_US);
    pte_telemetry::global().histogram("pte_span_search_us");
    pte_telemetry::global().histogram("pte_span_evolve_class_us");
    pte_telemetry::global().histogram("pte_cache_hit_us");
    pte_telemetry::global().histogram("pte_cache_miss_us");
    pte_telemetry::global().counter("pte_store_append_bytes_total");
    pte_core::search::eval::init_metrics();
    pte_core::fisher::proxy::init_metrics();
}

/// Server configuration.
#[derive(Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads executing requests. Searches, stalls and coalesced
    /// waits pin workers; the event loop never blocks on any of them.
    pub workers: usize,
    /// Plan-cache entry capacity.
    pub cache_capacity: usize,
    /// Plan-cache shard count.
    pub cache_shards: usize,
    /// Connections idle (no completed request) for longer than this are
    /// closed. Idle connections cost no threads, but each costs a poll
    /// read per sweep; the timeout bounds how long a silent client keeps
    /// paying that. Connections with a request in flight are exempt.
    pub idle_timeout: Duration,
    /// The event loop's readiness-poll interval: how long it sleeps when no
    /// socket had data and no completion arrived. Completions interrupt
    /// the sleep, so warm-hit latency does not ride on this — only the
    /// first read of newly-arrived request bytes does.
    pub poll_interval: Duration,
    /// Maximum non-hit search requests in flight before new ones are shed
    /// with an `overloaded` reply. Cache hits are exempt.
    pub max_pending_searches: usize,
    /// The `retry_after_ms` hint attached to `overloaded` replies.
    pub retry_after_ms: u64,
    /// Deadline applied to searches whose request carries none (0 = no
    /// default deadline).
    pub default_deadline_ms: u64,
    /// Append-only plan-log path: replayed into the cache on boot (warm
    /// start), appended on every leader publish. `None` disables
    /// persistence.
    pub store_path: Option<PathBuf>,
    /// Deterministic fault-injection hook (chaos tests only; `None` in
    /// production costs one branch per request).
    pub fault_hook: Option<FaultHook>,
    /// Interval between periodic metrics snapshots (the `--metrics-every-ms`
    /// flag). `None` disables the snapshot thread.
    pub metrics_every: Option<Duration>,
    /// File periodic snapshots are appended to, one JSON document per line
    /// (the same document the `stats` op serves, for offline plotting).
    /// Defaults to `pte_metrics.jsonl` when an interval is set.
    pub metrics_path: Option<PathBuf>,
}

impl ServerConfig {
    /// The poll interval the event loop actually runs: the configured value
    /// clamped to a 100µs floor (a zero interval would spin a core). This is
    /// the single clamp site — `serve` wires this value into the loop *and*
    /// the stats snapshot, so `--poll-interval-ms 0` can never report `0`
    /// while polling at 100µs.
    pub fn effective_poll_interval(&self) -> Duration {
        self.poll_interval.max(Duration::from_micros(100))
    }
}

impl fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerConfig")
            .field("addr", &self.addr)
            .field("workers", &self.workers)
            .field("cache_capacity", &self.cache_capacity)
            .field("cache_shards", &self.cache_shards)
            .field("idle_timeout", &self.idle_timeout)
            .field("poll_interval", &self.effective_poll_interval())
            .field("max_pending_searches", &self.max_pending_searches)
            .field("retry_after_ms", &self.retry_after_ms)
            .field("default_deadline_ms", &self.default_deadline_ms)
            .field("store_path", &self.store_path)
            .field("fault_hook", &self.fault_hook.is_some())
            .field("metrics_every", &self.metrics_every)
            .field("metrics_path", &self.metrics_path)
            .finish()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            cache_capacity: 256,
            cache_shards: 8,
            idle_timeout: Duration::from_secs(60),
            poll_interval: Duration::from_millis(1),
            max_pending_searches: 32,
            retry_after_ms: 200,
            default_deadline_ms: 0,
            store_path: None,
            fault_hook: None,
            metrics_every: None,
            metrics_path: None,
        }
    }
}

/// Shared server state: the plan cache plus request counters.
pub struct ServerState {
    /// The sharded single-flight plan cache.
    pub cache: PlanCache,
    requests: AtomicU64,
    searches: AtomicU64,
    errors: AtomicU64,
    /// Search requests shed by admission control.
    shed: AtomicU64,
    /// Searches aborted by their deadline.
    deadlines: AtomicU64,
    /// Handler panics contained by `catch_unwind`.
    panics: AtomicU64,
    /// Non-hit search requests currently in flight (admission gauge).
    inflight: AtomicU64,
    /// Open connections (event-loop gauge).
    connections: AtomicU64,
    /// Global request ordinal (fault-hook addressing).
    request_seq: AtomicU64,
    /// Global cache-miss compute ordinal (fault-hook addressing).
    compute_seq: AtomicU64,
    max_pending_searches: u64,
    retry_after_ms: u64,
    default_deadline_ms: u64,
    idle_timeout_ms: u64,
    poll_interval_ms: u64,
    /// Exact effective poll interval in microseconds: sub-millisecond
    /// intervals (including the clamped floor) truncate to `0` in the
    /// `_ms` field, so stats also expose the lossless value.
    poll_interval_us: u64,
    /// The append-only plan log (None = persistence disabled).
    store: Option<Arc<PlanStore>>,
    /// Records appended to the plan log this process.
    store_appends: AtomicU64,
    /// Cache entries seeded from the plan log at boot.
    store_loaded: u64,
    /// Log records dropped during boot replay (foreign entries plus
    /// superseded duplicates), surfaced instead of silently ignored.
    store_skipped: u64,
    /// Bytes reclaimed by the boot-time compaction rewrite (0 when the
    /// savings stayed under the threshold).
    store_compacted: u64,
    fault_hook: Option<FaultHook>,
    started: Instant,
    stop: AtomicBool,
}

impl ServerState {
    /// Cache counters snapshot.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Total protocol requests handled (every op, errors included).
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Search requests shed by admission control.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Searches aborted by their deadline.
    pub fn deadlines(&self) -> u64 {
        self.deadlines.load(Ordering::Relaxed)
    }

    /// Handler panics contained by `catch_unwind`.
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Currently open connections.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Records appended to the plan log this process.
    pub fn store_appends(&self) -> u64 {
        self.store_appends.load(Ordering::Relaxed)
    }

    /// Cache entries seeded from the plan log at boot.
    pub fn store_loaded(&self) -> u64 {
        self.store_loaded
    }

    /// Log records dropped during boot replay (foreign + duplicate).
    pub fn store_skipped(&self) -> u64 {
        self.store_skipped
    }

    /// Bytes reclaimed by boot-time log compaction.
    pub fn store_compacted(&self) -> u64 {
        self.store_compacted
    }

    /// Whether a shutdown has been requested (by handle or `shutdown` op).
    pub fn is_stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// Decrements the in-flight gauge on every exit path — including the
/// unwind of a panicking compute — so admission never leaks capacity.
struct InflightSlot<'a> {
    state: &'a ServerState,
}

impl Drop for InflightSlot<'_> {
    fn drop(&mut self) {
        let prev = self.state.inflight.fetch_sub(1, Ordering::SeqCst);
        QUEUE_DEPTH.set(i64::try_from(prev.saturating_sub(1)).unwrap_or(i64::MAX));
    }
}

/// A running server: its bound address plus shutdown/join handles.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    event_loop: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state (cache + counters), for in-process observability.
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Signals shutdown; the event loop notices within one poll interval.
    pub fn shutdown(&self) {
        self.state.stop.store(true, Ordering::SeqCst);
    }

    /// Signals shutdown and joins every thread (graceful: in-flight
    /// requests finish, their replies are delivered, then everything
    /// closes).
    pub fn join(mut self) {
        self.shutdown();
        if let Some(event_loop) = self.event_loop.take() {
            let _ = event_loop.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.state.stop.store(true, Ordering::SeqCst);
    }
}

/// Maximum accepted JSON request-line length. Custom networks are a few
/// KiB; anything near this bound is hostile, and without a cap one
/// newline-less client could grow the loop's buffer without limit.
const MAX_LINE_BYTES: usize = 1 << 20;

/// The event loop's per-sweep read chunk.
const READ_CHUNK: usize = 64 * 1024;

/// Starts the server: opens the plan log (if configured) and replays it
/// into the cache, binds, spawns the event loop and the worker pool, and
/// returns immediately.
///
/// # Errors
/// Propagates bind and plan-log I/O failures.
pub fn serve(config: &ServerConfig) -> std::io::Result<ServerHandle> {
    // Register every metric up front: scrapes list all names before any
    // traffic, and no event-loop or worker thread ever takes the
    // registration lock.
    init_metrics();
    let cache = PlanCache::new(config.cache_capacity, config.cache_shards);
    let mut store = None;
    let mut store_loaded = 0u64;
    let mut store_skipped = 0u64;
    let mut store_compacted = 0u64;
    if let Some(path) = &config.store_path {
        let (opened, replay) = PlanStore::open(path)?;
        for record in &replay.records {
            let hash = fnv1a64(record.canonical.as_bytes());
            if cache.seed(&record.canonical, hash, &record.payload) {
                store_loaded += 1;
            }
        }
        store_skipped = replay.skipped();
        store_compacted = replay.compacted_bytes;
        store = Some(Arc::new(opened));
    }

    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    // Clamp the poll interval exactly once, up front: the event loop, the
    // stats snapshot, and debug output all see this value.
    let poll_interval = config.effective_poll_interval();
    let state = Arc::new(ServerState {
        cache,
        requests: AtomicU64::new(0),
        searches: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        deadlines: AtomicU64::new(0),
        panics: AtomicU64::new(0),
        inflight: AtomicU64::new(0),
        connections: AtomicU64::new(0),
        request_seq: AtomicU64::new(0),
        compute_seq: AtomicU64::new(0),
        max_pending_searches: config.max_pending_searches.max(1) as u64,
        retry_after_ms: config.retry_after_ms,
        default_deadline_ms: config.default_deadline_ms,
        idle_timeout_ms: saturating_millis(config.idle_timeout),
        poll_interval_ms: saturating_millis(poll_interval),
        poll_interval_us: saturating_micros(poll_interval),
        store,
        store_appends: AtomicU64::new(0),
        store_loaded,
        store_skipped,
        store_compacted,
        fault_hook: config.fault_hook.clone(),
        started: Instant::now(),
        stop: AtomicBool::new(false),
    });

    let (job_tx, job_rx): (Sender<Job>, Receiver<Job>) = std::sync::mpsc::channel();
    let (completion_tx, completion_rx) = std::sync::mpsc::channel();
    let job_rx = Arc::new(Mutex::new(job_rx));

    let mut workers: Vec<_> = (0..config.workers.max(1))
        .map(|_| {
            let job_rx = Arc::clone(&job_rx);
            let completion_tx = completion_tx.clone();
            let state = Arc::clone(&state);
            std::thread::spawn(move || worker_loop(&job_rx, &completion_tx, &state))
        })
        .collect();
    drop(completion_tx); // the loop's rx disconnects when the last worker exits

    if let Some(every) = config.metrics_every {
        let path =
            config.metrics_path.clone().unwrap_or_else(|| PathBuf::from("pte_metrics.jsonl"));
        let state = Arc::clone(&state);
        workers.push(std::thread::spawn(move || metrics_snapshot_loop(&state, &path, every)));
    }

    let event_loop = {
        let state = Arc::clone(&state);
        let idle_timeout = config.idle_timeout;
        std::thread::spawn(move || {
            EventLoop {
                listener,
                state,
                conns: Vec::new(),
                free: Vec::new(),
                live: 0,
                busy: 0,
                next_epoch: 0,
                job_tx,
                completion_rx,
                idle_timeout,
                poll_interval,
            }
            .run();
        })
    };

    Ok(ServerHandle { addr, state, event_loop: Some(event_loop), workers })
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

/// One request line for the pool, addressed back to its connection slot.
/// `epoch` guards slot reuse: a completion for a connection that closed
/// (and whose slot now holds a newer one) is discarded. The line travels as
/// raw bytes: UTF-8 validation happens in the worker so a validation error
/// is just another reply, not loop work.
struct Job {
    slot: usize,
    epoch: u64,
    line: Vec<u8>,
}

/// What a worker produced for a job.
enum Outcome {
    /// Bytes to queue on the connection (a JSON line with its newline).
    Reply(Vec<u8>),
    /// Sever the connection without replying (injected disconnect).
    Silent,
}

/// A finished job flowing back to the event loop.
struct Completion {
    slot: usize,
    epoch: u64,
    outcome: Outcome,
}

/// One connection owned by the event loop.
struct Connection {
    stream: TcpStream,
    /// Accumulated inbound bytes not yet forming a complete line.
    buf: Vec<u8>,
    /// Outbound bytes not yet accepted by the socket.
    out: Vec<u8>,
    /// A request is in flight; no further lines are extracted (and no
    /// reads are issued) until its reply is queued.
    busy: bool,
    epoch: u64,
    /// Idle clock: reset when a reply is queued, like the old per-worker
    /// `last_request` — trickling partial bytes does not reset it.
    last_reply: Instant,
    /// Deliver `out`, then close (oversized line, drain).
    close_after_flush: bool,
}

struct EventLoop {
    listener: TcpListener,
    state: Arc<ServerState>,
    conns: Vec<Option<Connection>>,
    free: Vec<usize>,
    live: usize,
    /// Connections with a request in flight (mirrors the per-connection
    /// `busy` flags; feeds the busy/idle gauges once per loop pass).
    busy: usize,
    next_epoch: u64,
    job_tx: Sender<Job>,
    completion_rx: Receiver<Completion>,
    idle_timeout: Duration,
    poll_interval: Duration,
}

impl EventLoop {
    fn run(mut self) {
        let mut scratch = vec![0u8; READ_CHUNK];
        loop {
            // Pre-registered counter/gauge handles only on this thread:
            // recording is a handful of atomic ops, never a lock.
            EL_POLLS.inc();
            let stopping = self.state.stop.load(Ordering::SeqCst);
            let mut activity = false;

            while let Ok(completion) = self.completion_rx.try_recv() {
                activity |= self.apply_completion(completion, stopping);
            }
            if !stopping {
                activity |= self.accept_new();
            }
            for index in 0..self.conns.len() {
                let Some(mut conn) = self.conns[index].take() else { continue };
                if self.sweep_conn(index, &mut conn, stopping, &mut scratch, &mut activity) {
                    self.conns[index] = Some(conn);
                } else {
                    if conn.busy {
                        // Closed with a request still in flight; its stale
                        // completion will be discarded by the epoch check.
                        self.busy = self.busy.saturating_sub(1);
                    }
                    self.release_slot(index);
                }
            }
            CONNS_BUSY.set(self.busy as i64);
            CONNS_IDLE.set(self.live.saturating_sub(self.busy) as i64);
            if stopping && self.live == 0 {
                return; // drops the listener (refusing new connects) and job_tx
            }
            if !activity {
                // The completion channel doubles as the wake-up: a finished
                // search interrupts the sleep instead of waiting out the
                // poll interval.
                match self.completion_rx.recv_timeout(self.poll_interval) {
                    Ok(completion) => {
                        EL_WAKEUPS.inc();
                        let stopping = self.state.stop.load(Ordering::SeqCst);
                        self.apply_completion(completion, stopping);
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => {
                        // Every worker died (cannot happen short of an
                        // abort); don't spin.
                        std::thread::sleep(self.poll_interval);
                    }
                }
            }
        }
    }

    fn release_slot(&mut self, index: usize) {
        self.conns[index] = None;
        self.free.push(index);
        self.live -= 1;
        self.state.connections.fetch_sub(1, Ordering::Relaxed);
    }

    fn accept_new(&mut self) -> bool {
        let mut accepted = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let epoch = self.next_epoch;
                    self.next_epoch += 1;
                    let conn = Connection {
                        stream,
                        buf: Vec::new(),
                        out: Vec::new(),
                        busy: false,
                        epoch,
                        last_reply: Instant::now(),
                        close_after_flush: false,
                    };
                    let slot = self.free.pop().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.conns.len() - 1
                    });
                    self.conns[slot] = Some(conn);
                    self.live += 1;
                    self.state.connections.fetch_add(1, Ordering::Relaxed);
                    accepted = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        accepted
    }

    /// Routes one finished job to its connection. Stale completions (the
    /// connection closed; the slot is empty or reused) are discarded — the
    /// worker's side effects (cache publish, counters) already happened and
    /// remain valid.
    fn apply_completion(&mut self, completion: Completion, stopping: bool) -> bool {
        let current = match self.conns.get_mut(completion.slot) {
            Some(Some(conn)) if conn.epoch == completion.epoch => conn,
            _ => return false,
        };
        match completion.outcome {
            Outcome::Reply(bytes) => {
                current.out.extend_from_slice(&bytes);
                current.busy = false;
                current.last_reply = Instant::now();
                self.busy = self.busy.saturating_sub(1);
                if stopping {
                    // Drain contract: the reply is delivered, then the
                    // connection closes instead of taking more requests.
                    current.close_after_flush = true;
                }
            }
            Outcome::Silent => {
                self.busy = self.busy.saturating_sub(1);
                self.release_slot(completion.slot);
            }
        }
        true
    }

    /// One readiness pass over a connection: flush, read, extract,
    /// dispatch, then apply idle/drain policy. Returns false to close.
    fn sweep_conn(
        &mut self,
        index: usize,
        conn: &mut Connection,
        stopping: bool,
        scratch: &mut [u8],
        activity: &mut bool,
    ) -> bool {
        if !flush_out(conn, activity) {
            return false;
        }
        if conn.close_after_flush {
            return !conn.out.is_empty(); // keep only while undelivered bytes remain
        }
        if !conn.busy {
            match self.pump(index, conn, scratch, activity) {
                Pump::Keep => {}
                Pump::Close => return false,
            }
            // An error queued during extraction may have requested a close;
            // push the bytes out before the next sweep's close check.
            if conn.close_after_flush {
                if !flush_out(conn, activity) {
                    return false;
                }
                return !conn.out.is_empty();
            }
        }
        if stopping && !conn.busy {
            if conn.out.is_empty() {
                return false;
            }
            conn.close_after_flush = true;
            return true;
        }
        if !conn.busy && conn.out.is_empty() && conn.last_reply.elapsed() > self.idle_timeout {
            return false;
        }
        true
    }

    /// Reads whatever the socket has, then extracts and dispatches at most
    /// one message (one in flight per connection).
    fn pump(
        &mut self,
        index: usize,
        conn: &mut Connection,
        scratch: &mut [u8],
        activity: &mut bool,
    ) -> Pump {
        loop {
            match conn.stream.read(scratch) {
                Ok(0) => {
                    // Client closed; any partial message is dropped.
                    return Pump::Close;
                }
                Ok(n) => {
                    conn.buf.extend_from_slice(&scratch[..n]);
                    *activity = true;
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Pump::Close,
            }
        }
        while !conn.busy {
            match conn.buf.iter().position(|&b| b == b'\n') {
                Some(newline) => {
                    let line: Vec<u8> = conn.buf[..newline].to_vec();
                    conn.buf.drain(..=newline);
                    if line.iter().all(u8::is_ascii_whitespace) {
                        continue; // blank keep-alive line: not a request
                    }
                    self.dispatch_job(index, conn, line);
                }
                None => {
                    if conn.buf.len() > MAX_LINE_BYTES {
                        let reply = error_line(&self.state, "request line exceeds 1 MiB");
                        conn.out.extend_from_slice(reply.as_bytes());
                        conn.out.push(b'\n');
                        conn.close_after_flush = true;
                    }
                    break;
                }
            }
        }
        Pump::Keep
    }

    fn dispatch_job(&mut self, index: usize, conn: &mut Connection, line: Vec<u8>) {
        conn.busy = true;
        self.busy += 1;
        if self.job_tx.send(Job { slot: index, epoch: conn.epoch, line }).is_err() {
            conn.close_after_flush = true; // worker pool gone: drain what we have
        }
    }
}

enum Pump {
    Keep,
    Close,
}

/// Nonblocking write of a connection's queued output. Returns false on a
/// dead socket.
fn flush_out(conn: &mut Connection, activity: &mut bool) -> bool {
    while !conn.out.is_empty() {
        match conn.stream.write(&conn.out) {
            Ok(0) => return false,
            Ok(n) => {
                conn.out.drain(..n);
                *activity = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(
    jobs: &Arc<Mutex<Receiver<Job>>>,
    completions: &Sender<Completion>,
    state: &Arc<ServerState>,
) {
    loop {
        // `recv()` blocks holding the queue mutex, which merely serializes
        // *dispatch* (idle workers queue on the lock); job handling below
        // runs outside it.
        let job = { jobs.lock().expect("job queue").recv() };
        let Ok(job) = job else { return }; // event loop exited: drain done
        let outcome = handle_job(&job.line, state);
        if completions.send(Completion { slot: job.slot, epoch: job.epoch, outcome }).is_err() {
            return;
        }
    }
}

/// Handles one request line under `catch_unwind`: a panic anywhere in
/// request handling (injected or organic) is contained to an `internal
/// panic` reply on the owning connection; the daemon survives. The unwind is
/// safe to catch — handlers hold no locks across the panic points (cache
/// computes run outside the shard lock, and the single-flight guard repairs
/// its entry during the unwind), and all shared state is atomics or
/// lock-per-touch.
fn handle_job(line: &[u8], state: &Arc<ServerState>) -> Outcome {
    let started = Instant::now();
    let reply = match std::str::from_utf8(line) {
        Ok(text) => {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                dispatch(text.trim(), state)
            }));
            match outcome {
                Ok(Some(response)) => response,
                Ok(None) => return Outcome::Silent,
                Err(_) => {
                    state.panics.fetch_add(1, Ordering::Relaxed);
                    PANIC_TOTAL.inc();
                    error_envelope(state, "internal panic", true, None)
                }
            }
        }
        Err(_) => error_line(state, "request line is not valid UTF-8"),
    };
    state.requests.fetch_add(1, Ordering::Relaxed);
    REQ_JSON_US.record_duration_us(started.elapsed());
    let mut bytes = reply.into_bytes();
    bytes.push(b'\n');
    Outcome::Reply(bytes)
}

/// Builds an error envelope with retry metadata.
fn error_envelope(
    state: &ServerState,
    message: &str,
    retryable: bool,
    retry_after_ms: Option<u64>,
) -> String {
    state.errors.fetch_add(1, Ordering::Relaxed);
    let mut fields = vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message.to_string())),
        ("retryable", Json::Bool(retryable)),
    ];
    if let Some(hint) = retry_after_ms {
        fields.push(("retry_after_ms", Json::Int(hint as i64)));
    }
    Json::obj(fields).write().expect("error envelope has no floats")
}

/// Builds the plain (non-retryable) error envelope.
fn error_line(state: &ServerState, message: &str) -> String {
    error_envelope(state, message, false, None)
}

/// Consults the fault hook and dispatches one JSON protocol line. `None`
/// means "sever the connection without replying" (injected disconnect).
fn dispatch(line: &str, state: &Arc<ServerState>) -> Option<String> {
    if let Some(hook) = &state.fault_hook {
        let index = state.request_seq.fetch_add(1, Ordering::Relaxed);
        match hook(FaultPoint::Request { index }) {
            FaultAction::None => {}
            FaultAction::StallMs(ms) => std::thread::sleep(Duration::from_millis(ms)),
            FaultAction::Disconnect => return None,
            FaultAction::Panic => panic!("injected request fault (request {index})"),
        }
    }
    Some(handle_line(line, state))
}

/// Dispatches one JSON protocol line.
fn handle_line(line: &str, state: &Arc<ServerState>) -> String {
    let started = Instant::now();
    let doc = match Json::parse(line) {
        Ok(doc) => doc,
        Err(e) => return error_line(state, &e.to_string()),
    };
    let op = match doc.get("op").and_then(Json::as_str) {
        Some(op) => op,
        None => return error_line(state, "missing `op` field"),
    };
    let response = match op {
        "search" => {
            let Some(request_doc) = doc.get("request") else {
                return error_line(state, "search needs a `request` field");
            };
            let deadline_ms = match doc.get("deadline_ms") {
                None => None,
                Some(value) => match value.as_u64() {
                    Some(ms) => Some(ms),
                    None => return error_line(state, "deadline_ms must be a non-negative integer"),
                },
            };
            // Op-level like `deadline_ms`: outside the `request` subtree,
            // so a traced request canonicalises to the same bytes — and
            // the same cache key — as an untraced one.
            let trace = match doc.get("trace") {
                None => false,
                Some(value) => match value.as_bool() {
                    Some(flag) => flag,
                    None => return error_line(state, "trace must be a boolean"),
                },
            };
            match handle_search(request_doc, deadline_ms, trace, state) {
                Ok(response) => response,
                Err(e) => {
                    let (message, retryable) = failure_parts(state, &e);
                    error_envelope(state, &message, retryable, None)
                }
            }
        }
        "stats" => stats_line(state),
        "metrics" => metrics_line(state),
        "ping" => Json::obj(vec![("ok", Json::Bool(true)), ("op", Json::Str("ping".into()))])
            .write()
            .expect("ping envelope has no floats"),
        "shutdown" => {
            state.stop.store(true, Ordering::SeqCst);
            Json::obj(vec![("ok", Json::Bool(true)), ("op", Json::Str("shutdown".into()))])
                .write()
                .expect("shutdown envelope has no floats")
        }
        other => return error_line(state, &format!("unknown op `{other}`")),
    };
    if let Some(hist) = op_histogram(op) {
        hist.record_duration_us(started.elapsed());
    }
    response
}

/// Maps a search failure to its wire parts, counting deadline expiries.
fn failure_parts(state: &ServerState, e: &codec::CodecError) -> (String, bool) {
    match e.class {
        ErrorClass::Deadline => {
            state.deadlines.fetch_add(1, Ordering::Relaxed);
            DEADLINE_TOTAL.inc();
            ("deadline".to_string(), true)
        }
        ErrorClass::Leader => (e.to_string(), true),
        ErrorClass::Invalid => (e.to_string(), false),
    }
}

/// What a search produced: the payload's canonical bytes straight from the
/// cache.
struct ServedSearch {
    hit: bool,
    coalesced: bool,
    payload: std::sync::Arc<str>,
}

enum SearchVerdict {
    Served(ServedSearch),
    Shed,
}

/// The search core, under the request's root span: peek, admission,
/// deadline token, single-flight fetch, plan-log append. Every search
/// funnels through here, which is what makes the "one request key, one
/// cache entry, bit-identical bytes" invariant structural rather than
/// incidental.
fn run_search(
    request: &SearchRequest,
    canonical: &str,
    hash: u64,
    deadline_ms: Option<u64>,
    state: &Arc<ServerState>,
) -> codec::CodecResult<SearchVerdict> {
    let _root = pte_telemetry::span("search");

    // Degraded-mode fast path: a ready entry answers without touching
    // admission, so hits keep flowing while cold searches are shed.
    if let Some(payload) = state.cache.peek(canonical, hash) {
        return Ok(SearchVerdict::Served(ServedSearch { hit: true, coalesced: false, payload }));
    }

    // Bounded admission: every non-hit request (leader or coalescing
    // waiter — both pin a worker) takes a slot; overflow sheds immediately
    // with a retry hint instead of queueing without bound.
    let pending = state.inflight.fetch_add(1, Ordering::SeqCst) + 1;
    QUEUE_DEPTH.set(i64::try_from(pending).unwrap_or(i64::MAX));
    if pending > state.max_pending_searches {
        state.inflight.fetch_sub(1, Ordering::SeqCst);
        state.shed.fetch_add(1, Ordering::Relaxed);
        SHED_TOTAL.inc();
        return Ok(SearchVerdict::Shed);
    }
    let _slot = InflightSlot { state };

    // The deadline becomes a cooperative token polled at the search's
    // stage boundaries. Op-level deadline wins; otherwise the server
    // default (0 = none) applies.
    let budget_ms = deadline_ms.unwrap_or(state.default_deadline_ms);
    let cancel = if budget_ms == 0 {
        CancelToken::never()
    } else {
        CancelToken::expiring_in(Duration::from_millis(budget_ms))
    };

    // Spec resolution happens inside the compute closure — `execute`
    // resolves before searching — so warm hits skip it entirely. A compute
    // error (including a deadline expiry) publishes nothing: the
    // single-flight guard unpublishes the slot, one waiter is promoted to
    // retry, and the rest inherit the failure as a `Leader`-class error.
    let searches = &state.searches;
    let fetched = state.cache.get_or_compute(canonical, hash, || {
        if let Some(hook) = &state.fault_hook {
            let index = state.compute_seq.fetch_add(1, Ordering::Relaxed);
            match hook(FaultPoint::Compute { index }) {
                FaultAction::StallMs(ms) => std::thread::sleep(Duration::from_millis(ms)),
                FaultAction::Panic => panic!("injected compute fault (compute {index})"),
                FaultAction::None | FaultAction::Disconnect => {}
            }
        }
        let payload = codec::execute_cancellable(request, &cancel)?;
        searches.fetch_add(1, Ordering::Relaxed);
        Ok::<_, codec::CodecError>(payload)
    })?;

    // Only the single-flight leader appends: one log record per computed
    // plan, never one per reply. Warm-started entries answer through the
    // peek path above, so a restart does not re-append its own seeds.
    if !fetched.hit && !fetched.coalesced {
        if let Some(store) = &state.store {
            if store.append(canonical, &fetched.payload).is_ok() {
                state.store_appends.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    Ok(SearchVerdict::Served(ServedSearch {
        hit: fetched.hit,
        coalesced: fetched.coalesced,
        payload: fetched.payload,
    }))
}

/// Renders a finished trace as the JSON subtree the response envelope
/// embeds next to `elapsed_ms`.
fn trace_report_json(report: &pte_telemetry::TraceReport) -> Json {
    fn node(span: &pte_telemetry::SpanNode) -> Json {
        Json::obj(vec![
            ("name", Json::Str(span.name.to_string())),
            ("start_us", json_count(span.start_us)),
            ("elapsed_us", json_count(span.elapsed_us)),
            ("children", Json::Arr(span.children.iter().map(node).collect())),
        ])
    }
    Json::obj(vec![
        ("trace_id", Json::Str(format!("{:016x}", report.trace_id))),
        ("spans", Json::Arr(report.spans.iter().map(node).collect())),
        ("truncated", json_count(report.truncated)),
    ])
}

/// Embeds the cached canonical payload bytes verbatim in a success
/// envelope: the envelope is assembled around them, never re-encoded from a
/// parse.
fn search_envelope(
    key: String,
    hit: bool,
    coalesced: bool,
    started: Instant,
    payload: &str,
    trace_json: Option<&str>,
) -> codec::CodecResult<String> {
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    let envelope_head = Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("request_key", Json::Str(key)),
        ("cache", Json::obj(vec![("hit", Json::Bool(hit)), ("coalesced", Json::Bool(coalesced))])),
        ("elapsed_ms", Json::Float(elapsed_ms)),
    ])
    .write()?;
    let mut response = envelope_head;
    response.pop(); // strip the closing `}`
    if let Some(trace) = trace_json {
        // Spliced next to `elapsed_ms`, never inside `payload`: the
        // payload bytes stay verbatim whether or not the request traced.
        response.push_str(",\"trace\":");
        response.push_str(trace);
    }
    response.push_str(",\"payload\":");
    response.push_str(payload);
    response.push('}');
    Ok(response)
}

/// Runs one search request through the core and assembles the envelope.
fn handle_search(
    request_doc: &Json,
    deadline_ms: Option<u64>,
    trace: bool,
    state: &Arc<ServerState>,
) -> codec::CodecResult<String> {
    let start = Instant::now();
    // Decode straight from the already-parsed subtree (no re-parse), then
    // re-encode canonically: the cache key is independent of the client's
    // field order and whitespace.
    let request = SearchRequest::from_json(request_doc)?;
    let canonical = request.encode()?;
    let hash = fnv1a64(canonical.as_bytes());

    // Tracing installs on this worker thread only. The single-flight
    // leader runs its compute closure on the calling thread, so the
    // Evaluator's stage spans nest under the root span; a warm hit gets a
    // minimal tree. The trace id derives from the request key — same
    // request, same id — and tracing is observation-only: it cannot touch
    // the key, the search, or the payload bytes.
    let trace_guard = trace.then(|| Trace::begin(pte_telemetry::derive_trace_id(hash, 0)));
    let verdict = run_search(&request, &canonical, hash, deadline_ms, state);
    let trace_json = trace_guard
        .map(|t| trace_report_json(&t.finish()).write().expect("span trees have no floats"));
    match verdict? {
        SearchVerdict::Shed => {
            Ok(error_envelope(state, "overloaded", true, Some(state.retry_after_ms)))
        }
        SearchVerdict::Served(served) => search_envelope(
            format!("{hash:016x}"),
            served.hit,
            served.coalesced,
            start,
            &served.payload,
            trace_json.as_deref(),
        ),
    }
}

/// Saturating `Duration` → whole milliseconds. `as_millis` is `u128`; a
/// plain `as u64` silently wraps for absurd-but-accepted configurations
/// (e.g. an idle timeout of `u64::MAX` seconds), so out-of-range values pin
/// to `u64::MAX` instead.
fn saturating_millis(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

/// Saturating `Duration` → whole microseconds (same rationale).
fn saturating_micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// A `u64` counter as a JSON integer, saturating at `i64::MAX` instead of
/// wrapping negative.
fn json_count(v: u64) -> Json {
    Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// Builds the one shared snapshot document. `stats` serves it verbatim;
/// `metrics` serves it with the Prometheus page appended, and derives that
/// page's counter names from this same tree — one builder, so the two ops
/// can never disagree on a counter's name or value source.
fn stats_json(state: &Arc<ServerState>) -> Json {
    let cache = state.cache.stats();
    let probe = pte_core::fisher::proxy::probe_cache_stats();
    let probe_lookups = probe.hits + probe.misses;
    let probe_hit_rate =
        if probe_lookups == 0 { 0.0 } else { probe.hits as f64 / probe_lookups as f64 };
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("requests", json_count(state.requests.load(Ordering::Relaxed))),
        ("searches", json_count(state.searches.load(Ordering::Relaxed))),
        ("errors", json_count(state.errors.load(Ordering::Relaxed))),
        ("shed", json_count(state.shed.load(Ordering::Relaxed))),
        ("deadlines", json_count(state.deadlines.load(Ordering::Relaxed))),
        ("panics", json_count(state.panics.load(Ordering::Relaxed))),
        ("inflight", json_count(state.inflight.load(Ordering::SeqCst))),
        ("connections", json_count(state.connections.load(Ordering::Relaxed))),
        ("idle_timeout_ms", json_count(state.idle_timeout_ms)),
        ("poll_interval_ms", json_count(state.poll_interval_ms)),
        ("poll_interval_us", json_count(state.poll_interval_us)),
        ("uptime_ms", Json::Float(state.started.elapsed().as_secs_f64() * 1e3)),
        (
            "store",
            Json::obj(vec![
                ("enabled", Json::Bool(state.store.is_some())),
                ("loaded", json_count(state.store_loaded)),
                ("appends", json_count(state.store_appends.load(Ordering::Relaxed))),
                ("skipped", json_count(state.store_skipped)),
                ("compacted", json_count(state.store_compacted)),
            ]),
        ),
        (
            "cache",
            Json::obj(vec![
                ("entries", json_count(cache.entries as u64)),
                ("capacity", json_count(cache.capacity as u64)),
                ("shards", json_count(cache.shards as u64)),
                ("fetches", json_count(cache.fetches)),
                ("hits", json_count(cache.hits)),
                ("misses", json_count(cache.misses)),
                ("coalesced", json_count(cache.coalesced)),
                ("failures", json_count(cache.failures)),
                ("peek_hits", json_count(cache.peek_hits)),
                ("seeded", json_count(cache.seeded)),
                ("evictions", json_count(cache.evictions)),
                ("hit_rate", Json::Float(cache.hit_rate())),
                // The conservation law, pre-checked: `hits + misses +
                // coalesced + failures == fetches + peek_hits`.
                ("conserved", Json::Bool(cache.is_conserved())),
            ]),
        ),
        (
            "probe_cache",
            Json::obj(vec![
                ("entries", json_count(probe.entries as u64)),
                ("capacity", json_count(probe.capacity as u64)),
                ("hits", json_count(probe.hits)),
                ("misses", json_count(probe.misses)),
                ("evictions", json_count(probe.evictions)),
                ("hit_rate", Json::Float(probe_hit_rate)),
            ]),
        ),
    ])
}

/// Builds the stats envelope.
///
/// The `probe_cache` section is the probe memo's health on a long-lived
/// daemon: `misses` is probes actually executed (the compute an operator
/// pays), `hit_rate` measures cross-request reuse, and `evictions` creeping
/// up signals the memo is undersized for the workload
/// (`--probe-cache-cap` / `PTE_PROBE_CACHE_CAP`).
///
/// The failure counters (`shed`, `deadlines`, `panics`) plus the cache's
/// `fetches`/`failures`/`peek_hits` make the conservation law checkable
/// from the wire: `hits + misses + coalesced + failures ==
/// fetches + peek_hits`. Warm-start seeds sit outside the law (`seeded` is
/// not a fetch; only the hits a seed later serves are counted).
fn stats_line(state: &Arc<ServerState>) -> String {
    stats_json(state).write().expect("uptime is finite")
}

/// Builds the metrics envelope: the stats document plus a `prometheus`
/// member holding the text exposition page. The page concatenates three
/// sources: the stats tree itself (names derived from field paths, below),
/// the process-wide telemetry registry (histograms, gauges, span
/// latencies), and the grammar-coverage ledger.
fn metrics_line(state: &Arc<ServerState>) -> String {
    let mut doc = stats_json(state);
    let mut page = String::new();
    render_stats_prometheus(&doc, &mut page);
    pte_telemetry::global().render_prometheus(&mut page);
    render_grammar_coverage(&mut page);
    if let Json::Obj(pairs) = &mut doc {
        pairs.push(("prometheus".to_string(), Json::Str(page)));
    }
    doc.write().expect("uptime is finite")
}

/// Walks the stats document and emits one Prometheus line per numeric or
/// boolean leaf, named by its field path (`cache.hits` →
/// `pte_cache_hits`). Deriving the names from the served tree — instead of
/// hand-writing them a second time — is what keeps the `stats` and
/// `metrics` exposition structurally in sync.
pub(crate) fn render_stats_prometheus(doc: &Json, out: &mut String) {
    fn walk(value: &Json, path: &mut Vec<String>, out: &mut String) {
        match value {
            Json::Obj(pairs) => {
                for (key, child) in pairs {
                    if path.is_empty() && key == "ok" {
                        continue; // envelope plumbing, not a metric
                    }
                    path.push(key.clone());
                    walk(child, path, out);
                    path.pop();
                }
            }
            Json::Int(v) => emit(path, &v.to_string(), out),
            Json::Float(v) => emit(path, &format!("{v}"), out),
            Json::Bool(v) => emit(path, if *v { "1" } else { "0" }, out),
            _ => {}
        }
    }
    fn emit(path: &[String], value: &str, out: &mut String) {
        out.push_str("pte_");
        out.push_str(&path.join("_"));
        out.push(' ');
        out.push_str(value);
        out.push('\n');
    }
    walk(doc, &mut Vec::new(), out);
}

/// Appends the grammar-coverage section: which automaton rules have ever
/// fired in decode/grow, per layer class. `pte_grammar_coverage_ratio` is
/// always present (0 when no class compiled yet), so scrapes can assert on
/// the name unconditionally.
fn render_grammar_coverage(out: &mut String) {
    use std::fmt::Write as _;
    let classes = pte_core::transform::automaton::coverage_snapshot();
    let _ = writeln!(out, "# TYPE pte_grammar_coverage_ratio gauge");
    let _ = writeln!(
        out,
        "pte_grammar_coverage_ratio {}",
        pte_core::transform::automaton::coverage_ratio()
    );
    for class in classes {
        let _ = writeln!(
            out,
            "pte_grammar_rules_fired{{class=\"{}\"}} {}",
            class.class,
            class.fired_count()
        );
        let _ = writeln!(
            out,
            "pte_grammar_rules_total{{class=\"{}\"}} {}",
            class.class, class.rule_count
        );
    }
}

/// The `--metrics-every-ms` thread: appends one stats document per
/// interval to a JSONL file, for offline plotting. Polls the stop flag at
/// a bounded tick so shutdown joins promptly even with long intervals.
fn metrics_snapshot_loop(state: &Arc<ServerState>, path: &std::path::Path, every: Duration) {
    use std::io::Write as _;
    let Ok(file) = std::fs::OpenOptions::new().create(true).append(true).open(path) else {
        return;
    };
    let mut file = std::io::BufWriter::new(file);
    let every = every.max(Duration::from_millis(1));
    let tick = every.min(Duration::from_millis(25));
    let mut since = Duration::ZERO;
    while !state.is_stopping() {
        std::thread::sleep(tick);
        since += tick;
        if since < every {
            continue;
        }
        since = Duration::ZERO;
        let line = stats_json(state).write().expect("uptime is finite");
        if writeln!(file, "{line}").and_then(|()| file.flush()).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturating_conversions_pin_the_boundary() {
        // In range: exact.
        assert_eq!(saturating_millis(Duration::from_millis(1500)), 1500);
        assert_eq!(saturating_micros(Duration::from_micros(100)), 100);
        assert_eq!(json_count(7), Json::Int(7));

        // Out of range: saturate, never wrap.
        assert_eq!(saturating_millis(Duration::MAX), u64::MAX);
        assert_eq!(saturating_micros(Duration::MAX), u64::MAX);
        assert_eq!(json_count(u64::MAX), Json::Int(i64::MAX));
        assert_eq!(json_count(i64::MAX as u64 + 1), Json::Int(i64::MAX));
        // The largest value that still converts exactly.
        assert_eq!(json_count(i64::MAX as u64), Json::Int(i64::MAX));
    }

    #[test]
    fn effective_poll_interval_clamps_zero_but_not_real_values() {
        let mut config = ServerConfig { poll_interval: Duration::ZERO, ..ServerConfig::default() };
        assert_eq!(config.effective_poll_interval(), Duration::from_micros(100));
        config.poll_interval = Duration::from_millis(5);
        assert_eq!(config.effective_poll_interval(), Duration::from_millis(5));
    }
}
