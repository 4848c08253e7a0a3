//! Chaos suite: deterministic fault injection against a live daemon.
//!
//! Every fault comes from a seeded, replayable schedule ([`FaultScript`])
//! or a deterministic server-side hook ([`FaultPoint`] addressing by global
//! ordinal), so any failing run reproduces bit-for-bit from its seed. The
//! suite pins the PR's acceptance contract:
//!
//! * payloads recovered by retrying through injected wire faults are
//!   **bit-identical** to a fault-free run, across many distinct seeds;
//! * a panicking handler leaves the daemon serving and its single-flight
//!   waiters unblocked (one promoted to retry, the rest fail retryably);
//! * an expired deadline answers `{"ok":false,"error":"deadline"}` and
//!   poisons nothing — the next attempt runs a fresh search;
//! * an overloaded daemon sheds cold searches immediately while cache hits
//!   keep serving;
//! * through all of it the cache conservation law holds:
//!   `hits + misses + coalesced + failures == fetches + peek_hits`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pte_serve::client::{Client, ClientError};
use pte_serve::codec;
use pte_serve::fault::{FaultAction, FaultPoint, FaultScript, FaultyStream};
use pte_serve::retry::{RetryClient, RetryPolicy};
use pte_serve::server::{serve, ServerConfig, ServerHandle};
use pte_serve::workload::bench_request;

/// The chaos seeds. Ten seeds, and the suite asserts they produce at least
/// eight *distinct* fault schedules — a fresh run replays each schedule
/// bit-for-bit from its seed.
const CHAOS_SEEDS: [u64; 10] = [1, 2, 3, 5, 8, 13, 21, 34, 55, 0xFA11];

fn start(config: ServerConfig) -> ServerHandle {
    serve(&config).expect("bind ephemeral port")
}

/// Retry policy tuned for tests: generous attempts, tiny deterministic
/// backoffs (the scripts are finite, so convergence needs at most one
/// reconnect per scripted disconnect).
fn test_policy(jitter_seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 10,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(20),
        jitter_seed,
        ..RetryPolicy::default()
    }
}

#[test]
fn seeded_wire_faults_recover_bit_identical_payloads() {
    let handle = start(ServerConfig { workers: 4, ..ServerConfig::default() });
    let addr = handle.addr();

    let request = bench_request(0xCAFE);
    let expected = codec::execute(&request).expect("fault-free reference payload");

    let mut schedules = std::collections::HashSet::new();
    let mut total_retries = 0u64;
    for &seed in &CHAOS_SEEDS {
        // Replayability: the same seed regenerates the same schedule,
        // rendered identically.
        let script = FaultScript::from_seed(seed);
        assert_eq!(
            script.describe(),
            FaultScript::from_seed(seed).describe(),
            "seed {seed} must replay bit-for-bit"
        );
        schedules.insert(script.describe());

        // The connector shares the (draining) script across reconnections:
        // a retry resumes the schedule where the failed attempt left off,
        // so the finite script guarantees convergence.
        let connector: pte_serve::retry::Connector = {
            let script = Arc::clone(&script);
            Box::new(move || {
                let stream = FaultyStream::connect(addr, Arc::clone(&script))?;
                Ok(Client::from_conn(Box::new(stream)))
            })
        };
        let mut client = RetryClient::new(connector, test_policy(seed));
        let reply =
            client.search(&request).unwrap_or_else(|e| panic!("seed {seed} did not converge: {e}"));
        assert_eq!(
            reply.payload_canonical, expected,
            "seed {seed}: recovered payload diverged from the fault-free run"
        );
        total_retries += client.retries();
    }
    assert!(
        schedules.len() >= 8,
        "only {} distinct schedules across {} seeds",
        schedules.len(),
        CHAOS_SEEDS.len()
    );
    assert!(total_retries > 0, "no scripted fault actually forced a retry");
    assert!(
        handle.state().cache_stats().is_conserved(),
        "conservation law violated: {:?}",
        handle.state().cache_stats()
    );
    handle.join();
}

#[test]
fn panicking_leader_leaves_daemon_serving_and_waiters_unblocked() {
    // The first cache-miss compute sleeps (letting waiters pile onto the
    // flight) and then panics; every later compute runs clean.
    let hook = Arc::new(|point: FaultPoint| match point {
        FaultPoint::Compute { index: 0 } => {
            std::thread::sleep(Duration::from_millis(150));
            FaultAction::Panic
        }
        _ => FaultAction::None,
    });
    let handle =
        start(ServerConfig { workers: 4, fault_hook: Some(hook), ..ServerConfig::default() });
    let addr = handle.addr();

    let request = bench_request(0xD00D);
    let expected = codec::execute(&request).expect("fault-free reference payload");

    // Three concurrent clients race onto the same request: one leads (and
    // panics), the others wait. All three must converge to identical bytes
    // — the promoted waiter by recomputing, the rest by retrying their
    // retryable leader-failure (or `internal panic`) replies.
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..3)
            .map(|i| {
                let request = &request;
                let expected = &expected;
                scope.spawn(move || {
                    let mut client = RetryClient::tcp(addr, test_policy(0x9A71C + i));
                    let reply = client.search(request).expect("client must converge");
                    assert_eq!(
                        &reply.payload_canonical, expected,
                        "client {i}: payload diverged after panic recovery"
                    );
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("chaos client panicked");
        }
    });

    let state = handle.state();
    assert_eq!(state.panics(), 1, "exactly the injected panic must be contained");
    assert!(state.cache_stats().is_conserved(), "conservation law violated");

    // The daemon is still fully alive: liveness and a fresh search work.
    let mut client = Client::connect(addr).expect("connect after panic");
    client.ping().expect("daemon must keep serving after a contained panic");
    let fresh = client.search(&bench_request(0xF00D)).expect("fresh search after panic");
    assert!(!fresh.cache_hit);
    handle.join();
}

#[test]
fn injected_request_disconnect_is_healed_by_retry() {
    // The very first request line is dropped without a reply; everything
    // after proceeds normally.
    let hook = Arc::new(|point: FaultPoint| match point {
        FaultPoint::Request { index: 0 } => FaultAction::Disconnect,
        _ => FaultAction::None,
    });
    let handle =
        start(ServerConfig { workers: 2, fault_hook: Some(hook), ..ServerConfig::default() });

    let request = bench_request(0x1CED);
    let expected = codec::execute(&request).expect("fault-free reference payload");

    let mut client = RetryClient::tcp(handle.addr(), test_policy(7));
    let reply = client.search(&request).expect("retry must heal the dropped request");
    assert_eq!(reply.payload_canonical, expected, "healed payload diverged");
    assert_eq!(client.retries(), 1, "exactly one reconnect-and-resend");
    assert!(handle.state().cache_stats().is_conserved(), "conservation law violated");
    handle.join();
}

#[test]
fn expired_deadline_answers_deadline_and_poisons_nothing() {
    // While the stall flag is up, computes sleep 100ms — guaranteeing a
    // 10ms deadline expires before the search's first stage boundary.
    let stall = Arc::new(AtomicBool::new(true));
    let hook = {
        let stall = Arc::clone(&stall);
        Arc::new(move |point: FaultPoint| match point {
            FaultPoint::Compute { .. } if stall.load(Ordering::SeqCst) => FaultAction::StallMs(100),
            _ => FaultAction::None,
        })
    };
    let handle =
        start(ServerConfig { workers: 2, fault_hook: Some(hook), ..ServerConfig::default() });

    let request = bench_request(0xDEAD);
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.set_deadline_ms(Some(10));
    let err = client.search(&request).expect_err("stalled search must miss its deadline");
    match &err {
        ClientError::Server { error, retryable, .. } => {
            assert_eq!(error, "deadline");
            assert!(*retryable, "a deadline expiry must be marked retryable");
        }
        other => panic!("expected a deadline server error, got {other}"),
    }
    assert_eq!(handle.state().deadlines(), 1);

    // The timed-out attempt published nothing: with the stall lifted and
    // the deadline removed, the same request runs a *fresh* search (a miss,
    // not a hit on poisoned bytes) and matches the fault-free reference.
    stall.store(false, Ordering::SeqCst);
    client.set_deadline_ms(None);
    let expected = codec::execute(&request).expect("fault-free reference payload");
    let cold = client.search(&request).expect("search after lifting the stall");
    assert!(!cold.cache_hit, "timed-out attempt must not have populated the cache");
    assert_eq!(cold.payload_canonical, expected);
    let warm = client.search(&request).expect("warm search");
    assert!(warm.cache_hit);
    assert_eq!(warm.payload_canonical, expected);

    let stats = handle.state().cache_stats();
    assert!(stats.is_conserved(), "conservation law violated: {stats:?}");
    assert_eq!(stats.failures, 1, "the deadline expiry is the only failed fetch");
    handle.join();
}

#[test]
fn overloaded_daemon_sheds_cold_searches_but_serves_hits() {
    let stall = Arc::new(AtomicBool::new(false));
    let stalls_entered = Arc::new(AtomicU64::new(0));
    let hook = {
        let stall = Arc::clone(&stall);
        let stalls_entered = Arc::clone(&stalls_entered);
        Arc::new(move |point: FaultPoint| match point {
            FaultPoint::Compute { .. } if stall.load(Ordering::SeqCst) => {
                stalls_entered.fetch_add(1, Ordering::SeqCst);
                FaultAction::StallMs(400)
            }
            _ => FaultAction::None,
        })
    };
    let handle = start(ServerConfig {
        workers: 4,
        max_pending_searches: 1,
        retry_after_ms: 75,
        fault_hook: Some(hook),
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // Warm one request while computes are clean.
    let warm_request = bench_request(0x0A11);
    let mut client = Client::connect(addr).expect("connect");
    let warm = client.search(&warm_request).expect("warm the cache");

    // Pin the only admission slot with a stalled cold search.
    stall.store(true, Ordering::SeqCst);
    let pinned = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client.search(&bench_request(0x0A12)).expect("pinned search completes")
    });
    while stalls_entered.load(Ordering::SeqCst) == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }

    // Cold search under overload: immediate shed with the retry hint —
    // never a hang.
    let err = client.search(&bench_request(0x0A13)).expect_err("must be shed");
    match &err {
        ClientError::Server { error, retryable, retry_after_ms } => {
            assert_eq!(error, "overloaded");
            assert!(*retryable);
            assert_eq!(*retry_after_ms, Some(75));
        }
        other => panic!("expected overloaded, got {other}"),
    }

    // Degraded mode: hits keep flowing, bit-identical.
    let hit = client.search(&warm_request).expect("degraded-mode hit");
    assert!(hit.cache_hit, "saturated daemon must still answer hits");
    assert_eq!(hit.payload_canonical, warm.payload_canonical);

    pinned.join().expect("pinned client");
    stall.store(false, Ordering::SeqCst);

    let state = handle.state();
    assert_eq!(state.shed(), 1);
    assert!(state.cache_stats().is_conserved(), "conservation law violated");
    handle.join();
}

#[test]
fn torn_plan_log_tail_recovers_bit_identical_payloads() {
    let store = std::env::temp_dir().join(format!("pte-chaos-torn-log-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&store);
    let r1 = bench_request(0x1061);
    let r2 = bench_request(0x1062);
    let expected1 = codec::execute(&r1).expect("fault-free reference payload");
    let expected2 = codec::execute(&r2).expect("fault-free reference payload");

    // Incarnation A logs two plans, then "crashes" with a torn tail: the
    // last record loses its final bytes mid-payload.
    let first = start(ServerConfig {
        workers: 2,
        store_path: Some(store.clone()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(first.addr()).expect("connect");
    assert_eq!(client.search(&r1).expect("search r1").payload_canonical, expected1);
    assert_eq!(client.search(&r2).expect("search r2").payload_canonical, expected2);
    assert_eq!(first.state().store_appends(), 2);
    client.shutdown().expect("shutdown ack");
    first.join();

    let clean_len = std::fs::metadata(&store).expect("log exists").len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&store)
        .expect("open log")
        .set_len(clean_len - 9)
        .expect("tear the tail");

    // Incarnation B opens the torn log: the intact first record replays,
    // the torn second is truncated away (never a partial decode), and the
    // daemon keeps serving — r1 as a warm-start hit, r2 recomputed fresh,
    // both bit-identical to the fault-free reference. The recompute is
    // re-appended, healing the log.
    let second = start(ServerConfig {
        workers: 2,
        store_path: Some(store.clone()),
        ..ServerConfig::default()
    });
    assert_eq!(second.state().store_loaded(), 1, "exactly the intact record replays");
    let mut client = Client::connect(second.addr()).expect("connect");
    let hit = client.search(&r1).expect("warm-start hit");
    assert!(hit.cache_hit, "the intact record must answer as a hit");
    assert_eq!(hit.payload_canonical, expected1, "replayed payload diverged");
    let recomputed = client.search(&r2).expect("recompute the torn plan");
    assert!(!recomputed.cache_hit, "the torn record must be gone, not half-replayed");
    assert_eq!(
        recomputed.payload_canonical, expected2,
        "recomputed payload diverged from the fault-free run"
    );
    assert_eq!(second.state().store_appends(), 1, "the recompute must heal the log");
    assert!(second.state().cache_stats().is_conserved(), "conservation law violated");
    client.shutdown().expect("shutdown ack");
    second.join();

    // Incarnation C proves the heal: both plans replay, both are
    // first-request hits, both bit-identical.
    let third = start(ServerConfig {
        workers: 2,
        store_path: Some(store.clone()),
        ..ServerConfig::default()
    });
    assert_eq!(third.state().store_loaded(), 2, "the healed log replays both plans");
    let mut client = Client::connect(third.addr()).expect("connect");
    let h1 = client.search(&r1).expect("healed r1");
    let h2 = client.search(&r2).expect("healed r2");
    assert!(h1.cache_hit && h2.cache_hit);
    assert_eq!(h1.payload_canonical, expected1);
    assert_eq!(h2.payload_canonical, expected2);
    client.shutdown().expect("shutdown ack");
    third.join();
    let _ = std::fs::remove_file(&store);
}
