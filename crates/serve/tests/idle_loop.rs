//! The event loop's idle behaviour, measured: parked keep-alive connections
//! are closed at their idle deadline, and a daemon with nothing to do
//! sleeps in `epoll_wait` instead of making passes.
//!
//! Own test binary with a single `#[test]`: the loop counters are
//! process-wide, so a daemon started by any test running beside this one
//! would move them.

use std::time::{Duration, Instant};

use pte_serve::client::Client;
use pte_serve::server::{serve, ServerConfig};

const PARKED: u64 = 64;

/// Event-loop passes so far: one per `epoll_wait` return.
fn loop_passes() -> u64 {
    pte_telemetry::global().counter("pte_event_loop_poll_iterations_total").get()
}

#[test]
fn idle_connections_are_reaped_and_an_idle_loop_sleeps() {
    let handle = serve(&ServerConfig {
        workers: 1,
        idle_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let mut parked: Vec<Client> = (0..PARKED)
        .map(|_| {
            let mut c = Client::connect(handle.addr()).expect("connect");
            c.ping().expect("parked ping");
            c
        })
        .collect();
    assert_eq!(handle.state().connections(), PARKED);

    // Reaping: every parked connection closes within 1 s. The loop wakes
    // at the earliest idle deadline and each such wake closes at least one
    // connection, so the phase costs at most one pass per connection plus
    // a few, however long the timeout.
    let parked_at = Instant::now();
    let passes_before = loop_passes();
    while handle.state().connections() > 0 && parked_at.elapsed() < Duration::from_secs(1) {
        std::thread::sleep(Duration::from_millis(5));
    }
    let reaped_in = parked_at.elapsed();
    assert_eq!(handle.state().connections(), 0, "idle connections outlived 1 s");
    assert!(reaped_in >= Duration::from_millis(150), "reaped early, after {reaped_in:?}");
    let reap_passes = loop_passes() - passes_before;
    assert!(reap_passes <= PARKED + 4, "{reap_passes} loop passes to reap {PARKED} connections");

    // Quiet: with no connection and no deadline the loop makes no passes.
    let passes_before = loop_passes();
    std::thread::sleep(Duration::from_millis(500));
    let quiet_passes = loop_passes() - passes_before;
    assert!(quiet_passes <= 2, "{quiet_passes} loop passes in 500 ms of nothing");

    // The clients see the close.
    for client in &mut parked {
        assert!(client.ping().is_err(), "a reaped connection must be closed");
    }
    handle.join();
}
