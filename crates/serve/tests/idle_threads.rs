//! The event-loop claim, measured: idle keep-alive connections cost a
//! socket and a connection slot, never a thread.
//!
//! Own test binary with a single `#[test]`: the thread count in
//! `/proc/self/status` is process-wide, so any test running beside this one
//! in the same process — starting a daemon, joining its clients — would
//! move the count and fail the exact-equality assert for reasons that have
//! nothing to do with the daemon under test.

use pte_serve::client::Client;
use pte_serve::server::{serve, ServerConfig};
use pte_serve::workload::{bench_request, settled_thread_count, thread_count};

#[test]
fn idle_keep_alive_connections_cost_no_threads() {
    let handle = serve(&ServerConfig { workers: 2, cache_capacity: 64, ..ServerConfig::default() })
        .expect("bind ephemeral port");
    let addr = handle.addr();

    // Park a fleet of keep-alive connections. Under the event loop each
    // costs a socket and a slot — never a thread. Off Linux the count is
    // unavailable, which skips the flat-thread assertion but not the
    // serving checks.
    let before = thread_count();
    let mut parked: Vec<Client> = (0..256)
        .map(|_| {
            let mut c = Client::connect(addr).expect("connect");
            c.ping().expect("parked ping");
            c
        })
        .collect();
    if let Some((before, after)) = before.zip(before.and_then(settled_thread_count)) {
        assert_eq!(
            before, after,
            "256 idle connections must not grow the thread count ({before} -> {after})"
        );
    }
    assert!(
        handle.state().connections() >= 256,
        "daemon must report the parked connections: {}",
        handle.state().connections()
    );

    // The daemon still serves new work while holding the idle fleet...
    let mut active = Client::connect(addr).expect("connect active");
    let reply = active.search(&bench_request(1)).expect("search with 256 idle connections parked");
    assert!(!reply.cache_hit);

    // ...and every parked connection is still alive afterwards.
    for client in parked.iter_mut() {
        client.ping().expect("parked connection must survive");
    }

    drop(parked);
    active.shutdown().expect("shutdown ack");
    handle.join();
}
