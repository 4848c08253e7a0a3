//! The shared serving benchmark workload.
//!
//! `serve_bench` and the `perf_report` serve section must measure the same
//! thing — a drifted copy would quietly make the CI smoke and the perf
//! harness disagree — so the network, the request budget and the
//! thread-count instrument live here once.

use std::time::{Duration, Instant};

use crate::codec::{LayerSpec, NetworkSpec, PlatformId, SearchRequest};

/// A small custom network: large enough to exercise the full evaluation
/// pipeline (fixed stem + two mutable classes), small enough that a cold
/// search is a sub-second unit of load.
pub fn bench_network() -> NetworkSpec {
    let layer = |name: &str, c_in: u64, c_out: u64, mutable: bool| LayerSpec {
        name: name.into(),
        c_in,
        c_out,
        kernel: 3,
        stride: 1,
        padding: 1,
        groups: 1,
        h: 8,
        w: 8,
        mutable,
    };
    NetworkSpec::Custom {
        name: "serve-bench-net".into(),
        dataset: "cifar10".into(),
        classifier_in: 32,
        base_error: 7.0,
        convs: vec![
            layer("stem", 3, 16, false),
            layer("block1", 16, 16, true),
            layer("block2", 16, 32, true),
        ],
    }
}

/// A quick-budget unified request over [`bench_network`], parameterised by
/// the master seed so load phases can generate distinct cache keys.
pub fn bench_request(seed: u64) -> SearchRequest {
    let mut request = SearchRequest::quick(bench_network(), PlatformId::Cpu);
    request.random_per_layer = 4;
    request.trials = 8;
    request.seed = seed;
    request
}

/// This process's thread count (`Threads:` in `/proc/self/status`), or
/// `None` off Linux. The event-loop claim under test: connections are not
/// threads.
pub fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix("Threads:")).and_then(|v| v.trim().parse().ok())
}

/// How long [`settled_thread_count`] waits for the count to settle.
pub const THREAD_SETTLE: Duration = Duration::from_secs(1);

/// The thread count once it reads `expected`, or the last reading after
/// [`THREAD_SETTLE`]. A joined (or scope-ended) thread has returned from its
/// closure, but the kernel keeps counting it until it has finished exiting,
/// so a single reading taken right after client threads — or the search
/// pool's scoped workers — finish can see one thread too many. Waiting for
/// the count to fall back fixes the instrument; callers still assert exact
/// equality on the value returned, so a thread that really leaked fails.
pub fn settled_thread_count(expected: usize) -> Option<usize> {
    let deadline = Instant::now() + THREAD_SETTLE;
    loop {
        let count = thread_count()?;
        if count == expected || Instant::now() >= deadline {
            return Some(count);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}
