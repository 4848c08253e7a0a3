//! Deterministic fault injection for the serving stack.
//!
//! Failure handling inherits the repo's determinism contract: every fault
//! the chaos suite injects comes from a **seeded, finite, replayable
//! schedule**, so a failing run is reproducible bit-for-bit from its seed.
//! Two injection surfaces:
//!
//! * **Wire faults** ([`FaultyStream`]): a `Read + Write` wrapper over a
//!   `TcpStream` that consumes a [`FaultScript`] — torn writes, split
//!   (partial-line) writes, truncated reads, stalled reads, and mid-line
//!   disconnects. The script is shared (`Arc`) across a client's
//!   reconnections and is *finite*: once drained the stream is clean, so a
//!   retrying client always converges.
//! * **Handler faults** ([`FaultHook`]): an injectable callback the server
//!   consults at named [`FaultPoint`]s (per request line, per cache-miss
//!   compute) that can panic the handler, stall it, or sever the
//!   connection — the knob the panic-isolation and overload tests turn.
//!
//! Nothing here is compiled away in release builds: the hook defaults to
//! `None` and costs one `Option` check per request.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Seeded randomness
// ---------------------------------------------------------------------------

/// SplitMix64: the repo-standard tiny deterministic generator (same
/// recurrence as `pte_tensor::rng`), local so the serve crate's fault
/// schedules and retry jitter need no cross-crate coupling.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish draw in `[0, bound)` (`bound` must be non-zero; modulo
    /// bias is irrelevant for fault scheduling).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }
}

// ---------------------------------------------------------------------------
// Wire faults
// ---------------------------------------------------------------------------

/// One injectable wire fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// Send only the first `keep` bytes of the next write, sever the
    /// connection, and fail with `BrokenPipe`. The peer sees a partial
    /// line then EOF.
    TornWrite {
        /// Bytes actually delivered before the cut.
        keep: usize,
    },
    /// Split the next write: deliver `at` bytes, pause, deliver the rest.
    /// No error — this exercises the peer's partial-line reassembly.
    SplitWrite {
        /// Bytes delivered before the pause.
        at: usize,
        /// Pause length.
        pause_ms: u64,
    },
    /// Deliver at most `keep` bytes of the next read, then sever: the read
    /// after it fails with `ConnectionReset` (a reply torn mid-line).
    TruncatedRead {
        /// Bytes delivered before the cut.
        keep: usize,
    },
    /// Sleep before the next read proceeds (a stalled peer).
    StallRead {
        /// Stall length.
        millis: u64,
    },
    /// Sever the connection and fail the next read with `ConnectionReset`.
    ReadDisconnect,
    /// Sever the connection and fail the next write with `BrokenPipe`.
    WriteDisconnect,
}

impl WireFault {
    fn is_read(self) -> bool {
        matches!(
            self,
            WireFault::TruncatedRead { .. }
                | WireFault::StallRead { .. }
                | WireFault::ReadDisconnect
        )
    }
}

/// A fault plus how many clean operations of its direction to let through
/// first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireEvent {
    /// Clean same-direction operations to pass before firing.
    pub skip: u32,
    /// The fault to inject.
    pub fault: WireFault,
}

/// A finite, shared schedule of wire faults, consumed front-to-back.
///
/// Only the **front** event is ever consulted; an operation in the other
/// direction passes through untouched (the protocol is strictly
/// write-then-read, so ordering stays deterministic). Shared via `Arc`
/// across a client's reconnections: a retry resumes the schedule where the
/// failed attempt left it instead of replaying the same fault forever.
pub struct FaultScript {
    events: Mutex<VecDeque<WireEvent>>,
}

impl FaultScript {
    /// A script with no faults (a clean stream).
    pub fn empty() -> Arc<Self> {
        Self::of(Vec::new())
    }

    /// Wraps an explicit event list.
    pub fn of(events: Vec<WireEvent>) -> Arc<Self> {
        Arc::new(FaultScript { events: Mutex::new(events.into()) })
    }

    /// Generates a schedule from a seed: 1–3 events, each with a small
    /// skip and parameters drawn from SplitMix64. Same seed, same schedule,
    /// forever — the chaos suite's replayability hinges on this.
    pub fn from_seed(seed: u64) -> Arc<Self> {
        let mut rng = SplitMix64::new(seed);
        let count = 1 + rng.below(3) as usize;
        let events = (0..count)
            .map(|_| {
                let skip = rng.below(3) as u32;
                let fault = match rng.below(6) {
                    0 => WireFault::TornWrite { keep: rng.below(24) as usize },
                    1 => WireFault::SplitWrite {
                        at: 1 + rng.below(16) as usize,
                        pause_ms: 1 + rng.below(20),
                    },
                    2 => WireFault::TruncatedRead { keep: 1 + rng.below(32) as usize },
                    3 => WireFault::StallRead { millis: 1 + rng.below(30) },
                    4 => WireFault::ReadDisconnect,
                    _ => WireFault::WriteDisconnect,
                };
                WireEvent { skip, fault }
            })
            .collect();
        Arc::new(FaultScript { events: Mutex::new(events) })
    }

    /// Events not yet fired.
    pub fn remaining(&self) -> usize {
        self.events.lock().expect("fault script").len()
    }

    /// A stable textual rendering of the remaining schedule (replay
    /// assertions compare these across regenerations).
    pub fn describe(&self) -> String {
        let events = self.events.lock().expect("fault script");
        let parts: Vec<String> =
            events.iter().map(|e| format!("{}+{:?}", e.skip, e.fault)).collect();
        parts.join(";")
    }

    /// Pops the front event if it applies to an operation in `read`
    /// direction with its skip exhausted; decrements the skip otherwise.
    fn take(&self, read: bool) -> Option<WireFault> {
        let mut events = self.events.lock().expect("fault script");
        let front = events.front_mut()?;
        if front.fault.is_read() != read {
            return None;
        }
        if front.skip > 0 {
            front.skip -= 1;
            return None;
        }
        events.pop_front().map(|e| e.fault)
    }

    fn push_front(&self, fault: WireFault) {
        self.events.lock().expect("fault script").push_front(WireEvent { skip: 0, fault });
    }
}

/// A `TcpStream` that injects its script's faults into reads and writes.
pub struct FaultyStream {
    inner: TcpStream,
    script: Arc<FaultScript>,
}

impl FaultyStream {
    /// Wraps an existing stream.
    pub fn new(inner: TcpStream, script: Arc<FaultScript>) -> Self {
        FaultyStream { inner, script }
    }

    /// Connects and wraps.
    ///
    /// # Errors
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs, script: Arc<FaultScript>) -> io::Result<Self> {
        let inner = TcpStream::connect(addr)?;
        inner.set_nodelay(true)?;
        Ok(FaultyStream { inner, script })
    }

    /// The shared script (a reconnecting client resumes it).
    pub fn script(&self) -> Arc<FaultScript> {
        Arc::clone(&self.script)
    }

    /// Sets the read timeout on the underlying socket.
    ///
    /// # Errors
    /// Propagates the socket option failure.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(dur)
    }

    fn sever(&self) {
        let _ = self.inner.shutdown(Shutdown::Both);
    }
}

impl Read for FaultyStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.script.take(true) {
            None => self.inner.read(buf),
            Some(WireFault::StallRead { millis }) => {
                std::thread::sleep(Duration::from_millis(millis));
                self.inner.read(buf)
            }
            Some(WireFault::TruncatedRead { keep }) => {
                let cap = keep.max(1).min(buf.len());
                let n = if cap == 0 { 0 } else { self.inner.read(&mut buf[..cap])? };
                // The *next* read finds the connection gone.
                self.script.push_front(WireFault::ReadDisconnect);
                Ok(n)
            }
            Some(WireFault::ReadDisconnect) => {
                self.sever();
                Err(io::Error::new(io::ErrorKind::ConnectionReset, "injected read disconnect"))
            }
            Some(_) => unreachable!("write fault returned for a read op"),
        }
    }
}

impl Write for FaultyStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.script.take(false) {
            None => self.inner.write(buf),
            Some(WireFault::TornWrite { keep }) => {
                let keep = keep.min(buf.len());
                if keep > 0 {
                    self.inner.write_all(&buf[..keep])?;
                    let _ = self.inner.flush();
                }
                self.sever();
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "injected torn write"))
            }
            Some(WireFault::SplitWrite { at, pause_ms }) => {
                let at = at.min(buf.len());
                self.inner.write_all(&buf[..at])?;
                self.inner.flush()?;
                std::thread::sleep(Duration::from_millis(pause_ms));
                self.inner.write_all(&buf[at..])?;
                Ok(buf.len())
            }
            Some(WireFault::WriteDisconnect) => {
                self.sever();
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "injected write disconnect"))
            }
            Some(_) => unreachable!("read fault returned for a write op"),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

// ---------------------------------------------------------------------------
// Handler faults (server-side hook)
// ---------------------------------------------------------------------------

/// Where the server consults its fault hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// Before dispatching a complete request line. `index` is the global
    /// request ordinal (across connections), so schedules can target "the
    /// third request".
    Request {
        /// Global request ordinal, starting at 0.
        index: u64,
    },
    /// Inside a cache-miss compute, before the search runs. `index` counts
    /// computes globally. `Disconnect` is meaningless here (no connection
    /// in scope) and is treated as `None`.
    Compute {
        /// Global compute ordinal, starting at 0.
        index: u64,
    },
}

/// What the hook tells the server to do at a fault point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Proceed normally.
    None,
    /// Panic the handler (the chaos suite's panic-isolation probe; the
    /// worker's `catch_unwind` must contain it).
    Panic,
    /// Sleep this long first (simulates a wedged search / slow dependency;
    /// the overload tests use it to pin requests in flight).
    StallMs(u64),
    /// Drop the connection without a reply (request points only).
    Disconnect,
}

/// The injectable server hook. Defaults to absent; tests install one via
/// `ServerConfig::fault_hook`.
pub type FaultHook = Arc<dyn Fn(FaultPoint) -> FaultAction + Send + Sync>;

// ---------------------------------------------------------------------------
// Process-level shard faults (fleet chaos)
// ---------------------------------------------------------------------------

/// One process-level fault against a member of a shard fleet. Where
/// [`WireFault`] corrupts a single connection and [`FaultAction`] wedges a
/// single handler, these take out a whole daemon — the failure domain the
/// router's health plane and failover exist to absorb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFault {
    /// The daemon dies: its listener drops, established connections reset,
    /// and new connects are refused until (if ever) it is restarted.
    Kill,
    /// The daemon wedges: every request (probes included) stalls until the
    /// window ends, then the shard serves normally again. Drives the
    /// breaker's trip-then-half-open-recovery path.
    Hang {
        /// Window length.
        millis: u64,
    },
    /// The daemon accepts connections but severs the next `requests`
    /// requests without a reply — the connection-level flavour of refusing
    /// service.
    Refuse {
        /// Requests severed before the shard behaves again.
        requests: u32,
    },
    /// The daemon is reachable but not yet serving: requests stall until
    /// the warm-up window ends (a process that bound its port before its
    /// caches were ready). Probes must keep it out of rotation until it
    /// actually answers.
    SlowStart {
        /// Warm-up window length.
        millis: u64,
    },
}

/// A shard fault plus when (in routed-request ordinals) and where (which
/// fleet member) it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardFaultEvent {
    /// Fires once this many search requests have been routed.
    pub after_routed: u64,
    /// Index of the target shard in the fleet.
    pub shard: usize,
    /// The fault to apply.
    pub fault: ShardFault,
}

/// A finite, seeded schedule of process-level shard faults, consumed
/// front-to-back by the fleet chaos harness as load progresses. Same seed,
/// same schedule, forever — the fleet suite's replayability hinges on this,
/// exactly as [`FaultScript`]'s does for wire faults.
pub struct ShardFaultScript {
    events: Mutex<VecDeque<ShardFaultEvent>>,
}

impl ShardFaultScript {
    /// Wraps an explicit event list (sorted by firing ordinal).
    pub fn of(mut events: Vec<ShardFaultEvent>) -> Arc<Self> {
        events.sort_by_key(|e| e.after_routed);
        Arc::new(ShardFaultScript { events: Mutex::new(events.into()) })
    }

    /// Generates a fleet schedule from a seed: always exactly one `Kill`
    /// (the acceptance-path fault — a daemon dying mid-load), plus up to
    /// two transient faults (`Hang`/`Refuse`/`SlowStart`) aimed at *other*
    /// shards so a single key can never lose every replica permanently.
    pub fn from_seed(seed: u64, shards: usize) -> Arc<Self> {
        let shards = shards.max(1);
        let mut rng = SplitMix64::new(seed);
        let kill_shard = rng.below(shards as u64) as usize;
        let mut events = vec![ShardFaultEvent {
            after_routed: 1 + rng.below(3),
            shard: kill_shard,
            fault: ShardFault::Kill,
        }];
        let extras = rng.below(3) as usize;
        for _ in 0..extras {
            // Pick any shard except the killed one (with one shard there is
            // no such target, so single-shard fleets get the kill only).
            if shards < 2 {
                break;
            }
            let mut shard = rng.below(shards as u64) as usize;
            if shard == kill_shard {
                shard = (shard + 1) % shards;
            }
            let fault = match rng.below(3) {
                0 => ShardFault::Hang { millis: 40 + rng.below(160) },
                1 => ShardFault::Refuse { requests: 1 + rng.below(2) as u32 },
                _ => ShardFault::SlowStart { millis: 40 + rng.below(160) },
            };
            events.push(ShardFaultEvent { after_routed: rng.below(6), shard, fault });
        }
        Self::of(events)
    }

    /// Events not yet fired.
    pub fn remaining(&self) -> usize {
        self.events.lock().expect("shard fault script").len()
    }

    /// A stable textual rendering of the remaining schedule (replay
    /// assertions compare these across regenerations).
    pub fn describe(&self) -> String {
        let events = self.events.lock().expect("shard fault script");
        let parts: Vec<String> = events
            .iter()
            .map(|e| format!("@{} s{} {:?}", e.after_routed, e.shard, e.fault))
            .collect();
        parts.join(";")
    }

    /// Pops the front event if its firing ordinal has been reached.
    pub fn next_due(&self, routed: u64) -> Option<ShardFaultEvent> {
        let mut events = self.events.lock().expect("shard fault script");
        if events.front().is_some_and(|e| e.after_routed <= routed) {
            return events.pop_front();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn splitmix_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut rng = SplitMix64::new(7);
            (0..8).map(|_| rng.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut rng = SplitMix64::new(7);
            (0..8).map(|_| rng.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut rng = SplitMix64::new(8);
            (0..8).map(|_| rng.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn seeded_scripts_replay_bit_for_bit() {
        for seed in 0..64 {
            let first = FaultScript::from_seed(seed).describe();
            let second = FaultScript::from_seed(seed).describe();
            assert_eq!(first, second, "seed {seed} must replay identically");
            assert!(!first.is_empty(), "seed {seed} produced an empty schedule");
        }
        // Seeds actually vary the schedule.
        let distinct: std::collections::HashSet<String> =
            (0..64).map(|s| FaultScript::from_seed(s).describe()).collect();
        assert!(distinct.len() > 16, "only {} distinct schedules in 64 seeds", distinct.len());
    }

    #[test]
    fn torn_write_fires_after_skip_and_severs() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let script =
            FaultScript::of(vec![WireEvent { skip: 1, fault: WireFault::TornWrite { keep: 3 } }]);
        let mut stream = FaultyStream::connect(addr, Arc::clone(&script)).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        // First write passes clean (skip=1)...
        stream.write_all(b"hello\n").unwrap();
        // ...second is torn after 3 bytes and the socket is severed.
        let err = stream.write_all(b"world\n").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(script.remaining(), 0);
        let mut got = Vec::new();
        peer.read_to_end(&mut got).unwrap();
        assert_eq!(&got, b"hello\nwor");
    }

    #[test]
    fn truncated_read_delivers_prefix_then_resets() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let script = FaultScript::of(vec![WireEvent {
            skip: 0,
            fault: WireFault::TruncatedRead { keep: 4 },
        }]);
        let mut stream = FaultyStream::connect(addr, script).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        peer.write_all(b"a-full-reply-line\n").unwrap();
        let mut buf = [0u8; 64];
        let n = stream.read(&mut buf).unwrap();
        assert!(n <= 4 && n > 0, "truncated read returned {n}");
        let err = stream.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn split_write_delivers_everything_without_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let script = FaultScript::of(vec![WireEvent {
            skip: 0,
            fault: WireFault::SplitWrite { at: 2, pause_ms: 5 },
        }]);
        let mut stream = FaultyStream::connect(addr, script).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        stream.write_all(b"abcdef\n").unwrap();
        drop(stream);
        let mut got = Vec::new();
        peer.read_to_end(&mut got).unwrap();
        assert_eq!(&got, b"abcdef\n");
    }

    #[test]
    fn drained_script_leaves_a_clean_stream() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let script =
            FaultScript::of(vec![WireEvent { skip: 0, fault: WireFault::WriteDisconnect }]);
        let faulty = FaultyStream::connect(addr, Arc::clone(&script)).unwrap();
        let (first_peer, _) = listener.accept().unwrap();
        let mut faulty = faulty;
        assert!(faulty.write_all(b"doomed\n").is_err());
        drop(first_peer);
        // A reconnect sharing the drained script sees no more faults — this
        // is what makes retry loops converge.
        let mut clean = FaultyStream::connect(addr, script).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        clean.write_all(b"fine\n").unwrap();
        drop(clean);
        let mut got = Vec::new();
        peer.read_to_end(&mut got).unwrap();
        assert_eq!(&got, b"fine\n");
    }

    #[test]
    fn seeded_shard_scripts_replay_and_vary() {
        for seed in 0..64 {
            let first = ShardFaultScript::from_seed(seed, 3).describe();
            let second = ShardFaultScript::from_seed(seed, 3).describe();
            assert_eq!(first, second, "seed {seed} must replay identically");
            assert!(first.contains("Kill"), "seed {seed} lacks the kill event: {first}");
        }
        let distinct: std::collections::HashSet<String> =
            (0..64).map(|s| ShardFaultScript::from_seed(s, 3).describe()).collect();
        assert!(
            distinct.len() > 16,
            "only {} distinct fleet schedules in 64 seeds",
            distinct.len()
        );
    }

    #[test]
    fn shard_script_fires_in_ordinal_order() {
        let script = ShardFaultScript::of(vec![
            ShardFaultEvent { after_routed: 4, shard: 1, fault: ShardFault::Kill },
            ShardFaultEvent { after_routed: 2, shard: 0, fault: ShardFault::Hang { millis: 5 } },
        ]);
        assert!(script.next_due(1).is_none(), "nothing fires before its ordinal");
        let first = script.next_due(2).expect("hang due at 2");
        assert_eq!(first.fault, ShardFault::Hang { millis: 5 });
        assert!(script.next_due(3).is_none());
        let second = script.next_due(4).expect("kill due at 4");
        assert_eq!(second.fault, ShardFault::Kill);
        assert_eq!(script.remaining(), 0);
    }

    #[test]
    fn shard_scripts_never_aim_transients_at_the_killed_shard() {
        for seed in 0..128 {
            let script = ShardFaultScript::from_seed(seed, 3);
            let mut killed = None;
            let mut events = Vec::new();
            while let Some(event) = script.next_due(u64::MAX) {
                if event.fault == ShardFault::Kill {
                    killed = Some(event.shard);
                }
                events.push(event);
            }
            let killed = killed.expect("every schedule carries a kill");
            for event in events {
                if event.fault != ShardFault::Kill {
                    assert_ne!(
                        event.shard, killed,
                        "seed {seed}: transient fault aimed at the killed shard"
                    );
                }
            }
        }
    }

    #[test]
    fn read_faults_do_not_consume_write_skips() {
        // A front read-fault must not be disturbed by interleaved writes.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let script = FaultScript::of(vec![WireEvent { skip: 0, fault: WireFault::ReadDisconnect }]);
        let mut stream = FaultyStream::connect(addr, Arc::clone(&script)).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        stream.write_all(b"ping\n").unwrap();
        assert_eq!(script.remaining(), 1, "a write must not consume a read fault");
        peer.write_all(b"pong\n").unwrap();
        let mut buf = [0u8; 16];
        assert!(stream.read(&mut buf).is_err());
    }
}
