//! Self-healing client: reconnect-and-retry with exponential backoff and
//! seeded jitter.
//!
//! Retrying a search is **safe by construction**: request keys are content
//! hashes of canonical request bytes, so a request replayed over a fresh
//! connection is idempotent — at worst it coalesces behind (or hits the
//! published result of) the attempt whose reply was lost, and the payload
//! bytes it recovers are identical to what the lost reply carried (the e2e
//! suite asserts bit-equality through injected faults).
//!
//! What retries, and how:
//!
//! * [`ClientError::Io`] — connection torn down (mid-write, mid-reply,
//!   refused): drop the connection, back off, reconnect, resend.
//! * [`ClientError::Server`] with `retryable:true` — `overloaded`,
//!   `deadline`, or a single-flight leader failure: the connection is
//!   healthy, so resend on it after the backoff (honouring the server's
//!   `retry_after_ms` hint when present).
//! * Everything else (schema rejections, protocol violations) fails fast —
//!   a verbatim retry cannot succeed.
//!
//! Backoff is exponential (`base * 2^attempt`, capped) plus jitter drawn
//! from a seeded [`SplitMix64`], so even the retry *timing* of a chaos run
//! replays deterministically from its seed.

use std::time::{Duration, Instant};

use crate::client::{Client, ClientError, ClientResult, SearchReply};
use crate::codec::SearchRequest;
use crate::fault::SplitMix64;
use crate::json::Json;

/// Retry policy knobs.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 1 disables retrying.
    pub max_attempts: u32,
    /// Base backoff before the second attempt.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed for the jitter stream.
    pub jitter_seed: u64,
    /// Total wall-clock budget across *all* attempts of one operation
    /// (`None` = unbounded). Attempt counting alone lets
    /// `max_attempts × max_backoff` blow far past a caller's request
    /// deadline; with a budget, retrying stops — and the last error
    /// surfaces — as soon as the elapsed time plus the next backoff would
    /// overrun it. The router's failover walk honours the same idea with
    /// the request's own `deadline_ms` as the budget.
    pub budget: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            jitter_seed: 0x5EED,
            budget: None,
        }
    }
}

impl RetryPolicy {
    /// The delay before attempt `attempt + 1` (0-based failed attempt):
    /// exponential base doubling, capped, plus up to one base of jitter.
    fn backoff(&self, attempt: u32, rng: &mut SplitMix64) -> Duration {
        let base = self.base_backoff.as_millis() as u64;
        let exp = base.saturating_mul(1u64 << attempt.min(16));
        let capped = exp.min(self.max_backoff.as_millis() as u64);
        let jitter = if base == 0 { 0 } else { rng.below(base + 1) };
        Duration::from_millis(capped + jitter)
    }
}

/// How a [`RetryClient`] obtains a fresh connection. Returning a connected
/// [`Client`] lets tests wire [`FaultyStream`](crate::fault::FaultyStream)
/// transports (with a shared, draining fault script) into the reconnect
/// path.
pub type Connector = Box<dyn FnMut() -> ClientResult<Client> + Send>;

/// A client that heals across connection loss and retryable server errors.
pub struct RetryClient {
    connector: Connector,
    policy: RetryPolicy,
    rng: SplitMix64,
    client: Option<Client>,
    deadline_ms: Option<u64>,
    /// Attempts that failed retryably and were retried (observability for
    /// tests: "the fault actually fired").
    retries: u64,
}

impl RetryClient {
    /// Builds a retry client over a connector.
    pub fn new(connector: Connector, policy: RetryPolicy) -> Self {
        let rng = SplitMix64::new(policy.jitter_seed);
        RetryClient { connector, policy, rng, client: None, deadline_ms: None, retries: 0 }
    }

    /// Convenience: retry client over plain TCP to `addr`.
    pub fn tcp(addr: std::net::SocketAddr, policy: RetryPolicy) -> Self {
        Self::new(Box::new(move || Client::connect(addr)), policy)
    }

    /// Retryable failures that were actually retried so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    fn client(&mut self) -> ClientResult<&mut Client> {
        if self.client.is_none() {
            let mut client = (self.connector)()?;
            client.set_deadline_ms(self.deadline_ms);
            self.client = Some(client);
        }
        Ok(self.client.as_mut().expect("connection just established"))
    }

    /// Runs `op` against a (re)established connection, healing through
    /// retryable failures per the policy.
    fn with_retries<T>(
        &mut self,
        mut op: impl FnMut(&mut Client) -> ClientResult<T>,
    ) -> ClientResult<T> {
        let started = Instant::now();
        let mut attempt: u32 = 0;
        loop {
            let result = self.client().and_then(&mut op);
            let error = match result {
                Ok(value) => return Ok(value),
                Err(error) => error,
            };
            // An I/O failure leaves the connection in an unknown state
            // (bytes may be stranded mid-frame either way): drop it so the
            // next attempt reconnects. Server errors arrive on an intact
            // connection, which stays up.
            if matches!(error, ClientError::Io(_)) {
                self.client = None;
            }
            attempt += 1;
            if !error.is_retryable() || attempt >= self.policy.max_attempts {
                return Err(error);
            }
            let mut delay = self.policy.backoff(attempt - 1, &mut self.rng);
            if let ClientError::Server { retry_after_ms: Some(hint), .. } = &error {
                delay = delay.max(Duration::from_millis(*hint));
            }
            // The wall-clock budget outranks the attempt count: if sleeping
            // would overrun it, the next attempt could not finish inside the
            // caller's deadline anyway — surface the last error now.
            if let Some(budget) = self.policy.budget {
                if started.elapsed().saturating_add(delay) >= budget {
                    return Err(error);
                }
            }
            self.retries += 1;
            std::thread::sleep(delay);
        }
    }

    /// Runs a search, retrying per the policy.
    ///
    /// # Errors
    /// The final error once attempts are exhausted, or immediately for
    /// non-retryable failures.
    pub fn search(&mut self, request: &SearchRequest) -> ClientResult<SearchReply> {
        self.with_retries(|client| client.search(request))
    }

    /// Reads the server's stats document, retrying per the policy.
    ///
    /// # Errors
    /// As [`RetryClient::search`].
    pub fn stats(&mut self) -> ClientResult<Json> {
        self.with_retries(Client::stats)
    }

    /// Attaches a deadline to every search this client sends (survives
    /// reconnection — each fresh connection inherits it).
    pub fn set_deadline_ms(&mut self, deadline_ms: Option<u64>) {
        self.deadline_ms = deadline_ms;
        if let Some(client) = self.client.as_mut() {
            client.set_deadline_ms(deadline_ms);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(80),
            ..RetryPolicy::default()
        };
        let mut rng = SplitMix64::new(1);
        let d0 = policy.backoff(0, &mut rng);
        let d3 = policy.backoff(3, &mut rng);
        let d9 = policy.backoff(9, &mut rng);
        assert!(d0 >= Duration::from_millis(10) && d0 <= Duration::from_millis(20));
        assert!(d3 >= Duration::from_millis(80) && d3 <= Duration::from_millis(90));
        assert!(d9 <= Duration::from_millis(90), "cap must hold: {d9:?}");
    }

    #[test]
    fn jitter_replays_from_its_seed() {
        let policy = RetryPolicy::default();
        let sequence = |seed: u64| -> Vec<Duration> {
            let mut rng = SplitMix64::new(seed);
            (0..6).map(|a| policy.backoff(a, &mut rng)).collect()
        };
        assert_eq!(sequence(42), sequence(42));
        assert_ne!(sequence(42), sequence(43));
    }

    #[test]
    fn non_retryable_errors_fail_fast() {
        // A connector that always "connects" to nothing demonstrates the
        // classification without a live server: Protocol errors do not
        // consume attempts.
        let mut calls = 0u32;
        let mut client = RetryClient::new(
            Box::new(move || {
                calls += 1;
                Err(ClientError::Protocol(format!("broken connector call {calls}")))
            }),
            RetryPolicy { max_attempts: 4, ..RetryPolicy::default() },
        );
        let err = client.stats().unwrap_err();
        assert!(matches!(err, ClientError::Protocol(_)));
        assert_eq!(client.retries(), 0);
    }

    #[test]
    fn io_errors_consume_attempts_then_surface() {
        let mut client = RetryClient::new(
            Box::new(|| {
                Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::ConnectionRefused,
                    "nobody home",
                )))
            }),
            RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
                ..RetryPolicy::default()
            },
        );
        let err = client.stats().unwrap_err();
        assert!(matches!(err, ClientError::Io(_)));
        assert_eq!(client.retries(), 2, "two retries for three attempts");
    }

    #[test]
    fn budget_stops_retrying_before_attempts_run_out() {
        // 100 permitted attempts at ≥20ms backoff each would take seconds;
        // the 45ms budget must cut that to a couple of retries.
        let mut client = RetryClient::new(
            Box::new(|| {
                Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::ConnectionRefused,
                    "nobody home",
                )))
            }),
            RetryPolicy {
                max_attempts: 100,
                base_backoff: Duration::from_millis(20),
                max_backoff: Duration::from_millis(20),
                budget: Some(Duration::from_millis(45)),
                ..RetryPolicy::default()
            },
        );
        let started = Instant::now();
        let err = client.stats().unwrap_err();
        assert!(matches!(err, ClientError::Io(_)));
        assert!(client.retries() < 4, "budget must bound retries, got {}", client.retries());
        assert!(
            started.elapsed() < Duration::from_millis(500),
            "budget must bound wall clock, took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn no_budget_preserves_attempt_counting() {
        let policy = RetryPolicy::default();
        assert!(policy.budget.is_none(), "budget must default off");
    }
}
