//! Output checks: every plan a workload receives must be legal, and a
//! seeded sample of served plans must be byte-identical to the plan an
//! in-process `codec::execute` computes for the same request.

use std::collections::HashMap;

use pte_serve::codec::{execute, PlanPayload, SearchRequest, Strategy};

/// Collects check failures; each one counts as a failed operation.
#[derive(Default)]
pub struct Checker {
    baselines: HashMap<String, f64>,
    pub failures: Vec<String>,
    pub checked: u64,
}

impl Checker {
    pub fn fail(&mut self, message: String) {
        eprintln!("perfbench: check failed: {message}");
        self.failures.push(message);
    }

    /// Modelled latency of the `baseline` strategy's plan for `request`'s
    /// network, platform and tuner settings (memoised per distinct triple).
    pub fn baseline_latency(&mut self, request: &SearchRequest) -> f64 {
        let baseline = SearchRequest {
            strategy: Strategy::Baseline,
            random_per_layer: 0,
            seed: 0,
            ..request.clone()
        };
        let key = baseline.encode().expect("finite request");
        if let Some(&latency) = self.baselines.get(&key) {
            return latency;
        }
        let latency = execute(&baseline)
            .ok()
            .and_then(|bytes| PlanPayload::parse(&bytes).ok())
            .map_or(f64::NAN, |p| p.latency_ms);
        self.baselines.insert(key, latency);
        latency
    }

    /// Checks that `payload` is a legal plan for `request`: it keeps the
    /// network Fisher Potential within `network_tolerance` of the original,
    /// and it is no slower than the baseline plan. Returns the plan's
    /// speedup over the baseline.
    pub fn legal(&mut self, request: &SearchRequest, payload: &str) -> f64 {
        self.checked += 1;
        let plan = match PlanPayload::parse(payload) {
            Ok(plan) => plan,
            Err(e) => {
                self.fail(format!("undecodable payload: {}", e.message));
                return 1.0;
            }
        };
        // Written so that a NaN fails the check.
        let fisher_kept = plan.fisher >= plan.original_fisher * (1.0 - request.network_tolerance);
        if !fisher_kept {
            self.fail(format!(
                "{}: network Fisher {} below (1 - {}) x original {}",
                plan.network, plan.fisher, request.network_tolerance, plan.original_fisher
            ));
        }
        let baseline = self.baseline_latency(request);
        let no_slower = plan.latency_ms <= baseline;
        if !no_slower {
            self.fail(format!(
                "{}: plan latency {} ms above baseline {} ms",
                plan.network, plan.latency_ms, baseline
            ));
        }
        baseline / plan.latency_ms
    }

    /// Checks that served bytes equal the in-process computation.
    pub fn parity(&mut self, request: &SearchRequest, served: &str) {
        self.checked += 1;
        match execute(request) {
            Ok(local) if local == served => {}
            Ok(_) => self.fail(format!(
                "served payload for key {} differs from in-process execute",
                pte_serve::codec::request_key(&request.encode().expect("finite request"))
            )),
            Err(e) => self.fail(format!("in-process execute failed: {}", e.message)),
        }
    }

    /// Records a boolean invariant.
    pub fn require(&mut self, ok: bool, what: &str) {
        self.checked += 1;
        if !ok {
            self.fail(what.to_string());
        }
    }
}
