//! Tier-1 pin of the one probe path: the batched unified search, whose
//! Fisher waves score depthwise-style members through the direct grouped
//! conv kernel, produces byte-identical plan bytes to the per-candidate
//! search, whose probes run `conv2d` member by member. The batched leg must
//! also have scored members through the direct kernel, so a request that
//! never reaches it cannot pass this test vacuously.
//!
//! The only test in its binary on purpose: `pte_probe_direct_members_total`
//! is process-wide, and a sibling test's waves would add to it between the
//! two reads.

use pte::fisher::proxy::clear_probe_cache;
use pte::search::unified::{self, SearchOutcome};
use pte_serve::codec::PlanPayload;
use pte_serve::workload::bench_request;

fn direct_members_total() -> u64 {
    pte::telemetry::global().counter("pte_probe_direct_members_total").get()
}

#[test]
fn batched_and_per_candidate_searches_agree_through_the_direct_kernel() {
    let request = bench_request(0xD1EC);
    let network = request.network.resolve().expect("resolve network");
    let platform = request.platform.resolve();
    let options = request.unified_options();
    let bytes = |outcome: SearchOutcome| {
        PlanPayload::from_plan(&request, &outcome.plan, &outcome.stats, outcome.original_fisher)
            .encode()
            .expect("encode payload")
    };

    // Each leg probes afresh: a memo warmed by one would hand the other its
    // Fisher scores.
    clear_probe_cache();
    let before = direct_members_total();
    let batched = bytes(unified::optimize(&network, &platform, &options));
    let direct = direct_members_total() - before;
    clear_probe_cache();
    let per_candidate = bytes(unified::optimize_serial(&network, &platform, &options));
    clear_probe_cache();

    assert!(direct > 0, "the batched search scored no member through the direct kernel");
    assert_eq!(batched, per_candidate, "batched and per-candidate unified plans diverged");
    println!("probe_direct_parity: {direct} wave members scored on the direct kernel");
}
