//! Cross-crate integration: the full pipeline from network definition
//! through transformation search to the comparison report, and the serving
//! contract on top of it.

use pte::{Optimizer, Platform};

#[test]
fn full_pipeline_orders_the_three_approaches() {
    // The paper's headline ordering: Ours <= NAS <= TVM latency.
    let network = pte::nn::resnet18(pte::nn::DatasetKind::Cifar10);
    let report = Optimizer::new(&network, Platform::intel_i7()).quick().run();
    assert!(report.ours_latency_ms <= report.nas_latency_ms * 1.05);
    assert!(report.nas_latency_ms <= report.tvm_latency_ms * 1.0001);
    assert!(report.ours_speedup >= 1.0);
}

#[test]
fn optimized_networks_stay_accurate_and_compressed() {
    let network = pte::nn::resnet18(pte::nn::DatasetKind::Cifar10);
    let report = Optimizer::new(&network, Platform::intel_i7()).quick().run();
    // §7.2: accuracy deltas under ~1%, compression in the 1.5-4x band.
    assert!(report.error_delta().abs() < 1.5, "delta {}", report.error_delta());
    let compression = report.compression();
    assert!((1.0..8.0).contains(&compression), "compression {compression}");
}

#[test]
fn every_platform_produces_a_consistent_report() {
    let network = pte::nn::resnet18(pte::nn::DatasetKind::Cifar10);
    for platform in Platform::paper_suite() {
        let name = platform.name;
        let report = Optimizer::new(&network, platform).quick().run();
        assert!(report.tvm_latency_ms > 0.0, "{name}: zero baseline");
        assert!(report.ours_speedup >= 1.0, "{name}: regression");
        assert!(report.stats.attempted > 50, "{name}: search did not run");
    }
}

#[test]
fn mobile_gpu_gains_most_from_compression() {
    // The paper's cross-platform shape (§7.1): the memory-starved mGPU sees
    // the largest relative win from the unified search.
    let network = pte::nn::resnet18(pte::nn::DatasetKind::Cifar10);
    let cpu = Optimizer::new(&network, Platform::intel_i7()).quick().run();
    let mgpu = Optimizer::new(&network, Platform::maxwell_mgpu()).quick().run();
    assert!(
        mgpu.ours_speedup >= cpu.ours_speedup * 0.8,
        "mGPU {} vs CPU {}",
        mgpu.ours_speedup,
        cpu.ours_speedup
    );
}

#[test]
fn search_statistics_are_recorded() {
    let network = pte::nn::resnet18(pte::nn::DatasetKind::Cifar10);
    let report = Optimizer::new(&network, Platform::intel_i7()).quick().run();
    let s = report.stats;
    assert_eq!(
        s.attempted,
        s.structurally_invalid + s.fisher_rejected + s.survivors,
        "stats must partition the candidate set"
    );
    assert!(s.fisher_rejected > 0, "the legality check must bite");
}

#[test]
fn served_plans_are_byte_identical_to_the_in_process_search() {
    // The serving contract: a plan served over TCP, cold or as a cache hit,
    // is byte-identical to the plan the same request produces in-process.
    use pte_serve::{codec, serve, Client, ServerConfig, Strategy};

    let mut request = pte_serve::workload::bench_request(0x7E51);
    request.strategy = Strategy::Unified;
    let expected = codec::execute(&request).expect("in-process search");

    let handle = serve(&ServerConfig { workers: 2, ..ServerConfig::default() })
        .expect("bind ephemeral port");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let cold = client.search(&request).expect("cold search");
    let hit = client.search(&request).expect("repeat search");
    assert!(!cold.cache_hit, "the first request must run the search");
    assert!(hit.cache_hit, "the repeat must be a cache hit");
    assert_eq!(cold.payload_canonical, expected, "cold payload diverged from in-process");
    assert_eq!(hit.payload_canonical, expected, "cache-hit payload diverged from in-process");
    client.shutdown().expect("shutdown ack");
    handle.join();
}

#[test]
fn parallel_and_serial_unified_searches_are_byte_identical() {
    // The determinism contract's parallel face: the pooled search and the
    // single-threaded one serialize to the same plan bytes.
    use pte::search::unified::{self, SearchOutcome};
    use pte_serve::codec::PlanPayload;

    let request = pte_serve::workload::bench_request(0x5E41);
    let network = request.network.resolve().expect("resolve network");
    let platform = request.platform.resolve();
    let options = request.unified_options();
    let bytes = |outcome: SearchOutcome| {
        PlanPayload::from_plan(&request, &outcome.plan, &outcome.stats, outcome.original_fisher)
            .encode()
            .expect("encode payload")
    };
    // Each run probes afresh: a memo warmed by the first would hand the
    // second its Fisher scores. Clearing is safe beside other tests here;
    // the memo only saves work, it never changes a score.
    pte::fisher::proxy::clear_probe_cache();
    let parallel = bytes(unified::optimize(&network, &platform, &options));
    pte::fisher::proxy::clear_probe_cache();
    let serial = bytes(unified::optimize_serial(&network, &platform, &options));
    assert_eq!(parallel, serial, "parallel and serial unified plans diverged");
}
