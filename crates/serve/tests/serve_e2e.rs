//! End-to-end bit-identity: for a fixed `SearchRequest`, the plan returned
//! over TCP — cold cache, warm cache, and under concurrent duplicate
//! requests — is byte-identical after codec round-trip to the plan a direct
//! in-process unified search produces. This is the serving layer's
//! acceptance contract; the `perf_report` serve section asserts the same
//! property on every run.

use pte_core::machine::Platform;
use pte_core::search::unified;
use pte_serve::client::Client;
use pte_serve::codec::{self, NetworkSpec, PlanPayload, PlatformId, SearchRequest};
use pte_serve::server::{serve, ServerConfig};

fn tiny_network() -> NetworkSpec {
    let layer = |name: &str, c_in: u64, c_out: u64, groups: u64, mutable: bool| codec::LayerSpec {
        name: name.into(),
        c_in,
        c_out,
        kernel: 3,
        stride: 1,
        padding: 1,
        groups,
        h: 8,
        w: 8,
        mutable,
    };
    NetworkSpec::Custom {
        name: "e2e-net".into(),
        dataset: "cifar10".into(),
        classifier_in: 32,
        base_error: 6.5,
        convs: vec![
            layer("stem", 3, 16, 1, false),
            layer("block1", 16, 16, 1, true),
            layer("block1b", 16, 16, 1, true), // same class as block1: multiplicity 2
            layer("block2", 16, 32, 2, true),  // architecturally grouped
        ],
    }
}

fn request() -> SearchRequest {
    let mut request = SearchRequest::quick(tiny_network(), PlatformId::Cpu);
    request.random_per_layer = 4;
    request.trials = 8;
    request
}

/// The reference bytes: a direct in-process unified search on the resolved
/// request, serialized through the codec — deliberately *not* via
/// `codec::execute`, so the test holds the server to an independent
/// reconstruction of the same plan.
fn direct_in_process_payload(request: &SearchRequest) -> String {
    let network = request.network.resolve().expect("resolve network");
    let platform: Platform = request.platform.resolve();
    let outcome = unified::optimize(&network, &platform, &request.unified_options());
    PlanPayload::from_plan(request, &outcome.plan, &outcome.stats, outcome.original_fisher)
        .encode()
        .expect("encode payload")
}

#[test]
fn served_plans_are_bit_identical_to_in_process_search() {
    let handle = serve(&ServerConfig {
        workers: 4,
        cache_capacity: 64,
        cache_shards: 4,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr();

    let request = request();
    let expected = direct_in_process_payload(&request);

    // Cold: a miss that runs the search server-side.
    let mut client = Client::connect(addr).expect("connect");
    let cold = client.search(&request).expect("cold search");
    assert!(!cold.cache_hit && !cold.coalesced);
    assert_eq!(cold.payload_canonical, expected, "cold payload diverged from in-process plan");

    // Warm: a pure cache hit, same bytes.
    let warm = client.search(&request).expect("warm search");
    assert!(warm.cache_hit);
    assert_eq!(warm.payload_canonical, expected, "warm payload diverged");
    assert_eq!(warm.request_key, cold.request_key);

    // Decoded payloads compare equal too (codec round-trip preserves the
    // plan, not just its bytes).
    assert_eq!(cold.payload, warm.payload);
    assert_eq!(cold.payload.network, "e2e-net");
    assert_eq!(cold.payload.layers.len(), 3, "4 convs, 3 distinct classes");
    assert_eq!(cold.payload.layers[1].multiplicity, 2);

    // Concurrent duplicates of a NEW request: single-flight collapses them
    // to one search and every reply carries identical bytes.
    let mut fresh = request.clone();
    fresh.seed = 0xBEEF;
    let fresh_expected = direct_in_process_payload(&fresh);
    let misses_before = handle.state().cache_stats().misses;
    let clients = 4;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let fresh = &fresh;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client.search(fresh).expect("concurrent search").payload_canonical
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), fresh_expected, "concurrent payload diverged");
        }
    });
    assert_eq!(
        handle.state().cache_stats().misses - misses_before,
        1,
        "concurrent duplicates must collapse to one search"
    );

    handle.join();
}

#[test]
fn baseline_strategy_serves_and_round_trips() {
    let handle = serve(&ServerConfig::default()).unwrap();
    let mut request = request();
    request.strategy = codec::Strategy::Baseline;

    let network = request.network.resolve().unwrap();
    let platform = request.platform.resolve();
    let plan =
        pte_core::search::NetworkPlan::baseline(&network, &platform, &request.tune_options());
    let expected = PlanPayload::from_plan(
        &request,
        &plan,
        &pte_core::search::SearchStats::default(),
        plan.fisher(),
    )
    .encode()
    .unwrap();

    let mut client = Client::connect(handle.addr()).unwrap();
    let reply = client.search(&request).unwrap();
    assert_eq!(reply.payload_canonical, expected);
    // Baseline plans may carry tuner-applied *program* steps (tiling,
    // vectorization), but never neural ones — the architecture is untouched
    // (grouped layers lower their architectural grouping outside the log).
    for layer in &reply.payload.layers {
        for step in layer.schedules.iter().flatten() {
            let parsed: pte_core::transform::TransformStep =
                step.parse().expect("grammatical step");
            assert!(!parsed.is_neural(), "baseline plan contains neural step `{step}`");
        }
    }
    handle.join();
}

#[test]
fn malformed_lines_do_not_kill_the_connection() {
    let handle = serve(&ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    for bad in [
        "not json at all",
        "{\"op\":\"frobnicate\"}",
        "{\"no_op\":1}",
        "{\"op\":\"search\"}",
        "{\"op\":\"search\",\"request\":{\"v\":1}}",
        "{\"op\":\"search\",\"request\":{\"v\":99}}",
    ] {
        let reply = client.round_trip(bad).expect("connection must survive");
        let doc = pte_serve::json::Json::parse(&reply).expect("error reply parses");
        assert_eq!(doc.get("ok").and_then(|v| v.as_bool()), Some(false), "`{bad}` must error");
    }

    // The connection still works after the error barrage.
    client.ping().expect("ping after errors");

    // Unknown presets are rejected before they become cache entries.
    let mut bad_request = request();
    bad_request.network = NetworkSpec::Preset("vgg16".into());
    let err = client.search(&bad_request).unwrap_err();
    assert!(err.to_string().contains("unknown network preset"), "{err}");
    assert_eq!(handle.state().cache_stats().misses, 0);

    handle.join();
}

#[test]
fn stats_op_exposes_cache_and_probe_counters() {
    let handle = serve(&ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Snapshot the probe memo before any search: the memo is process-wide,
    // so a sibling test's search may already have populated it with this
    // binary's shared tiny-network shapes — only lookup deltas are
    // meaningful (a search always consults the memo, hit or miss).
    let before = client.stats().unwrap();
    let probe_lookups = |doc: &pte_serve::json::Json| {
        let field = |name: &str| {
            doc.get("probe_cache").and_then(|p| p.get(name)).and_then(|v| v.as_u64()).unwrap_or(0)
        };
        field("hits") + field("misses")
    };
    let lookups_before = probe_lookups(&before);

    client.search(&request()).unwrap();
    client.search(&request()).unwrap();

    let stats = client.stats().unwrap();
    let cache = stats.get("cache").expect("cache section");
    assert_eq!(cache.get("misses").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(cache.get("hits").and_then(|v| v.as_u64()), Some(1));
    assert!(cache.get("hit_rate").and_then(|v| v.as_f64()).is_some());

    // Probe memo health must be observable and must have *moved*: the cold
    // search above ran real probes, each a memo miss.
    let probe = stats.get("probe_cache").expect("probe_cache section");
    for field in ["entries", "capacity", "hits", "misses", "evictions"] {
        assert!(probe.get(field).and_then(|v| v.as_u64()).is_some(), "missing probe {field}");
    }
    assert!(probe.get("hit_rate").and_then(|v| v.as_f64()).is_some());
    assert!(
        probe_lookups(&stats) > lookups_before,
        "a cold search must consult the probe memo: {lookups_before} -> {}",
        probe_lookups(&stats)
    );
    assert!(stats.get("requests").and_then(|v| v.as_u64()).unwrap_or(0) >= 2);
    assert_eq!(
        stats.get("idle_timeout_ms").and_then(|v| v.as_u64()),
        Some(60_000),
        "stats must report the configured idle timeout"
    );
    handle.join();
}

#[test]
fn metrics_op_serves_prometheus_text() {
    let handle = serve(&ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    // One miss and one hit, so cache, Evaluator, and grammar-coverage
    // metrics have all moved before the scrape.
    client.search(&request()).unwrap();
    client.search(&request()).unwrap();

    let metrics = client.metrics().expect("metrics op over json");
    assert_eq!(metrics.get("ok").and_then(|v| v.as_bool()), Some(true));
    // The stats fields ride along in the same envelope (one builder serves
    // both ops), including the conservation-law verdict.
    let cache = metrics.get("cache").expect("cache section");
    assert_eq!(
        cache.get("conserved").and_then(|v| v.as_bool()),
        Some(true),
        "cache counters must satisfy hits+misses+coalesced+failures == fetches+peek_hits"
    );
    let page = metrics
        .get("prometheus")
        .and_then(|v| v.as_str())
        .expect("metrics op must embed the Prometheus text page");
    // Every layer of the pipeline must be present on the page: losing a
    // metric name is a scrape-breaking regression, not a cosmetic one.
    for name in [
        // event loop
        "pte_event_loop_wakeups_total",
        "pte_event_loop_poll_iterations_total",
        "pte_connections_busy",
        "pte_connections_idle",
        "pte_queue_depth",
        // request plane
        "pte_request_search_us",
        "pte_request_json_us",
        "pte_shed_total",
        "pte_deadline_total",
        "pte_panic_total",
        // cache + store + stats-derived lines
        "pte_cache_hit_us",
        "pte_cache_miss_us",
        "pte_cache_hits",
        "pte_cache_misses",
        "pte_store_append_bytes_total",
        // Evaluator stages
        "pte_eval_rejected_structural_total",
        "pte_eval_rejected_cost_total",
        "pte_eval_rejected_fisher_total",
        "pte_eval_survivors_total",
        // probe plane
        "pte_probe_memo_lookup_us",
        "pte_probe_wave_size",
        "pte_probe_direct_members_total",
        // grammar coverage
        "pte_grammar_coverage_ratio",
    ] {
        assert!(page.contains(name), "metrics page lost `{name}`");
    }

    // A scrape over a second connection serves the same document.
    let mut other = Client::connect(handle.addr()).unwrap();
    let other_metrics = other.metrics().expect("metrics op over a second connection");
    let other_page =
        other_metrics.get("prometheus").and_then(|v| v.as_str()).expect("second metrics page");
    for name in ["pte_event_loop_wakeups_total", "pte_request_search_us", "pte_cache_hits"] {
        assert!(other_page.contains(name), "second metrics page lost `{name}`");
    }
    assert_eq!(
        other_metrics.get("cache").and_then(|c| c.get("conserved")).and_then(|v| v.as_bool()),
        Some(true)
    );

    // Satellite: the plain `stats` op carries the same conservation verdict.
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.get("cache").and_then(|c| c.get("conserved")).and_then(|v| v.as_bool()),
        Some(true),
        "stats op must expose the cache conservation law"
    );
    handle.join();
}

#[test]
fn served_evolve_plans_are_bit_identical_to_in_process_search() {
    use pte_core::search::evolve;

    let handle = serve(&ServerConfig::default()).expect("bind ephemeral port");
    let mut request = request();
    request.strategy = codec::Strategy::Evolve;

    // Independent in-process reconstruction of the same evolve plan.
    let network = request.network.resolve().expect("resolve network");
    let platform: Platform = request.platform.resolve();
    let outcome = evolve::optimize(&network, &platform, &request.evolve_options());
    let expected =
        PlanPayload::from_plan(&request, &outcome.plan, &outcome.stats, outcome.original_fisher)
            .encode()
            .expect("encode payload");

    let mut client = Client::connect(handle.addr()).expect("connect");
    let cold = client.search(&request).expect("cold evolve search");
    assert!(!cold.cache_hit);
    assert_eq!(cold.payload_canonical, expected, "served evolve plan diverged from in-process");
    assert_eq!(cold.payload.strategy, codec::Strategy::Evolve);

    // Warm: same bytes, and the evolve request keys a distinct cache entry
    // from the unified request with identical fields.
    let warm = client.search(&request).expect("warm evolve search");
    assert!(warm.cache_hit);
    assert_eq!(warm.payload_canonical, expected);
    handle.join();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    // Every compute stalls briefly, so a search is reliably *in flight*
    // when the shutdown op lands.
    let stalls_entered = Arc::new(AtomicU64::new(0));
    let hook = {
        let stalls_entered = Arc::clone(&stalls_entered);
        Arc::new(move |point: pte_serve::fault::FaultPoint| match point {
            pte_serve::fault::FaultPoint::Compute { .. } => {
                stalls_entered.fetch_add(1, Ordering::SeqCst);
                pte_serve::fault::FaultAction::StallMs(300)
            }
            _ => pte_serve::fault::FaultAction::None,
        })
    };
    let handle =
        serve(&ServerConfig { workers: 4, fault_hook: Some(hook), ..ServerConfig::default() })
            .expect("bind ephemeral port");
    let addr = handle.addr();

    let request = request();
    let expected = direct_in_process_payload(&request);

    // Client A: a search that will still be computing when shutdown lands.
    let in_flight = {
        let request = request.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client.search(&request).expect("in-flight search must complete through shutdown")
        })
    };
    while stalls_entered.load(Ordering::SeqCst) == 0 {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    // Client B asks for shutdown and gets an acknowledgement.
    let mut control = Client::connect(addr).expect("connect control");
    control.shutdown().expect("shutdown must be acknowledged");

    // Drain contract: the in-flight request completes and its reply is
    // delivered after the shutdown ack.
    let reply = in_flight.join().expect("in-flight client");
    assert!(!reply.cache_hit);
    assert_eq!(reply.payload_canonical, expected, "drained reply diverged");

    handle.join();

    // Once drained, the port is closed: new connections are refused.
    assert!(Client::connect(addr).is_err(), "a drained server must refuse new connections");
}

#[test]
fn an_idle_daemon_joins_at_once() {
    // Shutdown through the handle wakes the event loop: an idle daemon
    // holding a parked keep-alive connection drains without waiting for
    // any timer.
    let handle = serve(&ServerConfig::default()).expect("bind ephemeral port");
    let mut parked = Client::connect(handle.addr()).expect("connect");
    parked.ping().expect("parked ping");
    std::thread::sleep(std::time::Duration::from_millis(50));

    let started = std::time::Instant::now();
    handle.join();
    let took = started.elapsed();
    assert!(took < std::time::Duration::from_millis(100), "join took {took:?}");
    assert!(parked.ping().is_err(), "the drain must close the parked connection");
}

#[test]
fn truncated_reply_surfaces_as_io_never_a_parse_error() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    // A hand-rolled "server" that reads the request line, answers half a
    // reply with no newline, and hangs up — a reply torn mid-frame.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let mut stream = stream;
        stream.write_all(b"{\"ok\":true,\"partial").unwrap();
        // Dropping the stream closes it mid-line.
    });

    let mut client = Client::connect(addr).expect("connect");
    let err = client.round_trip("{\"op\":\"ping\"}").expect_err("truncated reply must error");
    match &err {
        pte_serve::client::ClientError::Io(io) => {
            assert_eq!(io.kind(), std::io::ErrorKind::UnexpectedEof, "{io}");
        }
        other => panic!("truncation must be Io (retryable), got: {other}"),
    }
    assert!(err.is_retryable(), "a torn reply is exactly what a retry heals");
    fake.join().unwrap();

    // Clean close *before* any reply byte is also Io, distinct kind.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        // Reply with nothing at all.
    });
    let mut client = Client::connect(addr).expect("connect");
    let err = client.round_trip("{\"op\":\"ping\"}").expect_err("silent close must error");
    match &err {
        pte_serve::client::ClientError::Io(io) => {
            assert_eq!(io.kind(), std::io::ErrorKind::ConnectionAborted, "{io}");
        }
        other => panic!("silent close must be Io, got: {other}"),
    }
    fake.join().unwrap();
}

#[test]
fn byte_level_protocol_robustness() {
    use std::io::{BufRead, BufReader, Read, Write};

    let handle = serve(&ServerConfig::default()).unwrap();
    let addr = handle.addr();

    // A request split into arbitrary byte chunks (including mid-UTF-8,
    // with a pause between them, so each half is its own read edge) must
    // still parse: the server accumulates raw bytes to the newline before
    // validating UTF-8.
    {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        let line = "{\"op\":\"ping\"}\n".as_bytes();
        let (a, b) = line.split_at(5);
        stream.write_all(a).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(250));
        stream.write_all(b).unwrap();
        let mut reply = String::new();
        BufReader::new(&stream).read_line(&mut reply).unwrap();
        assert!(reply.contains("\"ok\":true"), "split-write ping failed: {reply}");
    }

    // Invalid UTF-8 gets an error reply, not a dead connection.
    {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.write_all(b"\xff\xfe garbage \xff\n").unwrap();
        let mut reply = String::new();
        BufReader::new(&stream).read_line(&mut reply).unwrap();
        assert!(reply.contains("not valid UTF-8"), "{reply}");
    }

    // A newline-less flood is cut off at the line cap: the server answers
    // with an error and closes instead of buffering without bound.
    {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        let chunk = vec![b'x'; 1 << 16];
        let mut closed_with_error = false;
        for _ in 0..64 {
            if stream.write_all(&chunk).is_err() {
                closed_with_error = true; // server already hung up
                break;
            }
        }
        let mut reply = String::new();
        match BufReader::new(&stream).read_to_string(&mut reply) {
            Ok(_) => closed_with_error |= reply.contains("exceeds 1 MiB"),
            Err(_) => closed_with_error = true, // reset racing the flood
        }
        assert!(closed_with_error, "oversized line was not rejected: {reply:?}");
    }

    handle.join();
}

/// Bytes that formed a binary ping frame before the frame codec was
/// removed — `[0xB1][length 1][kind 0x03]` — followed by a newline. They
/// are no longer a request, so they are untrusted input like any other.
const FORMER_BINARY_PING_FRAME: &[u8] = b"\xB1\x01\x03\n";

#[test]
fn former_binary_frames_get_an_error_line_and_serving_continues() {
    use std::io::{BufRead, BufReader, Write};

    use pte_serve::router::{route, RouterConfig};

    let handle = serve(&ServerConfig { workers: 2, cache_capacity: 64, ..ServerConfig::default() })
        .expect("bind ephemeral port");
    let router =
        route(&RouterConfig { shards: vec![handle.addr().to_string()], ..RouterConfig::default() })
            .expect("bind router port");
    let request = request();
    let expected = direct_in_process_payload(&request);

    // The daemon first (the search is a cold miss), then the router in
    // front of it (the same search is a hit): each answers the stale frame
    // with an error line, then serves a JSON search on the same connection.
    for (tier, addr, hit) in [("daemon", handle.addr(), false), ("router", router.addr(), true)] {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        stream.write_all(FORMER_BINARY_PING_FRAME).expect("send former frame");
        let mut line = String::new();
        BufReader::new(stream.try_clone().expect("clone stream"))
            .read_line(&mut line)
            .expect("the stale frame must get a reply line");
        let reply = pte_serve::json::Json::parse(line.trim()).expect("error reply parses");
        assert_eq!(
            reply.get("ok").and_then(|v| v.as_bool()),
            Some(false),
            "{tier} must reject a former binary frame: {line:?}"
        );

        let mut client = Client::from_conn(Box::new(stream));
        let served = client.search(&request).expect("JSON search after the stale frame");
        assert_eq!(served.cache_hit, hit, "{tier}: unexpected cache verdict");
        assert_eq!(
            served.payload_canonical, expected,
            "{tier}: payload diverged after a former binary frame"
        );
    }
    assert!(router.state().is_conserved(), "router conservation law violated");

    router.join();
    handle.join();
}

#[test]
fn one_cache_entry_per_request_whatever_its_field_order() {
    use pte_serve::json::Json;

    let handle = serve(&ServerConfig { workers: 2, cache_capacity: 64, ..ServerConfig::default() })
        .expect("bind ephemeral port");
    let addr = handle.addr();
    let request = request();

    // Cold over one connection...
    let mut first = Client::connect(addr).expect("connect");
    let cold = first.search(&request).expect("cold search");
    assert!(!cold.cache_hit);

    // ...is warm over another, even when the request document arrives with
    // its fields reversed and padded with whitespace: the key is a content
    // hash of the canonical bytes, not of the bytes on the wire.
    let Json::Obj(mut fields) = request.to_json() else { panic!("request encodes as an object") };
    fields.reverse();
    let shuffled = Json::Obj(fields).write().expect("request has finite floats");
    let line = format!("{{ \"request\" : {shuffled} , \"op\" : \"search\" }}");
    let mut second = Client::connect(addr).expect("connect");
    let reply = Json::parse(&second.round_trip(&line).expect("raw search")).expect("reply parses");
    assert_eq!(reply.get("cache").and_then(|c| c.get("hit")).and_then(|v| v.as_bool()), Some(true));
    assert_eq!(
        reply.get("request_key").and_then(|v| v.as_str()),
        Some(cold.request_key.as_str()),
        "one request, one key"
    );
    let payload = reply.get("payload").expect("payload").write().expect("payload re-encodes");
    assert_eq!(payload, cold.payload_canonical, "payload bytes must be identical");

    let stats = first.stats().expect("stats");
    let cache = stats.get("cache").expect("cache stats");
    assert_eq!(cache.get("misses").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(cache.get("entries").and_then(|v| v.as_u64()), Some(1));

    first.shutdown().expect("shutdown ack");
    handle.join();
}

#[test]
fn warm_restart_replays_the_plan_log() {
    let store = std::env::temp_dir().join(format!(
        "pte-e2e-restart-{}-{:x}.log",
        std::process::id(),
        0xE2E2u32
    ));
    let _ = std::fs::remove_file(&store);
    let request = request();
    let expected = direct_in_process_payload(&request);

    // Incarnation 1 computes the plan and appends it to the log.
    let first = serve(&ServerConfig {
        workers: 2,
        store_path: Some(store.clone()),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let mut client = Client::connect(first.addr()).expect("connect");
    let cold = client.search(&request).expect("cold search");
    assert!(!cold.cache_hit);
    assert_eq!(cold.payload_canonical, expected);
    assert_eq!(first.state().store_appends(), 1, "the computed plan must be logged");
    assert_eq!(first.state().store_loaded(), 0, "nothing to replay on a fresh log");
    client.shutdown().expect("shutdown ack");
    first.join();

    // Incarnation 2 boots from the log: its first-ever request is already
    // a cache hit, bit-identical — on every connection.
    let second = serve(&ServerConfig {
        workers: 2,
        store_path: Some(store.clone()),
        ..ServerConfig::default()
    })
    .expect("rebind on the same log");
    assert_eq!(second.state().store_loaded(), 1, "boot must replay the logged plan");
    let mut json_client = Client::connect(second.addr()).expect("connect json");
    let warm = json_client.search(&request).expect("warm-start search");
    assert!(warm.cache_hit, "first post-restart request must hit the warm-started cache");
    assert_eq!(warm.payload_canonical, expected, "warm-start payload bytes diverged");
    let mut other_client = Client::connect(second.addr()).expect("connect second client");
    let other_warm = other_client.search(&request).expect("second warm-start search");
    assert!(other_warm.cache_hit);
    assert_eq!(other_warm.payload_canonical, expected);
    // Warm-start hits answer from the replayed entry without re-appending:
    // a crash-restart loop cannot grow the log by itself.
    assert_eq!(second.state().store_appends(), 0);
    let stats = json_client.stats().expect("stats");
    let store_stats = stats.get("store").expect("store stats");
    assert_eq!(store_stats.get("enabled").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(store_stats.get("loaded").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(store_stats.get("appends").and_then(|v| v.as_u64()), Some(0));
    json_client.shutdown().expect("shutdown ack");
    second.join();
    let _ = std::fs::remove_file(&store);
}
