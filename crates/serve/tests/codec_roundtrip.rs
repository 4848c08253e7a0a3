//! Codec round-trip properties: for arbitrary requests and plan payloads,
//! `encode → parse → re-encode` is **byte-stable** and the parsed value
//! compares equal to the original — the contract the cache keys and the
//! end-to-end plan bit-identity stand on. Plus the malformed-input
//! rejections: truncated lines, unknown fields, and bad request keys.

use proptest::prelude::*;

use pte_serve::codec::{
    check_key, request_key, LayerPlanDoc, LayerSpec, NetworkSpec, PlanPayload, PlatformId,
    SearchRequest, StatsDoc, Strategy as SearchStrategy, PRESETS,
};

fn arb_platform() -> impl Strategy<Value = PlatformId> {
    prop::sample::select(vec![PlatformId::Cpu, PlatformId::Gpu, PlatformId::Mcpu, PlatformId::Mgpu])
}

fn arb_strategy() -> impl Strategy<Value = SearchStrategy> {
    prop::sample::select(vec![
        SearchStrategy::Unified,
        SearchStrategy::Baseline,
        SearchStrategy::Evolve,
    ])
}

/// Metric-like floats, including awkward cases (zero, negative zero via
/// negation, subnormal-ish tiny values, values needing many digits).
fn arb_metric() -> impl Strategy<Value = f64> {
    (0.0f64..1e6, any::<bool>(), any::<bool>()).prop_map(|(v, third, negate)| {
        let v = if third { v / 3.0 } else { v };
        if negate {
            -v
        } else {
            v
        }
    })
}

fn arb_layer_spec() -> impl Strategy<Value = LayerSpec> {
    (
        prop::sample::select(vec![1u64, 3, 8, 16, 64]), // c_in
        prop::sample::select(vec![1u64, 4, 16, 32]),    // c_out
        prop::sample::select(vec![1u64, 3, 5]),         // kernel
        prop::sample::select(vec![1u64, 2]),            // stride
        prop::sample::select(vec![0u64, 1, 2]),         // padding
        prop::sample::select(vec![1u64, 2, 4]),         // groups
        prop::sample::select(vec![4u64, 8, 32]),        // h = w
        any::<bool>(),                                  // mutable
        0u64..1000,                                     // name suffix
    )
        .prop_map(|(c_in, c_out, kernel, stride, padding, groups, h, mutable, tag)| {
            LayerSpec {
                name: format!("layer-{tag}"),
                c_in,
                c_out,
                kernel,
                stride,
                padding,
                groups,
                h,
                w: h,
                mutable,
            }
        })
}

fn arb_network() -> impl Strategy<Value = NetworkSpec> {
    let presets: Vec<String> = PRESETS.iter().map(|p| p.to_string()).collect();
    (
        any::<bool>(),
        prop::sample::select(presets),
        prop::collection::vec(arb_layer_spec(), 1..4),
        arb_metric(),
        prop::sample::select(vec!["cifar10".to_string(), "imagenet".to_string()]),
    )
        .prop_map(|(use_preset, preset, convs, error_like, dataset)| {
            if use_preset {
                NetworkSpec::Preset(preset)
            } else {
                NetworkSpec::Custom {
                    name: "prop-net".into(),
                    dataset,
                    classifier_in: 16,
                    base_error: error_like.abs() % 100.0,
                    convs,
                }
            }
        })
}

fn arb_request() -> impl Strategy<Value = SearchRequest> {
    (
        arb_network(),
        arb_platform(),
        arb_strategy(),
        0u64..4096,            // random_per_layer
        1u64..4096,            // trials
        0u64..u32::MAX as u64, // tune_seed
        0.0f64..0.999,         // class_tolerance
        0.0f64..0.999,         // network_tolerance
        0u64..u32::MAX as u64, // seed
    )
        .prop_map(
            |(
                network,
                platform,
                strategy,
                random_per_layer,
                trials,
                tune_seed,
                class_tolerance,
                network_tolerance,
                seed,
            )| SearchRequest {
                network,
                platform,
                strategy,
                random_per_layer,
                trials,
                tune_seed,
                class_tolerance,
                network_tolerance,
                seed,
            },
        )
}

/// Step strings drawn from the TransformStep grammar (the decoder replays
/// each through `FromStr`, so only grammatical steps are representable).
fn arb_steps() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(
        prop::sample::select(vec![
            "interchange(co,ci)".to_string(),
            "reorder(ci,co)".to_string(),
            "split(oh,2)".to_string(),
            "tile(ci,8)".to_string(),
            "unroll(kw)".to_string(),
            "vectorize(ow)".to_string(),
            "parallel(co)".to_string(),
            "prefetch(I,ci)".to_string(),
            "bind(co,blockIdx.x)".to_string(),
            "bind(oh,vthread)".to_string(),
            "bottleneck(co,4)".to_string(),
            "group(2)".to_string(),
            "depthwise".to_string(),
            "split_domain(1/2)".to_string(),
        ]),
        0..5,
    )
}

fn arb_layer_plan() -> impl Strategy<Value = LayerPlanDoc> {
    (
        arb_layer_spec(),
        1u64..20,
        arb_metric(),
        arb_metric(),
        0u64..1_000_000,
        prop::sample::select(vec![
            None,
            Some("bottleneck".to_string()),
            Some("grouped(spatial bottleneck)".to_string()),
        ]),
        prop::collection::vec(arb_steps(), 1..3),
    )
        .prop_map(
            |(layer, multiplicity, latency_ms, fisher, params, named_sequence, schedules)| {
                LayerPlanDoc {
                    layer,
                    multiplicity,
                    latency_ms: latency_ms.abs(),
                    fisher,
                    params,
                    named_sequence,
                    schedules,
                }
            },
        )
}

fn arb_payload() -> impl Strategy<Value = PlanPayload> {
    (
        arb_platform(),
        arb_strategy(),
        arb_metric(),
        arb_metric(),
        arb_metric(),
        0u64..u32::MAX as u64,
        prop::collection::vec(arb_layer_plan(), 1..4),
        (0u64..500, 0u64..500, 0u64..500, 0u64..500),
    )
        .prop_map(
            |(platform, strategy, latency_ms, fisher, original_fisher, params, layers, counts)| {
                PlanPayload {
                    network: "prop-net".into(),
                    platform,
                    strategy,
                    latency_ms: latency_ms.abs(),
                    params,
                    fisher,
                    original_fisher,
                    stats: StatsDoc {
                        attempted: counts.0 + counts.1 + counts.2 + counts.3,
                        structurally_invalid: counts.0,
                        cost_rejected: counts.1,
                        fisher_rejected: counts.2,
                        survivors: counts.3,
                        improvements: counts.3.min(7),
                    },
                    layers,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Requests: encode → parse → re-encode is byte-stable, the parsed
    /// request compares equal, and the canonical key is reproducible.
    #[test]
    fn request_round_trip_is_byte_stable(request in arb_request()) {
        let encoded = request.encode().expect("encode");
        let (parsed, canonical, key) =
            SearchRequest::parse_canonical(&encoded).expect("parse canonical");
        prop_assert_eq!(&parsed, &request, "parsed request must compare equal");
        prop_assert_eq!(&canonical, &encoded, "re-encoding must be byte-stable");
        prop_assert_eq!(&key, &request_key(&encoded));
        prop_assert!(check_key(&canonical, &key).is_ok());

        // A second round trip is a fixed point.
        let (_, canonical2, key2) = SearchRequest::parse_canonical(&canonical).expect("reparse");
        prop_assert_eq!(&canonical2, &canonical);
        prop_assert_eq!(&key2, &key);
    }

    /// Payloads: encode → parse → re-encode is byte-stable and the parsed
    /// plan compares equal (metrics to the bit: the parse goes through the
    /// shortest-round-trip float path).
    #[test]
    fn payload_round_trip_is_byte_stable(payload in arb_payload()) {
        let encoded = payload.encode().expect("encode");
        let parsed = PlanPayload::parse(&encoded).expect("parse");
        prop_assert_eq!(&parsed, &payload, "parsed payload must compare equal");
        prop_assert_eq!(parsed.latency_ms.to_bits(), payload.latency_ms.to_bits());
        prop_assert_eq!(parsed.fisher.to_bits(), payload.fisher.to_bits());
        let reencoded = parsed.encode().expect("re-encode");
        prop_assert_eq!(&reencoded, &encoded, "re-encoding must be byte-stable");
    }

    /// Truncating a request or payload anywhere strictly inside the
    /// document is a parse error, never a silent partial decode.
    #[test]
    fn truncated_documents_are_rejected(request in arb_request(), cut in 1usize..64) {
        let encoded = request.encode().expect("encode");
        let cut = encoded.len() - 1 - (cut % (encoded.len() - 1));
        // Cut at a char boundary (ASCII here, but stay robust).
        let mut truncated = &encoded[..cut];
        while !encoded.is_char_boundary(truncated.len()) {
            truncated = &truncated[..truncated.len() - 1];
        }
        prop_assert!(SearchRequest::parse_canonical(truncated).is_err());
    }

    /// Splicing an unknown field into any object of the document is a
    /// decode error (strict schemas).
    #[test]
    fn unknown_fields_are_rejected(request in arb_request()) {
        let encoded = request.encode().expect("encode");
        let spliced = encoded.replacen('{', "{\"bogus_field\":0,", 2);
        // Every replacement site is inside some schema object, and each
        // object rejects leftovers.
        prop_assert!(SearchRequest::parse_canonical(&spliced).is_err());
    }

    /// Bad request keys — wrong length, non-hex, uppercase, or simply not
    /// the content hash — are rejected by the integrity check.
    #[test]
    fn bad_keys_are_rejected(request in arb_request(), flip in 0usize..16) {
        let canonical = request.encode().expect("encode");
        let key = request_key(&canonical);
        prop_assert!(check_key(&canonical, &key).is_ok());

        // Flip one hex digit: same shape, wrong hash.
        let mut wrong: Vec<char> = key.chars().collect();
        wrong[flip] = if wrong[flip] == '0' { '1' } else { '0' };
        let wrong: String = wrong.into_iter().collect();
        prop_assert!(check_key(&canonical, &wrong).is_err());

        prop_assert!(check_key(&canonical, "").is_err());
        prop_assert!(check_key(&canonical, "zz").is_err());
        if key.to_uppercase() != key {
            prop_assert!(check_key(&canonical, &key.to_uppercase()).is_err());
        }
        prop_assert!(check_key(&canonical, &format!("{key}0")).is_err());
    }
}
