//! Codec contract tests: the encoder's exact bytes, linear decoding cost,
//! and strings that mix bulk-copied runs with escapes.
//!
//! The golden payloads below were produced by the tree-building encoder
//! this codec replaced; the wire format is a protocol, so every query
//! kind and every result shape must keep encoding to exactly these bytes.

use std::time::{Duration, Instant};

use edm_common::point::DenseVector;
use edm_core::{EvolutionDigest, MassDrift};
use edm_serve::net::json::Document;
use edm_serve::net::wire::{
    decode_query, decode_result, encode_query, encode_result, ProtocolError, WireResult,
};
use edm_serve::{DimensionMismatch, HealthStatus, Query, QueryError, QueryResponse};
use proptest::prelude::*;

/// Every request shape, with coordinates that exercise each float format
/// (`{:?}` decimal and exponent forms, signed zero, extremes, non-finite).
fn golden_queries() -> Vec<(&'static str, Query<DenseVector>)> {
    let coords = vec![
        0.5,
        -1.0,
        0.1,
        1e-7,
        1.5e16,
        -0.0,
        123456789.125,
        f64::MIN_POSITIVE,
        f64::MAX,
        1e15,
        0.0001,
        2.0 / 3.0,
        -2.5e-300,
        f64::NAN,
        f64::NEG_INFINITY,
    ];
    vec![
        ("cluster_of", Query::ClusterOf { point: DenseVector::new(coords) }),
        ("n_clusters", Query::NClusters),
        ("decision_graph", Query::DecisionGraph),
        ("digest_since", Query::DigestSince { from: 7 }),
        ("digest_between", Query::DigestBetween { from: 3, to: u64::MAX }),
        ("generation", Query::Generation),
        ("snapshot_age", Query::SnapshotAge),
        ("stats", Query::Stats),
        ("health", Query::Health),
    ]
}

/// A message with every escape class next to multi-byte UTF-8.
const TRICKY: &str = "boom \"quoted\" \\ back/slash\nline\ttab\r\u{1}\u{1f}\u{7f} é 中 😀 end";

/// Every response, query-error and protocol-error shape.
fn golden_results() -> Vec<(&'static str, WireResult)> {
    use edm_core::{EvolveError, MergeEdge, SplitEdge};
    use edm_serve::{Assignment, ServeStats};
    let digest = EvolutionDigest {
        from_generation: 1,
        to_generation: 5,
        from_t: 0.5,
        to_t: 9.25,
        births: vec![4, 5],
        deaths: vec![1],
        merges: vec![MergeEdge { t: 1.5, from: vec![1, 2], into: 3 }],
        splits: vec![SplitEdge { t: 2.5, from: 3, into: vec![4, 5] }],
        adjustments: 17,
        drifts: vec![
            MassDrift { cluster: 3, from_mass: 1.25, to_mass: 8.5 },
            MassDrift { cluster: u64::MAX, from_mass: 1e-9, to_mass: 3e20 },
        ],
    };
    let empty_digest = EvolutionDigest {
        from_generation: 9,
        to_generation: 9,
        from_t: 0.0,
        to_t: 0.0,
        births: vec![],
        deaths: vec![],
        merges: vec![],
        splits: vec![],
        adjustments: 0,
        drifts: vec![],
    };
    let stats = ServeStats {
        generation: 11,
        snapshot_age: Duration::from_micros(1_234_567),
        queue_depth: 2,
        queue_depth_hwm: 31,
        enqueued_points: 1000,
        ingested_points: 998,
        dropped_points: 1,
        rejected_points: 0,
        reads_cluster_of: u64::MAX,
        reads_n_clusters: 5,
        reads_decision_graph: 6,
        reads_snapshot: 7,
        reads_digest: 8,
        net_connections: 9,
        net_connections_rejected: 10,
        net_queries: 12,
        net_query_errors: 13,
        net_protocol_errors: 14,
        poisoned: true,
    };
    let evolve = |e: EvolveError| -> WireResult { Ok(Err(QueryError::Evolve(e))) };
    vec![
        (
            "member",
            Ok(Ok(QueryResponse::ClusterOf(Assignment::Member { cluster: 3, distance: 0.25 }))),
        ),
        (
            "member_extreme",
            Ok(Ok(QueryResponse::ClusterOf(Assignment::Member {
                cluster: u64::MAX,
                distance: 1e-300,
            }))),
        ),
        ("empty_snapshot", Ok(Ok(QueryResponse::ClusterOf(Assignment::EmptySnapshot)))),
        (
            "out_of_radius",
            Ok(Ok(QueryResponse::ClusterOf(Assignment::OutOfRadius { nearest: 9.5, r: 0.5 }))),
        ),
        ("n_clusters", Ok(Ok(QueryResponse::NClusters(42)))),
        (
            "decision_graph",
            Ok(Ok(QueryResponse::DecisionGraph {
                rho: vec![1.0, 2.5, 1e20, 0.1],
                delta: vec![0.5, f64::INFINITY, f64::NAN, 7e-5],
            })),
        ),
        (
            "decision_graph_empty",
            Ok(Ok(QueryResponse::DecisionGraph { rho: vec![], delta: vec![] })),
        ),
        ("digest", Ok(Ok(QueryResponse::Digest(digest)))),
        ("digest_empty", Ok(Ok(QueryResponse::Digest(empty_digest)))),
        ("generation", Ok(Ok(QueryResponse::Generation(u64::MAX)))),
        ("snapshot_age", Ok(Ok(QueryResponse::SnapshotAge(Duration::from_micros(1234))))),
        ("stats", Ok(Ok(QueryResponse::Stats(stats)))),
        ("health_ok", Ok(Ok(QueryResponse::Health(HealthStatus::Ok)))),
        (
            "health_panicked",
            Ok(Ok(QueryResponse::Health(HealthStatus::WriterPanicked { message: TRICKY.into() }))),
        ),
        ("evolution_disabled", evolve(EvolveError::EvolutionDisabled)),
        ("events_lost", evolve(EvolveError::EventsLost { lost: 12 })),
        ("unknown_cluster", evolve(EvolveError::UnknownCluster { cluster: 77 })),
        ("no_generations", evolve(EvolveError::NoGenerations)),
        ("future_generation", evolve(EvolveError::FutureGeneration { requested: 9, latest: 4 })),
        ("evicted_generation", evolve(EvolveError::EvictedGeneration { requested: 1, oldest: 3 })),
        ("inverted_window", evolve(EvolveError::InvertedWindow { from: 8, to: 2 })),
        ("lossy_window", evolve(EvolveError::LossyWindow { from: 2, to: 8, lost: 5 })),
        ("oversized_frame", Err(ProtocolError::OversizedFrame { declared: 1 << 40, max: 1 << 20 })),
        ("bad_json", Err(ProtocolError::BadJson { detail: TRICKY.into() })),
        ("bad_query", Err(ProtocolError::BadQuery { detail: "unknown query \"x\"".into() })),
        ("busy", Err(ProtocolError::Busy { max_connections: 64 })),
        ("shutting_down", Err(ProtocolError::ShuttingDown)),
    ]
}

/// Captured from the encoder this codec replaced.
const GOLDEN_QUERIES: &[(&str, &str)] = &[
    ("cluster_of", "{\"q\":\"cluster_of\",\"point\":[0.5,-1.0,0.1,1e-7,1.5e16,-0.0,123456789.125,2.2250738585072014e-308,1.7976931348623157e308,1000000000000000.0,0.0001,0.6666666666666666,-2.5e-300,null,null]}"),
    ("n_clusters", "{\"q\":\"n_clusters\"}"),
    ("decision_graph", "{\"q\":\"decision_graph\"}"),
    ("digest_since", "{\"q\":\"digest_since\",\"from\":7}"),
    ("digest_between", "{\"q\":\"digest_between\",\"from\":3,\"to\":18446744073709551615}"),
    ("generation", "{\"q\":\"generation\"}"),
    ("snapshot_age", "{\"q\":\"snapshot_age\"}"),
    ("stats", "{\"q\":\"stats\"}"),
    ("health", "{\"q\":\"health\"}"),
];

/// Captured from the encoder this codec replaced.
const GOLDEN_RESULTS: &[(&str, &str)] = &[
    ("member", "{\"ok\":{\"resp\":\"cluster_of\",\"outcome\":{\"kind\":\"member\",\"cluster\":3,\"distance\":0.25}}}"),
    ("member_extreme", "{\"ok\":{\"resp\":\"cluster_of\",\"outcome\":{\"kind\":\"member\",\"cluster\":18446744073709551615,\"distance\":1e-300}}}"),
    ("empty_snapshot", "{\"ok\":{\"resp\":\"cluster_of\",\"outcome\":{\"kind\":\"empty_snapshot\"}}}"),
    ("out_of_radius", "{\"ok\":{\"resp\":\"cluster_of\",\"outcome\":{\"kind\":\"out_of_radius\",\"nearest\":9.5,\"r\":0.5}}}"),
    ("n_clusters", "{\"ok\":{\"resp\":\"n_clusters\",\"n\":42}}"),
    ("decision_graph", "{\"ok\":{\"resp\":\"decision_graph\",\"rho\":[1.0,2.5,1e20,0.1],\"delta\":[0.5,null,null,7e-5]}}"),
    ("decision_graph_empty", "{\"ok\":{\"resp\":\"decision_graph\",\"rho\":[],\"delta\":[]}}"),
    ("digest", "{\"ok\":{\"resp\":\"digest\",\"digest\":{\"from_generation\":1,\"to_generation\":5,\"from_t\":0.5,\"to_t\":9.25,\"births\":[4,5],\"deaths\":[1],\"merges\":[{\"t\":1.5,\"from\":[1,2],\"into\":3}],\"splits\":[{\"t\":2.5,\"from\":3,\"into\":[4,5]}],\"adjustments\":17,\"drifts\":[{\"cluster\":3,\"from_mass\":1.25,\"to_mass\":8.5},{\"cluster\":18446744073709551615,\"from_mass\":1e-9,\"to_mass\":3e20}]}}}"),
    ("digest_empty", "{\"ok\":{\"resp\":\"digest\",\"digest\":{\"from_generation\":9,\"to_generation\":9,\"from_t\":0.0,\"to_t\":0.0,\"births\":[],\"deaths\":[],\"merges\":[],\"splits\":[],\"adjustments\":0,\"drifts\":[]}}}"),
    ("generation", "{\"ok\":{\"resp\":\"generation\",\"generation\":18446744073709551615}}"),
    ("snapshot_age", "{\"ok\":{\"resp\":\"snapshot_age\",\"micros\":1234}}"),
    ("stats", "{\"ok\":{\"resp\":\"stats\",\"stats\":{\"generation\":11,\"snapshot_age_us\":1234567,\"queue_depth\":2,\"queue_depth_hwm\":31,\"enqueued_points\":1000,\"ingested_points\":998,\"dropped_points\":1,\"rejected_points\":0,\"reads_cluster_of\":18446744073709551615,\"reads_n_clusters\":5,\"reads_decision_graph\":6,\"reads_snapshot\":7,\"reads_digest\":8,\"net_connections\":9,\"net_connections_rejected\":10,\"net_queries\":12,\"net_query_errors\":13,\"net_protocol_errors\":14,\"poisoned\":true}}}"),
    ("health_ok", "{\"ok\":{\"resp\":\"health\",\"ok\":true}}"),
    ("health_panicked", "{\"ok\":{\"resp\":\"health\",\"ok\":false,\"message\":\"boom \\\"quoted\\\" \\\\ back/slash\\nline\\ttab\\r\\u0001\\u001f\u{7f} é 中 😀 end\"}}"),
    ("evolution_disabled", "{\"err\":{\"code\":\"evolve\",\"evolve\":{\"kind\":\"evolution_disabled\"}}}"),
    ("events_lost", "{\"err\":{\"code\":\"evolve\",\"evolve\":{\"kind\":\"events_lost\",\"lost\":12}}}"),
    ("unknown_cluster", "{\"err\":{\"code\":\"evolve\",\"evolve\":{\"kind\":\"unknown_cluster\",\"cluster\":77}}}"),
    ("no_generations", "{\"err\":{\"code\":\"evolve\",\"evolve\":{\"kind\":\"no_generations\"}}}"),
    ("future_generation", "{\"err\":{\"code\":\"evolve\",\"evolve\":{\"kind\":\"future_generation\",\"requested\":9,\"latest\":4}}}"),
    ("evicted_generation", "{\"err\":{\"code\":\"evolve\",\"evolve\":{\"kind\":\"evicted_generation\",\"requested\":1,\"oldest\":3}}}"),
    ("inverted_window", "{\"err\":{\"code\":\"evolve\",\"evolve\":{\"kind\":\"inverted_window\",\"from\":8,\"to\":2}}}"),
    ("lossy_window", "{\"err\":{\"code\":\"evolve\",\"evolve\":{\"kind\":\"lossy_window\",\"from\":2,\"to\":8,\"lost\":5}}}"),
    ("oversized_frame", "{\"err\":{\"code\":\"oversized_frame\",\"message\":\"frame of 1099511627776 bytes exceeds the 1048576-byte cap\",\"declared\":1099511627776,\"max\":1048576}}"),
    ("bad_json", "{\"err\":{\"code\":\"bad_json\",\"message\":\"payload is not valid JSON: boom \\\"quoted\\\" \\\\ back/slash\\nline\\ttab\\r\\u0001\\u001f\u{7f} é 中 😀 end\",\"detail\":\"boom \\\"quoted\\\" \\\\ back/slash\\nline\\ttab\\r\\u0001\\u001f\u{7f} é 中 😀 end\"}}"),
    ("bad_query", "{\"err\":{\"code\":\"bad_query\",\"message\":\"not a known query: unknown query \\\"x\\\"\",\"detail\":\"unknown query \\\"x\\\"\"}}"),
    ("busy", "{\"err\":{\"code\":\"busy\",\"message\":\"server at its 64-connection cap\",\"max_connections\":64}}"),
    ("shutting_down", "{\"err\":{\"code\":\"shutting_down\",\"message\":\"server is shutting down\"}}"),
];

#[test]
fn every_query_kind_encodes_to_its_golden_bytes() {
    let queries = golden_queries();
    assert_eq!(queries.len(), GOLDEN_QUERIES.len());
    for ((name, q), (golden_name, golden)) in queries.iter().zip(GOLDEN_QUERIES) {
        assert_eq!(name, golden_name);
        assert_eq!(String::from_utf8(encode_query(q)).unwrap(), *golden, "query {name}");
    }
}

#[test]
fn every_result_shape_encodes_to_its_golden_bytes() {
    let results = golden_results();
    assert_eq!(results.len(), GOLDEN_RESULTS.len());
    for ((name, r), (golden_name, golden)) in results.iter().zip(GOLDEN_RESULTS) {
        assert_eq!(name, golden_name);
        assert_eq!(String::from_utf8(encode_result(r)).unwrap(), *golden, "result {name}");
    }
}

#[test]
fn golden_payloads_decode_and_re_encode_to_themselves() {
    // Payloads without non-finite floats decode back to values that
    // re-encode to the same bytes (`null` has no float to decode to).
    for (name, golden) in GOLDEN_QUERIES.iter().filter(|(_, g)| !g.contains("null")) {
        let q: Query<DenseVector> = decode_query(golden.as_bytes()).expect(name);
        assert_eq!(encode_query(&q), golden.as_bytes(), "query {name}");
    }
    for (name, golden) in GOLDEN_RESULTS.iter().filter(|(_, g)| !g.contains("null")) {
        let r = decode_result(golden.as_bytes()).expect(name);
        assert_eq!(encode_result(&r), golden.as_bytes(), "result {name}");
    }
}

#[test]
fn dimension_mismatch_has_its_own_wire_code() {
    let r: WireResult =
        Ok(Err(QueryError::DimensionMismatch(DimensionMismatch { expected: 16, got: 32 })));
    let enc = encode_result(&r);
    assert_eq!(enc, br#"{"err":{"code":"dimension_mismatch","expected":16,"got":32}}"#);
    assert_eq!(decode_result(&enc), Some(r));
}

#[test]
fn an_overflowed_nearest_distance_round_trips_as_infinity() {
    use edm_serve::Assignment;
    // A finite probe far enough out overflows the squared distance, and
    // the infinite `nearest` crosses the wire as `null`.
    let r: WireResult = Ok(Ok(QueryResponse::ClusterOf(Assignment::OutOfRadius {
        nearest: f64::INFINITY,
        r: 0.5,
    })));
    let enc = encode_result(&r);
    assert_eq!(
        enc,
        br#"{"ok":{"resp":"cluster_of","outcome":{"kind":"out_of_radius","nearest":null,"r":0.5}}}"#
    );
    assert_eq!(decode_result(&enc), Some(r));
}

/// Decoding must stay linear in the frame's bytes: a frame at the default
/// 1 MiB cap decodes in milliseconds. The bound is generous (a quadratic
/// decoder takes seconds to minutes here, even in release builds).
const LINEAR_BOUND: Duration = Duration::from_secs(1);

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

#[test]
fn a_string_frame_at_the_cap_decodes_in_linear_time() {
    const CAP: usize = 1 << 20;
    for unit in ["a", "é", "中", "😀", "\\u00e9"] {
        let prefix = br#"{"q":""#;
        let n = (CAP - prefix.len() - 2) / unit.len();
        let mut frame = prefix.to_vec();
        frame.extend(unit.as_bytes().iter().copied().cycle().take(n * unit.len()));
        frame.extend_from_slice(br#""}"#);
        assert!(frame.len() <= CAP);
        let (decoded, took) = timed(|| decode_query::<DenseVector>(&frame));
        assert!(matches!(decoded, Err(ProtocolError::BadQuery { .. })), "{unit}: {decoded:?}");
        assert!(took < LINEAR_BOUND, "{unit}: a 1 MiB string frame took {took:?}");
    }
}

#[test]
fn a_digest_with_thousands_of_drifts_decodes_in_linear_time() {
    let drifts = (0..8_192)
        .map(|c| MassDrift { cluster: c, from_mass: c as f64 * 0.5, to_mass: 1.0 / (c + 1) as f64 })
        .collect();
    let digest = EvolutionDigest {
        from_generation: 1,
        to_generation: 9,
        from_t: 0.0,
        to_t: 8.0,
        births: (0..512).collect(),
        deaths: vec![],
        merges: vec![],
        splits: vec![],
        adjustments: 3,
        drifts,
    };
    let r: WireResult = Ok(Ok(QueryResponse::Digest(digest)));
    let (enc, took) = timed(|| encode_result(&r));
    assert!(took < LINEAR_BOUND, "encoding took {took:?}");
    let (back, took) = timed(|| decode_result(&enc));
    assert!(took < LINEAR_BOUND, "decoding a {}-byte digest took {took:?}", enc.len());
    assert_eq!(back, Some(r));
}

/// Characters drawn for strings: ASCII runs, characters that must be
/// escaped, and one- to four-byte UTF-8.
const PALETTE: &[char] = &[
    'a',
    'b',
    'z',
    ' ',
    '/',
    '"',
    '\\',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{1f}',
    '\u{7f}',
    'é',
    'ß',
    '中',
    '\u{ffff}',
    '😀',
    '\u{10ffff}',
];

fn draw_string(picks: &[usize]) -> String {
    picks.iter().map(|&i| PALETTE[i % PALETTE.len()]).collect()
}

/// The JSON spelling of `c` as a `\u` escape (a surrogate pair above the
/// basic plane).
fn u_escape(c: char) -> String {
    let mut units = [0u16; 2];
    c.encode_utf16(&mut units).iter().map(|u| format!("\\u{u:04X}")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Strings mixing plain runs, escapes and multi-byte characters
    /// round-trip exactly through the places the protocol carries text.
    #[test]
    fn strings_round_trip_through_every_text_field(
        picks in prop::collection::vec(0usize..64, 0..48),
    ) {
        let s = draw_string(&picks);
        for r in [
            Ok(Ok(QueryResponse::Health(HealthStatus::WriterPanicked { message: s.clone() }))),
            Err(ProtocolError::BadJson { detail: s.clone() }),
            Err(ProtocolError::BadQuery { detail: s.clone() }),
        ] {
            let enc = encode_result(&r);
            prop_assert!(std::str::from_utf8(&enc).is_ok());
            let back = decode_result(&enc);
            prop_assert_eq!(back.as_ref(), Some(&r));
            prop_assert_eq!(encode_result(&back.unwrap()), enc);
        }
    }

    /// `\u` escapes (surrogate pairs included) interleaved with raw runs
    /// decode to the same text as the raw characters.
    #[test]
    fn u_escapes_next_to_raw_runs_decode_exactly(
        picks in prop::collection::vec(0usize..64, 1..32),
        escaped in prop::collection::vec(any::<bool>(), 32),
    ) {
        let s = draw_string(&picks);
        let mut json = String::from("\"");
        for (c, esc) in s.chars().zip(escaped.iter().cycle()) {
            if *esc || c < ' ' || c == '"' || c == '\\' {
                json.push_str(&u_escape(c));
            } else {
                json.push(c);
            }
        }
        json.push('"');
        let doc = Document::parse(json.as_bytes()).map_err(|e| e.to_string())?;
        prop_assert_eq!(doc.root().as_str(), Some(s.as_str()));
    }

    /// A text frame cut anywhere, or with one byte replaced (splitting a
    /// multi-byte character or an escape), never panics the decoder, and
    /// whatever still decodes is a stable value: it re-encodes to a frame
    /// that decodes to it again.
    #[test]
    fn damaged_text_frames_never_panic(
        picks in prop::collection::vec(0usize..64, 1..24),
        cut in any::<usize>(),
        byte in 0u8..255,
    ) {
        let r: WireResult = Err(ProtocolError::BadJson { detail: draw_string(&picks) });
        let enc = encode_result(&r);
        prop_assert_eq!(decode_result(&enc[..cut % enc.len()]), None);
        let mut damaged = enc.clone();
        damaged[cut % enc.len()] = byte;
        if let Some(back) = decode_result(&damaged) {
            prop_assert_eq!(decode_result(&encode_result(&back)), Some(back));
        }
    }
}
