//! Wire-protocol properties: every typed value round-trips through its
//! encoding exactly, and no malformed input — garbage bytes, mutated
//! JSON, truncated or oversized frames — ever panics the codec. Failures
//! must always surface as typed errors; this is what lets the network
//! front end feed attacker-controlled bytes straight into the decoder.

use std::time::Duration;

use edm_common::point::DenseVector;
use edm_core::{EvolutionDigest, EvolveError, MassDrift, MergeEdge, SplitEdge};
use edm_serve::net::wire::{
    decode_query, decode_result, encode_query, encode_result, read_frame, write_frame, FrameError,
    ProtocolError, WirePoint, WireResult,
};
use edm_serve::{Assignment, HealthStatus, Query, QueryError, QueryResponse, ServeStats};
use proptest::prelude::*;

/// Builds one of the nine query variants from drawn raw material.
fn make_query(variant: usize, coords: &[f64], from: u64, to: u64) -> Query<DenseVector> {
    match variant {
        0 => Query::ClusterOf { point: DenseVector::new(coords.to_vec()) },
        1 => Query::NClusters,
        2 => Query::DecisionGraph,
        3 => Query::DigestSince { from },
        4 => Query::DigestBetween { from, to },
        5 => Query::Generation,
        6 => Query::SnapshotAge,
        7 => Query::Stats,
        _ => Query::Health,
    }
}

/// Builds a digest exercising every field from drawn raw material.
fn make_digest(ids: &[u64], masses: &[f64], t: f64) -> EvolutionDigest {
    EvolutionDigest {
        from_generation: ids.first().copied().unwrap_or(0),
        to_generation: ids.last().copied().unwrap_or(0),
        from_t: t,
        to_t: t + 1.5,
        births: ids.to_vec(),
        deaths: ids.iter().rev().copied().collect(),
        merges: vec![MergeEdge { t, from: ids.to_vec(), into: ids.first().copied().unwrap_or(1) }],
        splits: vec![SplitEdge { t, from: ids.first().copied().unwrap_or(1), into: ids.to_vec() }],
        adjustments: ids.len() as u64,
        drifts: masses
            .iter()
            .enumerate()
            .map(|(i, &m)| MassDrift { cluster: i as u64, from_mass: m, to_mass: m * 2.0 })
            .collect(),
    }
}

/// Builds a stats block from drawn counters (split across two u64s and
/// reused with offsets so every field differs).
fn make_stats(a: u64, b: u64, us: u64) -> ServeStats {
    ServeStats {
        generation: a,
        snapshot_age: Duration::from_micros(us),
        queue_depth: (b % 1024) as usize,
        queue_depth_hwm: (b % 4096) as usize,
        enqueued_points: a.wrapping_add(1),
        ingested_points: a.wrapping_add(2),
        dropped_points: b.wrapping_add(3),
        rejected_points: b.wrapping_add(4),
        reads_cluster_of: a.wrapping_add(5),
        reads_n_clusters: a.wrapping_add(6),
        reads_decision_graph: b.wrapping_add(7),
        reads_snapshot: b.wrapping_add(8),
        reads_digest: a.wrapping_add(9),
        net_connections: b.wrapping_add(10),
        net_connections_rejected: a.wrapping_add(11),
        net_queries: b.wrapping_add(12),
        net_query_errors: a.wrapping_add(13),
        net_protocol_errors: b.wrapping_add(14),
        poisoned: a & 1 == 1,
    }
}

/// Builds one of the possible wire results from drawn raw material.
fn make_result(variant: usize, coords: &[f64], ids: &[u64], a: u64, b: u64, x: f64) -> WireResult {
    match variant {
        0 => Ok(Ok(QueryResponse::ClusterOf(Assignment::Member { cluster: a, distance: x }))),
        1 => Ok(Ok(QueryResponse::ClusterOf(Assignment::EmptySnapshot))),
        2 => Ok(Ok(QueryResponse::ClusterOf(Assignment::OutOfRadius { nearest: x + 1.0, r: x }))),
        3 => Ok(Ok(QueryResponse::NClusters(a as usize))),
        4 => Ok(Ok(QueryResponse::DecisionGraph {
            rho: coords.to_vec(),
            delta: coords.iter().map(|c| c * 3.0).collect(),
        })),
        5 => Ok(Ok(QueryResponse::Digest(make_digest(ids, coords, x)))),
        6 => Ok(Ok(QueryResponse::Generation(a))),
        7 => Ok(Ok(QueryResponse::SnapshotAge(Duration::from_micros(b)))),
        8 => Ok(Ok(QueryResponse::Stats(make_stats(a, b, b % 1_000_000)))),
        9 => Ok(Ok(QueryResponse::Health(HealthStatus::Ok))),
        10 => Ok(Ok(QueryResponse::Health(HealthStatus::WriterPanicked {
            message: format!("panic {a} \"quoted\" \\ {x}"),
        }))),
        11 => Ok(Err(QueryError::Evolve(EvolveError::EventsLost { lost: a }))),
        12 => Ok(Err(QueryError::Evolve(EvolveError::UnknownCluster { cluster: a }))),
        13 => Ok(Err(QueryError::Evolve(EvolveError::NoGenerations))),
        14 => {
            Ok(Err(QueryError::Evolve(EvolveError::FutureGeneration { requested: a, latest: b })))
        }
        15 => {
            Ok(Err(QueryError::Evolve(EvolveError::EvictedGeneration { requested: a, oldest: b })))
        }
        16 => Ok(Err(QueryError::Evolve(EvolveError::InvertedWindow { from: a, to: b }))),
        17 => Ok(Err(QueryError::Evolve(EvolveError::LossyWindow { from: a, to: b, lost: 3 }))),
        18 => Err(ProtocolError::OversizedFrame { declared: a, max: b }),
        19 => Err(ProtocolError::BadJson { detail: format!("detail {a}") }),
        20 => Err(ProtocolError::BadQuery { detail: format!("tag {b:?}") }),
        21 => Err(ProtocolError::Busy { max_connections: a }),
        _ => Err(ProtocolError::ShuttingDown),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every query variant round-trips bit-exactly through the request
    /// encoding, and equal queries produce identical bytes.
    #[test]
    fn query_encoding_round_trips(
        variant in 0usize..9,
        coords in prop::collection::vec(-1e9f64..1e9, 1..8),
        from in any::<u64>(),
        to in any::<u64>(),
    ) {
        let q = make_query(variant, &coords, from, to);
        let encoded = encode_query(&q);
        let decoded: Query<DenseVector> = decode_query(&encoded).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &q);
        prop_assert_eq!(encode_query(&decoded), encoded);
    }

    /// Every response / query-error / protocol-error shape round-trips
    /// bit-exactly through the response encoding, u64 extremes included.
    #[test]
    fn result_encoding_round_trips(
        variant in 0usize..23,
        coords in prop::collection::vec(-1e9f64..1e9, 1..6),
        ids in prop::collection::vec(any::<u64>(), 1..5),
        a in any::<u64>(),
        b in any::<u64>(),
        x in 0.0f64..1e6,
    ) {
        let r = make_result(variant, &coords, &ids, a, b, x);
        let encoded = encode_result(&r);
        let decoded = decode_result(&encoded).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &r);
        prop_assert_eq!(encode_result(&decoded), encoded);
    }

    /// Arbitrary bytes fed to the request decoder never panic — they
    /// produce a typed protocol error (or, vanishingly, a valid query).
    #[test]
    fn garbage_requests_yield_typed_errors(
        bytes in prop::collection::vec(0u8..255, 0..256),
    ) {
        match decode_query::<DenseVector>(&bytes) {
            Ok(_) => {} // the monkeys typed a real query; fine
            Err(e) => {
                let code = e.code();
                prop_assert!(code == "bad_json" || code == "bad_query");
                prop_assert!(!e.to_string().is_empty());
            }
        }
        // The response decoder likewise survives anything.
        let _ = decode_result(&bytes);
    }

    /// Mutating one byte of a valid request never panics the decoder.
    #[test]
    fn mutated_requests_never_panic(
        variant in 0usize..9,
        coords in prop::collection::vec(-100.0f64..100.0, 1..4),
        from in any::<u64>(),
        to in any::<u64>(),
        pos in any::<usize>(),
        replacement in 0u8..255,
    ) {
        let mut encoded = encode_query(&make_query(variant, &coords, from, to));
        let at = pos % encoded.len();
        encoded[at] = replacement;
        let _ = decode_query::<DenseVector>(&encoded); // must not panic
    }

    /// Truncating a valid frame at any point yields a typed frame error,
    /// and hostile length prefixes are refused before allocation.
    #[test]
    fn truncated_and_oversized_frames_are_typed(
        cut in any::<usize>(),
        declared in 1024u64..u32::MAX as u64,
    ) {
        let payload = encode_query(&Query::<DenseVector>::Stats);
        let mut frame = Vec::new();
        write_frame(&mut frame, &payload).unwrap();

        // Truncation: every proper prefix fails typed, never panics.
        let at = cut % frame.len(); // strictly shorter than the frame
        let truncated = &frame[..at];
        match read_frame(&mut &truncated[..], 1 << 20) {
            Err(FrameError::Closed) => prop_assert_eq!(at, 0),
            Err(FrameError::Io(_)) => prop_assert!(at > 0),
            Err(FrameError::Oversized { .. }) => prop_assert!(false, "valid prefix within cap"),
            Ok(_) => prop_assert!(false, "truncated frame cannot parse"),
        }

        // A length prefix beyond the cap is refused with the declared
        // size echoed back, without touching the payload.
        let cap = 1023usize;
        let mut hostile = (declared as u32).to_be_bytes().to_vec();
        hostile.extend_from_slice(&[0u8; 8]); // far less than declared
        match read_frame(&mut &hostile[..], cap) {
            Err(FrameError::Oversized { declared: got }) => {
                prop_assert_eq!(got, declared);
            }
            other => prop_assert!(false, "expected Oversized, got {:?}", other.is_ok()),
        }
    }
}

/// The round-trip property extends to the `WirePoint` payload contract:
/// what a client sends is what the server probes with.
#[test]
fn dense_vector_survives_the_wire_exactly() {
    let p = DenseVector::new(vec![f64::MIN_POSITIVE, -0.0, 1.0 / 3.0, 6.02214076e23]);
    let q: Query<DenseVector> = Query::ClusterOf { point: p.clone() };
    let decoded: Query<DenseVector> = decode_query(&encode_query(&q)).unwrap();
    match decoded {
        Query::ClusterOf { point } => assert_eq!(point.coords(), p.coords()),
        other => panic!("wrong variant {:?}", other.name()),
    }
    // Non-finite coordinates cannot cross: JSON has no NaN/Inf tokens,
    // so the encoder nulls them and the decoder refuses the probe.
    let bad = encode_query(&Query::ClusterOf { point: DenseVector::new(vec![f64::NAN]) });
    assert!(decode_query::<DenseVector>(&bad).is_err());
    assert_eq!(DenseVector::from_wire(vec![]), None);
}
