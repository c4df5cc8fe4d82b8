//! A `ClusterOf` point must have the published members' dimensionality.
//! The distance kernels compare coordinate by coordinate and pick their
//! loop from the probe's length, so an unchecked 32-d probe against 16-d
//! seeds indexes past a seed's end (panicking the reader that served it),
//! and a 3-d or 17-d probe silently answers from the coordinates the two
//! happen to share. Every such probe must be refused with the same typed
//! error in process and over TCP, and the server must keep answering.

use std::time::Duration;

use edm_common::metric::Euclidean;
use edm_common::point::DenseVector;
use edm_core::{EdmConfig, EdmStream};
use edm_serve::net::wire::{encode_query, encode_result};
use edm_serve::net::{NetClient, NetConfig, NetError, NetServer};
use edm_serve::{
    Assignment, ClusterMiss, DimensionMismatch, EdmServer, Query, QueryError, QueryResponse,
    ServeConfig, ServeHandle,
};

const DIM: usize = 16;

/// A point of `dim` coordinates at site `site` (sites 10 apart on axis 0).
fn point(site: usize, dim: usize) -> DenseVector {
    let mut coords = vec![0.0; dim];
    coords[0] = 10.0 * site as f64;
    DenseVector::new(coords)
}

/// A served 16-d engine holding four dense sites, drained so its
/// published snapshot has members.
fn served() -> (EdmServer<DenseVector, Euclidean>, ServeHandle<DenseVector, Euclidean>) {
    let cfg = EdmConfig::builder(0.5)
        .rate(1000.0)
        .beta_for_threshold(3.0)
        .init_points(64)
        .build()
        .expect("valid test configuration");
    let mut engine = EdmStream::new(cfg, Euclidean);
    for i in 0..400 {
        let mut p = point(i % 4, DIM);
        p.coords_mut()[1] = 0.05 * ((i / 4) % 3) as f64;
        engine.insert(&p, i as f64 / 1000.0);
    }
    let server = EdmServer::spawn(engine, ServeConfig::default());
    let handle = server.handle();
    assert!(handle.latest().n_members() > 0, "the fixture publishes cluster members");
    (server, handle)
}

fn mismatch(got: usize) -> DimensionMismatch {
    DimensionMismatch { expected: DIM, got }
}

#[test]
fn in_process_probes_of_another_dimensionality_are_refused() {
    let (_server, handle) = served();
    let hit = handle.execute(&Query::ClusterOf { point: point(1, DIM) });
    assert!(matches!(hit, Ok(QueryResponse::ClusterOf(Assignment::Member { .. }))), "{hit:?}");

    // 3-d: shares no full kernel chunk with the seeds, so its distance to
    // every seed would come out 0.
    let short = point(1, 3);
    // 17-d: its first 16 coordinates sit on a member, the 17th a million
    // away — a kernel reading only the shared 16 would call it a member.
    let mut long = point(1, DIM + 1);
    long.coords_mut()[DIM] = 1e6;
    for (p, got) in [(short, 3), (long, DIM + 1)] {
        assert_eq!(
            handle.execute(&Query::ClusterOf { point: p.clone() }),
            Err(QueryError::DimensionMismatch(mismatch(got)))
        );
        assert_eq!(handle.cluster_of(&p), None);
        assert_eq!(handle.try_cluster_of(&p), Err(ClusterMiss::DimensionMismatch(mismatch(got))));
        assert_eq!(handle.latest().assign(&p, &Euclidean), Err(mismatch(got)));
    }
}

#[test]
fn tcp_probes_of_another_dimensionality_are_refused_and_readers_survive() {
    let (_server, handle) = served();
    let readers = 2;
    let net = NetServer::bind(
        handle.clone(),
        NetConfig::builder().reader_threads(readers).build().unwrap(),
    )
    .expect("bind loopback");
    let connect = || {
        NetClient::connect_with(
            net.local_addr(),
            Duration::from_secs(10),
            Duration::from_secs(10),
            1 << 20,
        )
        .expect("connect loopback")
    };

    // Twice as many oversized probes as readers, each on a fresh
    // connection: a reader that died on one would leave the pool short.
    let wide = Query::ClusterOf { point: point(1, 32) };
    let local = encode_result(&Ok(handle.execute(&wide)));
    for _ in 0..2 * readers {
        let mut client = connect();
        assert_eq!(client.exchange(&encode_query(&wide)).expect("answered"), local);
        match client.query(&wide) {
            Err(NetError::Query(QueryError::DimensionMismatch(m))) => assert_eq!(m, mismatch(32)),
            other => panic!("unexpected {other:?}"),
        }
        // The refusal leaves the connection serving.
        let valid = client.query(&Query::ClusterOf { point: point(2, DIM) });
        assert!(matches!(valid, Ok(QueryResponse::ClusterOf(Assignment::Member { .. }))));
    }

    // A fresh connection after all of them still gets an answer.
    let answer = connect().query(&Query::ClusterOf { point: point(3, DIM) });
    assert!(
        matches!(answer, Ok(QueryResponse::ClusterOf(Assignment::Member { .. }))),
        "{answer:?}"
    );
    assert!(handle.stats().net_query_errors >= 4 * readers as u64);
    net.shutdown();
}

#[test]
fn a_probe_whose_distance_overflows_gets_the_in_process_answer_over_tcp() {
    let (_server, handle) = served();
    let net = NetServer::bind(handle.clone(), NetConfig::builder().build().unwrap())
        .expect("bind loopback");
    let mut client = NetClient::connect(net.local_addr()).expect("connect loopback");

    // Finite coordinates, but the squared distance to every seed
    // overflows: the nearest distance is infinite.
    let mut far = point(0, DIM);
    far.coords_mut()[0] = 1e200;
    let q = Query::ClusterOf { point: far };
    let local = handle.execute(&q);
    assert!(
        matches!(local, Ok(QueryResponse::ClusterOf(Assignment::OutOfRadius { nearest, .. }))
            if nearest == f64::INFINITY),
        "{local:?}"
    );
    assert_eq!(
        client.exchange(&encode_query(&q)).expect("answered"),
        encode_result(&Ok(local.clone()))
    );
    assert_eq!(client.query(&q).expect("answered"), local.unwrap());

    // The connection keeps serving.
    let valid = client.query(&Query::ClusterOf { point: point(2, DIM) });
    assert!(matches!(valid, Ok(QueryResponse::ClusterOf(Assignment::Member { .. }))), "{valid:?}");
    net.shutdown();
}
