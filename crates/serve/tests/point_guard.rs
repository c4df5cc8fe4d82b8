//! `EdmServer::ingest` refuses batches holding a point the engine would
//! refuse for its coordinates: a point of another dimensionality than the
//! stream's, or one with a NaN or infinite coordinate. Without the check
//! a 16-d point reaching a 2-d writer panics it inside the distance kernel
//! (poisoning every later ingest), and a NaN coordinate founds a cell no
//! later point can ever be absorbed by.

use std::time::{Duration, Instant};

use edm_common::metric::Euclidean;
use edm_common::point::DenseVector;
use edm_core::{EdmConfig, EdmError, EdmStream};
use edm_serve::{EdmServer, ServeConfig, ServeError};

fn engine() -> EdmStream<DenseVector, Euclidean> {
    let cfg = EdmConfig::builder(1.0)
        .rate(100.0)
        .beta_for_threshold(3.0)
        .init_points(8)
        .build()
        .expect("valid test configuration");
    EdmStream::new(cfg, Euclidean)
}

/// Waits until the writer has ingested `n` points in all.
fn await_ingested(server: &EdmServer<DenseVector, Euclidean>, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().ingested_points < n {
        assert!(Instant::now() < deadline, "writer stalled at {:?}", server.stats());
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// `coords` at the next `n` timestamps, 10 ms apart, after the clock `t`.
fn batch(t: &mut f64, n: usize, coords: &[f64]) -> Vec<(DenseVector, f64)> {
    (0..n)
        .map(|_| {
            *t += 0.01;
            (DenseVector::from(coords), *t)
        })
        .collect()
}

/// Ingests a batch whose point at `index` is `bad`, expects the refusal
/// `want`, and checks that nothing of it reached the writer and that the
/// next valid batch is served.
fn refuse(
    server: &EdmServer<DenseVector, Euclidean>,
    t: &mut f64,
    served: &mut u64,
    index: usize,
    bad: &[f64],
    want: EdmError,
) {
    let before = server.stats();
    let mut refused = batch(t, 4, &[0.0, 0.0]);
    refused[index].0 = DenseVector::from(bad);
    assert_eq!(server.ingest(refused), Err(ServeError::InvalidPoint { index, error: want }));
    let after = server.stats();
    assert_eq!(after.ingested_points, before.ingested_points, "{want:?}");
    assert_eq!(after.enqueued_points, before.enqueued_points, "{want:?}");
    server.ingest(batch(t, 4, &[0.0, 0.0])).unwrap_or_else(|e| panic!("{want:?}: {e}"));
    *served += 4;
    await_ingested(server, *served);
    assert_eq!(server.health(), Ok(()), "{want:?}: writer poisoned");
}

#[test]
fn points_of_another_dimensionality_are_refused_and_the_writer_stays_healthy() {
    let server = EdmServer::spawn(engine(), ServeConfig::default());
    let mut t = 0.0;
    server.ingest(batch(&mut t, 16, &[0.0, 0.0])).expect("a valid batch is queued");
    let mut served = 16;
    await_ingested(&server, served);
    let mismatch = |got| EdmError::DimensionMismatch { expected: 2, got };
    refuse(&server, &mut t, &mut served, 1, &[0.5; 16], mismatch(16));
    refuse(&server, &mut t, &mut served, 3, &[0.5], mismatch(1));
    refuse(&server, &mut t, &mut served, 0, &[], mismatch(0));
    let engine = server.shutdown().expect("no writer panic");
    assert_eq!(engine.stats().points, served);
    assert_eq!(engine.dimension(), Some(2));
    engine.check_invariants(t).expect("engine invariants hold");
}

#[test]
fn non_finite_coordinates_are_refused_and_found_no_cells() {
    let server = EdmServer::spawn(engine(), ServeConfig::default());
    let mut t = 0.0;
    server.ingest(batch(&mut t, 16, &[0.0, 0.0])).expect("a valid batch is queued");
    let mut served = 16;
    await_ingested(&server, served);
    let axis = |axis| EdmError::NonFiniteCoordinate { axis };
    refuse(&server, &mut t, &mut served, 2, &[f64::NAN, 0.0], axis(0));
    refuse(&server, &mut t, &mut served, 0, &[0.0, f64::INFINITY], axis(1));
    refuse(&server, &mut t, &mut served, 3, &[f64::NEG_INFINITY, f64::NAN], axis(0));
    let engine = server.shutdown().expect("no writer panic");
    assert_eq!(engine.stats().points, served);
    assert_eq!(engine.n_cells(), 1, "only the valid site founded a cell");
}

#[test]
fn a_fresh_engine_takes_its_dimensionality_from_the_first_queued_point() {
    let server = EdmServer::spawn(engine(), ServeConfig::default());
    let mut t = 0.0;
    server.ingest(batch(&mut t, 2, &[0.0, 0.0, 0.0])).expect("the first batch sets 3-d");
    // The writer may not have seen the first batch yet: the queue holds
    // later points to the count it queued.
    assert_eq!(
        server.ingest(batch(&mut t, 1, &[0.0, 0.0])),
        Err(ServeError::InvalidPoint {
            index: 0,
            error: EdmError::DimensionMismatch { expected: 3, got: 2 },
        })
    );
    server.ingest(batch(&mut t, 2, &[1.0, 0.0, 0.0])).expect("3-d points are served");
    await_ingested(&server, 4);
    assert_eq!(server.health(), Ok(()));
    let engine = server.shutdown().expect("no writer panic");
    assert_eq!(engine.dimension(), Some(3));
}
