//! `EdmServer::ingest` refuses batches whose timestamps the engine would
//! refuse — NaN, ±∞, a regression inside the batch or behind an earlier
//! batch — with the offending point's index, before anything reaches the
//! writer. A debug-build writer asserts on such timestamps, so without the
//! check the server would be poisoned instead of answering the producer.

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

fn batch(times: &[f64]) -> Vec<(DenseVector, f64)> {
    times.iter().map(|&t| (DenseVector::from([0.0, 0.0]), t)).collect()
}

/// Waits until the writer has ingested `n` points in all.
fn await_ingested(server: &EdmServer<DenseVector, Euclidean>, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().ingested_points < n {
        assert!(Instant::now() < deadline, "writer stalled at {:?}", server.stats());
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The next `n` timestamps, 10 ms apart, after the clock `t`.
fn advance(t: &mut f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            *t += 0.01;
            *t
        })
        .collect()
}

#[test]
fn invalid_timestamps_are_refused_with_their_index_and_the_next_batch_is_served() {
    let server = EdmServer::spawn(engine(), ServeConfig::default());
    let mut t = 0.0;
    server.ingest(batch(&advance(&mut t, 16))).expect("a valid batch is queued");
    let mut served = 16;
    await_ingested(&server, served);

    type Times = fn(f64) -> Vec<f64>;
    type Check = fn(&EdmError) -> bool;
    let cases: [(&str, Times, usize, Check); 5] = [
        (
            "NaN",
            |t| vec![t + 0.01, t + 0.02, f64::NAN],
            2,
            |e| matches!(e, EdmError::NonFiniteTime { t } if t.is_nan()),
        ),
        (
            "+inf",
            |t| vec![f64::INFINITY, t + 0.01],
            0,
            |e| matches!(e, EdmError::NonFiniteTime { t } if *t == f64::INFINITY),
        ),
        (
            "-inf",
            |t| vec![t + 0.01, f64::NEG_INFINITY],
            1,
            |e| matches!(e, EdmError::NonFiniteTime { t } if *t == f64::NEG_INFINITY),
        ),
        (
            "regression inside the batch",
            |t| vec![t + 0.02, t + 0.03, t + 0.01],
            2,
            |e| matches!(e, EdmError::TimeRegression { .. }),
        ),
        (
            "regression behind the last batch",
            |t| vec![t - 0.05, t + 0.01],
            0,
            |e| matches!(e, EdmError::TimeRegression { .. }),
        ),
    ];
    for (name, times, want_index, check) in cases {
        let before = server.stats();
        match server.ingest(batch(&times(t))) {
            Err(ServeError::InvalidPoint { index, error }) => {
                assert_eq!(index, want_index, "{name}");
                assert!(check(&error), "{name}: {error:?}");
            }
            other => panic!("{name}: expected a refusal, got {other:?}"),
        }
        let after = server.stats();
        assert_eq!(after.ingested_points, before.ingested_points, "{name}");
        assert_eq!(after.enqueued_points, before.enqueued_points, "{name}");
        // The refusal left the clock alone: the next valid batch is served.
        server.ingest(batch(&advance(&mut t, 4))).unwrap_or_else(|e| panic!("{name}: {e}"));
        served += 4;
        await_ingested(&server, served);
        assert!(server.health().is_ok(), "{name}: writer poisoned");
    }
    // The exact payload of a regression across batches.
    assert_eq!(
        server.ingest(batch(&[t - 1.0])),
        Err(ServeError::InvalidPoint {
            index: 0,
            error: EdmError::TimeRegression { now: t, t: t - 1.0 },
        })
    );
    let engine = server.shutdown().expect("no writer panic");
    assert_eq!(engine.stats().points, served);
    assert_eq!(engine.stream_time(), t);
}

#[test]
fn the_clock_starts_at_the_engine_stream_time() {
    let mut e = engine();
    for i in 0..32 {
        e.insert(&DenseVector::from([0.0, 0.0]), 100.0 + i as f64);
    }
    let server = EdmServer::spawn(e, ServeConfig::default());
    assert!(matches!(
        server.ingest(batch(&[50.0])),
        Err(ServeError::InvalidPoint {
            index: 0,
            error: EdmError::TimeRegression { now, t },
        }) if now == 131.0 && t == 50.0
    ));
    server.ingest(batch(&[131.0, 132.0])).expect("at or after the stream time is valid");
    let engine = server.shutdown().expect("no writer panic");
    assert_eq!(engine.stats().points, 34);
}
