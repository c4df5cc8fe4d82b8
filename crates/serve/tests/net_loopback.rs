//! End-to-end loopback: the TCP front end against a real served SDS
//! stream. The central claim is *answer identity* — a remote client and
//! an in-process `execute` call asking the same question get the same
//! bytes — plus the operational contracts: multi-client soak under live
//! ingest, every admitted connection answered while others stay
//! connected, typed errors for hostile frames, the connection cap, a
//! panic isolated to the connection it hit, and thread-clean shutdown.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use edm_common::metric::{Euclidean, Metric};
use edm_common::point::DenseVector;
use edm_core::{EdmConfig, EdmStream};
use edm_data::gen::sds::{self, SdsConfig};
use edm_serve::net::wire::{
    decode_result, encode_query, encode_result, read_frame, write_frame, FrameError, ProtocolError,
};
use edm_serve::net::{live_net_threads, NetClient, NetConfig, NetError, NetServer};
use edm_serve::{
    Assignment, EdmServer, HealthStatus, Query, QueryError, QueryResponse, ServeConfig, ServeHandle,
};

/// All tests in this binary bind servers and read the process-global
/// [`live_net_threads`] gauge; serialize them so the gauge is meaningful.
static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn sds_engine<M: Metric<DenseVector>>(metric: M) -> EdmStream<DenseVector, M> {
    // The serve_live example's SDS parameters, on the scaled-down stream.
    let cfg = EdmConfig::builder(0.3)
        .decay(edm_common::DecayModel::new(0.998, 200.0))
        .beta(3e-3)
        .rate(1_000.0)
        .recycle_horizon(5.0)
        .tau_every(128)
        .build()
        .expect("valid SDS configuration");
    EdmStream::new(cfg, metric)
}

/// Serves a scaled-down SDS stream to quiescence: ingest everything,
/// shut the serving tier down (final publish), and return the handle —
/// a frozen snapshot every query below answers deterministically from.
fn quiesced_sds_handle<M: Metric<DenseVector> + Clone + 'static>(
    metric: M,
) -> ServeHandle<DenseVector, M> {
    let server = EdmServer::spawn(
        sds_engine(metric),
        ServeConfig::builder()
            .queue_capacity(32)
            .publish_every_batches(4)
            .build()
            .expect("valid serve configuration"),
    );
    let stream = sds::generate(&SdsConfig { n: 4_000, ..Default::default() });
    let batch: Vec<(DenseVector, f64)> = stream.iter().map(|p| (p.payload.clone(), p.ts)).collect();
    for chunk in batch.chunks(64) {
        server.ingest(chunk.to_vec()).expect("Block ingest");
    }
    let handle = server.handle();
    server.shutdown().expect("clean shutdown");
    handle
}

/// Connects until the server admits the client (answers `Health`). A slot
/// comes back once the thread that held it has finished, which is just
/// after its connection closed, so a client reconnecting at the cap may be
/// refused first.
fn admitted_client(addr: SocketAddr) -> NetClient {
    let timeout = Duration::from_secs(3);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut client = NetClient::connect_with(addr, timeout, timeout, 1 << 20).expect("connect");
        match client.query(&Query::<DenseVector>::Health) {
            Ok(QueryResponse::Health(HealthStatus::Ok)) => return client,
            // Still at the cap — either the typed busy frame, or an I/O
            // error when the reject's close RSTs our already-sent
            // request before the frame is read.
            Err(NetError::Protocol(ProtocolError::Busy { .. })) | Err(NetError::Io(_)) => {
                assert!(Instant::now() < deadline, "slot never freed");
                thread::sleep(Duration::from_millis(10));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn tcp_answers_are_byte_identical_to_in_process_execute() {
    let _guard = lock();
    let handle = quiesced_sds_handle(Euclidean);
    let (oldest, latest) = handle.digest_generations().expect("evolution on by default");

    let net = NetServer::bind(handle.clone(), NetConfig::builder().build().unwrap())
        .expect("bind loopback");
    let mut client = NetClient::connect(net.local_addr()).expect("connect loopback");

    // Every deterministic query variant — including probes that hit,
    // probes that miss, a held digest window, and a typed digest
    // refusal. The snapshot is frozen, so in-process bytes are the
    // ground truth the wire must reproduce exactly.
    let queries: Vec<Query<DenseVector>> = vec![
        Query::ClusterOf { point: DenseVector::from([5.0, 0.0]) },
        Query::ClusterOf { point: DenseVector::from([-5.0, 0.0]) },
        Query::ClusterOf { point: DenseVector::from([1e6, 1e6]) },
        Query::NClusters,
        Query::DecisionGraph,
        Query::DigestSince { from: oldest },
        Query::DigestBetween { from: oldest, to: latest },
        Query::DigestSince { from: latest + 5 }, // typed FutureGeneration
        Query::Generation,
        Query::Health,
    ];
    for q in &queries {
        let local = encode_result(&Ok(handle.execute(q)));
        let remote = client.exchange(&encode_query(q)).expect("loopback exchange");
        assert_eq!(remote, local, "wire bytes diverged from in-process execute for {:?}", q.name());
    }

    // The typed client decodes those bytes back to the same values.
    match client.query(&Query::<DenseVector>::NClusters) {
        Ok(QueryResponse::NClusters(n)) => {
            assert!(n >= 1, "the served SDS snapshot holds clusters");
        }
        other => panic!("unexpected {other:?}"),
    }
    match client.query(&Query::ClusterOf { point: DenseVector::from([1e6, 1e6]) }) {
        Ok(QueryResponse::ClusterOf(Assignment::OutOfRadius { nearest, r })) => {
            assert!(nearest > r, "a probe a million units out is an outlier");
        }
        other => panic!("unexpected {other:?}"),
    }
    match client.query(&Query::<DenseVector>::DigestSince { from: latest + 5 }) {
        Err(NetError::Query(QueryError::Evolve(e))) => {
            assert_eq!(
                e,
                edm_core::EvolveError::FutureGeneration { requested: latest + 5, latest },
                "the remote refusal is the in-process refusal"
            );
        }
        other => panic!("unexpected {other:?}"),
    }
    match client.query(&Query::<DenseVector>::Health) {
        Ok(QueryResponse::Health(HealthStatus::Ok)) => {}
        other => panic!("unexpected {other:?}"),
    }

    // SnapshotAge and Stats vary with wall clock and read counters, so
    // they are bracketed instead of byte-compared.
    let age_before = handle.snapshot_age();
    let remote_age = match client.query(&Query::<DenseVector>::SnapshotAge) {
        Ok(QueryResponse::SnapshotAge(age)) => age,
        other => panic!("unexpected {other:?}"),
    };
    let age_after = handle.snapshot_age();
    assert!(age_before <= remote_age && remote_age <= age_after, "remote age inside the bracket");

    let local_stats = handle.stats();
    let remote_stats = match client.query(&Query::<DenseVector>::Stats) {
        Ok(QueryResponse::Stats(s)) => s,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(remote_stats.generation, local_stats.generation);
    assert_eq!(remote_stats.ingested_points, local_stats.ingested_points);
    assert!(remote_stats.net_queries > local_stats.net_queries, "remote reads kept counting");

    net.shutdown();
}

#[test]
fn four_clients_soak_under_live_ingest() {
    let _guard = lock();
    let server = EdmServer::spawn(
        sds_engine(Euclidean),
        ServeConfig::builder()
            .queue_capacity(8)
            .publish_every_batches(1)
            .publish_interval(Duration::from_millis(5))
            .build()
            .expect("valid serve configuration"),
    );
    let net = NetServer::bind(server.handle(), NetConfig::builder().build().unwrap())
        .expect("bind loopback");
    let addr = net.local_addr();
    let stop = Arc::new(AtomicBool::new(false));

    let clients: Vec<_> = (0..4)
        .map(|id| {
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("client connects");
                let mut last_generation = 0u64;
                let mut queries = 0u64;
                while !stop.load(SeqCst) {
                    // Generation never regresses as seen over the wire.
                    match client.query(&Query::<DenseVector>::Generation) {
                        Ok(QueryResponse::Generation(g)) => {
                            assert!(g >= last_generation, "client {id}: generation regressed");
                            last_generation = g;
                        }
                        other => panic!("client {id}: unexpected {other:?}"),
                    }
                    let probe = Query::ClusterOf { point: DenseVector::from([0.0, 0.0]) };
                    assert!(matches!(client.query(&probe), Ok(QueryResponse::ClusterOf(_))));
                    assert!(matches!(
                        client.query(&Query::<DenseVector>::NClusters),
                        Ok(QueryResponse::NClusters(_))
                    ));
                    // Digest windows slide under live publication — a
                    // typed evolve refusal is the only acceptable error.
                    match client.query(&Query::<DenseVector>::DigestSince { from: 1 }) {
                        Ok(QueryResponse::Digest(_)) => {}
                        Err(NetError::Query(QueryError::Evolve(_))) => {}
                        other => panic!("client {id}: unexpected {other:?}"),
                    }
                    assert!(matches!(
                        client.query(&Query::<DenseVector>::Health),
                        Ok(QueryResponse::Health(HealthStatus::Ok))
                    ));
                    queries += 5;
                }
                queries
            })
        })
        .collect();

    // Live ingest underneath the soak: the SDS stream in small batches.
    let stream = sds::generate(&SdsConfig { n: 6_000, ..Default::default() });
    let batch: Vec<(DenseVector, f64)> = stream.iter().map(|p| (p.payload.clone(), p.ts)).collect();
    let started = Instant::now();
    for chunk in batch.chunks(64) {
        server.ingest(chunk.to_vec()).expect("Block ingest");
        if started.elapsed() > Duration::from_secs(2) {
            break;
        }
    }

    stop.store(true, SeqCst);
    let total_queries: u64 = clients.into_iter().map(|c| c.join().expect("client ok")).sum();
    assert!(total_queries > 0, "clients made progress");

    net.shutdown();
    let handle = server.handle();
    server.shutdown().expect("clean shutdown");

    let stats = handle.stats();
    assert!(stats.net_connections >= 4, "all four clients were accepted");
    assert_eq!(stats.net_connections_rejected, 0, "under the default cap");
    assert!(stats.net_queries >= total_queries, "every wire query was counted");
    assert_eq!(stats.net_protocol_errors, 0, "well-formed clients, no protocol errors");
    assert!(stats.net_query_errors <= stats.net_queries, "errors are a subset of queries");
    assert!(!stats.poisoned);
}

#[test]
fn every_admitted_connection_is_answered_while_others_stay_connected() {
    let _guard = lock();
    let threads_before = live_net_threads();
    let net =
        NetServer::bind(quiesced_sds_handle(Euclidean), NetConfig::builder().build().unwrap())
            .expect("bind loopback");
    let connect = || {
        let timeout = Duration::from_secs(3);
        NetClient::connect_with(net.local_addr(), timeout, timeout, 1 << 20).expect("connect")
    };
    let generation = |client: &mut NetClient| {
        let answer = client.query(&Query::<DenseVector>::Generation);
        assert!(matches!(answer, Ok(QueryResponse::Generation(_))), "{answer:?}");
    };

    // Eight monitors, each answered once and left connected; a ninth
    // must still be answered at once.
    let mut held: Vec<NetClient> = (0..8).map(|_| connect()).collect();
    held.iter_mut().for_each(generation);

    let mut ninth = connect();
    let started = Instant::now();
    generation(&mut ninth);
    assert!(started.elapsed() < Duration::from_secs(1), "answered while eight others are held");
    assert_eq!(live_net_threads(), threads_before + 1 + 9, "the acceptor and one per connection");

    net.shutdown();
    assert_eq!(live_net_threads(), threads_before, "every connection thread joined");
}

#[test]
fn hostile_frames_get_typed_errors_and_the_server_survives() {
    let _guard = lock();
    let handle = quiesced_sds_handle(Euclidean);
    let net = NetServer::bind(
        handle.clone(),
        NetConfig::builder().max_frame_bytes(4096).build().unwrap(),
    )
    .expect("bind loopback");
    let addr = net.local_addr();

    // 1. Garbage payload in a well-formed frame → typed bad_json, and
    //    the connection keeps serving.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write_frame(&mut stream, b"\x00\xffnot json at all\x07").expect("send garbage");
    let reply = read_frame(&mut stream, 1 << 20).expect("typed reply");
    match decode_result(&reply) {
        Some(Err(ProtocolError::BadJson { .. })) => {}
        other => panic!("unexpected {other:?}"),
    }

    // 2. Valid JSON, unknown query → typed bad_query, same connection.
    write_frame(&mut stream, br#"{"q":"drop_all_tables"}"#).expect("send unknown");
    let reply = read_frame(&mut stream, 1 << 20).expect("typed reply");
    match decode_result(&reply) {
        Some(Err(ProtocolError::BadQuery { .. })) => {}
        other => panic!("unexpected {other:?}"),
    }

    // 3. The same connection still answers real queries after both.
    write_frame(&mut stream, &encode_query(&Query::<DenseVector>::Health)).expect("send health");
    let reply = read_frame(&mut stream, 1 << 20).expect("health reply");
    assert!(matches!(decode_result(&reply), Some(Ok(Ok(QueryResponse::Health(HealthStatus::Ok))))));

    // 4. A hostile length prefix (16 MiB declared against a 4 KiB cap)
    //    → typed oversized_frame, then the connection is closed (the
    //    declared payload cannot be skipped safely).
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    use std::io::Write as _;
    stream.write_all(&(16u32 << 20).to_be_bytes()).expect("send hostile prefix");
    stream.write_all(&[0u8; 64]).expect("send partial payload");
    let reply = read_frame(&mut stream, 1 << 20).expect("typed reply");
    match decode_result(&reply) {
        Some(Err(ProtocolError::OversizedFrame { declared, max })) => {
            assert_eq!(declared, 16 << 20);
            assert_eq!(max, 4096);
        }
        other => panic!("unexpected {other:?}"),
    }
    match read_frame(&mut stream, 1 << 20) {
        Err(FrameError::Closed) | Err(FrameError::Io(_)) => {}
        Ok(_) | Err(FrameError::Oversized { .. }) => panic!("connection must be closed"),
    }

    // 5. A fresh client still gets real answers; the abuse was counted.
    let mut client = NetClient::connect(addr).expect("fresh client");
    assert!(matches!(
        client.query(&Query::<DenseVector>::Health),
        Ok(QueryResponse::Health(HealthStatus::Ok))
    ));
    let stats = handle.stats();
    assert!(stats.net_protocol_errors >= 3, "bad_json + bad_query + oversized all counted");
    assert!(!stats.poisoned, "hostile frames never reach the writer");

    net.shutdown();
}

#[test]
fn connection_cap_rejects_with_typed_busy() {
    let _guard = lock();
    let threads_before = live_net_threads();
    let handle = quiesced_sds_handle(Euclidean);
    let net =
        NetServer::bind(handle.clone(), NetConfig::builder().max_connections(1).build().unwrap())
            .expect("bind loopback");

    // First client occupies the single slot.
    let mut first = NetClient::connect(net.local_addr()).expect("first client");
    assert!(matches!(
        first.query(&Query::<DenseVector>::Health),
        Ok(QueryResponse::Health(HealthStatus::Ok))
    ));

    // Second connection: the acceptor proactively answers one typed
    // busy frame and closes. Read without sending so the refusal is
    // never raced by an RST.
    let mut second = TcpStream::connect(net.local_addr()).expect("second connects at TCP level");
    second.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let reply = read_frame(&mut second, 1 << 20).expect("busy frame");
    match decode_result(&reply) {
        Some(Err(ProtocolError::Busy { max_connections })) => assert_eq!(max_connections, 1),
        other => panic!("unexpected {other:?}"),
    }
    // The cap bounds the threads: the acceptor and the first connection's.
    assert_eq!(live_net_threads(), threads_before + 2);

    // The slot-holder is unaffected; the rejection was counted.
    assert!(matches!(
        first.query(&Query::<DenseVector>::Generation),
        Ok(QueryResponse::Generation(_))
    ));
    let stats = handle.stats();
    assert_eq!(stats.net_connections_rejected, 1);
    assert_eq!(stats.net_connections, 1);

    // Freeing the slot readmits new clients.
    drop(first);
    let mut third = admitted_client(net.local_addr());
    assert!(matches!(
        third.query(&Query::<DenseVector>::NClusters),
        Ok(QueryResponse::NClusters(_))
    ));

    net.shutdown();
}

#[test]
fn shutdown_drains_in_flight_work_and_leaks_no_threads() {
    let _guard = lock();
    let threads_before = live_net_threads();

    let handle = quiesced_sds_handle(Euclidean);
    let net = NetServer::bind(handle.clone(), NetConfig::builder().build().unwrap())
        .expect("bind loopback");
    // The gauge is incremented by each thread as it starts; give the
    // freshly spawned acceptor a moment to come up.
    let deadline = Instant::now() + Duration::from_secs(10);
    while live_net_threads() != threads_before + 1 {
        assert!(Instant::now() < deadline, "the acceptor never came up");
        thread::sleep(Duration::from_millis(2));
    }
    let addr = net.local_addr();

    // A client parked mid-connection: it asked one question and now
    // idles, leaving its thread blocked in read_frame. Shutdown must
    // not wait out the 30 s read timeout.
    let mut parked = NetClient::connect(addr).expect("parked client");
    assert!(matches!(
        parked.query(&Query::<DenseVector>::Health),
        Ok(QueryResponse::Health(HealthStatus::Ok))
    ));

    let started = Instant::now();
    net.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "graceful shutdown must not wait out idle-connection timeouts"
    );
    assert_eq!(live_net_threads(), threads_before, "every network thread joined");

    // The parked client's next exchange fails — connection gone.
    assert!(parked.query(&Query::<DenseVector>::Health).is_err());

    // New connections are refused at the TCP level (listener closed).
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut stream) => {
            // The OS may briefly accept into a dead backlog; any actual
            // exchange must fail.
            stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let outcome = write_frame(&mut stream, &encode_query(&Query::<DenseVector>::Health))
                .and_then(|()| match read_frame(&mut stream, 1 << 20) {
                    Ok(reply) => Ok(Some(reply)),
                    Err(FrameError::Closed) => Ok(None),
                    Err(FrameError::Oversized { .. }) => Ok(None),
                    Err(FrameError::Io(e)) => Err(e),
                });
            if let Ok(Some(reply)) = outcome {
                // At most a typed shutting_down refusal, never data.
                assert!(matches!(decode_result(&reply), Some(Err(ProtocolError::ShuttingDown))));
            }
        }
    }

    // The handle itself still serves in-process — the front end is a
    // pure add-on over the serving tier.
    assert!(handle.health().is_ok());
    assert!(handle.n_clusters() >= 1);
}

/// Euclidean distance that panics on any point whose first coordinate is
/// 666: caller code failing on the thread that answers a query.
#[derive(Clone)]
struct PanicsOn666;

impl Metric<DenseVector> for PanicsOn666 {
    fn dist(&self, a: &DenseVector, b: &DenseVector) -> f64 {
        if a.coords()[0] == 666.0 || b.coords()[0] == 666.0 {
            panic!("the metric refuses 666");
        }
        Euclidean.dist(a, b)
    }

    fn name(&self) -> &'static str {
        "panics-on-666"
    }
}

#[test]
fn a_panic_answering_one_connection_ends_only_that_connection() {
    let _guard = lock();
    let threads_before = live_net_threads();
    let net = NetServer::bind(
        quiesced_sds_handle(PanicsOn666),
        NetConfig::builder().max_connections(2).build().unwrap(),
    )
    .expect("bind loopback");

    // More panics than the cap: each must close its own connection at
    // once and give its slot back.
    let poison = Query::ClusterOf { point: DenseVector::from([666.0, 0.0]) };
    for i in 0..5 {
        let mut client = admitted_client(net.local_addr());
        let started = Instant::now();
        match client.query(&poison) {
            Err(NetError::Io(_)) => {}
            other => panic!("panicking query {i}: unexpected {other:?}"),
        }
        assert!(started.elapsed() < Duration::from_secs(1), "query {i} waited out its timeout");
    }

    // Held open until the gauge is read, so its thread is still serving.
    let mut fresh = admitted_client(net.local_addr());
    let answer = fresh.query(&Query::ClusterOf { point: DenseVector::from([5.0, 0.0]) });
    assert!(matches!(answer, Ok(QueryResponse::ClusterOf(_))), "{answer:?}");
    assert_eq!(live_net_threads(), threads_before + 2, "the acceptor and the fresh connection");

    net.shutdown();
    assert_eq!(live_net_threads(), threads_before, "every network thread joined");
}
