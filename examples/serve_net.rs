//! Network serving demo: the SDS stream ingested through the serving
//! tier while a TCP client queries it over loopback — §6.3.1's remote
//! monitoring application as a running program.
//!
//! The server side is three lines on top of `serve_live`: bind a
//! [`NetServer`] to a [`ServeHandle`] and every published snapshot is
//! queryable over the wire. The client side here uses the bundled
//! [`NetClient`], but the protocol is deliberately trivial — a 4-byte
//! big-endian length prefix framing one JSON object per request and
//! response — so `nc`, a Python script, or a dashboard can speak it
//! without linking this crate. In-process and remote answers are
//! identical by construction: both sides funnel into
//! `ServeHandle::execute`.
//!
//! ```text
//! cargo run --release --example serve_net
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use edmstream::data::gen::sds::{self, SdsConfig};
use edmstream::serve::net::{NetClient, NetConfig, NetServer};
use edmstream::serve::{BackpressurePolicy, EdmServer, ServeConfig};
use edmstream::{DecayModel, DenseVector, EdmConfig, EdmStream, Euclidean, Query, QueryResponse};

fn main() {
    let stream = sds::generate(&SdsConfig::default());
    println!("SDS: {} points over {:.0} seconds\n", stream.len(), stream.duration());

    // Same engine and serving parameters as the serve_live example.
    let cfg = EdmConfig::builder(0.3)
        .decay(DecayModel::new(0.998, 200.0))
        .beta(3e-3)
        .rate(1_000.0)
        .recycle_horizon(5.0)
        .tau_every(128)
        .build()
        .expect("valid SDS configuration");
    let serve_cfg = ServeConfig::builder()
        .queue_capacity(32)
        .publish_every_batches(4)
        .policy(BackpressurePolicy::Block)
        .build()
        .expect("valid serving configuration");
    let server = EdmServer::spawn(EdmStream::new(cfg, Euclidean), serve_cfg);

    // Expose the handle over loopback TCP. Port 0 lets the OS pick; a
    // real deployment would pin the address and raise the limits.
    let net_cfg = NetConfig::builder()
        .addr("127.0.0.1:0")
        .max_connections(8)
        .read_timeout(Duration::from_secs(30))
        .build()
        .expect("valid network configuration");
    let net = NetServer::bind(server.handle(), net_cfg).expect("bind loopback");
    let addr = net.local_addr();
    println!("serving on {addr}\n");

    // A monitoring client polls over TCP while the stream plays in; the
    // producer flips `done` once the replay is drained.
    let done = Arc::new(AtomicBool::new(false));
    let monitor = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut client: NetClient = NetClient::connect(addr).expect("connect");
            let mut seen = Vec::new();
            let mut last_generation = 0u64;
            while !done.load(Ordering::Relaxed) {
                match client.query::<DenseVector>(&Query::Generation) {
                    Ok(QueryResponse::Generation(g)) if g != last_generation => {
                        last_generation = g;
                        let n = match client.query::<DenseVector>(&Query::NClusters) {
                            Ok(QueryResponse::NClusters(n)) => n,
                            other => panic!("unexpected n_clusters answer: {other:?}"),
                        };
                        let probe = Query::ClusterOf { point: DenseVector::from([10.0, 0.0]) };
                        let at_c = client.query::<DenseVector>(&probe);
                        seen.push((g, n, format!("{at_c:?}")));
                    }
                    Ok(_) => std::thread::sleep(Duration::from_millis(2)),
                    Err(e) => return (seen, Some(e.to_string())),
                }
            }
            (seen, None)
        })
    };

    // Producer: replay SDS in 64-point batches through the queue.
    let batches: Vec<Vec<(DenseVector, f64)>> = stream
        .iter()
        .map(|p| (p.payload.clone(), p.ts))
        .collect::<Vec<_>>()
        .chunks(64)
        .map(<[_]>::to_vec)
        .collect();
    for batch in batches {
        server.ingest(batch).expect("Block policy ingest");
    }
    done.store(true, Ordering::Relaxed);

    let (seen, err) = monitor.join().expect("monitor thread ok");
    if let Some(e) = err {
        println!("monitor stopped early: {e}");
    }
    println!("monitor observed {} generations over TCP; last three:", seen.len());
    for (g, n, probe) in seen.iter().rev().take(3).rev() {
        println!("  gen {g}: {n} clusters, probe(10,0) -> {probe}");
    }

    let handle = server.handle();
    server.shutdown().expect("clean shutdown");
    net.shutdown();

    let stats = handle.stats();
    println!("\nnetwork statistics after the drain:");
    println!("  connections accepted  : {}", stats.net_connections);
    println!("  connections rejected  : {}", stats.net_connections_rejected);
    println!("  queries answered      : {}", stats.net_queries);
    println!("  query errors          : {}", stats.net_query_errors);
    println!("  protocol errors       : {}", stats.net_protocol_errors);
}
