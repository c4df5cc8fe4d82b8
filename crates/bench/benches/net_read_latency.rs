//! Network front-end read latency: the same `cluster_of` probe timed
//! in-process and over loopback TCP against one quiesced served
//! snapshot. The gap between the two distributions is the entire cost
//! of the wire — frame codec, two syscalls, loopback RTT — stacked on
//! top of the lock-free read path; the answers are byte-identical by
//! construction (locked down by the loopback test suite). A loopback
//! `digest_since` round trip over a 256-cluster drift digest is timed
//! next to it: the large answer a remote monitor decodes.
//!
//! This quantifies what §6.3.1's "query response while the stream runs"
//! costs once the reader is a remote monitoring client instead of an
//! in-process thread.
//!
//! Besides the console table, the run rewrites the `net_read_latency`
//! (and `host`) section of the committed `BENCH_ingest.json`. The CI
//! gate re-measures this section fresh; on 1-cpu hosts it records
//! without comparing (client, server connection thread, and acceptor
//! timeshare a single core there, so percentiles price the scheduler).

use std::path::Path;

use edm_bench::report::merge_bench_json;
use edm_bench::scenarios;

/// Timed queries per path (after warmup).
const QUERIES: usize = 1 << 13;

/// Warm stream ingested before quiescing.
const WARM_POINTS: usize = 1 << 14;

/// Timed loopback `digest_since` round trips.
const DIGEST_QUERIES: usize = 1 << 9;

fn main() {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "net_read_latency: {QUERIES} queries/path over {WARM_POINTS} warm points, {cpus} cpu(s)"
    );
    let run = scenarios::net_measure(QUERIES, WARM_POINTS, DIGEST_QUERIES);
    println!(
        "net_read_latency/local: p50 {:.1} us, p99 {:.1} us",
        run.local_p50_us, run.local_p99_us
    );
    println!(
        "net_read_latency/loopback: p50 {:.1} us, p99 {:.1} us",
        run.net_p50_us, run.net_p99_us
    );
    println!(
        "net_read_latency/digest ({} drifts): p50 {:.1} us, p99 {:.1} us",
        run.digest_drifts, run.digest_net_p50_us, run.digest_net_p99_us
    );

    let entry = run.json_entry();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("BENCH_ingest.json");
    merge_bench_json(&path, "host", &format!("{{\"cpus\": {cpus}}}")).expect("write bench json");
    merge_bench_json(&path, "net_read_latency", &format!("[{entry}]")).expect("write bench json");
    println!("[written {}]", path.display());
}
