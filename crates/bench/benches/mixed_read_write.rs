//! Serving-tier latency under sustained ingest: R reader threads hammer
//! `ServeHandle::cluster_of` against the published snapshots while the
//! writer thread drives `insert_batch` flat out.
//!
//! This is the measurement behind the paper's real-time pitch (§6.3.1
//! reports ~7 ms query response *while* the stream runs): with the
//! lock-free publication path, a read costs one atomic pin, an `Arc`
//! clone, and a nearest-seed search in the published member table — latency
//! must stay flat as reader count grows because readers share nothing
//! mutable.
//! The scenario is `scenarios::highd_engine` (16-d, 512 active member
//! cells, absorb-only traffic), shared with the `bench_regression` gate
//! so the gate's fresh smoke measures exactly this workload.
//!
//! Besides the console table, the run rewrites the `mixed_read_write`
//! (and `host`) section of the committed `BENCH_ingest.json`. **Read
//! `host.cpus` first**: with one core, readers and the writer timeshare
//! — read p50 then prices the scheduling quantum, not the lock-free
//! path, which is why the CI gate records but does not compare this
//! section on 1-cpu hosts.

use std::path::Path;

use edm_bench::report::merge_bench_json;
use edm_bench::scenarios::{self, MixedRun};

/// Points ingested per reader configuration.
const INGEST_POINTS: usize = 1 << 15;

/// Producer-side batch size (points per queued batch).
const BATCH: usize = 256;

fn main() {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "mixed_read_write: {INGEST_POINTS} points/config in batches of {BATCH}, \
         {cpus} cpu(s) available"
    );
    let mut runs: Vec<MixedRun> = Vec::new();
    for &readers in &[1usize, 2, 4] {
        let run = scenarios::mixed_measure(readers, INGEST_POINTS, BATCH);
        println!(
            "mixed_read_write/readers{}: ingest {:.0} points/s, {:.0} reads/s, \
             read p50 {:.1} us, p99 {:.1} us",
            run.readers, run.points_per_sec, run.reads_per_sec, run.read_p50_us, run.read_p99_us
        );
        runs.push(run);
    }

    // Machine-readable artifact (committed at the repo root). `threads`
    // is the total concurrency of the run (readers + the writer) — the
    // field the regression gate's effective-parallelism matching reads.
    let entries: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "{{\"readers\": {}, \"threads\": {}, \"batch\": {}, \
                 \"points_per_sec\": {:.0}, \"reads_per_sec\": {:.0}, \
                 \"read_p50_us\": {:.2}, \"read_p99_us\": {:.2}}}",
                r.readers,
                r.readers + 1,
                BATCH,
                r.points_per_sec,
                r.reads_per_sec,
                r.read_p50_us,
                r.read_p99_us
            )
        })
        .collect();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("BENCH_ingest.json");
    merge_bench_json(&path, "host", &format!("{{\"cpus\": {cpus}}}")).expect("write bench json");
    merge_bench_json(&path, "mixed_read_write", &format!("[{}]", entries.join(", ")))
        .expect("write bench json");
    println!("[written {}]", path.display());
}
