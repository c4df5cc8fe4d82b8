//! Batch-ingest throughput: serial per-point loop vs. the two-phase
//! probe-then-commit pipeline, across a threads × batch matrix.
//!
//! The scenario is the steady state the paper's throughput claims rest
//! on: a large reservoir of cells (every point absorbed, nothing created
//! or recycled mid-batch), where per-point cost is dominated by the
//! assignment probe — exactly the phase `ingest_threads` fans out. The
//! space is 8-dimensional with r-separated seeds crowded eight to a
//! bucket: the high-dimensional regime of the paper's datasets (KDD
//! d = 34, PAMAP2 d = 51), where the grid degenerates to occupied-bucket
//! sweeps and a probe costs microseconds — the work worth fanning out.
//! Batch sizes 64/256/1024 bracket the dispatch-amortization question:
//! the persistent pool parks its workers between rounds, so small
//! batches price a condvar wake instead of a thread spawn.
//!
//! Besides the console table, the run rewrites the `parallel_batch_ingest`
//! (and `host`) sections of the committed `BENCH_ingest.json` via
//! [`edm_bench::report::merge_bench_json`], so the perf trajectory is
//! tracked machine-readably across PRs. **Read the `host.cpus` field
//! before reading speedups**: on a single-core container the fan-out
//! cannot beat the serial loop (the numbers then price the coordination
//! overhead); the ≥ 1.5× scaling claim is for `cpus ≥ 4`.
//!
//! The scenario generators live in [`edm_bench::scenarios`], shared with
//! the `bench_regression` CI gate so its fresh smoke runs measure
//! exactly the workload this baseline recorded.

use std::path::Path;
use std::time::Instant;

use edm_bench::report::merge_bench_json;
use edm_bench::scenarios::{self, CROWDED_CELLS as RESERVOIR_CELLS};
use edm_common::point::DenseVector;

/// Points pushed through each (threads, batch) configuration.
const POINTS_PER_CONFIG: usize = 1 << 16;

struct Run {
    threads: usize,
    batch: usize,
    points_per_sec: f64,
    revalidation_rate: f64,
}

/// Streams `POINTS_PER_CONFIG` points through `insert_batch` in batches
/// of `batch`, timing only the ingest calls.
fn measure(threads: usize, batch: usize) -> Run {
    let (mut e, mut t) = scenarios::crowded_engine(threads);
    let sites = scenarios::crowded_probe_sites();
    let mut i = 0usize;
    let mut make_batch = |n: usize, t: &mut f64| -> Vec<(DenseVector, f64)> {
        (0..n)
            .map(|_| {
                *t += 1e-6;
                i += 1;
                (sites[i % sites.len()].clone(), *t)
            })
            .collect()
    };
    // Warm the pool (first parallel round sizes the slot buffers).
    let warm = make_batch(batch, &mut t);
    e.insert_batch(&warm);
    let rounds = POINTS_PER_CONFIG / batch;
    let batches: Vec<Vec<(DenseVector, f64)>> =
        (0..rounds).map(|_| make_batch(batch, &mut t)).collect();
    let reval_before = e.stats().probe_revalidations;
    let tasks_before = e.stats().probe_tasks;
    let start = Instant::now();
    for b in &batches {
        e.insert_batch(b);
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(e.n_cells(), RESERVOIR_CELLS, "bench stream must not create or recycle cells");
    let tasks = (e.stats().probe_tasks - tasks_before).max(1);
    Run {
        threads,
        batch,
        points_per_sec: (rounds * batch) as f64 / elapsed,
        revalidation_rate: (e.stats().probe_revalidations - reval_before) as f64 / tasks as f64,
    }
}

fn main() {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "parallel_batch_ingest: {RESERVOIR_CELLS} reservoir cells, \
         {POINTS_PER_CONFIG} points/config, {cpus} cpu(s) available"
    );
    let mut runs: Vec<Run> = Vec::new();
    for &batch in &[64usize, 256, 1024] {
        for &threads in &[1usize, 2, 4] {
            let run = measure(threads, batch);
            println!(
                "parallel_batch_ingest/threads{}/batch{}: {:.0} points/s (reval {:.4})",
                run.threads, run.batch, run.points_per_sec, run.revalidation_rate
            );
            runs.push(run);
        }
    }
    let serial_base = |batch: usize| -> f64 {
        runs.iter()
            .find(|r| r.threads == 1 && r.batch == batch)
            .expect("serial baseline measured")
            .points_per_sec
    };
    for &batch in &[64usize, 256, 1024] {
        let base = serial_base(batch);
        for r in runs.iter().filter(|r| r.batch == batch && r.threads > 1) {
            println!(
                "  speedup threads{} batch{}: {:.2}x vs serial",
                r.threads,
                batch,
                r.points_per_sec / base
            );
        }
    }

    // Machine-readable artifact (committed at the repo root).
    let entries: Vec<String> = runs
        .iter()
        .map(|r| {
            let base = serial_base(r.batch);
            format!(
                "{{\"threads\": {}, \"batch\": {}, \"reservoir_cells\": {}, \
                 \"points_per_sec\": {:.0}, \"speedup_vs_serial\": {:.3}, \
                 \"revalidation_rate\": {:.5}}}",
                r.threads,
                r.batch,
                RESERVOIR_CELLS,
                r.points_per_sec,
                r.points_per_sec / base,
                r.revalidation_rate
            )
        })
        .collect();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("BENCH_ingest.json");
    merge_bench_json(&path, "host", &format!("{{\"cpus\": {cpus}}}")).expect("write bench json");
    merge_bench_json(&path, "parallel_batch_ingest", &format!("[{}]", entries.join(", ")))
        .expect("write bench json");
    println!("[written {}]", path.display());
}
