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
//! Each configuration is recorded as the median of [`PASSES`] passes of
//! [`scenarios::parallel_measure`], the pass the `bench_regression` CI
//! gate smokes: [`scenarios::PARALLEL_POINTS`] points on a fresh engine.
//! The passes run round-robin over the configurations, so a slow phase of
//! the host lands in one pass of each rather than in all passes of one.

use std::path::Path;

use edm_bench::report::merge_bench_json;
use edm_bench::scenarios::{self, CROWDED_CELLS as RESERVOIR_CELLS, PARALLEL_POINTS};

/// Passes per (threads, batch) configuration; the median is recorded.
const PASSES: usize = 5;

/// Batch sizes and thread counts recorded.
const BATCHES: [usize; 3] = [64, 256, 1024];
const THREADS: [usize; 3] = [1, 2, 4];

struct Run {
    threads: usize,
    batch: usize,
    points_per_sec: f64,
    revalidation_rate: f64,
}

fn main() {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "parallel_batch_ingest: {RESERVOIR_CELLS} reservoir cells, {PARALLEL_POINTS} points per \
         pass, median of {PASSES} passes, {cpus} cpu(s) available"
    );
    let configs: Vec<(usize, usize)> =
        BATCHES.iter().flat_map(|&batch| THREADS.map(|threads| (threads, batch))).collect();
    let mut passes: Vec<Vec<(f64, f64)>> = vec![Vec::with_capacity(PASSES); configs.len()];
    for _ in 0..PASSES {
        for (&(threads, batch), runs) in configs.iter().zip(&mut passes) {
            runs.push(scenarios::parallel_measure(threads, batch, PARALLEL_POINTS));
        }
    }
    let runs: Vec<Run> = configs
        .iter()
        .zip(&mut passes)
        .map(|(&(threads, batch), runs)| {
            runs.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (points_per_sec, revalidation_rate) = runs[PASSES / 2];
            let run = Run { threads, batch, points_per_sec, revalidation_rate };
            println!(
                "parallel_batch_ingest/threads{}/batch{}: {:.0} points/s (reval {:.4}; passes {})",
                run.threads,
                run.batch,
                run.points_per_sec,
                run.revalidation_rate,
                runs.iter().map(|r| format!("{:.0}", r.0)).collect::<Vec<_>>().join(" ")
            );
            run
        })
        .collect();
    let serial_base = |batch: usize| -> f64 {
        runs.iter()
            .find(|r| r.threads == 1 && r.batch == batch)
            .expect("serial baseline measured")
            .points_per_sec
    };
    for batch in BATCHES {
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
