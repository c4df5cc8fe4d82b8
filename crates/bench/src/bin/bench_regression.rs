//! CI bench-regression gate.
//!
//! PR 4 started committing `BENCH_ingest.json`, but nothing in CI ever
//! read it back — a PR could quietly halve ingest throughput and merge
//! green. This binary closes the loop:
//!
//! 1. **Smoke-measure** the committed throughput sections with reduced
//!    point budgets — `insert_latency` (one serial pass per dataset
//!    surrogate), `parallel_batch_ingest` (the crowded 8-d steady state
//!    at a few (threads, batch) settings), `mixed_read_write` (the
//!    serving tier: 2 readers hammering `cluster_of` under sustained
//!    ingest), and `net_read_latency` (the same `cluster_of` probe over
//!    loopback TCP vs in-process, gated through the queries/sec implied
//!    by the loopback p50) — writing a fresh artifact via
//!    [`edm_bench::report::merge_bench_json`] (uploaded by the workflow
//!    for inspection).
//! 2. **Compare** fresh points/sec against the committed baseline with a
//!    deliberately generous tolerance: only a drop past 35 % fails, and
//!    only for entries whose *effective parallelism* matches between the
//!    two hosts (an entry recorded at `threads = 4` on a 1-core
//!    container and re-measured on a 4-core runner is not comparable in
//!    either direction; `min(threads, host.cpus)` must agree — that is
//!    the `host.cpus` normalization). Per-core *speed* differences are
//!    calibrated out through the median fresh/baseline ratio: each entry
//!    is judged relative to the median, so a selective regression fails
//!    on any hardware, a uniformly different machine passes, and a
//!    uniform shortfall past the tolerance fails once as a global
//!    regression (with a regenerate-the-baseline remedy for genuinely
//!    slower hosts). The `mixed_read_write` and `net_read_latency`
//!    sections are **recorded but never compared when either host has
//!    one cpu** — with readers (or the TCP client and the server's
//!    reader pool) timesharing a single core, read latency prices the
//!    scheduler, not the serving path. An empty comparison set is a hard
//!    failure only when the baseline itself yielded no entries (sections
//!    missing or unparsable); when entries exist but every one was
//!    legitimately skipped (effective-parallelism mismatch, 1-cpu mixed
//!    tolerance), it downgrades to a loud warning — the fresh artifact
//!    is still uploaded for offline inspection either way.
//! 3. **Check the cover-tree acceptance ratio twice**: the committed
//!    `index_scaling_highd` section must record ≥ 2× over the uniform
//!    grid at d = 51 (guards the artifact itself), and a fresh smoke of
//!    the same `scenarios::highd_*` workload must clear the same bar
//!    (guards the code — a pruning regression that never touches the
//!    JSON still fails here). Both are within-host ratios, so they
//!    transfer across machines for free. The within-host ratio cannot
//!    see a *kernel* regression (it slows cover and grid together), so
//!    the fresh d = 51 cover-tree throughput is additionally gated
//!    against the committed baseline under the same median calibration
//!    and tolerance as the other throughput entries; the raw
//!    scalar-vs-chunked kernel numbers are recorded in the artifact for
//!    trend inspection but never gated.
//!
//! Exit status is non-zero on any regression, which is what makes the CI
//! job a gate. Refresh the baseline by re-running the full benches
//! (`cargo bench --bench insert_latency --bench parallel_batch_ingest
//! --bench index_scaling`) and committing the rewritten JSON.

use std::path::PathBuf;
use std::time::Instant;

use edm_bench::catalog::{self, DatasetId};
use edm_bench::report::{entry_field, merge_bench_json, parse_flat_entries, read_bench_json};
use edm_bench::scenarios;
use edm_common::metric::Euclidean;
use edm_common::point::DenseVector;
use edm_core::index::NeighborIndexKind;
use edm_core::EdmStream;

/// Fractional throughput drop past which an entry fails the gate.
const TOLERANCE: f64 = 0.35;

/// Points per (threads, batch) configuration in the parallel smoke run
/// (the full bench uses 1 << 16; the gate only needs a stable estimate).
const SMOKE_POINTS: usize = 1 << 14;

/// (threads, batch) settings smoked; a subset of the committed grid.
const SMOKE_CONFIGS: [(usize, usize); 3] = [(1, 256), (2, 256), (4, 256)];

/// Minimum threads = 4 speedup over the serial engine (same batch) once
/// four real cores are available on both the recording host
/// and this one. On narrower hosts the speedups are recorded, not gated.
const SPEEDUP_BAR: f64 = 1.5;

/// Absorb probes timed per index kind in the fresh high-d smoke (the
/// full bench times 8192; the ratio only needs a stable estimate).
const HIGHD_SMOKE_POINTS: usize = 2_048;

/// Points pushed through the serving tier in the mixed read/write smoke
/// (the full bench uses 1 << 15 per reader configuration).
const MIXED_SMOKE_POINTS: usize = 1 << 13;

/// Reader threads in the mixed smoke — one mid-size configuration from
/// the committed grid.
const MIXED_SMOKE_READERS: usize = 2;

/// Loopback queries timed per path in the network smoke (the full bench
/// times 1 << 13; the p50 only needs a stable estimate).
const NET_SMOKE_QUERIES: usize = 2_048;

/// Points quiesced into the served snapshot before the network smoke.
const NET_SMOKE_WARM: usize = 1 << 13;

/// Loopback `digest_since` round trips timed in the network smoke
/// (recorded, never gated).
const NET_SMOKE_DIGESTS: usize = 64;

/// Effective parallelism of the network smoke: the querying client and
/// the server reader thread answering it run concurrently (the acceptor
/// idles once the one connection is up).
const NET_SMOKE_THREADS: usize = 2;

/// Distance evaluations per (dimensionality, kernel path) in the raw
/// kernel smoke (the full bench times 4M; recorded, never gated).
const KERNEL_SMOKE_EVALS: usize = 1_000_000;

/// One smoke measurement of the parallel batch-ingest steady state
/// (the `scenarios::crowded_*` workload the committed baseline records).
fn smoke_parallel(threads: usize, batch: usize) -> f64 {
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
    let warm = make_batch(batch, &mut t);
    e.insert_batch(&warm);
    let rounds = SMOKE_POINTS / batch;
    let batches: Vec<Vec<(DenseVector, f64)>> =
        (0..rounds).map(|_| make_batch(batch, &mut t)).collect();
    let start = Instant::now();
    for b in &batches {
        e.insert_batch(b);
    }
    (rounds * batch) as f64 / start.elapsed().as_secs_f64()
}

/// One smoke measurement of `digest_since` latency: build a full digest
/// window over the crowded steady state (one publication per batch),
/// then time whole-window digests. Recorded in the artifact for trend
/// inspection, never gated — digest reads are reader-side work over a
/// bounded window, and their cost floor is set by cluster churn, which
/// the crowded workload deliberately maximizes.
fn smoke_digest_since() -> (u64, f64, f64) {
    // The crowded scenario turns evolution tracking off (it prices pure
    // ingest); digests need it on, plus genuine cluster churn so the
    // sealed records carry events. Eight blob sites visited round-robin
    // with a short recycle horizon: clusters emerge, fade, and die all
    // through the run.
    let cfg = edm_core::EdmConfig::builder(0.8)
        .rate(1_000.0)
        .beta_for_threshold(3.0)
        .init_points(64)
        .tau_every(64)
        .maintenance_every(32)
        .recycle_horizon(2.0)
        .build()
        .expect("valid digest smoke configuration");
    let mut e = EdmStream::new(cfg, Euclidean);
    let mut t = 0.0;
    for k in 0..DIGEST_SMOKE_GENERATIONS {
        let angle = (k / 4) as f64 * std::f64::consts::FRAC_PI_4;
        let (cx, cy) = (10.0 * angle.cos(), 10.0 * angle.sin());
        let batch: Vec<(DenseVector, f64)> = (0..256)
            .map(|i| {
                t += 1e-3;
                let jx = 0.2 * ((i % 7) as f64 - 3.0);
                let jy = 0.2 * ((i % 5) as f64 - 2.0);
                (DenseVector::from([cx + jx, cy + jy]), t)
            })
            .collect();
        e.insert_batch(&batch);
        e.publish_snapshot(t);
    }
    let (oldest, latest) = e.digest_window().generations().expect("generations published");
    let mut lat_us = Vec::with_capacity(DIGEST_SMOKE_READS);
    for _ in 0..DIGEST_SMOKE_READS {
        let start = Instant::now();
        let digest = e.digest_since(oldest).expect("whole window is held");
        std::hint::black_box(digest);
        lat_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    lat_us.sort_by(f64::total_cmp);
    (latest - oldest, lat_us[lat_us.len() / 2], lat_us[lat_us.len() * 99 / 100])
}

/// Generations sealed (and batches ingested) before timing digests.
const DIGEST_SMOKE_GENERATIONS: usize = 32;

/// Whole-window digests timed per smoke run.
const DIGEST_SMOKE_READS: usize = 512;

/// One smoke measurement of serial per-point latency on a dataset
/// surrogate (the same pass the full `insert_latency` bench times).
fn smoke_insert_latency(id: DatasetId) -> (String, f64) {
    let ds = catalog::load(id, 0.01, 1_000.0);
    let mut e = EdmStream::new(ds.edm.clone(), Euclidean);
    for p in ds.stream.iter().take(2_000) {
        e.insert(&p.payload, p.ts);
    }
    let start = Instant::now();
    let mut n = 0u64;
    for p in ds.stream.iter().skip(2_000) {
        e.insert(&p.payload, p.ts);
        n += 1;
    }
    (ds.id.name().to_string(), n as f64 / start.elapsed().as_secs_f64())
}

/// Extracts `(comparison key, configured threads)` from one parsed
/// baseline entry; `None` skips the entry.
type KeyOf<'a> = &'a dyn Fn(&[(String, String)]) -> Option<(String, usize)>;

/// A comparable throughput entry: what it is, how parallel it runs, and
/// the measured points/sec.
struct Entry {
    key: String,
    threads: usize,
    pps: f64,
}

fn baseline_entries(sections: &[(String, String)], section: &str, key_of: KeyOf<'_>) -> Vec<Entry> {
    let Some((_, value)) = sections.iter().find(|(k, _)| k == section) else {
        return Vec::new();
    };
    let Some(entries) = parse_flat_entries(value) else {
        return Vec::new();
    };
    entries
        .iter()
        .filter_map(|entry| {
            let (key, threads) = key_of(entry)?;
            let pps: f64 = entry_field(entry, "points_per_sec")?.parse().ok()?;
            Some(Entry { key, threads, pps })
        })
        .collect()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut baseline_path = PathBuf::from("BENCH_ingest.json");
    let mut out_path = PathBuf::from("target/bench_regression/BENCH_ingest.fresh.json");
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--baseline" => baseline_path = args.next().expect("--baseline needs a path").into(),
            "--out" => out_path = args.next().expect("--out needs a path").into(),
            other => panic!("unknown flag {other:?} (expected --baseline/--out)"),
        }
    }
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("bench_regression: baseline {}, {cpus} cpu(s)", baseline_path.display());

    let baseline = match read_bench_json(&baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("FAIL: cannot read baseline: {e}");
            std::process::exit(1);
        }
    };
    let base_cpus: usize = baseline
        .iter()
        .find(|(k, _)| k == "host")
        .and_then(|(_, v)| parse_flat_entries(&format!("[{v}]")))
        .and_then(|e| e.first().and_then(|f| entry_field(f, "cpus")?.parse().ok()))
        .unwrap_or(1);

    // ----- smoke runs -----
    let mut fresh: Vec<Entry> = Vec::new();
    let mut insert_json: Vec<String> = Vec::new();
    for id in [DatasetId::Kdd, DatasetId::CoverType, DatasetId::Pamap2] {
        let (name, pps) = smoke_insert_latency(id);
        println!("smoke insert_latency/{name}: {pps:.0} points/s");
        insert_json.push(format!("{{\"dataset\": \"{name}\", \"points_per_sec\": {pps:.0}}}"));
        fresh.push(Entry { key: format!("insert_latency/{name}"), threads: 1, pps });
    }
    let mut parallel_json: Vec<String> = Vec::new();
    for (threads, batch) in SMOKE_CONFIGS {
        let pps = smoke_parallel(threads, batch);
        println!("smoke parallel_batch_ingest/threads{threads}/batch{batch}: {pps:.0} points/s");
        parallel_json.push(format!(
            "{{\"threads\": {threads}, \"batch\": {batch}, \"points_per_sec\": {pps:.0}}}"
        ));
        fresh.push(Entry {
            key: format!("parallel_batch_ingest/threads{threads}/batch{batch}"),
            threads,
            pps,
        });
    }
    let mixed = scenarios::mixed_measure(MIXED_SMOKE_READERS, MIXED_SMOKE_POINTS, 256);
    println!(
        "smoke mixed_read_write/readers{}: ingest {:.0} points/s, {:.0} reads/s, \
         read p50 {:.1} us, p99 {:.1} us",
        mixed.readers,
        mixed.points_per_sec,
        mixed.reads_per_sec,
        mixed.read_p50_us,
        mixed.read_p99_us
    );
    let mixed_json = format!(
        "[{{\"readers\": {}, \"threads\": {}, \"batch\": 256, \"points_per_sec\": {:.0}, \
         \"reads_per_sec\": {:.0}, \"read_p50_us\": {:.2}, \"read_p99_us\": {:.2}}}]",
        mixed.readers,
        mixed.readers + 1,
        mixed.points_per_sec,
        mixed.reads_per_sec,
        mixed.read_p50_us,
        mixed.read_p99_us
    );
    fresh.push(Entry {
        key: format!("mixed_read_write/readers{}", mixed.readers),
        threads: mixed.readers + 1,
        pps: mixed.points_per_sec,
    });
    let net = scenarios::net_measure(NET_SMOKE_QUERIES, NET_SMOKE_WARM, NET_SMOKE_DIGESTS);
    println!(
        "smoke net_read_latency: local p50 {:.1} us / p99 {:.1} us, \
         loopback p50 {:.1} us / p99 {:.1} us, digest ({} drifts) p50 {:.1} us",
        net.local_p50_us,
        net.local_p99_us,
        net.net_p50_us,
        net.net_p99_us,
        net.digest_drifts,
        net.digest_net_p50_us
    );
    let net_json = format!("[{}]", net.json_entry());
    // Latency gates inverted: the queries/sec implied by the loopback
    // p50 rides the same median-calibrated throughput comparison as
    // every other entry (a p50 that doubles halves the implied rate and
    // trips the tolerance; p99 is recorded for trend inspection only).
    fresh.push(Entry {
        key: "net_read_latency/loopback".into(),
        threads: NET_SMOKE_THREADS,
        pps: 1e6 / net.net_p50_us,
    });
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).expect("create artifact directory");
    }
    merge_bench_json(&out_path, "host", &format!("{{\"cpus\": {cpus}}}"))
        .expect("write fresh artifact");
    merge_bench_json(&out_path, "insert_latency", &format!("[{}]", insert_json.join(", ")))
        .expect("write fresh artifact");
    merge_bench_json(
        &out_path,
        "parallel_batch_ingest",
        &format!("[{}]", parallel_json.join(", ")),
    )
    .expect("write fresh artifact");
    merge_bench_json(&out_path, "mixed_read_write", &mixed_json).expect("write fresh artifact");
    merge_bench_json(&out_path, "net_read_latency", &net_json).expect("write fresh artifact");
    // Evolution-digest latency: recorded for trend inspection, never
    // compared against the baseline (no Entry is pushed into `fresh`).
    let (digest_generations, digest_p50_us, digest_p99_us) = smoke_digest_since();
    println!(
        "smoke digest_since/generations{digest_generations}: p50 {digest_p50_us:.1} us, \
         p99 {digest_p99_us:.1} us (recorded, not gated)"
    );
    merge_bench_json(
        &out_path,
        "digest_since",
        &format!(
            "[{{\"generations\": {digest_generations}, \"p50_us\": {digest_p50_us:.2}, \
             \"p99_us\": {digest_p99_us:.2}}}]"
        ),
    )
    .expect("write fresh artifact");
    println!("[written {}]", out_path.display());

    // ----- baseline comparison -----
    let mut base: Vec<Entry> = baseline_entries(&baseline, "insert_latency", &|entry| {
        Some((format!("insert_latency/{}", entry_field(entry, "dataset")?), 1))
    });
    base.extend(baseline_entries(&baseline, "parallel_batch_ingest", &|entry| {
        let threads: usize = entry_field(entry, "threads")?.parse().ok()?;
        let batch = entry_field(entry, "batch")?;
        Some((format!("parallel_batch_ingest/threads{threads}/batch{batch}"), threads))
    }));
    base.extend(baseline_entries(&baseline, "mixed_read_write", &|entry| {
        let readers: usize = entry_field(entry, "readers")?.parse().ok()?;
        let threads: usize = entry_field(entry, "threads")?.parse().ok()?;
        Some((format!("mixed_read_write/readers{readers}"), threads))
    }));
    // The network section records latencies, not points/sec; derive the
    // implied loopback rate from the committed p50 so it compares under
    // the same machinery as the throughput entries.
    if let Some((_, value)) = baseline.iter().find(|(k, _)| k == "net_read_latency") {
        if let Some(entries) = parse_flat_entries(value) {
            base.extend(entries.iter().filter_map(|entry| {
                let p50: f64 = entry_field(entry, "net_p50_us")?.parse().ok()?;
                (p50 > 0.0).then(|| Entry {
                    key: "net_read_latency/loopback".into(),
                    threads: NET_SMOKE_THREADS,
                    pps: 1e6 / p50,
                })
            }));
        }
    }

    let mut failures = 0;
    // ----- threads = 4 scaling bar (gated only on wide-enough hosts) -----
    // The committed matrix and the fresh smoke both record speedups; the
    // bar itself only means anything when 4 threads get 4 real cores on
    // both sides of the comparison. This container check is the fresh
    // side; `base_cpus` covers the recording side.
    let pps_at = |threads: usize| {
        fresh
            .iter()
            .find(|e| e.key == format!("parallel_batch_ingest/threads{threads}/batch256"))
            .map(|e| e.pps)
    };
    if let (Some(p4), Some(p1)) = (pps_at(4), pps_at(1)) {
        let speedup = p4 / p1;
        if cpus >= 4 && base_cpus >= 4 {
            let verdict = if speedup >= SPEEDUP_BAR { "ok" } else { "REGRESSED" };
            println!(
                "  threads4 speedup: {speedup:.2}x vs serial (bar {SPEEDUP_BAR:.2}x) {verdict}"
            );
            if speedup < SPEEDUP_BAR {
                failures += 1;
            }
        } else {
            println!(
                "  threads4 speedup: {speedup:.2}x vs serial — recorded, not gated ({cpus} \
                 cpu(s) here, {base_cpus} at record time; bar needs 4 on both)"
            );
        }
    }
    let mut ratios: Vec<(String, f64)> = Vec::new();
    let mut skipped = 0usize;
    // Median fresh/baseline ratio of the comparable entries — the
    // host-speed calibration the high-d gate below reuses. 1.0 when
    // nothing was comparable (the gate then compares uncalibrated).
    let mut host_skew = 1.0;
    for entry in &fresh {
        let Some(b) = base.iter().find(|b| b.key == entry.key) else {
            println!("  {}: no baseline entry — skipped", entry.key);
            continue;
        };
        // The serving measurements need reader/writer (or client/server)
        // parallelism to mean anything: on one core the threads
        // timeshare and the numbers price the scheduler. Record, don't
        // gate.
        let serving = entry.key.starts_with("mixed_read_write/")
            || entry.key.starts_with("net_read_latency/");
        if serving && (cpus == 1 || base_cpus == 1) {
            println!(
                "  {}: recorded, not gated — reader parallelism unmeasurable on a 1-cpu host \
                 ({cpus} here, {base_cpus} at record time)",
                entry.key
            );
            skipped += 1;
            continue;
        }
        // host.cpus normalization: only comparable when both hosts give
        // the configuration the same effective parallelism.
        if entry.threads.min(cpus) != b.threads.min(base_cpus) {
            println!(
                "  {}: effective cores differ ({} here vs {} at record time) — skipped",
                entry.key,
                entry.threads.min(cpus),
                b.threads.min(base_cpus)
            );
            skipped += 1;
            continue;
        }
        ratios.push((entry.key.clone(), entry.pps / b.pps));
    }
    if ratios.is_empty() && skipped == 0 {
        // Nothing was even skipped for host-shape reasons: the
        // baseline's throughput sections are missing or unparsable —
        // that must not silently green-light the PR that broke them.
        println!("  FAIL: no comparable throughput entries — baseline sections missing/corrupt");
        failures += 1;
    } else if ratios.is_empty() {
        // Entries existed but every one was legitimately skipped
        // (effective-parallelism mismatch between the recording host and
        // this one). The fresh artifact above is still uploaded, so the
        // numbers are recorded; there is just nothing sound to compare.
        println!(
            "  WARN: no comparable throughput entries on this host shape ({skipped} skipped) — \
             comparison waived, fresh artifact still recorded"
        );
    } else {
        // Per-core speed differs between the recording host and this
        // one, and `host.cpus` cannot normalize that away. The *median*
        // ratio estimates the host-speed skew; each entry is judged
        // against it, so a selective regression fails on any hardware
        // while a uniformly faster/slower machine calibrates out. A
        // uniform shortfall past the tolerance still fails once, below —
        // on the homogeneous CI fleet that is a real global regression;
        // on genuinely slower hardware, regenerate the baseline there.
        let mut sorted: Vec<f64> = ratios.iter().map(|(_, r)| *r).collect();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        host_skew = median;
        for (key, ratio) in &ratios {
            let calibrated = ratio / median;
            let verdict = if calibrated < 1.0 - TOLERANCE { "REGRESSED" } else { "ok" };
            println!(
                "  {key}: {:.0}% of baseline ({:.0}% after median calibration) {verdict}",
                ratio * 100.0,
                calibrated * 100.0
            );
            if calibrated < 1.0 - TOLERANCE {
                failures += 1;
            }
        }
        if median < 1.0 - TOLERANCE {
            println!(
                "  FAIL: median throughput is {:.0}% of baseline — a global regression (or a \
                 much slower host; regenerate the baseline on this host class if so)",
                median * 100.0
            );
            failures += 1;
        }
    }

    // ----- cover-tree acceptance ratio (within-host, machine-portable) -----
    // Two layers: the committed baseline must still record the bar (so a
    // PR cannot quietly commit a degraded artifact), and a *fresh* smoke
    // of the same `scenarios::highd_*` workload must still clear it (so
    // a code regression that never touches the JSON cannot slip past —
    // ratios of two same-host measurements transfer across machines).
    let highd = baseline_entries(&baseline, "index_scaling_highd", &|entry| {
        let d = entry_field(entry, "d")?;
        let index = entry_field(entry, "index")?;
        Some((format!("highd/d{d}/{index}"), 1))
    });
    let pps_of = |key: &str| highd.iter().find(|e| e.key == key).map(|e| e.pps);
    match (pps_of("highd/d51/cover"), pps_of("highd/d51/grid")) {
        (Some(cover), Some(grid)) => {
            let ratio = cover / grid;
            let verdict = if ratio >= 2.0 { "ok" } else { "REGRESSED" };
            println!(
                "  committed index_scaling_highd d=51: cover {cover:.0} vs grid {grid:.0} \
                 points/s ({ratio:.2}x, bar 2.00x) {verdict}"
            );
            if ratio < 2.0 {
                failures += 1;
            }
        }
        _ => {
            println!("  index_scaling_highd d=51: cover/grid entries missing from baseline");
            failures += 1;
        }
    }
    let (grid_pps, _) = scenarios::highd_measure(NeighborIndexKind::Grid, 51, HIGHD_SMOKE_POINTS);
    let (cover_pps, cover_recomputes) =
        scenarios::highd_measure(NeighborIndexKind::CoverTree, 51, HIGHD_SMOKE_POINTS);
    let fresh_ratio = cover_pps / grid_pps;
    let verdict = if fresh_ratio >= 2.0 && cover_recomputes > 0 { "ok" } else { "REGRESSED" };
    println!(
        "  fresh index_scaling_highd d=51: cover {cover_pps:.0} vs grid {grid_pps:.0} points/s \
         ({fresh_ratio:.2}x, bar 2.00x, {cover_recomputes} recomputes) {verdict}"
    );
    if fresh_ratio < 2.0 || cover_recomputes == 0 {
        failures += 1;
    }
    // The within-host ratio guards pruning, not raw speed: a kernel
    // regression slows cover and grid together and the ratio never moves.
    // Gate the d=51 cover-tree *throughput* against the committed
    // baseline too — absolute, but serial (threads = 1, comparable on any
    // host shape) and judged under the same median calibration and
    // tolerance as every other throughput entry.
    match pps_of("highd/d51/cover") {
        Some(committed) => {
            let ratio = cover_pps / committed;
            let calibrated = ratio / host_skew;
            let verdict = if calibrated < 1.0 - TOLERANCE { "REGRESSED" } else { "ok" };
            println!(
                "  index_scaling_highd/d51/cover: {:.0}% of committed baseline ({:.0}% after \
                 median calibration) {verdict}",
                ratio * 100.0,
                calibrated * 100.0
            );
            if calibrated < 1.0 - TOLERANCE {
                failures += 1;
            }
        }
        None => {
            println!("  index_scaling_highd/d51/cover: missing from baseline");
            failures += 1;
        }
    }
    // Raw kernel throughput: recorded for trend inspection alongside the
    // committed `kernel` section (never gated — the chunked/scalar ratio
    // is compiler- and host-sensitive in ways the engine gates above
    // already price end to end).
    let mut kernel_json: Vec<String> = Vec::new();
    for d in [16usize, 51] {
        let (scalar, chunked) = scenarios::kernel_measure(d, KERNEL_SMOKE_EVALS);
        println!(
            "smoke kernel/d{d}: scalar {scalar:.0} evals/s, chunked {chunked:.0} evals/s \
             ({:.2}x, recorded, not gated)",
            chunked / scalar
        );
        kernel_json.push(format!(
            "{{\"d\": {d}, \"scalar_per_sec\": {scalar:.0}, \"chunked_per_sec\": {chunked:.0}, \
             \"speedup\": {:.2}}}",
            chunked / scalar
        ));
    }
    merge_bench_json(&out_path, "kernel", &format!("[{}]", kernel_json.join(", ")))
        .expect("write fresh artifact");

    if failures > 0 {
        eprintln!(
            "bench_regression: {failures} entr{} regressed",
            if failures == 1 { "y" } else { "ies" }
        );
        std::process::exit(1);
    }
    println!("bench_regression: all checks passed");
}
