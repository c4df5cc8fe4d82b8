//! Fig 17 — effect of the cluster-cell radius `r` on PAMAP2.
//!
//! `r` is swept over the 0.5 % / 1 % / 1.5 % / 2 % quantiles of the
//! pairwise-distance distribution (the paper's §6.7 heuristic, inherited
//! from DP's d_c choice). Expected shape: smaller r → finer cells →
//! higher quality but slower updates; larger r → the reverse.

use edm_common::metric::Euclidean;
use edm_common::time::Stopwatch;
use edm_core::EdmStream;
use edm_dp::util::distance_quantile;
use edm_metrics::{EvalWindow, WindowConfig};

use super::Ctx;
use crate::catalog::{self, DatasetId};
use crate::report::{f, Report};

/// Regenerates Fig 17.
pub fn run(ctx: &Ctx) -> std::io::Result<()> {
    let ds = catalog::load(DatasetId::Pamap2, ctx.scale, 1_000.0);
    // Estimate the distance quantiles from a payload sample.
    let sample: Vec<_> = ds
        .stream
        .points
        .iter()
        .step_by((ds.stream.len() / 2_000).max(1))
        .map(|p| p.payload.clone())
        .collect();
    let window = EvalWindow::new(WindowConfig { horizon: 400, ..Default::default() });
    let mut rep = Report::new(
        "fig17_radius_effect",
        &["r_quantile_pct", "r", "avg_cmm", "avg_us", "cells"],
        ctx.out_dir(),
    );
    for pct in [0.005, 0.010, 0.015, 0.020] {
        let r = distance_quantile(&sample, &Euclidean, pct, 100_000, 17);
        let cfg = catalog::edm_config(DatasetId::Pamap2, r, 1_000.0)
            .to_builder()
            // This is a granularity study: β is lowered so that even the
            // finest-grained cells stay active and the r tradeoff (quality
            // vs update cost) is what the sweep measures, not threshold
            // starvation.
            .beta(5e-4)
            .build()
            .expect("radius-sweep config is valid");
        let mut engine = EdmStream::new(cfg, Euclidean);
        let n = ds.stream.len();
        let eval_every = (n / 4).max(1_000);
        let mut cmms = Vec::new();
        let w = Stopwatch::start();
        let mut insert_secs = 0.0;
        let mut last_mark = 0.0;
        for (i, p) in ds.stream.iter().enumerate() {
            engine.insert(&p.payload, p.ts);
            if (i + 1) % eval_every == 0 {
                // Exclude evaluation time from the response-time figure.
                insert_secs += w.elapsed_secs() - last_mark;
                let scores =
                    window.evaluate(&mut engine, &Euclidean, &ds.stream.points[..=i], p.ts);
                cmms.push(scores.cmm);
                last_mark = w.elapsed_secs();
            }
        }
        insert_secs += w.elapsed_secs() - last_mark;
        let avg_cmm = cmms.iter().sum::<f64>() / cmms.len().max(1) as f64;
        rep.row(vec![
            format!("{:.1}", pct * 100.0),
            f(r, 3),
            f(avg_cmm, 3),
            f(insert_secs * 1e6 / n as f64, 2),
            engine.n_cells().to_string(),
        ]);
    }
    rep.finish()
}
