//! Fig 11 — accumulated dependency-update time under the three filter
//! configurations: `wf` (no filtering), `df` (density filter, Thm 1),
//! `df+tif` (plus the triangle-inequality filter, Thm 2).
//!
//! The engine instruments its dependency-maintenance phase with a
//! wall-clock accumulator; this experiment replays the same stream three
//! times and reports the accumulated milliseconds over stream length.
//! Expected shape: `wf` ≫ `df` > `df+tif`, with identical clustering
//! output (the theorems are exact — see the engine's
//! `filters_do_not_change_the_result` test).

use edm_common::metric::Euclidean;
use edm_core::{EdmStream, FilterConfig};

use super::Ctx;
use crate::catalog::{self, DatasetId};
use crate::report::{f, Report};

/// Regenerates Fig 11.
pub fn run(ctx: &Ctx) -> std::io::Result<()> {
    let mut rep = Report::new(
        "fig11_filter_ablation",
        &["dataset", "filters", "len_k", "accum_dep_ms", "candidates", "updates"],
        ctx.out_dir(),
    );
    for id in [DatasetId::Kdd, DatasetId::CoverType, DatasetId::Pamap2] {
        let ds = catalog::load(id, ctx.scale, 1_000.0);
        for filters in [FilterConfig::none(), FilterConfig::density_only(), FilterConfig::all()] {
            let cfg =
                ds.edm.to_builder().filters(filters).build().expect("ablation config is valid");
            let mut engine = EdmStream::new(cfg, Euclidean);
            let n = ds.stream.len();
            let bucket = (n / 6).max(1);
            for (i, p) in ds.stream.iter().enumerate() {
                engine.insert(&p.payload, p.ts);
                if (i + 1) % bucket == 0 {
                    rep.row(vec![
                        ds.id.name(),
                        filters.label().into(),
                        format!("{}", (i + 1) / 1_000),
                        f(engine.stats().dep_update_millis(), 2),
                        engine.stats().dep_candidates.to_string(),
                        engine.stats().dep_updates.to_string(),
                    ]);
                }
            }
        }
    }
    rep.finish()
}
