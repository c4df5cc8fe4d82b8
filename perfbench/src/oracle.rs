//! Correctness oracles: engine state fingerprints compared bit for bit.

use edm_common::metric::Euclidean;
use edm_common::point::DenseVector;
use edm_core::{EdmStream, Event};

/// The engine under test.
pub type Engine = EdmStream<DenseVector, Euclidean>;

/// Per-cell `(slot, dep, δ bits, active, ρ bits, ρ-time bits)`.
type CellState = (u32, Option<u32>, u64, bool, u64, u64);

/// Everything observable about an engine's clustering, floats as bits.
#[derive(Debug, PartialEq)]
pub struct Fingerprint {
    cells: Vec<CellState>,
    clusters: Vec<Vec<u32>>,
    tau: u64,
    events: Vec<Event>,
    stats: String,
}

/// Fingerprints `engine` at stream time `t` (drains its event log). The
/// counters go through the engine's own exemption list
/// (`normalized_for_equivalence`), so serial, parallel and served ingestion
/// of one configuration fingerprint alike.
pub fn fingerprint(engine: &mut Engine, t: f64) -> Fingerprint {
    let mut cells: Vec<CellState> = engine
        .slab()
        .iter()
        .map(|(id, c)| {
            let (rho, rho_t) = c.raw_rho();
            (id.0, c.dep.map(|d| d.0), c.delta.to_bits(), c.active, rho.to_bits(), rho_t.to_bits())
        })
        .collect();
    cells.sort_unstable_by_key(|c| c.0);
    let snap = engine.snapshot(t);
    let clusters =
        snap.clusters().iter().map(|c| c.cells.iter().map(|id| id.0).collect()).collect();
    let stats = format!("{:?}", snap.stats().normalized_for_equivalence());
    Fingerprint { cells, clusters, tau: snap.tau().to_bits(), events: engine.take_events(), stats }
}

/// Compares two fingerprints; `Err` names the first differing part.
pub fn compare(a: &Fingerprint, b: &Fingerprint) -> Result<(), String> {
    if a.cells.len() != b.cells.len() {
        return Err(format!("cell count {} vs {}", a.cells.len(), b.cells.len()));
    }
    if let Some((x, y)) = a.cells.iter().zip(&b.cells).find(|(x, y)| x != y) {
        return Err(format!("cell state {x:?} vs {y:?}"));
    }
    if a.clusters != b.clusters {
        return Err(format!(
            "cluster partition ({} vs {} clusters)",
            a.clusters.len(),
            b.clusters.len()
        ));
    }
    if a.tau != b.tau {
        return Err(format!("tau {} vs {}", f64::from_bits(a.tau), f64::from_bits(b.tau)));
    }
    if a.events != b.events {
        return Err(format!("evolution events ({} vs {})", a.events.len(), b.events.len()));
    }
    if a.stats != b.stats {
        return Err(format!("counters {} vs {}", a.stats, b.stats));
    }
    Ok(())
}
