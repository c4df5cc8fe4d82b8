//! # edm-metrics
//!
//! Stream clustering quality metrics for the EDMStream reproduction:
//!
//! * [`mod@cmm`] — the **Cluster Mapping Measure** (Kremer et al., KDD'11),
//!   the external criterion the paper uses in §6.4: it weights objects by
//!   freshness and penalizes exactly the three stream-specific fault types
//!   (missed objects, misplaced objects, noise inclusion).
//! * [`external`] — classic batch criteria (purity, pairwise F-measure,
//!   NMI, ARI) used as cross-checks.
//! * [`window`] — the sliding evaluation-window driver that feeds the
//!   metrics from a live [`edm_data::clusterer::StreamClusterer`].
//! * [`evolution`] — evolution-quality scoring (§5): derive a
//!   birth/death/merge/split timeline from periodic probe labelings and
//!   score it against a reference with tolerance-windowed matching, so
//!   EDMStream and the four baselines are judged by one yardstick.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cmm;
pub mod evolution;
pub mod external;
pub mod window;

pub use cmm::{cmm, CmmConfig, EvalObject};
pub use evolution::{
    match_transitions, partition_transitions, Transition, TransitionKind, TransitionScore,
};
pub use window::{EvalWindow, WindowConfig};
