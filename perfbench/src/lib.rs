//! End-to-end and per-layer benchmark of the EDMStream engine and its
//! serving tier. `README.md` beside this package maps workloads to the
//! layers they stress and layer metrics to the end-to-end metrics they
//! should move.

pub mod host;
pub mod oracle;
pub mod outcome;
pub mod report;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod trace;
pub mod workloads;
