//! # edm-baselines
//!
//! The four density-based stream clustering competitors of the paper's
//! evaluation (§6), all implementing
//! [`edm_data::clusterer::StreamClusterer`]:
//!
//! * [`dstream`] — **D-Stream** (Chen & Tu, KDD'07): fixed grid with decayed
//!   grid densities, sporadic-grid removal, and periodic offline clustering
//!   by dense-grid connectivity.
//! * [`denstream`] — **DenStream** (Cao et al., SDM'06): potential/outlier
//!   micro-clusters with decayed CF triples and an offline weighted-DBSCAN
//!   step over micro-cluster centers.
//! * [`dbstream`] — **DBSTREAM** (Hahsler & Bolaños, TKDE'16): leader-based
//!   micro-clusters with a *shared density* graph connecting overlapping
//!   neighborhoods.
//! * [`mrstream`] — **MR-Stream** (Wan et al., TKDD'09): a multi-resolution
//!   grid hierarchy updated along a root-to-leaf path per point.
//!
//! All four follow the two-phase design the paper contrasts EDMStream
//! against: a cheap online summarization plus a periodic offline
//! re-clustering executed inside `insert` every `offline_every` points —
//! that periodic step is exactly what makes their response time spike
//! (paper §6.3.1) and their throughput collapse on wide streams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dbstream;
pub mod denstream;
pub mod dstream;
pub mod mrstream;

pub use dbstream::{DbStream, DbStreamConfig};
pub use denstream::{DenStream, DenStreamConfig};
pub use dstream::{DStream, DStreamConfig};
pub use mrstream::{MrStream, MrStreamConfig};
