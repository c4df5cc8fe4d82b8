//! # edm-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! EDMStream paper's evaluation (§6). The workspace README shows how to
//! run it and records measured results next to the paper's (Fig 11
//! under "Architecture").
//!
//! Run with:
//!
//! ```text
//! cargo run -p edm-bench --release --bin harness -- <experiment> [--scale f] [--out dir]
//! ```
//!
//! where `<experiment>` ∈ {tab2, fig2, fig6, fig7, fig8, fig9, fig10,
//! fig11, fig12, fig13, fig14, fig15, tab4, fig16, fig17, all}.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod catalog;
pub mod experiments;
pub mod report;
pub mod scenarios;

pub use catalog::{Dataset, DatasetId};
pub use report::Report;
