//! # fba-bench — the benchmark harness of the reproduction
//!
//! Regenerates every table and figure of *Fast Byzantine Agreement*
//! (PODC 2013): run `cargo run --release -p fba-bench --bin paperbench --
//! all` for the full battery, or pass individual experiment ids
//! (`f1a-time`, `f1b`, `l6`, `service`, `crashes`, `bench-engine`, …; see
//! [`experiments::ALL_IDS`], and README's "Experiment index" for what
//! each reproduces). Every id is a [`Battery`]: one table renderer and
//! one JSON reporter for all of them, and one [`metric`] catalogue for
//! the columns that summarise an AER run. Host-time performance is
//! judged by the separate `benchmark/` package (`BENCHMARK.json`);
//! `bench-engine` is the in-tree battery that times the sizes it does
//! not reach.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod battery;
pub mod experiments;
pub mod json;
pub mod metric;
pub mod par;
pub mod scope;
pub mod sweep;
pub mod table;

pub use battery::{product2, product3, Agg, Battery, Report, SeedPolicy};
pub use experiments::{run_experiments, ALL_IDS};
pub use metric::{AerSummary, Metric, METRICS};
pub use par::{par_map, parallelism};
pub use scope::Scope;
pub use table::Table;
