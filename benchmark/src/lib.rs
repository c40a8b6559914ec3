//! Benchmark of the AER simulator: four workloads, seven end-to-end
//! metrics, and an outside-in per-layer trace. See `README.md` for the
//! glossary and `../BENCHMARK.json` for the contract the driver reads.
//!
//! The benchmark drives the library only through its public API and
//! measures each layer from outside, by timing the calls into it.

pub mod cli;
pub mod layers;
pub mod metrics;
pub mod micro;
pub mod ops;
pub mod report;
pub mod stats;
pub mod timed;
pub mod trace;
pub mod wired;
pub mod workload;
