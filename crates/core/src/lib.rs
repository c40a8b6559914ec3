//! # fba-core — the AER protocol of *Fast Byzantine Agreement* (PODC 2013)
//!
//! This crate implements the paper's primary contribution: **AER**, an
//! *almost-everywhere → everywhere* agreement protocol with amortized
//! communication `Õ(1)` per node, constant time under a synchronous
//! non-rushing adversary and `O(log n / log log n)` time under asynchrony.
//! **BA**, the Byzantine Agreement protocol obtained by composing AER with
//! an almost-everywhere agreement substrate (`fba-ae`), is assembled in
//! `fba-scenario`: its composed phase runs AE, then one ordinary AER
//! instance on AE's output.
//!
//! * [`push`] — the push phase (§3.1.1): sampler-filtered diffusion of
//!   candidate strings.
//! * [`pull`] — the pull phase (§3.1.2, Algorithms 1–3): filtered
//!   two-hop verification through pull quorums and poll lists with the
//!   `log² n` overload valve.
//! * [`AerNode`] / [`AerHarness`] — the assembled protocol and its run
//!   harness.
//! * [`adversary`] — the attack suite: flooding, equivocation, and the
//!   Lemma 6 cornering/overload attack.
//!
//! ```
//! use fba_ae::{Precondition, UnknowingAssignment};
//! use fba_core::{AerConfig, AerHarness};
//! use fba_sim::NoAdversary;
//!
//! let cfg = AerConfig::recommended(64);
//! let pre = Precondition::synthetic(
//!     64, cfg.string_len, 0.75, UnknowingAssignment::RandomPerNode, 7,
//! );
//! let harness = AerHarness::from_precondition(cfg, &pre);
//! let out = harness.run(&harness.engine_sync(), 7, &mut NoAdversary);
//! assert_eq!(out.unanimous(), Some(&pre.gstring));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod adversary;
mod aer;
mod config;
mod msg;
pub mod pull;
pub mod push;
mod state;
pub mod trace;

pub use aer::{AerHarness, AerNode};
pub use config::{default_faults, AerConfig, ConfigError};
pub use msg::AerMsg;
pub use state::AerRunState;
