//! # fba-ae — the almost-everywhere agreement substrate
//!
//! *Fast Byzantine Agreement* (PODC 2013) composes its AER protocol with
//! an almost-everywhere agreement phase "along the lines of KSSV06"
//! whose contract is (§2.1): more than 3/4 of the correct nodes end up
//! knowing one common string `gstring` of `c·log n` bits, at least
//! `2/3 + ε` of whose bits are uniformly random — all with
//! poly-logarithmic per-node communication and poly-logarithmic rounds.
//!
//! This crate provides that contract twice over:
//!
//! * [`AeNode`]/[`run_ae`] — a real message-passing committee-tree
//!   protocol (leaf randomness → tournament ascent → supreme committee →
//!   diffusion); see the [`AeNode`] docs and README "Deviations from
//!   the paper" for its relation to the full KSSV06 construction.
//! * [`Precondition::synthetic`] — direct injection of the postcondition,
//!   used to isolate AER in experiments exactly the way the paper's
//!   analysis does (including worst-case variants the real protocol
//!   would rarely produce).
//!
//! ```
//! use fba_ae::{run_ae, AeConfig};
//! use fba_sim::NoAdversary;
//!
//! let cfg = AeConfig::recommended(64);
//! let outcome = run_ae(&cfg, 42, &mut NoAdversary);
//! assert!(outcome.knowing_fraction > 0.75);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

mod harness;
mod precondition;
mod protocol;
pub mod tree;

pub use harness::{ae_engine, run_ae, run_ae_with, AeOutcome};
pub use precondition::{random_fraction, Precondition, UnknowingAssignment};
pub use protocol::{AeConfig, AeMsg, AeNode};
