//! # fba-baselines — comparison protocols for Figure 1
//!
//! Reimplementations (at comparison fidelity — the complexity shape of
//! each Figure 1 row, not a line-by-line port; see README "Deviations
//! from the paper") of the protocols *Fast Byzantine Agreement* (PODC
//! 2013) compares against:
//!
//! * [`KlstNode`] — KLST11-style load-balanced almost-everywhere →
//!   everywhere diffusion: `O(log² n)` rounds, `Õ(√n)` bits/node
//!   (Figure 1a's first column).
//! * [`FloodNode`] — flooding diffusion: `O(1)` rounds, `Θ(n)` bits/node.
//! * [`BenOrNode`] — Ben-Or's randomized binary agreement (BO83):
//!   `Θ(n²)` messages per phase (Figure 1b lineage).
//! * [`KingNode`] — Phase-King deterministic agreement: `t + 1` phases,
//!   the `Θ(n)`-time counterpoint motivating randomized BA.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

mod benor;
mod flood;
mod klst;
mod phase_king;

pub use benor::{BenOrMsg, BenOrNode, BenOrParams};
pub use flood::{FloodMsg, FloodNode};
pub use klst::{KlstMsg, KlstNode, KlstParams};
pub use phase_king::{KingMsg, KingNode, KingParams};
