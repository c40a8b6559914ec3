//! fba-recovery: the crash–restart fault family.
//!
//! Byzantine agreement in this repo so far faced one fault family —
//! adversarial corruption. This crate adds the second classic family:
//! *crash–restart* faults, where honest nodes go dark for a window of
//! steps and then come back, having lost whatever state they never made
//! durable. Three layers:
//!
//! - [`spec`] — the `crash:[3..7]64` schedule grammar (window × node
//!   count, `;`-chained, validated like the `sched:` adversary grammar)
//!   and its seeded resolution into an engine-facing
//!   [`fba_sim::CrashPlan`].
//! - [`checkpoint`] — a per-node snapshot + write-ahead-log store
//!   ([`CheckpointStore`]) that protocols use to persist phase progress
//!   on a cadence and replay it deterministically at restart.
//! - [`rejoin`] — rejoin-cost accounting ([`rejoin_report`]): steps from
//!   restart to decision per crashed node, the fault family's first-class
//!   metric.
//!
//! Determinism contract: resolving and running a crash schedule uses only
//! streams derived from the run's seeds ([`fba_sim::rng::TAG_CRASH`]), so
//! a crashed run is reproducible from `(seed, spec)` alone, and an empty
//! schedule is bit-identical to the no-fault baseline.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod checkpoint;
pub mod rejoin;
pub mod spec;

pub use checkpoint::{Checkpoint, CheckpointStore, RecoveryConfig, WalRecord};
pub use rejoin::{rejoin_report, OutageRejoin, RejoinReport};
pub use spec::{CrashSpec, CRASH_EXPECTED};
