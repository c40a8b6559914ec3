//! Checkpoint/WAL layer: durable phase state for crash–restart recovery.
//!
//! Honest nodes snapshot their agreement-phase progress — accepted
//! strings from the push phase, the believed string and any decision —
//! into a [`Checkpoint`] on a configurable cadence, and
//! append fine-grained [`WalRecord`]s between snapshots. On restart,
//! [`CheckpointStore::restore`] replays the write-ahead log on top of the
//! last snapshot, reconstructing the state as of the crash step with no
//! RNG involved: restore is a pure fold over the log, so a crashed run
//! stays a deterministic function of `(seed, spec)`.
//!
//! The store models stable storage inside a simulated node: appends are
//! immediately durable (the simulated crash loses only *transient* state,
//! i.e. whatever the protocol never logged), and
//! [`CheckpointStore::maybe_snapshot`] compacts the log into the snapshot
//! once the cadence has elapsed, bounding replay length.

use fba_samplers::GString;
use fba_sim::Step;

/// Tuning for the checkpoint layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Steps between WAL compactions into a full snapshot. Smaller
    /// cadence means shorter replay at restart and more snapshot work
    /// during normal operation.
    pub cadence: Step,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig { cadence: 8 }
    }
}

/// One durable event in a node's write-ahead log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// The push phase accepted a candidate string.
    Accept(GString),
    /// The pull phase adopted a believed string.
    Believe(GString),
    /// The node decided on a string.
    Decide(GString),
}

/// A compact snapshot of a node's agreement-phase progress.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Checkpoint {
    /// Step the snapshot covers up to (exclusive).
    pub step: Step,
    /// Strings the push phase has accepted, in acceptance order.
    pub accepted: Vec<GString>,
    /// The believed string, if any.
    pub belief: Option<GString>,
    /// The decided string, if the node decided before crashing.
    pub decided: Option<GString>,
}

impl Checkpoint {
    fn apply(&mut self, record: &WalRecord) {
        match record {
            WalRecord::Accept(x) => self.accepted.push(*x),
            WalRecord::Believe(x) => self.belief = Some(*x),
            WalRecord::Decide(x) => self.decided = Some(*x),
        }
    }
}

/// Per-node stable storage: the last snapshot plus the WAL of records
/// appended since.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointStore {
    cadence: Step,
    snapshot: Checkpoint,
    wal: Vec<(Step, WalRecord)>,
    appends: u64,
    snapshots: u64,
}

impl CheckpointStore {
    /// A fresh store with the given snapshot cadence.
    #[must_use]
    pub fn new(config: RecoveryConfig) -> Self {
        CheckpointStore {
            cadence: config.cadence,
            snapshot: Checkpoint::default(),
            wal: Vec::new(),
            appends: 0,
            snapshots: 0,
        }
    }

    /// Appends a record to the WAL; immediately durable.
    pub fn append(&mut self, step: Step, record: WalRecord) {
        self.wal.push((step, record));
        self.appends += 1;
    }

    /// Compacts the WAL into the snapshot when the cadence has elapsed
    /// since the snapshot's covered step and there is anything to
    /// compact. Returns whether a snapshot was taken.
    pub fn maybe_snapshot(&mut self, step: Step) -> bool {
        if self.wal.is_empty() || step < self.snapshot.step + self.cadence {
            return false;
        }
        for (_, record) in self.wal.drain(..) {
            self.snapshot.apply(&record);
        }
        self.snapshot.step = step;
        self.snapshots += 1;
        true
    }

    /// Reconstructs the state as of the last durable record: the snapshot
    /// with the WAL replayed on top. Pure — no RNG, no side effects.
    #[must_use]
    pub fn restore(&self) -> Checkpoint {
        let mut state = self.snapshot.clone();
        for (step, record) in &self.wal {
            state.apply(record);
            state.step = (*step).max(state.step);
        }
        state
    }

    /// Records appended over the store's lifetime (compaction does not
    /// reset this).
    #[must_use]
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Snapshots taken over the store's lifetime.
    #[must_use]
    pub fn snapshots(&self) -> u64 {
        self.snapshots
    }

    /// Records currently awaiting compaction.
    #[must_use]
    pub fn wal_len(&self) -> usize {
        self.wal.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fba_sim::rng::derive_rng;

    fn gs(bits: &[bool]) -> GString {
        GString::from_bits(bits)
    }

    #[test]
    fn restore_replays_wal_over_snapshot() {
        let mut store = CheckpointStore::new(RecoveryConfig { cadence: 4 });
        let a = gs(&[true, false]);
        let b = gs(&[false, true]);
        store.append(1, WalRecord::Accept(a));
        store.append(2, WalRecord::Accept(b));
        store.append(2, WalRecord::Believe(b));
        assert!(store.maybe_snapshot(4));
        assert_eq!(store.wal_len(), 0);
        store.append(6, WalRecord::Decide(b));

        let state = store.restore();
        assert_eq!(state.accepted, vec![a, b]);
        assert_eq!(state.belief, Some(b));
        assert_eq!(state.decided, Some(b));
        assert_eq!(state.step, 6);
    }

    #[test]
    fn snapshot_respects_cadence() {
        let mut store = CheckpointStore::new(RecoveryConfig { cadence: 8 });
        store.append(1, WalRecord::Accept(gs(&[true])));
        assert!(!store.maybe_snapshot(3), "cadence not yet elapsed");
        assert!(!store.maybe_snapshot(7));
        assert!(store.maybe_snapshot(8));
        assert_eq!(store.snapshots(), 1);
        assert!(!store.maybe_snapshot(20), "empty WAL never snapshots");
    }

    #[test]
    fn restore_is_pure() {
        let mut store = CheckpointStore::new(RecoveryConfig::default());
        let mut rng = derive_rng(9, &[1]);
        let x = GString::random(16, &mut rng);
        store.append(3, WalRecord::Believe(x));
        let first = store.restore();
        let second = store.restore();
        assert_eq!(first, second);
        assert_eq!(store.wal_len(), 1, "restore does not consume the WAL");
    }

    #[test]
    fn fresh_store_restores_to_default() {
        let store = CheckpointStore::new(RecoveryConfig::default());
        assert_eq!(store.restore(), Checkpoint::default());
        assert_eq!(store.appends(), 0);
        assert_eq!(store.snapshots(), 0);
    }
}
