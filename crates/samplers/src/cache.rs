//! Quorum memoization: one run-shared set store behind typed key formats.
//!
//! Sampler evaluations are pure functions of `(public seed, key)`, so the
//! push/pull hot paths — which test quorum membership for the *same*
//! `(string, node)` pair once per arriving message — can memoize whole
//! sets and answer repeat queries with one fast-hash lookup plus a binary
//! search. Because the memoized value is exactly what the sampler would
//! recompute, caching is outcome-invariant: the randomized tests in
//! `tests/cache_equiv.rs` check that the run-shared caches and uncached
//! evaluation agree on every key, on the miss and on the hit path.
//!
//! Every set of one sampler has the same size `d`, so the store keeps
//! them back to back in one flat vector at stride `d`; a [`SetSlot`] is
//! the index of a set in it. [`SharedQuorumCache`] and
//! [`SharedPollCache`] are the typed key formats over that store and the
//! only public memo API.

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::rc::Rc;

use fba_sim::fxhash::FxHashMap;
use fba_sim::NodeId;

use crate::poll::{Label, PollSampler};
use crate::quorum::QuorumSampler;
use crate::sampler::Sampler;
use crate::strings::StringKey;

/// A compact dense id for one memoized sampler set.
///
/// Slots are assigned in first-evaluation order, which makes them stable
/// for the lifetime of the cache: protocol state can key per-set
/// bookkeeping by slot — a 4-byte id and a direct `Vec` index — instead of
/// re-hashing the full sampler key on every message (see `fba-core`'s
/// `Fw1` rows). Slot values are an artifact of execution order and never
/// appear in any protocol outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SetSlot(pub u32);

/// Memoized view of one [`Sampler`], shared by every node of one
/// simulated run: raw key → dense [`SetSlot`] → sorted member set.
///
/// Samplers are *public* deterministic functions — every node computes the
/// same set for the same key — so memoizing per node would duplicate both
/// the work and the memory `n`-fold. One shared store per run amortizes
/// each Floyd evaluation across all consumers. Sharing uses `Rc<RefCell>`:
/// the engine executes a run strictly single-threaded (parallel sweeps
/// fan out whole runs), and the contents are outcome-invariant, so
/// sharing cannot introduce nondeterminism.
#[derive(Clone, Debug)]
struct SetStore(Rc<RefCell<Sets>>);

#[derive(Debug)]
struct Sets {
    sampler: Sampler,
    ids: FxHashMap<u64, u32>,
    /// `d` members per set, sets back to back in slot order.
    members: Vec<NodeId>,
    hits: u64,
    misses: u64,
}

impl SetStore {
    fn new(sampler: Sampler) -> Self {
        SetStore(Rc::new(RefCell::new(Sets {
            sampler,
            ids: FxHashMap::default(),
            members: Vec::new(),
            hits: 0,
            misses: 0,
        })))
    }

    /// The dense slot for a raw sampler key, evaluating the set on first
    /// use.
    fn slot(&self, key: u64) -> SetSlot {
        let sets = &mut *self.0.borrow_mut();
        let next = sets.ids.len();
        match sets.ids.entry(key) {
            Entry::Occupied(e) => {
                sets.hits += 1;
                SetSlot(*e.get())
            }
            Entry::Vacant(e) => {
                sets.misses += 1;
                let id = u32::try_from(next).expect("more than u32::MAX cached sets");
                sets.sampler.sorted_into(key, &mut sets.members);
                SetSlot(*e.insert(id))
            }
        }
    }

    /// Runs `f` on the already-interned set at `slot` — a direct index,
    /// no key hashing. `f` may read this store but not intern into it.
    ///
    /// # Panics
    ///
    /// Panics if `slot` did not come from this store's [`SetStore::slot`].
    fn with_at<R>(&self, slot: SetSlot, f: impl FnOnce(&[NodeId]) -> R) -> R {
        let sets = self.0.borrow();
        let d = sets.sampler.d();
        f(&sets.members[slot.0 as usize * d..][..d])
    }

    /// Position of `id` within the sorted set at `slot`, if a member.
    ///
    /// Positions are stable (sets are immutable once computed), which lets
    /// protocol state track "which members voted" as a bitmask instead of
    /// an allocated set.
    fn position_at(&self, slot: SetSlot, id: NodeId) -> Option<usize> {
        self.with_at(slot, |set| set.binary_search(&id).ok())
    }

    /// `(hits, misses)` counters — instrumentation for benches and tests.
    fn stats(&self) -> (u64, u64) {
        let sets = self.0.borrow();
        (sets.hits, sets.misses)
    }
}

/// Run-shared memoized view of a [`QuorumSampler`] (`I` or `H`).
#[derive(Clone, Debug)]
pub struct SharedQuorumCache {
    sampler: QuorumSampler,
    sets: SetStore,
}

impl SharedQuorumCache {
    /// An empty shared cache over `sampler`.
    #[must_use]
    pub fn new(sampler: QuorumSampler) -> Self {
        SharedQuorumCache {
            sampler,
            sets: SetStore::new(sampler.raw()),
        }
    }

    /// The underlying sampler.
    #[must_use]
    pub fn sampler(&self) -> &QuorumSampler {
        &self.sampler
    }

    /// Strict-majority threshold (see [`QuorumSampler::majority`]).
    #[must_use]
    pub fn majority(&self) -> usize {
        self.sampler.majority()
    }

    /// Interns the quorum `quorum(s, x)`, returning its dense [`SetSlot`]
    /// — hot paths key per-quorum state by slot instead of `(s, x)`.
    #[must_use]
    pub fn slot(&self, s: StringKey, x: NodeId) -> SetSlot {
        self.sets.slot(self.sampler.key(s, x))
    }

    /// Runs `f` on the memoized quorum `I(s, x)` / `H(s, x)`, sorted.
    pub fn quorum_with<R>(&self, s: StringKey, x: NodeId, f: impl FnOnce(&[NodeId]) -> R) -> R {
        self.sets.with_at(self.slot(s, x), f)
    }

    /// Membership test `y ∈ quorum(s, x)`, memoized.
    #[must_use]
    pub fn contains(&self, s: StringKey, x: NodeId, y: NodeId) -> bool {
        self.position(s, x, y).is_some()
    }

    /// Position of `y` within the sorted quorum `quorum(s, x)`, if a
    /// member. Positions are stable: sets are immutable once computed.
    #[must_use]
    pub fn position(&self, s: StringKey, x: NodeId, y: NodeId) -> Option<usize> {
        self.sets.position_at(self.slot(s, x), y)
    }

    /// Runs `f` on the interned quorum at `slot`, sorted — a direct
    /// index, no key hashing. `f` may read this cache but not intern
    /// into it.
    ///
    /// # Panics
    ///
    /// Panics if `slot` did not come from this cache.
    pub fn quorum_at<R>(&self, slot: SetSlot, f: impl FnOnce(&[NodeId]) -> R) -> R {
        self.sets.with_at(slot, f)
    }

    /// Membership test against the interned quorum at `slot` (no key
    /// hashing).
    ///
    /// # Panics
    ///
    /// Panics if `slot` did not come from this cache.
    #[must_use]
    pub fn contains_at(&self, slot: SetSlot, y: NodeId) -> bool {
        self.position_at(slot, y).is_some()
    }

    /// Position of `y` within the interned quorum at `slot`, if a member
    /// (no key hashing).
    ///
    /// # Panics
    ///
    /// Panics if `slot` did not come from this cache.
    #[must_use]
    pub fn position_at(&self, slot: SetSlot, y: NodeId) -> Option<usize> {
        self.sets.position_at(slot, y)
    }

    /// `(hits, misses)` counters.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        self.sets.stats()
    }
}

/// Run-shared memoized view of a [`PollSampler`] (`J`).
#[derive(Clone, Debug)]
pub struct SharedPollCache {
    sampler: PollSampler,
    sets: SetStore,
}

impl SharedPollCache {
    /// An empty shared cache over `sampler`.
    #[must_use]
    pub fn new(sampler: PollSampler) -> Self {
        SharedPollCache {
            sampler,
            sets: SetStore::new(sampler.raw()),
        }
    }

    /// The underlying sampler.
    #[must_use]
    pub fn sampler(&self) -> &PollSampler {
        &self.sampler
    }

    /// Interns the poll list `J(x, r)`, returning its dense [`SetSlot`].
    #[must_use]
    pub fn slot(&self, x: NodeId, r: Label) -> SetSlot {
        self.sets.slot(self.sampler.key(x, r))
    }

    /// Runs `f` on the memoized poll list `J(x, r)`, sorted.
    pub fn poll_list_with<R>(&self, x: NodeId, r: Label, f: impl FnOnce(&[NodeId]) -> R) -> R {
        self.sets.with_at(self.slot(x, r), f)
    }

    /// Membership test `w ∈ J(x, r)`, memoized.
    #[must_use]
    pub fn contains(&self, x: NodeId, r: Label, w: NodeId) -> bool {
        self.position(x, r, w).is_some()
    }

    /// Position of `w` within the sorted poll list `J(x, r)`, if a
    /// member.
    #[must_use]
    pub fn position(&self, x: NodeId, r: Label, w: NodeId) -> Option<usize> {
        self.sets.position_at(self.slot(x, r), w)
    }

    /// Membership test against the interned poll list at `slot` (no key
    /// hashing).
    ///
    /// # Panics
    ///
    /// Panics if `slot` did not come from this cache.
    #[must_use]
    pub fn contains_at(&self, slot: SetSlot, w: NodeId) -> bool {
        self.position_at(slot, w).is_some()
    }

    /// Position of `w` within the interned poll list at `slot`, if a
    /// member (no key hashing).
    ///
    /// # Panics
    ///
    /// Panics if `slot` did not come from this cache.
    #[must_use]
    pub fn position_at(&self, slot: SetSlot, w: NodeId) -> Option<usize> {
        self.sets.position_at(slot, w)
    }

    /// `(hits, misses)` counters.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        self.sets.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quorum::tags;

    #[test]
    fn store_hits_after_first_use() {
        let store = SetStore::new(Sampler::new(5, 3, 64, 8));
        let slot = store.slot(42);
        assert_eq!(store.stats(), (0, 1));
        assert_eq!(store.slot(42), slot);
        assert_eq!(store.stats(), (1, 1));
        let first = store.with_at(slot, |set| set[0]);
        assert_eq!(store.position_at(slot, first), Some(0));
        assert_eq!(store.stats(), (1, 1), "slot reads do not count");
    }

    #[test]
    fn interned_slots_are_stable_and_index_the_same_sets() {
        // The flat arena at both sides of the old inline/heap split
        // (32 members) and at the d = n and d = 1 edges.
        for (n, d) in [(64usize, 8usize), (200, 32), (200, 42), (12, 12), (9, 1)] {
            let s = Sampler::new(5, 3, n, d);
            let store = SetStore::new(s);
            let slots: Vec<SetSlot> = (0..50).map(|key| store.slot(key)).collect();
            for (key, &slot) in slots.iter().enumerate() {
                assert_eq!(slot, SetSlot(key as u32), "dense, in first-use order");
                assert_eq!(store.slot(key as u64), slot, "re-interning is stable");
                // Later interning grew the arena; earlier slots still
                // read the same set.
                assert_eq!(
                    store.with_at(slot, <[NodeId]>::to_vec),
                    s.set_for(key as u64),
                    "n={n} d={d} key={key}"
                );
            }
            assert_eq!(store.stats(), (50, 50));
        }
    }

    #[test]
    fn shared_slot_accessors_agree_with_keyed_ones() {
        let q = QuorumSampler::new(9, tags::PULL, 128, 10);
        let cache = SharedQuorumCache::new(q);
        for k in 0..16u64 {
            let s = StringKey(k);
            let x = NodeId::from_index((k % 128) as usize);
            let slot = cache.slot(s, x);
            assert_eq!(cache.slot(s, x), slot, "slots are stable");
            for yi in (0..128).step_by(11) {
                let y = NodeId::from_index(yi);
                assert_eq!(cache.contains_at(slot, y), cache.contains(s, x, y));
                assert_eq!(cache.position_at(slot, y), cache.position(s, x, y));
            }
        }
    }
}
