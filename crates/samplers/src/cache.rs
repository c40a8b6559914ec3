//! Sampler memoization: one run-shared set store, [`SharedSets`], over
//! each of the three samplers.
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
//! the index of a set in it. Slot reads are written once for every
//! sampler; each of the two aliases, [`SharedQuorumCache`] (`I`, `H`
//! over `(s, x)`) and [`SharedPollCache`] (`J` over `(x, r)`), adds only
//! its key format.

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

/// Memoized view of one sampler `S`, shared by every node of one
/// simulated run: key → dense [`SetSlot`] → sorted member set.
///
/// Samplers are *public* deterministic functions — every node computes the
/// same set for the same key — so memoizing per node would duplicate both
/// the work and the memory `n`-fold. One shared store per run amortizes
/// each Floyd evaluation across all consumers; clones share it. Sharing
/// uses `Rc<RefCell>`: the engine executes a run strictly single-threaded
/// (parallel sweeps fan out whole runs), and the contents are
/// outcome-invariant, so sharing cannot introduce nondeterminism.
#[derive(Clone, Debug)]
pub struct SharedSets<S> {
    sampler: S,
    sets: Rc<RefCell<Sets>>,
}

/// Run-shared memoized view of a [`QuorumSampler`] (`I` or `H`).
pub type SharedQuorumCache = SharedSets<QuorumSampler>;

/// Run-shared memoized view of a [`PollSampler`] (`J`).
pub type SharedPollCache = SharedSets<PollSampler>;

#[derive(Debug)]
struct Sets {
    sampler: Sampler,
    ids: FxHashMap<u64, u32>,
    /// `d` members per set, sets back to back in slot order.
    members: Vec<NodeId>,
    /// Per slot, the set as one shared list, built on first request (see
    /// [`SharedQuorumCache::quorum_shared`]); `members` stays what probes
    /// read.
    handles: Vec<Option<Rc<[NodeId]>>>,
    hits: u64,
    misses: u64,
}

impl<S> SharedSets<S> {
    fn over(sampler: S, raw: Sampler) -> Self {
        let sets = Sets {
            sampler: raw,
            ids: FxHashMap::default(),
            members: Vec::new(),
            handles: Vec::new(),
            hits: 0,
            misses: 0,
        };
        SharedSets {
            sampler,
            sets: Rc::new(RefCell::new(sets)),
        }
    }

    /// The dense slot for a raw sampler key, evaluating the set on first
    /// use.
    fn intern(&self, key: u64) -> SetSlot {
        let sets = &mut *self.sets.borrow_mut();
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

    /// The already-interned set at `slot` as a shared list: built from the
    /// arena once per slot, then handed out by reference count.
    fn shared_at(&self, slot: SetSlot) -> Rc<[NodeId]> {
        let sets = &mut *self.sets.borrow_mut();
        let (i, d) = (slot.0 as usize, sets.sampler.d());
        if sets.handles.len() <= i {
            sets.handles.resize(i + 1, None);
        }
        let members = &sets.members[i * d..][..d];
        Rc::clone(sets.handles[i].get_or_insert_with(|| members.into()))
    }

    /// The underlying sampler.
    #[must_use]
    pub fn sampler(&self) -> &S {
        &self.sampler
    }

    /// Runs `f` on the interned set at `slot`, sorted — a direct index,
    /// no key hashing. `f` may read this cache but not intern into it.
    ///
    /// # Panics
    ///
    /// Panics if `slot` did not come from this cache.
    pub fn set_at<R>(&self, slot: SetSlot, f: impl FnOnce(&[NodeId]) -> R) -> R {
        let sets = self.sets.borrow();
        let d = sets.sampler.d();
        f(&sets.members[slot.0 as usize * d..][..d])
    }

    /// Membership test against the interned set at `slot` (no key
    /// hashing).
    ///
    /// # Panics
    ///
    /// Panics if `slot` did not come from this cache.
    #[must_use]
    pub fn contains_at(&self, slot: SetSlot, y: NodeId) -> bool {
        self.position_at(slot, y).is_some()
    }

    /// Position of `y` within the interned set at `slot`, if a member (no
    /// key hashing).
    ///
    /// Positions are stable (sets are immutable once computed), which lets
    /// protocol state track "which members voted" as a bitmask instead of
    /// an allocated set.
    ///
    /// # Panics
    ///
    /// Panics if `slot` did not come from this cache.
    #[must_use]
    pub fn position_at(&self, slot: SetSlot, y: NodeId) -> Option<usize> {
        self.set_at(slot, |set| set.binary_search(&y).ok())
    }

    /// `(hits, misses)` counters of keyed lookups — instrumentation for
    /// benches and tests; slot reads do not count.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        let sets = self.sets.borrow();
        (sets.hits, sets.misses)
    }
}

impl SharedSets<QuorumSampler> {
    /// An empty shared cache over `sampler`.
    #[must_use]
    pub fn new(sampler: QuorumSampler) -> Self {
        Self::over(sampler, sampler.raw())
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
        self.intern(self.sampler.key(s, x))
    }

    /// Runs `f` on the memoized quorum `I(s, x)` / `H(s, x)`, sorted.
    pub fn quorum_with<R>(&self, s: StringKey, x: NodeId, f: impl FnOnce(&[NodeId]) -> R) -> R {
        self.set_at(self.slot(s, x), f)
    }

    /// The memoized quorum `I(s, x)` / `H(s, x)`, sorted, as a handle
    /// every caller shares: one list per interned set, however many
    /// holders (in-flight runs, say) it has. Counts as one keyed lookup,
    /// like [`SharedQuorumCache::quorum_with`].
    #[must_use]
    pub fn quorum_shared(&self, s: StringKey, x: NodeId) -> Rc<[NodeId]> {
        self.shared_at(self.slot(s, x))
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
        self.position_at(self.slot(s, x), y)
    }
}

impl SharedSets<PollSampler> {
    /// An empty shared cache over `sampler`.
    #[must_use]
    pub fn new(sampler: PollSampler) -> Self {
        Self::over(sampler, sampler.raw())
    }

    /// Interns the poll list `J(x, r)`, returning its dense [`SetSlot`].
    #[must_use]
    pub fn slot(&self, x: NodeId, r: Label) -> SetSlot {
        self.intern(self.sampler.key(x, r))
    }

    /// Runs `f` on the memoized poll list `J(x, r)`, sorted.
    pub fn poll_list_with<R>(&self, x: NodeId, r: Label, f: impl FnOnce(&[NodeId]) -> R) -> R {
        self.set_at(self.slot(x, r), f)
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
        self.position_at(self.slot(x, r), w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quorum::tags;

    #[test]
    fn store_hits_after_first_use() {
        let cache = SharedQuorumCache::new(QuorumSampler::new(5, 3, 64, 8));
        let (s, x) = (StringKey(42), NodeId::from_index(1));
        let slot = cache.slot(s, x);
        assert_eq!(cache.stats(), (0, 1));
        assert_eq!(cache.slot(s, x), slot);
        assert_eq!(cache.stats(), (1, 1));
        let first = cache.set_at(slot, |set| set[0]);
        assert_eq!(cache.position_at(slot, first), Some(0));
        assert_eq!(cache.stats(), (1, 1), "slot reads do not count");
    }

    #[test]
    fn interned_slots_are_stable_and_index_the_same_sets() {
        // The flat arena at both sides of the old inline/heap split
        // (32 members) and at the d = n and d = 1 edges.
        for (n, d) in [(64usize, 8usize), (200, 32), (200, 42), (12, 12), (9, 1)] {
            let q = QuorumSampler::new(5, 3, n, d);
            let cache = SharedQuorumCache::new(q);
            let x = NodeId::from_index(0);
            let slots: Vec<SetSlot> = (0..50).map(|k| cache.slot(StringKey(k), x)).collect();
            for (key, &slot) in slots.iter().enumerate() {
                let s = StringKey(key as u64);
                assert_eq!(slot, SetSlot(key as u32), "dense, in first-use order");
                assert_eq!(cache.slot(s, x), slot, "re-interning is stable");
                // Later interning grew the arena; earlier slots still
                // read the same set.
                assert_eq!(
                    cache.set_at(slot, <[NodeId]>::to_vec),
                    q.quorum(s, x),
                    "n={n} d={d} key={key}"
                );
            }
            assert_eq!(cache.stats(), (50, 50));
        }
    }

    #[test]
    fn a_shared_quorum_is_built_once_per_slot_and_counted_as_a_lookup() {
        let cache = SharedQuorumCache::new(QuorumSampler::new(9, tags::PULL, 128, 10));
        let (s, x, y) = (StringKey(3), NodeId::from_index(5), NodeId::from_index(6));
        let first = cache.quorum_shared(s, x);
        assert_eq!(cache.stats(), (0, 1));
        assert_eq!(&first[..], cache.sampler().quorum(s, x));
        let other = cache.quorum_shared(s, y);
        let again = cache.quorum_shared(s, x);
        assert!(Rc::ptr_eq(&first, &again), "one list per slot");
        assert!(!Rc::ptr_eq(&first, &other));
        assert_eq!(cache.stats(), (1, 2), "one keyed lookup per call");
        assert_eq!(cache.quorum_with(s, x, <[NodeId]>::to_vec), &first[..]);
    }

    #[test]
    fn shared_slot_accessors_agree_with_keyed_ones() {
        let quorums = SharedQuorumCache::new(QuorumSampler::new(9, tags::PULL, 128, 10));
        let j = PollSampler::new(9, 128, 10, PollSampler::default_cardinality(128));
        let polls = SharedPollCache::new(j);
        for k in 0..16u64 {
            let s = StringKey(k);
            let x = NodeId::from_index((k % 128) as usize);
            let r = Label(k * 1009 % j.label_cardinality());
            let (q_slot, p_slot) = (quorums.slot(s, x), polls.slot(x, r));
            assert_eq!(quorums.slot(s, x), q_slot, "slots are stable");
            assert_eq!(polls.slot(x, r), p_slot, "slots are stable");
            for yi in (0..128).step_by(11) {
                let y = NodeId::from_index(yi);
                assert_eq!(quorums.contains_at(q_slot, y), quorums.contains(s, x, y));
                assert_eq!(quorums.position_at(q_slot, y), quorums.position(s, x, y));
                assert_eq!(polls.contains_at(p_slot, y), polls.contains(x, r, y));
                assert_eq!(polls.position_at(p_slot, y), polls.position(x, r, y));
            }
        }
    }
}
