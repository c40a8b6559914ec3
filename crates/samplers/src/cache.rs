//! Quorum memoization: inline set storage and per-node sampler caches.
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
//! Sets are stored in a [`QuorumVec`], an inline small-vector sized for
//! the paper's `d = Θ(log n)` quorums (`d ≤ 32` covers `n` beyond 10⁴ at
//! the default κ = 3); larger `d` spills to the heap transparently.

use fba_sim::fxhash::FxHashMap;
use fba_sim::NodeId;

use crate::poll::{Label, PollSampler};
use crate::quorum::QuorumSampler;
use crate::sampler::Sampler;
use crate::strings::StringKey;

/// Members stored inline before spilling to the heap.
pub const INLINE_QUORUM: usize = 32;

/// A sorted set of node ids with inline storage for small `d`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuorumVec {
    inner: Inner,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Inner {
    Inline {
        buf: [NodeId; INLINE_QUORUM],
        len: u8,
    },
    Heap(Vec<NodeId>),
}

impl QuorumVec {
    /// An empty set that can hold `capacity` members without spilling
    /// decisions later (inline iff `capacity ≤ INLINE_QUORUM`).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        QuorumVec {
            inner: if capacity <= INLINE_QUORUM {
                Inner::Inline {
                    buf: [NodeId::default(); INLINE_QUORUM],
                    len: 0,
                }
            } else {
                Inner::Heap(Vec::with_capacity(capacity))
            },
        }
    }

    /// The members as a sorted slice.
    #[must_use]
    pub fn as_slice(&self) -> &[NodeId] {
        match &self.inner {
            Inner::Inline { buf, len } => &buf[..usize::from(*len)],
            Inner::Heap(v) => v,
        }
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Sorted membership test.
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        self.as_slice().binary_search(&id).is_ok()
    }

    /// Inserts at `pos`, shifting the tail right.
    ///
    /// # Panics
    ///
    /// Panics if `pos > len` or an inline buffer is already full.
    fn insert(&mut self, pos: usize, id: NodeId) {
        match &mut self.inner {
            Inner::Inline { buf, len } => {
                let l = usize::from(*len);
                assert!(l < INLINE_QUORUM && pos <= l, "inline insert out of range");
                buf.copy_within(pos..l, pos + 1);
                buf[pos] = id;
                *len += 1;
            }
            Inner::Heap(v) => v.insert(pos, id),
        }
    }

    /// Copies the members into a plain vector.
    #[must_use]
    pub fn to_vec(&self) -> Vec<NodeId> {
        self.as_slice().to_vec()
    }
}

impl std::ops::Deref for QuorumVec {
    type Target = [NodeId];
    fn deref(&self) -> &[NodeId] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a QuorumVec {
    type Item = &'a NodeId;
    type IntoIter = std::slice::Iter<'a, NodeId>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl Sampler {
    /// Fills `out` with the `d`-subset assigned to `key`, sorted ascending
    /// — the [`Sampler::set_for`] evaluation writing into a [`QuorumVec`].
    #[allow(clippy::explicit_counter_loop)] // `i` indexes the hash stream, not the loop
    pub(crate) fn fill(&self, key: u64, out: &mut QuorumVec) {
        debug_assert!(out.is_empty(), "fill expects an empty target");
        let mut i = 0u64;
        for j in (self.n() - self.d())..self.n() {
            let t = NodeId::from_index(self.pick(key, i, j));
            i += 1;
            match out.as_slice().binary_search(&t) {
                Ok(_) => {
                    let pos = out.len();
                    out.insert(pos, NodeId::from_index(j));
                }
                Err(pos) => out.insert(pos, t),
            }
        }
    }
}

/// A compact dense id for one memoized sampler set.
///
/// Slots are assigned in first-evaluation order by a [`SetCache`] (and so
/// by the run-shared [`SharedSetCache`]), which makes them stable for the
/// lifetime of the cache: protocol state can key per-set bookkeeping by
/// slot — a 4-byte id and a direct `Vec` index — instead of re-hashing the
/// full sampler key on every message (see `fba-core`'s `on_fw1` arena).
/// Slot values are an artifact of execution order and never appear in any
/// protocol outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SetSlot(pub u32);

/// Memoized view of one [`Sampler`]: raw-key → dense [`SetSlot`] → sorted
/// member set.
#[derive(Clone, Debug)]
pub struct SetCache {
    sampler: Sampler,
    ids: FxHashMap<u64, u32>,
    sets: Vec<QuorumVec>,
    hits: u64,
    misses: u64,
}

impl SetCache {
    /// An empty cache over `sampler`.
    #[must_use]
    pub fn new(sampler: Sampler) -> Self {
        SetCache {
            sampler,
            ids: FxHashMap::default(),
            sets: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// The dense slot for a raw sampler key, evaluating the set on first
    /// use.
    pub fn intern(&mut self, key: u64) -> SetSlot {
        match self.ids.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.hits += 1;
                SetSlot(*e.get())
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                self.misses += 1;
                let id = u32::try_from(self.sets.len()).expect("more than u32::MAX cached sets");
                let mut q = QuorumVec::with_capacity(self.sampler.d());
                self.sampler.fill(key, &mut q);
                self.sets.push(q);
                e.insert(id);
                SetSlot(id)
            }
        }
    }

    /// The cached set for a raw sampler key, computing it on first use.
    pub fn get(&mut self, key: u64) -> &QuorumVec {
        let slot = self.intern(key);
        &self.sets[slot.0 as usize]
    }

    /// The already-interned set at `slot` — a direct index, no hashing.
    ///
    /// # Panics
    ///
    /// Panics if `slot` did not come from this cache's [`SetCache::intern`].
    #[must_use]
    pub fn set_at(&self, slot: SetSlot) -> &QuorumVec {
        &self.sets[slot.0 as usize]
    }

    /// Membership test against the cached set.
    pub fn contains(&mut self, key: u64, id: NodeId) -> bool {
        self.get(key).contains(id)
    }

    /// `(hits, misses)` counters — instrumentation for benches and tests.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of memoized sets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether nothing is memoized yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }
}

/// A [`SetCache`] shared by every node of one simulated run.
///
/// Samplers are *public* deterministic functions — every node computes the
/// same set for the same key — so memoizing per node would duplicate both
/// the work and the memory `n`-fold. One shared cache per run amortizes
/// each Floyd evaluation across all consumers. Sharing uses `Rc<RefCell>`:
/// the engine executes a run strictly single-threaded (parallel sweeps
/// fan out whole runs), and cache contents are outcome-invariant, so
/// sharing cannot introduce nondeterminism.
#[derive(Clone, Debug)]
pub struct SharedSetCache(std::rc::Rc<std::cell::RefCell<SetCache>>);

impl SharedSetCache {
    /// An empty shared cache over `sampler`.
    #[must_use]
    pub fn new(sampler: Sampler) -> Self {
        SharedSetCache(std::rc::Rc::new(std::cell::RefCell::new(SetCache::new(
            sampler,
        ))))
    }

    /// Runs `f` on the cached (or newly computed) set for `key`.
    ///
    /// # Panics
    ///
    /// Panics if `f` re-enters this same cache.
    pub fn with_set<R>(&self, key: u64, f: impl FnOnce(&[NodeId]) -> R) -> R {
        let mut cache = self.0.borrow_mut();
        f(cache.get(key).as_slice())
    }

    /// Interns `key`, returning its dense [`SetSlot`] (see [`SetSlot`]).
    #[must_use]
    pub fn intern(&self, key: u64) -> SetSlot {
        self.0.borrow_mut().intern(key)
    }

    /// Runs `f` on the already-interned set at `slot` — a direct index,
    /// no key hashing. `f` may read this cache but not intern into it.
    ///
    /// # Panics
    ///
    /// Panics if `slot` did not come from this cache's
    /// [`SharedSetCache::intern`].
    pub fn with_set_at<R>(&self, slot: SetSlot, f: impl FnOnce(&[NodeId]) -> R) -> R {
        f(self.0.borrow().set_at(slot).as_slice())
    }

    /// Membership test against the already-interned set at `slot` — a
    /// direct index, no key hashing.
    ///
    /// # Panics
    ///
    /// Panics if `slot` did not come from this cache's
    /// [`SharedSetCache::intern`].
    #[must_use]
    pub fn contains_at(&self, slot: SetSlot, id: NodeId) -> bool {
        self.0.borrow().set_at(slot).contains(id)
    }

    /// Position of `id` within the already-interned sorted set at `slot`,
    /// if a member (positions are stable; see [`SharedSetCache::position`]).
    ///
    /// # Panics
    ///
    /// Panics if `slot` did not come from this cache's
    /// [`SharedSetCache::intern`].
    #[must_use]
    pub fn position_at(&self, slot: SetSlot, id: NodeId) -> Option<usize> {
        self.0
            .borrow()
            .set_at(slot)
            .as_slice()
            .binary_search(&id)
            .ok()
    }

    /// Membership test against the cached set.
    #[must_use]
    pub fn contains(&self, key: u64, id: NodeId) -> bool {
        self.0.borrow_mut().contains(key, id)
    }

    /// Position of `id` within the cached sorted set, if a member.
    ///
    /// Positions are stable (sets are immutable once computed), which lets
    /// protocol state track "which members voted" as a bitmask instead of
    /// an allocated set.
    #[must_use]
    pub fn position(&self, key: u64, id: NodeId) -> Option<usize> {
        self.0
            .borrow_mut()
            .get(key)
            .as_slice()
            .binary_search(&id)
            .ok()
    }

    /// `(hits, misses)` counters.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        self.0.borrow().stats()
    }

    /// Number of memoized sets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.borrow().len()
    }

    /// Whether nothing is memoized yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.borrow().is_empty()
    }
}

/// Run-shared memoized view of a [`QuorumSampler`] (`I` or `H`).
#[derive(Clone, Debug)]
pub struct SharedQuorumCache {
    sampler: QuorumSampler,
    sets: SharedSetCache,
}

impl SharedQuorumCache {
    /// An empty shared cache over `sampler`.
    #[must_use]
    pub fn new(sampler: QuorumSampler) -> Self {
        SharedQuorumCache {
            sampler,
            sets: SharedSetCache::new(sampler.raw()),
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

    /// Runs `f` on the memoized quorum `I(s, x)` / `H(s, x)`.
    pub fn quorum_with<R>(&self, s: StringKey, x: NodeId, f: impl FnOnce(&[NodeId]) -> R) -> R {
        self.sets.with_set(self.sampler.key(s, x), f)
    }

    /// Membership test `y ∈ quorum(s, x)`, memoized.
    #[must_use]
    pub fn contains(&self, s: StringKey, x: NodeId, y: NodeId) -> bool {
        self.sets.contains(self.sampler.key(s, x), y)
    }

    /// Position of `y` within the sorted quorum `quorum(s, x)`, if a
    /// member (see [`SharedSetCache::position`]).
    #[must_use]
    pub fn position(&self, s: StringKey, x: NodeId, y: NodeId) -> Option<usize> {
        self.sets.position(self.sampler.key(s, x), y)
    }

    /// Interns the quorum `quorum(s, x)`, returning its dense [`SetSlot`]
    /// — hot paths key per-quorum state by slot instead of `(s, x)`.
    #[must_use]
    pub fn slot(&self, s: StringKey, x: NodeId) -> SetSlot {
        self.sets.intern(self.sampler.key(s, x))
    }

    /// Runs `f` on the interned quorum at `slot`, sorted (no key hashing;
    /// see [`SharedSetCache::with_set_at`]).
    ///
    /// # Panics
    ///
    /// Panics if `slot` did not come from this cache.
    pub fn quorum_at<R>(&self, slot: SetSlot, f: impl FnOnce(&[NodeId]) -> R) -> R {
        self.sets.with_set_at(slot, f)
    }

    /// Membership test against the interned quorum at `slot` (no key
    /// hashing; see [`SharedSetCache::contains_at`]).
    ///
    /// # Panics
    ///
    /// Panics if `slot` did not come from this cache.
    #[must_use]
    pub fn contains_at(&self, slot: SetSlot, y: NodeId) -> bool {
        self.sets.contains_at(slot, y)
    }

    /// Position of `y` within the interned quorum at `slot`, if a member
    /// (no key hashing; see [`SharedSetCache::position_at`]).
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
    sets: SharedSetCache,
}

impl SharedPollCache {
    /// An empty shared cache over `sampler`.
    #[must_use]
    pub fn new(sampler: PollSampler) -> Self {
        SharedPollCache {
            sampler,
            sets: SharedSetCache::new(sampler.raw()),
        }
    }

    /// The underlying sampler.
    #[must_use]
    pub fn sampler(&self) -> &PollSampler {
        &self.sampler
    }

    /// Runs `f` on the memoized poll list `J(x, r)`.
    pub fn poll_list_with<R>(&self, x: NodeId, r: Label, f: impl FnOnce(&[NodeId]) -> R) -> R {
        self.sets.with_set(self.sampler.key(x, r), f)
    }

    /// Membership test `w ∈ J(x, r)`, memoized.
    #[must_use]
    pub fn contains(&self, x: NodeId, r: Label, w: NodeId) -> bool {
        self.sets.contains(self.sampler.key(x, r), w)
    }

    /// Position of `w` within the sorted poll list `J(x, r)`, if a member
    /// (see [`SharedSetCache::position`]).
    #[must_use]
    pub fn position(&self, x: NodeId, r: Label, w: NodeId) -> Option<usize> {
        self.sets.position(self.sampler.key(x, r), w)
    }

    /// Interns the poll list `J(x, r)`, returning its dense [`SetSlot`].
    #[must_use]
    pub fn slot(&self, x: NodeId, r: Label) -> SetSlot {
        self.sets.intern(self.sampler.key(x, r))
    }

    /// Membership test against the interned poll list at `slot` (no key
    /// hashing; see [`SharedSetCache::contains_at`]).
    ///
    /// # Panics
    ///
    /// Panics if `slot` did not come from this cache.
    #[must_use]
    pub fn contains_at(&self, slot: SetSlot, w: NodeId) -> bool {
        self.sets.contains_at(slot, w)
    }

    /// Position of `w` within the interned poll list at `slot`, if a
    /// member (no key hashing; see [`SharedSetCache::position_at`]).
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

/// A run-shared, slot-indexed arena of `u128` membership masks — the
/// struct-of-arrays backing for per-quorum vote counting.
///
/// Each [`SetSlot`] names one interned sampler set (e.g. a push quorum
/// `I(s, x)`), and slots are unique per `(s, x)` pair, so every slot's
/// mask has exactly one owning node: masks from all nodes can live in one
/// contiguous grow-on-demand vector instead of `n` per-node hash maps of
/// `BTreeSet`s. Bit `i` of a mask records a vote from the set's `i`-th
/// (sorted) member, which caps supported set sizes at 128 — far above the
/// `d = O(log n)` quorums any configured run uses.
///
/// Shared via `Rc<RefCell>` like the caches above: runs are strictly
/// single-threaded, and mask state is protocol state (not memoization),
/// written only by each slot's owning node.
#[derive(Clone, Debug, Default)]
pub struct SlotMasks(std::rc::Rc<std::cell::RefCell<Vec<u128>>>);

impl SlotMasks {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a vote from the member at `bit` into the mask at `slot`,
    /// growing the arena on demand. Returns `(newly_set, votes)`:
    /// whether this bit was previously unset, and the mask's resulting
    /// popcount.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 128`.
    pub fn vote(&self, slot: SetSlot, bit: u32) -> (bool, u32) {
        assert!(bit < 128, "SlotMasks supports member positions < 128");
        let mut masks = self.0.borrow_mut();
        let idx = slot.0 as usize;
        if idx >= masks.len() {
            masks.resize(idx + 1, 0);
        }
        let mask = &mut masks[idx];
        let b = 1u128 << bit;
        let newly = *mask & b == 0;
        *mask |= b;
        (newly, mask.count_ones())
    }

    /// The current mask at `slot` (zero if never voted on).
    #[must_use]
    pub fn mask(&self, slot: SetSlot) -> u128 {
        self.0
            .borrow()
            .get(slot.0 as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Zeroes every mask in place, keeping the arena's allocation.
    ///
    /// This is the mandatory per-instance reset of service (chained
    /// agreement) runs. Quorum slots are interned per `(string, node)`
    /// key, so when a later instance sees a string an earlier instance
    /// already voted on, a stale mask would silently mark its senders as
    /// duplicates and suppress candidate acceptance — the vote arena is
    /// the one shared structure whose contents are decision state rather
    /// than a pure function of the public sampler seed.
    pub fn reset(&self) {
        self.0.borrow_mut().fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quorum::tags;

    #[test]
    fn quorum_vec_inline_stays_sorted() {
        let mut q = QuorumVec::with_capacity(8);
        for idx in [5usize, 1, 9, 3, 7] {
            let id = NodeId::from_index(idx);
            let pos = q.as_slice().binary_search(&id).unwrap_err();
            q.insert(pos, id);
        }
        let got: Vec<usize> = q.as_slice().iter().map(|id| id.index()).collect();
        assert_eq!(got, vec![1, 3, 5, 7, 9]);
        assert!(q.contains(NodeId::from_index(7)));
        assert!(!q.contains(NodeId::from_index(2)));
        assert_eq!(q.len(), 5);
    }

    #[test]
    fn quorum_vec_heap_spill_for_large_capacity() {
        let d = INLINE_QUORUM + 10;
        let s = Sampler::new(3, 1, 4 * d, d);
        let mut q = QuorumVec::with_capacity(d);
        s.fill(77, &mut q);
        assert_eq!(q.len(), d);
        assert_eq!(q.to_vec(), s.set_for(77));
    }

    #[test]
    fn fill_matches_set_for() {
        let s = Sampler::new(11, 2, 100, 12);
        for key in 0..200u64 {
            let mut q = QuorumVec::with_capacity(s.d());
            s.fill(key, &mut q);
            assert_eq!(q.to_vec(), s.set_for(key), "key {key}");
        }
    }

    #[test]
    fn set_cache_hits_after_first_use() {
        let s = Sampler::new(5, 3, 64, 8);
        let mut c = SetCache::new(s);
        let first = c.get(42).to_vec();
        let again = c.get(42).to_vec();
        assert_eq!(first, again);
        assert_eq!(c.stats(), (1, 1));
        assert_eq!(c.len(), 1);
        assert!(c.contains(42, first[0]));
        assert_eq!(c.stats(), (2, 1));
    }

    #[test]
    fn interned_slots_are_stable_and_index_the_same_sets() {
        let s = Sampler::new(5, 3, 64, 8);
        let mut c = SetCache::new(s);
        let a = c.intern(42);
        let b = c.intern(99);
        assert_ne!(a, b, "distinct keys get distinct slots");
        assert_eq!(c.intern(42), a, "re-interning returns the same slot");
        assert_eq!(c.set_at(a).to_vec(), s.set_for(42));
        assert_eq!(c.set_at(b).to_vec(), s.set_for(99));
        assert_eq!(c.len(), 2);
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

    #[test]
    fn slot_masks_count_distinct_bits_per_slot() {
        let masks = SlotMasks::new();
        let a = SetSlot(3);
        let b = SetSlot(900); // far slot: forces growth
        assert_eq!(masks.vote(a, 0), (true, 1));
        assert_eq!(masks.vote(a, 5), (true, 2));
        // Duplicate vote: not newly set, count unchanged.
        assert_eq!(masks.vote(a, 5), (false, 2));
        assert_eq!(masks.vote(b, 127), (true, 1));
        assert_eq!(masks.mask(a), 0b10_0001);
        assert_eq!(masks.mask(SetSlot(4)), 0, "untouched slot reads zero");
        // Clones share the arena (run-wide sharing).
        let shared = masks.clone();
        assert_eq!(shared.vote(a, 1), (true, 3));
        assert_eq!(masks.mask(a), 0b10_0011);
    }

    #[test]
    #[should_panic(expected = "positions < 128")]
    fn slot_masks_reject_wide_sets() {
        SlotMasks::new().vote(SetSlot(0), 128);
    }

    #[test]
    fn slot_masks_reset_clears_votes_everywhere() {
        let masks = SlotMasks::new();
        masks.vote(SetSlot(2), 7);
        masks.vote(SetSlot(64), 3);
        let shared = masks.clone();
        shared.reset();
        // Reset is visible through every handle and restores the
        // fresh-arena behaviour: first votes are "newly set" again.
        assert_eq!(masks.mask(SetSlot(2)), 0);
        assert_eq!(masks.mask(SetSlot(64)), 0);
        assert_eq!(masks.vote(SetSlot(2), 7), (true, 1));
    }
}
