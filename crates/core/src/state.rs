//! What one run shares: the three sampler caches and the run-owned
//! protocol cells.

use std::cell::RefCell;
use std::rc::Rc;

use fba_samplers::{
    GString, Label, PollSampler, QuorumScheme, SetSlot, SharedPollCache, SharedQuorumCache,
    StringKey,
};
use fba_sim::fxhash::FxHashMap;
use fba_sim::{NodeId, PartList};

use crate::msg::AerMsg;

/// Largest quorum and poll-list size `d` a run supports: every vote is
/// one bit of a `u64` at the voter's position in its sorted quorum, and
/// the all-ones mask is reserved (see [`VOTES_DONE`]). The paper's
/// `d = ⌈3 ln n⌉` is 34 at `Scenario::MAX_N`.
pub(crate) const MAX_QUORUM_SIZE: usize = 63;

/// Sentinel for an `Fw1` cell whose majority relay already fired; with
/// `d ≤` [`MAX_QUORUM_SIZE`] the all-ones mask can never arise from real
/// votes.
const VOTES_DONE: u64 = u64::MAX;

/// The slot of a belief entry no node has written.
const UNSET_SLOT: SetSlot = SetSlot(u32::MAX);

/// One run's worth of shared state, and its one owner: the memoized
/// sampler caches (push `I`, pull `H`, poll `J`) plus the run's protocol
/// cells — the push-phase vote masks, the pull-phase belief table and the
/// `Fw1` vote rows — as plain vectors behind a single `RefCell`.
///
/// Every [`PushPhase`](crate::push::PushPhase) and
/// [`PullPhase`](crate::pull::PullPhase) of a run keeps one clone. The
/// caches memoize pure functions of public randomness, and the cells are
/// partitioned by node (each node writes only its own masks, entry and
/// row cells), so sharing changes no outcome — it packs the per-node hot
/// state into contiguous vectors and lets one call serve a whole
/// multicast (`fw1_run`). `Rc<RefCell<_>>` suffices because a run is
/// single-threaded by construction (parallelism in this workspace fans
/// out whole runs).
#[derive(Clone, Debug)]
pub struct AerRunState {
    pub(crate) push_quorums: SharedQuorumCache,
    pub(crate) pull_quorums: SharedQuorumCache,
    pub(crate) poll_lists: SharedPollCache,
    cells: Rc<RefCell<RunCells>>,
}

/// The decision state a run keeps outside its nodes.
#[derive(Debug, Default)]
struct RunCells {
    /// Per interned push quorum `I(s, x)`, a bitmask over its member
    /// positions of the nodes that pushed `s` to `x`. Slots are unique
    /// per `(s, x)`, so each mask has exactly one owning node.
    push_votes: Vec<u64>,
    /// Per node, its current `(believed_key, slot of H(believed, self))`
    /// — the pair every pull handler gates on. [`UNSET_SLOT`] marks a
    /// node no constructor wrote since the instance began: the adversary
    /// plays it, and it has no vote.
    beliefs: Vec<(StringKey, SetSlot)>,
    fw1: Fw1Rows,
    /// The last [`AerRunState::forward_plan`], under its key.
    plan: Option<((SetSlot, StringKey), PartList)>,
}

/// The router-side vote state of Algorithm 2 for every node of the run:
/// one row per `(H(s, origin), w)` — the quorum's interned slot and the
/// node id packed into one `u64` — holding one vote mask per member
/// position of `H(s, w)`. The cell at position `p` belongs to the `p`-th
/// member `z` of `H(s, w)` and is a bitmask over positions in
/// `H(s, origin)` of the routers `z` has seen, or [`VOTES_DONE`] once
/// `z`'s majority relay fired.
///
/// A forward is multicast to all of `H(s, w)`, so laying its `d` vote
/// words side by side turns the delivery of one run into one hash probe
/// and a contiguous sweep, where per-node maps cost a cache-cold probe at
/// every recipient.
#[derive(Debug, Default)]
struct Fw1Rows {
    index: FxHashMap<u64, u32>,
    /// Per row, the interned slot of its `H(s, w)`.
    quorums: Vec<SetSlot>,
    /// `d` cells per row, rows back to back.
    cells: Vec<u64>,
}

impl Fw1Rows {
    /// The `width` cells of the row for `key`, created zeroed (and
    /// remembering its quorum slot `h_w`) on first use.
    fn row(&mut self, key: u64, h_w: SetSlot, width: usize) -> &mut [u64] {
        let next = self.quorums.len();
        let row = *self
            .index
            .entry(key)
            .or_insert_with(|| u32::try_from(next).expect("more than u32::MAX vote rows"))
            as usize;
        if row == next {
            self.quorums.push(h_w);
            self.cells.resize((next + 1) * width, 0);
        }
        &mut self.cells[row * width..][..width]
    }
}

/// Packs a vote-arena key from an interned quorum [`SetSlot`] and a node
/// id (the `Fw1` rows here, `fw2_senders` in the pull phase). Node indices
/// fit 32 bits at any simulable system size (debug-asserted).
pub(crate) fn slot_vote_key(slot: SetSlot, node: NodeId) -> u64 {
    debug_assert!(
        node.index() <= u32::MAX as usize,
        "node index exceeds 32 bits"
    );
    (u64::from(slot.0) << 32) | node.index() as u64
}

impl AerRunState {
    /// Fresh state for one run over the public samplers `scheme` (`I`,
    /// `H`) and `poll` (`J`): empty caches, no votes, no beliefs.
    ///
    /// # Panics
    ///
    /// Panics if a quorum or poll-list size exceeds the vote-mask width
    /// (`d ≤ 63`; [`AerConfig::validate`](crate::AerConfig::validate)
    /// rejects such configs first).
    #[must_use]
    pub fn new(scheme: QuorumScheme, poll: PollSampler) -> Self {
        assert!(
            scheme.d() <= MAX_QUORUM_SIZE && poll.d() <= MAX_QUORUM_SIZE,
            "bitmask vote tracking supports d \u{2264} {MAX_QUORUM_SIZE} \
             (paper quorums are \u{398}(log n))"
        );
        AerRunState {
            push_quorums: scheme.shared_push(),
            pull_quorums: scheme.shared_pull(),
            poll_lists: SharedPollCache::new(poll),
            cells: Rc::default(),
        }
    }

    /// Starts a new agreement instance on this state, resetting exactly
    /// what must not survive an instance boundary.
    ///
    /// What persists: the three sampler caches (`I`, `H`, `J`) and the
    /// last forward plan. They memoize pure functions of the public
    /// sampler seed — a hit returns the same bytes a fresh run would
    /// recompute — so they cannot leak decisions across instances.
    ///
    /// What resets: the push masks (who already pushed string `s` to node
    /// `x`), the `Fw1` rows (which routers relay `z` has seen for
    /// `(origin, s, w)`, and whether its relay fired) and the belief
    /// table. The first two are *decision state*, keyed by slots interned
    /// per `(string, node)` — a repeated client value would otherwise see
    /// instance `k-1`'s votes as duplicates, never accept the candidate
    /// and never relay for it. The belief table is who the correct nodes
    /// *are*: an entry exists iff a [`PullPhase`](crate::pull::PullPhase)
    /// was built on this state since the last call, and an `Fw1` run lets
    /// exactly those nodes vote, so the entry of a node correct in
    /// instance `k-1` and corrupt in `k` must go. Call this *before*
    /// building the instance's nodes. The cross-instance leak battery in
    /// `tests/service_determinism.rs` and
    /// `a_node_that_turns_corrupt_between_instances_stops_voting` fail if
    /// a reset is removed. Allocations are kept.
    pub fn begin_instance(&self) {
        let cells = &mut *self.cells.borrow_mut();
        cells.push_votes.fill(0);
        cells.beliefs.clear();
        cells.fw1.index.clear();
        cells.fw1.quorums.clear();
        cells.fw1.cells.clear();
    }

    /// `(hits, misses)` of the push-quorum (`I`) cache.
    #[must_use]
    pub fn push_cache_stats(&self) -> (u64, u64) {
        self.push_quorums.stats()
    }

    /// `(hits, misses)` of the pull-quorum (`H`) cache.
    #[must_use]
    pub fn pull_cache_stats(&self) -> (u64, u64) {
        self.pull_quorums.stats()
    }

    /// `(hits, misses)` of the poll-list (`J`) cache.
    #[must_use]
    pub fn poll_cache_stats(&self) -> (u64, u64) {
        self.poll_lists.stats()
    }

    /// Number of `Fw1` vote rows — bounded-growth instrumentation.
    #[must_use]
    pub fn fw1_row_count(&self) -> usize {
        self.cells.borrow().fw1.quorums.len()
    }

    /// Records a push vote from the member at position `bit` of the
    /// interned push quorum `slot`. Returns `(newly_set, votes)`: whether
    /// this member had not voted before, and the quorum's resulting vote
    /// count.
    pub(crate) fn push_vote(&self, slot: SetSlot, bit: usize) -> (bool, u32) {
        let masks = &mut self.cells.borrow_mut().push_votes;
        let idx = slot.0 as usize;
        if idx >= masks.len() {
            masks.resize(idx + 1, 0);
        }
        let mask = &mut masks[idx];
        let b = 1u64 << bit;
        let newly = *mask & b == 0;
        *mask |= b;
        (newly, mask.count_ones())
    }

    /// Node `x`'s current `(believed_key, slot of H(believed, x))` pair.
    ///
    /// # Panics
    ///
    /// Panics if no pull phase was built for `x` on this state.
    pub(crate) fn belief(&self, x: NodeId) -> (StringKey, SetSlot) {
        let entry = self.cells.borrow().beliefs.get(x.index()).copied();
        entry
            .filter(|&(_, slot)| slot != UNSET_SLOT)
            .expect("constructors record the node's own belief")
    }

    /// Records `key` as node `x`'s belief, together with the slot of
    /// `H(key, x)` — the slot must track the key.
    pub(crate) fn set_belief(&self, x: NodeId, key: StringKey) {
        let slot = self.pull_quorums.slot(key, x);
        let beliefs = &mut self.cells.borrow_mut().beliefs;
        if x.index() >= beliefs.len() {
            beliefs.resize(x.index() + 1, (StringKey::default(), UNSET_SLOT));
        }
        beliefs[x.index()] = (key, slot);
    }

    /// The part list of a forward of `Pull(s, r)` from `origin`: per
    /// `w ∈ J(origin, r)`, in list order, a part tagged `w` over `H(s, w)`.
    /// Every router of one pull forwards the same list, so the last one
    /// is kept under what it depends on — the slot of `J(origin, r)`, one
    /// keyed lookup, and `s` — and only a new key looks up the quorums.
    pub(crate) fn forward_plan(&self, origin: NodeId, r: Label, s: StringKey) -> PartList {
        let key = (self.poll_lists.slot(origin, r), s);
        let plan = &mut self.cells.borrow_mut().plan;
        if let Some((_, list)) = plan.as_ref().filter(|(held, _)| *held == key) {
            return list.clone();
        }
        let list = self.poll_lists.set_at(key.0, |ws| {
            let quorums = ws
                .iter()
                .map(|&w| (w, self.pull_quorums.quorum_shared(s, w)));
            let n = self.pull_quorums.sampler().n();
            PartList::new(quorums, n).expect("sampled nodes are in range")
        });
        *plan = Some((key, list.clone()));
        list
    }

    /// Zeroes node `x`'s cell in every `Fw1` row whose quorum contains
    /// it: the votes a crash loses.
    pub(crate) fn forget_fw1_votes(&self, x: NodeId) {
        let width = self.pull_quorums.sampler().d();
        let rows = &mut self.cells.borrow_mut().fw1;
        for (row, &h_w) in rows.quorums.iter().enumerate() {
            if let Some(pos) = self.pull_quorums.position_at(h_w, x) {
                rows.cells[row * width + pos] = 0;
            }
        }
    }

    /// Algorithm 2, second handler, for a whole multicast: the forward
    /// `Fw1(origin, s, r, w)` from router `y`, delivered to every node of
    /// `recipients` in order. `relay(z, w, fw2)` is called for each
    /// recipient `z` whose vote crossed the majority of `H(s, origin)`;
    /// it runs with the run's cells borrowed and may not call back into
    /// a phase.
    ///
    /// Everything the handler decides on lives in this state, so one call
    /// serves all recipients, and the outcome is that of calling
    /// [`PullPhase::on_fw1`](crate::pull::PullPhase::on_fw1) on each in
    /// turn. The cells are borrowed once for the call. What depends only
    /// on the *message* is computed once, in gate order: the slot of
    /// `H(s, origin)`, `y`'s position in it, `w ∈ J(origin, r)`, the slot
    /// of `H(s, w)` and the vote row. Per recipient there is left: a
    /// correct node of this instance (it has a belief entry — no node
    /// table is read), believing `s`, at some position of `H(s, w)` — its
    /// loop index when the run is addressed to exactly `H(s, w)`, as
    /// [`PullPhase::on_pull`](crate::pull::PullPhase::on_pull) sends it —
    /// and its vote cell.
    ///
    /// A forward that fails a per-message gate allocates nothing:
    /// `J(origin, r)` is interned only for a sender inside
    /// `H(s, origin)`, the row is created after the last gate, and no
    /// sampler is evaluated before some recipient believes `s`.
    pub(crate) fn fw1_run(
        &self,
        y: NodeId,
        (origin, s, r, w): (NodeId, GString, Label, NodeId),
        recipients: &[NodeId],
        mut relay: impl FnMut(NodeId, NodeId, AerMsg),
    ) {
        let key = s.key();
        let RunCells { beliefs, fw1, .. } = &mut *self.cells.borrow_mut();
        let believes = |z: NodeId| {
            beliefs
                .get(z.index())
                .is_some_and(|&(k, slot)| k == key && slot != UNSET_SLOT)
        };
        let Some(first) = recipients.iter().position(|&z| believes(z)) else {
            return;
        };
        let h_origin = self.pull_quorums.slot(key, origin);
        let Some(y_pos) = self.pull_quorums.position_at(h_origin, y) else {
            return; // sender is not in H(s, origin)
        };
        if !self.poll_lists.contains(origin, r, w) {
            return; // w is not in J(origin, r)
        }
        let h_w = self.pull_quorums.slot(key, w);
        let majority = self.pull_quorums.majority();
        let width = self.pull_quorums.sampler().d();
        let cells = fw1.row(slot_vote_key(h_origin, w), h_w, width);
        self.pull_quorums.set_at(h_w, |members| {
            let aligned = members == recipients;
            for (i, &z) in recipients.iter().enumerate().skip(first) {
                if !believes(z) {
                    continue;
                }
                let pos = if aligned {
                    i
                } else {
                    match members.binary_search(&z) {
                        Ok(pos) => pos,
                        Err(_) => continue, // z is not in H(s, w)
                    }
                };
                let votes = &mut cells[pos];
                if *votes == VOTES_DONE {
                    continue; // majority relay already sent
                }
                *votes |= 1 << y_pos;
                if votes.count_ones() as usize >= majority {
                    *votes = VOTES_DONE;
                    relay(z, w, AerMsg::Fw2 { origin, s, r });
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pull::{PullPhase, RetryPolicy};
    use crate::AerNode;
    use fba_sim::Driver;

    fn setup(n: usize, d: usize) -> (QuorumScheme, PollSampler) {
        (
            QuorumScheme::new(5, n, d),
            PollSampler::new(5, n, d, PollSampler::default_cardinality(n)),
        )
    }

    fn gs(tag: u8) -> GString {
        GString::from_bits(
            &(0..24)
                .map(|i| (i as u8).wrapping_add(tag).is_multiple_of(4))
                .collect::<Vec<_>>(),
        )
    }

    fn push_mask(state: &AerRunState, slot: SetSlot) -> u64 {
        let cells = state.cells.borrow();
        cells.push_votes.get(slot.0 as usize).copied().unwrap_or(0)
    }

    #[test]
    fn push_votes_count_distinct_bits_per_slot() {
        let (scheme, poll) = setup(256, MAX_QUORUM_SIZE);
        let state = AerRunState::new(scheme, poll);
        let a = SetSlot(3);
        let b = SetSlot(900); // far slot: forces growth
        assert_eq!(state.push_vote(a, 0), (true, 1));
        assert_eq!(state.push_vote(a, 5), (true, 2));
        // Duplicate vote: not newly set, count unchanged.
        assert_eq!(state.push_vote(a, 5), (false, 2));
        assert_eq!(state.push_vote(b, MAX_QUORUM_SIZE - 1), (true, 1));
        assert_eq!(push_mask(&state, a), 0b10_0001);
        assert_eq!(
            push_mask(&state, SetSlot(4)),
            0,
            "untouched slot reads zero"
        );
        // Clones share the cells (run-wide sharing).
        let shared = state.clone();
        assert_eq!(shared.push_vote(a, 1), (true, 3));
        assert_eq!(push_mask(&state, a), 0b10_0011);
    }

    #[test]
    #[should_panic(expected = "supports d \u{2264} 63")]
    fn quorums_wider_than_the_masks_are_rejected() {
        let (scheme, poll) = setup(256, MAX_QUORUM_SIZE + 1);
        let _ = AerRunState::new(scheme, poll);
    }

    #[test]
    fn begin_instance_clears_votes_everywhere_and_keeps_the_caches() {
        let (scheme, poll) = setup(64, 5);
        let state = AerRunState::new(scheme, poll);
        state.push_vote(SetSlot(2), 4);
        state.push_vote(SetSlot(64), 3);
        let (g, x) = (gs(0), NodeId::from_index(7));
        let _ = PullPhase::new(x, g, &state, 100, RetryPolicy::strict());
        let cached = state.pull_cache_stats().1;
        state.clone().begin_instance();
        // The reset is visible through every handle and restores the
        // fresh-state behaviour: first votes are "newly set" again.
        assert_eq!(push_mask(&state, SetSlot(2)), 0);
        assert_eq!(push_mask(&state, SetSlot(64)), 0);
        assert_eq!(state.push_vote(SetSlot(2), 4), (true, 1));
        let beliefs = state.cells.borrow().beliefs.len();
        assert_eq!(beliefs, 0, "no belief entry until the next constructor");
        assert_eq!(state.pull_cache_stats().1, cached);
    }

    /// The `Fw1` handler, row by row: `n` pull phases over one set of
    /// run state (as `AerHarness` wires them) and one request
    /// `(origin, s, r, w)` whose routers `H(s, origin)` forward to the
    /// relays `H(s, w)`. Each row names the clause of Algorithm 2's
    /// second handler it pins: a relay `z` counts an `Fw1(x, s, r, w)`
    /// from `y` iff `s = s_z`, `w ∈ J(x, r)`, `z ∈ H(s, w)` and
    /// `y ∈ H(s, x)`, and sends one `Fw2(x, s, r)` to `w` once a majority
    /// of `H(s, x)` has been counted.
    mod fw1_rows {
        use super::*;

        const N: usize = 64;
        const D: usize = 5;
        const MAJORITY: usize = D / 2 + 1;

        struct Net {
            state: AerRunState,
            phases: Vec<PullPhase>,
            origin: NodeId,
            r: Label,
            w: NodeId,
        }

        impl Net {
            /// Every node believes `believed(i)`; the request polls the
            /// first member of `J(origin, r)`.
            fn new(believed: impl Fn(usize) -> GString) -> Net {
                Net::sized(N, D, believed)
            }

            /// [`Net::new`] over `n` nodes and quorums of `d`.
            fn sized(n: usize, d: usize, believed: impl Fn(usize) -> GString) -> Net {
                let (scheme, poll) = setup(n, d);
                let state = AerRunState::new(scheme, poll);
                let phases = (0..n)
                    .map(|i| {
                        let x = NodeId::from_index(i);
                        PullPhase::new(x, believed(i), &state, 100, RetryPolicy::strict())
                    })
                    .collect();
                let (origin, r) = (NodeId::from_index(2), Label(77));
                let w = poll.poll_list(origin, r)[0];
                Net {
                    state,
                    phases,
                    origin,
                    r,
                    w,
                }
            }

            /// Points the net at `origin`'s request (same label).
            fn retarget(&mut self, origin: NodeId) {
                let poll = *self.state.poll_lists.sampler();
                self.w = poll.poll_list(origin, self.r)[0];
                self.origin = origin;
            }

            fn quorum(&self, s: GString, x: NodeId) -> Vec<NodeId> {
                self.state.pull_quorums.sampler().quorum(s.key(), x)
            }

            /// One run: `Fw1(origin, s, r, w)` from `y` to `recipients`.
            /// Returns the relays that fired, in order, having checked
            /// what they send.
            fn run(&self, y: NodeId, s: GString, recipients: &[NodeId]) -> Vec<NodeId> {
                let (origin, r, w) = (self.origin, self.r, self.w);
                let mut fired = Vec::new();
                self.state
                    .fw1_run(y, (origin, s, r, w), recipients, |z, to, fw2| {
                        assert_eq!((to, fw2), (w, AerMsg::Fw2 { origin, s, r }));
                        fired.push(z);
                    });
                fired
            }

            fn cells(&self) -> Vec<u64> {
                self.state.cells.borrow().fw1.cells.clone()
            }

            /// Poll lists interned so far: `J(origin, r)` enters the
            /// cache only through a forward that passed the sender gate.
            fn poll_lists(&self) -> u64 {
                self.state.poll_cache_stats().1
            }
        }

        #[test]
        fn majority_of_routers_fires_one_fw2_per_relay() {
            let g = gs(0);
            let net = Net::new(|_| g);
            let (routers, relays) = (net.quorum(g, net.origin), net.quorum(g, net.w));
            let none: &[NodeId] = &[];
            // (clause pinned, router, relays expected to fire)
            let table = [
                ("first router: below the majority", 0, none),
                ("second router: still below", 1, none),
                ("the same router again counts once", 1, none),
                ("third router: every relay crosses, once", 2, &relays[..]),
                ("a fourth router after the relay fired", 3, none),
                ("a counted router after the relay fired", 0, none),
            ];
            assert_eq!(MAJORITY, 3);
            for (clause, y, fires) in table {
                assert_eq!(net.run(routers[y], g, &relays), fires, "{clause}");
            }
            assert_eq!((net.poll_lists(), net.state.fw1_row_count()), (1, 1));
            assert!(net.cells().iter().all(|&cell| cell == VOTES_DONE));
        }

        #[test]
        fn at_the_widest_quorum_the_last_router_counts_and_relays_fire_once() {
            // d = 63: the router at position 62 sets the mask's top vote
            // bit and is the 32nd, crossing the majority.
            const WIDE: usize = MAX_QUORUM_SIZE;
            let g = gs(0);
            let net = Net::sized(256, WIDE, |_| g);
            let (routers, relays) = (net.quorum(g, net.origin), net.quorum(g, net.w));
            assert_eq!(
                (routers.len(), net.state.pull_quorums.majority()),
                (WIDE, 32)
            );
            let none: &[NodeId] = &[];
            let table = [
                ("31 routers: one short of the majority", 0..31, none),
                (
                    "the router at position 62 crosses it",
                    WIDE - 1..WIDE,
                    &relays[..],
                ),
                ("the same router again counts once", WIDE - 1..WIDE, none),
                (
                    "every other router after the relay fired",
                    31..WIDE - 1,
                    none,
                ),
            ];
            for (clause, positions, fires) in table {
                let fired: Vec<NodeId> = routers[positions]
                    .iter()
                    .flat_map(|&y| net.run(y, g, &relays))
                    .collect();
                assert_eq!(fired, fires, "{clause}");
            }
            assert_eq!(net.cells().len(), WIDE, "one row of d cells");
            assert!(net.cells().iter().all(|&cell| cell == VOTES_DONE));
        }

        #[test]
        fn a_recipient_outside_the_relay_quorum_is_skipped_among_voting_neighbours() {
            // z ∈ H(s, w): a run addressed to two relays with an outsider
            // between them moves exactly the two relays' cells.
            let g = gs(0);
            let net = Net::new(|_| g);
            let (routers, relays) = (net.quorum(g, net.origin), net.quorum(g, net.w));
            let outsider = (0..N)
                .map(NodeId::from_index)
                .find(|z| !relays.contains(z))
                .unwrap();
            let run = [relays[3], outsider, relays[1]];
            for (i, &y) in routers.iter().take(MAJORITY).enumerate() {
                let fires = net.run(y, g, &run);
                if i + 1 < MAJORITY {
                    assert!(fires.is_empty());
                } else {
                    assert_eq!(fires, [relays[3], relays[1]], "in recipient order");
                }
            }
            let cells = net.cells();
            for (pos, &cell) in cells.iter().enumerate() {
                let voted = pos == 1 || pos == 3;
                assert_eq!(cell, if voted { VOTES_DONE } else { 0 }, "cell {pos}");
            }
        }

        #[test]
        fn a_relay_that_believes_another_string_is_skipped() {
            // s = s_z: relay 2 holds a different candidate and neither
            // votes nor fires; nobody believing `s` at all allocates nothing.
            let (g, other) = (gs(0), gs(1));
            let probe = Net::new(|_| g);
            let dissenter = probe.quorum(g, probe.w)[2];
            let net = Net::new(|i| if i == dissenter.index() { other } else { g });
            let (routers, relays) = (net.quorum(g, net.origin), net.quorum(g, net.w));
            let mut fired = Vec::new();
            for &y in &routers {
                fired.extend(net.run(y, g, &relays));
            }
            let expected: Vec<NodeId> =
                relays.iter().copied().filter(|&z| z != dissenter).collect();
            assert_eq!(fired, expected);
            assert_eq!(net.cells()[2], 0, "the dissenter's cell never moved");

            let deaf = Net::new(|_| other);
            for &y in &routers {
                assert!(deaf.run(y, g, &relays).is_empty());
            }
            assert_eq!((deaf.poll_lists(), deaf.state.fw1_row_count()), (0, 0));
        }

        #[test]
        fn reusing_origin_and_label_for_a_second_candidate_routes_by_the_message() {
            // y ∈ H(s, x) is judged against the candidate in the message,
            // not the one `(origin, r)` was first seen with.
            let (g, g2) = (gs(0), gs(1));
            let net = Net::new(|_| g);
            let (routers, relays) = (net.quorum(g, net.origin), net.quorum(g, net.w));
            for &y in &routers {
                net.run(y, g, &relays);
            }
            for i in 0..N {
                net.state.set_belief(NodeId::from_index(i), g2.key());
            }
            let (routers2, relays2) = (net.quorum(g2, net.origin), net.quorum(g2, net.w));
            assert_ne!(routers, routers2, "the two candidates route differently");
            let mut fired = Vec::new();
            for &y in &routers2 {
                fired.extend(net.run(y, g2, &relays2));
            }
            assert_eq!(fired, relays2);
            assert_eq!(net.poll_lists(), 1, "one poll list for both");
            assert_eq!(net.state.fw1_row_count(), 2, "one row per candidate");
        }

        #[test]
        fn one_recipient_calls_equal_the_run_call() {
            // The same forwards — whole quorum, a shuffled subset with an
            // outsider, duplicates — through `fw1_run` on one net and
            // through per-recipient `on_fw1` on another.
            let g = gs(0);
            let (mut each, whole) = (Net::new(|_| g), Net::new(|_| g));
            let (routers, relays) = (whole.quorum(g, whole.origin), whole.quorum(g, whole.w));
            let outsider = (0..N)
                .map(NodeId::from_index)
                .find(|z| !relays.contains(z) && !routers.contains(z))
                .unwrap();
            let runs: [(NodeId, Vec<NodeId>); 6] = [
                (routers[4], relays.clone()),
                (routers[0], vec![relays[2], outsider, relays[0], relays[2]]),
                (outsider, relays.clone()),
                (routers[1], relays.clone()),
                (routers[2], vec![relays[4], relays[3]]),
                (routers[3], relays.clone()),
            ];
            let (origin, r, w) = (whole.origin, whole.r, whole.w);
            let mut hand = Driver::<AerNode>::new(N, 1, |_| None);
            for (y, recipients) in &runs {
                let by_run = whole.run(*y, g, recipients);
                let mut relays = |z: &NodeId| {
                    let phase = &mut each.phases[z.index()];
                    let sent = hand.call(*z, |ctx| phase.on_fw1(*y, origin, g, r, w, ctx));
                    assert!(sent.iter().all(|e| e.to == w) && sent.len() <= 1);
                    !sent.is_empty()
                };
                let by_call: Vec<NodeId> =
                    recipients.iter().filter(|z| relays(z)).copied().collect();
                assert_eq!(by_run, by_call, "forward from {y}");
                assert_eq!(whole.cells(), each.cells(), "after the forward from {y}");
            }
            assert_eq!(whole.poll_lists(), each.poll_lists());
        }

        #[test]
        fn restore_clears_exactly_the_restarting_nodes_cells() {
            // Two requests, both one router short of the majority, so
            // every cell of both rows holds votes.
            let g = gs(0);
            let mut net = Net::new(|_| g);
            for origin in [NodeId::from_index(9), net.origin] {
                net.retarget(origin);
                let (routers, relays) = (net.quorum(g, origin), net.quorum(g, net.w));
                for &y in routers.iter().take(MAJORITY - 1) {
                    assert!(net.run(y, g, &relays).is_empty());
                }
            }
            let before = net.cells();
            assert!(before.iter().all(|&cell| cell != 0));
            let victim = net.quorum(g, net.w)[1];
            let checkpoint = fba_recovery::Checkpoint {
                accepted: vec![g],
                belief: Some(g),
                ..Default::default()
            };
            let phase = &mut net.phases[victim.index()];
            let mut hand = Driver::<AerNode>::new(N, 1, |_| None);
            let _ = hand
                .at(9)
                .call(victim, |ctx| phase.restore(&checkpoint, ctx));
            let after = net.cells();
            let rows = &net.state.cells.borrow().fw1;
            for (row, &h_w) in rows.quorums.iter().enumerate() {
                let owned = net.state.pull_quorums.position_at(h_w, victim);
                for pos in 0..D {
                    let cell = row * D + pos;
                    let expected = if owned == Some(pos) { 0 } else { before[cell] };
                    assert_eq!(after[cell], expected, "row {row} cell {pos}");
                }
            }
            assert_eq!(rows.quorums.len(), 2);
            assert!(after.contains(&0), "the victim owned a cell");
        }
    }
}
