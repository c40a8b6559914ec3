//! The pull phase: Algorithms 1–3 of the paper (§3.1.2).
//!
//! To verify a candidate `s ∈ L_x`, node `x` simultaneously notifies a
//! *poll list* `J(x, r)` (for a fresh random label `r`) and its *pull
//! quorum* `H(s, x)`. The pull quorums act as proxies that forward and
//! filter the request so `x` cannot flood the network:
//!
//! 1. `y ∈ H(s, x)` forwards the request iff `s` is its own current
//!    candidate, at most once per `(x, s)` — the "keep track of senders"
//!    flood filter (Algorithm 2).
//! 2. `z ∈ H(s, w)` relays to `w ∈ J(x, r)` iff a majority of `H(s, x)`
//!    forwarded through it (Algorithm 2).
//! 3. `w` answers `x` iff a majority of `H(s, w)` relayed, it was itself
//!    polled for `(x, s)`, and it is not overloaded: once it has answered
//!    `log² n` requests for a string it defers further ones *until it has
//!    decided* (Algorithm 3).
//!
//! `x` decides `s` upon answers from a strict majority of `J(x, r)`.
//!
//! [`PullPhase`] is a pure state machine over the callback's
//! [`Context`]: a handler that transmits writes into the context it is
//! handed — by the multicast, one stored payload over the interned quorum
//! or poll list; the `d` first-hop forwards of a pull as one part run, one
//! stored `Fw1` and a handle on each interned quorum, so an in-flight
//! forward stores its payload once and copies no recipient — and takes the
//! step and its randomness from there, so the algorithms are unit-testable
//! without the simulator.

use std::collections::BTreeSet;

use fba_recovery::Checkpoint;
use fba_sim::fxhash::{FxHashMap, FxHashSet};

use fba_samplers::{GString, Label, PollSampler, StringKey};
use fba_sim::{Context, NodeId, Step};

use crate::msg::AerMsg;
use crate::state::{slot_vote_key, AerRunState};

/// Per-requester cap on repair answers, preventing Byzantine requesters
/// from using the repair path as an amplification primitive.
const REPAIR_ANSWER_CAP: u32 = 8;

/// The one poll this node runs for a candidate (Algorithm 1). It keeps
/// its label until the node decides.
#[derive(Clone, Debug)]
struct OwnPoll {
    s: GString,
    r: Label,
    /// Bitmask over positions in `J(x, r)` of members that answered.
    answered_by: u128,
    started: Step,
}

/// A deferred (overloaded) second-hop forward awaiting this node's own
/// decision (Algorithm 3's "wait for `has_decided`").
#[derive(Clone, Debug)]
struct DeferredFw2 {
    from: NodeId,
    origin: NodeId,
    s: GString,
    r: Label,
}

/// Repair policy of a [`PullPhase`] (the liveness extension beyond the
/// paper; disabled in strict mode).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Steps every open poll must have run before repair fires, and the
    /// spacing between repair queries.
    pub poll_timeout: Step,
    /// Last-resort repair queries (0 = disabled). The first one fires once
    /// every open poll has run `poll_timeout` steps, the next ones one
    /// `poll_timeout` apart. Polls stay open meanwhile: a late answer from
    /// the original `J(x, r)` still counts. Repair adopts a strict-majority
    /// decision of a fresh poll list, the Lemma 7 argument.
    pub repair_attempts: u32,
}

impl RetryPolicy {
    /// The paper's behaviour: a single poll, no repair.
    #[must_use]
    pub fn strict() -> Self {
        RetryPolicy {
            poll_timeout: Step::MAX,
            repair_attempts: 0,
        }
    }
}

/// Pull-phase state for one node: requester, router and answerer roles.
#[derive(Clone, Debug)]
pub struct PullPhase {
    x: NodeId,
    /// What the run shares (see [`AerRunState`]): the memoized samplers
    /// `H` and `J`, this node's `(believed.key(), slot of H(believed,
    /// self))` entry of the belief table — kept in lockstep with
    /// `believed` by [`PullPhase::set_belief`]; the handlers compare the
    /// key per message and the answerer hot path keys its vote arena by
    /// the slot — and the `Fw1` vote rows, where this node owns the cells
    /// at its own position.
    state: AerRunState,
    overload_cap: u64,
    retry: RetryPolicy,
    /// `s_this`: the node's current belief; starts at its initial
    /// candidate and is overwritten by its decision.
    believed: GString,
    decided: Option<GString>,

    // --- requester (Algorithm 1) ---
    own_polls: FxHashMap<StringKey, OwnPoll>,

    // --- router (Algorithm 2) ---
    forwarded_pulls: FxHashSet<(NodeId, StringKey)>,

    // --- answerer (Algorithm 3) ---
    polled: FxHashSet<(NodeId, StringKey)>,
    /// Dense-slot vote arena for `on_fw2`: per `(H(s, self), origin)` —
    /// packed into one `u64` by [`slot_vote_key`] — a bitmask over
    /// positions in `H(s, self)` of second-hop forwarders seen. Votes only
    /// accumulate for the current belief, whose quorum slot is memoized
    /// in the belief table, so the hot path does no sampler-key hashing
    /// at all.
    fw2_senders: FxHashMap<u64, u128>,
    answered: FxHashSet<(NodeId, StringKey)>,
    answer_counts: FxHashMap<StringKey, u64>,
    deferred: Vec<DeferredFw2>,

    // --- repair (liveness extension) ---
    repair_label: Option<Label>,
    repair_used: u32,
    repair_last: Step,
    repair_votes: FxHashMap<StringKey, (GString, BTreeSet<NodeId>)>,
    repair_pending: Vec<(NodeId, Label)>,
    repair_answered: FxHashMap<NodeId, u32>,
}

impl PullPhase {
    /// Creates pull state for node `x` whose initial belief is `own`, on
    /// the run's shared `state`, and records that belief there.
    #[must_use]
    pub fn new(
        x: NodeId,
        own: GString,
        state: &AerRunState,
        overload_cap: u64,
        retry: RetryPolicy,
    ) -> Self {
        state.set_belief(x, own.key());
        PullPhase {
            x,
            state: state.clone(),
            overload_cap,
            retry,
            believed: own,
            decided: None,
            own_polls: FxHashMap::default(),
            forwarded_pulls: FxHashSet::default(),
            polled: FxHashSet::default(),
            fw2_senders: FxHashMap::default(),
            answered: FxHashSet::default(),
            answer_counts: FxHashMap::default(),
            deferred: Vec::new(),
            repair_label: None,
            repair_used: 0,
            repair_last: 0,
            repair_votes: FxHashMap::default(),
            repair_pending: Vec::new(),
            repair_answered: FxHashMap::default(),
        }
    }

    /// The poll-list sampler `J`.
    fn poll(&self) -> &PollSampler {
        self.state.poll_lists.sampler()
    }

    /// The node's decision, if reached.
    #[must_use]
    pub fn decided(&self) -> Option<&GString> {
        self.decided.as_ref()
    }

    /// The node's current belief `s_this`.
    #[must_use]
    pub fn believed(&self) -> &GString {
        &self.believed
    }

    /// Number of deferred (overload-parked) forwards — Lemma 6
    /// instrumentation.
    #[must_use]
    pub fn deferred_len(&self) -> usize {
        self.deferred.len()
    }

    /// Total answers sent for string `s` — overload instrumentation.
    #[must_use]
    pub fn answers_sent_for(&self, s: &GString) -> u64 {
        self.answer_counts.get(&s.key()).copied().unwrap_or(0)
    }

    /// Algorithm 1, sending side: verify candidate `s` by polling
    /// `J(x, r)` (fresh random `r`) and the pull quorum `H(s, x)`.
    ///
    /// No-op when already decided or already polling `s`.
    pub fn start_poll(&mut self, s: GString, ctx: &mut Context<'_, AerMsg>) {
        let key = s.key();
        if self.decided.is_some() || self.own_polls.contains_key(&key) {
            return;
        }
        self.open_poll(s, ctx);
    }

    /// Algorithm 1's two multicasts for a fresh label `r`: `Poll(s, r)`
    /// to `J(x, r)`, then `Pull(s, r)` to `H(s, x)`; the poll stays open
    /// until the node decides.
    fn open_poll(&mut self, s: GString, ctx: &mut Context<'_, AerMsg>) {
        let r = self.poll().random_label(ctx.rng());
        let to_list = |list: &[NodeId]| ctx.multicast(list, AerMsg::Poll(s, r));
        self.state.poll_lists.poll_list_with(self.x, r, to_list);
        let to_quorum = |quorum: &[NodeId]| ctx.multicast(quorum, AerMsg::Pull(s, r));
        self.state
            .pull_quorums
            .quorum_with(s.key(), self.x, to_quorum);
        let poll = OwnPoll {
            s,
            r,
            answered_by: 0,
            started: ctx.step(),
        };
        self.own_polls.insert(s.key(), poll);
    }

    /// Timeout processing (the liveness extension): once every open poll
    /// has run `poll_timeout` steps — vacuously, when none is open — asks
    /// a fresh poll list what its members decided, up to
    /// [`RetryPolicy::repair_attempts`] times, one timeout apart. The
    /// polls themselves stay open. Call once per step.
    pub fn on_step(&mut self, ctx: &mut Context<'_, AerMsg>) {
        if self.decided.is_some() {
            return;
        }
        let step = ctx.step();
        let timeout = self.retry.poll_timeout;
        let all_expired = self
            .own_polls
            .values()
            .all(|poll| step.saturating_sub(poll.started) >= timeout);
        if all_expired
            && self.repair_used < self.retry.repair_attempts
            && (self.repair_used == 0 || step.saturating_sub(self.repair_last) >= timeout)
        {
            self.repair_votes.clear();
            self.repair_used += 1;
            self.query_repair(ctx);
        }
    }

    /// One repair query to a fresh poll list `J(x, r)`, which
    /// becomes the list whose answers count.
    fn query_repair(&mut self, ctx: &mut Context<'_, AerMsg>) {
        let r = self.poll().random_label(ctx.rng());
        self.repair_label = Some(r);
        self.repair_last = ctx.step();
        let query = |list: &[NodeId]| ctx.multicast(list, AerMsg::RepairQuery(r));
        self.state.poll_lists.poll_list_with(self.x, r, query);
    }

    /// Handles a repair query from `origin`: if this node has decided and
    /// really is in `J(origin, r)`, it replies with its decision (subject
    /// to a per-requester cap); otherwise the query is parked until this
    /// node decides.
    pub fn on_repair_query(&mut self, origin: NodeId, r: Label, ctx: &mut Context<'_, AerMsg>) {
        if !self.state.poll_lists.contains(origin, r, self.x) {
            return;
        }
        let served = self.repair_answered.entry(origin).or_insert(0);
        if *served >= REPAIR_ANSWER_CAP {
            return;
        }
        if let Some(decision) = self.decided {
            *served += 1;
            ctx.send(origin, AerMsg::RepairAnswer(decision));
        } else {
            self.repair_pending.push((origin, r));
        }
    }

    /// Handles a repair answer from `w`. Returns `Some(decision)` when a
    /// strict majority of the *current* repair poll list reported the same
    /// string — the same safety argument as a regular poll (Lemma 7).
    #[must_use]
    pub fn on_repair_answer(&mut self, w: NodeId, s: GString) -> Option<GString> {
        if self.decided.is_some() {
            return None;
        }
        let r = self.repair_label?;
        if !self.state.poll_lists.contains(self.x, r, w) {
            return None;
        }
        let key = s.key();
        let (_, voters) = self
            .repair_votes
            .entry(key)
            .or_insert_with(|| (s, BTreeSet::new()));
        voters.insert(w);
        if voters.len() >= self.poll().majority() {
            let decision = self.repair_votes[&key].0;
            self.decided = Some(decision);
            self.set_belief(decision, key);
            Some(decision)
        } else {
            None
        }
    }

    /// Updates `believed` and its shared `(key, slot)` entry together.
    fn set_belief(&mut self, s: GString, key: StringKey) {
        self.believed = s;
        self.state.set_belief(self.x, key);
    }

    /// Algorithm 2, first handler: a `Pull(s, r)` from requester `origin`.
    ///
    /// Forwards iff `s` matches this node's current candidate, this node
    /// really is in `H(s, origin)`, and this `(origin, s)` was not
    /// forwarded before (flood filter). The forward fans out to `H(s, w)`
    /// for every `w ∈ J(origin, r)`, in poll-list order: `Fw1 { w }` to
    /// each member of `H(s, w)`. It is one part run — one stored `Fw1`
    /// and per `w` a part tagged `w` over a shared handle on the interned
    /// quorum — so a forward in flight stores its payload once and copies
    /// no recipient list.
    pub fn on_pull(&mut self, origin: NodeId, s: GString, r: Label, ctx: &mut Context<'_, AerMsg>) {
        let key = s.key();
        if key != self.state.belief(self.x).0
            || !self.state.pull_quorums.contains(key, origin, self.x)
            || !self.forwarded_pulls.insert((origin, key))
        {
            return;
        }
        // Every part sets `w`: the stored one is a placeholder.
        let fw1 = AerMsg::Fw1 {
            origin,
            s,
            r,
            w: origin,
        };
        self.state.poll_lists.poll_list_with(origin, r, |list| {
            let quorums = list
                .iter()
                .map(|&w| (w, self.state.pull_quorums.quorum_shared(key, w)));
            ctx.multicast_parts(fw1, fw1_for, quorums);
        });
    }

    /// Algorithm 2, second handler: an `Fw1(origin, s, r, w)` from router
    /// `y`. Counts distinct valid routers per `(origin, s, w)`; on crossing
    /// the majority of `H(s, origin)`, relays one `Fw2` to `w`.
    ///
    /// This is `AerRunState::fw1_run` for the single recipient `self`.
    pub fn on_fw1(
        &mut self,
        y: NodeId,
        origin: NodeId,
        s: GString,
        r: Label,
        w: NodeId,
        ctx: &mut Context<'_, AerMsg>,
    ) {
        let relay = |_, to, fw2| ctx.send(to, fw2);
        self.state.fw1_run(y, (origin, s, r, w), &[self.x], relay);
    }

    /// The run state this phase was built on.
    pub(crate) fn state(&self) -> &AerRunState {
        &self.state
    }

    /// Algorithm 3, `Fw2` handler: second-hop forward from `z` for
    /// requester `origin`.
    ///
    /// If this node is overloaded for `s` (already answered `overload_cap`
    /// requests) and has not decided, the forward is parked until the
    /// decision ([`PullPhase::on_decided`] drains the queue).
    pub fn on_fw2(
        &mut self,
        z: NodeId,
        origin: NodeId,
        s: GString,
        r: Label,
        ctx: &mut Context<'_, AerMsg>,
    ) {
        if self.decided.is_none()
            && self.answer_counts.get(&s.key()).copied().unwrap_or(0) >= self.overload_cap
        {
            self.deferred.push(DeferredFw2 {
                from: z,
                origin,
                s,
                r,
            });
        } else {
            self.process_fw2(z, origin, s, r, ctx);
        }
    }

    fn process_fw2(
        &mut self,
        z: NodeId,
        origin: NodeId,
        s: GString,
        r: Label,
        ctx: &mut Context<'_, AerMsg>,
    ) {
        let key = s.key();
        let (believed_key, believed_slot) = self.state.belief(self.x);
        if key != believed_key {
            return;
        }
        if !self.state.poll_lists.contains(origin, r, self.x) {
            return; // we are not in J(origin, r)
        }
        // `key == believed_key`, so `believed_slot` is the interned
        // H(s, self) — position lookups index it directly.
        let Some(z_pos) = self.state.pull_quorums.position_at(believed_slot, z) else {
            return; // sender is not in H(s, this)
        };
        let votes = self
            .fw2_senders
            .entry(slot_vote_key(believed_slot, origin))
            .or_insert(0);
        *votes |= 1 << z_pos;
        if votes.count_ones() as usize >= self.state.pull_quorums.majority()
            && self.polled.contains(&(origin, key))
        {
            self.answer(origin, s, ctx);
        }
    }

    /// Algorithm 3, `Poll` handler. Registers `(origin, s)` as polled; in
    /// the asynchronous case where the `Fw2` majority arrived before the
    /// poll, answers immediately.
    pub fn on_poll(&mut self, origin: NodeId, s: GString, r: Label, ctx: &mut Context<'_, AerMsg>) {
        if !self.state.poll_lists.contains(origin, r, self.x) {
            return;
        }
        let key = s.key();
        self.polled.insert((origin, key));
        let (believed_key, believed_slot) = self.state.belief(self.x);
        if key != believed_key {
            // Fw2 votes only ever accumulate for the current belief
            // (`process_fw2` rejects everything else), so a non-believed
            // poll can never have a majority waiting — answering is
            // gated on the belief match anyway.
            return;
        }
        let majority = self.state.pull_quorums.majority();
        let have = self
            .fw2_senders
            .get(&slot_vote_key(believed_slot, origin))
            .map_or(0, |votes| votes.count_ones() as usize);
        if have >= majority {
            self.answer(origin, s, ctx);
        }
    }

    fn answer(&mut self, origin: NodeId, s: GString, ctx: &mut Context<'_, AerMsg>) {
        let key = s.key();
        if !self.answered.insert((origin, key)) {
            return; // answer once per (x, s)
        }
        *self.answer_counts.entry(key).or_insert(0) += 1;
        ctx.send(origin, AerMsg::Answer(s));
    }

    /// Algorithm 1, receiving side: an `Answer(s)` from poll-list member
    /// `w`. Returns `Some(decision)` when answers from a strict majority
    /// of `J(x, r_{x,s})` have arrived.
    #[must_use]
    pub fn on_answer(&mut self, w: NodeId, s: GString) -> Option<GString> {
        if self.decided.is_some() {
            return None;
        }
        let key = s.key();
        let majority = self.poll().majority();
        let poll = self.own_polls.get_mut(&key)?;
        let w_pos = self.state.poll_lists.position(self.x, poll.r, w)?;
        poll.answered_by |= 1 << w_pos;
        if poll.answered_by.count_ones() as usize >= majority {
            let decision = poll.s;
            self.decided = Some(decision);
            self.set_belief(decision, key);
            Some(decision)
        } else {
            None
        }
    }

    /// Called once after this node decides: drains the overload-parked
    /// forwards (they are re-processed under the new belief, so only
    /// requests for the decided string are served), replies to parked
    /// repair queries, and re-arms the pull flood filter.
    ///
    /// Re-arming the filter serves requesters that restart: a crashed
    /// node re-polls the same `(origin, s)` with a fresh label (see
    /// [`PullPhase::restore`]), and a router that forwarded its pre-crash
    /// pull while *undecided* would otherwise refuse the re-poll forever.
    /// After the decision — which happens at most once — each `(origin,
    /// s)` may be forwarded one more time, now with every router and
    /// relay in agreement. Amplification stays bounded: at most two
    /// forwards per `(origin, s)` per router.
    pub fn on_decided(&mut self, ctx: &mut Context<'_, AerMsg>) {
        let Some(decision) = self.decided else {
            debug_assert!(false, "drain requires a decision");
            return;
        };
        self.forwarded_pulls.clear();
        for d in std::mem::take(&mut self.deferred) {
            self.process_fw2(d.from, d.origin, d.s, d.r, ctx);
        }
        for (origin, _r) in std::mem::take(&mut self.repair_pending) {
            let served = self.repair_answered.entry(origin).or_insert(0);
            if *served < REPAIR_ANSWER_CAP {
                *served += 1;
                ctx.send(origin, AerMsg::RepairAnswer(decision));
            }
        }
    }

    /// Crash-recovery: drops every transient (the state a crash loses),
    /// restores the durable facts from `checkpoint`, and launches
    /// catch-up traffic.
    ///
    /// Transients are the in-flight poll masks, the router/answerer vote
    /// arenas, the flood filters and the overload queue: all of them are
    /// reconstructible protocol plumbing, none of them are decisions, so
    /// losing them costs liveness (the node must re-poll) but never
    /// safety. The durable facts — belief (the first accepted string
    /// until one was logged), decision and (via the caller) the accepted
    /// list — come from the WAL replay.
    ///
    /// An undecided node catches up on two channels: it re-polls every
    /// checkpointed candidate with a fresh label, and it sends one repair
    /// query to a fresh poll list `J(x, r)` — the state-sync path that
    /// pulls decisions the node slept through from sampled peers, reusing
    /// the repair machinery's Lemma 7 safety argument (adopt only a
    /// strict-majority report).
    pub fn restore(&mut self, checkpoint: &Checkpoint, ctx: &mut Context<'_, AerMsg>) {
        self.own_polls.clear();
        self.forwarded_pulls.clear();
        self.state.forget_fw1_votes(self.x);
        self.polled.clear();
        self.fw2_senders.clear();
        self.answered.clear();
        self.answer_counts.clear();
        self.deferred.clear();
        self.repair_label = None;
        self.repair_used = 0;
        self.repair_last = 0;
        self.repair_votes.clear();
        self.repair_pending.clear();
        self.repair_answered.clear();

        if let Some(belief) = checkpoint.belief.or(checkpoint.accepted.first().copied()) {
            self.set_belief(belief, belief.key());
        }
        self.decided = checkpoint.decided;
        if self.decided.is_some() {
            return;
        }

        for &s in &checkpoint.accepted {
            self.open_poll(s, ctx);
        }
        if self.retry.repair_attempts > 0 {
            self.repair_used = 1;
            self.query_repair(ctx);
        }
    }
}

/// The part function of a pull's forward: the stored `Fw1` with `w` set
/// to the part's tag.
fn fw1_for(fw1: &AerMsg, w: NodeId) -> AerMsg {
    let mut fw1 = fw1.clone();
    if let AerMsg::Fw1 { w: to_serve, .. } = &mut fw1 {
        *to_serve = w;
    }
    fw1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::Hand;
    use fba_samplers::QuorumScheme;

    const CAP: u64 = 100;

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

    fn phase(x: usize, own: GString, n: usize, d: usize) -> PullPhase {
        phase_with_retry(x, own, n, d, RetryPolicy::strict())
    }

    fn phase_with_retry(
        x: usize,
        own: GString,
        n: usize,
        d: usize,
        retry: RetryPolicy,
    ) -> PullPhase {
        let (scheme, poll) = setup(n, d);
        let state = AerRunState::new(scheme, poll);
        PullPhase::new(NodeId::from_index(x), own, &state, CAP, retry)
    }

    /// The hand of `p`'s node in a system of `n`.
    fn hand(p: &PullPhase, n: usize) -> Hand {
        Hand::new(p.x, n, 1)
    }

    #[test]
    fn start_poll_targets_poll_list_and_pull_quorum() {
        let n = 64;
        let d = 7;
        let (scheme, poll) = setup(n, d);
        let mut p = phase(3, gs(0), n, d);
        let s = gs(1);
        let sends = hand(&p, n).sent(0, |ctx| p.start_poll(s, ctx));
        assert_eq!(sends.len(), 2 * d);
        let polls: Vec<_> = sends
            .iter()
            .filter(|(_, m)| matches!(m, AerMsg::Poll(..)))
            .collect();
        let pulls: Vec<_> = sends
            .iter()
            .filter(|(_, m)| matches!(m, AerMsg::Pull(..)))
            .collect();
        assert_eq!(polls.len(), d);
        assert_eq!(pulls.len(), d);
        // Pulls go exactly to H(s, x).
        let quorum = scheme.pull.quorum(s.key(), NodeId::from_index(3));
        for (to, _) in pulls {
            assert!(quorum.contains(to));
        }
        // Polls go exactly to J(x, r) for the label used.
        if let AerMsg::Poll(_, r) = polls[0].1 {
            let list = poll.poll_list(NodeId::from_index(3), r);
            for (to, _) in polls {
                assert!(list.contains(to));
            }
        } else {
            unreachable!();
        }
    }

    #[test]
    fn start_poll_is_idempotent_per_string_and_stops_after_decision() {
        let mut p = phase(3, gs(0), 64, 7);
        let mut hand = hand(&p, 64);
        assert!(!hand.sent(0, |ctx| p.start_poll(gs(1), ctx)).is_empty());
        let again = hand.sent(0, |ctx| p.start_poll(gs(1), ctx));
        assert!(again.is_empty(), "same string twice");
        p.decided = Some(gs(9));
        let late = hand.sent(0, |ctx| p.start_poll(gs(2), ctx));
        assert!(late.is_empty(), "after decision");
    }

    #[test]
    fn on_pull_forwards_once_with_full_fanout() {
        let n = 64;
        let d = 5;
        let (scheme, _) = setup(n, d);
        let s = gs(0);
        // Find a router y in H(s, origin) that believes s.
        let origin = NodeId::from_index(9);
        let quorum = scheme.pull.quorum(s.key(), origin);
        let y = quorum[0];
        let mut p = phase(y.index(), s, n, d);
        let mut hand = hand(&p, n);
        let r = Label(77);
        let sends = hand.sent(1, |ctx| p.on_pull(origin, s, r, ctx));
        assert_eq!(sends.len(), d * d, "d poll members × d quorum members");
        assert!(sends.iter().all(|(_, m)| matches!(m, AerMsg::Fw1 { .. })));
        // Second identical pull is filtered.
        assert!(hand.sent(1, |ctx| p.on_pull(origin, s, r, ctx)).is_empty());
        // Different label, same (origin, s): still filtered.
        let relabelled = hand.sent(1, |ctx| p.on_pull(origin, s, Label(78), ctx));
        assert!(relabelled.is_empty());
    }

    #[test]
    fn on_pull_forwards_as_one_part_run_over_the_interned_quorums() {
        // The forward of `Pull(s, r)` is one stored payload, not d runs or
        // d² sends: its i-th part carries `Fw1 { w: J(x, r)[i] }` over the
        // one shared `H(s, J(x, r)[i])` the run state hands out.
        let (n, d) = (64, 5);
        let (scheme, poll) = setup(n, d);
        let (s, origin, r) = (gs(0), NodeId::from_index(9), Label(77));
        let y = scheme.pull.quorum(s.key(), origin)[0];
        let mut p = phase(y.index(), s, n, d);
        let out = hand(&p, n).outbox(1, |ctx| p.on_pull(origin, s, r, ctx));
        assert_eq!(out.run_count(), 1, "one run head");
        let mut parts: Vec<(AerMsg, *const [NodeId])> = Vec::new();
        out.for_each_part(|msg, to| parts.push((msg.clone(), to)));
        let list = poll.poll_list(origin, r);
        assert_eq!((parts.len(), list.len()), (d, d));
        for ((msg, to), &w) in parts.into_iter().zip(&list) {
            assert_eq!(msg, AerMsg::Fw1 { origin, s, r, w });
            let interned = p.state.pull_quorums.quorum_shared(s.key(), w);
            assert!(
                std::ptr::eq(to, &*interned),
                "the part to H(s, {w}) copied it"
            );
        }
        // Per message: exactly what one multicast per `w` sends.
        let fw1 = |w: NodeId| {
            let quorum = scheme.pull.quorum(s.key(), w);
            quorum
                .into_iter()
                .map(move |z| (z, AerMsg::Fw1 { origin, s, r, w }))
        };
        let want: Vec<(NodeId, AerMsg)> = list.iter().flat_map(|&w| fw1(w)).collect();
        assert_eq!(want.len(), d * d);
        let mut got = Vec::new();
        out.for_each_message(|to, msg| got.push((to, msg)));
        assert_eq!(got, want);
    }

    #[test]
    fn on_pull_requires_belief_match_and_membership() {
        let n = 64;
        let d = 5;
        let (scheme, _) = setup(n, d);
        let s = gs(0);
        let origin = NodeId::from_index(9);
        let quorum = scheme.pull.quorum(s.key(), origin);

        // Router believes something else: no forward.
        let mut wrong_belief = phase(quorum[0].index(), gs(1), n, d);
        let routed =
            |p: &mut PullPhase| hand(p, n).sent(1, |ctx| p.on_pull(origin, s, Label(0), ctx));
        assert!(routed(&mut wrong_belief).is_empty());

        // Node outside H(s, origin): no forward.
        let outsider = (0..n)
            .map(NodeId::from_index)
            .find(|id| !quorum.contains(id))
            .unwrap();
        let mut not_member = phase(outsider.index(), s, n, d);
        assert!(routed(&mut not_member).is_empty());
    }

    /// Drives a full single-request pipeline through hand-built state
    /// machines and checks every hop, ending in a decision.
    #[test]
    fn full_pipeline_produces_decision() {
        let n = 64;
        let d = 5;
        let majority = d / 2 + 1;
        let (scheme, poll) = setup(n, d);
        let g = gs(0);
        let key = g.key();
        let x = NodeId::from_index(2);

        let mut requester = phase(x.index(), g, n, d);
        let sends = hand(&requester, n).sent(0, |ctx| requester.start_poll(g, ctx));
        let r = match &sends[0].1 {
            AerMsg::Poll(_, r) => *r,
            _ => unreachable!(),
        };
        let poll_list = poll.poll_list(x, r);
        let h_x = scheme.pull.quorum(key, x);

        // Every router in H(g, x) believes g and forwards.
        let mut all_fw1: Vec<(NodeId, NodeId, AerMsg)> = Vec::new(); // (sender y, to z, msg)
        for &y in &h_x {
            let mut router = phase(y.index(), g, n, d);
            for (to, m) in hand(&router, n).sent(1, |ctx| router.on_pull(x, g, r, ctx)) {
                all_fw1.push((y, to, m));
            }
        }

        // Deliver Fw1s to one specific relay z for one specific w and watch
        // the majority trigger exactly once.
        let w = poll_list[0];
        let h_w = scheme.pull.quorum(key, w);
        let z = h_w[0];
        let mut relay = phase(z.index(), g, n, d);
        let mut relay_hand = hand(&relay, n);
        let mut fw2_out = Vec::new();
        let mut distinct_routers = 0;
        for (y, to, m) in &all_fw1 {
            if *to != z {
                continue;
            }
            if let AerMsg::Fw1 {
                origin,
                s,
                r: rr,
                w: ww,
            } = m
            {
                if *ww != w {
                    continue;
                }
                distinct_routers += 1;
                let out = relay_hand.sent(2, |ctx| relay.on_fw1(*y, *origin, *s, *rr, *ww, ctx));
                if distinct_routers < majority {
                    assert!(out.is_empty(), "below majority must not relay");
                } else if distinct_routers == majority {
                    fw2_out = out;
                } else {
                    assert!(out.is_empty(), "relay only once");
                }
            }
        }
        let fw2 = AerMsg::Fw2 { origin: x, s: g, r };
        assert_eq!(fw2_out, [(w, fw2)], "majority crossing sends one Fw2");

        // The poll-list member w: polled + Fw2 majority => answer.
        let mut answerer = phase(w.index(), g, n, d);
        let mut answerer_hand = hand(&answerer, n);
        let polled = answerer_hand.sent(1, |ctx| answerer.on_poll(x, g, r, ctx));
        assert!(polled.is_empty(), "no majority yet");
        let mut answers = Vec::new();
        for (i, &zz) in h_w.iter().enumerate() {
            let out = answerer_hand.sent(3, |ctx| answerer.on_fw2(zz, x, g, r, ctx));
            if i + 1 < majority {
                assert!(out.is_empty());
            } else if i + 1 == majority {
                answers = out;
            } else {
                assert!(out.is_empty(), "answer only once");
            }
        }
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].0, x, "answer goes to the requester");

        // The requester decides after majority answers from J(x, r).
        for (i, &ww) in poll_list.iter().enumerate().take(poll.majority()) {
            let decision = requester.on_answer(ww, g);
            if i + 1 < poll.majority() {
                assert!(decision.is_none());
            } else {
                assert_eq!(decision, Some(g));
            }
        }
        assert_eq!(requester.decided(), Some(&g));
        assert_eq!(requester.believed(), &g);
    }

    #[test]
    fn answers_from_non_poll_list_members_are_ignored() {
        let n = 64;
        let d = 5;
        let (_, poll) = setup(n, d);
        let mut p = phase(2, gs(0), n, d);
        let g = gs(0);
        let sends = hand(&p, n).sent(0, |ctx| p.start_poll(g, ctx));
        let r = match &sends[0].1 {
            AerMsg::Poll(_, r) => *r,
            _ => unreachable!(),
        };
        let list = poll.poll_list(NodeId::from_index(2), r);
        let outsider = (0..n)
            .map(NodeId::from_index)
            .find(|id| !list.contains(id))
            .unwrap();
        for _ in 0..n {
            assert!(p.on_answer(outsider, g).is_none());
        }
        assert!(p.decided().is_none());
    }

    #[test]
    fn duplicate_answers_from_same_member_count_once() {
        let n = 64;
        let d = 5;
        let (_, poll) = setup(n, d);
        let mut p = phase(2, gs(0), n, d);
        let g = gs(0);
        let sends = hand(&p, n).sent(0, |ctx| p.start_poll(g, ctx));
        let r = match &sends[0].1 {
            AerMsg::Poll(_, r) => *r,
            _ => unreachable!(),
        };
        let list = poll.poll_list(NodeId::from_index(2), r);
        for _ in 0..10 {
            assert!(p.on_answer(list[0], g).is_none());
        }
        assert!(p.decided().is_none(), "one member cannot decide alone");
    }

    #[test]
    fn overload_defers_until_decision() {
        let n = 64;
        let d = 5;
        let (scheme, poll) = setup(n, d);
        let g = gs(0);
        let key = g.key();
        let w = NodeId::from_index(7);
        let h_w = scheme.pull.quorum(key, w);
        let state = AerRunState::new(scheme, poll);
        let mut p = PullPhase::new(w, g, &state, 1, RetryPolicy::strict()); // cap = 1

        // Serve requester A fully: poll + Fw2 majority => 1 answer (hits cap).
        let origin_a = NodeId::from_index(20);
        let mut hand = hand(&p, n);
        let (ra, _) = find_label_containing(p.poll(), origin_a, w);
        let _ = hand.sent(1, |ctx| p.on_poll(origin_a, g, ra, ctx));
        let mut answered = 0;
        let mut parked_for_a = 0;
        for &z in &h_w {
            answered += hand.sent(3, |ctx| p.on_fw2(z, origin_a, g, ra, ctx)).len();
            if answered == 1 {
                // Once the cap is hit, even A's trailing forwards park.
                parked_for_a = p.deferred_len();
            }
        }
        assert_eq!(answered, 1);
        assert_eq!(p.answers_sent_for(&g), 1);

        // Requester B: all Fw2s are now parked.
        let origin_b = NodeId::from_index(21);
        let (rb, _) = find_label_containing(p.poll(), origin_b, w);
        let _ = hand.sent(1, |ctx| p.on_poll(origin_b, g, rb, ctx));
        for &z in &h_w {
            let out = hand.sent(3, |ctx| p.on_fw2(z, origin_b, g, rb, ctx));
            assert!(out.is_empty());
        }
        assert_eq!(p.deferred_len(), h_w.len() + parked_for_a);

        // Decision unlocks the queue; B gets its answer.
        p.decided = Some(g);
        p.believed = g;
        let out = hand.sent(4, |ctx| p.on_decided(ctx));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, origin_b);
        assert_eq!(p.deferred_len(), 0);
        assert_eq!(p.answers_sent_for(&g), 2);
    }

    /// Finds a label whose poll list for `origin` contains `member`.
    fn find_label_containing(
        poll: &PollSampler,
        origin: NodeId,
        member: NodeId,
    ) -> (Label, Vec<NodeId>) {
        for raw in 0..poll.label_cardinality() {
            let r = Label(raw);
            let list = poll.poll_list(origin, r);
            if list.contains(&member) {
                return (r, list);
            }
        }
        panic!("no label found — domain too small for test");
    }

    #[test]
    fn fw2_from_outside_quorum_is_ignored() {
        let n = 64;
        let d = 5;
        let (scheme, _) = setup(n, d);
        let g = gs(0);
        let key = g.key();
        let w = NodeId::from_index(7);
        let h_w: BTreeSet<_> = scheme.pull.quorum(key, w).into_iter().collect();
        let mut p = phase(w.index(), g, n, d);
        let origin = NodeId::from_index(20);
        let mut hand = hand(&p, n);
        let (r, _) = find_label_containing(p.poll(), origin, w);
        let _ = hand.sent(1, |ctx| p.on_poll(origin, g, r, ctx));
        let outsiders: Vec<_> = (0..n)
            .map(NodeId::from_index)
            .filter(|id| !h_w.contains(id))
            .take(2 * d)
            .collect();
        for z in outsiders {
            assert!(hand
                .sent(3, |ctx| p.on_fw2(z, origin, g, r, ctx))
                .is_empty());
        }
        assert_eq!(p.answers_sent_for(&g), 0);
    }

    #[test]
    fn poll_after_fw2_majority_answers_immediately_async_case() {
        let n = 64;
        let d = 5;
        let (scheme, _) = setup(n, d);
        let g = gs(0);
        let key = g.key();
        let w = NodeId::from_index(7);
        let h_w = scheme.pull.quorum(key, w);
        let mut p = phase(w.index(), g, n, d);
        let origin = NodeId::from_index(20);
        let mut hand = hand(&p, n);
        let (r, _) = find_label_containing(p.poll(), origin, w);
        // Fw2 majority arrives before the poll.
        for &z in &h_w {
            let out = hand.sent(3, |ctx| p.on_fw2(z, origin, g, r, ctx));
            assert!(out.is_empty(), "not polled yet");
        }
        // The poll then triggers the answer (Algorithm 3's async branch).
        let out = hand.sent(4, |ctx| p.on_poll(origin, g, r, ctx));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, origin);
    }

    /// One handler call of the timeout → repair step table.
    #[derive(Clone, Copy)]
    enum Input {
        /// `start_poll(s)`.
        StartPoll,
        /// `on_step`.
        Tick,
        /// `on_answer(s)` from the first `k` members of the poll's
        /// original `J(x, r)`.
        Answers(usize),
    }

    /// What a row's call sent, by kind, and whether the node has decided.
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    struct Outputs {
        polls: usize,
        pulls: usize,
        repair_queries: usize,
        decided: bool,
    }

    struct TestStep {
        desc: &'static str,
        step: Step,
        input: Input,
        expected_outputs: Outputs,
    }

    #[test]
    fn timeout_escalates_to_repair_and_the_original_poll_still_decides() {
        const D: usize = 5;
        const MAJORITY: usize = D / 2 + 1;
        let retry = RetryPolicy {
            poll_timeout: 4,
            repair_attempts: 2,
        };
        let (n, g) = (64, gs(0));
        let mut p = phase_with_retry(2, g, n, D, retry);
        let mut hand = hand(&p, n);
        let quiet = Outputs::default();
        let repair = Outputs {
            repair_queries: D,
            ..quiet
        };
        let table = [
            TestStep {
                desc: "Algorithm 1: Poll(s, r) to J(x, r) and Pull(s, r) to H(s, x)",
                step: 0,
                input: Input::StartPoll,
                expected_outputs: Outputs {
                    polls: D,
                    pulls: D,
                    ..quiet
                },
            },
            TestStep {
                desc: "Deviations: before poll_timeout the node waits",
                step: 3,
                input: Input::Tick,
                expected_outputs: quiet,
            },
            TestStep {
                desc: "Deviations: at poll_timeout, repair asks a fresh J(x, r'); no Poll",
                step: 4,
                input: Input::Tick,
                expected_outputs: repair,
            },
            TestStep {
                desc: "Deviations: repair queries are one poll_timeout apart",
                step: 7,
                input: Input::Tick,
                expected_outputs: quiet,
            },
            TestStep {
                desc: "Deviations: the second repair query",
                step: 8,
                input: Input::Tick,
                expected_outputs: repair,
            },
            TestStep {
                desc: "Deviations: repair is capped at repair_attempts",
                step: 12,
                input: Input::Tick,
                expected_outputs: quiet,
            },
            TestStep {
                desc: "Algorithm 1: one answer short of a majority of J(x, r) does not decide",
                step: 13,
                input: Input::Answers(MAJORITY - 1),
                expected_outputs: quiet,
            },
            TestStep {
                desc: "Algorithm 1: a majority of the original J(x, r), late, decides",
                step: 14,
                input: Input::Answers(MAJORITY),
                expected_outputs: Outputs {
                    decided: true,
                    ..quiet
                },
            },
            TestStep {
                desc: "Algorithm 1: after the decision on_step sends nothing",
                step: 20,
                input: Input::Tick,
                expected_outputs: Outputs {
                    decided: true,
                    ..quiet
                },
            },
        ];
        let mut r = None;
        for row in table {
            let sent = match row.input {
                Input::StartPoll => hand.sent(row.step, |ctx| p.start_poll(g, ctx)),
                Input::Tick => hand.sent(row.step, |ctx| p.on_step(ctx)),
                Input::Answers(k) => {
                    let list = p.poll().poll_list(p.x, r.expect("polled first"));
                    for &w in &list[..k] {
                        let _ = p.on_answer(w, g);
                    }
                    Vec::new()
                }
            };
            r = r.or(sent.iter().find_map(|(_, m)| match m {
                AerMsg::Poll(_, r) => Some(*r),
                _ => None,
            }));
            let count = |kind: fn(&AerMsg) -> bool| sent.iter().filter(|(_, m)| kind(m)).count();
            let outputs = Outputs {
                polls: count(|m| matches!(m, AerMsg::Poll(..))),
                pulls: count(|m| matches!(m, AerMsg::Pull(..))),
                repair_queries: count(|m| matches!(m, AerMsg::RepairQuery(_))),
                decided: p.decided().is_some(),
            };
            assert_eq!(outputs, row.expected_outputs, "{}", row.desc);
        }
    }

    #[test]
    fn strict_mode_never_retries() {
        let mut p = phase(2, gs(0), 64, 5);
        let mut hand = hand(&p, 64);
        let _ = hand.sent(0, |ctx| p.start_poll(gs(0), ctx));
        for step in 1..2000 {
            assert!(hand.sent(step, |ctx| p.on_step(ctx)).is_empty());
        }
    }

    #[test]
    fn repair_fires_after_polls_exhaust_and_decides_on_majority() {
        let retry = RetryPolicy {
            poll_timeout: 2,
            repair_attempts: 2,
        };
        let n = 64;
        let d = 5;
        let mut p = phase_with_retry(2, gs(0), n, d, retry);
        let mut hand = hand(&p, n);
        let _ = hand.sent(0, |ctx| p.start_poll(gs(0), ctx));
        // Poll expires at step 2; repair query goes out to a fresh list.
        let sends = hand.sent(2, |ctx| p.on_step(ctx));
        assert_eq!(sends.len(), d);
        assert!(sends
            .iter()
            .all(|(_, m)| matches!(m, AerMsg::RepairQuery(_))));
        let members: Vec<NodeId> = sends.iter().map(|(to, _)| *to).collect();

        // Majority of the repair list reports the same decision: adopt it.
        let g = gs(7);
        let maj = d / 2 + 1;
        for (i, w) in members.iter().enumerate().take(maj) {
            let decision = p.on_repair_answer(*w, g);
            if i + 1 < maj {
                assert!(decision.is_none());
            } else {
                assert_eq!(decision, Some(g));
            }
        }
        assert_eq!(p.decided(), Some(&g));
        assert_eq!(p.believed(), &g);
    }

    #[test]
    fn repair_answers_from_outside_list_do_not_count() {
        let retry = RetryPolicy {
            poll_timeout: 1,
            repair_attempts: 1,
        };
        let n = 64;
        let d = 5;
        let mut p = phase_with_retry(2, gs(0), n, d, retry);
        let mut hand = hand(&p, n);
        let _ = hand.sent(0, |ctx| p.start_poll(gs(0), ctx));
        let sends = hand.sent(1, |ctx| p.on_step(ctx));
        let members: BTreeSet<NodeId> = sends.iter().map(|(to, _)| *to).collect();
        let outsiders: Vec<_> = (0..n)
            .map(NodeId::from_index)
            .filter(|id| !members.contains(id))
            .take(2 * d)
            .collect();
        for w in outsiders {
            assert!(p.on_repair_answer(w, gs(7)).is_none());
        }
        assert!(p.decided().is_none());
    }

    #[test]
    fn repair_query_answered_only_when_decided_and_capped() {
        let n = 64;
        let d = 5;
        let mut p = phase(7, gs(0), n, d);
        let origin = NodeId::from_index(20);
        let mut hand = hand(&p, n);
        let (r, _) = find_label_containing(p.poll(), origin, NodeId::from_index(7));
        // Undecided: query parks.
        assert!(hand
            .sent(1, |ctx| p.on_repair_query(origin, r, ctx))
            .is_empty());
        // Decide, then the parked query is served by the drain.
        p.decided = Some(gs(0));
        let out = hand.sent(2, |ctx| p.on_decided(ctx));
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1, AerMsg::RepairAnswer(_)));
        // Direct queries now get served, up to the cap.
        let mut served = 1; // one from the drain
        for _ in 0..(3 * REPAIR_ANSWER_CAP) {
            served += hand.sent(3, |ctx| p.on_repair_query(origin, r, ctx)).len();
        }
        assert_eq!(served as u32, REPAIR_ANSWER_CAP, "per-origin cap enforced");
    }

    #[test]
    fn repair_query_from_wrong_list_is_ignored() {
        let n = 64;
        let d = 5;
        let mut p = phase(7, gs(0), n, d);
        p.decided = Some(gs(0));
        let origin = NodeId::from_index(20);
        // Find a label whose list does NOT contain node 7.
        let mut r = None;
        for raw in 0..p.poll().label_cardinality() {
            if !p.poll().contains(origin, Label(raw), NodeId::from_index(7)) {
                r = Some(Label(raw));
                break;
            }
        }
        let out = hand(&p, n).sent(1, |ctx| p.on_repair_query(origin, r.unwrap(), ctx));
        assert!(out.is_empty());
    }
}
