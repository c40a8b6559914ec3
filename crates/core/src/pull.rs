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
    /// `u64` bitmask over positions in `J(x, r)` of members that
    /// answered.
    answered_by: u64,
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
    /// `believed` by [`PullPhase::decide`]; the handlers compare the
    /// key per message and the answerer hot path keys its vote arena by
    /// the slot — and the `Fw1` vote rows, where this node owns the cells
    /// at its own position.
    state: AerRunState,
    overload_cap: u64,
    retry: RetryPolicy,
    /// `s_this`: the node's current belief; starts at its initial
    /// candidate and is overwritten by its decision.
    believed: GString,
    /// Set by [`PullPhase::decide`] alone, and by a restore.
    decided: Option<GString>,

    // --- requester (Algorithm 1) ---
    own_polls: FxHashMap<StringKey, OwnPoll>,

    // --- router (Algorithm 2) ---
    forwarded_pulls: FxHashSet<(NodeId, StringKey)>,

    // --- answerer (Algorithm 3) ---
    polled: FxHashSet<(NodeId, StringKey)>,
    /// Dense-slot vote arena for `on_fw2`: per `(H(s, self), origin)` —
    /// packed into one `u64` by [`slot_vote_key`] — a `u64` bitmask over
    /// positions in `H(s, self)` of second-hop forwarders seen. Votes only
    /// accumulate for the current belief, whose quorum slot is memoized
    /// in the belief table, so the hot path does no sampler-key hashing
    /// at all.
    fw2_senders: FxHashMap<u64, u64>,
    answered: FxHashSet<(NodeId, StringKey)>,
    answer_counts: FxHashMap<StringKey, u64>,
    deferred: Vec<DeferredFw2>,

    // --- repair (liveness extension) ---
    repair_label: Option<Label>,
    repair_used: u32,
    repair_last: Step,
    /// Per reported string, a `u64` bitmask over positions in the
    /// current repair list of the members that reported it.
    repair_votes: FxHashMap<StringKey, u64>,
    /// Repair requesters parked until this node decides.
    repair_pending: Vec<NodeId>,
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
            self.query_repair(ctx);
        }
    }

    /// Spends one repair attempt: a repair query to a fresh poll list
    /// `J(x, r)`, which becomes the list whose answers count.
    fn query_repair(&mut self, ctx: &mut Context<'_, AerMsg>) {
        self.repair_used += 1;
        self.repair_votes.clear();
        let r = self.poll().random_label(ctx.rng());
        self.repair_label = Some(r);
        self.repair_last = ctx.step();
        let query = |list: &[NodeId]| ctx.multicast(list, AerMsg::RepairQuery(r));
        self.state.poll_lists.poll_list_with(self.x, r, query);
    }

    /// Handles a repair query from `origin`: if this node really is in
    /// `J(origin, r)`, it replies with its decision, or parks the query
    /// until it decides.
    pub fn on_repair_query(&mut self, origin: NodeId, r: Label, ctx: &mut Context<'_, AerMsg>) {
        if !self.state.poll_lists.contains(origin, r, self.x) {
            return;
        }
        match self.decided {
            Some(decision) => self.serve_repair(origin, decision, ctx),
            None => self.repair_pending.push(origin),
        }
    }

    /// Sends this node's decision to repair requester `origin`, at most
    /// [`REPAIR_ANSWER_CAP`] times per requester.
    fn serve_repair(&mut self, origin: NodeId, decision: GString, ctx: &mut Context<'_, AerMsg>) {
        let served = self.repair_answered.entry(origin).or_insert(0);
        if *served < REPAIR_ANSWER_CAP {
            *served += 1;
            ctx.send(origin, AerMsg::RepairAnswer(decision));
        }
    }

    /// Handles a repair answer from `w`: reports of `s` from a strict
    /// majority of the *current* repair poll list decide `s` — the same
    /// tally, and the same safety argument, as a regular poll (Lemma 7).
    pub fn on_repair_answer(&mut self, w: NodeId, s: GString, ctx: &mut Context<'_, AerMsg>) {
        let Some(r) = self.repair_label.filter(|_| self.decided.is_none()) else {
            return;
        };
        let votes = self.repair_votes.entry(s.key()).or_insert(0);
        if majority_marked(&self.state, self.x, r, w, votes) {
            self.decide(s, ctx);
        }
    }

    /// Algorithm 2, first handler: a `Pull(s, r)` from requester `origin`.
    ///
    /// Forwards iff `s` matches this node's current candidate, this node
    /// really is in `H(s, origin)`, and this `(origin, s)` was not
    /// forwarded before (flood filter). The forward fans out to `H(s, w)`
    /// for every `w ∈ J(origin, r)`, in poll-list order: `Fw1 { w }` to
    /// each member of `H(s, w)`. It is one part run — one stored `Fw1`
    /// and a handle on the run's forward plan, whose part per `w` is
    /// tagged `w` over the interned quorum — so a forward in flight
    /// stores its payload once, and the routers of one pull share one
    /// part list and copy no recipient list.
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
        let plan = self.state.forward_plan(origin, r, key);
        ctx.multicast_list(fw1, fw1_for, &plan);
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
    /// decision, which drains the queue.
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
        let votes = *votes;
        self.answer_at_majority(origin, s, votes, ctx);
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
        let votes = self.fw2_senders.get(&slot_vote_key(believed_slot, origin));
        self.answer_at_majority(origin, s, votes.copied().unwrap_or(0), ctx);
    }

    /// Algorithm 3's answer: `Answer(s)` to `origin`, once per `(origin,
    /// s)`, when `origin` polled this node for `s` and `votes` — the
    /// `Fw2` relays for `origin` under the current belief `s`, a bitmask
    /// over positions in `H(s, self)` — holds a majority.
    fn answer_at_majority(
        &mut self,
        origin: NodeId,
        s: GString,
        votes: u64,
        ctx: &mut Context<'_, AerMsg>,
    ) {
        let key = s.key();
        if (votes.count_ones() as usize) < self.state.pull_quorums.majority()
            || !self.polled.contains(&(origin, key))
            || !self.answered.insert((origin, key))
        {
            return;
        }
        *self.answer_counts.entry(key).or_insert(0) += 1;
        ctx.send(origin, AerMsg::Answer(s));
    }

    /// Algorithm 1, receiving side: an `Answer(s)` from poll-list member
    /// `w`. Answers from a strict majority of `J(x, r_{x,s})` decide `s`.
    pub fn on_answer(&mut self, w: NodeId, s: GString, ctx: &mut Context<'_, AerMsg>) {
        if self.decided.is_some() {
            return;
        }
        let Some(poll) = self.own_polls.get_mut(&s.key()) else {
            return;
        };
        if majority_marked(&self.state, self.x, poll.r, w, &mut poll.answered_by) {
            let decision = poll.s;
            self.decide(decision, ctx);
        }
    }

    /// The one decision point: `s` becomes the decision and the belief,
    /// and Algorithm 3's "wait for `has_decided`" ends. In order, the
    /// pull flood filter is re-armed, the overload-parked forwards are
    /// re-processed under the new belief (so only requests for `s` are
    /// served), and the parked repair queries are answered.
    ///
    /// Re-arming the filter serves requesters that restart: a crashed
    /// node re-polls the same `(origin, s)` with a fresh label (see
    /// [`PullPhase::restore`]), and a router that forwarded its pre-crash
    /// pull while *undecided* would otherwise refuse the re-poll forever.
    /// After the decision — which happens at most once — each `(origin,
    /// s)` may be forwarded one more time, now with every router and
    /// relay in agreement. Amplification stays bounded: at most two
    /// forwards per `(origin, s)` per router.
    fn decide(&mut self, s: GString, ctx: &mut Context<'_, AerMsg>) {
        self.decided = Some(s);
        self.believed = s;
        self.state.set_belief(self.x, s.key());
        self.forwarded_pulls.clear();
        for d in std::mem::take(&mut self.deferred) {
            self.process_fw2(d.from, d.origin, d.s, d.r, ctx);
        }
        for origin in std::mem::take(&mut self.repair_pending) {
            self.serve_repair(origin, s, ctx);
        }
    }

    /// Crash-recovery: rebuilds the phase, so every transient (the state a
    /// crash loses) goes, restores the durable facts from `checkpoint`,
    /// and launches catch-up traffic.
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
    /// strict-majority report). A rebuilt phase has nothing parked, so a
    /// checkpointed decision is set as it is, with nothing to drain.
    pub fn restore(&mut self, checkpoint: &Checkpoint, ctx: &mut Context<'_, AerMsg>) {
        self.state.forget_fw1_votes(self.x);
        let belief = checkpoint.belief.or(checkpoint.accepted.first().copied());
        let belief = belief.unwrap_or(self.believed);
        *self = PullPhase::new(self.x, belief, &self.state, self.overload_cap, self.retry);
        self.decided = checkpoint.decided;
        if self.decided.is_some() {
            return;
        }

        for &s in &checkpoint.accepted {
            self.open_poll(s, ctx);
        }
        if self.retry.repair_attempts > 0 {
            self.query_repair(ctx);
        }
    }
}

/// The one strict-majority tally, of a poll (Algorithm 1) and of repair
/// alike: marks `w`'s position in `J(x, r)` in `votes`, a bitmask over
/// the list's positions, and says whether a strict majority of the list
/// is marked. A non-member marks nothing. One poll-cache lookup.
fn majority_marked(state: &AerRunState, x: NodeId, r: Label, w: NodeId, votes: &mut u64) -> bool {
    let Some(w_pos) = state.poll_lists.position(x, r, w) else {
        return false;
    };
    *votes |= 1 << w_pos;
    votes.count_ones() as usize >= state.poll_lists.sampler().majority()
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
    use crate::AerNode;
    use fba_samplers::QuorumScheme;
    use fba_sim::{Driver, Envelope, TestStep};

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

    /// `n` nodes and no node table: a phase's handlers run through its
    /// node's context, `driver(n).call(p.x, …)`.
    fn driver(n: usize) -> Driver<AerNode> {
        Driver::new(n, 1, |_| None)
    }

    /// The label of the first `Poll` among `sent`.
    fn polled(sent: &[Envelope<AerMsg>]) -> Label {
        sent.iter()
            .find_map(|e| match e.msg {
                AerMsg::Poll(_, r) => Some(r),
                _ => None,
            })
            .expect("a poll was sent")
    }

    #[test]
    fn start_poll_targets_poll_list_and_pull_quorum() {
        let n = 64;
        let d = 7;
        let (scheme, poll) = setup(n, d);
        let mut p = phase(3, gs(0), n, d);
        let s = gs(1);
        let sends = driver(n).call(p.x, |ctx| p.start_poll(s, ctx));
        assert_eq!(sends.len(), 2 * d);
        let (polls, pulls): (Vec<_>, Vec<_>) = sends
            .iter()
            .partition(|e| matches!(e.msg, AerMsg::Poll(..)));
        assert_eq!(polls.len(), d);
        assert_eq!(pulls.len(), d);
        // Pulls go exactly to H(s, x).
        let quorum = scheme.pull.quorum(s.key(), NodeId::from_index(3));
        assert!(pulls.iter().all(|e| quorum.contains(&e.to)));
        // Polls go exactly to J(x, r) for the label used.
        let list = poll.poll_list(NodeId::from_index(3), polled(&sends));
        assert!(polls.iter().all(|e| list.contains(&e.to)));
    }

    #[test]
    fn start_poll_is_idempotent_per_string_and_stops_after_decision() {
        let (mut p, mut d) = (phase(3, gs(0), 64, 7), driver(64));
        assert!(!d.call(p.x, |ctx| p.start_poll(gs(1), ctx)).is_empty());
        let again = d.call(p.x, |ctx| p.start_poll(gs(1), ctx));
        assert!(again.is_empty(), "same string twice");
        p.decided = Some(gs(9));
        let late = d.call(p.x, |ctx| p.start_poll(gs(2), ctx));
        assert!(late.is_empty(), "after decision");
    }

    #[test]
    fn on_pull_forwards_once_as_one_part_run_over_the_interned_quorums() {
        // The forward of `Pull(s, r)` is one stored payload, not d runs or
        // d² sends: its i-th part carries `Fw1 { w: J(x, r)[i] }` over the
        // one shared `H(s, J(x, r)[i])` the run state hands out.
        let (n, d) = (64, 5);
        let (scheme, poll) = setup(n, d);
        let (s, origin, r) = (gs(0), NodeId::from_index(9), Label(77));
        let y = scheme.pull.quorum(s.key(), origin)[0];
        let (mut p, mut hand) = (phase(y.index(), s, n, d), driver(n));
        let sent = hand.call(y, |ctx| p.on_pull(origin, s, r, ctx));
        let out = hand.outbox();
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
        assert_eq!(pairs(sent), forwards(n, d, origin, s, r));
        // Once per (origin, s): the same pull again, or relabelled, sends
        // nothing.
        for r in [r, Label(78)] {
            assert!(hand.call(y, |ctx| p.on_pull(origin, s, r, ctx)).is_empty());
        }
    }

    /// `(to, msg)` per envelope.
    fn pairs(sent: Vec<Envelope<AerMsg>>) -> Vec<(NodeId, AerMsg)> {
        sent.into_iter().map(|e| (e.to, e.msg)).collect()
    }

    /// The d² `(to, Fw1)` pairs a router's forward of `Pull(s, r)` from
    /// `origin` sends, from the samplers alone: per `w ∈ J(origin, r)`
    /// in list order, `Fw1 { w }` to each member of `H(s, w)`.
    fn forwards(n: usize, d: usize, origin: NodeId, s: GString, r: Label) -> Vec<(NodeId, AerMsg)> {
        let (scheme, poll) = setup(n, d);
        let fw1 = |w: NodeId| {
            let quorum = scheme.pull.quorum(s.key(), w);
            quorum
                .into_iter()
                .map(move |z| (z, AerMsg::Fw1 { origin, s, r, w }))
        };
        let want: Vec<_> = poll
            .poll_list(origin, r)
            .into_iter()
            .flat_map(fw1)
            .collect();
        assert_eq!(want.len(), d * d);
        want
    }

    #[test]
    fn the_routers_of_one_pull_push_one_shared_part_list() {
        // Every router of `H(s, origin)` forwards the same parts, so the
        // second pushes the list the first built — the same handle — and
        // looks up no quorum of the forward: only its gate `H(s, origin)`
        // and the slot of `J(origin, r)`.
        let (n, d) = (64, 5);
        let (scheme, poll) = setup(n, d);
        let state = AerRunState::new(scheme, poll);
        let (s, origin, r) = (gs(0), NodeId::from_index(9), Label(77));
        let routers = scheme.pull.quorum(s.key(), origin);
        let (mut hand, mut plan) = (driver(n), None);
        for (i, &y) in routers.iter().take(2).enumerate() {
            let mut p = PullPhase::new(y, s, &state, CAP, RetryPolicy::strict());
            let before = (state.pull_cache_stats(), state.poll_cache_stats());
            let sent = hand.call(y, |ctx| p.on_pull(origin, s, r, ctx));
            let (pull, poll) = (state.pull_cache_stats(), state.poll_cache_stats());
            let lookups = |(h, m): (u64, u64), (h0, m0): (u64, u64)| h + m - h0 - m0;
            let quorums = if i == 0 { d } else { 0 };
            assert_eq!(lookups(pull, before.0), 1 + quorums as u64, "router {y}");
            assert_eq!(lookups(poll, before.1), 1, "router {y}");
            assert_eq!(pairs(sent), forwards(n, d, origin, s, r), "router {y}");
            let plan = plan.get_or_insert_with(|| state.forward_plan(origin, r, s.key()));
            assert!(
                hand.outbox().sends_over(plan),
                "router {y} pushed another list"
            );
        }
    }

    #[test]
    fn a_forward_plan_is_keyed_by_the_pulls_label_and_string() {
        // A corrupt origin pulls different routers with different labels
        // and strings, interleaved over one run state: each router
        // forwards over `J(origin, its label)` and `H(its string, ·)`,
        // never over the plan the router before it built.
        let (n, d) = (64, 5);
        let state = {
            let (scheme, poll) = setup(n, d);
            AerRunState::new(scheme, poll)
        };
        let (origin, (s, s2), (r, r2)) = (
            NodeId::from_index(9),
            (gs(0), gs(1)),
            (Label(77), Label(78)),
        );
        let router = |s: GString, i: usize| state.pull_quorums.sampler().quorum(s.key(), origin)[i];
        let table = [
            ("Pull(s, r)", router(s, 0), s, r),
            ("the label changes", router(s, 1), s, r2),
            ("the string and the label change", router(s2, 0), s2, r),
            ("the label changes back", router(s2, 1), s2, r2),
            ("the string changes back", router(s, 2), s, r2),
        ];
        let mut hand = driver(n);
        for (row, y, s, r) in table {
            let mut p = PullPhase::new(y, s, &state, CAP, RetryPolicy::strict());
            let sent = hand.call(y, |ctx| p.on_pull(origin, s, r, ctx));
            assert_eq!(pairs(sent), forwards(n, d, origin, s, r), "{row}");
        }
    }

    #[test]
    fn full_pipeline_produces_decision() {
        let n = 64;
        let d = 5;
        let majority = d / 2 + 1;
        let (scheme, poll) = setup(n, d);
        let g = gs(0);
        let key = g.key();
        let x = NodeId::from_index(2);

        let (mut requester, mut hand) = (phase(x.index(), g, n, d), driver(n));
        let r = polled(&hand.call(x, |ctx| requester.start_poll(g, ctx)));
        let poll_list = poll.poll_list(x, r);
        let h_x = scheme.pull.quorum(key, x);

        // Every router in H(g, x) believes g and forwards.
        let mut all_fw1: Vec<Envelope<AerMsg>> = Vec::new();
        for &y in &h_x {
            let mut router = phase(y.index(), g, n, d);
            all_fw1.extend(hand.call(y, |ctx| router.on_pull(x, g, r, ctx)));
        }

        // Deliver Fw1s to one specific relay z for one specific w and watch
        // the majority trigger exactly once.
        let w = poll_list[0];
        let h_w = scheme.pull.quorum(key, w);
        let z = h_w[0];
        let mut relay = phase(z.index(), g, n, d);
        let mut fw2_out = Vec::new();
        let mut distinct_routers = 0;
        for e in all_fw1.iter().filter(|e| e.to == z) {
            if let AerMsg::Fw1 {
                origin,
                s,
                r,
                w: ww,
            } = e.msg
            {
                if ww != w {
                    continue;
                }
                distinct_routers += 1;
                let out = hand.call(z, |ctx| relay.on_fw1(e.from, origin, s, r, ww, ctx));
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
        let fw2_out: Vec<_> = fw2_out.into_iter().map(|e| (e.to, e.msg)).collect();
        assert_eq!(fw2_out, [(w, fw2)], "majority crossing sends one Fw2");

        // The poll-list member w: polled + Fw2 majority => answer.
        let mut answerer = phase(w.index(), g, n, d);
        let polled = hand.call(w, |ctx| answerer.on_poll(x, g, r, ctx));
        assert!(polled.is_empty(), "no majority yet");
        let mut answers = Vec::new();
        for (i, &zz) in h_w.iter().enumerate() {
            let out = hand.call(w, |ctx| answerer.on_fw2(zz, x, g, r, ctx));
            if i + 1 < majority {
                assert!(out.is_empty());
            } else if i + 1 == majority {
                answers = out;
            } else {
                assert!(out.is_empty(), "answer only once");
            }
        }
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].to, x, "answer goes to the requester");

        // The requester decides after majority answers from J(x, r).
        for (i, &ww) in poll_list.iter().enumerate().take(poll.majority()) {
            let _ = hand.call(x, |ctx| requester.on_answer(ww, g, ctx));
            assert_eq!(requester.decided().is_some(), i + 1 == poll.majority());
        }
        assert_eq!(requester.decided(), Some(&g));
        assert_eq!(requester.believed(), &g);
    }

    #[test]
    fn answers_from_non_poll_list_members_are_ignored() {
        let n = 64;
        let d = 5;
        let (_, poll) = setup(n, d);
        let (mut p, mut hand) = (phase(2, gs(0), n, d), driver(n));
        let g = gs(0);
        let r = polled(&hand.call(p.x, |ctx| p.start_poll(g, ctx)));
        let list = poll.poll_list(NodeId::from_index(2), r);
        let outsider = (0..n)
            .map(NodeId::from_index)
            .find(|id| !list.contains(id))
            .unwrap();
        for _ in 0..n {
            let _ = hand.call(p.x, |ctx| p.on_answer(outsider, g, ctx));
        }
        assert!(p.decided().is_none());
    }

    #[test]
    fn at_the_widest_quorum_position_62_counts_once_for_fw2_and_answers() {
        // d = 63, majority 32: the member at position 62 votes first and
        // twice, then 30 more leave the count one short, and the 32nd
        // distinct member crosses — only if position 62 counted once.
        const D: usize = crate::state::MAX_QUORUM_SIZE;
        let (n, g) = (256, gs(0));
        let (scheme, _) = setup(n, D);
        let order: Vec<usize> = [D - 1, D - 1].into_iter().chain(0..31).collect();
        assert_eq!(scheme.pull.majority(), 32);

        // Algorithm 3: Fw2 senders of H(s, w), the poll already in.
        let w = NodeId::from_index(7);
        let h_w = scheme.pull.quorum(g.key(), w);
        let mut p = phase(w.index(), g, n, D);
        let (origin, mut hand) = (NodeId::from_index(20), driver(n));
        let r = label(p.poll(), origin, w, true);
        let _ = hand.call(w, |ctx| p.on_poll(origin, g, r, ctx));
        let answers: Vec<usize> = order
            .iter()
            .map(|&pos| {
                hand.call(w, |ctx| p.on_fw2(h_w[pos], origin, g, r, ctx))
                    .len()
            })
            .collect();
        assert_eq!(answers.iter().sum::<usize>(), 1);
        assert_eq!(answers.last(), Some(&1), "the 32nd distinct sender answers");

        // Algorithm 1: answerers of J(x, r).
        let mut q = phase(2, g, n, D);
        let r = polled(&hand.call(q.x, |ctx| q.start_poll(g, ctx)));
        let list = q.poll().poll_list(q.x, r);
        assert_eq!(list.len(), D);
        let decisions: Vec<bool> = order
            .iter()
            .map(|&pos| {
                let undecided = q.decided().is_none();
                let _ = hand.call(q.x, |ctx| q.on_answer(list[pos], g, ctx));
                undecided && q.decided().is_some()
            })
            .collect();
        assert_eq!(decisions.iter().filter(|&&d| d).count(), 1);
        assert_eq!(
            decisions.last(),
            Some(&true),
            "the 32nd distinct answer decides"
        );
    }

    #[test]
    fn algorithm_3_parks_overloaded_forwards_until_the_decision() {
        /// One row's calls.
        enum Input {
            /// `on_poll(origin, s)` from requester `origin`, then `on_fw2`
            /// for it from every member of `H(s, x)`, in order.
            Served { origin: usize, s: GString },
            /// A majority of the node's own `J(x, r)` answers `g`.
            Decide,
        }

        /// What a row's calls sent and the phase's state after them.
        #[derive(Debug, PartialEq)]
        struct Outputs {
            /// The requesters answered, in send order.
            answered: Vec<usize>,
            deferred: usize,
            decided: bool,
        }

        const CAP: u64 = 2;
        let (n, d, x) = (64, 5, NodeId::from_index(7));
        let (g, other) = (gs(0), gs(1));
        let (scheme, poll) = setup(n, d);
        let majority = scheme.pull.majority();
        // A majority answers; the members after it are the trailing ones.
        let trailing = d - majority;
        let state = AerRunState::new(scheme, poll);
        let mut p = PullPhase::new(x, g, &state, CAP, RetryPolicy::strict());
        let mut hand = driver(n);
        let r = polled(&hand.call(x, |ctx| p.start_poll(g, ctx)));
        let outputs = |answered: &[usize], deferred: usize, decided: bool| Outputs {
            answered: answered.to_vec(),
            deferred,
            decided,
        };
        let table = [
            TestStep {
                desc: "Algorithm 3: below overload_cap a polled Fw2 majority is answered, once",
                input: Input::Served { origin: 20, s: g },
                expected_outputs: outputs(&[20], 0, false),
            },
            TestStep {
                desc: "Algorithm 3: the answer that reaches overload_cap is sent; \
                       the requester's trailing forwards park",
                input: Input::Served { origin: 21, s: g },
                expected_outputs: outputs(&[21], trailing, false),
            },
            TestStep {
                desc: "Lemma 6: at the cap a later Fw2 majority parks and nothing is sent",
                input: Input::Served { origin: 22, s: g },
                expected_outputs: outputs(&[], trailing + d, false),
            },
            TestStep {
                desc: "Lemma 6: a second requester's majority parks behind the first",
                input: Input::Served { origin: 23, s: g },
                expected_outputs: outputs(&[], trailing + 2 * d, false),
            },
            TestStep {
                desc: "Algorithm 3: the cap is per string; another string's forwards \
                       do not park and, not believed, are dropped",
                input: Input::Served {
                    origin: 24,
                    s: other,
                },
                expected_outputs: outputs(&[], trailing + 2 * d, false),
            },
            TestStep {
                desc: "Algorithm 3: the decision releases the parked forwards in \
                       arrival order and answers only the decided string, once \
                       per requester",
                input: Input::Decide,
                expected_outputs: outputs(&[22, 23], 0, true),
            },
            TestStep {
                desc: "Algorithm 3: after the decision nothing parks",
                input: Input::Served { origin: 25, s: g },
                expected_outputs: outputs(&[25], 0, true),
            },
        ];
        for (step, row) in (1..).zip(table) {
            let sent = match row.input {
                Input::Served { origin, s } => {
                    let origin = NodeId::from_index(origin);
                    let r = label(p.poll(), origin, x, true);
                    let h_x = scheme.pull.quorum(s.key(), x);
                    let mut sent = hand.at(step).call(x, |ctx| p.on_poll(origin, s, r, ctx));
                    for &z in &h_x {
                        sent.extend(hand.call(x, |ctx| p.on_fw2(z, origin, s, r, ctx)));
                    }
                    sent
                }
                Input::Decide => {
                    let list = p.poll().poll_list(x, r);
                    let mut sent = Vec::new();
                    for &w in &list[..majority] {
                        assert!(p.decided().is_none(), "{}", row.desc);
                        sent.extend(hand.at(step).call(x, |ctx| p.on_answer(w, g, ctx)));
                    }
                    sent
                }
            };
            let answer = AerMsg::Answer(g);
            assert!(sent.iter().all(|e| e.msg == answer), "{}", row.desc);
            let outputs = Outputs {
                answered: sent.iter().map(|e| e.to.index()).collect(),
                deferred: p.deferred_len(),
                decided: p.decided().is_some(),
            };
            assert_eq!(outputs, row.expected_outputs, "{}", row.desc);
        }
        assert_eq!(p.answers_sent_for(&g), 5);
        assert_eq!(p.answers_sent_for(&other), 0);
    }

    /// The first label whose poll list for `origin` contains `member`
    /// (`hit`) or does not.
    fn label(poll: &PollSampler, origin: NodeId, member: NodeId, hit: bool) -> Label {
        (0..poll.label_cardinality())
            .map(Label)
            .find(|&r| poll.contains(origin, r, member) == hit)
            .expect("no label found — domain too small for test")
    }

    #[test]
    fn fw2_from_outside_quorum_is_ignored() {
        let n = 64;
        let d = 5;
        let (scheme, _) = setup(n, d);
        let g = gs(0);
        let key = g.key();
        let w = NodeId::from_index(7);
        let h_w = scheme.pull.quorum(key, w);
        let mut p = phase(w.index(), g, n, d);
        let (origin, mut hand) = (NodeId::from_index(20), driver(n));
        let r = label(p.poll(), origin, w, true);
        let _ = hand.call(w, |ctx| p.on_poll(origin, g, r, ctx));
        let outsiders: Vec<_> = (0..n)
            .map(NodeId::from_index)
            .filter(|id| !h_w.contains(id))
            .take(2 * d)
            .collect();
        for z in outsiders {
            assert!(hand
                .call(w, |ctx| p.on_fw2(z, origin, g, r, ctx))
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
        let (origin, mut hand) = (NodeId::from_index(20), driver(n));
        let r = label(p.poll(), origin, w, true);
        // Fw2 majority arrives before the poll.
        for &z in &h_w {
            let out = hand.call(w, |ctx| p.on_fw2(z, origin, g, r, ctx));
            assert!(out.is_empty(), "not polled yet");
        }
        // The poll then triggers the answer (Algorithm 3's async branch).
        let out = hand.call(w, |ctx| p.on_poll(origin, g, r, ctx));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, origin);
    }

    /// One handler call of the timeout → repair step table, made at the
    /// step it is paired with.
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

    #[test]
    fn timeout_escalates_to_repair_and_the_original_poll_still_decides() {
        const D: usize = 5;
        const MAJORITY: usize = D / 2 + 1;
        let retry = RetryPolicy {
            poll_timeout: 4,
            repair_attempts: 2,
        };
        let (n, g) = (64, gs(0));
        let (mut p, mut hand) = (phase_with_retry(2, g, n, D, retry), driver(n));
        let quiet = Outputs::default();
        let repair = Outputs {
            repair_queries: D,
            ..quiet
        };
        let table = [
            TestStep {
                desc: "Algorithm 1: Poll(s, r) to J(x, r) and Pull(s, r) to H(s, x)",
                input: (0, Input::StartPoll),
                expected_outputs: Outputs {
                    polls: D,
                    pulls: D,
                    ..quiet
                },
            },
            TestStep {
                desc: "Deviations: before poll_timeout the node waits",
                input: (3, Input::Tick),
                expected_outputs: quiet,
            },
            TestStep {
                desc: "Deviations: at poll_timeout, repair asks a fresh J(x, r'); no Poll",
                input: (4, Input::Tick),
                expected_outputs: repair,
            },
            TestStep {
                desc: "Deviations: repair queries are one poll_timeout apart",
                input: (7, Input::Tick),
                expected_outputs: quiet,
            },
            TestStep {
                desc: "Deviations: the second repair query",
                input: (8, Input::Tick),
                expected_outputs: repair,
            },
            TestStep {
                desc: "Deviations: repair is capped at repair_attempts",
                input: (12, Input::Tick),
                expected_outputs: quiet,
            },
            TestStep {
                desc: "Algorithm 1: one answer short of a majority of J(x, r) does not decide",
                input: (13, Input::Answers(MAJORITY - 1)),
                expected_outputs: quiet,
            },
            TestStep {
                desc: "Algorithm 1: a majority of the original J(x, r), late, decides",
                input: (14, Input::Answers(MAJORITY)),
                expected_outputs: Outputs {
                    decided: true,
                    ..quiet
                },
            },
            TestStep {
                desc: "Algorithm 1: after the decision on_step sends nothing",
                input: (20, Input::Tick),
                expected_outputs: Outputs {
                    decided: true,
                    ..quiet
                },
            },
        ];
        let mut r = None;
        for row in table {
            let (step, input) = row.input;
            let sent = match input {
                Input::StartPoll => hand.at(step).call(p.x, |ctx| p.start_poll(g, ctx)),
                Input::Tick => hand.at(step).call(p.x, |ctx| p.on_step(ctx)),
                Input::Answers(k) => {
                    let list = p.poll().poll_list(p.x, r.expect("polled first"));
                    let mut sent = Vec::new();
                    for &w in &list[..k] {
                        sent.extend(hand.at(step).call(p.x, |ctx| p.on_answer(w, g, ctx)));
                    }
                    sent
                }
            };
            r = r.or_else(|| matches!(input, Input::StartPoll).then(|| polled(&sent)));
            let count = |kind: fn(&AerMsg) -> bool| sent.iter().filter(|e| kind(&e.msg)).count();
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
        let (mut p, mut hand) = (phase(2, gs(0), 64, 5), driver(64));
        let _ = hand.call(p.x, |ctx| p.start_poll(gs(0), ctx));
        for step in 1..2000 {
            assert!(hand.at(step).call(p.x, |ctx| p.on_step(ctx)).is_empty());
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
        let (mut p, mut hand) = (phase_with_retry(2, gs(0), n, d, retry), driver(n));
        let _ = hand.call(p.x, |ctx| p.start_poll(gs(0), ctx));
        // Poll expires at step 2; repair query goes out to a fresh list.
        let sends = hand.at(2).call(p.x, |ctx| p.on_step(ctx));
        assert_eq!(sends.len(), d);
        assert!(sends
            .iter()
            .all(|e| matches!(e.msg, AerMsg::RepairQuery(_))));
        let members: Vec<NodeId> = sends.iter().map(|e| e.to).collect();

        // Majority of the repair list reports the same decision: adopt it.
        let g = gs(7);
        let maj = d / 2 + 1;
        for (i, &w) in members.iter().enumerate().take(maj) {
            let _ = hand.call(p.x, |ctx| p.on_repair_answer(w, g, ctx));
            assert_eq!(p.decided().is_some(), i + 1 == maj);
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
        let (mut p, mut hand) = (phase_with_retry(2, gs(0), n, d, retry), driver(n));
        let _ = hand.call(p.x, |ctx| p.start_poll(gs(0), ctx));
        let sends = hand.at(1).call(p.x, |ctx| p.on_step(ctx));
        let members: Vec<NodeId> = sends.iter().map(|e| e.to).collect();
        let outsiders: Vec<_> = (0..n)
            .map(NodeId::from_index)
            .filter(|id| !members.contains(id))
            .take(2 * d)
            .collect();
        for w in outsiders {
            let _ = hand.call(p.x, |ctx| p.on_repair_answer(w, gs(7), ctx));
        }
        assert!(p.decided().is_none());
    }

    #[test]
    fn repair_query_answered_only_when_decided_and_capped() {
        let n = 64;
        let d = 5;
        let mut p = phase(7, gs(0), n, d);
        let (origin, mut hand) = (NodeId::from_index(20), driver(n));
        let r = label(p.poll(), origin, NodeId::from_index(7), true);
        // Undecided: query parks.
        assert!(hand
            .call(p.x, |ctx| p.on_repair_query(origin, r, ctx))
            .is_empty());
        // Decide: the parked query is served by the drain.
        let out = hand.call(p.x, |ctx| p.decide(gs(0), ctx));
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].msg, AerMsg::RepairAnswer(_)));
        // Direct queries now get served, up to the cap.
        let mut served = 1; // one from the drain
        for _ in 0..(3 * REPAIR_ANSWER_CAP) {
            served += hand
                .call(p.x, |ctx| p.on_repair_query(origin, r, ctx))
                .len();
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
        // A label whose list does NOT contain node 7.
        let r = label(p.poll(), origin, p.x, false);
        let out = driver(n).call(p.x, |ctx| p.on_repair_query(origin, r, ctx));
        assert!(out.is_empty());
    }
}
