//! The AER protocol node and run harness.
//!
//! [`AerNode`] wires the push phase (§3.1.1) and pull phase (§3.1.2,
//! Algorithms 1–3) into one event-driven [`Protocol`]: a node pushes its
//! initial candidate at start, polls every candidate as soon as it enters
//! `L_x` (its own candidate immediately), routes and answers other nodes'
//! pull traffic, and decides on the first candidate confirmed by a strict
//! majority of a poll list. The event-driven formulation works unchanged
//! in synchronous and asynchronous executions — one of AER's distinctive
//! properties ("this algorithm remains correct and efficient under
//! asynchrony").
//!
//! [`AerHarness`] packages the shared public state (samplers, initial
//! assignments, push target lists) and runs complete executions on the
//! simulator.

use fba_ae::Precondition;
use fba_recovery::{CheckpointStore, RecoveryConfig, WalRecord};
use fba_samplers::{GString, PollSampler, QuorumScheme, StringKey};
use fba_sim::{
    deliver_each, run, Adversary, Context, EngineConfig, EngineSession, NodeId, Protocol,
    RunContext, RunOutcome, Step,
};

use crate::config::AerConfig;
use crate::msg::AerMsg;
use crate::pull::{PullPhase, RetryPolicy};
use crate::push::{push_targets, PushPhase};
use crate::state::AerRunState;

/// The checkpoint layer of one node: its durable store plus cursors
/// tracking which phase facts have already been logged, so `sync_wal`
/// appends exactly the diff after each protocol callback.
#[derive(Clone, Debug)]
struct RecoveryState {
    store: CheckpointStore,
    /// Prefix of `push.candidates()` already logged as `Accept` records
    /// (position 0, `s_x`, is the WAL's first record).
    logged_accepts: usize,
    logged_belief: StringKey,
    logged_decided: bool,
}

impl RecoveryState {
    fn new(config: RecoveryConfig, own_key: StringKey) -> Self {
        RecoveryState {
            store: CheckpointStore::new(config),
            logged_accepts: 0,
            logged_belief: own_key,
            logged_decided: false,
        }
    }
}

/// One correct AER participant.
#[derive(Clone, Debug)]
pub struct AerNode {
    push: PushPhase,
    pull: PullPhase,
    targets: Vec<NodeId>,
    /// Checkpoint/WAL layer; `None` (the default) runs without any
    /// recovery machinery — bit-identical to builds predating it.
    recovery: Option<RecoveryState>,
}

impl AerNode {
    /// Enables the checkpoint/WAL layer: the node logs phase progress
    /// after every callback and, on [`Protocol::on_restart`], restores
    /// from its checkpoint and launches state-sync catch-up. Without
    /// this, a restarted node resumes naively on whatever in-memory
    /// state survived.
    ///
    /// Checkpointing consumes no randomness and sends no messages during
    /// normal operation, so enabling it on a run that never crashes is
    /// bit-identical to leaving it off.
    #[must_use]
    pub fn with_recovery(mut self, config: RecoveryConfig) -> Self {
        self.recovery = Some(RecoveryState::new(config, self.push.own_candidate().key()));
        self
    }

    /// Appends the diff since the last sync to the WAL: newly accepted
    /// candidates, a changed belief and a decision — then compacts on the
    /// store's cadence. Called after every protocol callback but an
    /// `Fw1` delivery, which changes nothing it logs; no-op without
    /// recovery enabled.
    fn sync_wal(&mut self, step: Step) {
        let Some(rec) = self.recovery.as_mut() else {
            return;
        };
        let candidates = self.push.candidates();
        while rec.logged_accepts < candidates.len() {
            rec.store
                .append(step, WalRecord::Accept(candidates[rec.logged_accepts]));
            rec.logged_accepts += 1;
        }
        let believed = *self.pull.believed();
        if believed.key() != rec.logged_belief {
            rec.logged_belief = believed.key();
            rec.store.append(step, WalRecord::Believe(believed));
        }
        if !rec.logged_decided {
            if let Some(decided) = self.pull.decided() {
                rec.logged_decided = true;
                rec.store.append(step, WalRecord::Decide(*decided));
            }
        }
        rec.store.maybe_snapshot(step);
    }

    /// The node's current candidate list `L_x`.
    #[must_use]
    pub fn candidates(&self) -> &[GString] {
        self.push.candidates()
    }

    /// The node's current belief.
    #[must_use]
    pub fn believed(&self) -> &GString {
        self.pull.believed()
    }
}

impl Protocol for AerNode {
    type Msg = AerMsg;
    type Output = GString;

    fn on_start(&mut self, ctx: &mut Context<'_, AerMsg>) {
        // Push phase: diffuse the initial candidate to the nodes whose
        // push quorums we belong to.
        let own = *self.push.own_candidate();
        ctx.multicast(&self.targets, AerMsg::Push(own));
        // L_x starts as {s_x}: verify it immediately.
        self.pull.start_poll(own, ctx);
        self.sync_wal(ctx.step());
    }

    fn on_step(&mut self, ctx: &mut Context<'_, AerMsg>) {
        self.pull.on_step(ctx);
        self.sync_wal(ctx.step());
    }

    fn on_message(&mut self, from: NodeId, msg: AerMsg, ctx: &mut Context<'_, AerMsg>) {
        match msg {
            AerMsg::Push(s) => {
                if let Some(newly_accepted) = self.push.on_push(from, s) {
                    // Pull phase begins per candidate as soon as it is
                    // accepted.
                    self.pull.start_poll(newly_accepted, ctx);
                }
            }
            AerMsg::Poll(s, r) => self.pull.on_poll(from, s, r, ctx),
            AerMsg::Pull(s, r) => self.pull.on_pull(from, s, r, ctx),
            AerMsg::Fw1 { origin, s, r, w } => self.pull.on_fw1(from, origin, s, r, w, ctx),
            AerMsg::Fw2 { origin, s, r } => self.pull.on_fw2(from, origin, s, r, ctx),
            AerMsg::Answer(s) => self.pull.on_answer(from, s, ctx),
            AerMsg::RepairQuery(r) => self.pull.on_repair_query(from, r, ctx),
            AerMsg::RepairAnswer(s) => self.pull.on_repair_answer(from, s, ctx),
        }
        self.sync_wal(ctx.step());
    }

    /// The engine's one delivery call (a lone envelope is a part of one).
    /// An `Fw1` part is delivered once: the per-message gates of
    /// Algorithm 2's second handler run once for the part, the recipients
    /// only vote (`AerRunState::fw1_run`), and those whose vote crossed
    /// the majority relay the same `Fw2` to the same `w` as one fan-in
    /// ([`RunContext::fan_in`]). No WAL is synced: `fw1_run` writes only
    /// run cells, and every live recipient already ran `sync_wal` in this
    /// step's `on_start` / `on_step`. Every other payload takes the
    /// per-recipient loop.
    fn deliver_run(
        nodes: &mut [Option<Self>],
        from: NodeId,
        msg: &AerMsg,
        recipients: &[NodeId],
        run: &mut RunContext<'_, AerMsg>,
    ) {
        let AerMsg::Fw1 { origin, s, r, w } = *msg else {
            return deliver_each(nodes, from, msg, recipients, run);
        };
        // Every node of a run holds the same state; without a live
        // recipient there is nothing to deliver.
        let Some(any) = recipients.iter().find_map(|z| nodes[z.index()].as_ref()) else {
            return;
        };
        let mut relays = Vec::new();
        any.pull
            .state()
            .fw1_run(from, (origin, s, r, w), recipients, |z, _, _| {
                relays.push(z)
            });
        run.fan_in(&relays, w, AerMsg::Fw2 { origin, s, r });
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, AerMsg>) {
        // Without the checkpoint layer, fall through to the naive default:
        // resume on whatever in-memory state survived the simulated crash.
        let Some(rec) = self.recovery.as_ref() else {
            return;
        };
        let checkpoint = rec.store.restore();
        if checkpoint.accepted.is_empty() {
            // Crashed before the first sync (impossible under the engine's
            // step-1 window floor, but harmless): nothing durable to load.
            return;
        }
        self.push.restore_accepted(&checkpoint.accepted);
        self.pull.restore(&checkpoint, ctx);
        self.sync_wal(ctx.step());
    }

    fn output(&self) -> Option<GString> {
        self.pull.decided().cloned()
    }
}

/// Shared state of one AER deployment plus run helpers.
#[derive(Clone, Debug)]
pub struct AerHarness {
    cfg: AerConfig,
    scheme: QuorumScheme,
    poll: PollSampler,
    assignments: Vec<GString>,
    targets: Vec<Vec<NodeId>>,
    recovery: Option<RecoveryConfig>,
}

impl AerHarness {
    /// Builds the harness from a config and every node's initial
    /// candidate.
    ///
    /// # Panics
    ///
    /// Panics if `assignments.len() != cfg.n` or the config is invalid.
    #[must_use]
    pub fn new(cfg: AerConfig, assignments: Vec<GString>) -> Self {
        cfg.validate().expect("invalid AER config");
        assert_eq!(assignments.len(), cfg.n, "one candidate per node");
        let scheme = cfg.scheme();
        let poll = cfg.poll_sampler();
        let targets = push_targets(&scheme, &assignments);
        AerHarness {
            cfg,
            scheme,
            poll,
            assignments,
            targets,
            recovery: None,
        }
    }

    /// Enables the checkpoint/WAL layer on every node this harness
    /// builds (see [`AerNode::with_recovery`]). Runs that never crash
    /// are unaffected — checkpointing consumes no randomness and sends
    /// nothing — so this is safe to enable exactly when a crash plan is
    /// present.
    pub fn enable_recovery(&mut self, config: RecoveryConfig) {
        self.recovery = Some(config);
    }

    /// Convenience constructor from a synthetic or protocol-produced
    /// almost-everywhere [`Precondition`].
    #[must_use]
    pub fn from_precondition(cfg: AerConfig, pre: &Precondition) -> Self {
        Self::new(cfg, pre.assignments.clone())
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &AerConfig {
        &self.cfg
    }

    /// The shared quorum scheme (I and H).
    #[must_use]
    pub fn scheme(&self) -> QuorumScheme {
        self.scheme
    }

    /// The shared poll sampler (J).
    #[must_use]
    pub fn poll_sampler(&self) -> PollSampler {
        self.poll
    }

    /// Initial candidate of every node.
    #[must_use]
    pub fn assignments(&self) -> &[GString] {
        &self.assignments
    }

    fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy {
            poll_timeout: self.cfg.poll_timeout,
            repair_attempts: self.cfg.repair_attempts,
        }
    }

    /// Builds one run's worth of shared state (see [`AerRunState`]).
    /// Every run gets a fresh bundle so runs stay independent pure
    /// functions of `(config, seed)`.
    #[must_use]
    pub fn run_state(&self) -> AerRunState {
        AerRunState::new(self.scheme, self.poll)
    }

    /// Builds the state machine for node `id`, wired to the given shared
    /// run state. The factory behind every run entry point; public so
    /// callers that drive [`fba_sim::run_session`] themselves (the
    /// `benchmark/` package's instrumented pass) can build nodes against
    /// a state bundle they own.
    #[must_use]
    pub fn node_with(&self, id: NodeId, state: &AerRunState) -> AerNode {
        let own = self.assignments[id.index()];
        let node = AerNode {
            push: PushPhase::new(id, own, state),
            pull: PullPhase::new(id, own, state, self.cfg.overload_cap, self.retry_policy()),
            targets: self.targets[id.index()].clone(),
            recovery: None,
        };
        match self.recovery {
            Some(config) => node.with_recovery(config),
            None => node,
        }
    }

    /// Default synchronous engine configuration for this deployment:
    /// enough steps for the repair schedule to play out
    /// (see [`AerConfig::engine_sync`]).
    #[must_use]
    pub fn engine_sync(&self) -> EngineConfig {
        self.cfg.engine_sync()
    }

    /// Default asynchronous engine configuration (`max_delay` steps of
    /// adversarial delay; see [`AerConfig::engine_async`]).
    #[must_use]
    pub fn engine_async(&self, max_delay: Step) -> EngineConfig {
        self.cfg.engine_async(max_delay)
    }

    /// Runs one complete execution.
    pub fn run<A>(
        &self,
        engine: &EngineConfig,
        seed: u64,
        adversary: &mut A,
    ) -> RunOutcome<GString, AerMsg>
    where
        A: Adversary<AerMsg> + ?Sized,
    {
        let state = self.run_state();
        run::<AerNode, A, _>(engine, seed, adversary, |id| self.node_with(id, &state))
    }

    /// Runs one agreement instance over caller-owned persistent state —
    /// the service-mode entry point.
    ///
    /// Unlike [`AerHarness::run`], which builds a fresh [`AerRunState`]
    /// per call, this threads an external bundle (plus a
    /// reusable [`EngineSession`]) through the run so sampler caches and
    /// arenas survive instance boundaries. The per-instance reset
    /// ([`AerRunState::begin_instance`]) is applied here unconditionally —
    /// it is part of the run, not an optional caller step.
    ///
    /// `adversary_seed` decouples the corruption draw from the instance's
    /// master seed (see [`fba_sim::run_session`]): a service passes its
    /// service seed every instance so the coalition persists. The caller
    /// must build `state` from a harness with this harness's config — the
    /// sampler caches memoize the public samplers, so mixing configs would
    /// silently answer from the wrong distribution.
    #[allow(clippy::too_many_arguments)] // the full service-mode seam, mirrored by fba-scenario
    pub fn run_in_session<A, O>(
        &self,
        engine: &EngineConfig,
        seed: u64,
        adversary_seed: u64,
        adversary: &mut A,
        observer: &mut O,
        state: &AerRunState,
        session: &mut EngineSession<AerMsg>,
    ) -> RunOutcome<GString, AerMsg>
    where
        A: Adversary<AerMsg> + ?Sized,
        O: fba_sim::Observer<AerNode> + ?Sized,
    {
        state.begin_instance();
        fba_sim::run_session::<AerNode, A, _, O>(
            engine,
            seed,
            adversary_seed,
            adversary,
            |id| self.node_with(id, state),
            observer,
            session,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fba_ae::UnknowingAssignment;
    use fba_samplers::Label;
    use fba_sim::{Driver, Input, NoAdversary, TestStep};

    fn harness(n: usize, knowledge: f64, seed: u64) -> (AerHarness, Precondition) {
        let cfg = AerConfig::recommended(n);
        let pre = Precondition::synthetic(
            n,
            cfg.string_len,
            knowledge,
            UnknowingAssignment::RandomPerNode,
            seed,
        );
        (AerHarness::from_precondition(cfg, &pre), pre)
    }

    #[test]
    fn fault_free_run_decides_gstring_everywhere() {
        let (h, pre) = harness(64, 0.75, 1);
        let out = h.run(&h.engine_sync(), 1, &mut NoAdversary);
        assert!(
            out.all_decided(),
            "undecided nodes: {:?}",
            out.metrics.steps
        );
        assert_eq!(out.unanimous(), Some(&pre.gstring));
    }

    #[test]
    fn fault_free_run_is_constant_time_for_the_bulk() {
        // Lemma 9 shape: the overwhelming majority decides within a
        // handful of rounds; finite-size stragglers are mopped up by the
        // repair extension but stay rare.
        for n in [32, 64, 128] {
            let (h, _) = harness(n, 0.75, 3);
            let out = h.run(&h.engine_sync(), 3, &mut NoAdversary);
            assert!(out.all_decided(), "n={n}: not everyone decided");
            let fast = (0..n)
                .map(NodeId::from_index)
                .filter(|id| out.metrics.decided_at(*id).is_some_and(|s| s <= 8))
                .count();
            assert!(
                fast as f64 >= 0.9 * n as f64,
                "n={n}: only {fast}/{n} decided within 8 steps"
            );
        }
    }

    #[test]
    fn unknowing_nodes_learn_gstring() {
        let (h, pre) = harness(64, 0.7, 3);
        let out = h.run(&h.engine_sync(), 3, &mut NoAdversary);
        for (id, value) in &out.outputs {
            assert_eq!(value, &pre.gstring, "node {id} decided wrongly");
        }
        // Specifically check a node that started unknowing.
        let unknowing = (0..64)
            .map(NodeId::from_index)
            .find(|id| !pre.knows(*id))
            .expect("some node starts unknowing");
        assert_eq!(out.outputs[&unknowing], pre.gstring);
    }

    #[test]
    fn runs_replay_deterministically() {
        let (h, _) = harness(48, 0.75, 7);
        let a = h.run(&h.engine_sync(), 9, &mut NoAdversary);
        let b = h.run(&h.engine_sync(), 9, &mut NoAdversary);
        assert_eq!(a.all_decided_at, b.all_decided_at);
        assert_eq!(a.metrics.total_bits_sent(), b.metrics.total_bits_sent());
        assert_eq!(a.outputs, b.outputs);
    }

    #[test]
    fn node_accessors_reflect_initial_state() {
        let (h, pre) = harness(32, 0.8, 4);
        let id = NodeId::from_index(0);
        let node = h.node_with(id, &h.run_state());
        assert_eq!(node.candidates().len(), 1);
        assert_eq!(node.believed(), &pre.assignments[0]);
        assert_eq!(h.assignments().len(), 32);
        assert_eq!(h.config().n, 32);
    }

    #[test]
    #[should_panic(expected = "one candidate per node")]
    fn harness_rejects_wrong_assignment_count() {
        let cfg = AerConfig::recommended(32);
        let _ = AerHarness::new(cfg, vec![GString::zeroes(cfg.string_len)]);
    }

    #[test]
    fn crashed_nodes_recover_and_decide() {
        // The crash fault family end to end: a window knocks out 8 nodes
        // mid-run; with the checkpoint layer enabled they restore their
        // accepted/belief state, re-poll, state-sync via repair queries —
        // and the whole system still reaches unanimous agreement.
        let (mut h, pre) = harness(64, 0.75, 11);
        h.enable_recovery(fba_recovery::RecoveryConfig::default());
        let plan = "crash:[2..8]8"
            .parse::<fba_recovery::CrashSpec>()
            .unwrap()
            .resolve(64, 11)
            .unwrap();
        let mut engine = h.engine_sync();
        engine.crash = Some(plan.clone());
        let out = h.run(&engine, 11, &mut NoAdversary);
        assert!(out.all_decided(), "crashed nodes must reconverge");
        assert_eq!(out.unanimous(), Some(&pre.gstring));
        assert!(out.metrics.msgs_dropped() > 0, "the window really was dark");
        // Rejoin accounting sees every victim decided.
        let report = fba_recovery::rejoin_report(&plan, &out.metrics);
        assert!(report.all_rejoined());
        assert!(report.max_rejoin_steps().is_some());
    }

    #[test]
    fn restart_resyncs_from_the_checkpoint() {
        /// The node a row restarts. Every one starts holding `g`, then
        /// accepts `other` from a majority of `I(other, x)`.
        enum Restarted {
            /// Undecided, recovery on; `strict` turns repair off.
            Undecided { strict: bool },
            /// Decided on `other` by a majority of its poll list,
            /// recovery on.
            Decided,
            /// Undecided, no checkpoint layer.
            NoRecovery,
        }

        /// One multicast of the restart: what it carries, not its label.
        #[derive(Debug, PartialEq)]
        enum Sent {
            Poll(GString),
            Pull(GString),
            RepairQuery,
        }

        /// What the restart sent, as `(multicast, recipients)`, and the
        /// node after it.
        #[derive(Debug, PartialEq)]
        struct Outputs {
            sent: Vec<(Sent, usize)>,
            believed: GString,
            output: Option<GString>,
        }

        let (n, x) = (64, NodeId::from_index(5));
        let cfg = AerConfig::recommended(n);
        let d = cfg.d;
        let g = GString::zeroes(cfg.string_len);
        let mut bits = vec![false; cfg.string_len];
        bits[0] = true;
        let other = GString::from_bits(&bits);
        let table = [
            TestStep {
                desc: "restart: an undecided node re-polls every checkpointed candidate \
                       with a fresh Poll and Pull, asks one repair query and restores \
                       its belief",
                input: Restarted::Undecided { strict: false },
                expected_outputs: Outputs {
                    sent: vec![
                        (Sent::Poll(g), d),
                        (Sent::Pull(g), d),
                        (Sent::Poll(other), d),
                        (Sent::Pull(other), d),
                        (Sent::RepairQuery, d),
                    ],
                    believed: g,
                    output: None,
                },
            },
            TestStep {
                desc: "restart: in strict mode the node re-polls and asks no repair query",
                input: Restarted::Undecided { strict: true },
                expected_outputs: Outputs {
                    sent: vec![
                        (Sent::Poll(g), d),
                        (Sent::Pull(g), d),
                        (Sent::Poll(other), d),
                        (Sent::Pull(other), d),
                    ],
                    believed: g,
                    output: None,
                },
            },
            TestStep {
                desc: "restart: a decided node sends nothing and keeps its decision",
                input: Restarted::Decided,
                expected_outputs: Outputs {
                    sent: vec![],
                    believed: other,
                    output: Some(other),
                },
            },
            TestStep {
                desc: "restart: without the checkpoint layer the node resumes as it was",
                input: Restarted::NoRecovery,
                expected_outputs: Outputs {
                    sent: vec![],
                    believed: g,
                    output: None,
                },
            },
        ];
        for row in table {
            let (strict, recovery) = match row.input {
                Restarted::Undecided { strict } => (strict, true),
                Restarted::Decided => (false, true),
                Restarted::NoRecovery => (false, false),
            };
            let cfg = if strict { cfg.strict() } else { cfg };
            let mut h = AerHarness::new(cfg, vec![g; n]);
            if recovery {
                h.enable_recovery(RecoveryConfig::default());
            }
            let state = h.run_state();
            let mut d = Driver::new(n, 3, |id| (id == x).then(|| h.node_with(id, &state)));
            d.at(1).apply(x, Input::Start);
            let (push, hear) = (h.scheme().push, |from, msg| Input::Message { from, msg });
            let mut accepted = Vec::new();
            for &z in &push.quorum(other.key(), x)[..push.majority()] {
                accepted.extend(d.at(2).apply(x, hear(z, AerMsg::Push(other))));
            }
            if let Restarted::Decided = row.input {
                let r = accepted
                    .iter()
                    .find_map(|e| match e.msg {
                        AerMsg::Poll(_, r) => Some(r),
                        _ => None,
                    })
                    .expect("accepting other polls it");
                let poll = h.poll_sampler();
                for &w in &poll.poll_list(x, r)[..poll.majority()] {
                    d.at(3).apply(x, hear(w, AerMsg::Answer(other)));
                }
            }
            assert_eq!(d.node(x).candidates(), [g, other], "{}", row.desc);
            assert!(d.at(3).apply(x, Input::Crash).is_empty(), "{}", row.desc);
            d.at(4).apply(x, Input::Restart);
            let mut sent = Vec::new();
            d.outbox().for_each_part(|msg, to| {
                sent.push(match *msg {
                    AerMsg::Poll(s, _) => (Sent::Poll(s), to.len()),
                    AerMsg::Pull(s, _) => (Sent::Pull(s), to.len()),
                    AerMsg::RepairQuery(_) => (Sent::RepairQuery, to.len()),
                    ref msg => panic!("{}: a restart sent {msg:?}", row.desc),
                });
            });
            let outputs = Outputs {
                sent,
                believed: *d.node(x).believed(),
                output: d.node(x).output(),
            };
            assert_eq!(outputs, row.expected_outputs, "{}", row.desc);
        }
    }

    #[test]
    fn a_repair_decision_releases_what_waits_for_it() {
        /// One row's inputs to node `x`.
        enum Fed {
            /// `Poll(g)` from `origin`, then `Fw2(origin, g)` from every
            /// member of `H(g, x)`.
            Served(usize),
            /// `RepairQuery` from `origin`, over a list holding `x`.
            RepairQuery(usize),
            /// A tick at the poll timeout.
            Tick,
            /// `RepairAnswer(g)` from the first `k` members of the repair
            /// list `x` queried.
            RepairAnswers(usize),
        }

        /// What the row sent, by kind, and whether `x` has decided.
        #[derive(Debug, Default, PartialEq)]
        struct Outputs {
            /// Recipients of `Answer(g)`, in send order.
            answered: Vec<usize>,
            /// Recipients of `RepairAnswer(g)`, in send order.
            repaired: Vec<usize>,
            repair_queries: usize,
            decided: bool,
        }

        let (n, x) = (64, NodeId::from_index(5));
        let cfg = AerConfig::recommended(n).with_overload_cap(1);
        let (d, g) = (cfg.d, GString::zeroes(cfg.string_len));
        let h = AerHarness::new(cfg, vec![g; n]);
        let (scheme, poll) = (h.scheme(), h.poll_sampler());
        let majority = poll.majority();
        let state = h.run_state();
        let mut node = Driver::new(n, 3, |id| (id == x).then(|| h.node_with(id, &state)));
        node.at(1).apply(x, Input::Start);
        let holding_x = |origin: usize| {
            let origin = NodeId::from_index(origin);
            (0..poll.label_cardinality())
                .map(Label)
                .find(|&r| poll.contains(origin, r, x))
                .expect("a list holding x")
        };
        let hear = |from: NodeId, msg| Input::Message { from, msg };
        let table = [
            TestStep {
                desc: "Algorithm 3: below overload_cap a polled Fw2 majority is answered",
                input: Fed::Served(20),
                expected_outputs: Outputs {
                    answered: vec![20],
                    ..Outputs::default()
                },
            },
            TestStep {
                desc: "Lemma 6: at overload_cap a polled Fw2 majority parks",
                input: Fed::Served(21),
                expected_outputs: Outputs::default(),
            },
            TestStep {
                desc: "Deviations: an undecided node parks a repair query",
                input: Fed::RepairQuery(22),
                expected_outputs: Outputs::default(),
            },
            TestStep {
                desc: "Deviations: at poll_timeout the node asks a fresh J(x, r')",
                input: Fed::Tick,
                expected_outputs: Outputs {
                    repair_queries: d,
                    ..Outputs::default()
                },
            },
            TestStep {
                desc: "Deviations: reports from one short of a majority of J(x, r') \
                       do not decide",
                input: Fed::RepairAnswers(majority - 1),
                expected_outputs: Outputs::default(),
            },
            TestStep {
                desc: "Algorithm 3: a decision reached by repair releases the parked \
                       forwards, then answers the parked repair query",
                input: Fed::RepairAnswers(majority),
                expected_outputs: Outputs {
                    answered: vec![21],
                    repaired: vec![22],
                    repair_queries: 0,
                    decided: true,
                },
            },
        ];
        let (mut repair_list, step) = (Vec::new(), 1 + cfg.poll_timeout);
        for row in table {
            let sent = match row.input {
                Fed::Served(origin) => {
                    let (r, origin) = (holding_x(origin), NodeId::from_index(origin));
                    let mut sent = node.at(2).apply(x, hear(origin, AerMsg::Poll(g, r)));
                    for z in scheme.pull.quorum(g.key(), x) {
                        let fw2 = AerMsg::Fw2 { origin, s: g, r };
                        sent.extend(node.apply(x, hear(z, fw2)));
                    }
                    sent
                }
                Fed::RepairQuery(origin) => {
                    let query = AerMsg::RepairQuery(holding_x(origin));
                    node.at(2).apply(x, hear(NodeId::from_index(origin), query))
                }
                Fed::Tick => {
                    let sent = node.at(step).apply(x, Input::Tick);
                    repair_list = sent.iter().map(|e| e.to).collect();
                    sent
                }
                Fed::RepairAnswers(k) => {
                    let answer = |&w: &NodeId| hear(w, AerMsg::RepairAnswer(g));
                    let inputs: Vec<_> = repair_list[..k].iter().map(answer).collect();
                    let sent = inputs.into_iter().map(|i| node.at(step + 1).apply(x, i));
                    sent.flatten().collect()
                }
            };
            let to = |kind: &dyn Fn(&AerMsg) -> bool| {
                let sent = sent.iter().filter(|e| kind(&e.msg));
                sent.map(|e| e.to.index()).collect::<Vec<_>>()
            };
            let outputs = Outputs {
                answered: to(&|m| *m == AerMsg::Answer(g)),
                repaired: to(&|m| *m == AerMsg::RepairAnswer(g)),
                repair_queries: to(&|m| matches!(m, AerMsg::RepairQuery(_))).len(),
                decided: node.node(x).output() == Some(g),
            };
            assert_eq!(outputs, row.expected_outputs, "{}", row.desc);
        }
    }

    #[test]
    fn recovery_layer_is_inert_without_crashes() {
        // Checkpointing consumes no randomness and sends nothing, so a
        // recovery-enabled run with no crash plan is bit-identical to a
        // plain run.
        let (h, _) = harness(48, 0.75, 7);
        let plain = h.run(&h.engine_sync(), 9, &mut NoAdversary);
        let (mut hr, _) = harness(48, 0.75, 7);
        hr.enable_recovery(fba_recovery::RecoveryConfig::default());
        let checked = hr.run(&hr.engine_sync(), 9, &mut NoAdversary);
        assert_eq!(plain.outputs, checked.outputs);
        assert_eq!(plain.all_decided_at, checked.all_decided_at);
        assert_eq!(plain.metrics, checked.metrics);
    }

    #[test]
    fn crashed_runs_replay_deterministically() {
        let (mut h, _) = harness(64, 0.75, 13);
        h.enable_recovery(fba_recovery::RecoveryConfig { cadence: 4 });
        let plan = "crash:[1..4]4;[6..9]4"
            .parse::<fba_recovery::CrashSpec>()
            .unwrap()
            .resolve(64, 13)
            .unwrap();
        let mut engine = h.engine_sync();
        engine.crash = Some(plan);
        let a = h.run(&engine, 13, &mut NoAdversary);
        let b = h.run(&engine, 13, &mut NoAdversary);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.all_decided_at, b.all_decided_at);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn a_node_that_turns_corrupt_between_instances_stops_voting() {
        // Two instances over one AerRunState whose coalitions differ, so a
        // node correct (and believing gstring) in the first is played by
        // the adversary in the second. An `Fw1` run lets whoever has a
        // belief entry vote without looking at the node table: only the
        // per-instance reset of that table keeps the turned node out.
        let (h, _) = harness(48, 0.75, 5);
        let engine = h.engine_sync();
        let instance = |adversary_seed, state: &AerRunState| {
            let mut adv = fba_sim::SilentAdversary::new(6);
            h.run_in_session(
                &engine,
                11,
                adversary_seed,
                &mut adv,
                &mut fba_sim::NullObserver,
                state,
                &mut EngineSession::new(1),
            )
        };
        let (reused, fresh) = (h.run_state(), h.run_state());
        let first = instance(77, &reused);
        let second = instance(78, &reused);
        let replay = instance(78, &fresh);
        let turned = second.corrupt.difference(&first.corrupt).count();
        assert!(turned > 0, "the coalitions must differ");
        assert_eq!(second.corrupt, replay.corrupt);
        assert_eq!(second.outputs, replay.outputs);
        assert_eq!(second.all_decided_at, replay.all_decided_at);
        assert_eq!(
            second.metrics.total_bits_sent(),
            replay.metrics.total_bits_sent()
        );
        assert_eq!(reused.fw1_row_count(), fresh.fw1_row_count());
    }

    #[test]
    fn chained_instances_over_shared_state_match_fresh_runs() {
        // The service-mode contract at the harness layer: running the
        // *same* deployment repeatedly over one persistent AerRunState and
        // EngineSession — identical workloads, so every quorum slot and
        // vote mask from instance k-1 recurs in instance k — must be
        // bit-identical to fresh-state runs. This only holds because
        // run_in_session resets the vote arena per instance.
        let (h, _) = harness(48, 0.75, 5);
        let state = h.run_state();
        let mut session = EngineSession::new(1);
        let engine = h.engine_sync();
        for seed in [5u64, 11, 5] {
            let mut adv = fba_sim::SilentAdversary::new(4);
            let chained = h.run_in_session(
                &engine,
                seed,
                77,
                &mut adv,
                &mut fba_sim::NullObserver,
                &state,
                &mut session,
            );
            let fresh_state = h.run_state();
            let mut fresh_session = EngineSession::new(1);
            let mut adv2 = fba_sim::SilentAdversary::new(4);
            let fresh = h.run_in_session(
                &engine,
                seed,
                77,
                &mut adv2,
                &mut fba_sim::NullObserver,
                &fresh_state,
                &mut fresh_session,
            );
            assert_eq!(chained.corrupt, fresh.corrupt);
            assert_eq!(chained.outputs, fresh.outputs);
            assert_eq!(chained.all_decided_at, fresh.all_decided_at);
            assert_eq!(
                chained.metrics.total_bits_sent(),
                fresh.metrics.total_bits_sent()
            );
        }
        // The vote rows are decision state and go at the next instance
        // boundary.
        assert!(state.fw1_row_count() > 0);
        state.begin_instance();
        assert_eq!(state.fw1_row_count(), 0);
        // The persistent caches really were hit across instances: the
        // third run's lookups must not all be misses.
        let (hits, misses) = state.poll_cache_stats();
        assert!(
            hits > misses,
            "poll cache reuse: {hits} hits, {misses} misses"
        );
    }
}
