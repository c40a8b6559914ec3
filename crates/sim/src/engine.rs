//! The deterministic discrete-event execution engine.
//!
//! One engine serves both of the paper's timing models:
//!
//! * **Synchronous** (`max_delay = 1`): a message sent during step `r` is
//!   delivered during step `r + 1`, deliveries are processed in send order.
//! * **Asynchronous** (`max_delay ≥ 1` plus an adversary that overrides
//!   [`Adversary::delay`] / [`Adversary::priority`]): the adversary picks
//!   per-message delays (clamped, so delivery stays reliable) and reorders
//!   deliveries within a step. Normalized asynchronous time is then the
//!   step counter.
//!
//! Executions are pure functions of `(config, master_seed, adversary,
//! protocol factory)`: every collection iterated is ordered and every random
//! draw comes from seed-derived ChaCha streams.

use std::collections::{BTreeMap, BTreeSet};

use rand_chacha::ChaCha12Rng;

use crate::adversary::{Adversary, Outbox};
use crate::calendar::CalendarQueue;
use crate::crash::CrashPlan;
use crate::ids::{ceil_log2, NodeId, Step};
use crate::message::{Batch, Delivery, Envelope, FanIn, Runs, WireSize};
use crate::metrics::Metrics;
use crate::observer::{NullObserver, Observer};
use crate::protocol::{Context, Protocol, RunContext};
use crate::rng::{derive_rng, node_rng, TAG_ADVERSARY};

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// System size `n`.
    pub n: usize,
    /// Hard cap on executed steps; runs that exceed it report undecided
    /// nodes rather than looping forever.
    pub max_steps: Step,
    /// Maximum delivery delay the adversary may impose (`1` = synchronous
    /// timing). Reliability: every message is delivered within `max_delay`
    /// steps of being sent.
    pub max_delay: Step,
    /// After all correct nodes have decided, keep delivering pending
    /// messages (and any correct responses to them) for up to this many
    /// extra steps, so post-decision service traffic is counted. The
    /// adversary no longer acts during draining.
    pub drain_steps: Step,
    /// Record every envelope sent, for trace-style experiments (Fig. 2a/2b).
    /// Costs memory; leave off for sweeps.
    pub record_transcript: bool,
    /// Crash–restart outage plan. `None` (the default) and an empty plan
    /// are the same no-fault fast path and execute bit-identically; with
    /// outages present, the named nodes go dark over their windows (see
    /// [`CrashPlan`] and the crate-level determinism contract).
    pub crash: Option<CrashPlan>,
}

impl EngineConfig {
    /// A synchronous configuration with sensible defaults for system size
    /// `n`: `max_delay = 1`, generous step cap, short drain.
    #[must_use]
    pub fn sync(n: usize) -> Self {
        EngineConfig {
            n,
            max_steps: 10_000,
            max_delay: 1,
            drain_steps: 64,
            record_transcript: false,
            crash: None,
        }
    }

    /// An asynchronous configuration: the adversary may delay messages up
    /// to `max_delay` steps and reorder within steps.
    #[must_use]
    pub fn asynchronous(n: usize, max_delay: Step) -> Self {
        EngineConfig {
            max_delay: max_delay.max(1),
            ..EngineConfig::sync(n)
        }
    }

    /// Per-message header bits: `2·⌈log₂ n⌉` (sender + recipient
    /// identity).
    #[must_use]
    pub fn effective_header_bits(&self) -> u64 {
        2 * u64::from(ceil_log2(self.n))
    }
}

/// Reusable engine scratch state: the pending-delivery calendar plus every
/// per-step buffer of the run loop.
///
/// One-shot entry points ([`run`], [`run_observed`]) construct a fresh
/// session internally. Service (chained agreement) runs construct one
/// session and thread it through consecutive [`run_session`] calls so the
/// calendar ring and the send/delivery/batch buffers keep their
/// allocations across instance boundaries. Reuse is outcome-invariant:
/// every buffer is emptied at the start of a run (capacity is invisible to
/// protocol logic) and the calendar starts a fresh epoch via
/// [`CalendarQueue::reset`].
///
/// A session is not `Send`: the part runs it holds share recipient lists
/// by `Rc` (see [`Runs`]), and a run executes on one thread.
#[derive(Debug)]
pub struct EngineSession<M> {
    pending: CalendarQueue<Delivery<M>>,
    sends: Vec<Delivery<M>>,
    /// What the running callback — or the open recipient of a run — has
    /// sent; empty between callbacks.
    pub(crate) outbox_buf: Runs<M>,
    due: Vec<Delivery<M>>,
    /// The `(delay, priority)` of every envelope of `flat` on a step whose
    /// schedule is not uniform; empty otherwise (see `consult_schedule`).
    sched_buf: Vec<(Step, i64)>,
    /// The step's per-envelope view, in send order (see `flatten`).
    flat: Vec<Envelope<M>>,
    /// Storage of delivered batches, for the next outboxes.
    pool: Vec<Runs<M>>,
    /// Scratch of one [`Protocol::deliver_run`] call: the run's recipient
    /// list minus its dark members.
    run_live: Vec<NodeId>,
}

impl<M> EngineSession<M> {
    /// Creates an empty session for delivery delays up to `max_delay`.
    /// The horizon is adjusted automatically by each run, so the argument
    /// only pre-sizes the calendar ring.
    ///
    /// # Panics
    ///
    /// Panics if `max_delay == 0`.
    #[must_use]
    pub fn new(max_delay: Step) -> Self {
        EngineSession {
            pending: CalendarQueue::new(max_delay),
            sends: Vec::new(),
            outbox_buf: Runs::new(),
            due: Vec::new(),
            sched_buf: Vec::new(),
            flat: Vec::new(),
            pool: Vec::new(),
            run_live: Vec::new(),
        }
    }

    /// Empties every buffer (keeping capacity) and restarts the calendar
    /// epoch for a run with the given delay horizon.
    fn begin(&mut self, max_delay: Step) {
        self.pending.reset(max_delay);
        self.sends.clear();
        self.due.clear();
        self.sched_buf.clear();
        self.flat.clear();
        // `pool` storage is cleared on reuse by `Runs::recycled`; every
        // callback and every `deliver_run` leaves `outbox_buf` and
        // `run_live` empty.
    }
}

impl<M> Default for EngineSession<M> {
    fn default() -> Self {
        EngineSession::new(1)
    }
}

/// The send side: what a callback, or one recipient of a run, sent moves
/// into the step's send list here, counted as it goes.
impl<M: WireSize> EngineSession<M> {
    /// Ships `outbox_buf`, what `from` sent in one callback, recording
    /// each logical message in `metrics`: a lone message ships as an
    /// envelope; two or more ship as one [`Batch`] that *is* the outbox —
    /// the runs the callback wrote, as it wrote them — and the next
    /// callback writes into storage recycled from the pool. Kept out of
    /// line: inlined into every `callback` instantiation it measured a
    /// few percent slower on `benchmark/`'s service, crash and async
    /// workloads (CHANGES.md has the measurement).
    #[inline(never)]
    pub(crate) fn ship(
        &mut self,
        from: NodeId,
        sent_at: Step,
        header_bits: u64,
        metrics: &mut Metrics,
    ) {
        if self.outbox_buf.len() < 2 {
            if let Some((to, msg)) = self.outbox_buf.take_single() {
                metrics.record_send(from, header_bits + msg.wire_bits());
                self.sends.push(Delivery::One(Envelope {
                    from,
                    to,
                    sent_at,
                    msg,
                }));
            }
            return;
        }
        let spare = Runs::recycled(&mut self.pool);
        let body = Box::new(std::mem::replace(&mut self.outbox_buf, spare));
        body.for_each_part(|msg, recipients| {
            metrics.record_send_run(from, recipients.len() as u64, header_bits + msg.wire_bits());
        });
        self.sends.push(Delivery::Batch(Batch {
            from,
            sent_at,
            body,
        }));
    }

    /// Ships one fan-in, recording one message per sender.
    pub(crate) fn ship_fan_in(&mut self, fan: FanIn<M>, header_bits: u64, metrics: &mut Metrics) {
        let bits = header_bits + fan.msg.wire_bits();
        for &from in fan.from.iter() {
            metrics.record_send(from, bits);
        }
        self.sends.push(Delivery::FanIn(Box::new(fan)));
    }
}

/// The step's send view and its schedule: `sends` is materialised per
/// envelope at most once a step, and the calendar is handed whole
/// deliveries whatever the adversary answered.
impl<M: Clone> EngineSession<M> {
    /// Rebuilds `flat`, the per-envelope view of the step's sends in
    /// logical send order — what rushing adversaries, schedulers,
    /// observers and the transcript are shown. Runs at most once a step:
    /// whoever sends after it appends to `flat` as well.
    fn flatten(&mut self) {
        let flat = &mut self.flat;
        flat.clear();
        for delivery in self.sends.iter() {
            flat.reserve(delivery.len());
            delivery.for_each_envelope(|env| flat.push(env));
        }
    }

    /// Consults a scheduling adversary for every logical envelope of
    /// `flat`, in send order: delay (clamped to `[1, max_delay]`) then
    /// priority. Returns `Some(delay)` when every envelope got the same
    /// delay at priority 0 — the bulk-lane fast path, which leaves
    /// `sched_buf` empty — and `None` otherwise, with one `sched_buf`
    /// entry per envelope: nothing is written before the first envelope
    /// that deviates, which backfills the uniform prefix.
    fn consult_schedule<A: Adversary<M> + ?Sized>(
        &mut self,
        adversary: &mut A,
        max_delay: Step,
    ) -> Option<Step> {
        let sched = &mut self.sched_buf;
        sched.clear();
        let mut first = (1, 0);
        for (i, env) in self.flat.iter().enumerate() {
            let delay = adversary.delay(env).clamp(1, max_delay);
            let key = (delay, adversary.priority(env));
            if i == 0 {
                first = key;
            }
            if sched.is_empty() {
                if key == first && key.1 == 0 {
                    continue;
                }
                sched.resize(i, first);
            }
            sched.push(key);
        }
        sched.is_empty().then_some(first.0)
    }

    /// Moves the step's sends into the pending-delivery calendar, leaving
    /// the send list empty. With a uniform schedule (`Some(delay)`, the
    /// common case) one vector swap moves the whole step into the ring
    /// slot. Otherwise the sends are walked against `sched_buf` (as
    /// filled by `consult_schedule`) and keyed delivery by delivery: an
    /// envelope, a batch or a fan-in whose envelopes share one `(delay,
    /// priority)` is scheduled as it is, a mixed one envelope by envelope
    /// — the reference order, `(due, priority, send sequence)` per
    /// envelope. (No shipped strategy mixes a batch: counted over
    /// `bad-string`, `corner` and a schedule of both under `async:2` /
    /// `async:3` at n = 256 and 512, a run keyed 288 … 7 197 whole batches
    /// and no mixed one; the differential suites' toy adversaries do mix.)
    fn commit_schedule(&mut self, step: Step, uniform: Option<Step>) {
        let EngineSession {
            pending,
            sends,
            sched_buf,
            pool,
            ..
        } = self;
        if let Some(delay) = uniform {
            if !sends.is_empty() {
                pending.schedule_bulk(step, delay, sends);
            }
            return;
        }
        let mut keys = &sched_buf[..];
        for delivery in sends.drain(..) {
            let (own, rest) = keys.split_at(delivery.len());
            keys = rest;
            if own.iter().all(|key| *key == own[0]) {
                let (delay, priority) = own[0];
                pending.schedule(step, delay, priority, delivery);
                continue;
            }
            let mut own = own.iter();
            delivery.for_each_envelope(|env| {
                if let Some(&(delay, priority)) = own.next() {
                    pending.schedule(step, delay, priority, Delivery::One(env));
                }
            });
            if let Delivery::Batch(batch) = delivery {
                pool.push(*batch.body);
            }
        }
    }
}

/// Everything a finished run exposes.
#[derive(Clone, Debug)]
pub struct RunOutcome<O, M> {
    /// Communication/time accounting.
    pub metrics: Metrics,
    /// Output of every correct node that decided.
    pub outputs: BTreeMap<NodeId, O>,
    /// The corrupt set the adversary chose.
    pub corrupt: BTreeSet<NodeId>,
    /// Step at which the last correct node decided (the paper's time
    /// metric; `Some(0)` when no node is correct), or `None` if some
    /// correct node never decided.
    pub all_decided_at: Option<Step>,
    /// Whether the network fully quiesced before the step cap.
    pub quiescent: bool,
    /// Every envelope sent, if `record_transcript` was set.
    pub transcript: Vec<Envelope<M>>,
}

impl<O: Clone + Eq, M> RunOutcome<O, M> {
    /// Whether every correct node decided.
    #[must_use]
    pub fn all_decided(&self) -> bool {
        self.all_decided_at.is_some()
    }

    /// Whether every correct node that decided output the same value, and
    /// at least one decided. The core agreement check used by tests.
    #[must_use]
    pub fn unanimous(&self) -> Option<&O> {
        let mut iter = self.outputs.values();
        let first = iter.next()?;
        for v in iter {
            if v != first {
                return None;
            }
        }
        Some(first)
    }
}

/// Runs a protocol to completion under the given adversary.
///
/// `factory(id)` builds the state machine for each *correct* node; corrupt
/// nodes are played by `adversary`. See the crate docs for the step
/// structure.
///
/// # Panics
///
/// Panics if the adversary corrupts an out-of-range node id, or on internal
/// invariant violations (which indicate bugs, not run conditions).
pub fn run<P, A, F>(
    cfg: &EngineConfig,
    master_seed: u64,
    adversary: &mut A,
    factory: F,
) -> RunOutcome<P::Output, P::Msg>
where
    P: Protocol,
    A: Adversary<P::Msg> + ?Sized,
    F: FnMut(NodeId) -> P,
{
    run_observed(cfg, master_seed, adversary, factory, &mut NullObserver)
}

/// Like [`run`], but drives a read-only [`Observer`] alongside the
/// execution: per-step send views, per-decision events, and final node
/// states (see the [`crate::observer`] module docs). Observers cannot
/// influence the run, so for any observer the returned outcome is
/// bit-identical to [`run`] with the same inputs.
///
/// # Panics
///
/// Same conditions as [`run`].
pub fn run_observed<P, A, F, O>(
    cfg: &EngineConfig,
    master_seed: u64,
    adversary: &mut A,
    factory: F,
    observer: &mut O,
) -> RunOutcome<P::Output, P::Msg>
where
    P: Protocol,
    A: Adversary<P::Msg> + ?Sized,
    F: FnMut(NodeId) -> P,
    O: Observer<P> + ?Sized,
{
    let mut session = EngineSession::new(cfg.max_delay.max(1));
    run_session(
        cfg,
        master_seed,
        master_seed,
        adversary,
        factory,
        observer,
        &mut session,
    )
}

/// The fully general engine entry point: like [`run_observed`], but with
/// the adversary's corruption draw decoupled from the run's master seed
/// and the scratch state supplied by the caller.
///
/// * `adversary_seed` seeds the RNG handed to [`Adversary::corrupt`].
///   Passing `master_seed` (what every one-shot entry point does)
///   reproduces [`run_observed`] exactly. Service runs pass the *service*
///   seed for every instance so the same non-adaptive coalition persists
///   while node randomness and workloads vary per instance.
/// * `session` provides the calendar and per-step buffers; reusing one
///   session across runs keeps allocations warm and is bit-identical to
///   fresh construction (see [`EngineSession`]).
///
/// # Panics
///
/// Same conditions as [`run`].
pub fn run_session<P, A, F, O>(
    cfg: &EngineConfig,
    master_seed: u64,
    adversary_seed: u64,
    adversary: &mut A,
    mut factory: F,
    observer: &mut O,
    session: &mut EngineSession<P::Msg>,
) -> RunOutcome<P::Output, P::Msg>
where
    P: Protocol,
    A: Adversary<P::Msg> + ?Sized,
    F: FnMut(NodeId) -> P,
    O: Observer<P> + ?Sized,
{
    let n = cfg.n;
    let mut adv_rng: ChaCha12Rng = derive_rng(adversary_seed, &[TAG_ADVERSARY]);
    let corrupt = adversary.corrupt(n, &mut adv_rng);
    assert!(
        corrupt.iter().all(|id| id.index() < n),
        "adversary corrupted out-of-range node"
    );
    // Crash–restart plan: `None` and an empty plan are the same no-fault
    // fast path. Every dark-window check is gated on `has_crash`, so
    // fault-free runs execute the exact baseline instruction sequence
    // (the bit-identity pin in `tests/scenario_equivalence.rs`).
    let crash_plan = cfg.crash.as_ref().filter(|p| !p.is_empty());
    if let Some(plan) = crash_plan {
        assert!(
            plan.max_node_index().is_none_or(|i| i < n),
            "crash plan names out-of-range node"
        );
    }
    let max_delay = cfg.max_delay.max(1);
    session.begin(max_delay);
    // Corrupt nodes have no state machine and count as "decided" for the
    // stop condition.
    let mut st = StepState {
        n,
        header_bits: cfg.effective_header_bits(),
        max_delay,
        has_crash: crash_plan.is_some(),
        rushing: adversary.rushing(),
        consults: adversary.schedules(),
        observes: adversary.observes(),
        step_view: observer.wants_step_sends(),
        record_transcript: cfg.record_transcript,
        step: 0,
        nodes: (0..n)
            .map(NodeId::from_index)
            .map(|id| (!corrupt.contains(&id)).then(|| factory(id)))
            .collect(),
        rngs: (0..n).map(|i| node_rng(master_seed, i)).collect(),
        metrics: Metrics::new(n, &corrupt),
        outputs: BTreeMap::new(),
        decided: (0..n)
            .map(|i| corrupt.contains(&NodeId::from_index(i)))
            .collect(),
        dark: vec![false; if crash_plan.is_some() { n } else { 0 }],
        undecided: n - corrupt.len(),
        all_decided_at: None,
        transcript: Vec::new(),
        corrupt,
        session,
    };

    let mut quiescent = false;
    loop {
        st.crash_transitions(crash_plan);
        st.step_callbacks();
        st.deliver_due();
        st.adversary_turn(adversary);
        st.schedule_sends(adversary, observer);
        st.track_decisions(observer);

        st.metrics.steps = st.step;
        if let Some(drain_started_at) = st.all_decided_at {
            if st.session.pending.is_empty() {
                quiescent = true;
                break;
            }
            if st.step >= drain_started_at + cfg.drain_steps {
                break;
            }
        }
        if st.step >= cfg.max_steps {
            break;
        }
        st.step += 1;
    }

    for (i, node) in st.nodes.iter().enumerate() {
        if let Some(node) = node {
            observer.on_final(NodeId::from_index(i), node);
        }
    }
    RunOutcome {
        metrics: st.metrics,
        outputs: st.outputs,
        corrupt: st.corrupt,
        all_decided_at: st.all_decided_at,
        quiescent,
        transcript: st.transcript,
    }
}

/// Everything one run's step loop reads and writes: the per-run scalars,
/// the node table with its per-node RNG streams, the accounting, and the
/// session's calendar and scratch buffers. Each method is one stage of a
/// step (see the crate docs); [`run_session`] calls them in order.
struct StepState<'s, P: Protocol> {
    n: usize,
    header_bits: u64,
    max_delay: Step,
    has_crash: bool,
    rushing: bool,
    consults: bool,
    observes: bool,
    step_view: bool,
    record_transcript: bool,
    step: Step,
    /// `None` for corrupt nodes — the adversary plays them.
    nodes: Vec<Option<P>>,
    rngs: Vec<ChaCha12Rng>,
    corrupt: BTreeSet<NodeId>,
    metrics: Metrics,
    outputs: BTreeMap<NodeId, P::Output>,
    decided: Vec<bool>,
    /// Who is inside a crash window; empty unless `has_crash`.
    dark: Vec<bool>,
    undecided: usize,
    /// Set once; from the next step on the run is *draining* (deliveries
    /// continue, the adversary no longer acts or schedules).
    all_decided_at: Option<Step>,
    transcript: Vec<Envelope<P::Msg>>,
    /// The calendar and the step's scratch buffers: `sends` is the current
    /// step's sends, in send order, until `commit_schedule` moves them
    /// into `pending`; `flat` is their per-envelope view, materialised
    /// once, and only when someone needs it (rushing view, scheduling
    /// consult, observe, observer step view, transcript).
    session: &'s mut EngineSession<P::Msg>,
}

impl<P: Protocol> StepState<'_, P> {
    fn draining(&self) -> bool {
        self.all_decided_at.is_some()
    }

    fn is_dark(&self, id: NodeId) -> bool {
        self.has_crash && self.dark[id.index()]
    }

    /// Runs one protocol callback of correct node `id` against a fresh
    /// [`Context`] and ships whatever it sent into the step's send list.
    /// No-op for corrupt nodes.
    fn callback(&mut self, id: NodeId, f: impl FnOnce(&mut P, &mut Context<'_, P::Msg>)) {
        let i = id.index();
        let Some(node) = self.nodes[i].as_mut() else {
            return;
        };
        let mut ctx = Context::new(
            id,
            self.n,
            self.step,
            &mut self.rngs[i],
            &mut self.session.outbox_buf,
        );
        f(node, &mut ctx);
        if !self.session.outbox_buf.is_empty() {
            self.session
                .ship(id, self.step, self.header_bits, &mut self.metrics);
        }
    }

    /// Stage 1 (crash plans only). Restarts first: a restarting node gets
    /// `on_restart` with a context (it may send catch-up traffic
    /// immediately) and then the step's regular callback like everyone
    /// else. New crashes second: their nodes miss everything from this
    /// step until restart. Crashing a corrupt node is a no-op — the
    /// adversary already plays it.
    fn crash_transitions(&mut self, plan: Option<&CrashPlan>) {
        for (start, end, nodes) in plan.into_iter().flat_map(CrashPlan::outages) {
            if end == self.step {
                for &id in nodes {
                    if self.dark[id.index()] {
                        self.dark[id.index()] = false;
                        self.callback(id, |node, ctx| node.on_restart(ctx));
                    }
                }
            }
            if start == self.step {
                for &id in nodes {
                    if let Some(node) = self.nodes[id.index()].as_mut() {
                        self.dark[id.index()] = true;
                        node.on_crash(self.step);
                    }
                }
            }
        }
    }

    /// Stage 2: `on_start` at step 0, `on_step` later, in node order.
    fn step_callbacks(&mut self) {
        let first = self.step == 0;
        for id in (0..self.n).map(NodeId::from_index) {
            if !self.is_dark(id) {
                self.callback(id, |node, ctx| {
                    if first {
                        node.on_start(ctx);
                    } else {
                        node.on_step(ctx);
                    }
                });
            }
        }
    }

    /// Stage 3: the deliveries due this step, in calendar order; a batch
    /// is delivered run by run — a part run part by part — in send order.
    /// Anything to or from a dark node is dropped and counted. Deliveries
    /// to corrupt nodes are counted as received and reach the adversary
    /// through `observe`, which sees every envelope anyway.
    fn deliver_due(&mut self) {
        self.session
            .pending
            .drain_due(self.step, &mut self.session.due);
        let mut due = std::mem::take(&mut self.session.due);
        for delivery in due.drain(..) {
            match delivery {
                Delivery::One(env) => {
                    if self.is_dark(env.from) || self.is_dark(env.to) {
                        self.metrics.record_dropped(1);
                        continue;
                    }
                    self.metrics
                        .record_recv(env.to, env.total_bits(self.header_bits));
                    self.callback(env.to, |node, ctx| node.on_message(env.from, env.msg, ctx));
                }
                Delivery::Batch(batch) => {
                    let from = batch.from;
                    if self.is_dark(from) {
                        self.metrics.record_dropped(batch.body.len() as u64);
                    } else {
                        batch.body.for_each_part(|msg, recipients| {
                            self.deliver_run(from, msg, recipients)
                        });
                    }
                    self.session.pool.push(*batch.body);
                }
                Delivery::FanIn(fan) => self.deliver_fan_in(*fan),
            }
        }
        self.session.due = due;
    }

    /// A due fan-in, sender by sender: each envelope is dropped if its
    /// sender or the recipient is dark, and otherwise received and handed
    /// to [`Protocol::on_message`] with a clone of the payload — the
    /// per-envelope deliveries it stands for.
    fn deliver_fan_in(&mut self, fan: FanIn<P::Msg>) {
        let bits = self.header_bits + fan.msg.wire_bits();
        for &from in fan.from.iter() {
            if self.is_dark(from) || self.is_dark(fan.to) {
                self.metrics.record_dropped(1);
                continue;
            }
            self.metrics.record_recv(fan.to, bits);
            let msg = fan.msg.clone();
            self.callback(fan.to, |node, ctx| node.on_message(from, msg, ctx));
        }
    }

    /// One run of a due batch, or one part of a part run with its payload
    /// built: drops (and counts) the dark recipients, records the receipt
    /// of the others, and hands them to [`Protocol::deliver_run`] in one
    /// call. Its [`RunContext`] ships each recipient's outbox as a
    /// callback's is shipped, as that recipient's context closes.
    fn deliver_run(&mut self, from: NodeId, msg: &P::Msg, recipients: &[NodeId]) {
        let mut live = std::mem::take(&mut self.session.run_live);
        let recipients = if recipients.iter().any(|&to| self.is_dark(to)) {
            live.extend(recipients.iter().filter(|&&to| !self.dark[to.index()]));
            self.metrics
                .record_dropped((recipients.len() - live.len()) as u64);
            &live[..]
        } else {
            recipients
        };
        let bits = self.header_bits + msg.wire_bits();
        for &to in recipients {
            self.metrics.record_recv(to, bits);
        }
        let mut run = RunContext::new(
            self.n,
            self.step,
            self.header_bits,
            &mut self.rngs,
            self.session,
            &mut self.metrics,
        );
        P::deliver_run(&mut self.nodes, from, msg, recipients, &mut run);
        run.finish();
        live.clear();
        self.session.run_live = live;
    }

    /// Stage 4 (skipped while draining): the adversary's turn — full
    /// information, and a rushing adversary sees this step's correct
    /// sends. The view built for it stays the step's view: the
    /// adversary's own sends are appended to it as they join the send
    /// list. Those stay un-batched: they may mix senders, and every
    /// current strategy emits few enough for framing not to matter.
    fn adversary_turn<A: Adversary<P::Msg> + ?Sized>(&mut self, adversary: &mut A) {
        if self.draining() {
            return;
        }
        if self.rushing {
            self.session.flatten();
        }
        let mut out = Outbox::new(&self.corrupt, self.n);
        adversary.act(
            self.step,
            self.rushing.then_some(&self.session.flat[..]),
            &mut out,
        );
        for (from, to, msg) in out.into_sends() {
            self.metrics
                .record_send(from, self.header_bits + msg.wire_bits());
            let env = Envelope {
                from,
                to,
                sent_at: self.step,
                msg,
            };
            if self.rushing {
                self.session.flat.push(env.clone());
            }
            self.session.sends.push(Delivery::One(env));
        }
    }

    /// Stage 5: schedule every send of this step. A scheduling adversary
    /// is consulted (delay then priority, per logical envelope, in send
    /// order; not while draining) and then observes the step before
    /// anything moves into the queue, so the call order visible to
    /// stateful adversaries is the reference engine's. Consult, observe,
    /// observer and transcript all read the one per-envelope view of the
    /// step — the rushing adversary's, when its turn built one.
    fn schedule_sends<A, O>(&mut self, adversary: &mut A, observer: &mut O)
    where
        A: Adversary<P::Msg> + ?Sized,
        O: Observer<P> + ?Sized,
    {
        let consult = self.consults && !self.draining();
        // Stage 4 built the view for a rushing adversary and kept it current.
        let viewed = self.rushing && !self.draining();
        if !viewed && (consult || self.observes || self.step_view || self.record_transcript) {
            self.session.flatten();
        }
        let uniform = if consult {
            self.session.consult_schedule(adversary, self.max_delay)
        } else {
            Some(1)
        };
        if self.observes {
            adversary.observe(self.step, &self.session.flat);
        }
        if self.step_view {
            observer.on_step(self.step, &self.session.flat);
        }
        if self.record_transcript {
            self.transcript.extend(self.session.flat.iter().cloned());
        }
        self.session.commit_schedule(self.step, uniform);
    }

    /// Stage 6: record the nodes that produced an output this step. A
    /// run with no correct node has nobody to wait for and is decided at
    /// step 0.
    fn track_decisions<O: Observer<P> + ?Sized>(&mut self, observer: &mut O) {
        if self.all_decided_at.is_some() {
            return;
        }
        for id in (0..self.n).map(NodeId::from_index) {
            let i = id.index();
            if self.decided[i] || self.is_dark(id) {
                continue;
            }
            if let Some(out) = self.nodes[i].as_ref().and_then(P::output) {
                self.decided[i] = true;
                self.undecided -= 1;
                self.metrics.record_decision(id, self.step);
                observer.on_decision(id, self.step, &out);
                self.outputs.insert(id, out);
            }
        }
        if self.undecided == 0 {
            self.all_decided_at = Some(self.step);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::adversary::{NoAdversary, SilentAdversary};
    use crate::message::tests::{ids, shape};
    use crate::observer::FinalInspect;
    use crate::window::Window;

    /// Every node sends a ping to the next node at start; a node decides
    /// once it has received a ping. Purely for engine semantics tests.
    struct Ping {
        id: NodeId,
        n: usize,
        got: Option<NodeId>,
    }

    impl Protocol for Ping {
        type Msg = u64;
        type Output = NodeId;

        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            let next = NodeId::from_index((self.id.index() + 1) % self.n);
            ctx.send(next, 42);
        }

        fn on_message(&mut self, from: NodeId, msg: u64, _ctx: &mut Context<'_, u64>) {
            assert_eq!(msg, 42);
            self.got = Some(from);
        }

        fn output(&self) -> Option<NodeId> {
            self.got
        }
    }

    fn ping_factory(n: usize) -> impl FnMut(NodeId) -> Ping {
        move |id| Ping { id, n, got: None }
    }

    #[test]
    fn sync_ring_decides_in_one_step() {
        let cfg = EngineConfig::sync(8);
        let out = run::<Ping, _, _>(&cfg, 1, &mut NoAdversary, ping_factory(8));
        assert_eq!(out.all_decided_at, Some(1));
        assert!(out.quiescent);
        assert_eq!(out.outputs.len(), 8);
        // Each node sent exactly one message of header-only size (payload 64 bits).
        assert_eq!(out.metrics.total_msgs_sent(), 8);
        let expected_bits = 8 * (2 * 3 + 64); // header 2*ceil_log2(8)=6 bits + u64
        assert_eq!(out.metrics.total_bits_sent(), expected_bits);
    }

    #[test]
    fn deliveries_never_arrive_same_step() {
        // With max_delay=1 the ping sent at step 0 must arrive at step 1,
        // so no node may decide at step 0.
        let cfg = EngineConfig::sync(4);
        let out = run::<Ping, _, _>(&cfg, 7, &mut NoAdversary, ping_factory(4));
        for id in out.outputs.keys() {
            assert_eq!(out.metrics.decided_at(*id), Some(1));
        }
    }

    #[test]
    fn silent_adversary_blocks_its_victims_senders() {
        // Node i receives from i-1. If i-1 is corrupt (silent), node i
        // never decides; the run must hit max_steps and report undecided.
        let cfg = EngineConfig {
            max_steps: 10,
            ..EngineConfig::sync(8)
        };
        let mut adv = SilentAdversary::new(2);
        let out = run::<Ping, _, _>(&cfg, 3, &mut adv, ping_factory(8));
        assert_eq!(out.corrupt.len(), 2);
        assert!(out.all_decided_at.is_none());
        // Nodes whose predecessor is correct still decide.
        let decided_count = out.outputs.len();
        assert!(decided_count >= 8 - 2 * 2);
    }

    #[test]
    fn a_run_with_no_correct_node_is_decided_at_step_zero() {
        // Nobody to wait for: "every correct node decided" holds from the
        // start, so the run must not burn its step budget.
        let cfg = EngineConfig::sync(8);
        let mut adv = SilentAdversary::new(8);
        let out = run::<Ping, _, _>(&cfg, 3, &mut adv, ping_factory(8));
        assert_eq!(out.corrupt.len(), 8);
        assert_eq!(out.all_decided_at, Some(0));
        assert!(out.all_decided() && out.quiescent);
        assert_eq!(out.metrics.steps, 0);
        assert!(out.outputs.is_empty());
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = EngineConfig::sync(16);
        let mut a1 = SilentAdversary::new(4);
        let mut a2 = SilentAdversary::new(4);
        let o1 = run::<Ping, _, _>(&cfg, 11, &mut a1, ping_factory(16));
        let o2 = run::<Ping, _, _>(&cfg, 11, &mut a2, ping_factory(16));
        assert_eq!(o1.corrupt, o2.corrupt);
        assert_eq!(o1.all_decided_at, o2.all_decided_at);
        assert_eq!(o1.metrics.total_bits_sent(), o2.metrics.total_bits_sent());
        assert_eq!(o1.outputs, o2.outputs);
    }

    #[test]
    fn transcript_records_all_sends() {
        let cfg = EngineConfig {
            record_transcript: true,
            ..EngineConfig::sync(4)
        };
        let out = run::<Ping, _, _>(&cfg, 1, &mut NoAdversary, ping_factory(4));
        assert_eq!(out.transcript.len(), 4);
        assert!(out.transcript.iter().all(|e| e.sent_at == 0 && e.msg == 42));
    }

    /// Adversary that delays one specific edge to max_delay and checks the
    /// rushing view plumbing.
    struct DelayingAdversary {
        saw_rushing_view: bool,
    }

    impl Adversary<u64> for DelayingAdversary {
        fn corrupt(&mut self, _n: usize, _rng: &mut ChaCha12Rng) -> BTreeSet<NodeId> {
            BTreeSet::new()
        }
        fn rushing(&self) -> bool {
            true
        }
        fn act(&mut self, step: Step, view: Option<&[Envelope<u64>]>, _out: &mut Outbox<'_, u64>) {
            if step == 0 {
                let view = view.expect("rushing adversary must see current sends");
                assert_eq!(view.len(), 4);
                self.saw_rushing_view = true;
            }
        }
        fn delay(&mut self, env: &Envelope<u64>) -> Step {
            if env.from == NodeId::from_index(0) {
                100 // engine must clamp to max_delay
            } else {
                1
            }
        }
    }

    #[test]
    fn adversarial_delay_is_clamped_to_max_delay() {
        let cfg = EngineConfig::asynchronous(4, 3);
        let mut adv = DelayingAdversary {
            saw_rushing_view: false,
        };
        let out = run::<Ping, _, _>(&cfg, 5, &mut adv, ping_factory(4));
        assert!(adv.saw_rushing_view);
        // Node 1 (receiver of node 0's ping) decides at step 3, not 100.
        assert_eq!(out.metrics.decided_at(NodeId::from_index(1)), Some(3));
        assert_eq!(out.all_decided_at, Some(3));
    }

    /// Protocol where a node decides on the *first* message it processes;
    /// used to verify priority-based reordering within a step.
    struct FirstWins {
        first: Option<u64>,
    }

    impl Protocol for FirstWins {
        type Msg = u64;
        type Output = u64;
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            if ctx.id().index() != 0 {
                // Nodes 1 and 2 both message node 0 with their index.
                ctx.send(NodeId::from_index(0), ctx.id().index() as u64);
            }
        }
        fn on_message(&mut self, _from: NodeId, msg: u64, _ctx: &mut Context<'_, u64>) {
            self.first.get_or_insert(msg);
        }
        fn output(&self) -> Option<u64> {
            self.first
        }
    }

    struct ReorderAdversary;

    impl Adversary<u64> for ReorderAdversary {
        fn corrupt(&mut self, _n: usize, _rng: &mut ChaCha12Rng) -> BTreeSet<NodeId> {
            BTreeSet::new()
        }
        fn act(&mut self, _s: Step, _v: Option<&[Envelope<u64>]>, _o: &mut Outbox<'_, u64>) {}
        fn priority(&mut self, env: &Envelope<u64>) -> i64 {
            // Deliver the message with the larger payload first.
            -(env.msg as i64)
        }
    }

    #[test]
    fn priority_reorders_within_step() {
        let cfg = EngineConfig::sync(3);
        let fair = run::<FirstWins, _, _>(&cfg, 2, &mut NoAdversary, |_| FirstWins { first: None });
        assert_eq!(fair.outputs[&NodeId::from_index(0)], 1); // send order: node 1 first
        let skewed = run::<FirstWins, _, _>(&cfg, 2, &mut ReorderAdversary, |_| FirstWins {
            first: None,
        });
        assert_eq!(skewed.outputs[&NodeId::from_index(0)], 2); // adversary flipped it
    }

    /// Schedules by payload alone: delay `msg % 10` (so 7 is clamped),
    /// priority `-(msg / 10)`.
    struct ByPayload;

    impl Adversary<u64> for ByPayload {
        fn corrupt(&mut self, _n: usize, _rng: &mut ChaCha12Rng) -> BTreeSet<NodeId> {
            BTreeSet::new()
        }
        fn act(&mut self, _s: Step, _v: Option<&[Envelope<u64>]>, _o: &mut Outbox<'_, u64>) {}
        fn delay(&mut self, env: &Envelope<u64>) -> Step {
            env.msg % 10
        }
        fn priority(&mut self, env: &Envelope<u64>) -> i64 {
            -((env.msg / 10) as i64)
        }
    }

    /// The verdict and the schedule buffer after consulting `ByPayload`
    /// over a view carrying `msgs`, under `max_delay = 3`.
    fn consulted(msgs: &[u64]) -> (Option<Step>, Vec<(Step, i64)>) {
        let mut session = EngineSession::new(3);
        session.flat.extend(msgs.iter().map(|&msg| Envelope {
            from: NodeId::from_index(0),
            to: NodeId::from_index(1),
            sent_at: 0,
            msg,
        }));
        session.sched_buf.push((9, 9)); // an earlier step's leftovers
        let uniform = session.consult_schedule(&mut ByPayload, 3);
        (uniform, session.sched_buf)
    }

    #[test]
    fn consult_writes_the_schedule_from_the_first_deviation_on() {
        // A uniform step — whatever its common delay — writes nothing.
        assert_eq!(consulted(&[]), (Some(1), vec![]));
        assert_eq!(consulted(&[2, 2, 2, 2]), (Some(2), vec![]));
        assert_eq!(consulted(&[3, 7, 3]), (Some(3), vec![]));
        // The first deviation backfills the prefix, however late it comes.
        let late = vec![(2, 0), (2, 0), (2, 0), (1, 0)];
        assert_eq!(consulted(&[2, 2, 2, 1]), (None, late));
        let by_priority = vec![(1, 0), (1, -1), (1, 0)];
        assert_eq!(consulted(&[1, 11, 1]), (None, by_priority));
        // The bulk lane is priority 0: a common priority of -1 is keyed.
        assert_eq!(consulted(&[12, 12]), (None, vec![(2, -1), (2, -1)]));
    }

    /// What `deliver` ships through a run context at step 3 of a 4-node
    /// run on fresh session storage: the step's send list, and the
    /// session's outbox, which must be empty again.
    fn shipped(deliver: impl FnOnce(&mut RunContext<'_, u32>)) -> (Vec<Delivery<u32>>, Metrics) {
        let mut rngs: Vec<_> = (0..4).map(|i| node_rng(1, i)).collect();
        let mut session = EngineSession::new(1);
        let mut metrics = Metrics::new(4, &BTreeSet::new());
        let mut run = RunContext::new(4, 3, 4, &mut rngs, &mut session, &mut metrics);
        deliver(&mut run);
        run.finish();
        assert!(session.outbox_buf.is_empty(), "everything shipped");
        (session.sends, metrics)
    }

    /// The send list as `sender:runs` per outbox (an envelope is a run of
    /// one) and `[senders]>to:msg` per fan-in.
    fn send_shape(sends: &[Delivery<u32>]) -> Vec<String> {
        let shape = |delivery: &Delivery<u32>| match delivery {
            Delivery::One(env) => format!("{}:1", env.from.index()),
            Delivery::Batch(batch) => format!("{}:{}", batch.from.index(), batch.body.run_count()),
            Delivery::FanIn(fan) => {
                let from: Vec<usize> = fan.from.iter().map(|z| z.index()).collect();
                format!("{from:?}>{}:{}", fan.to.index(), fan.msg)
            }
        };
        sends.iter().map(shape).collect()
    }

    #[test]
    fn a_runs_recipients_and_fan_ins_ship_in_send_order() {
        let id = NodeId::from_index;
        let (sends, metrics) = shipped(|run| {
            assert_eq!(run.step(), 3);
            run.context(id(1)).send(id(0), 10);
            // Ships node 1's outbox; a sender listed twice sends twice.
            run.fan_in(&ids(&[2, 3, 2]), id(0), 20);
            run.fan_in(&[], id(0), 21);
            // One sender is a plain outbox of one.
            run.fan_in(&ids(&[3]), id(1), 30);
            run.context(id(2)).send(id(1), 40);
        });
        assert_eq!(send_shape(&sends), ["1:1", "[2, 3, 2]>0:20", "3:1", "2:1"]);
        let Delivery::FanIn(fan) = &sends[1] else {
            unreachable!()
        };
        assert_eq!(fan.sent_at, 3);
        let sent: Vec<u64> = (0..4).map(|i| metrics.msgs_sent_by(id(i))).collect();
        assert_eq!(sent, [0, 1, 3, 2], "a fan-in counts once per sender");
    }

    #[test]
    fn a_silent_recipient_ships_nothing_and_a_lone_message_ships_as_an_envelope() {
        let id = NodeId::from_index;
        let (sends, _) = shipped(|run| {
            run.context(id(1)).send(id(0), 10);
            let _silent = run.context(id(2));
            let mut ctx = run.context(id(3));
            ctx.multicast(&ids(&[0, 1]), 30);
            ctx.send(id(1), 31);
            // The same recipient again is a callback of its own.
            run.context(id(3)).send(id(2), 32);
        });
        assert_eq!(send_shape(&sends), ["1:1", "3:2", "3:1"]);
        let Delivery::One(env) = &sends[0] else {
            panic!("a lone message is an envelope")
        };
        assert_eq!(
            (env.from, env.to, env.sent_at, env.msg),
            (id(1), id(0), 3, 10)
        );
        assert!(matches!(&sends[1], Delivery::Batch(b) if b.body.len() == 3));
        assert!(matches!(&sends[2], Delivery::One(env) if env.msg == 32));
    }

    #[test]
    fn two_recipients_of_a_run_never_share_a_batch() {
        // The first one's last payload equals the second one's first.
        let id = NodeId::from_index;
        let (sends, _) = shipped(|run| {
            let mut first = run.context(id(1));
            first.send(id(2), 4);
            first.send(id(0), 5);
            let mut second = run.context(id(2));
            second.send(id(0), 5);
            second.send(id(3), 6);
        });
        assert_eq!(send_shape(&sends), ["1:2", "2:2"]);
        let bodies: Vec<Vec<(u32, Vec<usize>)>> = sends
            .iter()
            .map(|delivery| match delivery {
                Delivery::Batch(batch) => shape(&batch.body),
                _ => unreachable!("two messages are a batch"),
            })
            .collect();
        assert_eq!(
            bodies,
            [[(4, vec![2]), (5, vec![0])], [(5, vec![0]), (6, vec![3])]]
        );
    }

    thread_local! {
        /// `Counted::clone` calls on this test thread.
        static CLONES: Cell<u64> = const { Cell::new(0) };
    }

    #[derive(Debug)]
    struct Counted(u64);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.with(|clones| clones.set(clones.get() + 1));
            Counted(self.0)
        }
    }

    impl WireSize for Counted {
        fn wire_bits(&self) -> u64 {
            64
        }
    }

    /// A node opens with its id to everyone else — one multicast — and
    /// `50 + id` to node 0 (one batch, two runs) and answers anything
    /// below 100 with `+ 100` (a lone envelope). Nobody decides, so every
    /// step is scheduled. Runs are read by reference: no clone of this
    /// protocol's own, on either delivery path.
    struct Echo {
        id: usize,
        n: usize,
    }

    impl Echo {
        fn hear(from: NodeId, msg: u64, ctx: &mut Context<'_, Counted>) {
            if msg < 100 {
                ctx.send(from, Counted(msg + 100));
            }
        }
    }

    impl Protocol for Echo {
        type Msg = Counted;
        type Output = ();

        fn on_start(&mut self, ctx: &mut Context<'_, Counted>) {
            let others = (0..self.n).filter(|&to| to != self.id);
            let others: Vec<NodeId> = others.map(NodeId::from_index).collect();
            ctx.multicast(&others, Counted(self.id as u64));
            ctx.send(NodeId::from_index(0), Counted(50 + self.id as u64));
        }
        fn on_message(&mut self, from: NodeId, msg: Counted, ctx: &mut Context<'_, Counted>) {
            Echo::hear(from, msg.0, ctx);
        }
        fn deliver_run(
            nodes: &mut [Option<Self>],
            from: NodeId,
            msg: &Counted,
            recipients: &[NodeId],
            run: &mut RunContext<'_, Counted>,
        ) {
            for &to in recipients {
                if nodes[to.index()].is_some() {
                    Echo::hear(from, msg.0, &mut run.context(to));
                }
            }
        }
        fn output(&self) -> Option<()> {
            None
        }
    }

    /// Rushing, scheduling, not observing: plays node 1, which sends two
    /// fresh payloads a step, and keys every envelope by its sender — a
    /// non-uniform step whose batches stay whole.
    struct BySender;

    impl Adversary<Counted> for BySender {
        fn corrupt(&mut self, _n: usize, _rng: &mut ChaCha12Rng) -> BTreeSet<NodeId> {
            BTreeSet::from([NodeId::from_index(1)])
        }
        fn rushing(&self) -> bool {
            true
        }
        fn act(
            &mut self,
            step: Step,
            view: Option<&[Envelope<Counted>]>,
            out: &mut Outbox<'_, Counted>,
        ) {
            assert!(view.is_some());
            for to in [0, 2] {
                let (from, to) = (NodeId::from_index(1), NodeId::from_index(to));
                out.send_as(from, to, Counted(900 + step));
            }
        }
        fn delay(&mut self, env: &Envelope<Counted>) -> Step {
            1 + env.from.index() as Step % 2
        }
        fn priority(&mut self, env: &Envelope<Counted>) -> i64 {
            -(env.from.index() as i64 % 3)
        }
        fn observes(&self) -> bool {
            false
        }
    }

    #[test]
    fn a_step_clones_each_envelope_once_and_once_more_for_the_transcript() {
        for record_transcript in [false, true] {
            let cfg = EngineConfig {
                max_steps: 5,
                record_transcript,
                ..EngineConfig::asynchronous(6, 2)
            };
            CLONES.with(|clones| clones.set(0));
            let out = run::<Echo, _, _>(&cfg, 1, &mut BySender, |id| Echo {
                id: id.index(),
                n: 6,
            });
            // 5 openers × 6 messages, 4 of each answered (node 1 is
            // corrupt, the answers are not answered), 2 injected a step.
            let sent = 5 * 6 + 5 * 5 + 2 * 6;
            assert_eq!(out.metrics.total_msgs_sent(), sent);
            assert_eq!(
                out.transcript.len() as u64,
                sent * u64::from(record_transcript)
            );
            // The rushing view is the one copy; consult, `on_step` and
            // the calendar take none, the transcript takes its own.
            let clones = CLONES.with(Cell::get);
            assert_eq!(clones, sent * (1 + u64::from(record_transcript)));
        }
        // With nobody looking at the step there is no view, and the send
        // side takes no copy of its own: a k-recipient multicast is one
        // stored payload from the handler to the calendar (and this
        // protocol reads deliveries by reference), so the whole run
        // clones nothing.
        let cfg = EngineConfig {
            max_steps: 5,
            ..EngineConfig::sync(6)
        };
        CLONES.with(|clones| clones.set(0));
        let out = run::<Echo, _, _>(&cfg, 1, &mut NoAdversary, |id| Echo {
            id: id.index(),
            n: 6,
        });
        assert_eq!(out.metrics.total_msgs_sent(), 2 * 6 * 6);
        assert_eq!(CLONES.with(Cell::get), 0);
    }

    #[test]
    fn adversary_seed_pins_the_coalition_across_master_seeds() {
        let cfg = EngineConfig::sync(16);
        let mut outcomes = Vec::new();
        for master in [3u64, 8, 21] {
            let mut adv = SilentAdversary::new(4);
            let mut session = EngineSession::new(1);
            outcomes.push(run_session::<Ping, _, _, _>(
                &cfg,
                master,
                77, // same adversary seed every time
                &mut adv,
                ping_factory(16),
                &mut NullObserver,
                &mut session,
            ));
        }
        assert_eq!(outcomes[0].corrupt, outcomes[1].corrupt);
        assert_eq!(outcomes[1].corrupt, outcomes[2].corrupt);
        // And adversary_seed = master_seed reproduces run() exactly.
        let mut adv = SilentAdversary::new(4);
        let plain = run::<Ping, _, _>(&cfg, 77, &mut adv, ping_factory(16));
        assert_eq!(plain.corrupt, outcomes[0].corrupt);
    }

    /// Every node broadcasts a token every step (even after deciding); a
    /// node decides once it has heard from everyone else. The retrying
    /// traffic makes reconvergence after a dark window observable.
    struct Gossip {
        id: NodeId,
        n: usize,
        heard: BTreeSet<NodeId>,
        crashes: u32,
        restarts: u32,
    }

    impl Gossip {
        fn fresh(id: NodeId, n: usize) -> Self {
            Gossip {
                id,
                n,
                heard: BTreeSet::new(),
                crashes: 0,
                restarts: 0,
            }
        }

        fn broadcast(&self, ctx: &mut Context<'_, u64>) {
            for i in 0..self.n {
                if i != self.id.index() {
                    ctx.send(NodeId::from_index(i), 1);
                }
            }
        }
    }

    impl Protocol for Gossip {
        type Msg = u64;
        type Output = u64;
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            self.broadcast(ctx);
        }
        fn on_step(&mut self, ctx: &mut Context<'_, u64>) {
            self.broadcast(ctx);
        }
        fn on_message(&mut self, from: NodeId, _msg: u64, _ctx: &mut Context<'_, u64>) {
            self.heard.insert(from);
        }
        fn on_crash(&mut self, _step: Step) {
            self.crashes += 1;
            self.heard.clear(); // transient state is lost in the outage
        }
        fn on_restart(&mut self, _ctx: &mut Context<'_, u64>) {
            self.restarts += 1;
        }
        fn output(&self) -> Option<u64> {
            (self.heard.len() == self.n - 1).then_some(0)
        }
    }

    fn crash_cfg(n: usize, plan: CrashPlan) -> EngineConfig {
        EngineConfig {
            max_steps: 40,
            drain_steps: 4,
            crash: Some(plan),
            ..EngineConfig::sync(n)
        }
    }

    #[test]
    fn dark_window_suspends_a_node_until_restart() {
        let n = 4;
        let plan =
            CrashPlan::new(vec![(Window::bounded(1, 5), vec![NodeId::from_index(0)])]).unwrap();
        let mut crash_hooks = Vec::new();
        let out = run_observed::<Gossip, _, _, _>(
            &crash_cfg(n, plan),
            3,
            &mut NoAdversary,
            |id| Gossip::fresh(id, n),
            &mut FinalInspect(|id, node: &Gossip| {
                crash_hooks.push((id, node.crashes, node.restarts));
            }),
        );
        // Node 0 is dark over steps 1-4: it misses every delivery, and
        // its own step-0 broadcast is dropped too (the sender is dark at
        // delivery time), so nodes 1-3 are stuck one contact short.
        // Restart happens at the top of step 5, before deliveries — node
        // 0 immediately receives the broadcasts sent at step 4 and
        // decides at 5; its own restart broadcast lands at 6, where the
        // rest reconverge.
        assert_eq!(out.metrics.decided_at(NodeId::from_index(0)), Some(5));
        for i in 1..n {
            assert_eq!(out.metrics.decided_at(NodeId::from_index(i)), Some(6));
        }
        assert_eq!(out.all_decided_at, Some(6));
        // Dropped traffic: node 0's step-0 broadcast (3 msgs, dark
        // sender) plus the others' broadcasts delivered to it during
        // steps 1-4 (3 msgs × 4 steps, dark recipient).
        assert_eq!(out.metrics.msgs_dropped(), 3 + 3 * 4);
        // The crash/restart hooks fired exactly once each, on node 0.
        assert_eq!(crash_hooks.len(), n);
        for (id, crashes, restarts) in crash_hooks {
            let expected = u32::from(id.index() == 0);
            assert_eq!((crashes, restarts), (expected, expected), "node {id}");
        }
    }

    #[test]
    fn empty_crash_plan_is_bit_identical_to_none() {
        let cfg_none = EngineConfig {
            record_transcript: true,
            ..EngineConfig::sync(8)
        };
        let cfg_empty = EngineConfig {
            crash: Some(CrashPlan::empty()),
            ..cfg_none.clone()
        };
        for seed in [1u64, 9, 42] {
            let mut a1 = SilentAdversary::new(2);
            let mut a2 = SilentAdversary::new(2);
            let plain = run::<Ping, _, _>(&cfg_none, seed, &mut a1, ping_factory(8));
            let empty = run::<Ping, _, _>(&cfg_empty, seed, &mut a2, ping_factory(8));
            assert_eq!(plain.metrics, empty.metrics);
            assert_eq!(plain.outputs, empty.outputs);
            assert_eq!(plain.corrupt, empty.corrupt);
            assert_eq!(plain.all_decided_at, empty.all_decided_at);
            assert_eq!(plain.quiescent, empty.quiescent);
            assert_eq!(plain.transcript, empty.transcript);
            assert_eq!(empty.metrics.msgs_dropped(), 0);
        }
    }

    #[test]
    fn crashing_a_corrupt_node_is_a_no_op() {
        // The adversary plays corrupt nodes; a crash window naming one
        // must not disturb the run (no hooks, no drops beyond what the
        // correct crash targets cause).
        let cfg = EngineConfig {
            max_steps: 10,
            ..EngineConfig::sync(8)
        };
        let mut adv = SilentAdversary::new(2);
        let baseline = run::<Ping, _, _>(&cfg, 3, &mut adv, ping_factory(8));
        let corrupt_target = *baseline.corrupt.iter().next().unwrap();
        let plan = CrashPlan::new(vec![(Window::bounded(2, 4), vec![corrupt_target])]).unwrap();
        let mut adv2 = SilentAdversary::new(2);
        let crashed = run::<Ping, _, _>(
            &EngineConfig {
                crash: Some(plan),
                ..cfg
            },
            3,
            &mut adv2,
            ping_factory(8),
        );
        assert_eq!(crashed.corrupt, baseline.corrupt);
        assert_eq!(crashed.outputs, baseline.outputs);
        assert_eq!(crashed.metrics.msgs_dropped(), 0);
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn crash_plan_naming_out_of_range_node_panics() {
        let plan =
            CrashPlan::new(vec![(Window::bounded(1, 2), vec![NodeId::from_index(9)])]).unwrap();
        let _ = run::<Ping, _, _>(&crash_cfg(4, plan), 1, &mut NoAdversary, ping_factory(4));
    }

    #[test]
    fn unanimous_detects_agreement_and_disagreement() {
        let cfg = EngineConfig::sync(3);
        let out = run::<FirstWins, _, _>(&cfg, 2, &mut NoAdversary, |_| FirstWins { first: None });
        // Nodes 1 and 2 decide on their own "no message" path? They never
        // receive anything, so only node 0 decides => not all decided.
        assert!(out.all_decided_at.is_none());
        assert!(out.unanimous().is_some()); // single decider is unanimous
    }
}
