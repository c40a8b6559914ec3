//! The reference engine: the six stages of the `fba-sim` crate docs
//! ("Step structure") in their plainest executable form, and the oracle
//! the differential suites hold `fba_sim::run_session` to.
//!
//! Everything the production engine does for speed is absent on purpose.
//! The network is one ordered map keyed `(due step, priority, send
//! sequence)` holding one envelope per message (read off each outbox
//! through `Runs::for_each_message`); every delivery is one
//! `on_message` with a fresh outbox; dark nodes are a set; nothing is
//! reused between runs. The adversary is asked for a delay and a priority
//! for every envelope and shown every step, and the observer is shown
//! every step, whatever their skip hints say — so a strategy that
//! overrides a hook while its hint says it kept the default diverges here.
//!
//! Test-only, written against `fba-sim`'s public API alone, and pulled
//! into each test crate that needs it with `#[path]` (one copy). Its own
//! pin is the literal call-order tables in `engine_props.rs`, which run on
//! both engines: the tables pin the oracle, the oracle pins the engine.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;

use fba_sim::rng::{derive_rng, node_rng, TAG_ADVERSARY};
use fba_sim::{
    Adversary, Context, CrashPlan, EngineConfig, Envelope, Metrics, NodeId, Observer, Outbox,
    Protocol, RunOutcome, Runs, Step, WireSize,
};
use rand_chacha::ChaCha12Rng;

/// One run's state. `sends` is the current step's traffic in send order,
/// until stage 5 moves it into `queue`.
struct Run<P: Protocol> {
    n: usize,
    header_bits: u64,
    step: Step,
    /// `None` where the adversary plays the node.
    nodes: Vec<Option<P>>,
    rngs: Vec<ChaCha12Rng>,
    dark: BTreeSet<NodeId>,
    metrics: Metrics,
    sends: Vec<Envelope<P::Msg>>,
    queue: BTreeMap<(Step, i64, u64), Envelope<P::Msg>>,
}

impl<P: Protocol> Run<P> {
    fn send(&mut self, from: NodeId, to: NodeId, msg: P::Msg) {
        self.metrics
            .record_send(from, self.header_bits + msg.wire_bits());
        self.sends.push(Envelope {
            from,
            to,
            sent_at: self.step,
            msg,
        });
    }

    /// One protocol callback of correct node `id`; what it sent joins the
    /// step's sends. No-op for corrupt nodes.
    fn callback(&mut self, id: NodeId, f: impl FnOnce(&mut P, &mut Context<'_, P::Msg>)) {
        let Some(node) = self.nodes[id.index()].as_mut() else {
            return;
        };
        let (mut outbox, rng) = (Runs::new(), &mut self.rngs[id.index()]);
        let mut ctx = Context::new(id, self.n, self.step, rng, &mut outbox);
        f(node, &mut ctx);
        outbox.for_each_message(|to, msg| self.send(id, to, msg));
    }
}

/// Runs `factory`'s protocol under `adversary`: same inputs, same
/// [`RunOutcome`] as `fba_sim::run_session` (minus the session).
pub fn reference_run<P, A, F, O>(
    cfg: &EngineConfig,
    master_seed: u64,
    adversary_seed: u64,
    adversary: &mut A,
    mut factory: F,
    observer: &mut O,
) -> RunOutcome<P::Output, P::Msg>
where
    P: Protocol,
    A: Adversary<P::Msg> + ?Sized,
    F: FnMut(NodeId) -> P,
    O: Observer<P> + ?Sized,
{
    let n = cfg.n;
    let ids = || (0..n).map(NodeId::from_index);
    let corrupt = adversary.corrupt(n, &mut derive_rng(adversary_seed, &[TAG_ADVERSARY]));
    let mut run = Run {
        n,
        header_bits: cfg.effective_header_bits(),
        step: 0,
        nodes: ids()
            .map(|id| (!corrupt.contains(&id)).then(|| factory(id)))
            .collect(),
        rngs: (0..n).map(|i| node_rng(master_seed, i)).collect(),
        dark: BTreeSet::new(),
        metrics: Metrics::new(n, &corrupt),
        sends: Vec::new(),
        queue: BTreeMap::new(),
    };
    let max_delay = cfg.max_delay.max(1);
    let mut outputs = BTreeMap::new();
    let mut all_decided_at = None;
    let mut transcript = Vec::new();
    let mut sent: u64 = 0;
    let mut quiescent = false;
    loop {
        let step = run.step;
        // 1. Restarts, then new crashes, outage by outage.
        for (start, end, nodes) in cfg.crash.iter().flat_map(CrashPlan::outages) {
            if end == step {
                for &id in nodes {
                    if run.dark.remove(&id) {
                        run.callback(id, |node, ctx| node.on_restart(ctx));
                    }
                }
            }
            if start == step {
                for &id in nodes {
                    if let Some(node) = run.nodes[id.index()].as_mut() {
                        run.dark.insert(id);
                        node.on_crash(step);
                    }
                }
            }
        }
        // 2. The step's regular callback, in node order.
        for id in ids() {
            if !run.dark.contains(&id) {
                run.callback(id, |node, ctx| match step {
                    0 => node.on_start(ctx),
                    _ => node.on_step(ctx),
                });
            }
        }
        // 3. Everything due, in `(priority, send sequence)` order.
        while let Some(due) = run.queue.first_entry().filter(|e| e.key().0 <= step) {
            let env = due.remove();
            if run.dark.contains(&env.from) || run.dark.contains(&env.to) {
                run.metrics.record_dropped(1);
                continue;
            }
            let bits = env.total_bits(run.header_bits);
            run.metrics.record_recv(env.to, bits);
            run.callback(env.to, |node, ctx| node.on_message(env.from, env.msg, ctx));
        }
        // 4. The adversary's turn, until everyone has decided.
        let draining = all_decided_at.is_some();
        if !draining {
            let mut out = Outbox::new(&corrupt, n);
            let view = adversary.rushing().then_some(&run.sends[..]);
            adversary.act(step, view, &mut out);
            for (from, to, msg) in out.into_sends() {
                run.send(from, to, msg);
            }
        }
        // 5. Delay then priority per envelope in send order, then the
        // full-information views, then the network takes the step.
        let mut schedule: Vec<(Step, i64)> = vec![(1, 0); run.sends.len()];
        if !draining {
            for (slot, env) in schedule.iter_mut().zip(&run.sends) {
                let delay = adversary.delay(env).clamp(1, max_delay);
                *slot = (delay, adversary.priority(env));
            }
        }
        adversary.observe(step, &run.sends);
        observer.on_step(step, &run.sends);
        if cfg.record_transcript {
            transcript.extend(run.sends.iter().cloned());
        }
        for (env, (delay, priority)) in run.sends.drain(..).zip(schedule) {
            run.queue.insert((step + delay, priority, sent), env);
            sent += 1;
        }
        // 6. Who decided this step.
        if all_decided_at.is_none() {
            for id in ids() {
                if run.dark.contains(&id) || outputs.contains_key(&id) {
                    continue;
                }
                if let Some(out) = run.nodes[id.index()].as_ref().and_then(P::output) {
                    run.metrics.record_decision(id, step);
                    observer.on_decision(id, step, &out);
                    outputs.insert(id, out);
                }
            }
            if outputs.len() == n - corrupt.len() {
                all_decided_at = Some(step);
            }
        }
        run.metrics.steps = step;
        if let Some(decided_at) = all_decided_at {
            quiescent = run.queue.is_empty();
            if quiescent || step >= decided_at + cfg.drain_steps {
                break;
            }
        }
        if step >= cfg.max_steps {
            break;
        }
        run.step += 1;
    }
    for (id, node) in ids().zip(&run.nodes) {
        if let Some(node) = node {
            observer.on_final(id, node);
        }
    }
    RunOutcome {
        metrics: run.metrics,
        outputs,
        corrupt,
        all_decided_at,
        quiescent,
        transcript,
    }
}

/// Everything a [`RunOutcome`] carries, field by field — `Metrics`
/// equality is structural, so it covers every per-node counter.
pub fn assert_same_outcome<O, M>(label: &str, got: &RunOutcome<O, M>, want: &RunOutcome<O, M>)
where
    O: Debug + PartialEq,
    M: PartialEq,
{
    assert_eq!(got.corrupt, want.corrupt, "{label}: corrupt set");
    assert_eq!(got.outputs, want.outputs, "{label}: outputs");
    assert_eq!(
        got.all_decided_at, want.all_decided_at,
        "{label}: decision step"
    );
    assert_eq!(got.quiescent, want.quiescent, "{label}: quiescence");
    assert_eq!(got.metrics, want.metrics, "{label}: metrics");
    // Not `assert_eq!`: a diverging transcript is megabytes of `Debug`.
    assert!(got.transcript == want.transcript, "{label}: transcript");
}
