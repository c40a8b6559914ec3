//! The differential pin of [`Protocol::deliver_run`]: delivering a
//! multicast once must be indistinguishable from delivering it to each
//! recipient in turn.
//!
//! `AerNode` overrides the hook for `Fw1`; [`PerRecipient`] hides the
//! override, so the same node runs the trait's default loop — and with it
//! the one-recipient `on_fw1`. Both go through `run_session`, hand-wired
//! the way `Scenario` wires an AER run, over the adversary × network ×
//! crash matrix and a service chain; metrics (per node), outputs,
//! decision steps and full transcripts must be equal. A recipient that
//! the run routine skipped, reordered or let vote into the wrong cell
//! shows up here as a diverging transcript.

use fba::ae::{Precondition, UnknowingAssignment};
use fba::core::adversary::{AerAdversary, AttackContext};
use fba::core::{AerConfig, AerHarness, AerMsg, AerNode};
use fba::recovery::{CrashSpec, RecoveryConfig};
use fba::samplers::GString;
use fba::sim::rng::{derive_rng, instance_seed};
use fba::sim::{
    run_session, AdversarySpec, Context, EngineSession, NetworkSpec, NodeId, NullObserver,
    Protocol, RunOutcome, Step,
};

/// Forwards every [`Protocol`] method except `deliver_run`.
struct PerRecipient<P>(P);

impl<P: Protocol> Protocol for PerRecipient<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn on_start(&mut self, ctx: &mut Context<'_, P::Msg>) {
        self.0.on_start(ctx);
    }
    fn on_step(&mut self, ctx: &mut Context<'_, P::Msg>) {
        self.0.on_step(ctx);
    }
    fn on_message(&mut self, from: NodeId, msg: P::Msg, ctx: &mut Context<'_, P::Msg>) {
        self.0.on_message(from, msg, ctx);
    }
    fn on_crash(&mut self, step: Step) {
        self.0.on_crash(step);
    }
    fn on_restart(&mut self, ctx: &mut Context<'_, P::Msg>) {
        self.0.on_restart(ctx);
    }
    fn output(&self) -> Option<P::Output> {
        self.0.output()
    }
}

#[derive(Clone, Debug)]
struct Case {
    n: usize,
    adversary: &'static str,
    network: &'static str,
    crash: Option<&'static str>,
    instances: usize,
}

/// A chain of `case.instances` AER instances over one run state and one
/// engine session (a plain run is a chain of one), every node passed
/// through `wrap`.
fn chain<P>(case: &Case, seed: u64, wrap: fn(AerNode) -> P) -> Vec<RunOutcome<GString, AerMsg>>
where
    P: Protocol<Msg = AerMsg, Output = GString>,
{
    let n = case.n;
    let cfg = AerConfig::recommended(n);
    let network: NetworkSpec = case.network.parse().expect("valid network spec");
    let adversary: AdversarySpec = case.adversary.parse().expect("valid adversary spec");
    let mut session = EngineSession::new(network.max_delay());
    let mut state = None;
    (0..case.instances)
        .map(|k| {
            let inst_seed = instance_seed(seed, k);
            let mode = UnknowingAssignment::RandomPerNode;
            let pre = Precondition::synthetic(n, cfg.string_len, 0.8, mode, inst_seed);
            let mut harness = AerHarness::from_precondition(cfg, &pre);
            let mut engine = match network {
                NetworkSpec::Sync => harness.engine_sync(),
                NetworkSpec::Async { max_delay } => harness.engine_async(max_delay),
            };
            engine.record_transcript = true;
            if let Some(spec) = case.crash {
                let spec: CrashSpec = spec.parse().expect("valid crash spec");
                engine.max_steps += spec.last_restart().unwrap_or(0);
                engine.crash = Some(spec.resolve(n, seed).expect("windows fit n"));
                harness.enable_recovery(RecoveryConfig::default());
            }
            let bad = (pre.assignments.iter().copied())
                .find(|s| *s != pre.gstring)
                .unwrap_or_else(|| {
                    GString::random(cfg.string_len, &mut derive_rng(inst_seed, &[0xbad]))
                });
            let ctx = AttackContext::new(&harness, pre.gstring);
            let mut adversary = AerAdversary::from_spec(&adversary, ctx, bad);
            let state = state.get_or_insert_with(|| harness.run_state());
            state.begin_instance();
            run_session(
                &engine,
                inst_seed,
                seed,
                &mut adversary,
                |id| wrap(harness.node_with(id, state)),
                &mut NullObserver,
                &mut session,
            )
        })
        .collect()
}

fn assert_hook_matches_loop(case: &Case, seed: u64) {
    let hook = chain(case, seed, |node| node);
    let each = chain(case, seed, PerRecipient);
    for (k, (hook, each)) in hook.iter().zip(&each).enumerate() {
        let label = format!("{case:?} seed={seed} instance={k}");
        assert_eq!(hook.corrupt, each.corrupt, "{label}: corrupt set");
        assert_eq!(hook.outputs, each.outputs, "{label}: outputs");
        assert_eq!(
            hook.all_decided_at, each.all_decided_at,
            "{label}: decision step"
        );
        assert_eq!(hook.quiescent, each.quiescent, "{label}: quiescence");
        assert_eq!(hook.metrics, each.metrics, "{label}: metrics");
        assert!(hook.transcript == each.transcript, "{label}: transcript");
        assert!(!hook.transcript.is_empty(), "{label}: transcript recorded");
    }
}

const ADVERSARIES: [&str; 7] = [
    "none",
    "silent",
    "bad-string",
    "flood",
    "equivocate",
    "pull-flood",
    "sched:[0..2]silent;[2..]equivocate:4",
];

#[test]
fn run_hook_matches_the_per_recipient_loop_across_the_matrix() {
    for n in [64, 128] {
        for adversary in ADVERSARIES {
            for network in ["sync", "async:2"] {
                for crash in [None, Some("crash:[3..7]8")] {
                    let case = Case {
                        n,
                        adversary,
                        network,
                        crash,
                        instances: 1,
                    };
                    assert_hook_matches_loop(&case, 3);
                }
            }
        }
    }
}

#[test]
fn run_hook_matches_the_per_recipient_loop_over_a_service_chain() {
    // Three instances over one run state: the `Fw1` rows must be dropped
    // at each instance boundary on both sides. Seed 5 thrice over would
    // be the same instance; `instance_seed` varies the values instead and
    // the crashed arm restarts victims into a warm arena.
    for n in [64, 128] {
        for (adversary, crash) in [("silent", None), ("none", Some("crash:[3..7]8"))] {
            let case = Case {
                n,
                adversary,
                network: "sync",
                crash,
                instances: 3,
            };
            assert_hook_matches_loop(&case, 5);
        }
    }
}
