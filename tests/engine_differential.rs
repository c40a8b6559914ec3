//! The differential pin of the engine: production `run_session` against
//! the reference engine (`crates/sim/tests/support/reference.rs`, one
//! envelope per message in one ordered map, one `on_message` per
//! delivery) on the real protocols.
//!
//! Every case is hand-wired the way `Scenario` wires it, runs once on
//! each engine with transcripts on, and must agree on everything a
//! [`RunOutcome`] carries: per-node metrics, outputs, corrupt set,
//! decision step, quiescence and the whole transcript. The reference
//! never batches, never calls `Protocol::deliver_run`, never reuses a
//! session or an `AerRunState` and never skips an adversary or observer
//! hook, so each of those mechanisms — `AerNode`'s `Fw1` run routine and
//! the per-instance arena reset included — is held to the plain reading
//! of the model here. (The toy-protocol half, with random schedules and
//! the literal call-order tables, is `fba-sim`'s `engine_props.rs`.)

use fba::ae::{Precondition, UnknowingAssignment};
use fba::baselines::{BenOrNode, BenOrParams, KlstNode, KlstParams};
use fba::core::adversary::{AerAdversary, AttackContext};
use fba::core::{AerConfig, AerHarness};
use fba::recovery::{CrashSpec, RecoveryConfig};
use fba::sim::rng::{derive_rng, instance_seed};
use fba::sim::{
    run_observed, AdversarySpec, EngineConfig, EngineSession, NetworkSpec, NodeId, NullObserver,
    Protocol, SilentAdversary, Step,
};
use rand::Rng;

#[path = "../crates/sim/tests/support/reference.rs"]
mod reference;

use reference::{assert_same_outcome, reference_run};

/// A chain of AER instances (a plain run is a chain of one), specs in
/// their grammar. Production threads one run state and one engine
/// session through the chain, as service mode does; the reference runs
/// every instance from scratch.
fn assert_chain_matches_reference(
    n: usize,
    adversary: &str,
    network: &str,
    crash: Option<&str>,
    instances: usize,
    seed: u64,
) {
    let case = format!("n={n} {adversary} {network} {crash:?} seed={seed}");
    let cfg = AerConfig::recommended(n);
    let network: NetworkSpec = network.parse().expect("valid network spec");
    let adversary: AdversarySpec = adversary.parse().expect("valid adversary spec");
    let mut session = EngineSession::new(network.max_delay());
    let mut state = None;
    for k in 0..instances {
        let inst_seed = instance_seed(seed, k);
        let mode = UnknowingAssignment::RandomPerNode;
        let pre = Precondition::synthetic(n, cfg.string_len, 0.8, mode, inst_seed);
        let mut harness = AerHarness::from_precondition(cfg, &pre);
        let mut engine = match network {
            NetworkSpec::Sync => harness.engine_sync(),
            NetworkSpec::Async { max_delay } => harness.engine_async(max_delay),
        };
        engine.record_transcript = true;
        if let Some(spec) = crash {
            let spec: CrashSpec = spec.parse().expect("valid crash spec");
            engine.max_steps += spec.last_restart().unwrap_or(0);
            engine.crash = Some(spec.resolve(n, seed).expect("windows fit n"));
            harness.enable_recovery(RecoveryConfig::default());
        }
        let mut junk = pre.assignments.iter().filter(|s| **s != pre.gstring);
        let bad = *junk.next().expect("a fifth of the nodes hold junk");
        let strategy = || {
            let ctx = AttackContext::new(&harness, pre.gstring);
            AerAdversary::from_spec(&adversary, ctx, bad)
        };
        let got = harness.run_in_session(
            &engine,
            inst_seed,
            seed,
            &mut strategy(),
            &mut NullObserver,
            state.get_or_insert_with(|| harness.run_state()),
            &mut session,
        );
        let fresh = harness.run_state();
        let want = reference_run(
            &engine,
            inst_seed,
            seed,
            &mut strategy(),
            |id| harness.node_with(id, &fresh),
            &mut NullObserver,
        );
        assert_same_outcome(&format!("{case} instance={k}"), &got, &want);
        assert!(!got.transcript.is_empty() || got.corrupt.len() == n);
    }
}

/// Every `AdversarySpec` variant.
const ADVERSARIES: [&str; 9] = [
    "none",
    "silent",
    "random-flood",
    "flood",
    "equivocate",
    "pull-flood",
    "bad-string",
    "corner",
    "sched:[0..2]silent;[2..]equivocate:4",
];

/// One quarter of the matrix — adversaries × sizes under one network and
/// one crash schedule — so the test harness can run the quarters side by
/// side.
fn assert_matrix_matches_reference(network: &str, crash: Option<&str>) {
    for n in [64, 128] {
        // The tenth row leaves no correct node: such a run is decided at
        // step 0 instead of burning its step budget.
        let nobody_correct = format!("silent:{n}");
        for adversary in ADVERSARIES.into_iter().chain([nobody_correct.as_str()]) {
            assert_chain_matches_reference(n, adversary, network, crash, 1, 3);
        }
    }
}

const CRASH: Option<&str> = Some("crash:[3..7]8");

#[test]
fn matrix_sync_matches_the_reference() {
    assert_matrix_matches_reference("sync", None);
}

#[test]
fn matrix_async_matches_the_reference() {
    assert_matrix_matches_reference("async:2", None);
}

#[test]
fn matrix_sync_with_crashes_matches_the_reference() {
    assert_matrix_matches_reference("sync", CRASH);
}

#[test]
fn matrix_async_with_crashes_matches_the_reference() {
    assert_matrix_matches_reference("async:2", CRASH);
}

#[test]
fn service_chains_match_the_reference() {
    // Three instances over one run state and one session against three
    // from-scratch reference runs: whatever persists across an instance
    // boundary (calendar epoch, scratch buffers, sampler caches, `Fw1`
    // rows) must be invisible. `instance_seed` varies the values; the
    // crashed arm restarts victims into a warm arena. The boundary is
    // what a chain adds to the matrix, so debug builds run it at one size.
    let sizes: &[usize] = if cfg!(debug_assertions) {
        &[64]
    } else {
        &[64, 128]
    };
    for &n in sizes {
        for (adversary, network, crash) in [
            ("silent", "sync", None),
            ("bad-string", "async:2", None),
            ("none", "sync", CRASH),
        ] {
            assert_chain_matches_reference(n, adversary, network, crash, 3, 5);
        }
    }
}

/// One synchronous 64-node run on each engine, for a protocol the generic
/// strategies can attack.
fn assert_run_matches_reference<P: Protocol>(
    label: &str,
    max_steps: Step,
    t: usize,
    node: impl Fn(NodeId) -> P,
) where
    P::Msg: PartialEq, // the transcripts are compared
{
    let engine = EngineConfig {
        max_steps,
        record_transcript: true,
        ..EngineConfig::sync(64)
    };
    let silent = || SilentAdversary::new(t);
    let got = run_observed(&engine, 9, &mut silent(), &node, &mut NullObserver);
    let want = reference_run(&engine, 9, 9, &mut silent(), &node, &mut NullObserver);
    assert_same_outcome(label, &got, &want);
    assert!(got.all_decided(), "{label}: the run did something");
}

#[test]
fn baseline_families_match_the_reference() {
    // One node type per family: a diffusion baseline (round-structured
    // committee traffic) and a binary one (all-to-all broadcasts, coin
    // flips from the private RNG).
    let n = 64;
    let cfg = AerConfig::recommended(n);
    let mode = UnknowingAssignment::RandomPerNode;
    let pre = Precondition::synthetic(n, cfg.string_len, 0.8, mode, 9);
    let klst = KlstParams::recommended(n);
    assert_run_matches_reference("klst", klst.schedule_len() + 8, n / 8, |id| {
        KlstNode::new(klst, pre.assignments[id.index()])
    });

    let benor = BenOrParams::recommended(n);
    let mut rng = derive_rng(9, &[0xb0]);
    let inputs: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.9)).collect();
    assert_run_matches_reference("benor", 400, benor.t, |id| {
        BenOrNode::new(benor, n, inputs[id.index()])
    });
}
