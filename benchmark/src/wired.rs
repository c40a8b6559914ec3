//! The deployment wired by hand, outside `Scenario`.
//!
//! Timing each layer from outside needs the calls into it: precondition
//! synthesis, harness build, run-state build and the engine run are made
//! here one by one, the way `Scenario::run` / `run_service` make them.
//! Digest check (c) — hand-wired ≡ `Scenario` on the same seed — is what
//! licenses reading these timings as a picture of the timed run; a
//! refactor that changes how `Scenario` wires a run fails that check
//! rather than silently skewing the layer table.

use std::time::Instant;

use fba_ae::Precondition;
use fba_core::adversary::{AerAdversary, AttackContext};
use fba_core::{AerHarness, AerMsg, AerNode, AerRunState};
use fba_recovery::RecoveryConfig;
use fba_samplers::GString;
use fba_scenario::{PreconditionSpec, Scenario};
use fba_sim::rng::{derive_rng, instance_seed};
use fba_sim::{
    run_session, Adversary, EngineConfig, EngineSession, NetworkSpec, NodeId, NullObserver,
    Protocol, RunOutcome,
};

use crate::workload::Workload;

/// Wall time of each set-up stage, seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `Scenario::aer_config`.
    pub config_s: f64,
    /// `Precondition::synthetic` (`fba-ae`).
    pub precondition_s: f64,
    /// `AerHarness::from_precondition`, i.e. `push_targets` (`fba-core`).
    pub harness_build_s: f64,
    /// `AerHarness::run_state` (`fba-core`).
    pub run_state_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.config_s + self.precondition_s + self.harness_build_s + self.run_state_s
    }
}

/// One instance's deployment: everything a run needs except the shared
/// run state and the engine session, which a service chain carries over.
pub struct Deployment {
    /// The synthetic almost-everywhere precondition.
    pub pre: Precondition,
    /// Samplers, assignments and push targets.
    pub harness: AerHarness,
    /// The engine configuration, crash plan included.
    pub engine: EngineConfig,
    /// The adversary the workload's spec names.
    pub adversary: AerAdversary,
}

/// Times `f`, returning its value and the seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Builds one instance's deployment, stage by stage, for value seed
/// `seed` and coalition seed `adversary_seed` (equal outside service
/// chains). `run_state_s` is left at zero: the caller builds or reuses
/// the run state.
///
/// # Panics
///
/// Panics if the catalogue's scenario derives an invalid configuration.
#[must_use]
pub fn deploy(
    workload: &Workload,
    scenario: &Scenario,
    seed: u64,
    adversary_seed: u64,
) -> (Deployment, SetupTimes) {
    let (cfg, config_s) = timed(|| scenario.aer_config().expect("catalogue scenario is valid"));
    let spec = PreconditionSpec::default();
    let (pre, precondition_s) = timed(|| {
        Precondition::synthetic(
            workload.n,
            cfg.string_len,
            spec.knowing,
            spec.assignment,
            seed,
        )
    });
    let (mut harness, harness_build_s) = timed(|| AerHarness::from_precondition(cfg, &pre));

    let mut engine = match workload.network_spec() {
        NetworkSpec::Sync => harness.engine_sync(),
        NetworkSpec::Async { max_delay } => harness.engine_async(max_delay),
    };
    if let Some(crash) = workload.crash_spec() {
        let plan = crash
            .resolve(workload.n, adversary_seed)
            .expect("catalogue crash spec fits the system");
        if let Some(last_restart) = crash.last_restart() {
            engine.max_steps = engine.max_steps.saturating_add(last_restart);
        }
        engine.crash = Some(plan);
        harness.enable_recovery(RecoveryConfig::default());
    }

    let bad = harness
        .assignments()
        .iter()
        .find(|s| **s != pre.gstring)
        .copied()
        .unwrap_or_else(|| {
            GString::random(pre.gstring.len_bits(), &mut derive_rng(seed, &[0xbad]))
        });
    let adversary = AerAdversary::from_spec(
        &workload.adversary_spec(),
        AttackContext::new(&harness, pre.gstring),
        bad,
    );

    let times = SetupTimes {
        config_s,
        precondition_s,
        harness_build_s,
        run_state_s: 0.0,
    };
    (
        Deployment {
            pre,
            harness,
            engine,
            adversary,
        },
        times,
    )
}

/// The set-up a user pays on every run: [`deploy`] plus a fresh run
/// state. This is what `setup_s` times.
#[must_use]
pub fn setup(workload: &Workload, scenario: &Scenario, seed: u64) -> (Deployment, SetupTimes) {
    let (deployment, mut times) = deploy(workload, scenario, seed, seed);
    let (_state, run_state_s) = timed(|| deployment.harness.run_state());
    times.run_state_s = run_state_s;
    (deployment, times)
}

/// What the hand-wired run hands back per instance.
pub struct WiredInstance {
    /// The engine outcome.
    pub run: RunOutcome<GString, AerMsg>,
    /// The instance's `gstring`.
    pub gstring: GString,
    /// When the instance's set-up started.
    pub started: Instant,
    /// Set-up stage timings of this instance.
    pub setup: SetupTimes,
    /// When the engine run started.
    pub engine_started: Instant,
    /// Wall time of the engine run, seconds.
    pub engine_s: f64,
}

/// A hand-wired call: one instance, or a service chain over one session
/// and one run state.
pub struct WiredCall {
    /// The instances, in execution order.
    pub instances: Vec<WiredInstance>,
    /// The run state the call ended with (cache counters).
    pub state: AerRunState,
    /// Wall time of the whole call, seconds.
    pub wall_s: f64,
}

/// Runs the workload's call for `seed` by hand. `wrap_node` and
/// `wrap_adversary` interpose on every node and on the adversary — the
/// traced pass passes timing wrappers, the untraced pass the identity —
/// and `on_instance(k)` runs right before instance `k`'s engine run.
pub fn run_wired<P, A>(
    workload: &Workload,
    scenario: &Scenario,
    seed: u64,
    mut wrap_node: impl FnMut(AerNode) -> P,
    mut wrap_adversary: impl FnMut(AerAdversary) -> A,
    mut on_instance: impl FnMut(usize),
) -> WiredCall
where
    P: Protocol<Msg = AerMsg, Output = GString>,
    A: Adversary<AerMsg>,
{
    let start = Instant::now();
    let mut session = EngineSession::new(workload.network_spec().max_delay().max(1));
    let mut state: Option<AerRunState> = None;
    let mut instances = Vec::with_capacity(workload.ops_per_call());
    for k in 0..workload.ops_per_call() {
        // Instance 0 runs with the service seed itself; the coalition is
        // drawn from the service seed in every instance.
        let inst_seed = if k == 0 { seed } else { instance_seed(seed, k) };
        let started = Instant::now();
        let (deployment, mut setup) = deploy(workload, scenario, inst_seed, seed);
        let Deployment {
            pre,
            harness,
            engine,
            adversary,
        } = deployment;
        if state.is_none() {
            let (fresh, run_state_s) = timed(|| harness.run_state());
            setup.run_state_s = run_state_s;
            state = Some(fresh);
        }
        let shared = state.as_ref().expect("run state built above");
        let mut adversary = wrap_adversary(adversary);
        on_instance(k);
        let engine_started = Instant::now();
        let (run, engine_s) = timed(|| {
            shared.begin_instance();
            run_session(
                &engine,
                inst_seed,
                seed,
                &mut adversary,
                |id: NodeId| wrap_node(harness.node_with(id, shared)),
                &mut NullObserver,
                &mut session,
            )
        });
        instances.push(WiredInstance {
            run,
            gstring: pre.gstring,
            started,
            setup,
            engine_started,
            engine_s,
        });
    }
    WiredCall {
        instances,
        state: state.expect("a call has at least one instance"),
        wall_s: start.elapsed().as_secs_f64(),
    }
}
