//! Execution: the run entry points and the per-phase runners they
//! dispatch a resolved [`Plan`] to.

use fba_ae::{run_ae_with, AeConfig, Precondition};
use fba_baselines::{
    BenOrNode, BenOrParams, FloodNode, KingNode, KingParams, KlstNode, KlstParams,
};
use fba_core::adversary::{AerAdversary, AttackContext};
use fba_core::{AerConfig, AerHarness, AerMsg, AerNode, AerRunState};
use fba_recovery::RecoveryConfig;
use fba_samplers::GString;
use fba_sim::rng::derive_rng;
use fba_sim::{
    EngineConfig, EngineSession, NetworkSpec, NullObserver, Observer, SilentAdversary, Step,
};
use rand::Rng;

use crate::outcome::BaReport;
use crate::plan::{AerPlan, Plan};
use crate::{
    AeRun, AerRun, Baseline, BaselineOutcome, BaselineRun, ComposedRun, PreconditionSpec, Scenario,
    ScenarioError, ScenarioOutcome, ServiceInstance, ServiceRun,
};

/// What a chain of AER instances runs on: the derived config plus the
/// state that persists from one instance to the next. A plain run is a
/// chain of one.
struct AerChain {
    cfg: AerConfig,
    /// The cross-instance AER arena.
    state: AerRunState,
    /// The reusable engine scratch.
    session: EngineSession<AerMsg>,
}

impl Scenario {
    /// Executes the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] when the knob combination derives an
    /// invalid config, the adversary cannot attack the phase, or a fault
    /// budget, crash schedule or delay bound does not fit the system —
    /// exactly what [`Scenario::validate`] reports.
    pub fn run(&self, seed: u64) -> Result<ScenarioOutcome, ScenarioError> {
        self.run_observed(seed, &mut NullObserver)
    }

    /// Executes the scenario while driving a read-only [`Observer`] over
    /// the AER-phase engine (per-step sends, per-decision events, final
    /// node states): the whole run of [`Phase::Aer`](crate::Phase::Aer),
    /// the AER half of [`Phase::Composed`](crate::Phase::Composed). The
    /// almost-everywhere phase and the baselines run other node types and
    /// are not observed; their outcomes carry everything the experiments
    /// read.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Scenario::run`].
    pub fn run_observed(
        &self,
        seed: u64,
        observer: &mut dyn Observer<AerNode>,
    ) -> Result<ScenarioOutcome, ScenarioError> {
        Ok(match self.plan()? {
            Plan::Aer(plan) => ScenarioOutcome::Aer(self.run_synthetic(
                &mut self.aer_chain(plan.cfg),
                plan.precondition,
                seed,
                seed,
                observer,
            )),
            Plan::Ae { config, adversary } => {
                ScenarioOutcome::Ae(self.run_ae(config, adversary, seed))
            }
            Plan::Composed {
                ae,
                ae_adversary,
                aer,
            } => {
                let ae = self.run_ae(ae, ae_adversary, seed);
                let pre = ae.outcome.to_precondition(self.n, aer.string_len);
                // The AER half runs (and draws its coalition) on the next
                // seed; the fallback campaign string still derives from
                // the scenario's.
                let aer_seed = seed.wrapping_add(1);
                let mut chain = self.aer_chain(aer);
                let aer =
                    self.run_aer_instance(&mut chain, pre, aer_seed, aer_seed, seed, observer);
                ScenarioOutcome::Composed(ComposedRun {
                    report: BaReport::new(&ae, &aer),
                    ae,
                    aer,
                })
            }
            Plan::Baseline {
                baseline,
                adversary,
                engine,
            } => ScenarioOutcome::Baseline(self.run_baseline(baseline, adversary, &engine, seed)),
        })
    }

    /// Executes one AER instance with the corrupt coalition drawn from
    /// `adversary_seed` instead of `seed`. With `adversary_seed == seed`
    /// this is exactly [`Scenario::run`] restricted to
    /// [`Phase::Aer`](crate::Phase::Aer); with a different coalition seed
    /// it replays one instance of a service run standalone — the
    /// comparator the cross-instance state-leak battery is built on.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::UnsupportedService`] for non-AER phases
    /// and otherwise what [`Scenario::run`] returns.
    pub fn run_instance(&self, seed: u64, adversary_seed: u64) -> Result<AerRun, ScenarioError> {
        let AerPlan { cfg, precondition } = self.aer_plan()?;
        let mut chain = self.aer_chain(cfg);
        Ok(self.run_synthetic(
            &mut chain,
            precondition,
            seed,
            adversary_seed,
            &mut NullObserver,
        ))
    }

    /// Executes the scenario in sustained-service mode: the instance
    /// count and offered load set by [`Scenario::service`], chained over
    /// one persistent engine session and one shared AER arena.
    ///
    /// Instance `0` runs with the service seed itself (so a 1-instance
    /// service run is bit-identical to [`Scenario::run`] — pinned by the
    /// equivalence suite); instance `k > 0` runs with
    /// `instance_seed(seed, k)`. The corrupt coalition is drawn from the
    /// service seed for *every* instance, so the same nodes stay corrupt
    /// across the whole run.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::UnsupportedService`] for non-AER phases,
    /// [`ScenarioError::ServiceSpecInvalid`] for inconsistent service
    /// specs, and otherwise what [`Scenario::run`] returns.
    pub fn run_service(&self, seed: u64) -> Result<ServiceRun, ScenarioError> {
        let (AerPlan { cfg, precondition }, schedule) = self.service_plan(seed)?;
        let mut chain = self.aer_chain(cfg);
        let mut instances = Vec::with_capacity(schedule.len());
        let mut clock: Step = 0;
        for (k, (inst_seed, arrived_at)) in schedule.into_iter().enumerate() {
            let started_at = if k == 0 {
                arrived_at
            } else {
                arrived_at.max(clock + 1)
            };
            let run =
                self.run_synthetic(&mut chain, precondition, inst_seed, seed, &mut NullObserver);
            let finished_at = started_at + run.run.metrics.steps;
            clock = finished_at;
            instances.push(ServiceInstance {
                seed: inst_seed,
                arrived_at,
                started_at,
                finished_at,
                run,
            });
        }
        // The persistent arena carries the whole run's cache stats.
        Ok(ServiceRun {
            instances,
            total_steps: clock,
            push_cache_stats: chain.state.push_cache_stats(),
            pull_cache_stats: chain.state.pull_cache_stats(),
            poll_cache_stats: chain.state.poll_cache_stats(),
        })
    }

    fn aer_chain(&self, cfg: AerConfig) -> AerChain {
        AerChain {
            cfg,
            state: AerRunState::new(cfg.scheme(), cfg.poll_sampler()),
            session: EngineSession::new(self.network.max_delay()),
        }
    }

    /// The precondition `spec` synthesises for a run of `cfg` at `seed`.
    fn synthetic(&self, cfg: &AerConfig, spec: PreconditionSpec, seed: u64) -> Precondition {
        Precondition::synthetic(self.n, cfg.string_len, spec.knowing, spec.assignment, seed)
    }

    /// The AER-phase engine: the config's default for the timing model,
    /// with the scenario's transcript flag applied.
    fn aer_engine(&self, cfg: &AerConfig) -> EngineConfig {
        let mut engine = match self.network {
            NetworkSpec::Sync => cfg.engine_sync(),
            NetworkSpec::Async { max_delay } => cfg.engine_async(max_delay),
        };
        engine.record_transcript = self.record_transcript;
        engine
    }

    /// The AER-phase adversary (see [`Scenario::bad_string`] for the
    /// campaign string; its random fallback derives from `seed`).
    fn aer_adversary_for(
        &self,
        harness: &AerHarness,
        gstring: &GString,
        seed: u64,
    ) -> AerAdversary {
        let mut ctx = AttackContext::new(harness, *gstring);
        if let Some(t) = self.faults {
            ctx.t = t;
        }
        let bad = self.bad_string.unwrap_or_else(|| {
            let other = harness.assignments().iter().find(|s| *s != gstring);
            other.copied().unwrap_or_else(|| {
                GString::random(gstring.len_bits(), &mut derive_rng(seed, &[0xbad]))
            })
        });
        AerAdversary::from_spec(&self.adversary, ctx, bad)
    }

    /// One instance on the precondition `spec` synthesises from `seed` —
    /// what every [`Phase::Aer`](crate::Phase::Aer) entry point runs.
    fn run_synthetic(
        &self,
        chain: &mut AerChain,
        spec: PreconditionSpec,
        seed: u64,
        adversary_seed: u64,
        observer: &mut dyn Observer<AerNode>,
    ) -> AerRun {
        let pre = self.synthetic(&chain.cfg, spec, seed);
        self.run_aer_instance(chain, pre, seed, adversary_seed, seed, observer)
    }

    /// One agreement instance on `pre` over the chain's (possibly
    /// pre-existing) shared state — the one AER runner.
    ///
    /// `seed` drives the protocol RNG streams and the adversary's
    /// *strategy* state; `adversary_seed` independently pins the corrupt
    /// coalition and the crash victims (the service layer keeps it fixed
    /// across a whole run while the per-instance seed varies);
    /// `campaign_seed` derives the fallback campaign string.
    fn run_aer_instance(
        &self,
        chain: &mut AerChain,
        pre: Precondition,
        seed: u64,
        adversary_seed: u64,
        campaign_seed: u64,
        observer: &mut dyn Observer<AerNode>,
    ) -> AerRun {
        let cfg = chain.cfg;
        let mut harness = AerHarness::from_precondition(cfg, &pre);
        let mut engine = self.aer_engine(&cfg);
        if let Some(spec) = self.faults_spec.as_ref().filter(|s| !s.is_empty()) {
            // Victims are drawn from the coalition seed, so a service
            // run crashes the same nodes in every instance — the
            // crash-family analogue of the pinned corrupt coalition.
            let plan = spec
                .resolve(self.n, adversary_seed)
                .expect("the plan checked every window against n");
            // Give the restarted victims the full original step budget
            // after the last restart to re-converge.
            if let Some(last_restart) = spec.last_restart() {
                engine.max_steps = engine.max_steps.saturating_add(last_restart);
            }
            engine.crash = Some(plan);
            harness.enable_recovery(RecoveryConfig::default());
        }
        let mut adversary = self.aer_adversary_for(&harness, &pre.gstring, campaign_seed);
        let run = harness.run_in_session(
            &engine,
            seed,
            adversary_seed,
            &mut adversary,
            observer,
            &chain.state,
            &mut chain.session,
        );
        AerRun {
            corner: adversary.corner_report().cloned(),
            run,
            precondition: pre,
            config: cfg,
            engine,
        }
    }

    fn run_ae(&self, config: AeConfig, mut adversary: SilentAdversary, seed: u64) -> AeRun {
        let (rigged, value) = (&self.rigged, self.rigged_value);
        let outcome = run_ae_with(&config, seed, &mut adversary, rigged, value);
        AeRun { outcome, config }
    }

    fn run_baseline(
        &self,
        baseline: Baseline,
        mut adversary: SilentAdversary,
        engine: &EngineConfig,
        seed: u64,
    ) -> BaselineRun {
        let diffusion_pre =
            |spec: PreconditionSpec| self.synthetic(&AerConfig::recommended(self.n), spec, seed);
        let diffusion = |outcome, pre| BaselineRun {
            outcome,
            precondition: Some(pre),
            inputs: None,
        };
        let binary = |outcome, inputs| BaselineRun {
            outcome,
            precondition: None,
            inputs: Some(inputs),
        };
        match baseline {
            Baseline::Klst { precondition } => {
                let pre = diffusion_pre(precondition);
                let params = KlstParams::recommended(self.n);
                let run = fba_sim::run::<KlstNode, _, _>(engine, seed, &mut adversary, |id| {
                    KlstNode::new(params, pre.assignments[id.index()])
                });
                diffusion(BaselineOutcome::Klst(run), pre)
            }
            Baseline::Flood { precondition } => {
                let pre = diffusion_pre(precondition);
                let run = fba_sim::run::<FloodNode, _, _>(engine, seed, &mut adversary, |id| {
                    FloodNode::new(pre.assignments[id.index()])
                });
                diffusion(BaselineOutcome::Flood(run), pre)
            }
            Baseline::BenOr => {
                let params = BenOrParams::recommended(self.n);
                let mut rng = derive_rng(seed, &[0xb0]);
                let inputs: Vec<bool> = (0..self.n).map(|_| rng.gen_bool(0.9)).collect();
                let run = fba_sim::run::<BenOrNode, _, _>(engine, seed, &mut adversary, |id| {
                    BenOrNode::new(params, self.n, inputs[id.index()])
                });
                binary(BaselineOutcome::BenOr(run), inputs)
            }
            Baseline::PhaseKing => {
                let params = KingParams::recommended(self.n);
                let mut rng = derive_rng(seed, &[0xb1]);
                let inputs: Vec<bool> = (0..self.n).map(|_| rng.gen()).collect();
                let run = fba_sim::run::<KingNode, _, _>(engine, seed, &mut adversary, |id| {
                    KingNode::new(params, self.n, inputs[id.index()])
                });
                binary(BaselineOutcome::King(run), inputs)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Phase;
    use fba_ae::UnknowingAssignment;
    use fba_recovery::CrashSpec;
    use fba_sim::{AdversarySpec, FinalInspect, NoAdversary, NodeId, SilentAdversary};

    #[test]
    fn aer_scenario_matches_hand_wired_construction() {
        let n = 64;
        let seed = 7;
        let scenario_run = Scenario::new(n)
            .adversary(AdversarySpec::Silent { t: None })
            .phase(Phase::aer(0.8))
            .run(seed)
            .expect("valid")
            .into_aer();

        let cfg = AerConfig::recommended(n);
        let pre = Precondition::synthetic(
            n,
            cfg.string_len,
            0.8,
            UnknowingAssignment::RandomPerNode,
            seed,
        );
        let h = AerHarness::from_precondition(cfg, &pre);
        let t = fba_core::default_faults(n);
        let hand = h.run(&h.engine_sync(), seed, &mut SilentAdversary::new(t));

        assert_eq!(scenario_run.run.outputs, hand.outputs);
        assert_eq!(scenario_run.run.corrupt, hand.corrupt);
        assert_eq!(scenario_run.run.all_decided_at, hand.all_decided_at);
        assert_eq!(
            scenario_run.run.metrics.total_bits_sent(),
            hand.metrics.total_bits_sent()
        );
    }

    #[test]
    fn async_network_uses_the_async_engine() {
        let run = Scenario::new(32)
            .network(NetworkSpec::Async { max_delay: 3 })
            .run(1)
            .expect("valid")
            .into_aer();
        assert_eq!(run.engine.max_delay, 3);
        assert_eq!(run.engine.max_steps, 400);
        assert!(run.run.all_decided());
    }

    #[test]
    fn observer_sees_decisions_and_final_states() {
        let mut finals = 0usize;
        let out = {
            let mut inspect = FinalInspect(|_id: NodeId, _node: &AerNode| finals += 1);
            Scenario::new(32)
                .run_observed(3, &mut inspect)
                .expect("valid")
                .into_aer()
        };
        assert_eq!(finals, 32, "every surviving node is inspected");
        assert!(out.run.all_decided());
    }

    #[test]
    fn observer_sees_the_composed_runs_aer_half() {
        let mut finals = 0usize;
        let out = {
            let mut inspect = FinalInspect(|_id: NodeId, _node: &AerNode| finals += 1);
            Scenario::new(48)
                .faults(6)
                .adversary(AdversarySpec::Silent { t: None })
                .phase(Phase::Composed)
                .run_observed(3, &mut inspect)
                .expect("valid")
                .into_composed()
        };
        assert_eq!(
            finals,
            out.aer.correct_nodes(),
            "every correct node is inspected"
        );
        assert!(out.report.success(), "{:?}", out.report);
    }

    #[test]
    fn baseline_flood_diffuses_gstring() {
        let run = Scenario::new(32)
            .phase(Phase::Baseline(Baseline::Flood {
                precondition: PreconditionSpec::default(),
            }))
            .run(5)
            .expect("valid")
            .into_baseline();
        let pre = run.precondition.as_ref().expect("diffusion precondition");
        assert_eq!(run.outcome.unanimous_gstring(), Some(&pre.gstring));
        assert!(run.outcome.all_decided());
    }

    #[test]
    fn ae_phase_runs_and_reports_knowledge() {
        let run = Scenario::new(64)
            .phase(Phase::Ae)
            .run(11)
            .expect("valid")
            .into_ae();
        assert!(run.outcome.knowing_fraction > 0.75);
        assert_eq!(run.config.n, 64);
    }

    #[test]
    fn corner_report_is_surfaced() {
        let run = Scenario::new(64)
            .strict()
            .network(NetworkSpec::Async { max_delay: 1 })
            .adversary(AdversarySpec::Corner { label_scan: 64 })
            .run(5)
            .expect("valid")
            .into_aer();
        let report = run.corner.expect("corner adversary reports");
        assert!(report.overload_targets > 0 || report.blocked_victims == 0);
    }

    #[test]
    fn composed_fault_schedules_run_and_surface_window_state() {
        // A schedule mixing three strategies: push flood at the start,
        // equivocation in the middle, cornering from step 4 on. The
        // builder accepts it exactly where any spec goes.
        let sched: AdversarySpec = "sched:[0..1]flood;[1..4]equivocate:4;[4..]corner:64"
            .parse()
            .expect("schedule parses");
        let run = Scenario::new(64)
            .adversary(sched)
            .network(NetworkSpec::Async { max_delay: 1 })
            .phase(Phase::aer(0.8))
            .run(9)
            .expect("valid scenario")
            .into_aer();
        // Safety holds across the whole schedule…
        assert_eq!(run.wrong_decisions(), 0);
        assert!(run.run.all_decided(), "everyone decides");
        // …and the corner window's post-run state is preserved.
        assert!(
            run.corner.is_some(),
            "corner report must surface from the schedule window"
        );
    }

    #[test]
    fn record_transcript_populates_the_outcome() {
        let run = Scenario::new(32)
            .record_transcript(true)
            .run(3)
            .expect("valid")
            .into_aer();
        assert!(!run.run.transcript.is_empty());

        let bare = Scenario::new(32).run(3).expect("valid").into_aer();
        assert!(bare.run.transcript.is_empty());
        // Transcript recording is observation-only.
        assert_eq!(run.run.outputs, bare.run.outputs);
    }

    #[test]
    fn bad_string_defaults_to_the_shared_bogus_block() {
        let n = 48;
        let seed = 13;
        let run = Scenario::new(n)
            .adversary(AdversarySpec::BadString)
            .phase(Phase::aer_with(0.8, UnknowingAssignment::SharedAdversarial))
            .run(seed)
            .expect("valid")
            .into_aer();
        // No correct node may decide the campaign string (Lemma 7).
        assert_eq!(run.wrong_decisions(), 0);

        // Hand-wired equivalent with the explicit shared bogus string.
        let cfg = AerConfig::recommended(n);
        let pre = Precondition::synthetic(
            n,
            cfg.string_len,
            0.8,
            UnknowingAssignment::SharedAdversarial,
            seed,
        );
        let h = AerHarness::from_precondition(cfg, &pre);
        let bad = *pre
            .assignments
            .iter()
            .find(|s| **s != pre.gstring)
            .expect("bogus exists");
        let ctx = AttackContext::new(&h, pre.gstring);
        let mut adv = fba_core::adversary::BadString::new(ctx, bad);
        let hand = h.run(&h.engine_sync(), seed, &mut adv);
        assert_eq!(run.run.outputs, hand.outputs);
    }

    #[test]
    fn fault_free_default_is_no_adversary() {
        let n = 32;
        let seed = 2;
        let scenario = Scenario::new(n).run(seed).expect("valid").into_aer();
        let cfg = AerConfig::recommended(n);
        let pre = Precondition::synthetic(
            n,
            cfg.string_len,
            0.8,
            UnknowingAssignment::RandomPerNode,
            seed,
        );
        let h = AerHarness::from_precondition(cfg, &pre);
        let hand = h.run(&h.engine_sync(), seed, &mut NoAdversary);
        assert_eq!(scenario.run.outputs, hand.outputs);
        assert!(scenario.run.corrupt.is_empty());
        assert_eq!(scenario.correct_nodes(), n);
    }

    #[test]
    fn one_instance_service_run_is_the_plain_run() {
        let scenario = Scenario::new(48)
            .adversary(AdversarySpec::Silent { t: None })
            .record_transcript(true)
            .service(1, 10);
        let service = scenario.run_service(9).expect("valid");
        let plain = scenario.run(9).expect("valid").into_aer();
        assert_eq!(service.instances.len(), 1);
        let inst = &service.instances[0];
        assert_eq!(inst.seed, 9);
        assert_eq!(inst.run.run.outputs, plain.run.outputs);
        assert_eq!(inst.run.run.corrupt, plain.run.corrupt);
        assert_eq!(inst.run.run.metrics, plain.run.metrics);
        assert_eq!(inst.run.run.transcript, plain.run.transcript);
    }

    #[test]
    fn service_chains_instances_and_pins_the_coalition() {
        let service = Scenario::new(48)
            .adversary(AdversarySpec::Silent { t: None })
            .service(3, 5)
            .run_service(21)
            .expect("valid");
        assert_eq!(service.instances.len(), 3);
        assert_eq!(service.decided_instances(), 3);
        assert!(service.all_unanimous());
        assert_eq!(service.min_decided_fraction(), 1.0);
        // One coalition for the whole run, distinct value seeds.
        for inst in &service.instances {
            assert_eq!(&inst.run.run.corrupt, service.corrupt());
        }
        assert_ne!(service.instances[0].seed, service.instances[1].seed);
        // The service clock is consistent: arrivals every 5 steps, each
        // instance starts no earlier than its arrival and after its
        // predecessor finishes.
        let mut prev_finish = None;
        for (k, inst) in service.instances.iter().enumerate() {
            assert_eq!(inst.arrived_at, k as Step * 5);
            assert!(inst.started_at >= inst.arrived_at);
            if let Some(prev) = prev_finish {
                assert!(inst.started_at > prev);
            }
            assert_eq!(
                inst.finished_at,
                inst.started_at + inst.run.run.metrics.steps
            );
            prev_finish = Some(inst.finished_at);
        }
        assert_eq!(service.total_steps, prev_finish.unwrap());
        // The persistent caches were actually exercised.
        assert!(service.poll_cache_stats.0 > 0, "poll cache never hit");
    }

    #[test]
    fn service_aggregates_fold_the_instances() {
        let mut service = Scenario::new(48)
            .adversary(AdversarySpec::Silent { t: None })
            .service(3, 5)
            .run_service(9)
            .expect("valid");
        assert_eq!(service.decided_instances(), 3);
        let decisions = service.decisions();
        // Instance 1 loses every decision: it stops counting as a decided
        // instance, its decisions leave the sum and its fraction is the min.
        let lost = service.instances[1].run.run.metrics.decided_count();
        service.instances[1].run.run.metrics = fba_sim::Metrics::new(48, service.corrupt());
        assert_eq!(service.decided_instances(), 2);
        assert_eq!(service.decisions(), decisions - lost);
        assert_eq!(service.min_decided_fraction(), 0.0);
    }

    #[test]
    fn crash_schedule_crashes_and_recovers() {
        let run = Scenario::new(64)
            .faults_spec("crash:[2..8]8".parse().expect("parses"))
            .run(11)
            .expect("valid")
            .into_aer();
        assert!(run.run.metrics.msgs_dropped() > 0, "victims went dark");
        assert!(run.run.all_decided(), "restarted nodes catch up");
        assert_eq!(run.run.unanimous(), Some(run.gstring()));
        let rejoin = run.rejoin().expect("crash plan ran");
        assert!(rejoin.all_rejoined());
        assert!(rejoin.max_rejoin_steps().is_some());
    }

    #[test]
    fn empty_crash_spec_is_bit_identical_to_baseline() {
        let baseline = Scenario::new(48).run(7).expect("valid").into_aer();
        let empty = Scenario::new(48)
            .faults_spec(CrashSpec::none())
            .run(7)
            .expect("valid")
            .into_aer();
        assert_eq!(empty.run.outputs, baseline.run.outputs);
        assert_eq!(empty.run.metrics, baseline.run.metrics);
        assert!(empty.rejoin().is_none(), "no plan was injected");
    }

    #[test]
    fn service_run_survives_crash_windows() {
        let service = Scenario::new(48)
            .faults_spec("crash:[2..7]6".parse().expect("parses"))
            .service(3, 5)
            .run_service(21)
            .expect("valid");
        assert_eq!(service.decided_instances(), 3);
        assert!(service.all_unanimous());
        assert_eq!(service.min_decided_fraction(), 1.0);
        // The victim set is drawn from the coalition seed: identical in
        // every instance of the run.
        let plans: Vec<_> = service
            .instances
            .iter()
            .map(|inst| inst.run.engine.crash.clone().expect("plan injected"))
            .collect();
        assert!(plans.windows(2).all(|w| w[0] == w[1]));
        // Every instance dropped traffic into the dark window and still
        // rejoined all victims.
        for inst in &service.instances {
            assert!(inst.run.run.metrics.msgs_dropped() > 0);
            assert!(inst.run.rejoin().expect("plan ran").all_rejoined());
        }
    }

    #[test]
    fn run_instance_with_matching_seeds_is_run() {
        let scenario = Scenario::new(32).adversary(AdversarySpec::Silent { t: None });
        let inst = scenario.run_instance(6, 6).expect("valid");
        let plain = scenario.run(6).expect("valid").into_aer();
        assert_eq!(inst.run.outputs, plain.run.outputs);
        assert_eq!(inst.run.corrupt, plain.run.corrupt);
        assert_eq!(inst.run.metrics, plain.run.metrics);
    }

    #[test]
    fn composed_runs_honour_the_engine_knobs() {
        // Both timing models build the AER-phase engine the way plain AER
        // runs do, so the transcript flag reaches it — and stays
        // observation-only.
        for network in [NetworkSpec::Sync, NetworkSpec::Async { max_delay: 2 }] {
            let composed = Scenario::new(48).phase(Phase::Composed).network(network);
            let bare = composed.run(5).expect("valid").into_composed();
            let recorded = composed
                .record_transcript(true)
                .run(5)
                .expect("valid")
                .into_composed();
            assert!(bare.aer.run.transcript.is_empty(), "{network}");
            assert!(!recorded.aer.run.transcript.is_empty(), "{network}");
            assert_eq!(recorded.aer.run.metrics, bare.aer.run.metrics, "{network}");
            assert_eq!(recorded.aer.run.outputs, bare.aer.run.outputs, "{network}");
        }
    }
}
