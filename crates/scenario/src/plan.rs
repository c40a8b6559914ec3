//! The resolver: [`Scenario::plan`] is the only place a scenario is
//! checked and the only place its seed-independent parts are derived (see
//! the crate docs).

use fba_ae::{ae_engine, AeConfig};
use fba_baselines::{BenOrParams, KingParams, KlstParams};
use fba_core::{AerConfig, BaConfig};
use fba_sim::rng::instance_seed;
use fba_sim::{AdversarySpec, EngineConfig, NetworkSpec, SilentAdversary, Step};

use crate::{Baseline, Phase, PollTimeoutSpec, PreconditionSpec, Scenario, ScenarioError};

/// What every AER instance of a scenario is built from.
#[derive(Clone, Copy)]
pub(crate) struct AerPlan {
    pub(crate) cfg: AerConfig,
    pub(crate) precondition: PreconditionSpec,
}

/// A resolved scenario: per phase, the derived configuration and whatever
/// else is fixed before a seed is known.
pub(crate) enum Plan {
    Aer(AerPlan),
    Ae {
        config: AeConfig,
        adversary: SilentAdversary,
    },
    Composed {
        config: BaConfig,
        ae_adversary: SilentAdversary,
    },
    Baseline {
        baseline: Baseline,
        adversary: SilentAdversary,
        engine: EngineConfig,
    },
}

impl Scenario {
    /// The smallest supported system size: below it quorums cover the
    /// whole system and the `⌊0.15·n⌋` fault budget rounds to nothing, so
    /// the AER and almost-everywhere configs refuse to derive.
    const MIN_N: usize = 8;

    /// Resolves the scenario (see the crate docs).
    pub(crate) fn plan(&self) -> Result<Plan, ScenarioError> {
        self.check_scale()?;
        self.check_crash()?;
        self.check_knowing()?;
        // What the AER and composed phases share: the derived config, the
        // AER-phase adversary's budgets, and the delay bound.
        let aer = || -> Result<(AerConfig, usize), ScenarioError> {
            let cfg = self.aer_config()?;
            let budget = self.faults.unwrap_or(cfg.t);
            self.check_budgets(&self.adversary, budget)?;
            self.check_delay_bound(cfg.engine_async(self.network.max_delay()).max_steps)?;
            Ok((cfg, budget))
        };
        Ok(match self.phase {
            Phase::Aer { precondition } => Plan::Aer(AerPlan {
                cfg: aer()?.0,
                precondition,
            }),
            Phase::Composed => {
                // Start from the harness's own composed defaults (which
                // couple the two phases' string lengths), then overlay the
                // scenario's AER knobs and re-assert the coupling — no
                // default is restated here.
                let (aer_cfg, budget) = aer()?;
                let mut config = BaConfig::recommended(self.n);
                config.aer = aer_cfg;
                config.ae.string_len = aer_cfg.string_len;
                Plan::Composed {
                    config,
                    ae_adversary: self.generic_adversary(
                        &self.ae_adversary,
                        budget,
                        "almost-everywhere",
                    )?,
                }
            }
            Phase::Ae => {
                let config = AeConfig::recommended(self.n);
                let budget = self.faults.unwrap_or_else(|| self.default_faults());
                let adversary =
                    self.generic_adversary(&self.adversary, budget, "almost-everywhere")?;
                self.check_delay_bound(ae_engine(&config).max_steps)?;
                Plan::Ae { config, adversary }
            }
            Phase::Baseline(baseline) => {
                let (default_t, max_steps) = match baseline {
                    Baseline::Klst { .. } => (
                        self.default_faults(),
                        KlstParams::recommended(self.n).schedule_len() + 8,
                    ),
                    Baseline::Flood { .. } => {
                        (self.default_faults(), EngineConfig::sync(self.n).max_steps)
                    }
                    Baseline::BenOr { .. } => (BenOrParams::recommended(self.n).t, 400),
                    Baseline::PhaseKing => {
                        let params = KingParams::recommended(self.n);
                        (params.t / 2, params.schedule_len() + 8)
                    }
                };
                let budget = self.faults.unwrap_or(default_t);
                let adversary = self.generic_adversary(&self.adversary, budget, "baseline")?;
                self.check_delay_bound(max_steps)?;
                // `sync` is the `max_delay = 1` engine.
                let base = EngineConfig::asynchronous(self.n, self.network.max_delay());
                Plan::Baseline {
                    baseline,
                    adversary,
                    engine: EngineConfig {
                        max_steps,
                        record_transcript: self.record_transcript,
                        ..base
                    },
                }
            }
        })
    }

    /// Checks the scenario without executing it: this *is* the resolver
    /// every run entry point starts from, so it raises exactly the
    /// rejections [`Scenario::run`] would — [`Scenario::run_service`], once
    /// [`Scenario::service`] is set — for every phase. Sweep drivers
    /// pre-flight every cell with this so an invalid cell fails fast
    /// instead of deep inside a parallel fan-out.
    ///
    /// # Errors
    ///
    /// Returns the violated constraint.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.service.is_some() {
            self.service_plan(0).map(drop)
        } else {
            self.plan().map(drop)
        }
    }

    /// The AER plan, or the service-mode rejection for any other phase —
    /// what [`Scenario::run_instance`] and [`Scenario::run_service`] start
    /// from.
    pub(crate) fn aer_plan(&self) -> Result<AerPlan, ScenarioError> {
        match self.plan()? {
            Plan::Aer(plan) => Ok(plan),
            _ => Err(ScenarioError::UnsupportedService {
                phase: self.phase.phase_name(),
            }),
        }
    }

    /// The AER configuration this scenario derives (all knobs applied).
    ///
    /// # Errors
    ///
    /// Returns the violated constraint if the knob combination is
    /// invalid.
    pub fn aer_config(&self) -> Result<AerConfig, ScenarioError> {
        self.check_scale()?;
        let mut cfg = AerConfig::recommended(self.n);
        if let Some(d) = self.quorum_size {
            cfg = cfg.with_d(d);
        }
        if let Some(cap) = self.overload_cap {
            cfg = cfg.with_overload_cap(cap);
        }
        if self.strict {
            cfg = cfg.strict();
        }
        match self.poll_timeout {
            PollTimeoutSpec::Config => {}
            PollTimeoutSpec::DelayScaled => {
                cfg.poll_timeout =
                    AerConfig::sync_poll_horizon().saturating_mul(self.network.max_delay());
            }
            PollTimeoutSpec::Fixed(t) => cfg.poll_timeout = t,
        }
        cfg.validate()?;
        Ok(cfg)
    }

    fn default_faults(&self) -> usize {
        (self.n as f64 * 0.15) as usize
    }

    /// Rejects system sizes outside `MIN_N..=MAX_N` before any phase
    /// derives a config or allocates run state.
    fn check_scale(&self) -> Result<(), ScenarioError> {
        let bound = if self.n < Self::MIN_N {
            Self::MIN_N
        } else if self.n > Self::MAX_N {
            Self::MAX_N
        } else {
            return Ok(());
        };
        Err(ScenarioError::UnsupportedScale { n: self.n, bound })
    }

    /// Rejects crash–restart schedules this scenario cannot execute: a
    /// window that crashes more nodes than the system has, or a non-AER
    /// phase (only the AER engine runs crash plans). An unset or empty
    /// spec always passes — it is the no-fault baseline.
    fn check_crash(&self) -> Result<(), ScenarioError> {
        let Some(spec) = self.faults_spec.as_ref().filter(|s| !s.is_empty()) else {
            return Ok(());
        };
        if !matches!(self.phase, Phase::Aer { .. }) {
            return Err(ScenarioError::CrashSpecInvalid {
                reason: format!(
                    "crash–restart schedules only drive the AER phase, not {}; \
                     drop `.faults_spec(..)` or set `.phase(Phase::aer(..))`",
                    self.phase.phase_name()
                ),
            });
        }
        // Only `n` can make a spec unresolvable, the seed cannot: the
        // victims drawn here are discarded.
        match spec.resolve(self.n, 0) {
            Ok(_) => Ok(()),
            Err(err) => Err(ScenarioError::CrashSpecInvalid {
                reason: err.to_string(),
            }),
        }
    }

    /// Rejects a knowledge fraction outside `[0, 1]` (or `NaN`) in every
    /// phase that synthesises a precondition from one.
    fn check_knowing(&self) -> Result<(), ScenarioError> {
        let (Phase::Aer { precondition }
        | Phase::Baseline(Baseline::Klst { precondition } | Baseline::Flood { precondition })) =
            self.phase
        else {
            return Ok(());
        };
        let knowing = precondition.knowing;
        if (0.0..=1.0).contains(&knowing) {
            Ok(())
        } else {
            Err(ScenarioError::KnowingOutOfRange { knowing })
        }
    }

    /// Rejects corruption budgets above `n` — the run's effective `budget`
    /// or any `silent:<t>` override in `spec` — and fault schedules whose
    /// windows disagree on the budget (they would draw different
    /// coalitions — see `fba_core::adversary::Composed`). `none` windows
    /// corrupt nobody and are exempt.
    fn check_budgets(&self, spec: &AdversarySpec, budget: usize) -> Result<(), ScenarioError> {
        let in_range = |budget: usize| {
            if budget > self.n {
                return Err(ScenarioError::FaultBudgetTooLarge { budget, n: self.n });
            }
            Ok(budget)
        };
        let budget = in_range(budget)?;
        let effective = |spec: &AdversarySpec| match spec {
            AdversarySpec::None => Ok(None),
            AdversarySpec::Silent { t: Some(t) } => in_range(*t).map(Some),
            _ => Ok(Some(budget)),
        };
        let AdversarySpec::Sched(schedule) = spec else {
            return effective(spec).map(drop);
        };
        let mut first: Option<usize> = None;
        for (window, spec) in schedule.windows() {
            let Some(got) = effective(spec)? else {
                continue;
            };
            let expected = *first.get_or_insert(got);
            if got != expected {
                return Err(ScenarioError::ScheduleBudgetMismatch {
                    window: *window,
                    got,
                    expected,
                });
            }
        }
        Ok(())
    }

    /// Builds the phase-independent adversary (`silent[:t]`; `none` is a
    /// budget of 0) for a phase that fields nothing else, checking its
    /// budget.
    fn generic_adversary(
        &self,
        spec: &AdversarySpec,
        budget: usize,
        phase: &'static str,
    ) -> Result<SilentAdversary, ScenarioError> {
        let adversary =
            spec.generic(budget)
                .ok_or_else(|| ScenarioError::UnsupportedAdversary {
                    spec: spec.clone(),
                    phase,
                })?;
        self.check_budgets(spec, budget)?;
        Ok(adversary)
    }

    /// Rejects an asynchronous delay bound that is not below `max_steps`,
    /// the step budget of the engine the phase runs: the run could never
    /// outlast one delivery, and the calendar ring is sized by the bound.
    fn check_delay_bound(&self, max_steps: Step) -> Result<(), ScenarioError> {
        match self.network {
            NetworkSpec::Async { max_delay } if max_delay >= max_steps => {
                Err(ScenarioError::DelayBoundTooLarge {
                    max_delay,
                    max_steps,
                })
            }
            _ => Ok(()),
        }
    }

    /// The AER plan plus the per-instance `(seed, arrival step)` schedule
    /// of the service spec. Every check is independent of `seed` — it only
    /// fills in the default instance seeds — so [`Scenario::validate`]
    /// calls this too.
    pub(crate) fn service_plan(
        &self,
        seed: u64,
    ) -> Result<(AerPlan, Vec<(u64, Step)>), ScenarioError> {
        let plan = self.aer_plan()?;
        let invalid = |reason: String| Err(ScenarioError::ServiceSpecInvalid { reason });
        let Some((instances, interval)) = self.service else {
            return invalid("`.service(instances, interval)` was never set".into());
        };
        if instances == 0 {
            return invalid("a service run needs at least one instance".into());
        }
        let arrivals: Vec<Step> = match &self.service_arrivals {
            Some(explicit) => {
                if explicit.len() != instances {
                    return invalid(format!(
                        "arrival schedule has {} entries for {instances} instances",
                        explicit.len()
                    ));
                }
                if explicit.windows(2).any(|w| w[1] < w[0]) {
                    return invalid("arrival schedule must be non-decreasing".into());
                }
                explicit.clone()
            }
            None => (0..instances).map(|k| k as Step * interval).collect(),
        };
        let seeds: Vec<u64> = match &self.service_value_seeds {
            Some(explicit) => {
                if explicit.len() != instances {
                    return invalid(format!(
                        "value-seed override has {} entries for {instances} instances",
                        explicit.len()
                    ));
                }
                explicit.clone()
            }
            None => (0..instances).map(|k| instance_seed(seed, k)).collect(),
        };
        Ok((plan, seeds.into_iter().zip(arrivals).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_scaled_timeout_multiplies_the_horizon() {
        let sync = Scenario::new(32)
            .poll_timeout(PollTimeoutSpec::DelayScaled)
            .run(1)
            .expect("valid")
            .into_aer();
        assert_eq!(sync.config.poll_timeout, AerConfig::sync_poll_horizon());

        let scaled = Scenario::new(32)
            .network(NetworkSpec::Async { max_delay: 3 })
            .poll_timeout(PollTimeoutSpec::DelayScaled)
            .run(1)
            .expect("valid")
            .into_aer();
        assert_eq!(
            scaled.config.poll_timeout,
            3 * AerConfig::sync_poll_horizon()
        );
        assert!(scaled.run.all_decided());

        let fixed = Scenario::new(32)
            .poll_timeout(PollTimeoutSpec::Fixed(8))
            .run(1)
            .expect("valid")
            .into_aer();
        assert_eq!(fixed.config.poll_timeout, 8);
    }

    #[test]
    fn aer_specific_adversaries_are_rejected_off_aer_phases() {
        for phase in [
            Phase::Ae,
            Phase::Baseline(Baseline::Flood {
                precondition: PreconditionSpec::default(),
            }),
        ] {
            let err = Scenario::new(32)
                .adversary(AdversarySpec::PushFlood)
                .phase(phase)
                .run(1)
                .unwrap_err();
            assert!(matches!(err, ScenarioError::UnsupportedAdversary { .. }));
            assert!(err.to_string().contains("flood"));
        }
        // The composed phase rejects AER-specific *AE-phase* strategies…
        let err = Scenario::new(32)
            .ae_adversary(AdversarySpec::BadString)
            .phase(Phase::Composed)
            .run(1)
            .unwrap_err();
        assert!(matches!(err, ScenarioError::UnsupportedAdversary { .. }));
        // …but fields them happily in its AER phase.
        let ok = Scenario::new(32)
            .adversary(AdversarySpec::BadString)
            .phase(Phase::Composed)
            .run(1);
        assert!(ok.is_ok());
    }

    #[test]
    fn invalid_config_knobs_surface_as_errors() {
        let err = Scenario::new(32).quorum_size(2).run(1).unwrap_err();
        assert!(matches!(err, ScenarioError::Config(_)));
        assert!(err.to_string().contains("quorum"));
    }

    #[test]
    fn validate_preflights_without_running() {
        // A sound scenario validates…
        Scenario::new(64)
            .adversary(AdversarySpec::Silent { t: None })
            .phase(Phase::aer(0.8))
            .validate()
            .expect("sound scenario validates");
        // …and validate() raises exactly the rejections run() would:
        // an invalid config derivation…
        let err = Scenario::new(64).quorum_size(0).validate().unwrap_err();
        assert!(matches!(err, ScenarioError::Config(_)), "{err}");
        // …and a schedule whose windows disagree on the budget.
        let sched: AdversarySpec = "sched:[0..2]silent:3;[2..]flood".parse().expect("parses");
        let err = Scenario::new(64).adversary(sched).validate().unwrap_err();
        assert!(
            matches!(err, ScenarioError::ScheduleBudgetMismatch { .. }),
            "{err}"
        );
        // `none` windows are budget-exempt: an attack-then-quiet
        // schedule (the recovery battery shape) validates.
        let sched: AdversarySpec = "sched:[0..3]flood;[3..]none".parse().expect("parses");
        Scenario::new(64)
            .adversary(sched)
            .validate()
            .expect("quiet tail window validates");
        // Non-AER phases are covered too: the AE phase only accepts
        // generic adversaries…
        let err = Scenario::new(64)
            .phase(Phase::Ae)
            .adversary(AdversarySpec::PushFlood)
            .validate()
            .unwrap_err();
        assert!(
            matches!(err, ScenarioError::UnsupportedAdversary { .. }),
            "{err}"
        );
        // …and a composed run derives the AER config and checks its AE
        // adversary, exactly as run() would.
        let err = Scenario::new(64)
            .phase(Phase::Composed)
            .quorum_size(0)
            .validate()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::Config(_)), "{err}");
        let err = Scenario::new(64)
            .phase(Phase::Composed)
            .ae_adversary(AdversarySpec::PushFlood)
            .validate()
            .unwrap_err();
        assert!(
            matches!(err, ScenarioError::UnsupportedAdversary { .. }),
            "{err}"
        );
    }

    #[test]
    fn system_sizes_outside_the_supported_range_are_rejected_not_panicked() {
        // Below the lower bound every entry point returns the error the
        // upper bound always did, for every phase, naming the bound.
        for n in [0, 3, 7] {
            let small = Scenario::new(n);
            for err in [
                small.validate().unwrap_err(),
                small.aer_config().unwrap_err(),
                small.run(1).unwrap_err(),
                small.clone().service(2, 1).run_service(1).unwrap_err(),
                small.clone().phase(Phase::Ae).run(1).unwrap_err(),
                small.clone().phase(Phase::Composed).run(1).unwrap_err(),
            ] {
                assert_eq!(err, ScenarioError::UnsupportedScale { n, bound: 8 });
                assert!(err.to_string().contains("below"), "{err}");
            }
        }
        Scenario::new(8).validate().expect("the bound itself is in");
        let err = Scenario::new(Scenario::MAX_N + 1).validate().unwrap_err();
        assert_eq!(
            err,
            ScenarioError::UnsupportedScale {
                n: Scenario::MAX_N + 1,
                bound: Scenario::MAX_N
            }
        );
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn mismatched_schedule_budgets_are_rejected() {
        // silent:3 next to a default-budget flood window would draw two
        // different coalitions (and corrupt more than the declared fault
        // bound); the builder rejects it before anything runs.
        let sched: AdversarySpec = "sched:[0..2]silent:3;[2..]flood".parse().expect("parses");
        let err = Scenario::new(64).adversary(sched).run(1).unwrap_err();
        assert!(
            matches!(err, ScenarioError::ScheduleBudgetMismatch { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("coalition"), "{err}");

        // …but the same schedule with the fault budget aligned is fine —
        // silent:<t> overrides and .faults() agree on one coalition.
        let sched: AdversarySpec = "sched:[0..2]silent:3;[2..]flood".parse().expect("parses");
        let run = Scenario::new(64)
            .adversary(sched)
            .faults(3)
            .run(1)
            .expect("aligned budgets are valid")
            .into_aer();
        assert_eq!(run.run.corrupt.len(), 3, "one coalition of 3");
        assert_eq!(run.wrong_decisions(), 0);

        // `none` windows are exempt: they corrupt nobody.
        let sched: AdversarySpec = "sched:[0..2]none;[2..]silent:5".parse().expect("parses");
        assert!(Scenario::new(64).adversary(sched).run(1).is_ok());
    }

    #[test]
    fn schedules_are_rejected_off_aer_phases() {
        let sched: AdversarySpec = "sched:[0..]silent".parse().expect("parses");
        let err = Scenario::new(32)
            .adversary(sched)
            .phase(Phase::Ae)
            .run(1)
            .unwrap_err();
        assert!(matches!(err, ScenarioError::UnsupportedAdversary { .. }));
        assert!(err.to_string().contains("sched"));
    }

    #[test]
    fn bad_service_specs_are_rejected() {
        let err = Scenario::new(32).run_service(1).unwrap_err();
        assert!(matches!(err, ScenarioError::ServiceSpecInvalid { .. }));
        let err = Scenario::new(32).service(0, 1).run_service(1).unwrap_err();
        assert!(matches!(err, ScenarioError::ServiceSpecInvalid { .. }));
        let err = Scenario::new(32)
            .service(2, 1)
            .service_arrivals(vec![0])
            .run_service(1)
            .unwrap_err();
        assert!(err.to_string().contains("entries"));
        let err = Scenario::new(32)
            .service(2, 1)
            .service_arrivals(vec![5, 1])
            .run_service(1)
            .unwrap_err();
        assert!(err.to_string().contains("non-decreasing"));
        let err = Scenario::new(32)
            .service(2, 1)
            .service_value_seeds(vec![1, 2, 3])
            .run_service(1)
            .unwrap_err();
        assert!(matches!(err, ScenarioError::ServiceSpecInvalid { .. }));
        let err = Scenario::new(32)
            .phase(Phase::Ae)
            .service(2, 1)
            .run_service(1)
            .unwrap_err();
        assert!(matches!(err, ScenarioError::UnsupportedService { .. }));
    }

    #[test]
    fn crash_specs_are_validated() {
        // A window crashing more nodes than the system has…
        let err = Scenario::new(16)
            .faults_spec("crash:[2..5]64".parse().expect("parses"))
            .validate()
            .unwrap_err();
        assert!(
            matches!(err, ScenarioError::CrashSpecInvalid { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("only has 16"), "{err}");
        // …and a phase the crash engine does not drive are both rejected,
        // by validate() and the run entry points alike.
        let err = Scenario::new(64)
            .phase(Phase::Ae)
            .faults_spec("crash:[2..5]4".parse().expect("parses"))
            .run(1)
            .unwrap_err();
        assert!(
            matches!(err, ScenarioError::CrashSpecInvalid { .. }),
            "{err}"
        );
    }

    #[test]
    fn validate_raises_exactly_what_the_run_entry_points_raise() {
        let spec = |text: &str| text.parse::<AdversarySpec>().expect("parses");
        let crash = |text: &str| text.parse::<fba_recovery::CrashSpec>().expect("parses");
        let klst = Phase::Baseline(Baseline::Klst {
            precondition: PreconditionSpec::default(),
        });
        let mut rows = vec![
            // Scale, config, schedule coherence, phase/adversary fit.
            Scenario::new(3),
            Scenario::new(Scenario::MAX_N + 1).phase(Phase::Ae),
            Scenario::new(64).quorum_size(0),
            Scenario::new(64).phase(Phase::Composed).quorum_size(0),
            // Wider than the run's vote masks, though below n.
            Scenario::new(256).quorum_size(128),
            Scenario::new(64).adversary(spec("sched:[0..2]silent:3;[2..]flood")),
            Scenario::new(64)
                .phase(Phase::Ae)
                .adversary(AdversarySpec::PushFlood),
            Scenario::new(64)
                .phase(Phase::Composed)
                .ae_adversary(AdversarySpec::PushFlood),
            Scenario::new(64)
                .phase(klst)
                .adversary(spec("sched:[0..]silent")),
            // Crash schedules.
            Scenario::new(16).faults_spec(crash("crash:[2..5]64")),
            Scenario::new(64)
                .phase(Phase::Ae)
                .faults_spec(crash("crash:[2..5]4")),
            // Service specs.
            Scenario::new(64).service(0, 1),
            Scenario::new(64).service(2, 1).service_arrivals(vec![5]),
            Scenario::new(64).service(2, 1).service_arrivals(vec![5, 1]),
            Scenario::new(64).service(2, 1).service_value_seeds(vec![1]),
            Scenario::new(64).phase(Phase::Ae).service(2, 1),
            Scenario::new(3).service(2, 1),
            // A budget above n in the composed run's other adversary.
            Scenario::new(64)
                .phase(Phase::Composed)
                .ae_adversary(spec("silent:100")),
        ];
        // Budgets above n and delay bounds the run cannot outlast, in
        // every phase.
        for phase in [Phase::aer(0.8), Phase::Ae, Phase::Composed, klst] {
            let base = Scenario::new(64).phase(phase);
            for max_delay in [u64::MAX, u64::from(u32::MAX), 10_000] {
                let network = NetworkSpec::Async { max_delay };
                rows.push(base.clone().network(network));
                rows.push(
                    base.clone()
                        .network(network)
                        .poll_timeout(PollTimeoutSpec::DelayScaled),
                );
            }
            rows.push(base.clone().faults(100));
            rows.push(base.clone().faults(100).adversary(spec("silent")));
            rows.push(base.clone().adversary(spec("silent:100")));
            rows.push(base.adversary(spec("sched:[0..3]silent:100;[3..]none")));
        }
        // A knowledge fraction that is not one, in every phase that
        // synthesises a precondition from it.
        let not_a_fraction = |knowing: f64| {
            let precondition = PreconditionSpec::knowing(knowing);
            [
                Phase::Aer { precondition },
                Phase::Baseline(Baseline::Klst { precondition }),
                Phase::Baseline(Baseline::Flood { precondition }),
            ]
            .map(|phase| Scenario::new(64).phase(phase))
        };
        rows.extend(not_a_fraction(2.0));
        rows.extend(not_a_fraction(-0.1));
        for scenario in rows {
            let err = scenario.validate().expect_err("every row is invalid");
            let ran = match scenario.service {
                Some(_) => scenario.run_service(1).map(drop),
                None => scenario.run(1).map(drop),
            };
            assert_eq!(ran, Err(err.clone()), "{scenario:?}");
            if matches!(
                err,
                ScenarioError::Config(_) | ScenarioError::UnsupportedScale { .. }
            ) {
                assert_eq!(scenario.aer_config(), Err(err), "{scenario:?}");
            }
        }
        // `NaN` is rejected too (it equals nothing, itself included, so it
        // cannot ride in the table above).
        for scenario in not_a_fraction(f64::NAN) {
            for result in [scenario.validate(), scenario.run(1).map(drop)] {
                assert!(
                    matches!(result, Err(ScenarioError::KnowingOutOfRange { knowing }) if knowing.is_nan()),
                    "{scenario:?}"
                );
            }
        }
        assert_eq!(
            Scenario::new(64).phase(Phase::aer(2.0)).validate(),
            Err(ScenarioError::KnowingOutOfRange { knowing: 2.0 })
        );
        for edge in [0.0, 1.0] {
            assert_eq!(Scenario::new(64).phase(Phase::aer(edge)).validate(), Ok(()));
        }
        // The two rejections that used to be panics name both numbers.
        assert_eq!(
            Scenario::new(64).faults(100).validate(),
            Err(ScenarioError::FaultBudgetTooLarge { budget: 100, n: 64 })
        );
        let network = NetworkSpec::Async { max_delay: 400 };
        assert_eq!(
            Scenario::new(64).network(network).validate(),
            Err(ScenarioError::DelayBoundTooLarge {
                max_delay: 400,
                max_steps: 400
            })
        );
        let network = NetworkSpec::Async { max_delay: 399 };
        assert_eq!(Scenario::new(64).network(network).validate(), Ok(()));
        assert_eq!(Scenario::new(64).faults(64).validate(), Ok(()));
    }
}
