//! What a finished scenario hands back, by phase.

use std::collections::BTreeSet;

use fba_ae::{AeConfig, AeOutcome, Precondition};
use fba_baselines::{BenOrMsg, FloodMsg, KingMsg, KlstMsg};
use fba_core::adversary::CornerReport;
use fba_core::{AerConfig, AerMsg, BaConfig, BaReport};
use fba_recovery::{rejoin_report, RejoinReport};
use fba_samplers::GString;
use fba_sim::{EngineConfig, Metrics, MetricsTotals, NodeId, RunOutcome, Step};

/// What a finished scenario produced, by phase.
// One value exists per executed run and is consumed immediately by an
// `into_*` accessor, so the variant size spread is irrelevant.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum ScenarioOutcome {
    /// An AER run on a synthetic precondition.
    Aer(AerRun),
    /// An almost-everywhere run.
    Ae(AeRun),
    /// A composed end-to-end BA run.
    Composed(ComposedRun),
    /// A baseline-protocol run.
    Baseline(BaselineRun),
}

impl ScenarioOutcome {
    /// The AER outcome.
    ///
    /// # Panics
    ///
    /// Panics if the scenario ran a different phase.
    #[must_use]
    pub fn into_aer(self) -> AerRun {
        match self {
            ScenarioOutcome::Aer(run) => run,
            other => panic!("expected an AER outcome, got {}", other.phase_name()),
        }
    }

    /// The almost-everywhere outcome.
    ///
    /// # Panics
    ///
    /// Panics if the scenario ran a different phase.
    #[must_use]
    pub fn into_ae(self) -> AeRun {
        match self {
            ScenarioOutcome::Ae(run) => run,
            other => panic!("expected an AE outcome, got {}", other.phase_name()),
        }
    }

    /// The composed BA outcome.
    ///
    /// # Panics
    ///
    /// Panics if the scenario ran a different phase.
    #[must_use]
    pub fn into_composed(self) -> ComposedRun {
        match self {
            ScenarioOutcome::Composed(run) => run,
            other => panic!("expected a composed outcome, got {}", other.phase_name()),
        }
    }

    /// The baseline outcome.
    ///
    /// # Panics
    ///
    /// Panics if the scenario ran a different phase.
    #[must_use]
    pub fn into_baseline(self) -> BaselineRun {
        match self {
            ScenarioOutcome::Baseline(run) => run,
            other => panic!("expected a baseline outcome, got {}", other.phase_name()),
        }
    }

    fn phase_name(&self) -> &'static str {
        match self {
            ScenarioOutcome::Aer(_) => "aer",
            ScenarioOutcome::Ae(_) => "ae",
            ScenarioOutcome::Composed(_) => "composed",
            ScenarioOutcome::Baseline(_) => "baseline",
        }
    }
}

/// Outcome of a [`Phase::Aer`](crate::Phase::Aer) scenario: the simulator outcome plus
/// everything the builder derived to produce it.
#[derive(Clone, Debug)]
pub struct AerRun {
    /// The simulator outcome (metrics, outputs, corrupt set, transcript).
    pub run: RunOutcome<GString, AerMsg>,
    /// The synthesised precondition the run started from.
    pub precondition: Precondition,
    /// The derived AER configuration.
    pub config: AerConfig,
    /// The engine configuration the run executed under.
    pub engine: EngineConfig,
    /// The cornering attack's report, when the adversary was `corner`.
    pub corner: Option<CornerReport>,
}

impl AerRun {
    /// The global string the correct nodes should decide.
    #[must_use]
    pub fn gstring(&self) -> &GString {
        &self.precondition.gstring
    }

    /// Number of correct nodes that decided a non-`gstring` value.
    #[must_use]
    pub fn wrong_decisions(&self) -> usize {
        let g = &self.precondition.gstring;
        self.run.outputs.values().filter(|v| *v != g).count()
    }

    /// Number of correct nodes in the run.
    #[must_use]
    pub fn correct_nodes(&self) -> usize {
        self.config.n - self.run.corrupt.len()
    }

    /// The rejoin-cost accounting for the crash plan this run executed
    /// (set by [`Scenario::faults_spec`](crate::Scenario::faults_spec)), or `None` for crash-free runs.
    #[must_use]
    pub fn rejoin(&self) -> Option<RejoinReport> {
        self.engine
            .crash
            .as_ref()
            .map(|plan| rejoin_report(plan, &self.run.metrics))
    }
}

/// One instance of a [`Scenario::run_service`](crate::Scenario::run_service) run: the agreement
/// outcome plus its position on the service clock.
#[derive(Clone, Debug)]
pub struct ServiceInstance {
    /// The value seed this instance ran with (`instance_seed(seed, k)`
    /// unless overridden) — replay it standalone with
    /// [`Scenario::run_instance`](crate::Scenario::run_instance).
    pub seed: u64,
    /// The step the client value arrived (offered-load schedule).
    pub arrived_at: Step,
    /// The step the instance actually started (arrival, or right after
    /// the previous instance finished, whichever is later).
    pub started_at: Step,
    /// The step the instance finished (`started_at + steps`).
    pub finished_at: Step,
    /// The full per-instance outcome.
    pub run: AerRun,
}

impl ServiceInstance {
    /// Steps the value waited in the admission queue before starting.
    #[must_use]
    pub fn queue_delay(&self) -> Step {
        self.started_at - self.arrived_at
    }
}

/// Outcome of a [`Scenario::run_service`](crate::Scenario::run_service) run: every chained instance,
/// run-cumulative totals, and the shared-state cache counters that prove
/// the persistent arenas were actually reused.
#[derive(Clone, Debug)]
pub struct ServiceRun {
    /// Per-instance outcomes, in arrival order.
    pub instances: Vec<ServiceInstance>,
    /// Run-cumulative metrics (sums of the per-instance views).
    pub totals: MetricsTotals,
    /// The service clock when the last instance finished.
    pub total_steps: Step,
    /// Push-quorum cache `(hits, misses)` over the whole run.
    pub push_cache_stats: (u64, u64),
    /// Pull-quorum cache `(hits, misses)` over the whole run.
    pub pull_cache_stats: (u64, u64),
    /// Poll-list cache `(hits, misses)` over the whole run.
    pub poll_cache_stats: (u64, u64),
}

impl ServiceRun {
    /// The corrupt coalition (identical in every instance — pinned by
    /// the service adversary seed).
    #[must_use]
    pub fn corrupt(&self) -> &BTreeSet<NodeId> {
        &self.instances[0].run.run.corrupt
    }

    /// Number of instances in which every correct node decided.
    #[must_use]
    pub fn decided_instances(&self) -> u64 {
        self.totals.decided_instances()
    }

    /// The minimum, over instances, of the fraction of correct nodes
    /// that decided.
    #[must_use]
    pub fn min_decided_fraction(&self) -> f64 {
        self.instances
            .iter()
            .map(|inst| inst.run.run.metrics.decided_fraction())
            .fold(1.0, f64::min)
    }

    /// Whether every instance decided unanimously on its `gstring`.
    #[must_use]
    pub fn all_unanimous(&self) -> bool {
        self.instances.iter().all(|inst| {
            inst.run
                .run
                .unanimous()
                .is_some_and(|v| v == inst.run.gstring())
        })
    }

    /// Decisions per thousand service-clock steps — the sustained
    /// throughput headline (`decisions` counts every correct node that
    /// decided, summed over instances).
    #[must_use]
    pub fn decisions_per_kilostep(&self) -> f64 {
        if self.total_steps == 0 {
            return 0.0;
        }
        self.totals.decisions() as f64 * 1000.0 / self.total_steps as f64
    }
}

/// Outcome of a [`Phase::Ae`](crate::Phase::Ae) scenario.
#[derive(Clone, Debug)]
pub struct AeRun {
    /// The distilled almost-everywhere outcome.
    pub outcome: AeOutcome,
    /// The configuration the phase ran under.
    pub config: AeConfig,
}

/// Outcome of a [`Phase::Composed`](crate::Phase::Composed) scenario.
#[derive(Clone, Debug)]
pub struct ComposedRun {
    /// The end-to-end summary.
    pub report: BaReport,
    /// The almost-everywhere phase outcome.
    pub ae: AeOutcome,
    /// The AER phase simulator outcome.
    pub aer: RunOutcome<GString, AerMsg>,
    /// The composed configuration.
    pub config: BaConfig,
}

/// Outcome of a [`Phase::Baseline`](crate::Phase::Baseline) scenario.
#[derive(Clone, Debug)]
pub struct BaselineRun {
    /// The typed simulator outcome.
    pub outcome: BaselineOutcome,
    /// The shared starting state, for the diffusion baselines.
    pub precondition: Option<Precondition>,
    /// The per-node binary inputs, for the agreement baselines.
    pub inputs: Option<Vec<bool>>,
}

/// The four baseline protocols' simulator outcomes.
#[derive(Clone, Debug)]
pub enum BaselineOutcome {
    /// KLST11-style diffusion.
    Klst(RunOutcome<GString, KlstMsg>),
    /// Flooding diffusion.
    Flood(RunOutcome<GString, FloodMsg>),
    /// Ben-Or randomized agreement.
    BenOr(RunOutcome<bool, BenOrMsg>),
    /// Phase-King deterministic agreement.
    King(RunOutcome<bool, KingMsg>),
}

impl BaselineOutcome {
    /// The run's communication/time accounting.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        match self {
            BaselineOutcome::Klst(r) => &r.metrics,
            BaselineOutcome::Flood(r) => &r.metrics,
            BaselineOutcome::BenOr(r) => &r.metrics,
            BaselineOutcome::King(r) => &r.metrics,
        }
    }

    /// Step at which the last correct node decided, if all did.
    #[must_use]
    pub fn all_decided_at(&self) -> Option<Step> {
        match self {
            BaselineOutcome::Klst(r) => r.all_decided_at,
            BaselineOutcome::Flood(r) => r.all_decided_at,
            BaselineOutcome::BenOr(r) => r.all_decided_at,
            BaselineOutcome::King(r) => r.all_decided_at,
        }
    }

    /// Whether every correct node decided.
    #[must_use]
    pub fn all_decided(&self) -> bool {
        self.all_decided_at().is_some()
    }

    /// The diffusion outcome (KLST or flooding).
    ///
    /// # Panics
    ///
    /// Panics on the binary-agreement baselines.
    #[must_use]
    pub fn unanimous_gstring(&self) -> Option<&GString> {
        match self {
            BaselineOutcome::Klst(r) => r.unanimous(),
            BaselineOutcome::Flood(r) => r.unanimous(),
            _ => panic!("binary baselines do not decide gstrings"),
        }
    }

    /// The binary-agreement outcome (Ben-Or or Phase-King).
    ///
    /// # Panics
    ///
    /// Panics on the diffusion baselines.
    #[must_use]
    pub fn unanimous_bit(&self) -> Option<bool> {
        match self {
            BaselineOutcome::BenOr(r) => r.unanimous().copied(),
            BaselineOutcome::King(r) => r.unanimous().copied(),
            _ => panic!("diffusion baselines do not decide bits"),
        }
    }
}
