//! [`ScenarioError`]: every way the builder rejects a scenario.

use std::fmt;

use fba_core::ConfigError;
use fba_sim::{AdversarySpec, Step};

/// A scenario the builder rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioError {
    /// The derived [`AerConfig`](fba_core::AerConfig) violated a paper constraint.
    Config(ConfigError),
    /// The adversary spec names an AER-specific strategy, but the phase
    /// runs a protocol it cannot attack.
    UnsupportedAdversary {
        /// The offending spec.
        spec: AdversarySpec,
        /// The phase that cannot field it.
        phase: &'static str,
    },
    /// The system size is outside the supported simulation range: below
    /// 8 nodes the samplers and fault budgets are degenerate; above
    /// [`Scenario::MAX_N`](crate::Scenario::MAX_N) a full AER run would queue tens of gigabytes
    /// of messages per step and die by OOM rather than by a clear error.
    UnsupportedScale {
        /// The requested system size.
        n: usize,
        /// The bound it violates (8 or [`Scenario::MAX_N`](crate::Scenario::MAX_N)).
        bound: usize,
    },
    /// Service mode (chained agreement instances) was requested for a
    /// phase other than AER — the persistent run state it threads across
    /// instances only exists for the AER engine.
    UnsupportedService {
        /// The phase the scenario would run.
        phase: &'static str,
    },
    /// The service spec is unusable: never set, or zero instances.
    ServiceSpecInvalid {
        /// What was wrong.
        reason: String,
    },
    /// The crash–restart schedule cannot run under this scenario: a
    /// window crashes more nodes than the system has, or the schedule
    /// was set for a phase the crash engine does not drive.
    CrashSpecInvalid {
        /// What was wrong.
        reason: String,
    },
    /// A fault schedule's windows disagree on the corruption budget:
    /// the windows would draw different coalitions, silently corrupting
    /// more nodes than the declared fault bound.
    ScheduleBudgetMismatch {
        /// The window whose budget disagrees with an earlier window's.
        window: fba_sim::Window,
        /// That window's effective corruption budget.
        got: usize,
        /// The budget the earlier corrupting windows use.
        expected: usize,
    },
    /// An effective corruption budget — `.faults(t)`, a bare
    /// `silent:<t>`, or a `silent:<t>` window of a schedule — exceeds the
    /// system size: there are not that many nodes to corrupt.
    FaultBudgetTooLarge {
        /// The offending budget.
        budget: usize,
        /// The system size.
        n: usize,
    },
    /// The asynchronous delay bound is not below the step budget of the
    /// engine it would configure: no message sent under it could be
    /// waited out, so the bound is meaningless (and the calendar ring
    /// would be sized by it).
    DelayBoundTooLarge {
        /// The requested `async:<max_delay>`.
        max_delay: Step,
        /// The step budget of the phase's engine.
        max_steps: Step,
    },
    /// The synthetic precondition's knowledge fraction is not a fraction:
    /// outside `[0, 1]`, or not a number at all.
    KnowingOutOfRange {
        /// The requested fraction.
        knowing: f64,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Config(e) => write!(f, "invalid AER config: {e}"),
            ScenarioError::UnsupportedAdversary { spec, phase } => write!(
                f,
                "adversary `{spec}` is AER-specific and cannot attack the {phase} phase \
                 (use `none` or `silent[:t]`)"
            ),
            ScenarioError::UnsupportedScale { n, bound } if n < bound => write!(
                f,
                "n = {n} is below the smallest supported system size of {bound}: the \
                 samplers and the fault budget are degenerate below it"
            ),
            ScenarioError::UnsupportedScale { n, bound } => write!(
                f,
                "n = {n} exceeds the supported system-size bound of {bound}: a full AER run \
                 queues Θ(n·d³) messages per step (tens of gigabytes past the bound)"
            ),
            ScenarioError::UnsupportedService { phase } => write!(
                f,
                "service mode (chained instances) only drives the AER phase, not {phase}; \
                 drop `.service(..)` or set `.phase(Phase::aer(..))`"
            ),
            ScenarioError::ServiceSpecInvalid { reason } => {
                write!(f, "invalid service spec: {reason}")
            }
            ScenarioError::CrashSpecInvalid { reason } => {
                write!(f, "invalid crash spec: {reason}")
            }
            ScenarioError::ScheduleBudgetMismatch {
                window,
                got,
                expected,
            } => write!(
                f,
                "fault-schedule window {window} budgets {got} corrupted nodes but earlier \
                 windows budget {expected}; all corrupting windows must share one \
                 coalition (same `silent:<t>` override, or the scenario fault budget)"
            ),
            ScenarioError::FaultBudgetTooLarge { budget, n } => write!(
                f,
                "a corruption budget of {budget} exceeds the system size n = {n}"
            ),
            ScenarioError::DelayBoundTooLarge {
                max_delay,
                max_steps,
            } => write!(
                f,
                "delay bound async:{max_delay} is not below the run's step budget of \
                 {max_steps}: no delivery could be waited out"
            ),
            ScenarioError::KnowingOutOfRange { knowing } => {
                write!(f, "knowledge fraction {knowing} is outside [0, 1]")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<ConfigError> for ScenarioError {
    fn from(e: ConfigError) -> Self {
        ScenarioError::Config(e)
    }
}
