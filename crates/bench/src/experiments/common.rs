//! Shared experiment plumbing.

use fba_ae::UnknowingAssignment;
use fba_scenario::{Phase, PreconditionSpec, Scenario};

use crate::scope::Scope;

/// Standard knowledge fraction used by the sweeps (the paper's
/// assumption, with working margin at finite scale).
pub const KNOWING: f64 = 0.8;

/// The baseline scenario every AER experiment refines: `n` nodes on a
/// synchronous network, a synthetic precondition with the given
/// knowledge fraction and unknowing-assignment mode, no adversary.
/// Experiments chain [`Scenario`] setters (adversary, network, tuning
/// knobs) onto it — all run wiring lives in the builder.
pub fn aer_scenario(n: usize, knowing: f64, mode: UnknowingAssignment) -> Scenario {
    Scenario::new(n).phase(Phase::Aer {
        precondition: PreconditionSpec::new(knowing, mode),
    })
}

/// System sizes per scope for the workload batteries (`service`,
/// `crashes`) — capped at 4096: every cell runs several full AER
/// executions (a chain of instances, or a crashed run plus its
/// baseline).
#[must_use]
pub fn workload_sizes(scope: Scope) -> Vec<usize> {
    match scope {
        Scope::Quick => vec![256],
        Scope::Default => vec![1024],
        Scope::Full | Scope::Huge => vec![1024, 4096],
        Scope::Extreme => vec![4096],
    }
}

/// Reference column: `⌈log₂ n⌉`.
pub fn log2(n: usize) -> f64 {
    f64::from(fba_sim::ceil_log2(n))
}

/// Reference column: `log n / log log n` (natural logs, clamped).
pub fn loglog_ratio(n: usize) -> f64 {
    let ln = fba_sim::ln_at_least_one(n);
    ln / ln.ln().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fba_scenario::PollTimeoutSpec;

    #[test]
    fn scenario_builder_applies_config_knobs() {
        let out = aer_scenario(64, 0.75, UnknowingAssignment::RandomPerNode)
            .overload_cap(7)
            .strict()
            .run(1)
            .expect("valid scenario")
            .into_aer();
        assert_eq!(out.config.overload_cap, 7);
        assert_eq!(out.config.poll_attempts, 1);
        assert_eq!(out.precondition.assignments.len(), 64);
        // And it runs.
        assert!(out.run.unanimous().is_some());
    }

    #[test]
    fn poll_timeout_knob_reaches_the_config() {
        let out = aer_scenario(64, 0.75, UnknowingAssignment::RandomPerNode)
            .poll_timeout(PollTimeoutSpec::Fixed(9))
            .run(1)
            .expect("valid scenario")
            .into_aer();
        assert_eq!(out.config.poll_timeout, 9);
    }

    #[test]
    fn workload_sizes_cover_the_acceptance_regimes_below_the_frontier() {
        assert_eq!(workload_sizes(Scope::Quick), vec![256]);
        assert_eq!(workload_sizes(Scope::Full), vec![1024, 4096]);
        for scope in [
            Scope::Quick,
            Scope::Default,
            Scope::Full,
            Scope::Huge,
            Scope::Extreme,
        ] {
            assert!(workload_sizes(scope).iter().all(|&n| n <= 4096));
        }
    }

    #[test]
    fn reference_columns() {
        assert_eq!(log2(1024), 10.0);
        assert!(loglog_ratio(1024) > 3.0 && loglog_ratio(1024) < 4.0);
    }
}
