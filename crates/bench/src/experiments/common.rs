//! Shared experiment plumbing.

use fba_ae::UnknowingAssignment;
use fba_scenario::{Phase, PollTimeoutSpec, Scenario};
use fba_sim::{AdversarySpec, NetworkSpec};

use crate::metric::AerSummary;
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
    Scenario::new(n).phase(Phase::aer_with(knowing, mode))
}

/// Runs an AER `scenario` at `seed` and keeps its summary. Panics on an
/// invalid scenario: callers declare theirs in code or pre-flight them.
pub(crate) fn summarize(scenario: &Scenario, seed: u64) -> AerSummary {
    AerSummary::of(&scenario.run(seed).expect("experiment scenario").into_aer())
}

/// The regime of the schedule batteries (`gauntlet`, `recovery`): the
/// adversary `spec` on the asynchronous engine (`async:1`, so it holds
/// its full scheduling power in every window) with the delay-scaled poll
/// timeout, over the worst-case `SharedAdversarial` precondition.
pub(crate) fn schedule_scenario(spec: &str, n: usize) -> Scenario {
    let spec: AdversarySpec = spec.parse().expect("schedule row parses");
    aer_scenario(n, KNOWING, UnknowingAssignment::SharedAdversarial)
        .adversary(spec)
        .network(NetworkSpec::Async { max_delay: 1 })
        .poll_timeout(PollTimeoutSpec::DelayScaled)
}

/// One cell of a schedule battery: [`schedule_scenario`] run at `seed`.
/// Safety must hold across every window boundary of every schedule, so a
/// wrong decision panics.
pub(crate) fn run_schedule(name: &str, spec: &str, n: usize, seed: u64) -> AerSummary {
    let summary = summarize(&schedule_scenario(spec, n), seed);
    assert_eq!(
        summary.wrong, 0.0,
        "safety violated under fault schedule {name} (n={n}, seed={seed})"
    );
    summary
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

    #[test]
    fn scenario_builder_applies_config_knobs() {
        let out = aer_scenario(64, 0.75, UnknowingAssignment::RandomPerNode)
            .overload_cap(7)
            .strict()
            .run(1)
            .expect("valid scenario")
            .into_aer();
        assert_eq!(out.config.overload_cap, 7);
        assert_eq!(out.config.repair_attempts, 0);
        assert_eq!(out.precondition.assignments.len(), 64);
        // And it runs.
        assert!(out.run.unanimous().is_some());
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
