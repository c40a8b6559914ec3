//! The composed-fault-schedule gauntlet: mixed-adversary batteries.
//!
//! The paper's adversary is adaptive in behaviour — it can corrupt the
//! schedule, silence nodes, and flood at different moments of one run.
//! The `sched:` grammar makes that matrix *data*: every row of this
//! battery is a parseable fault schedule (windows of distinct strategies)
//! swept across system sizes, reporting decision time and communication
//! per schedule. Safety and liveness must hold across every window
//! boundary, which no single-strategy experiment exercises.
//!
//! All runs use the asynchronous engine (`async:1`) with the
//! delay-scaled poll timeout, handing the adversary its full scheduling
//! power in every window.

use crate::battery::{product2, Battery, Report, SeedPolicy};
use crate::experiments::common::run_schedule;
use crate::scope::Scope;

/// The schedule matrix: every entry is a parseable adversary spec — the
/// battery is data, not wiring. The bare `silent` row is the
/// single-strategy control the schedules are read against.
pub const SCHEDULES: &[(&str, &str)] = &[
    ("silent (control)", "silent"),
    ("flood->silent", "sched:[0..1]flood;[1..]silent"),
    ("silent->bad-string", "sched:[0..2]silent;[2..]bad-string"),
    (
        "flood->equivocate->corner",
        "sched:[0..1]flood;[1..3]equivocate:8;[3..]corner:256",
    ),
    ("corner->silent", "sched:[0..4]corner:256;[4..]silent"),
];

/// System sizes per scope. The default scope runs the full
/// 256/1024/4096 matrix the schedule battery is specified over; quick
/// keeps CI-sized systems.
#[must_use]
pub fn gauntlet_sizes(scope: Scope) -> Vec<usize> {
    match scope {
        Scope::Quick => vec![64, 128],
        Scope::Default | Scope::Full => vec![256, 1024, 4096],
        Scope::Huge => vec![1024, 4096, 8192],
        Scope::Extreme => vec![4096, 8192, 16384],
    }
}

/// The `gauntlet` experiment: decision steps and bits per schedule.
#[must_use]
pub fn table(scope: Scope) -> Report {
    Battery::new(
        "gauntlet",
        "gauntlet — composed fault schedules: mixed-adversary batteries",
        |&((name, spec), n): &((&str, &str), usize), seed| run_schedule(name, spec, n, seed),
    )
    .axes(&["schedule", "n"], |&((name, _), n)| {
        vec![name.to_string(), n.to_string()]
    })
    .points(product2(SCHEDULES, &gauntlet_sizes(scope)))
    .point_n(|&(_, n)| n)
    // Adversarial runs at n >= 4096 cost ~10 s each; the thinning is a
    // declared policy surfaced in the notes and JSON, not a silent take(3).
    .seeds(SeedPolicy::ThinAt {
        threshold: 4096,
        max: 3,
    })
    .metrics(&["decided", "rounds", "rounds-max", "bits"], |o| *o)
    .note("Each schedule assigns one strategy per step window (the sched: grammar);")
    .note("windows keep their own state, so e.g. the corner window still reports its")
    .note("plan. Async engine, delay-scaled poll timeout, SharedAdversarial precondition.")
    .report(scope)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::schedule_scenario;

    #[test]
    fn quick_gauntlet_decides_everywhere() {
        let t = table(Scope::Quick).table;
        assert_eq!(
            t.rows.len(),
            SCHEDULES.len() * gauntlet_sizes(Scope::Quick).len()
        );
        for row in &t.rows {
            let decided: f64 = row[2].parse().unwrap();
            assert!(decided > 99.0, "row {row:?}");
            assert_ne!(row[4], "n/a", "someone never decided: {row:?}");
        }
        // The declared thinning policy surfaces in the notes.
        assert!(
            t.notes.iter().any(|n| n.contains("n >= 4096")),
            "{:?}",
            t.notes
        );
    }

    #[test]
    fn mixed_three_strategy_schedule_decides_at_scale() {
        // The acceptance bar: a schedule mixing >= 3 strategies completes
        // with everyone deciding at n = 1024 (debug builds run n = 256;
        // release/CI and the paperbench battery cover 1024+).
        let n = if cfg!(debug_assertions) { 256 } else { 1024 };
        let out = schedule_scenario("sched:[0..1]flood;[1..3]equivocate:8;[3..]corner:256", n)
            .run(1)
            .expect("valid scenario")
            .into_aer();
        assert!(out.run.all_decided(), "everyone decides at n={n}");
        assert_eq!(out.wrong_decisions(), 0);
        assert!(out.corner.is_some(), "corner window state surfaces");
    }
}
