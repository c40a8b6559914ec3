//! Recovery batteries: attack-window-then-quiet schedules measuring
//! re-convergence after the adversary stops.
//!
//! Every row is *pure data*: a `sched:` spec whose first window mounts an
//! attack and whose open tail window is `none` (the adversary goes
//! quiet — `none` windows are budget-exempt in the schedule grammar, so
//! any attack composes with a quiet tail). The battery reports how long
//! after the window boundary the system takes to fully converge — the
//! ROADMAP's "recovery battery" candidate, expressed entirely as battery
//! spec rows with zero new sweep code.
//!
//! Runs mirror the gauntlet regime: asynchronous engine (`async:1`),
//! delay-scaled poll timeout, worst-case `SharedAdversarial`
//! precondition.

use crate::battery::{product2, Agg, Battery, Report, SeedPolicy};
use crate::experiments::common::run_schedule;
use crate::metric::AerSummary;
use crate::scope::Scope;

/// The attack rows: `(label, schedule, boundary)` where `boundary` is
/// the step the attack window closes (the recovery clock's zero).
pub const ATTACKS: &[(&str, &str, u64)] = &[
    ("flood burst", "sched:[0..3]flood;[3..]none", 3),
    ("equivocate burst", "sched:[0..3]equivocate:8;[3..]none", 3),
    ("silence window", "sched:[0..6]silent;[6..]none", 6),
    ("corner window", "sched:[0..6]corner:256;[6..]none", 6),
];

/// System sizes per scope (adversarial async runs, so the ladder matches
/// the gauntlet's budget).
#[must_use]
pub fn recovery_sizes(scope: Scope) -> Vec<usize> {
    match scope {
        Scope::Quick => vec![64, 128],
        Scope::Default | Scope::Full => vec![256, 1024],
        Scope::Huge => vec![1024, 4096],
        Scope::Extreme => vec![4096, 8192],
    }
}

/// One cell: the run's summary, and the steps past the window boundary
/// the last decision needed (0 when everyone decided inside the attack
/// window; absent when someone never decided).
struct Cell {
    run: AerSummary,
    recovery: Option<f64>,
}

/// The `recovery` experiment: re-convergence time after the attack
/// window closes, per schedule and system size.
#[must_use]
pub fn table(scope: Scope) -> Report {
    Battery::new(
        "recovery",
        "recovery — attack window then quiet: re-convergence after the boundary",
        |&((name, spec, boundary), n): &((&str, &str, u64), usize), seed| {
            let run = run_schedule(name, spec, n, seed);
            let recovery = run.max.map(|s| (s - boundary as f64).max(0.0));
            Cell { run, recovery }
        },
    )
    .axes(&["attack", "n"], |&((name, _, _), n)| {
        vec![name.to_string(), n.to_string()]
    })
    .points(product2(ATTACKS, &recovery_sizes(scope)))
    .point_n(|&(_, n)| n)
    .seeds(SeedPolicy::ThinAt {
        threshold: 4096,
        max: 3,
    })
    .col_point("window", |&((_, _, boundary), _)| {
        format!("[0..{boundary})")
    })
    .metrics(&["decided", "rounds"], |o: &Cell| o.run)
    .col("all decided", Agg::Mean, |o: &Cell| o.run.max)
    .col("recovery steps", Agg::Mean, |o: &Cell| o.recovery)
    .col("recovery max", Agg::Max, |o: &Cell| o.recovery)
    .metrics(&["bits"], |o: &Cell| o.run)
    .note("Each row is one sched: spec — an attack window, then the adversary goes quiet")
    .note("(`none` tail window). `recovery steps` counts async steps past the boundary the")
    .note("last correct node needed; 0 means convergence inside the attack window itself.")
    .note("Async engine, delay-scaled poll timeout, SharedAdversarial precondition.")
    .report(scope)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_recovery_converges_after_every_attack() {
        let r = table(Scope::Quick);
        let t = &r.table;
        assert_eq!(
            t.rows.len(),
            ATTACKS.len() * recovery_sizes(Scope::Quick).len()
        );
        for row in &t.rows {
            let decided: f64 = row[3].parse().unwrap();
            assert!(decided > 99.0, "row {row:?}");
            assert_ne!(row[6], "n/a", "someone never re-converged: {row:?}");
            let recovery: f64 = row[6].parse().unwrap();
            assert!(
                (0.0..200.0).contains(&recovery),
                "recovery steps out of range: {row:?}"
            );
        }
        // The battery is data: every schedule row round-trips the grammar.
        for (_, spec, _) in ATTACKS {
            let parsed: fba_sim::AdversarySpec = spec.parse().expect("attack row parses");
            assert_eq!(parsed.to_string(), *spec, "Display round-trip");
        }
        // And its JSON reporter carries the recovery metric per cell.
        let json = crate::json::Value::parse(&r.cells_json).expect("recovery JSON parses");
        let cells = json.get("cells").unwrap().as_array().unwrap();
        assert_eq!(cells.len(), t.rows.len());
        assert!(cells[0]
            .get("metrics")
            .unwrap()
            .as_object()
            .unwrap()
            .contains_key("recovery steps"));
    }
}
