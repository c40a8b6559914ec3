//! The `crashes` battery: rejoin cost of the crash–restart fault family.
//!
//! Drives [`Scenario::faults_spec`] over system size × dark-window
//! length: every cell crashes a fixed fraction of the system mid push
//! wave (`crash:[3..3+len]k`), lets the engine drop the victims' traffic
//! for the window, restarts them from their checkpoints, and reports how
//! many steps and extra messages they need to reconverge. Each crashed
//! run is paired with the no-fault run at the same seed, so the message
//! overhead is a like-for-like difference, not an absolute.

use fba_recovery::CrashSpec;
use fba_scenario::Scenario;
use fba_sim::{Step, Window};

use crate::battery::{product2, Agg, Battery, Report, SeedPolicy};
use crate::experiments::common::workload_sizes;
use crate::scope::{mean_opt, Scope};

/// The dark-window lengths the battery sweeps. Every window opens at
/// step 3 — mid push wave, after the victims have accepted candidates
/// worth checkpointing but before the pull phase settles.
pub const CRASH_WINDOW_LENGTHS: [Step; 3] = [4, 8, 16];

/// The fraction of the system each cell crashes (`n / CRASH_DIVISOR`,
/// at least one node).
pub const CRASH_DIVISOR: usize = 16;

fn crash_count(n: usize) -> usize {
    (n / CRASH_DIVISOR).max(1)
}

/// The crash schedule for one cell: one dark window `[3..3+len)` taking
/// out `n / 16` nodes.
#[must_use]
pub fn cell_spec(n: usize, window_len: Step) -> CrashSpec {
    CrashSpec::new(vec![(Window::bounded(3, 3 + window_len), crash_count(n))])
        .expect("one non-empty window past step 0")
}

/// One crashed run next to its same-seed baseline.
struct Cell {
    decided_fraction: f64,
    all_rejoined: bool,
    max_rejoin_steps: Option<f64>,
    mean_rejoin_steps: Option<f64>,
    msgs_dropped: f64,
    msg_overhead: f64,
}

fn run_cell(n: usize, window_len: Step, seed: u64) -> Cell {
    let baseline = Scenario::new(n);
    let crashed = baseline.clone().faults_spec(cell_spec(n, window_len));
    let run = crashed
        .run(seed)
        .expect("crash battery scenario")
        .into_aer();
    let base = baseline
        .run(seed)
        .expect("crash battery baseline")
        .into_aer();
    let rejoin = run.rejoin().expect("crash plan ran");
    let outage_means: Vec<f64> = rejoin
        .outages
        .iter()
        .filter_map(|outage| outage.mean_rejoin_steps)
        .collect();
    Cell {
        decided_fraction: run.run.metrics.decided_fraction(),
        all_rejoined: rejoin.all_rejoined(),
        max_rejoin_steps: rejoin.max_rejoin_steps().map(|s| s as f64),
        mean_rejoin_steps: mean_opt(&outage_means),
        msgs_dropped: run.run.metrics.msgs_dropped() as f64,
        msg_overhead: run.run.metrics.total_msgs_sent() as f64
            - base.run.metrics.total_msgs_sent() as f64,
    }
}

/// The `crashes` experiment: rejoin cost per (n, dark-window length).
#[must_use]
pub fn table(scope: Scope) -> Report {
    Battery::new(
        "crashes",
        "crashes — dark window, restart from checkpoint, rejoin cost vs the same-seed baseline",
        |&(n, window_len): &(usize, Step), seed| run_cell(n, window_len, seed),
    )
    .axes(&["n", "schedule"], |&(n, window_len)| {
        vec![n.to_string(), cell_spec(n, window_len).to_string()]
    })
    .points(product2(&workload_sizes(scope), &CRASH_WINDOW_LENGTHS))
    .point_n(|&(n, _)| n)
    .seeds(SeedPolicy::ThinAt {
        threshold: 4096,
        max: 4,
    })
    .col_point("dark steps", |&(_, window_len)| window_len.to_string())
    .col_point("crashed", |&(n, _)| crash_count(n).to_string())
    .col_runs("runs")
    .col("min decided", Agg::Min, |o: &Cell| Some(o.decided_fraction))
    .col_derived("all rejoined", |ctx| {
        let all = ctx.outcomes().iter().all(|o| o.all_rejoined);
        if all { "yes" } else { "NO" }.to_string()
    })
    .json_metric("all rejoined", Agg::Min, |o: &Cell| {
        Some(f64::from(u8::from(o.all_rejoined)))
    })
    .col("rejoin steps max", Agg::Max, |o: &Cell| o.max_rejoin_steps)
    .col("rejoin steps mean", Agg::Mean, |o: &Cell| {
        o.mean_rejoin_steps
    })
    .col("msgs dropped", Agg::Mean, |o: &Cell| Some(o.msgs_dropped))
    .col("msg overhead", Agg::Mean, |o: &Cell| Some(o.msg_overhead))
    .note("Every window opens at step 3 and crashes n/16 nodes. `rejoin steps` count from")
    .note("a victim's restart to its decision (a run where some victim never decided has")
    .note("no max and shows under `all rejoined`); `msg overhead` is messages sent minus")
    .note("the same-seed no-fault run (dark nodes also stop sending, so it can be negative).")
    .report(scope)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_specs_crash_a_sixteenth_of_the_system_from_step_three() {
        assert_eq!(cell_spec(256, 4).to_string(), "crash:[3..7]16");
        assert_eq!(
            cell_spec(8, 4).to_string(),
            "crash:[3..7]1",
            "at least one victim"
        );
    }
}
