//! The timed pass (`--trace 0`): tracing off, the workload driven only
//! through `Scenario`, end-to-end metrics out.
//!
//! The loop is closed — the next call starts when the previous returns —
//! and cycles through the run's distinct call seeds until the time budget
//! is spent. The first lap fixes the simulated-cost metrics, so they are
//! exact functions of `(workload, seed)` whatever the host's speed; every
//! later call repeats a seed, must reproduce its digest, and gives that
//! input a second timing.

use std::time::Instant;

use crate::metrics::{PassResult, END_TO_END};
use crate::ops::{call_digest, timed_call, Call, Op};
use crate::stats::median;
use crate::wired;
use crate::workload::Workload;

/// Set-up timings per run: at least this many …
const SETUP_MIN_REPS: usize = 5;
/// … and more while they are cheap, up to this many or this budget.
const SETUP_MAX_REPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.5;

/// The `i`-th call seed of the run seeded `seed`. Runs with different
/// `--seed` share no call seed.
#[must_use]
pub fn call_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1 << 16).wrapping_add(i as u64)
}

/// Peak resident set of this process (`VmHWM`), MiB.
///
/// # Panics
///
/// Panics where `/proc/self/status` has no `VmHWM` line: the metric is
/// part of the contract, so a host that cannot report it cannot run the
/// benchmark.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Median wall time of the set-up a user pays on every run.
fn setup_s(workload: &Workload, seed: u64) -> f64 {
    let scenario = workload.scenario();
    let start = Instant::now();
    let mut samples = Vec::with_capacity(SETUP_MAX_REPS);
    while samples.len() < SETUP_MIN_REPS
        || (samples.len() < SETUP_MAX_REPS && start.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        let call = call_seed(seed, samples.len() % workload.distinct_seeds);
        let (_deployment, times) = wired::setup(workload, &scenario, call);
        samples.push(times.total_s());
    }
    median(&samples)
}

/// Runs the timed pass for about `seconds` seconds of calls.
#[must_use]
pub fn timed_pass(workload: &Workload, seed: u64, seconds: f64) -> PassResult {
    let scenario = workload.scenario();
    let ops_per_call = workload.ops_per_call();
    let laps = workload.distinct_seeds;
    let setup = setup_s(workload, seed);

    // At least one full lap plus one repeat; after that, another call
    // only if the mean call so far still fits the budget.
    let mut calls: Vec<Call> = Vec::new();
    let mut first_call_rss = 0.0;
    let mut failed = 0usize;
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if calls.len() > laps && elapsed + elapsed / calls.len() as f64 > seconds {
            break;
        }
        let slot = calls.len() % laps;
        let (call, _outcome) = timed_call(workload, &scenario, call_seed(seed, slot));
        failed += call.failed_ops(ops_per_call);
        // Determinism check (a): the same seed run twice.
        if calls.len() >= laps && call_digest(&call.ops) != call_digest(&calls[slot].ops) {
            eprintln!(
                "{}: call seed {} did not reproduce its digest",
                workload.name,
                call_seed(seed, slot)
            );
            failed += ops_per_call;
        }
        if calls.is_empty() {
            // What one fresh run needs. Later calls only ratchet the
            // high-water mark up with whichever seed was heaviest.
            first_call_rss = peak_rss_mib();
        }
        calls.push(call);
    }

    let attempted = calls.len() * ops_per_call;
    let failed = failed.min(attempted);

    // Per distinct seed, the quietest of its laps: the host's noise only
    // ever adds time, and a repeat of the same seed is the same work.
    let best: Vec<&Call> = (0..laps)
        .map(|slot| {
            calls[slot..]
                .iter()
                .step_by(laps)
                .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
                .expect("every slot ran in the first lap")
        })
        .collect();
    let run_wall: Vec<f64> = best
        .iter()
        .map(|call| call.wall_s / ops_per_call as f64)
        .collect();
    let decisions_per_s: Vec<f64> = best
        .iter()
        .map(|call| call.decisions() as f64 / call.wall_s)
        .collect();

    let first_lap: Vec<&Op> = calls[..laps].iter().flat_map(|call| &call.ops).collect();
    let lap_mean = |f: fn(&Op) -> f64| {
        first_lap.iter().map(|op| f(op)).sum::<f64>() / first_lap.len().max(1) as f64
    };

    let values = [
        setup,
        median(&run_wall),
        median(&decisions_per_s),
        first_call_rss,
        1.0 - failed as f64 / attempted as f64,
        lap_mean(|op| op.mean_decided_at),
        lap_mean(|op| op.amortized_bits),
    ];
    PassResult {
        correct: failed == 0,
        attempted: attempted as u64,
        failed: failed as u64,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(def, value)| (def.name.to_string(), value, def.unit))
            .collect(),
    }
}
