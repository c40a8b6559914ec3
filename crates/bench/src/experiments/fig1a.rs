//! Figure 1a reproduction: the almost-everywhere → everywhere comparison.
//!
//! Three protocols per system size:
//!
//! * KLST11-style load-balanced diffusion — `O(log² n)` rounds, `Õ(√n)`
//!   bits/node;
//! * AER, synchronous non-rushing — `O(1)` rounds, polylog bits/node;
//! * AER, asynchronous with the rushing cornering adversary —
//!   `O(log n / log log n)` rounds, polylog bits/node, *not*
//!   load-balanced.
//!
//! All three tables (`f1a-time`, `f1a-bits`, `f1a-load`) are reports over
//! one grid: [`tables`] runs the sweep once and renders it three times.

use fba_ae::UnknowingAssignment;
use fba_scenario::{Baseline, Phase, PreconditionSpec};
use fba_sim::{AdversarySpec, NetworkSpec};

use crate::battery::{Agg, Battery, Report, RowCtx};
use crate::experiments::common::{aer_scenario, log2, loglog_ratio, summarize, KNOWING};
use crate::metric::AerSummary;
use crate::scope::Scope;
use crate::table::fnum;

/// Everything one `(n, seed)` cell of the sweep produces: the three
/// protocols' summaries and the two load imbalances.
struct SeedOutcome {
    klst: AerSummary,
    klst_imb: f64,
    sync: AerSummary,
    cornered: AerSummary,
    aer_imb: f64,
}

fn run_cell(n: usize, seed: u64) -> SeedOutcome {
    let t = (n as f64 * 0.15) as usize;
    let silent = AdversarySpec::Silent { t: None };

    // --- KLST-style baseline (load-balanced, slow, heavy) ---
    let klst = fba_scenario::Scenario::new(n)
        .phase(Phase::Baseline(Baseline::Klst {
            precondition: PreconditionSpec::new(KNOWING, UnknowingAssignment::RandomPerNode),
        }))
        .faults(t)
        .adversary(silent.clone())
        .run(seed)
        .expect("klst scenario")
        .into_baseline()
        .outcome;

    // --- AER, synchronous, non-rushing (silent t) ---
    let sync = aer_scenario(n, KNOWING, UnknowingAssignment::RandomPerNode)
        .faults(t)
        .adversary(silent);

    // --- AER, asynchronous, rushing cornering adversary ---
    // Strict mode strands the θ-fraction of unlucky poll lists, so the
    // median is the robust time statistic here (l6 reports the tail
    // separately).
    let cornered = aer_scenario(n, KNOWING, UnknowingAssignment::RandomPerNode)
        .strict()
        .network(NetworkSpec::Async { max_delay: 1 })
        .adversary(AdversarySpec::Corner { label_scan: 256 })
        .run(seed)
        .expect("corner scenario")
        .into_aer();
    SeedOutcome {
        klst: AerSummary::of_metrics(klst.metrics(), klst.all_decided_at()),
        klst_imb: klst.metrics().recv_load().imbalance,
        sync: summarize(&sync, seed),
        cornered: AerSummary::of(&cornered),
        aer_imb: cornered.run.metrics.recv_load().imbalance,
    }
}

/// A `×N` growth cell against the previous row (`-` on the first row).
fn growth(ctx: &RowCtx<'_, usize, SeedOutcome>, f: impl Fn(&SeedOutcome) -> Option<f64>) -> String {
    if ctx.index == 0 {
        return "-".to_string();
    }
    let cur = ctx.mean_at(ctx.index, &f).unwrap_or(0.0);
    let prev = ctx.mean_at(ctx.index - 1, &f).unwrap_or(0.0);
    format!("×{}", fnum(cur / prev.max(1.0)))
}

/// Figure 1a: the `Time`, `Bits` and `Load-Balanced` rows, in that order
/// (`f1a-time`, `f1a-bits`, `f1a-load`), rendered from one sweep — one
/// axis (`n`), the scope's seed set, one expensive `run_cell` per cell.
#[must_use]
pub fn tables(scope: Scope) -> [Report; 3] {
    let base = |id: &str, title: &str| {
        Battery::new(id, title, |&n, seed| run_cell(n, seed))
            .axes(&["n"], |n| vec![n.to_string()])
            .points(scope.aer_sizes())
            .point_n(|&n| n)
    };
    let time = base(
        "f1a-time",
        "f1a-time — Fig. 1a `Time`: rounds to decision (median over correct nodes, mean over seeds)",
    )
    .col("KLST-style (sync)", Agg::Mean, |o: &SeedOutcome| o.klst.p50)
    .col("AER sync non-rushing", Agg::Mean, |o: &SeedOutcome| {
        o.sync.p50
    })
    .col("AER async rushing", Agg::Mean, |o: &SeedOutcome| {
        o.cornered.p50
    })
    .col_point("ref log²n", |&n| fnum(log2(n) * log2(n)))
    .col_point("ref logn/loglogn", |&n| fnum(loglog_ratio(n)))
    .note("paper: KLST11 O(log²n), AER O(1) sync non-rushing, O(logn/loglogn) async.")
    .note("AER async runs use strict mode (no retries) so the cornering chains are visible.")
    .note("`n/a`: no run in the cell reached the decision quantile (all-undecided cell).");
    let bits = base(
        "f1a-bits",
        "f1a-bits — Fig. 1a `Bits`: amortized bits per node (mean over seeds)",
    )
    .col("KLST-style", Agg::Mean, |o: &SeedOutcome| Some(o.klst.bits))
    .col("AER sync", Agg::Mean, |o: &SeedOutcome| Some(o.sync.bits))
    .col("AER async", Agg::Mean, |o: &SeedOutcome| {
        Some(o.cornered.bits)
    })
    .col_derived("KLST growth", |ctx| growth(ctx, |o| Some(o.klst.bits)))
    .col_derived("AER growth", |ctx| growth(ctx, |o| Some(o.sync.bits)))
    .col_derived("ref √n growth", |ctx| {
        if ctx.index == 0 {
            "-".to_string()
        } else {
            let n = *ctx.point() as f64;
            let prev = ctx.grid.points[ctx.index - 1] as f64;
            format!("×{}", fnum((n / prev).sqrt()))
        }
    })
    .note("paper: KLST11 Õ(√n) vs AER O(log²n) — compare the growth columns, not absolutes:")
    .note("AER's constants (d³ routing fan-out) dominate at laptop n; its *growth* is polylog.");
    let load = base(
        "f1a-load",
        "f1a-load — Fig. 1a `Load-Balanced`: max/mean received bits across correct nodes",
    )
    .col("KLST-style imbalance", Agg::Mean, |o: &SeedOutcome| {
        Some(o.klst_imb)
    })
    .col("AER imbalance (cornered)", Agg::Mean, |o: &SeedOutcome| {
        Some(o.aer_imb)
    })
    .note("paper: KLST11 is load-balanced (ratio ≈ 1); AER deliberately is not —")
    .note("the adversary concentrates verification work on a few victims (§1).");
    let grid = time.grid(scope);
    [&time, &bits, &load].map(|battery| battery.report_from(&grid))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_full_tables() {
        let [time, bits, load] = tables(Scope::Quick).map(|report| report.table);
        assert_eq!(time.rows.len(), Scope::Quick.aer_sizes().len());
        assert_eq!(bits.rows.len(), time.rows.len());
        assert_eq!(load.rows.len(), time.rows.len());
        // Sanity: AER sync rounds stay small (retry tails allowed at the
        // tiny quick-scope sizes where poll lists are noisy).
        for row in &time.rows {
            let sync_rounds: f64 = row[2].parse().unwrap();
            assert!(sync_rounds > 0.0 && sync_rounds < 45.0, "row {row:?}");
        }
        // Growth columns anchor at `-` and carry ratios after.
        assert_eq!(bits.rows[0][4], "-");
        assert!(bits.rows[1][4].starts_with('×'), "row {:?}", bits.rows[1]);
    }
}
