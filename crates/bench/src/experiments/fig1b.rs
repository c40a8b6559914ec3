//! Figure 1b reproduction: the Byzantine Agreement comparison.
//!
//! End-to-end BA (almost-everywhere phase + AER) against the two
//! implementable lineage baselines: Ben-Or's randomized binary agreement
//! (`[BO83]`, the `Θ(n²)`-message classic Fig. 1b's randomized rows
//! descend from) and Phase-King (the deterministic `t+1`-round
//! counterpoint enforcing the Fischer–Lynch bound). `[BOPV06]`'s
//! `n^{O(log n)}` communication and `[KS13]`'s `Õ(n².⁵)` bits are not
//! implementable at any useful scale, so the table has no row for them.

use fba_baselines::{BenOrParams, KingParams};
use fba_core::AerConfig;
use fba_scenario::{Baseline, Phase, Scenario};
use fba_sim::AdversarySpec;

use crate::battery::{product2, Agg, Battery, Report};
use crate::metric::AerSummary;
use crate::scope::Scope;

/// One protocol family of the comparison, as data: its row label, the
/// fault bound it tolerates, and one run of it at `(n, seed)`.
type Protocol = (&'static str, &'static str, fn(usize, u64) -> AerSummary);

/// AE + AER, the paper's composition. The 95 % decision step counts the
/// almost-everywhere rounds before it, and bits and messages are summed
/// over both phases.
const BA: Protocol = ("BA (this paper)", "t < (1/3-ε)n", |n, seed| {
    let silent = AdversarySpec::Silent { t: None };
    let c = Scenario::new(n)
        .phase(Phase::Composed)
        .faults(AerConfig::recommended(n).t.min(n / 8))
        .adversary(silent.clone())
        .ae_adversary(silent)
        .run(seed)
        .expect("composed scenario")
        .into_composed();
    let aer = AerSummary::of_metrics(&c.aer.metrics, c.aer.all_decided_at);
    let msgs = c.ae.run.metrics.correct_msgs_sent() + c.aer.metrics.correct_msgs_sent();
    AerSummary {
        p95: aer.p95.map(|r| c.report.ae_rounds as f64 + r),
        bits: c.report.ae_bits_per_node + c.report.aer_bits_per_node,
        msgs: msgs as f64 / n as f64,
        ..aer
    }
});

/// Ben-Or's randomized binary agreement.
const BEN_OR: Protocol = ("Ben-Or [BO83]", "t < n/5", |n, seed| {
    let t = BenOrParams::recommended(n).t;
    baseline(Baseline::BenOr { bias: 0.9 }, t, n, seed)
});

/// The deterministic Phase-King counterpoint.
const KING: Protocol = ("Phase-King (determ.)", "t < n/4", |n, seed| {
    let t = KingParams::recommended(n).t / 2;
    baseline(Baseline::PhaseKing, t, n, seed)
});

fn baseline(phase: Baseline, t: usize, n: usize, seed: u64) -> AerSummary {
    let run = Scenario::new(n)
        .phase(Phase::Baseline(phase))
        .faults(t)
        .adversary(AdversarySpec::Silent { t: None })
        .run(seed)
        .expect("baseline scenario")
        .into_baseline();
    AerSummary::of_metrics(run.outcome.metrics(), run.outcome.all_decided_at())
}

/// Figure 1b: rounds, bits/node and fault tolerance per protocol. The
/// randomized families sweep the AER size ladder; Phase-King sweeps its
/// own `Θ(n)`-round ladder — one battery whose points chain the two
/// products.
#[must_use]
pub fn table(scope: Scope) -> Report {
    let mut points = product2(&[BA, BEN_OR], &scope.aer_sizes());
    points.extend(product2(&[KING], &scope.king_sizes()));
    Battery::new(
        "f1b",
        "f1b — Fig. 1b: Byzantine Agreement protocols (mean over seeds)",
        |&((_, _, run), n): &(Protocol, usize), seed| run(n, seed),
    )
    .axes(&["protocol", "n"], |&((name, _, _), n)| {
        vec![name.to_string(), n.to_string()]
    })
    .points(points)
    .point_n(|&(_, n)| n)
    .col("rounds", Agg::Mean, |o: &AerSummary| o.p95)
    .metrics(&["bits", "msgs"], |o| *o)
    .col_point("tolerates", |&((_, tolerates, _), _)| tolerates.to_string())
    .note("paper Fig. 1b: BA is polylog in both time and bits; Ben-Or is Θ(n) bits/node per")
    .note("phase; deterministic protocols pay Θ(n) rounds (t+1 lower bound).")
    .note("Ben-Or rows use 90%-biased binary inputs (worst-case Ben-Or is exponential and")
    .note("50/50 inputs stall at these n — which is the very gap this paper's lineage closes).")
    .report(scope)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table_has_all_protocol_rows() {
        let t = table(Scope::Quick).table;
        let ba_rows = t.rows.iter().filter(|r| r[0].contains("BA")).count();
        let bo_rows = t.rows.iter().filter(|r| r[0].contains("Ben-Or")).count();
        let pk_rows = t.rows.iter().filter(|r| r[0].contains("King")).count();
        assert_eq!(ba_rows, Scope::Quick.aer_sizes().len());
        assert_eq!(bo_rows, Scope::Quick.aer_sizes().len());
        assert_eq!(pk_rows, Scope::Quick.king_sizes().len());
    }
}
