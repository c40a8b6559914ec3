//! Quorum-size ablation: the reliability/communication trade-off behind
//! the paper's `d = Θ(log n)` choice (and the load-balancing trade-off
//! its conclusion poses as future work).
//!
//! Smaller `d` means cheaper quorums (`Θ(d³)` routing per verification)
//! but weaker majorities: the strict-mode decided fraction degrades as
//! quorum sampling noise overwhelms the `1/2 + ε` margin.

use fba_ae::UnknowingAssignment;
use fba_sim::AdversarySpec;

use crate::battery::{Battery, Report};
use crate::experiments::common::{aer_scenario, summarize, KNOWING};
use crate::scope::Scope;
use crate::table::fnum;

/// The ablation table: κ (in `d = ⌈κ·ln n⌉`) vs decided %, bits and time.
#[must_use]
pub fn table(scope: Scope) -> Report {
    let n = match scope {
        Scope::Quick => 64,
        _ => 256,
    };
    Battery::new(
        "ablate-d",
        "ablate-d — quorum size vs reliability and cost (strict mode)",
        move |&kappa: &f64, seed| {
            let d = fba_samplers::default_quorum_size(n, kappa);
            let scenario = aer_scenario(n, KNOWING, UnknowingAssignment::RandomPerNode)
                .quorum_size(d)
                .strict()
                .adversary(AdversarySpec::Silent { t: None });
            summarize(&scenario, seed)
        },
    )
    .axes(&["kappa"], |&kappa| vec![fnum(kappa)])
    .points(vec![1.5, 2.0, 3.0, 4.0])
    .col_point("d", move |&kappa| {
        fba_samplers::default_quorum_size(n, kappa).to_string()
    })
    .metrics(&["decided", "rounds", "bits"], |o| *o)
    .note(format!(
        "n = {n}, strict mode, silent-t adversary. Larger quorums buy reliability"
    ))
    .note("(decided %) at Θ(d³) communication cost — the knob behind `d = Θ(log n)`.")
    .report(scope)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigger_quorums_are_more_reliable_and_more_expensive() {
        let t = table(Scope::Quick).table;
        let first_decided: f64 = t.rows.first().unwrap()[2].parse().unwrap();
        let last_decided: f64 = t.rows.last().unwrap()[2].parse().unwrap();
        assert!(
            last_decided >= first_decided - 3.0,
            "reliability should not degrade with d: {first_decided} → {last_decided}"
        );
        let first_bits: f64 = t.rows.first().unwrap()[4].parse().unwrap();
        let last_bits: f64 = t.rows.last().unwrap()[4].parse().unwrap();
        assert!(
            last_bits > 2.0 * first_bits,
            "d³ scaling must show in bits: {first_bits} vs {last_bits}"
        );
    }
}
