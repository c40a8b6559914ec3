//! gstring entropy experiment: the "`2/3 + ε` of gstring's bits are
//! uniformly random" precondition structure (§2.1, §3).
//!
//! The paper's gstring is produced by a committee whose corrupt members
//! can bias — but only — the bits *they* contribute. We reproduce that:
//! a `ρ` fraction of nodes contribute a fixed constant instead of private
//! randomness (semi-honest bias), and we measure what fraction of
//! gstring's bits those members actually controlled. With `ρ ≤ 1/3 − ε`
//! the uniform fraction must stay above `2/3 + ε` — exactly the
//! assumption Lemma 5's union bound needs.

use std::collections::BTreeSet;

use fba_scenario::{Phase, Scenario};
use fba_sim::choose_corrupt;

use crate::battery::{product2, Agg, Battery, Report};
use crate::scope::Scope;
use crate::table::fnum;

/// One cell run: committee-rigging stats are absent when the run formed
/// no supreme committee.
struct Cell {
    committee_rigged: Option<f64>,
    controlled: Option<f64>,
    knowing: f64,
}

/// The entropy table: rigged fraction vs measured controlled-bit
/// fraction.
#[must_use]
pub fn table(scope: Scope) -> Report {
    let sizes = match scope {
        Scope::Quick => vec![64usize],
        _ => vec![64, 256, 1024],
    };
    Battery::new(
        "gbits",
        "gbits — §2.1: fraction of gstring bits the adversary controls",
        |&(n, rho): &(usize, f64), seed| {
            let k = ((n as f64) * rho).round() as usize;
            let mut rng = fba_sim::rng::derive_rng(seed, &[0x9b]);
            let rigged: BTreeSet<_> = choose_corrupt(n, k, &mut rng);
            let run = Scenario::new(n)
                .phase(Phase::Ae)
                .rig(rigged.clone(), 0)
                .run(seed)
                .expect("gbits scenario")
                .into_ae();
            let (out, cfg) = (run.outcome, run.config);
            let stats = out.supreme_committee.as_ref().map(|committee| {
                let rigged_members = committee.iter().filter(|m| rigged.contains(m)).count();
                // Each member controls an equal slice of gstring.
                let per = cfg.string_len.div_ceil(committee.len());
                let controlled_bits = (rigged_members * per).min(cfg.string_len) as f64;
                (
                    rigged_members as f64 / committee.len() as f64 * 100.0,
                    controlled_bits / cfg.string_len as f64 * 100.0,
                )
            });
            let (committee_rigged, controlled) = stats.unzip();
            Cell {
                committee_rigged,
                controlled,
                knowing: out.knowing_fraction * 100.0,
            }
        },
    )
    .axes(&["n", "rigged fraction"], |&(n, rho)| {
        vec![n.to_string(), fnum(rho)]
    })
    .points(product2(&sizes, &[0.0, 0.15, 0.30]))
    .point_n(|&(n, _)| n)
    .col("committee rigged %", Agg::Mean, |o: &Cell| {
        o.committee_rigged
    })
    .col("controlled bits %", Agg::Mean, |o: &Cell| o.controlled)
    .col_derived("uniform bits %", |ctx| {
        // The complement of the *plain* controlled mean (0 when no run
        // formed a committee), matching the controlled column's source.
        fnum(100.0 - ctx.mean_at(ctx.index, |o| o.controlled).unwrap_or(0.0))
    })
    .col("knowing %", Agg::Mean, |o: &Cell| Some(o.knowing))
    .note("rigged members follow the protocol but contribute constants instead of")
    .note("randomness. Controlled-bit % tracks the rigged committee fraction (≈ ρ);")
    .note("with ρ ≤ 1/3 the uniform fraction stays ≥ 2/3 — the paper's precondition.")
    .report(scope)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_fraction_stays_above_two_thirds() {
        let t = table(Scope::Quick).table;
        for row in &t.rows {
            let rho: f64 = row[1].parse().unwrap();
            let uniform: f64 = row[4].parse().unwrap();
            let knowing: f64 = row[5].parse().unwrap();
            assert!(knowing > 99.0, "bias must not break agreement: {row:?}");
            if rho <= 0.30 {
                assert!(
                    uniform > 55.0,
                    "uniform fraction collapsed under rho={rho}: {row:?}"
                );
            }
            if rho == 0.0 {
                assert!(uniform > 99.0, "no rigging, no control: {row:?}");
            }
        }
    }
}
