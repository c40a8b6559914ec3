//! The almost-everywhere substrate contract experiment (§2.1
//! precondition): knowing fraction, rounds and bits per node of the
//! committee-tree phase — a declarative battery.

use fba_scenario::{Phase, Scenario};
use fba_sim::AdversarySpec;

use crate::battery::{product2, Agg, Battery, Report};
use crate::scope::Scope;
use crate::table::fnum;

/// The AE contract table.
#[must_use]
pub fn table(scope: Scope) -> Report {
    type Cell = (f64, f64, f64);
    const ADVERSARIES: [(&str, f64); 2] = [("none", 0.0), ("silent 15%", 0.15)];
    Battery::new(
        "ae",
        "ae — §2.1 precondition: the almost-everywhere phase contract",
        |&(n, (_, t_frac)): &(usize, (&str, f64)), seed| -> Cell {
            let mut scenario = Scenario::new(n).phase(Phase::Ae);
            if t_frac > 0.0 {
                scenario = scenario
                    .faults((n as f64 * t_frac) as usize)
                    .adversary(AdversarySpec::Silent { t: None });
            }
            let outcome = scenario.run(seed).expect("ae scenario").into_ae().outcome;
            (
                outcome.knowing_fraction * 100.0,
                outcome.run.metrics.steps as f64,
                outcome.run.metrics.amortized_bits(),
            )
        },
    )
    .axes(&["n", "adversary"], |&(n, (name, _))| {
        vec![n.to_string(), name.to_string()]
    })
    .points(product2(&scope.light_sizes(), &ADVERSARIES))
    .point_n(|&(n, _)| n)
    .col("knowing %", Agg::Mean, |o: &Cell| Some(o.0))
    .col("rounds", Agg::Mean, |o: &Cell| Some(o.1))
    .col("bits/node", Agg::Mean, |o: &Cell| Some(o.2))
    .col_derived("bits growth", |ctx| {
        // Growth against the previous adversary-free row (the points are
        // n-major, so that row is two back), printed over the ×n scale
        // jump it happened across — `-` on the first size and on the
        // adversarial rows.
        let &(n, (name, _)) = ctx.point();
        if name != "none" || ctx.index < 2 {
            return "-".to_string();
        }
        let (prev_n, _) = ctx.grid.points[ctx.index - 2];
        let bits = ctx.mean_at(ctx.index, |o| Some(o.2)).unwrap_or(0.0);
        let prev_bits = ctx.mean_at(ctx.index - 2, |o| Some(o.2)).unwrap_or(0.0);
        format!(
            "×{} over ×{}",
            fnum(bits / prev_bits.max(1.0)),
            fnum(n as f64 / prev_n as f64)
        )
    })
    .note("contract: > 75% of correct nodes know gstring, polylog rounds, polylog bits/node")
    .note("(the bits growth column should lag far behind the ×n growth it is printed over).")
    .report(scope)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_holds_at_quick_scale() {
        let t = table(Scope::Quick).table;
        for row in &t.rows {
            let knowing: f64 = row[2].parse().unwrap();
            assert!(knowing > 75.0, "contract violated: {row:?}");
        }
        // The growth column anchors and only fills on adversary-free rows.
        assert_eq!(t.rows[0][5], "-");
        assert_eq!(t.rows[1][5], "-");
        assert!(t.rows[2][5].contains("over"), "row {:?}", t.rows[2]);
    }
}
