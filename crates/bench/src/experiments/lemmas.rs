//! Lemma-level experiments: push costs (L3), candidate-list totals (L4),
//! push reliability (L5), safety (L7) and the synchronous end-to-end
//! summary (L9) — each a declarative battery.

use fba_ae::{Precondition, UnknowingAssignment};
use fba_core::push::push_targets;
use fba_core::{AerConfig, AerNode};
use fba_samplers::GString;
use fba_scenario::{AerRun, Scenario};
use fba_sim::{AdversarySpec, FinalInspect, NodeId};

use crate::battery::{product2, Agg, Battery, Report, SeedPolicy};
use crate::experiments::common::{aer_scenario, log2, summarize, KNOWING};
use crate::metric::AerSummary;
use crate::scope::Scope;
use crate::table::fnum;

/// Lemma 3: push-phase messages and bits per correct node.
///
/// Each node `y` pushes to `{x : y ∈ I(s_y, x)}`; Lemma 3 says this is
/// `O(log n)` messages of `O(log n)` bits each. Measured directly from
/// the push target lists (which is exactly what `on_start` transmits) —
/// a pure sampler computation, no engine run.
#[must_use]
pub fn l3(scope: Scope) -> Report {
    Battery::new(
        "l3",
        "l3 — Lemma 3: push cost per correct node",
        |&n: &usize, seed| {
            let cfg = AerConfig::recommended(n);
            let pre = Precondition::synthetic(
                n,
                cfg.string_len,
                KNOWING,
                UnknowingAssignment::RandomPerNode,
                seed,
            );
            // Push targets are the real measure: node `i` pushes its
            // string to everyone whose quorum for that string holds `i`.
            let targets = push_targets(&cfg.scheme(), &pre.assignments);
            let counts: Vec<usize> = targets.iter().map(Vec::len).collect();
            let total = counts.iter().sum::<usize>() as f64;
            let msg_bits = cfg.string_len as u64 + 3 + 2 * u64::from(fba_sim::ceil_log2(n));
            (
                total / n as f64,
                counts.iter().copied().max().unwrap_or(0) as f64,
                total * msg_bits as f64 / n as f64,
            )
        },
    )
    .axes(&["n"], |n| vec![n.to_string()])
    .points(scope.light_sizes())
    .point_n(|&n| n)
    .seeds(SeedPolicy::Capped { max: 3 })
    .col_point("d", |&n| {
        fba_samplers::default_quorum_size(n, 3.0).to_string()
    })
    .col("msgs/node (mean)", Agg::Mean, |o: &(f64, f64, f64)| {
        Some(o.0)
    })
    .col("msgs/node (max)", Agg::Max, |o: &(f64, f64, f64)| Some(o.1))
    .col("bits/node", Agg::Mean, |o: &(f64, f64, f64)| Some(o.2))
    .col_point("ref log²n", |&n| fnum(log2(n) * log2(n)))
    .note("paper: O(log n) messages of O(log n) bits per good node, no node overloaded.")
    .report(scope)
}

/// Runs `scenario`, snapshotting every surviving node's candidate list
/// through the observer hook.
fn candidate_lists(scenario: &Scenario, seed: u64) -> (AerRun, Vec<Vec<GString>>) {
    let mut lists = Vec::new();
    let mut inspect = FinalInspect(|_id: NodeId, node: &AerNode| {
        lists.push(node.candidates().to_vec());
    });
    let run = scenario.run_observed(seed, &mut inspect);
    (run.expect("valid scenario").into_aer(), lists)
}

/// Lemma 4: sum of candidate-list sizes is `O(n)` even under coherent
/// push flooding and equivocation.
#[must_use]
pub fn l4(scope: Scope) -> Report {
    const ADVERSARIES: [&str; 3] = ["none", "push-flood", "equivocate×8"];
    Battery::new(
        "l4",
        "l4 — Lemma 4: Σ|Lx| per node under push attacks",
        |&(n, adv_name): &(usize, &str), seed| {
            let base = aer_scenario(n, KNOWING, UnknowingAssignment::RandomPerNode);
            let bad = GString::random(
                AerConfig::recommended(n).string_len,
                &mut fba_sim::rng::derive_rng(seed, &[0xbad]),
            );
            let scenario = match adv_name {
                "none" => base,
                "push-flood" => base.adversary(AdversarySpec::PushFlood).bad_string(bad),
                _ => base.adversary(AdversarySpec::Equivocate { strings: 8 }),
            };
            let (_, lists) = candidate_lists(&scenario, seed);
            let sizes = lists.iter().map(Vec::len);
            (
                sizes.clone().sum::<usize>() as f64 / n as f64,
                sizes.max().unwrap_or(0) as f64,
            )
        },
    )
    .axes(&["n", "adversary"], |&(n, adv)| {
        vec![n.to_string(), adv.to_string()]
    })
    .points(product2(&scope.aer_sizes(), &ADVERSARIES))
    .point_n(|&(n, _)| n)
    .seeds(SeedPolicy::Capped { max: 3 })
    .col("Σ|Lx|/n", Agg::Mean, |o: &(f64, f64)| Some(o.0))
    .col("max |Lx|", Agg::Max, |o: &(f64, f64)| Some(o.1))
    .note("paper: the sum of candidate-list sizes is O(n) — the per-node column must stay")
    .note("bounded by a constant as n grows, regardless of the attack.")
    .report(scope)
}

/// Lemma 5: every correct node has gstring in its candidate list after
/// the push phase.
#[must_use]
pub fn l5(scope: Scope) -> Report {
    Battery::new(
        "l5",
        "l5 — Lemma 5: gstring lands in every candidate list",
        |&n: &usize, seed| {
            let scenario = aer_scenario(n, KNOWING, UnknowingAssignment::RandomPerNode)
                .adversary(AdversarySpec::Silent { t: None });
            // Count misses against the gstring the run itself carried —
            // no out-of-band precondition rebuild to keep in lockstep.
            let (out, lists) = candidate_lists(&scenario, seed);
            let g = out.precondition.gstring;
            let missing = lists.iter().filter(|l| !l.contains(&g)).count();
            (missing as f64, lists.len() as f64)
        },
    )
    .axes(&["n"], |n| vec![n.to_string()])
    .points(scope.aer_sizes())
    .point_n(|&n| n)
    .col_runs("runs")
    .col("nodes missing gstring", Agg::Sum, |o: &(f64, f64)| {
        Some(o.0)
    })
    .col_derived("fraction with gstring", |ctx| {
        // A ratio of sums across the cell's runs (not a mean of ratios):
        // the fraction of all observed nodes that held gstring.
        let missing: f64 = ctx.samples(|o| Some(o.0)).iter().sum();
        let nodes: f64 = ctx.samples(|o| Some(o.1)).iter().sum();
        fnum(1.0 - missing / nodes.max(1.0))
    })
    .note("paper: w.h.p. each node has gstring in Lx at the end of the push phase;")
    .note("finite-size misses shrink as n (and d = 3·ln n) grow.")
    .report(scope)
}

/// Lemma 7: no correct node decides on anything but gstring, across the
/// whole attack suite.
#[must_use]
pub fn l7(scope: Scope) -> Report {
    let n = match scope {
        Scope::Quick => 64,
        _ => 128,
    };
    // The attack suite as spec strings — the sweep is data, not wiring.
    const ADVERSARIES: [(&str, &str, &str); 7] = [
        ("none", "none", "sync"),
        ("silent-t", "silent", "sync"),
        ("random-flood", "random-flood:16,4", "sync"),
        ("push-flood", "push-flood", "sync"),
        ("equivocate", "equivocate:8", "sync"),
        ("bad-string", "bad-string", "sync"),
        ("corner(async)", "corner:256", "async:1"),
    ];
    Battery::new(
        "l7",
        "l7 — Lemma 7: wrong-decision census under every adversary",
        move |&(_, adversary, network): &(&str, &str, &str), seed| {
            // Worst-case precondition: the unknowing block shares one
            // bogus string the adversary campaigns for (the builder's
            // default campaign string).
            let out = aer_scenario(n, KNOWING, UnknowingAssignment::SharedAdversarial)
                .adversary(adversary.parse().expect("l7 adversary parses"))
                .network(network.parse().expect("l7 network parses"))
                .run(seed)
                .expect("l7 scenario")
                .into_aer();
            (out.run.outputs.len() as f64, out.wrong_decisions() as f64)
        },
    )
    .axes(&["adversary"], |(name, _, _)| vec![(*name).to_string()])
    .points(ADVERSARIES.to_vec())
    .col_runs("runs")
    .col("decisions", Agg::Sum, |o: &(f64, f64)| Some(o.0))
    .col("wrong decisions", Agg::Sum, |o: &(f64, f64)| Some(o.1))
    .note(format!(
        "n = {n}, worst-case precondition (unknowing block shares the campaign string)."
    ))
    .note("paper: any node decides on gstring w.h.p. — the wrong column should be 0.")
    .report(scope)
}

/// Lemma 9: the synchronous non-rushing end-to-end summary — constant
/// rounds, Õ(n) messages.
#[must_use]
pub fn l9(scope: Scope) -> Report {
    Battery::new(
        "l9",
        "l9 — Lemma 9: AER end-to-end, synchronous, non-rushing",
        |&n: &usize, seed| {
            let scenario = aer_scenario(n, KNOWING, UnknowingAssignment::RandomPerNode)
                .adversary(AdversarySpec::Silent { t: None });
            summarize(&scenario, seed)
        },
    )
    .axes(&["n"], |n| vec![n.to_string()])
    .points(scope.aer_sizes())
    .point_n(|&n| n)
    .metrics(&["decided", "rounds", "rounds-p95"], |o| *o)
    .col("msgs total / n", Agg::Mean, |o: &AerSummary| Some(o.msgs))
    .col_point("ref log³n", |&n| fnum(log2(n).powi(3)))
    .note("paper: O(1) rounds and Õ(n) total messages (the msgs/n column is the Õ(1)·polylog")
    .note("amortization; compare its growth against the log³n reference).")
    .report(scope)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l3_rows_cover_sizes() {
        let t = l3(Scope::Quick).table;
        assert_eq!(t.rows.len(), Scope::Quick.light_sizes().len());
        // mean msgs/node ≈ d.
        for row in &t.rows {
            let d: f64 = row[1].parse().unwrap();
            let mean_msgs: f64 = row[2].parse().unwrap();
            assert!((mean_msgs - d).abs() < 1.0, "row {row:?}");
        }
        // The capped seed policy is declared in the notes, not silent.
        assert!(
            t.notes.iter().any(|n| n.contains("first 3 seed")),
            "{:?}",
            t.notes
        );
    }

    #[test]
    fn l4_per_node_totals_are_bounded() {
        let t = l4(Scope::Quick).table;
        for row in &t.rows {
            let per_node: f64 = row[2].parse().unwrap();
            assert!(
                per_node < 4.0,
                "Σ|Lx|/n should be a small constant: {row:?}"
            );
        }
    }

    #[test]
    fn l7_reports_zero_wrong_under_quick_scope() {
        let t = l7(Scope::Quick).table;
        for row in &t.rows {
            assert_eq!(row[3], "0", "wrong decision under {row:?}");
        }
    }
}
