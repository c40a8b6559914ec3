//! §4.1 / §2.2 sampler-property experiments: the Lemma 1 and Lemma 2
//! behaviour of the instantiated sampler functions — a pure-computation
//! battery (no engine runs).

use fba_samplers::properties::{
    good_majority_fraction, greedy_min_border, indegree_stats, property1_bad_fraction,
    random_good_set,
};
use fba_samplers::{PollSampler, QuorumSampler, StringKey};
use fba_sim::rng::derive_rng;

use crate::battery::{Agg, Battery, Report, SeedPolicy};
use crate::scope::Scope;

/// The sampler-property table: Lemma 1 goodness, Lemma 2 Property 1 & 2,
/// and overload (in-degree) concentration.
#[must_use]
pub fn table(scope: Scope) -> Report {
    type Cell = (f64, f64, f64, f64);
    // The cheap-sweep ladder from n = 256 up: below it `d` is most of `n`.
    let sizes: Vec<usize> = scope
        .light_sizes()
        .into_iter()
        .filter(|&n| n >= 256)
        .collect();
    Battery::new(
        "s41",
        "s41 — §4.1: empirical sampler properties",
        |&n: &usize, seed| -> Cell {
            let d = fba_samplers::default_quorum_size(n, 3.0);
            let mut rng = derive_rng(seed, &[0x41]);
            let q = QuorumSampler::new(seed, fba_samplers::tags::PUSH, n, d);
            let j = PollSampler::new(seed, n, d, PollSampler::default_cardinality(n));
            // Good set of measure 1/2 + ε (ε = 0.15 here).
            let good = random_good_set(n, 0.65, &mut rng);
            let goodness = good_majority_fraction(&q, StringKey(seed), &good);
            let p1 = property1_bad_fraction(&j, &good, 2, &mut rng);
            let family = (n / (fba_sim::ceil_log2(n) as usize).max(1)).clamp(4, 64);
            let reports = greedy_min_border(&j, &[family], 8, &mut rng);
            let (max_in, _) = indegree_stats(&q, StringKey(seed));
            (goodness, p1, reports[0].ratio, max_in as f64 / d as f64)
        },
    )
    .axes(&["n"], |n| vec![n.to_string()])
    .points(sizes)
    .point_n(|&n| n)
    .seeds(SeedPolicy::Capped { max: 3 })
    .col_point("d", |&n| {
        fba_samplers::default_quorum_size(n, 3.0).to_string()
    })
    .col("good-majority quorums", Agg::Mean, |o: &Cell| Some(o.0))
    .col("bad poll lists (P1)", Agg::Mean, |o: &Cell| Some(o.1))
    .col("min border ratio (P2)", Agg::Mean, |o: &Cell| Some(o.2))
    .col("max in-degree / d", Agg::Mean, |o: &Cell| Some(o.3))
    .note("Lemma 1: good-majority fraction → 1, no node overloaded (in-degree O(d)).")
    .note("Lemma 2 P1: vanishing fraction of (x, r) poll lists with good minority.")
    .note("Lemma 2 P2: the adversarially-grown family's border ratio must exceed 2/3.")
    .report(scope)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn properties_hold_at_quick_scale() {
        let t = table(Scope::Quick).table;
        for row in &t.rows {
            let goodness: f64 = row[2].parse().unwrap();
            let p1: f64 = row[3].parse().unwrap();
            let p2: f64 = row[4].parse().unwrap();
            let overload: f64 = row[5].parse().unwrap();
            assert!(goodness > 0.9, "{row:?}");
            assert!(p1 < 0.1, "{row:?}");
            assert!(p2 > 2.0 / 3.0, "{row:?}");
            assert!(overload < 3.0, "{row:?}");
        }
    }
}
