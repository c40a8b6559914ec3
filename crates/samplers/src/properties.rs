//! Empirical verification of the sampler properties the analysis relies on.
//!
//! The paper proves Lemma 1 and Lemma 2 by the probabilistic method over
//! uniformly random digraphs (§4.1). Our samplers are drawn from exactly
//! that distribution (seeded-hash instantiation), so instead of *assuming*
//! the w.h.p. properties we *measure* them on the instantiated functions:
//!
//! * [`good_majority_fraction`] — Lemma 1 behaviour of `I`/`H`: for a good
//!   set of measure `1/2 + ε`, almost every quorum has a good majority.
//! * [`property1_bad_fraction`] — Lemma 2 Property 1 for `J`: at most a
//!   vanishing fraction of `(x, r)` pairs yields a bad-majority poll list.
//! * [`border`] / [`greedy_min_border`] — Lemma 2 Property 2 / §4.1: the
//!   out-edge border `∂L` of any small label family exceeds `2d|L|/3`,
//!   even when an adversary greedily picks the most self-pointing family.
//! * [`indegree_stats`] — Lemma 1's "no node is overloaded": per-string
//!   quorum in-degrees concentrate around `d`.

use std::collections::BTreeSet;

use fba_sim::NodeId;
use rand::seq::index::sample as index_sample;
use rand::Rng;
use rand_chacha::ChaCha12Rng;

use crate::poll::{Label, PollSampler};
use crate::quorum::QuorumSampler;
use crate::strings::StringKey;

/// A subset of nodes flagged "good" (correct and knowledgeable, in the
/// paper's push/pull analysis).
pub type GoodSet = BTreeSet<NodeId>;

/// Samples a uniformly random good set containing a `fraction` of `[n]`.
#[must_use]
pub fn random_good_set(n: usize, fraction: f64, rng: &mut ChaCha12Rng) -> GoodSet {
    let k = ((n as f64) * fraction).round() as usize;
    let k = k.min(n);
    index_sample(rng, n, k)
        .into_iter()
        .map(NodeId::from_index)
        .collect()
}

/// Fraction of nodes `x ∈ [n]` whose quorum for string `s` has a strict
/// majority of good members.
///
/// Lemma 1 predicts this approaches 1 when the good set has measure
/// `1/2 + ε` and `d = Θ(log n)`.
#[must_use]
pub fn good_majority_fraction(q: &QuorumSampler, s: StringKey, good: &GoodSet) -> f64 {
    let n = q.n();
    let mut ok = 0usize;
    for xi in 0..n {
        let x = NodeId::from_index(xi);
        let members = q.quorum(s, x);
        let good_members = members.iter().filter(|y| good.contains(y)).count();
        if good_members >= q.majority() {
            ok += 1;
        }
    }
    ok as f64 / n as f64
}

/// Lemma 2 Property 1, measured: fraction of sampled `(x, r)` pairs whose
/// poll list `J(x, r)` has a good *minority* (i.e. is "bad").
///
/// `labels_per_node` labels are drawn uniformly per node.
#[must_use]
pub fn property1_bad_fraction(
    j: &PollSampler,
    good: &GoodSet,
    labels_per_node: usize,
    rng: &mut ChaCha12Rng,
) -> f64 {
    let n = j.n();
    let mut bad = 0usize;
    let mut total = 0usize;
    for xi in 0..n {
        let x = NodeId::from_index(xi);
        for _ in 0..labels_per_node {
            let r = j.random_label(rng);
            let list = j.poll_list(x, r);
            let good_members = list.iter().filter(|w| good.contains(w)).count();
            total += 1;
            if good_members < j.majority() {
                bad += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        bad as f64 / total as f64
    }
}

/// The §4.1 border `|∂L|` of a label family: the number of edges from the
/// labeled vertices in `L` to unlabeled vertices outside
/// `L* = {y : ∃r, (y, r) ∈ L}`.
///
/// # Panics
///
/// Panics if two pairs in `pairs` share a node (the paper requires
/// `|L ∩ ({x} × R)| ≤ 1`).
#[must_use]
pub fn border(j: &PollSampler, pairs: &[(NodeId, Label)]) -> usize {
    let mut l_star: BTreeSet<NodeId> = BTreeSet::new();
    for (x, _) in pairs {
        assert!(l_star.insert(*x), "at most one label per node in L");
    }
    pairs
        .iter()
        .map(|(x, r)| {
            j.poll_list(*x, *r)
                .into_iter()
                .filter(|y| !l_star.contains(y))
                .count()
        })
        .sum()
}

/// Result of the greedy border-minimisation attack.
#[derive(Clone, Debug, PartialEq)]
pub struct BorderReport {
    /// Family size `|L|`.
    pub size: usize,
    /// Measured border `|∂L|`.
    pub border: usize,
    /// `|∂L| / (d·|L|)`; Lemma 2 Property 2 asserts this exceeds `2/3` for
    /// every admissible family.
    pub ratio: f64,
}

/// Plays the adversary of Lemma 2 Property 2: greedily grows a family `L`
/// (one label per node) trying to *minimise* the border, scanning
/// `labels_per_node` candidate labels per node, and reports `|∂L|/(d|L|)`
/// at each requested size.
///
/// The greedy heuristic: nodes are added in order of how much of their
/// best poll list already points inside the current set `L*`; each member
/// then keeps its self-pointing-est label.
///
/// # Panics
///
/// Panics if any requested size exceeds `n` or is 0.
#[must_use]
pub fn greedy_min_border(
    j: &PollSampler,
    sizes: &[usize],
    labels_per_node: usize,
    rng: &mut ChaCha12Rng,
) -> Vec<BorderReport> {
    let n = j.n();
    let max_size = sizes.iter().copied().max().unwrap_or(0);
    assert!(max_size <= n, "family size exceeds n");
    assert!(
        sizes.iter().all(|&s| s > 0),
        "family sizes must be positive"
    );

    // Pre-scan candidate labels for every node.
    let candidates: Vec<Vec<(Label, Vec<NodeId>)>> = (0..n)
        .map(|xi| {
            let x = NodeId::from_index(xi);
            (0..labels_per_node)
                .map(|_| {
                    let r = j.random_label(rng);
                    let list = j.poll_list(x, r);
                    (r, list)
                })
                .collect()
        })
        .collect();

    let mut in_l_star = vec![false; n];
    let mut members: Vec<usize> = Vec::with_capacity(max_size);
    // Seed with a uniformly random node.
    let first = rng.gen_range(0..n);
    in_l_star[first] = true;
    members.push(first);

    let mut reports = Vec::new();
    let mut want: Vec<usize> = sizes.to_vec();
    want.sort_unstable();

    let score = |xi: usize, in_l: &[bool], cands: &[Vec<(Label, Vec<NodeId>)>]| -> usize {
        cands[xi]
            .iter()
            .map(|(_, list)| list.iter().filter(|y| in_l[y.index()]).count())
            .max()
            .unwrap_or(0)
    };

    let emit = |members: &[usize], in_l: &[bool]| -> BorderReport {
        // Each member keeps its best (most self-pointing) label.
        let mut total_border = 0usize;
        for &xi in members {
            let best = candidates[xi]
                .iter()
                .map(|(_, list)| list.iter().filter(|y| !in_l[y.index()]).count())
                .min()
                .unwrap_or(0);
            total_border += best;
        }
        let size = members.len();
        BorderReport {
            size,
            border: total_border,
            ratio: total_border as f64 / (j.d() * size) as f64,
        }
    };

    for target in want {
        while members.len() < target {
            // Pick the non-member whose best list points most inside L*.
            let mut best_node = None;
            let mut best_score = 0usize;
            for xi in 0..n {
                if in_l_star[xi] {
                    continue;
                }
                let s = score(xi, &in_l_star, &candidates);
                if best_node.is_none() || s > best_score {
                    best_node = Some(xi);
                    best_score = s;
                }
            }
            let xi = best_node.expect("n exceeded before target size");
            in_l_star[xi] = true;
            members.push(xi);
        }
        reports.push(emit(&members, &in_l_star));
    }
    reports
}

/// In-degree statistics of the quorum digraph for one string: for each
/// node `x`, `|{y : x ∈ H(s, y)}|`. Returns `(max, mean)`.
///
/// Lemma 1 requires that no node is overloaded (`> a·d` for a constant
/// `a`); the in-degrees of a uniform random digraph concentrate around `d`.
#[must_use]
pub fn indegree_stats(q: &QuorumSampler, s: StringKey) -> (usize, f64) {
    let inv = q.inverse_for_string(s);
    let max = inv.iter().map(Vec::len).max().unwrap_or(0);
    let mean = inv.iter().map(Vec::len).sum::<usize>() as f64 / q.n() as f64;
    (max, mean)
}

/// Directly checks the paper's Definition 1 (§2.2): `S` is a
/// `(θ,δ)`-sampler if for any set `S ⊆ [n]`, at most a `θ` fraction of
/// inputs have `|quorum(x) ∩ S|/d > |S|/n + δ`.
///
/// Measures the violating-input fraction over `inputs` sampled keys for a
/// given target set, returning the worst fraction across the supplied
/// target-set sizes (each drawn uniformly at random).
#[must_use]
pub fn sampler_definition_violations(
    q: &QuorumSampler,
    set_fractions: &[f64],
    delta: f64,
    inputs: u64,
    rng: &mut ChaCha12Rng,
) -> f64 {
    let n = q.n();
    let d = q.d() as f64;
    let mut worst: f64 = 0.0;
    for &frac in set_fractions {
        let target = random_good_set(n, frac, rng);
        let threshold = target.len() as f64 / n as f64 + delta;
        let mut violations = 0u64;
        for i in 0..inputs {
            let x = NodeId::from_index((i as usize) % n);
            let key = StringKey(rng.gen());
            let overlap = q
                .quorum(key, x)
                .into_iter()
                .filter(|y| target.contains(y))
                .count() as f64;
            if overlap / d > threshold {
                violations += 1;
            }
        }
        worst = worst.max(violations as f64 / inputs as f64);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quorum::tags;
    use fba_sim::rng::derive_rng;

    #[test]
    fn random_good_set_has_requested_measure() {
        let mut rng = derive_rng(1, &[]);
        let g = random_good_set(200, 0.55, &mut rng);
        assert_eq!(g.len(), 110);
        assert!(g.iter().all(|id| id.index() < 200));
    }

    #[test]
    fn good_majority_fraction_is_high_for_good_majority_population() {
        let mut rng = derive_rng(2, &[]);
        let n = 512;
        let q = QuorumSampler::new(5, tags::PUSH, n, 19);
        let good = random_good_set(n, 0.75, &mut rng);
        let frac = good_majority_fraction(&q, StringKey(3), &good);
        assert!(frac > 0.95, "got {frac}");
    }

    #[test]
    fn good_majority_fraction_is_low_for_bad_majority_population() {
        let mut rng = derive_rng(2, &[]);
        let n = 512;
        let q = QuorumSampler::new(5, tags::PUSH, n, 19);
        let good = random_good_set(n, 0.25, &mut rng);
        let frac = good_majority_fraction(&q, StringKey(3), &good);
        assert!(frac < 0.05, "got {frac}");
    }

    #[test]
    fn property1_bad_fraction_small_for_large_good_set() {
        let mut rng = derive_rng(4, &[]);
        let n = 256;
        let j = PollSampler::new(9, n, 15, PollSampler::default_cardinality(n));
        let good = random_good_set(n, 0.75, &mut rng);
        let bad = property1_bad_fraction(&j, &good, 4, &mut rng);
        assert!(bad < 0.05, "got {bad}");
    }

    #[test]
    fn border_counts_outgoing_edges_only() {
        let n = 64;
        let j = PollSampler::new(3, n, 8, 4096);
        let x = NodeId::from_index(0);
        let r = Label(5);
        // Singleton family: border counts edges leaving {x}.
        let list = j.poll_list(x, r);
        let expected = list.iter().filter(|y| **y != x).count();
        assert_eq!(border(&j, &[(x, r)]), expected);
    }

    #[test]
    fn border_of_whole_network_family_can_shrink() {
        // If L* covers every node, no edge leaves: border 0.
        let n = 16;
        let j = PollSampler::new(3, n, 4, 256);
        let pairs: Vec<(NodeId, Label)> =
            (0..n).map(|i| (NodeId::from_index(i), Label(0))).collect();
        assert_eq!(border(&j, &pairs), 0);
    }

    #[test]
    #[should_panic(expected = "one label per node")]
    fn border_rejects_duplicate_nodes() {
        let j = PollSampler::new(3, 16, 4, 256);
        let x = NodeId::from_index(1);
        let _ = border(&j, &[(x, Label(0)), (x, Label(1))]);
    }

    #[test]
    fn greedy_min_border_respects_property2_at_small_scale() {
        // At |L| ≤ n / log n the adversary must not get the ratio below 2/3.
        let mut rng = derive_rng(7, &[]);
        let n = 256;
        let j = PollSampler::new(21, n, 16, PollSampler::default_cardinality(n));
        let max_family = n / (fba_sim::ceil_log2(n) as usize); // 32
        let reports = greedy_min_border(&j, &[8, 16, max_family], 8, &mut rng);
        assert_eq!(reports.len(), 3);
        for rep in &reports {
            assert!(
                rep.ratio > 2.0 / 3.0,
                "Property 2 violated at size {}: ratio {}",
                rep.size,
                rep.ratio
            );
        }
    }

    #[test]
    fn indegree_concentrates_around_d() {
        let n = 512;
        let d = 17;
        let q = QuorumSampler::new(2, tags::PULL, n, d);
        let (max, mean) = indegree_stats(&q, StringKey(77));
        assert!(
            (mean - d as f64).abs() < 1e-9,
            "mean in-degree must be exactly d"
        );
        assert!(max < 4 * d, "no node may be overloaded: max {max} vs d {d}");
    }

    #[test]
    fn definition_one_holds_for_the_instantiated_samplers() {
        // Definition 1 with δ = 0.2: the violating-input fraction must be
        // small for target sets of various measures.
        let mut rng = derive_rng(12, &[]);
        let n = 1024;
        let d = 21;
        let q = QuorumSampler::new(8, crate::quorum::tags::PUSH, n, d);
        let worst = sampler_definition_violations(&q, &[0.25, 0.5, 0.65], 0.2, 2000, &mut rng);
        assert!(
            worst < 0.05,
            "(θ,δ)-sampler definition violated: θ ≈ {worst}"
        );
    }

    #[test]
    fn definition_one_fails_for_degenerate_delta() {
        // Sanity for the checker itself: with δ = 0 roughly half the
        // inputs exceed the mean overlap, so the measured θ must be large.
        let mut rng = derive_rng(13, &[]);
        let q = QuorumSampler::new(8, crate::quorum::tags::PUSH, 512, 15);
        let worst = sampler_definition_violations(&q, &[0.5], 0.0, 1000, &mut rng);
        assert!(worst > 0.2, "checker lost its teeth: θ = {worst}");
    }
}
