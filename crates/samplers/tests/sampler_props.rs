//! Property tests for the sampler family: structural invariants that the
//! Lemma 1 / Lemma 2 machinery silently depends on.

use std::collections::BTreeSet;

use fba_samplers::{
    default_quorum_size, GString, Label, PollSampler, QuorumSampler, QuorumScheme, Sampler,
    StringKey,
};
use fba_sim::rng::derive_rng;
use fba_sim::NodeId;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quorum_scheme_keeps_push_and_pull_independent(
        seed in any::<u64>(),
        n in 8usize..256,
        key in any::<u64>(),
    ) {
        let d = default_quorum_size(n, 2.0).min(n);
        let scheme = QuorumScheme::new(seed, n, d);
        let x = NodeId::from_index(key as usize % n);
        let s = StringKey(key);
        let push = scheme.push.quorum(s, x);
        let pull = scheme.pull.quorum(s, x);
        prop_assert_eq!(push.len(), d);
        prop_assert_eq!(pull.len(), d);
        // Independence in distribution: identical sets are possible but
        // should be overwhelmingly rare for d ≥ 4; we only assert both
        // are valid (full equality would indicate shared keying).
        if d >= 6 && n >= 64 {
            prop_assert_ne!(push, pull, "push and pull samplers must be domain-separated");
        }
    }

    #[test]
    fn quorum_majority_is_strict_majority(
        n in 8usize..256,
        seed in any::<u64>(),
    ) {
        let d = default_quorum_size(n, 3.0).min(n);
        let q = QuorumSampler::new(seed, fba_samplers::tags::PUSH, n, d);
        prop_assert!(2 * q.majority() > d);
        prop_assert!(2 * (q.majority() - 1) <= d);
    }

    #[test]
    fn inverse_is_a_partition_of_quorum_slots(
        seed in any::<u64>(),
        n in 8usize..96,
        key in any::<u64>(),
    ) {
        let d = default_quorum_size(n, 2.0).min(n);
        let q = QuorumSampler::new(seed, fba_samplers::tags::PUSH, n, d);
        let inv = q.inverse_for_string(StringKey(key));
        let total: usize = inv.iter().map(Vec::len).sum();
        prop_assert_eq!(total, n * d, "every (x, slot) pair appears exactly once");
        for (yi, xs) in inv.iter().enumerate() {
            let distinct: BTreeSet<_> = xs.iter().collect();
            prop_assert_eq!(distinct.len(), xs.len(), "node {} listed twice", yi);
        }
    }

    #[test]
    fn labels_domain_separate_poll_lists(
        seed in any::<u64>(),
        n in 16usize..128,
        r1 in any::<u64>(),
        r2 in any::<u64>(),
    ) {
        let d = default_quorum_size(n, 2.0).min(n);
        let j = PollSampler::new(seed, n, d, PollSampler::default_cardinality(n));
        let x = NodeId::from_index(3 % n);
        let l1 = Label(r1 % j.label_cardinality());
        let l2 = Label(r2 % j.label_cardinality());
        if l1 == l2 {
            prop_assert_eq!(j.poll_list(x, l1), j.poll_list(x, l2));
        }
        // d ≥ 6 from n ≥ 16 with κ=2: different labels rarely collide on
        // full lists; structural check only (no flaky inequality).
        prop_assert_eq!(j.poll_list(x, l1).len(), d);
    }

    #[test]
    fn sampler_handles_extreme_subset_sizes(
        seed in any::<u64>(),
        n in 1usize..64,
        key in any::<u64>(),
    ) {
        // d = 1 and d = n must both work.
        let s1 = Sampler::new(seed, 1, n, 1);
        prop_assert_eq!(s1.set_for(key).len(), 1);
        let sn = Sampler::new(seed, 1, n, n);
        let full = sn.set_for(key);
        prop_assert_eq!(full.len(), n);
        let distinct: BTreeSet<_> = full.iter().collect();
        prop_assert_eq!(distinct.len(), n);
    }

    #[test]
    fn contains_is_set_membership_at_every_node(
        seed in any::<u64>(),
        tag in any::<u64>(),
        n in 1usize..96,
        shape in 0usize..5,
        pick in any::<u64>(),
        key in any::<u64>(),
    ) {
        // The probe answers below the tail band `[n − d, n)`, Floyd's
        // picks inside it: every node on both sides (and two past `n`),
        // with the band one node (`d = 1`), every node (`d = n`), all but
        // one or two, or anything.
        let d = match shape {
            0 => 1,
            1 => n,
            2 => n.saturating_sub(1).max(1),
            3 => n.saturating_sub(2).max(1),
            _ => 1 + pick as usize % n,
        };
        let s = Sampler::new(seed, tag, n, d);
        let set = s.set_for(key);
        for y in (0..n + 2).map(NodeId::from_index) {
            prop_assert_eq!(
                s.contains(key, y),
                set.binary_search(&y).is_ok(),
                "n={} d={} node {}", n, d, y
            );
        }
    }

    #[test]
    fn receivers_of_is_the_brute_force_inverse(
        seed in any::<u64>(),
        n in 1usize..48,
        pick in any::<u64>(),
        key in any::<u64>(),
    ) {
        let d = 1 + pick as usize % n;
        let q = QuorumSampler::new(seed, fba_samplers::tags::PUSH, n, d);
        let s = StringKey(key);
        let inverse = q.inverse_for_string(s);
        let mut receivers = vec![NodeId::from_index(n)]; // appended to, not cleared
        for (yi, row) in inverse.iter().enumerate() {
            receivers.truncate(1);
            q.receivers_of(s, NodeId::from_index(yi), &mut receivers);
            prop_assert_eq!(&receivers[1..], &row[..], "n={} d={} holder {}", n, d, yi);
            prop_assert!(row.windows(2).all(|w| w[0] < w[1]), "ascending, no receiver twice");
        }
        receivers.truncate(1);
        q.receivers_of(s, NodeId::from_index(n), &mut receivers);
        prop_assert_eq!(receivers.len(), 1, "no such holder, no receivers");
    }

    #[test]
    fn gstring_mixed_prefix_is_seed_dependent_suffix_is_not(
        len in 9usize..100,
        seed1 in any::<u64>(),
        seed2 in any::<u64>(),
    ) {
        let mut r1 = derive_rng(seed1, &[]);
        let mut r2 = derive_rng(seed2, &[]);
        let a = GString::mixed(len, 2.0 / 3.0, true, &mut r1);
        let b = GString::mixed(len, 2.0 / 3.0, true, &mut r2);
        let boundary = ((len as f64) * 2.0 / 3.0).ceil() as usize;
        for i in boundary..len {
            prop_assert!(a.bit(i), "adversarial bit {i} must be fixed");
            prop_assert!(b.bit(i));
        }
    }
}

/// Statistical (non-proptest) check: pairwise quorum overlap matches the
/// hypergeometric expectation, the property the union-bound arguments in
/// Lemma 4/5 rely on.
#[test]
fn quorum_overlap_matches_hypergeometric_expectation() {
    let n = 1024;
    let d = default_quorum_size(n, 3.0);
    let q = QuorumSampler::new(5, fba_samplers::tags::PULL, n, d);
    let x = NodeId::from_index(0);
    let mut total_overlap = 0usize;
    let pairs = 2000;
    for k in 0..pairs {
        let a: BTreeSet<_> = q.quorum(StringKey(2 * k), x).into_iter().collect();
        let b: BTreeSet<_> = q.quorum(StringKey(2 * k + 1), x).into_iter().collect();
        total_overlap += a.intersection(&b).count();
    }
    let mean_overlap = total_overlap as f64 / pairs as f64;
    let expected = (d * d) as f64 / n as f64; // E[|A∩B|] = d²/n
    assert!(
        (mean_overlap - expected).abs() < 0.25 * expected + 0.05,
        "mean overlap {mean_overlap:.3} vs expected {expected:.3}"
    );
}
