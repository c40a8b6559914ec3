//! Cached vs. uncached sampler evaluation must agree bit for bit: the
//! memoization layer is a pure lookup table over pure functions, so any
//! divergence is a bug. Randomized over seeds, sizes, keys and probes.

use fba_samplers::{Label, PollSampler, QuorumSampler, QuorumScheme, SharedPollCache, StringKey};
use fba_sim::NodeId;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shared_quorum_caches_match_uncached(
        seed in any::<u64>(),
        n in 8usize..512,
        d_draw in any::<usize>(),
        keys in collection::vec(any::<u64>(), 1..20),
        probe_salt in any::<u64>(),
    ) {
        // Every size a run accepts — uniform over 3..=min(n, 127) — not
        // only the κ = 3 default (≤ 19 here).
        let d = 3 + d_draw % (n.min(127) - 2);
        let scheme = QuorumScheme::new(seed, n, d);
        for (cache, sampler) in [
            (scheme.shared_push(), scheme.push),
            (scheme.shared_pull(), scheme.pull),
        ] {
            // A miss pass, then a hit pass that must agree without
            // recomputing anything.
            let mut misses_after_first = None;
            for _pass in 0..2 {
                for (k, &key) in keys.iter().enumerate() {
                    let s = StringKey(key);
                    let x = NodeId::from_index(key as usize % n);
                    let want = sampler.quorum(s, x);
                    prop_assert_eq!(cache.quorum_with(s, x, <[NodeId]>::to_vec), want.clone());
                    let slot = cache.slot(s, x);
                    let y = NodeId::from_index(
                        fba_sim::rng::splitmix64(probe_salt ^ k as u64) as usize % n,
                    );
                    prop_assert_eq!(cache.contains_at(slot, y), sampler.contains(s, x, y));
                    prop_assert_eq!(
                        cache.position_at(slot, y),
                        want.iter().position(|&member| member == y)
                    );
                }
                let (_, misses) = cache.stats();
                prop_assert_eq!(*misses_after_first.get_or_insert(misses), misses);
            }
        }
    }

    #[test]
    fn shared_poll_cache_matches_uncached(
        seed in any::<u64>(),
        n in 8usize..256,
        d_draw in any::<usize>(),
        labels in collection::vec(any::<u64>(), 1..16),
    ) {
        let d = 3 + d_draw % (n.min(127) - 2);
        let j = PollSampler::new(seed, n, d, PollSampler::default_cardinality(n));
        let cache = SharedPollCache::new(j);
        let mut misses_after_first = None;
        for _pass in 0..2 {
            for &raw in &labels {
                let x = NodeId::from_index(raw as usize % n);
                let r = Label(raw % j.label_cardinality());
                let want = j.poll_list(x, r);
                prop_assert_eq!(cache.poll_list_with(x, r, <[NodeId]>::to_vec), want.clone());
                let slot = cache.slot(x, r);
                for w in (0..n).step_by(11).map(NodeId::from_index) {
                    prop_assert_eq!(cache.contains_at(slot, w), j.contains(x, r, w));
                    prop_assert_eq!(
                        cache.position_at(slot, w),
                        want.iter().position(|&member| member == w)
                    );
                }
            }
            let (_, misses) = cache.stats();
            prop_assert_eq!(*misses_after_first.get_or_insert(misses), misses);
        }
    }

    #[test]
    fn contains_still_matches_enumeration_after_probe_rework(
        seed in any::<u64>(),
        n in 1usize..200,
        key in any::<u64>(),
    ) {
        // The sorted-probe Floyd rewrite must preserve exact membership
        // semantics, including d = n and d = 1 edges.
        for d in [1, (n / 3).max(1), n] {
            let q = QuorumSampler::new(seed, fba_samplers::tags::PUSH, n, d);
            let members = q.quorum(StringKey(key), NodeId::from_index(0));
            prop_assert_eq!(members.len(), d);
            let mut sorted = members.clone();
            sorted.sort_unstable();
            prop_assert_eq!(&sorted, &members, "set_for must come out sorted");
            for yi in 0..n {
                let y = NodeId::from_index(yi);
                prop_assert_eq!(
                    q.contains(StringKey(key), NodeId::from_index(0), y),
                    members.contains(&y),
                    "n={} d={} y={}", n, d, yi
                );
            }
        }
    }
}
