//! Property-based tests (proptest) over the core data structures and the
//! protocol invariants: sampler determinism and structure, string
//! round-trips, push-phase acceptance invariants, wire-size accounting,
//! spec-grammar round-trips, and AER's agreement safety over randomized
//! configurations.

use std::collections::BTreeSet;

use fba::ae::{Precondition, UnknowingAssignment};
use fba::core::push::PushPhase;
use fba::core::AerRunState;
use fba::samplers::{
    default_quorum_size, GString, Label, PollSampler, QuorumScheme, Sampler, StringKey,
};
use fba::scenario::{Phase, Scenario};
use fba::sim::rng::derive_rng;
use fba::sim::{AdversarySpec, NetworkSpec, NodeId, ScheduleSpec, Window, WireSize};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sampler_sets_are_deterministic_sized_and_sorted(
        seed in any::<u64>(),
        tag in any::<u64>(),
        n in 4usize..300,
        key in any::<u64>(),
    ) {
        let d = (n / 3).max(1);
        let s = Sampler::new(seed, tag, n, d);
        let a = s.set_for(key);
        let b = s.set_for(key);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.len(), d);
        let set: BTreeSet<_> = a.iter().copied().collect();
        prop_assert_eq!(set.len(), d, "distinct members");
        let mut sorted = a.clone();
        sorted.sort();
        prop_assert_eq!(sorted, a.clone());
        prop_assert!(a.iter().all(|id| id.index() < n));
    }

    #[test]
    fn sampler_contains_matches_enumeration(
        seed in any::<u64>(),
        n in 4usize..128,
        key in any::<u64>(),
        probe in 0usize..128,
    ) {
        prop_assume!(probe < n);
        let d = (n / 4).max(1);
        let s = Sampler::new(seed, 0, n, d);
        let members = s.set_for(key);
        let id = NodeId::from_index(probe);
        prop_assert_eq!(s.contains(key, id), members.contains(&id));
    }

    #[test]
    fn gstring_roundtrips_and_hashes_consistently(
        bits in proptest::collection::vec(any::<bool>(), 1..128),
    ) {
        let s = GString::from_bits(&bits);
        prop_assert_eq!(s.len_bits(), bits.len());
        let back: Vec<bool> = s.bits().collect();
        prop_assert_eq!(&back, &bits);
        prop_assert_eq!(s.key(), GString::from_bits(&back).key());
        prop_assert_eq!(s.wire_bits(), bits.len() as u64);
        prop_assert_eq!(s.hamming(&s), 0);
    }

    #[test]
    fn distinct_gstrings_have_distinct_keys(
        a in proptest::collection::vec(any::<bool>(), 32),
        b in proptest::collection::vec(any::<bool>(), 32),
    ) {
        let ga = GString::from_bits(&a);
        let gb = GString::from_bits(&b);
        if a != b {
            prop_assert_ne!(ga.key(), gb.key(), "64-bit hash collision on 32-bit inputs");
        } else {
            prop_assert_eq!(ga.key(), gb.key());
        }
    }

    #[test]
    fn push_acceptance_requires_exactly_a_quorum_majority(
        seed in any::<u64>(),
        n in 16usize..128,
        string_tag in any::<u64>(),
    ) {
        let d = default_quorum_size(n, 2.0);
        let scheme = QuorumScheme::new(seed, n, d);
        let x = NodeId::from_index(seed as usize % n);
        let mut rng = derive_rng(string_tag, &[]);
        let own = GString::random(32, &mut rng);
        let s = GString::random(32, &mut rng);
        prop_assume!(own != s);
        let poll = PollSampler::new(seed, n, d, PollSampler::default_cardinality(n));
        let mut phase = PushPhase::new(x, own, &AerRunState::new(scheme, poll));
        let quorum = scheme.push.quorum(s.key(), x);
        let majority = scheme.push.majority();
        for (i, &y) in quorum.iter().enumerate() {
            let newly = phase.on_push(y, s);
            if i + 1 < majority {
                prop_assert!(newly.is_none(), "accepted below majority at {}", i + 1);
                prop_assert!(!phase.contains(&s));
            } else if i + 1 == majority {
                prop_assert_eq!(newly, Some(s));
                prop_assert!(phase.contains(&s));
            } else {
                prop_assert!(newly.is_none(), "double acceptance");
            }
        }
    }

    #[test]
    fn poll_lists_are_within_domain_and_deterministic(
        seed in any::<u64>(),
        n in 8usize..200,
        x in 0usize..200,
        label in any::<u64>(),
    ) {
        prop_assume!(x < n);
        let d = default_quorum_size(n, 2.0);
        let j = PollSampler::new(seed, n, d, PollSampler::default_cardinality(n));
        let r = Label(label % j.label_cardinality());
        let list = j.poll_list(NodeId::from_index(x), r);
        prop_assert_eq!(list.len(), d);
        prop_assert!(list.iter().all(|w| w.index() < n));
        prop_assert_eq!(list.clone(), j.poll_list(NodeId::from_index(x), r));
        for w in &list {
            prop_assert!(j.contains(NodeId::from_index(x), r, *w));
        }
    }

    #[test]
    fn precondition_knowledge_is_exact(
        n in 16usize..200,
        frac_percent in 0u8..=100,
        seed in any::<u64>(),
    ) {
        let frac = f64::from(frac_percent) / 100.0;
        let pre = Precondition::synthetic(n, 32, frac, UnknowingAssignment::RandomPerNode, seed);
        let expected = ((n as f64) * frac).round() as usize;
        prop_assert_eq!(pre.knowing.len(), expected.min(n));
        for id in &pre.knowing {
            prop_assert_eq!(&pre.assignments[id.index()], &pre.gstring);
        }
        for (i, s) in pre.assignments.iter().enumerate() {
            let id = NodeId::from_index(i);
            if !pre.knows(id) {
                // Random 32-bit strings collide with gstring with
                // probability 2^-32; treat a collision as failure.
                prop_assert_ne!(s, &pre.gstring);
            }
        }
    }
}

proptest! {
    // Full protocol runs are expensive; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline safety property: across randomized sizes, seeds,
    /// knowledge fractions and silent corruption, every correct node that
    /// decides, decides gstring.
    #[test]
    fn aer_agreement_and_validity_hold_over_random_configs(
        n in 24usize..96,
        seed in any::<u64>(),
        knowing_percent in 70u8..=95,
        t_tenths in 0u8..=15,
    ) {
        let knowing = f64::from(knowing_percent) / 100.0;
        let t = (n * usize::from(t_tenths)) / 100;
        let mut scenario = Scenario::new(n)
            .phase(Phase::aer_with(knowing, UnknowingAssignment::SharedAdversarial));
        if t > 0 {
            scenario = scenario.faults(t).adversary(AdversarySpec::Silent { t: None });
        }
        let out = scenario.run(seed).expect("valid scenario").into_aer();
        prop_assert_eq!(
            out.wrong_decisions(), 0,
            "a node decided a non-gstring value (n={}, t={})", n, t
        );
    }

    #[test]
    fn wire_size_accounting_matches_engine_totals(
        n in 8usize..64,
        seed in any::<u64>(),
    ) {
        // Sum of per-node sent bits must equal sum of received bits after
        // quiescence (every sent message is delivered exactly once).
        let out = Scenario::new(n.max(8))
            .phase(Phase::aer(0.8))
            .run(seed)
            .expect("valid scenario")
            .into_aer();
        prop_assume!(out.run.quiescent);
        let sent: u64 = out.run.metrics.total_bits_sent();
        let received: u64 = (0..out.config.n)
            .map(|i| out.run.metrics.bits_recv_by(NodeId::from_index(i)))
            .sum();
        prop_assert_eq!(sent, received);
    }
}

/// Strategy generating every single-strategy [`AdversarySpec`] shape
/// with randomized parameters (everything but `sched`).
fn base_adversary_spec_strategy() -> impl Strategy<Value = AdversarySpec> {
    prop_oneof![
        Just(AdversarySpec::None),
        proptest::option::of(0usize..10_000).prop_map(|t| AdversarySpec::Silent { t }),
        (1usize..10_000, 1u64..10_000)
            .prop_map(|(rate, steps)| AdversarySpec::RandomFlood { rate, steps }),
        Just(AdversarySpec::PushFlood),
        (1usize..10_000).prop_map(|strings| AdversarySpec::Equivocate { strings }),
        (1u64..10_000, 1u64..10_000)
            .prop_map(|(rate, steps)| AdversarySpec::PullFlood { rate, steps }),
        Just(AdversarySpec::BadString),
        (1u64..100_000).prop_map(|label_scan| AdversarySpec::Corner { label_scan }),
    ]
}

/// Strategy generating valid composed fault schedules: 1–3 windows laid
/// out left to right with random gaps and lengths, randomly open-ended.
fn schedule_strategy() -> impl Strategy<Value = AdversarySpec> {
    (
        proptest::collection::vec(
            (0u64..4, 1u64..40, base_adversary_spec_strategy()),
            1usize..4,
        ),
        any::<bool>(),
    )
        .prop_map(|(parts, open_last)| {
            let count = parts.len();
            let mut windows = Vec::new();
            let mut cursor = 0u64;
            for (i, (gap, len, spec)) in parts.into_iter().enumerate() {
                let start = cursor + gap;
                let end = start + len;
                let window = if i + 1 == count && open_last {
                    Window::open(start)
                } else {
                    Window::bounded(start, end)
                };
                windows.push((window, spec));
                cursor = end;
            }
            AdversarySpec::Sched(ScheduleSpec::new(windows).expect("constructed schedules valid"))
        })
}

/// Strategy generating every [`AdversarySpec`] shape with randomized
/// parameters, composed fault schedules included.
fn adversary_spec_strategy() -> impl Strategy<Value = AdversarySpec> {
    prop_oneof![base_adversary_spec_strategy(), schedule_strategy()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The satellite contract: every adversary spec round-trips through
    /// Display and parse — what makes specs CLI- and sweep-addressable.
    #[test]
    fn adversary_specs_round_trip_parse_display(spec in adversary_spec_strategy()) {
        let shown = spec.to_string();
        let back: AdversarySpec = shown.parse().expect("display output parses");
        prop_assert_eq!(back, spec, "{} did not round-trip", shown);
    }

    /// Same for the network grammar.
    #[test]
    fn network_specs_round_trip_parse_display(delay in proptest::option::of(1u64..10_000)) {
        let spec = match delay {
            None => NetworkSpec::Sync,
            Some(max_delay) => NetworkSpec::Async { max_delay },
        };
        let back: NetworkSpec = spec.to_string().parse().expect("display output parses");
        prop_assert_eq!(back, spec);
    }

    /// Malformed-input fuzzing: syntactic noise applied to any valid
    /// spec string must be *rejected*, never silently normalised — the
    /// spec-grammar satellite (`silent:` / `silent:9,` / embedded
    /// whitespace used to slip through `split_spec`).
    #[test]
    fn mutated_spec_strings_are_rejected(
        spec in adversary_spec_strategy(),
        mutation in 0usize..6,
        pos_seed in any::<u64>(),
    ) {
        let shown = spec.to_string();
        let mutated = match mutation {
            0 => format!("{shown}:"),
            1 => format!("{shown},"),
            2 => format!(" {shown}"),
            3 => format!("{shown} "),
            4 => {
                // Embedded whitespace at a random interior position.
                let pos = 1 + (pos_seed as usize) % shown.len().max(1);
                let split = shown
                    .char_indices()
                    .map(|(i, _)| i)
                    .chain([shown.len()])
                    .min_by_key(|i| i.abs_diff(pos))
                    .unwrap();
                format!("{} {}", &shown[..split], &shown[split..])
            }
            _ => format!("{shown};"),
        };
        prop_assume!(mutated != shown);
        prop_assert!(
            mutated.parse::<AdversarySpec>().is_err(),
            "{:?} (mutation {}) must be rejected",
            mutated,
            mutation
        );
    }
}

/// The retry-wave regression guard: fault-free decision latency must stay
/// a small constant number of steps at every scale. Before the
/// scale-aware retry schedule, n ≥ 2048 burned ~26 steps in poll-retry
/// waves while n = 1024 decided in 5; this pins the fix. Debug builds run
/// the small half of the ladder (a debug n = 4096 run takes minutes);
/// release runs (`cargo test --release`, CI) cover the full ladder.
#[test]
fn fault_free_step_count_stays_constant_across_scales() {
    const STEP_BUDGET: u64 = 12;
    let sizes: &[usize] = if cfg!(debug_assertions) {
        &[256, 1024]
    } else {
        &[256, 1024, 2048, 4096]
    };
    for &n in sizes {
        let out = Scenario::new(n)
            .phase(Phase::aer(0.8))
            .run(1)
            .expect("valid scenario")
            .into_aer();
        assert!(out.run.all_decided(), "n={n}: not everyone decided");
        let last = out.run.all_decided_at.expect("all decided");
        assert!(
            last <= STEP_BUDGET,
            "n={n}: decision took {last} steps (> {STEP_BUDGET}) — retry waves are back"
        );
    }
}

#[test]
fn string_key_is_stable_across_processes() {
    // Pin the content hash so persisted experiment data stays comparable.
    let s = GString::from_bits(&[true, false, true, true]);
    assert_eq!(s.key(), s.key());
    let again = GString::from_bits(&[true, false, true, true]);
    assert_eq!(s.key(), again.key());
    assert_ne!(s.key(), StringKey(0));
}
