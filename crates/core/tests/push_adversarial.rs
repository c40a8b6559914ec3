//! Adversarial unit tests for the push phase: §3.1.1's flooding
//! imperviousness, checked filter by filter against hand-crafted
//! Byzantine push sequences.

use fba_core::push::{push_targets, PushPhase};
use fba_core::AerRunState;
use fba_samplers::{GString, PollSampler, QuorumScheme};
use fba_sim::rng::derive_rng;
use fba_sim::NodeId;

const N: usize = 96;
const D: usize = 9;

fn setup() -> (QuorumScheme, GString, GString) {
    let scheme = QuorumScheme::new(21, N, D);
    let mut rng = derive_rng(7, &[]);
    (
        scheme,
        GString::random(40, &mut rng),
        GString::random(40, &mut rng),
    )
}

/// Push state for `x` on a run state of its own.
fn phase(x: NodeId, own: GString, scheme: QuorumScheme) -> PushPhase {
    let poll = PollSampler::new(21, N, D, PollSampler::default_cardinality(N));
    PushPhase::new(x, own, &AerRunState::new(scheme, poll))
}

#[test]
fn flooding_many_distinct_strings_from_one_sender_builds_nothing() {
    let (scheme, own, _) = setup();
    let x = NodeId::from_index(3);
    let mut p = phase(x, own, scheme);
    let mut rng = derive_rng(9, &[]);
    let flooder = NodeId::from_index(50);
    let mut counted = 0;
    for _ in 0..500 {
        let junk = GString::random(40, &mut rng);
        // A single sender can only ever contribute one vote per string it
        // legitimately belongs to the quorum of; it can never reach a
        // majority alone.
        if p.on_push(flooder, junk).is_some() {
            counted += 1;
        }
    }
    assert_eq!(counted, 0, "single flooder crossed a majority");
    assert_eq!(p.candidates().len(), 1, "only the own candidate remains");
    // Pending counters exist only for strings where the flooder is a
    // legitimate quorum member — expected d/n of the 500 ≈ 47, loosely.
    assert!(
        p.pending() < 120,
        "filter admitted too many counters: {}",
        p.pending()
    );
}

#[test]
fn sybil_style_repeats_cannot_substitute_for_distinct_members() {
    let (scheme, own, s) = setup();
    let x = NodeId::from_index(3);
    let mut p = phase(x, own, scheme);
    let quorum = scheme.push.quorum(s.key(), x);
    let majority = scheme.push.majority();
    // Two distinct members repeating endlessly never cross a majority of 5.
    assert!(majority > 2);
    for _ in 0..100 {
        assert!(p.on_push(quorum[0], s).is_none());
        assert!(p.on_push(quorum[1], s).is_none());
    }
    assert!(!p.contains(&s));
}

#[test]
fn acceptance_is_per_receiver_not_global() {
    // A string accepted at one node (whose quorum the coalition controls)
    // must not leak acceptance to another node with an honest quorum.
    let (scheme, own, s) = setup();
    let a = NodeId::from_index(3);
    let b = NodeId::from_index(4);
    let mut pa = phase(a, own, scheme);
    let pb = phase(b, own, scheme);
    for y in scheme.push.quorum(s.key(), a) {
        let _ = pa.on_push(y, s);
    }
    assert!(pa.contains(&s), "full quorum must accept");
    assert!(!pb.contains(&s), "acceptance must not propagate");
}

#[test]
fn push_targets_reflect_each_nodes_own_string_only() {
    let (scheme, g, bad) = setup();
    // Half the nodes hold g, half hold bad.
    let assignments: Vec<GString> = (0..N).map(|i| if i % 2 == 0 { g } else { bad }).collect();
    let targets = push_targets(&scheme, &assignments);
    for (yi, list) in targets.iter().enumerate() {
        let y = NodeId::from_index(yi);
        let key = assignments[yi].key();
        for &x in list {
            assert!(
                scheme.push.contains(key, x, y),
                "node {y} given a target outside I(own, ·)"
            );
        }
    }
    // Different strings give (generically) different target lists for the
    // same node index parity.
    assert_ne!(targets[0], targets[1]);
}

#[test]
fn acceptance_threshold_is_independent_of_send_order() {
    let (scheme, own, s) = setup();
    let x = NodeId::from_index(7);
    let quorum = scheme.push.quorum(s.key(), x);
    let majority = scheme.push.majority();

    let mut forward = phase(x, own, scheme);
    for (i, &y) in quorum.iter().enumerate() {
        let accepted = forward.on_push(y, s).is_some();
        assert_eq!(accepted, i + 1 == majority);
    }

    let mut backward = phase(x, own, scheme);
    let mut accepted_at = None;
    for (i, &y) in quorum.iter().rev().enumerate() {
        if backward.on_push(y, s).is_some() {
            accepted_at = Some(i + 1);
        }
    }
    assert_eq!(accepted_at, Some(majority), "order must not matter");
}
