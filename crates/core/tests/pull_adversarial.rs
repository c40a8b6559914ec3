//! Adversarial unit tests for the pull phase: hand-crafted Byzantine
//! message sequences against a single [`PullPhase`] state machine,
//! checking that each filter of Algorithms 1–3 holds individually.

use fba_core::pull::{PullPhase, RetryPolicy};
use fba_core::{AerMsg, AerRunState};
use fba_samplers::{GString, Label, PollSampler, QuorumScheme};
use fba_sim::rng::derive_rng;
use fba_sim::{Context, NodeId};

mod support;
use support::Hand;

const N: usize = 96;
const D: usize = 9;
const CAP: u64 = 100;

fn setup() -> (QuorumScheme, PollSampler, GString, GString) {
    let scheme = QuorumScheme::new(11, N, D);
    let poll = PollSampler::new(11, N, D, PollSampler::default_cardinality(N));
    let mut rng = derive_rng(42, &[]);
    let g = GString::random(40, &mut rng);
    let bad = GString::random(40, &mut rng);
    (scheme, poll, g, bad)
}

/// Pull state for node `x` on a run state of its own.
fn phase(x: usize, own: GString) -> PullPhase {
    let (scheme, poll, _, _) = setup();
    let state = AerRunState::new(scheme, poll);
    PullPhase::new(
        NodeId::from_index(x),
        own,
        &state,
        CAP,
        RetryPolicy::strict(),
    )
}

/// What `handler` sends when node `x` runs it at step 1, per envelope.
fn sent(x: NodeId, handler: impl FnOnce(&mut Context<'_, AerMsg>)) -> Vec<(NodeId, AerMsg)> {
    Hand::new(x, N, 1).sent(1, handler)
}

/// Finds a label whose poll list for `origin` contains `member`.
fn label_hitting(poll: &PollSampler, origin: NodeId, member: NodeId) -> Label {
    for raw in 0..poll.label_cardinality() {
        if poll.contains(origin, Label(raw), member) {
            return Label(raw);
        }
    }
    panic!("domain exhausted");
}

#[test]
fn router_ignores_pulls_for_strings_it_does_not_believe() {
    let (scheme, _, g, bad) = setup();
    let origin = NodeId::from_index(5);
    let router = scheme.pull.quorum(bad.key(), origin)[0];
    let mut p = phase(router.index(), g);
    // Router believes g; a pull for `bad` (whose quorum it belongs to)
    // must not be routed.
    assert!(sent(router, |ctx| p.on_pull(origin, bad, Label(1), ctx)).is_empty());
}

#[test]
fn relay_requires_sender_in_requesters_quorum() {
    let (scheme, poll, g, _) = setup();
    let origin = NodeId::from_index(5);
    let r = Label(3);
    let w = poll.poll_list(origin, r)[0];
    let z = scheme.pull.quorum(g.key(), w)[0];
    let mut p = phase(z.index(), g);
    // Sender y must be in H(g, origin); pick one that is not.
    let h_origin = scheme.pull.quorum(g.key(), origin);
    let intruder = (0..N)
        .map(NodeId::from_index)
        .find(|y| !h_origin.contains(y))
        .unwrap();
    for _ in 0..3 * D {
        assert!(sent(z, |ctx| p.on_fw1(intruder, origin, g, r, w, ctx)).is_empty());
    }
}

#[test]
fn relay_requires_w_in_the_poll_list() {
    let (scheme, poll, g, _) = setup();
    let origin = NodeId::from_index(5);
    let r = Label(3);
    // Pick a w NOT in J(origin, r).
    let list = poll.poll_list(origin, r);
    let w = (0..N)
        .map(NodeId::from_index)
        .find(|w| !list.contains(w))
        .unwrap();
    let z = scheme.pull.quorum(g.key(), w)[0];
    let mut p = phase(z.index(), g);
    let h_origin = scheme.pull.quorum(g.key(), origin);
    for y in h_origin {
        assert!(
            sent(z, |ctx| p.on_fw1(y, origin, g, r, w, ctx)).is_empty(),
            "relayed for a w outside J(origin, r)"
        );
    }
}

#[test]
fn forwards_that_fail_a_per_message_gate_allocate_nothing() {
    // A Byzantine flood of `Fw1(origin, g, r, w)` over arbitrary
    // `(origin, r, w)` at a relay that believes `g`. From a sender
    // outside H(g, origin) nothing may be interned past that quorum — no
    // poll list, no vote row; from a genuine router naming a `w` outside
    // J(origin, r) that one poll list is legitimate but still no row
    // appears; and a forward for a string the relay does not believe
    // must not even evaluate a sampler. Bounded per-node state growth,
    // ROADMAP 5(a).
    let (scheme, poll, g, bad) = setup();
    let state = AerRunState::new(scheme, poll);
    let z = NodeId::from_index(40);
    let mut p = PullPhase::new(z, g, &state, CAP, RetryPolicy::strict());
    let tables = || (state.poll_cache_stats().1, state.fw1_row_count());
    let nodes = || (0..N).map(NodeId::from_index);
    let mut outsider_forwards = 0;
    for origin in nodes() {
        let h_origin = scheme.pull.quorum(g.key(), origin);
        let intruder = nodes().find(|y| !h_origin.contains(y)).unwrap();
        for raw in 0..8 {
            for w in nodes().step_by(7) {
                let relayed = sent(z, |ctx| p.on_fw1(intruder, origin, g, Label(raw), w, ctx));
                assert!(relayed.is_empty());
                outsider_forwards += 1;
            }
        }
    }
    assert!(outsider_forwards > 10_000);
    assert_eq!(tables(), (0, 0), "outsiders grew the tables");

    let origin = NodeId::from_index(5);
    let list = poll.poll_list(origin, Label(3));
    for y in scheme.pull.quorum(g.key(), origin) {
        for w in nodes().filter(|w| !list.contains(w)) {
            assert!(sent(z, |ctx| p.on_fw1(y, origin, g, Label(3), w, ctx)).is_empty());
        }
    }
    assert_eq!(tables(), (1, 0), "a row ahead of the w gate");

    let evaluated = state.pull_cache_stats().1;
    for origin in nodes() {
        for y in nodes().step_by(5) {
            assert!(sent(z, |ctx| p.on_fw1(y, origin, bad, Label(3), list[0], ctx)).is_empty());
        }
    }
    assert_eq!(
        state.pull_cache_stats().1,
        evaluated,
        "sampled for an unbelieved string"
    );
    assert_eq!(tables(), (1, 0));
}

#[test]
fn byzantine_cannot_fake_fw1_majority_with_one_identity() {
    let (scheme, poll, g, _) = setup();
    let origin = NodeId::from_index(5);
    let r = Label(3);
    let w = poll.poll_list(origin, r)[0];
    let z = scheme.pull.quorum(g.key(), w)[0];
    let mut p = phase(z.index(), g);
    let y = scheme.pull.quorum(g.key(), origin)[0];
    // One valid router spamming Fw1 many times counts once.
    for _ in 0..10 * D {
        assert!(sent(z, |ctx| p.on_fw1(y, origin, g, r, w, ctx)).is_empty());
    }
}

#[test]
fn answer_requires_fresh_poll_per_requester() {
    let (scheme, poll, g, _) = setup();
    let origin_a = NodeId::from_index(5);
    let origin_b = NodeId::from_index(6);
    let w = poll.poll_list(origin_a, Label(3))[0];
    let ra = Label(3);
    let rb = label_hitting(&poll, origin_b, w);
    let mut p = phase(w.index(), g);
    // w is polled by A only.
    let _ = sent(w, |ctx| p.on_poll(origin_a, g, ra, ctx));
    // Fw2 majority arrives for B (never polled): no answer.
    let h_w = scheme.pull.quorum(g.key(), w);
    for z in &h_w {
        assert!(
            sent(w, |ctx| p.on_fw2(*z, origin_b, g, rb, ctx)).is_empty(),
            "answered an unpolled requester"
        );
    }
    // And for A (polled): answer fires at majority.
    let mut answered = 0;
    for z in &h_w {
        answered += sent(w, |ctx| p.on_fw2(*z, origin_a, g, ra, ctx)).len();
    }
    assert_eq!(answered, 1);
}

#[test]
fn decision_requires_strict_majority_even_with_spam() {
    let (_, poll, g, _) = setup();
    let x = NodeId::from_index(7);
    let mut p = phase(7, g);
    let sends = sent(x, |ctx| p.start_poll(g, ctx));
    let r = match &sends[0].1 {
        AerMsg::Poll(_, r) => *r,
        _ => unreachable!(),
    };
    let list = poll.poll_list(x, r);
    let majority = poll.majority();
    // majority − 1 distinct answerers, each spamming 5 times: no decision.
    for w in list.iter().take(majority - 1) {
        for _ in 0..5 {
            assert!(p.on_answer(*w, g).is_none());
        }
    }
    assert!(p.decided().is_none());
    // The majority-th distinct answer decides.
    assert_eq!(p.on_answer(list[majority - 1], g), Some(g));
}

#[test]
fn post_decision_node_keeps_serving_but_never_flips() {
    let (scheme, poll, g, bad) = setup();
    let origin = NodeId::from_index(5);
    let w = poll.poll_list(origin, Label(3))[0];
    let mut p = phase(w.index(), g);
    // Decide via own poll.
    let sends = sent(w, |ctx| p.start_poll(g, ctx));
    let r_own = match &sends[0].1 {
        AerMsg::Poll(_, r) => *r,
        _ => unreachable!(),
    };
    let own_list = poll.poll_list(w, r_own);
    for member in own_list.iter().take(poll.majority()) {
        let _ = p.on_answer(*member, g);
    }
    assert_eq!(p.decided(), Some(&g));
    let _ = sent(w, |ctx| p.on_decided(ctx));

    // Spam answers for `bad`: the decision must not change.
    for member in poll.poll_list(w, Label(9)) {
        assert!(p.on_answer(member, bad).is_none());
    }
    assert_eq!(p.decided(), Some(&g));
    assert_eq!(p.believed(), &g);

    // The node still routes gstring pulls (belief = g).
    let origin2 = NodeId::from_index(9);
    let quorum = scheme.pull.quorum(g.key(), origin2);
    if quorum.contains(&w) {
        assert!(!sent(w, |ctx| p.on_pull(origin2, g, Label(4), ctx)).is_empty());
    }
}

#[test]
fn repair_votes_require_distinct_members_and_matching_string() {
    let retry = RetryPolicy {
        poll_timeout: 1,
        poll_attempts: 1,
        repair_attempts: 1,
        eager_repair: false,
    };
    let (scheme, poll, g, bad) = setup();
    let state = AerRunState::new(scheme, poll);
    let mut p = PullPhase::new(NodeId::from_index(2), g, &state, CAP, retry);
    let mut hand = Hand::new(NodeId::from_index(2), N, 7);
    let _ = hand.sent(0, |ctx| p.start_poll(g, ctx));
    let sends = hand.sent(1, |ctx| p.on_step(ctx));
    let members: Vec<NodeId> = sends.iter().map(|(to, _)| *to).collect();
    assert!(!members.is_empty(), "repair should have fired");
    // Split votes between two strings: neither reaches majority from
    // fewer than `majority` distinct members.
    let maj = poll.majority();
    for (i, w) in members.iter().enumerate() {
        let s = if i % 2 == 0 { g } else { bad };
        let decision = p.on_repair_answer(*w, s);
        if i + 1 < 2 * maj - 1 {
            assert!(decision.is_none(), "decided too early at vote {}", i + 1);
        }
    }
}
