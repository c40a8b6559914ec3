//! Adversarial unit tests for the pull phase: hand-crafted Byzantine
//! message sequences against a single [`PullPhase`] state machine,
//! checking that each filter of Algorithms 1–3 holds individually.

use std::collections::BTreeMap;

use fba_core::pull::{PullPhase, RetryPolicy};
use fba_core::{AerMsg, AerRunState};
use fba_samplers::{GString, Label, PollSampler, QuorumScheme};
use fba_sim::rng::derive_rng;
use fba_sim::{Context, NodeId, Runs};

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

/// One row's calls of the Algorithm 2 step table, all for the request
/// `(origin, s, r)` of [`algorithm_2_routes_a_pull_in_two_hops`].
enum Input {
    /// `on_pull(origin, s, r)` at router `at`.
    Pull { at: NodeId, s: GString },
    /// `on_fw1(y, origin, g, r, w)` at relay `at`, once per `y` of
    /// `from`, in order.
    Fw1 {
        at: NodeId,
        from: Vec<NodeId>,
        w: NodeId,
    },
}

/// What a row's calls sent: the runs they opened, and per delivery unit
/// (a copied run, or one part of a part run) its payload and recipients.
#[derive(Debug, Default, PartialEq)]
struct Outputs {
    runs: usize,
    sent: Vec<(AerMsg, Vec<NodeId>)>,
}

struct TestStep {
    desc: &'static str,
    input: Input,
    expected_outputs: Outputs,
}

/// Algorithm 2, both hops, one row per gate: a router `y ∈ H(s, x)`
/// forwards `Pull(s, r)` from `x` iff `s = s_y`, once per `(x, s)`, as
/// `Fw1(x, s, r, w)` to `H(s, w)` for every `w ∈ J(x, r)`; a relay `z`
/// counts an `Fw1` from `y` iff `y ∈ H(s, x)` and `w ∈ J(x, r)`, one vote
/// per distinct `y`, and sends one `Fw2(x, s, r)` to `w` when the count
/// crosses the majority of `H(s, x)`. Every node believes `g`.
#[test]
fn algorithm_2_routes_a_pull_in_two_hops() {
    let (scheme, poll, g, bad) = setup();
    let state = AerRunState::new(scheme, poll);
    let (origin, r) = (NodeId::from_index(5), Label(3));
    let h = |s: GString, x: NodeId| scheme.pull.quorum(s.key(), x);
    let h_origin = h(g, origin);
    let list = poll.poll_list(origin, r);
    let nodes = || (0..N).map(NodeId::from_index);
    let outsider = nodes().find(|y| !h_origin.contains(y)).unwrap();
    let off_list = nodes().find(|w| !list.contains(w)).unwrap();
    let w = list[0];
    let relay = h(g, w)[0];
    let majority = scheme.pull.majority();
    assert!(majority >= 3 && h_origin.len() > majority);
    let quiet = Outputs::default;
    let table = [
        TestStep {
            desc: "Algorithm 2, Pull: s ≠ s_y — a router of H(bad, x) believing g sends nothing",
            input: Input::Pull {
                at: h(bad, origin)[0],
                s: bad,
            },
            expected_outputs: quiet(),
        },
        TestStep {
            desc: "Algorithm 2, Pull: y ∉ H(s, x) — a node outside the pull quorum sends nothing",
            input: Input::Pull { at: outsider, s: g },
            expected_outputs: quiet(),
        },
        TestStep {
            desc: "Algorithm 2, Pull: Fw1(x, s, r, w) to H(s, w) for every w ∈ J(x, r), \
                   in list order, as one part run",
            input: Input::Pull {
                at: h_origin[0],
                s: g,
            },
            expected_outputs: Outputs {
                runs: 1,
                sent: list
                    .iter()
                    .map(|&w| (AerMsg::Fw1 { origin, s: g, r, w }, h(g, w)))
                    .collect(),
            },
        },
        TestStep {
            desc: "Algorithm 2, Pull: keep track of senders — a repeated pull sends nothing",
            input: Input::Pull {
                at: h_origin[0],
                s: g,
            },
            expected_outputs: quiet(),
        },
        TestStep {
            desc: "Algorithm 2, Fw1: w ∉ J(x, r) — forwards from all of H(s, x) send nothing",
            input: Input::Fw1 {
                at: h(g, off_list)[0],
                from: h_origin.clone(),
                w: off_list,
            },
            expected_outputs: quiet(),
        },
        TestStep {
            desc: "Algorithm 2, Fw1: one vote per distinct y — a router's repeats count once",
            input: Input::Fw1 {
                at: relay,
                from: vec![h_origin[1]; 10 * D],
                w,
            },
            expected_outputs: quiet(),
        },
        TestStep {
            desc: "Algorithm 2, Fw1: votes below the majority of H(s, x) send nothing",
            input: Input::Fw1 {
                at: relay,
                from: h_origin[2..majority].to_vec(),
                w,
            },
            expected_outputs: quiet(),
        },
        TestStep {
            desc: "Algorithm 2, Fw1: y ∉ H(s, x) — one vote short, an outsider's forwards, \
                   however many, send nothing",
            input: Input::Fw1 {
                at: relay,
                from: vec![outsider; 3 * D],
                w,
            },
            expected_outputs: quiet(),
        },
        TestStep {
            desc: "Algorithm 2, Fw1: the vote that crosses the majority sends Fw2(x, s, r) to w",
            input: Input::Fw1 {
                at: relay,
                from: vec![h_origin[0]],
                w,
            },
            expected_outputs: Outputs {
                runs: 1,
                sent: vec![(AerMsg::Fw2 { origin, s: g, r }, vec![w])],
            },
        },
        TestStep {
            desc: "Algorithm 2, Fw1: after the relay, later votes send nothing",
            input: Input::Fw1 {
                at: relay,
                from: h_origin[majority..]
                    .iter()
                    .chain(&h_origin[..1])
                    .copied()
                    .collect(),
                w,
            },
            expected_outputs: quiet(),
        },
    ];
    let mut phases = BTreeMap::new();
    for row in table {
        let at = match &row.input {
            Input::Pull { at, .. } | Input::Fw1 { at, .. } => *at,
        };
        let p = phases
            .entry(at)
            .or_insert_with(|| PullPhase::new(at, g, &state, CAP, RetryPolicy::strict()));
        let mut hand = Hand::new(at, N, 1);
        let mut outputs = Outputs::default();
        let mut record = |out: Runs<AerMsg>| {
            outputs.runs += out.run_count();
            out.for_each_part(|msg, to| outputs.sent.push((msg.clone(), to.to_vec())));
        };
        match row.input {
            Input::Pull { s, .. } => record(hand.outbox(1, |ctx| p.on_pull(origin, s, r, ctx))),
            Input::Fw1 { from, w, .. } => {
                for y in from {
                    record(hand.outbox(2, |ctx| p.on_fw1(y, origin, g, r, w, ctx)));
                }
            }
        }
        assert_eq!(outputs, row.expected_outputs, "{}", row.desc);
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
        repair_attempts: 1,
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
