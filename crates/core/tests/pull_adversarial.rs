//! Adversarial unit tests for the pull phase: hand-crafted Byzantine
//! message sequences against single nodes, fed through an
//! [`fba_sim::Driver`], checking that each filter of Algorithms 1–3 holds
//! individually.

use fba_core::pull::{PullPhase, RetryPolicy};
use fba_core::{AerConfig, AerHarness, AerMsg, AerNode, AerRunState};
use fba_samplers::{GString, Label, PollSampler};
use fba_sim::rng::derive_rng;
use fba_sim::{Driver, Input, NodeId, TestStep};

const N: usize = 96;
const D: usize = 9;
const CAP: u64 = 100;

/// A deployment of `N` nodes, every one holding `g`, and `(g, bad)`.
fn setup() -> (AerHarness, GString, GString) {
    let mut rng = derive_rng(42, &[]);
    let g = GString::random(40, &mut rng);
    let bad = GString::random(40, &mut rng);
    let cfg = AerConfig {
        string_len: 40,
        overload_cap: CAP,
        ..AerConfig::recommended(N).with_d(D).strict()
    };
    (AerHarness::new(cfg, vec![g; N]), g, bad)
}

/// Pull state for node `x` on a run state of its own.
fn phase(x: usize, own: GString) -> PullPhase {
    let (state, strict) = (setup().0.run_state(), RetryPolicy::strict());
    PullPhase::new(NodeId::from_index(x), own, &state, CAP, strict)
}

/// `N` nodes and no node table: a phase's handlers run through its node's
/// context, `hand.call(x, …)`.
fn hand() -> Driver<AerNode> {
    Driver::new(N, 1, |_| None)
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

/// A row of [`algorithm_2_table`]: a node and the messages it is fed.
type Algorithm2Row = TestStep<(NodeId, Vec<Input<AerMsg>>), Outputs>;

/// What a row's messages sent: the runs they opened, and per delivery
/// unit (a copied run, or one part of a part run) its payload and
/// recipients.
#[derive(Debug, Default, PartialEq)]
struct Outputs {
    runs: usize,
    sent: Vec<(AerMsg, Vec<NodeId>)>,
}

/// Algorithm 2, both hops, one row per gate: a router `y ∈ H(s, x)`
/// forwards `Pull(s, r)` from `x` iff `s = s_y`, once per `(x, s)`, as
/// `Fw1(x, s, r, w)` to `H(s, w)` for every `w ∈ J(x, r)`; a relay `z`
/// counts an `Fw1` from `y` iff `y ∈ H(s, x)` and `w ∈ J(x, r)`, one vote
/// per distinct `y`, and sends one `Fw2(x, s, r)` to `w` when the count
/// crosses the majority of `H(s, x)`. Every node believes `g`; a row
/// feeds one node the messages of one request `(x, s, r)`.
fn algorithm_2_table(h: &AerHarness, g: GString, bad: GString) -> Vec<Algorithm2Row> {
    let (scheme, poll) = (h.scheme(), h.poll_sampler());
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
    // `Pull(s, r)` from `x` to router `at`; `Fw1(x, g, r, w)` to relay
    // `at`, once from each router of `from`, in order.
    let pull = |at, s| {
        let msg = AerMsg::Pull(s, r);
        (at, vec![Input::Message { from: origin, msg }])
    };
    let fw1 = |at, from: Vec<NodeId>, w| {
        let msg = AerMsg::Fw1 { origin, s: g, r, w };
        let inputs = from.into_iter().map(|y| Input::Message {
            from: y,
            msg: msg.clone(),
        });
        (at, inputs.collect())
    };
    let quiet = Outputs::default;
    vec![
        TestStep {
            desc: "Algorithm 2, Pull: s ≠ s_y — a router of H(bad, x) believing g sends nothing",
            input: pull(h(bad, origin)[0], bad),
            expected_outputs: quiet(),
        },
        TestStep {
            desc: "Algorithm 2, Pull: y ∉ H(s, x) — a node outside the pull quorum sends nothing",
            input: pull(outsider, g),
            expected_outputs: quiet(),
        },
        TestStep {
            desc: "Algorithm 2, Pull: Fw1(x, s, r, w) to H(s, w) for every w ∈ J(x, r), \
                   in list order, as one part run",
            input: pull(h_origin[0], g),
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
            input: pull(h_origin[0], g),
            expected_outputs: quiet(),
        },
        TestStep {
            desc: "Algorithm 2, Fw1: w ∉ J(x, r) — forwards from all of H(s, x) send nothing",
            input: fw1(h(g, off_list)[0], h_origin.clone(), off_list),
            expected_outputs: quiet(),
        },
        TestStep {
            desc: "Algorithm 2, Fw1: one vote per distinct y — a router's repeats count once",
            input: fw1(relay, vec![h_origin[1]; 10 * D], w),
            expected_outputs: quiet(),
        },
        TestStep {
            desc: "Algorithm 2, Fw1: votes below the majority of H(s, x) send nothing",
            input: fw1(relay, h_origin[2..majority].to_vec(), w),
            expected_outputs: quiet(),
        },
        TestStep {
            desc: "Algorithm 2, Fw1: y ∉ H(s, x) — one vote short, an outsider's forwards, \
                   however many, send nothing",
            input: fw1(relay, vec![outsider; 3 * D], w),
            expected_outputs: quiet(),
        },
        TestStep {
            desc: "Algorithm 2, Fw1: the vote that crosses the majority sends Fw2(x, s, r) to w",
            input: fw1(relay, vec![h_origin[0]], w),
            expected_outputs: Outputs {
                runs: 1,
                sent: vec![(AerMsg::Fw2 { origin, s: g, r }, vec![w])],
            },
        },
        TestStep {
            desc: "Algorithm 2, Fw1: after the relay, later votes send nothing",
            input: fw1(relay, [&h_origin[majority..], &h_origin[..1]].concat(), w),
            expected_outputs: quiet(),
        },
    ]
}

/// Every node of `h`, driven, on `state`.
fn nodes(h: &AerHarness, state: &AerRunState) -> Driver<AerNode> {
    Driver::new(N, 1, |id| Some(h.node_with(id, state)))
}

#[test]
fn algorithm_2_routes_a_pull_in_two_hops() {
    let (h, g, bad) = setup();
    let mut d = nodes(&h, &h.run_state());
    for row in algorithm_2_table(&h, g, bad) {
        let (at, inputs) = row.input;
        let mut outputs = Outputs::default();
        for input in inputs {
            d.apply(at, input);
            outputs.runs += d.outbox().run_count();
            d.outbox()
                .for_each_part(|msg, to| outputs.sent.push((msg.clone(), to.to_vec())));
        }
        assert_eq!(outputs, row.expected_outputs, "{}", row.desc);
    }
}

/// `AerNode::deliver_run` is observably the per-recipient default: the
/// Algorithm 2 table's forwards, fed once as one `Fw1` run to all of
/// `H(g, w)` and once as one message per relay, send the same `Fw2`s from
/// the same relays in the same order.
#[test]
fn an_fw1_run_sends_what_its_recipients_send_one_by_one() {
    let (h, g, bad) = setup();
    let (mut by_run, mut by_message) = (nodes(&h, &h.run_state()), nodes(&h, &h.run_state()));
    let (mut run_sent, mut message_sent) = (Vec::new(), Vec::new());
    for row in algorithm_2_table(&h, g, bad) {
        for input in row.input.1 {
            let Input::Message {
                from,
                msg: msg @ AerMsg::Fw1 { w, .. },
            } = input
            else {
                continue;
            };
            let relays = h.scheme().pull.quorum(g.key(), w);
            for &z in &relays {
                let msg = msg.clone();
                message_sent.extend(by_message.apply(z, Input::Message { from, msg }));
            }
            let run = Input::Run {
                from,
                msg,
                recipients: relays.clone(),
            };
            run_sent.extend(by_run.apply(relays[0], run));
        }
    }
    assert_eq!(run_sent.len(), D, "every relay of H(g, w) relays once");
    assert!(run_sent.iter().all(|e| matches!(e.msg, AerMsg::Fw2 { .. })));
    assert_eq!(run_sent, message_sent);
}

/// The gates of `AerNode::deliver_run` (ROADMAP 11(b)): an `Fw1` run to
/// `H(g, w)` from a sender outside `H(g, origin)` sends nothing and
/// interns nothing — no poll list, no vote row.
#[test]
fn an_fw1_run_from_outside_the_routers_sends_and_interns_nothing() {
    let (h, g, _) = setup();
    let (state, scheme) = (h.run_state(), h.scheme());
    let mut d = nodes(&h, &state);
    let (origin, r) = (NodeId::from_index(5), Label(3));
    let w = h.poll_sampler().poll_list(origin, r)[0];
    let quorum = |x: NodeId| scheme.pull.quorum(g.key(), x);
    let (h_origin, relays) = (quorum(origin), quorum(w));
    let tables = || (state.poll_cache_stats().1, state.fw1_row_count());
    let before = tables();
    let outsiders = (0..N)
        .map(NodeId::from_index)
        .filter(|y| !h_origin.contains(y));
    for from in outsiders {
        let msg = AerMsg::Fw1 { origin, s: g, r, w };
        let recipients = relays.clone();
        let run = Input::Run {
            from,
            msg,
            recipients,
        };
        assert!(d.apply(relays[0], run).is_empty());
    }
    assert_eq!(tables(), before);
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
    let (h, g, bad) = setup();
    let (scheme, poll) = (h.scheme(), h.poll_sampler());
    let state = AerRunState::new(scheme, poll);
    let z = NodeId::from_index(40);
    let mut p = PullPhase::new(z, g, &state, CAP, RetryPolicy::strict());
    let mut hand = hand();
    let tables = || (state.poll_cache_stats().1, state.fw1_row_count());
    let nodes = || (0..N).map(NodeId::from_index);
    let mut outsider_forwards = 0;
    for origin in nodes() {
        let h_origin = scheme.pull.quorum(g.key(), origin);
        let intruder = nodes().find(|y| !h_origin.contains(y)).unwrap();
        for raw in 0..8 {
            for w in nodes().step_by(7) {
                let relayed = hand.call(z, |ctx| p.on_fw1(intruder, origin, g, Label(raw), w, ctx));
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
            assert!(hand
                .call(z, |ctx| p.on_fw1(y, origin, g, Label(3), w, ctx))
                .is_empty());
        }
    }
    assert_eq!(tables(), (1, 0), "a row ahead of the w gate");

    let evaluated = state.pull_cache_stats().1;
    for origin in nodes() {
        for y in nodes().step_by(5) {
            assert!(hand
                .call(z, |ctx| p.on_fw1(y, origin, bad, Label(3), list[0], ctx))
                .is_empty());
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
    let (h, g, _) = setup();
    let (scheme, poll) = (h.scheme(), h.poll_sampler());
    let origin_a = NodeId::from_index(5);
    let origin_b = NodeId::from_index(6);
    let w = poll.poll_list(origin_a, Label(3))[0];
    let ra = Label(3);
    let rb = label_hitting(&poll, origin_b, w);
    let (mut p, mut hand) = (phase(w.index(), g), hand());
    // w is polled by A only.
    let _ = hand.call(w, |ctx| p.on_poll(origin_a, g, ra, ctx));
    // Fw2 majority arrives for B (never polled): no answer.
    let h_w = scheme.pull.quorum(g.key(), w);
    for z in &h_w {
        assert!(
            hand.call(w, |ctx| p.on_fw2(*z, origin_b, g, rb, ctx))
                .is_empty(),
            "answered an unpolled requester"
        );
    }
    // And for A (polled): answer fires at majority.
    let mut answered = 0;
    for z in &h_w {
        answered += hand.call(w, |ctx| p.on_fw2(*z, origin_a, g, ra, ctx)).len();
    }
    assert_eq!(answered, 1);
}

/// The label of the poll `p` opens for its own candidate `g`.
fn own_poll(p: &mut PullPhase, x: NodeId, g: GString) -> Label {
    match hand().call(x, |ctx| p.start_poll(g, ctx))[0].msg {
        AerMsg::Poll(_, r) => r,
        _ => unreachable!(),
    }
}

#[test]
fn decision_requires_strict_majority_even_with_spam() {
    let (h, g, _) = setup();
    let poll = h.poll_sampler();
    let x = NodeId::from_index(7);
    let mut p = phase(7, g);
    let list = poll.poll_list(x, own_poll(&mut p, x, g));
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
    let (h, g, bad) = setup();
    let (scheme, poll) = (h.scheme(), h.poll_sampler());
    let origin = NodeId::from_index(5);
    let w = poll.poll_list(origin, Label(3))[0];
    let (mut p, mut hand) = (phase(w.index(), g), hand());
    // Decide via own poll.
    let own_list = poll.poll_list(w, own_poll(&mut p, w, g));
    for member in own_list.iter().take(poll.majority()) {
        let _ = p.on_answer(*member, g);
    }
    assert_eq!(p.decided(), Some(&g));
    let _ = hand.call(w, |ctx| p.on_decided(ctx));

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
        assert!(!hand
            .call(w, |ctx| p.on_pull(origin2, g, Label(4), ctx))
            .is_empty());
    }
}

#[test]
fn repair_votes_require_distinct_members_and_matching_string() {
    let retry = RetryPolicy {
        poll_timeout: 1,
        repair_attempts: 1,
    };
    let (h, g, bad) = setup();
    let poll = h.poll_sampler();
    let x = NodeId::from_index(2);
    let mut p = PullPhase::new(x, g, &h.run_state(), CAP, retry);
    let mut hand = Driver::<AerNode>::new(N, 7, |_| None);
    let _ = hand.call(x, |ctx| p.start_poll(g, ctx));
    let sends = hand.at(1).call(x, |ctx| p.on_step(ctx));
    let members: Vec<NodeId> = sends.iter().map(|e| e.to).collect();
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
