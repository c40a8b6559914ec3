//! Property tests for the engine's delivery semantics: exactly-once
//! delivery, bounded delay (reliability), determinism, and accounting
//! conservation under randomized adversarial scheduling — then the
//! engine against its oracle: the literal call-order tables on both the
//! production and the reference engine, and the two engines against each
//! other on random toy runs.

use std::collections::BTreeSet;

use fba_sim::{run, Adversary, Context, EngineConfig, Envelope, NodeId, Outbox, Protocol, Step};
use proptest::prelude::*;
use rand_chacha::ChaCha12Rng;

#[path = "support/reference.rs"]
mod reference;

/// Gossip protocol: every node sends `fanout` tagged messages at start;
/// receivers record (sender, tag) pairs. Decides immediately.
#[derive(Clone)]
struct Gossip {
    id: NodeId,
    n: usize,
    fanout: usize,
    received: Vec<(NodeId, u64)>,
}

impl Protocol for Gossip {
    type Msg = u64;
    type Output = u64;

    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        for k in 0..self.fanout {
            let to = NodeId::from_index((self.id.index() + k + 1) % self.n);
            ctx.send(to, (self.id.index() as u64) << 32 | k as u64);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: u64, _ctx: &mut Context<'_, u64>) {
        self.received.push((from, msg));
    }

    fn output(&self) -> Option<u64> {
        Some(self.received.len() as u64)
    }
}

/// Adversary that randomizes delays (within the engine bound) and
/// priorities, deterministically from each envelope's content.
struct JitterScheduler {
    salt: u64,
}

impl Adversary<u64> for JitterScheduler {
    fn corrupt(&mut self, _n: usize, _rng: &mut ChaCha12Rng) -> BTreeSet<NodeId> {
        BTreeSet::new()
    }
    fn act(&mut self, _s: Step, _v: Option<&[Envelope<u64>]>, _o: &mut Outbox<'_, u64>) {}
    fn delay(&mut self, env: &Envelope<u64>) -> Step {
        1 + (fba_sim::rng::splitmix64(env.msg ^ self.salt) % 7)
    }
    fn priority(&mut self, env: &Envelope<u64>) -> i64 {
        (fba_sim::rng::splitmix64(env.msg.wrapping_add(self.salt)) % 5) as i64 - 2
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_message_is_delivered_exactly_once_under_jitter(
        n in 3usize..24,
        fanout in 1usize..5,
        salt in any::<u64>(),
        max_delay in 1u64..5,
    ) {
        let cfg = EngineConfig {
            max_steps: 200,
            ..EngineConfig::asynchronous(n, max_delay)
        };
        let mut adv = JitterScheduler { salt };
        let out = run::<Gossip, _, _>(&cfg, salt, &mut adv, |id| Gossip {
            id,
            n,
            fanout,
            received: Vec::new(),
        });
        prop_assert!(out.quiescent, "network must quiesce");
        // Exactly-once: total received messages equals total sent.
        // (Outputs snapshot at decision time — step 0 here — so the
        // engine's receive counters are the ground truth.)
        let total_received: u64 = (0..n)
            .map(|i| out.metrics.msgs_recv_by(NodeId::from_index(i)))
            .sum();
        prop_assert_eq!(total_received, (n * fanout) as u64);
        prop_assert_eq!(out.metrics.total_msgs_sent(), (n * fanout) as u64);
    }

    #[test]
    fn delivery_respects_the_reliability_bound(
        n in 3usize..16,
        salt in any::<u64>(),
        max_delay in 1u64..6,
    ) {
        // All messages are sent at step 0; with clamped delays the run
        // must quiesce by step max_delay (+drain bookkeeping).
        let cfg = EngineConfig {
            max_steps: 100,
            ..EngineConfig::asynchronous(n, max_delay)
        };
        let mut adv = JitterScheduler { salt };
        let out = run::<Gossip, _, _>(&cfg, salt, &mut adv, |id| Gossip {
            id,
            n,
            fanout: 2,
            received: Vec::new(),
        });
        prop_assert!(
            out.metrics.steps <= max_delay + 2,
            "run took {} steps with max_delay {}",
            out.metrics.steps,
            max_delay
        );
    }

    #[test]
    fn runs_replay_bit_for_bit(
        n in 3usize..16,
        seed in any::<u64>(),
        salt in any::<u64>(),
    ) {
        let cfg = EngineConfig::asynchronous(n, 3);
        let mut a1 = JitterScheduler { salt };
        let mut a2 = JitterScheduler { salt };
        let r1 = run::<Gossip, _, _>(&cfg, seed, &mut a1, |id| Gossip {
            id, n, fanout: 3, received: Vec::new(),
        });
        let r2 = run::<Gossip, _, _>(&cfg, seed, &mut a2, |id| Gossip {
            id, n, fanout: 3, received: Vec::new(),
        });
        prop_assert_eq!(r1.outputs, r2.outputs);
        prop_assert_eq!(r1.metrics.total_bits_sent(), r2.metrics.total_bits_sent());
        prop_assert_eq!(r1.all_decided_at, r2.all_decided_at);
    }

    #[test]
    fn bits_sent_equals_bits_received_at_quiescence(
        n in 3usize..16,
        seed in any::<u64>(),
    ) {
        let cfg = EngineConfig::sync(n);
        let out = run::<Gossip, _, _>(&cfg, seed, &mut fba_sim::NoAdversary, |id| Gossip {
            id, n, fanout: 2, received: Vec::new(),
        });
        prop_assert!(out.quiescent);
        let received: u64 = (0..n)
            .map(|i| out.metrics.bits_recv_by(NodeId::from_index(i)))
            .sum();
        prop_assert_eq!(out.metrics.total_bits_sent(), received);
    }
}

/// The stage/call-order step table: every call an engine makes into a
/// protocol, an adversary and an observer, with arguments, for one fixed
/// toy run — the `(input, expected calls)` table form of the crate-docs
/// sentence "delay then priority per envelope in send order, then
/// observe". Stateful adversaries depend on this order. Every table runs
/// on the production engine and on the reference engine: the literal
/// tables pin the oracle, and the oracle pins the engine everywhere else.
mod step_table {
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::rc::Rc;

    use fba_sim::{
        run_observed, Adversary, Context, CrashPlan, EngineConfig, Envelope, NoAdversary, NodeId,
        Observer, Outbox, Protocol, RunContext, Step, Window,
    };
    use rand_chacha::ChaCha12Rng;

    use super::reference::reference_run;

    #[derive(Clone, Default)]
    struct Log(Rc<RefCell<Vec<String>>>);

    impl Log {
        fn note(&self, call: String) {
            self.0.borrow_mut().push(call);
        }
    }

    fn env(e: &Envelope<u64>) -> String {
        format!("{}>{}:{}", e.from.index(), e.to.index(), e.msg)
    }

    fn envs(sends: &[Envelope<u64>]) -> String {
        sends.iter().map(env).collect::<Vec<_>>().join(",")
    }

    /// Nodes 0 and 1 of a 3-node system (node 2 is corrupt). At start a
    /// node multicasts `10·id` to both others (one batch, one run); a
    /// message below 100 is answered with `msg + 100` (a single
    /// envelope); a restart sends `7` and `8` to node 0 (one batch, two
    /// runs). A node decides on its first delivery.
    struct Chatty {
        id: usize,
        received: u64,
        log: Log,
    }

    impl Protocol for Chatty {
        type Msg = u64;
        type Output = u64;

        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            self.log.note(format!("start({}@{})", self.id, ctx.step()));
            let others = (0..3).filter(|&to| to != self.id);
            let others: Vec<NodeId> = others.map(NodeId::from_index).collect();
            ctx.multicast(&others, 10 * self.id as u64);
        }
        fn on_step(&mut self, ctx: &mut Context<'_, u64>) {
            self.log.note(format!("step({}@{})", self.id, ctx.step()));
        }
        fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Context<'_, u64>) {
            let (id, step) = (self.id, ctx.step());
            self.log
                .note(format!("msg({id}<{}:{msg}@{step})", from.index()));
            self.received += 1;
            if msg < 100 {
                ctx.send(from, msg + 100);
            }
        }
        fn on_crash(&mut self, step: Step) {
            self.log.note(format!("crash({}@{step})", self.id));
        }
        fn on_restart(&mut self, ctx: &mut Context<'_, u64>) {
            self.log
                .note(format!("restart({}@{})", self.id, ctx.step()));
            ctx.send(NodeId::from_index(0), 7);
            ctx.send(NodeId::from_index(0), 8);
        }
        fn output(&self) -> Option<u64> {
            (self.received > 0).then_some(self.received)
        }
    }

    /// Rushing, scheduling, observing: corrupts node 2, injects `2>0:99`
    /// at step 0, delays node 0's messages by 2 (clamped under
    /// `max_delay = 1`), and lets `99` jump the delivery queue.
    impl Adversary<u64> for Log {
        fn corrupt(&mut self, n: usize, _rng: &mut ChaCha12Rng) -> BTreeSet<NodeId> {
            self.note(format!("corrupt({n})"));
            BTreeSet::from([NodeId::from_index(2)])
        }
        fn rushing(&self) -> bool {
            true
        }
        fn act(&mut self, step: Step, view: Option<&[Envelope<u64>]>, out: &mut Outbox<'_, u64>) {
            let view = view.expect("rushing adversaries get the step's sends");
            self.note(format!("act({step},[{}])", envs(view)));
            if step == 0 {
                out.send_as(NodeId::from_index(2), NodeId::from_index(0), 99);
            }
        }
        fn delay(&mut self, e: &Envelope<u64>) -> Step {
            self.note(format!("delay({})", env(e)));
            1 + u64::from(e.from.index() == 0)
        }
        fn priority(&mut self, e: &Envelope<u64>) -> i64 {
            self.note(format!("prio({})", env(e)));
            -i64::from(e.msg == 99)
        }
        fn observe(&mut self, step: Step, sends: &[Envelope<u64>]) {
            assert!(sends.iter().all(|e| e.sent_at == step));
            self.note(format!("observe({step},[{}])", envs(sends)));
        }
    }

    impl Observer<Chatty> for Log {
        fn on_step(&mut self, step: Step, sends: &[Envelope<u64>]) {
            self.note(format!("view({step},[{}])", envs(sends)));
        }
        fn on_decision(&mut self, id: NodeId, step: Step, output: &u64) {
            self.note(format!("decided({}@{step}={output})", id.index()));
        }
        fn on_final(&mut self, id: NodeId, node: &Chatty) {
            self.note(format!("final({}:{})", id.index(), node.received));
        }
    }

    /// Runs the toy under `max_delay`, with node 1 dark over step 1 when
    /// `outage` is set, on both engines, and compares the call log
    /// (whitespace-separated) with `STEP_0` followed by `rest`.
    fn assert_table(max_delay: Step, outage: bool, rest: &str) {
        let expected: Vec<&str> = STEP_0
            .split_whitespace()
            .chain(rest.split_whitespace())
            .collect();
        for reference in [false, true] {
            let log = Log::default();
            let dark = (Window::bounded(1, 2), vec![NodeId::from_index(1)]);
            let cfg = EngineConfig {
                max_steps: 12,
                crash: outage.then(|| CrashPlan::new(vec![dark]).expect("valid plan")),
                ..EngineConfig::asynchronous(3, max_delay)
            };
            let node = |id: NodeId| Chatty {
                id: id.index(),
                received: 0,
                log: log.clone(),
            };
            let (adversary, observer) = (&mut log.clone(), &mut log.clone());
            let out = if reference {
                reference_run(&cfg, 1, 1, adversary, node, observer)
            } else {
                run_observed(&cfg, 1, adversary, node, observer)
            };
            assert!(out.all_decided(), "the toy run decides everywhere");
            let got = log.0.borrow();
            assert_eq!(*got, expected, "reference={reference}:\n{}", got.join("\n"));
        }
    }

    const STEP_0: &str = "corrupt(3)
        start(0@0) start(1@0)
        act(0,[0>1:0,0>2:0,1>0:10,1>2:10])
        delay(0>1:0) prio(0>1:0) delay(0>2:0) prio(0>2:0) delay(1>0:10) prio(1>0:10) delay(1>2:10)
          prio(1>2:10) delay(2>0:99) prio(2>0:99)
        observe(0,[0>1:0,0>2:0,1>0:10,1>2:10,2>0:99]) view(0,[0>1:0,0>2:0,1>0:10,1>2:10,2>0:99])";

    #[test]
    fn sync_call_order() {
        assert_table(
            1,
            false,
            "step(0@1) step(1@1)
             msg(0<2:99@1) msg(1<0:0@1) msg(0<1:10@1)
             act(1,[0>2:199,1>0:100,0>1:110])
             delay(0>2:199) prio(0>2:199) delay(1>0:100) prio(1>0:100) delay(0>1:110)
               prio(0>1:110)
             observe(1,[0>2:199,1>0:100,0>1:110]) view(1,[0>2:199,1>0:100,0>1:110])
             decided(0@1=2) decided(1@1=1)
             step(0@2) step(1@2)
             msg(0<1:100@2) msg(1<0:110@2)
             observe(2,[]) view(2,[])
             final(0:3) final(1:2)",
        );
    }

    #[test]
    fn async_call_order() {
        assert_table(
            2,
            false,
            "step(0@1) step(1@1)
             msg(0<2:99@1) msg(0<1:10@1)
             act(1,[0>2:199,0>1:110])
             delay(0>2:199) prio(0>2:199) delay(0>1:110) prio(0>1:110)
             observe(1,[0>2:199,0>1:110]) view(1,[0>2:199,0>1:110])
             decided(0@1=2)
             step(0@2) step(1@2)
             msg(1<0:0@2)
             act(2,[1>0:100])
             delay(1>0:100) prio(1>0:100)
             observe(2,[1>0:100]) view(2,[1>0:100])
             decided(1@2=1)
             step(0@3) step(1@3)
             msg(1<0:110@3) msg(0<1:100@3)
             observe(3,[]) view(3,[])
             final(0:3) final(1:2)",
        );
    }

    #[test]
    fn sync_call_order_with_an_outage() {
        assert_table(
            1,
            true,
            "crash(1@1)
             step(0@1)
             msg(0<2:99@1)
             act(1,[0>2:199])
             delay(0>2:199) prio(0>2:199)
             observe(1,[0>2:199]) view(1,[0>2:199])
             decided(0@1=1)
             restart(1@2)
             step(0@2) step(1@2)
             act(2,[1>0:7,1>0:8])
             delay(1>0:7) prio(1>0:7) delay(1>0:8) prio(1>0:8)
             observe(2,[1>0:7,1>0:8]) view(2,[1>0:7,1>0:8])
             step(0@3) step(1@3)
             msg(0<1:7@3) msg(0<1:8@3)
             act(3,[0>1:107,0>1:108])
             delay(0>1:107) prio(0>1:107) delay(0>1:108) prio(0>1:108)
             observe(3,[0>1:107,0>1:108]) view(3,[0>1:107,0>1:108])
             step(0@4) step(1@4)
             msg(1<0:107@4) msg(1<0:108@4)
             act(4,[])
             observe(4,[]) view(4,[])
             decided(1@4=2)
             final(0:3) final(1:2)",
        );
    }

    #[test]
    fn async_call_order_with_an_outage() {
        assert_table(
            2,
            true,
            "crash(1@1)
             step(0@1)
             msg(0<2:99@1)
             act(1,[0>2:199])
             delay(0>2:199) prio(0>2:199)
             observe(1,[0>2:199]) view(1,[0>2:199])
             decided(0@1=1)
             restart(1@2)
             step(0@2) step(1@2)
             msg(1<0:0@2)
             act(2,[1>0:7,1>0:8,1>0:100])
             delay(1>0:7) prio(1>0:7) delay(1>0:8) prio(1>0:8) delay(1>0:100) prio(1>0:100)
             observe(2,[1>0:7,1>0:8,1>0:100]) view(2,[1>0:7,1>0:8,1>0:100])
             decided(1@2=1)
             step(0@3) step(1@3)
             msg(0<1:7@3) msg(0<1:8@3) msg(0<1:100@3)
             observe(3,[0>1:107,0>1:108]) view(3,[0>1:107,0>1:108])
             step(0@4) step(1@4)
             msg(1<0:107@4) msg(1<0:108@4)
             observe(4,[]) view(4,[])
             final(0:4) final(1:3)",
        );
    }

    /// The bulk lane, which the scheduling adversary above never lets a
    /// delivery reach. Node 0 of a 4-node system multicasts at start: `5`
    /// to nodes 1, 2, 3, then `6` to nodes 2, 1 — one batch, two runs —
    /// or, `parted`, the same shape as one part run of `5 + tag`: tag 1
    /// to nodes 1, 3, then tag 2 to nodes 2, 1. Whoever gets `m < 10`
    /// answers with `m + 10` and `m + 20` (a batch of its own), so the
    /// order of the answers in the step's send view is the order of the
    /// deliveries and of the per-recipient outboxes. `deliver_run` is the
    /// trait's default.
    struct Fanout {
        id: usize,
        parted: bool,
        log: Log,
    }

    impl Protocol for Fanout {
        type Msg = u64;
        type Output = ();

        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            let ids = |ids: &[usize]| -> Vec<NodeId> {
                ids.iter().copied().map(NodeId::from_index).collect()
            };
            if self.id == 0 && self.parted {
                let parts = [(1, [1, 3]), (2, [2, 1])];
                let parts = parts.map(|(tag, to)| (NodeId::from_index(tag), ids(&to).into()));
                ctx.multicast_parts(5, |msg, tag| msg + tag.index() as u64, parts);
            } else if self.id == 0 {
                for (to, msg) in [([1, 2, 3].as_slice(), 5), (&[2, 1], 6)] {
                    ctx.multicast(&ids(to), msg);
                }
            }
        }
        fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Context<'_, u64>) {
            let (id, step) = (self.id, ctx.step());
            self.log
                .note(format!("msg({id}<{}:{msg}@{step})", from.index()));
            if msg < 10 {
                ctx.send(from, msg + 10);
                ctx.send(from, msg + 20);
            }
        }
        fn output(&self) -> Option<()> {
            Some(())
        }
    }

    impl Observer<Fanout> for Log {
        fn on_step(&mut self, step: Step, sends: &[Envelope<u64>]) {
            self.note(format!("view({step},[{}])", envs(sends)));
        }
    }

    /// The fan-in toy: node 0 of a 4-node system multicasts `5` to nodes
    /// 1, 2, 3 at start, and every recipient answers the sender with
    /// `15` — which its `deliver_run` ships through
    /// [`RunContext::fan_in`]: one delivery from three senders.
    struct Relay {
        id: usize,
        log: Log,
    }

    impl Relay {
        /// Logs the delivery and returns the answer it calls for.
        fn hear(&self, from: NodeId, msg: u64, step: Step) -> Option<u64> {
            let id = self.id;
            self.log
                .note(format!("msg({id}<{}:{msg}@{step})", from.index()));
            (msg < 10).then_some(msg + 10)
        }
    }

    impl Protocol for Relay {
        type Msg = u64;
        type Output = ();

        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            if self.id == 0 {
                let to: Vec<NodeId> = [1, 2, 3].map(NodeId::from_index).to_vec();
                ctx.multicast(&to, 5);
            }
        }
        fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Context<'_, u64>) {
            if let Some(answer) = self.hear(from, msg, ctx.step()) {
                ctx.send(from, answer);
            }
        }
        fn deliver_run(
            nodes: &mut [Option<Self>],
            from: NodeId,
            msg: &u64,
            recipients: &[NodeId],
            run: &mut RunContext<'_, u64>,
        ) {
            let live = recipients
                .iter()
                .filter_map(|&z| Some((z, nodes[z.index()].as_ref()?)));
            let senders: Vec<NodeId> = live
                .filter_map(|(z, node)| node.hear(from, *msg, run.step()).map(|_| z))
                .collect();
            run.fan_in(&senders, from, msg + 10);
        }
        fn output(&self) -> Option<()> {
            Some(())
        }
    }

    impl Observer<Relay> for Log {
        fn on_step(&mut self, step: Step, sends: &[Envelope<u64>]) {
            self.note(format!("view({step},[{}])", envs(sends)));
        }
    }

    /// Runs a 4-node toy on both engines, with node 2 dark over `dark`
    /// when given, and compares the call log with `expected` and the drop
    /// count with `dropped`.
    fn assert_run_table<P: Protocol<Msg = u64>>(
        toy: fn(usize, Log) -> P,
        dark: Option<Window>,
        dropped: u64,
        expected: &str,
    ) where
        Log: Observer<P>,
    {
        let expected: Vec<&str> = expected.split_whitespace().collect();
        for reference in [false, true] {
            let log = Log::default();
            let outage = dark.map(|window| (window, vec![NodeId::from_index(2)]));
            let cfg = EngineConfig {
                crash: outage.map(|outage| CrashPlan::new(vec![outage]).expect("valid plan")),
                ..EngineConfig::sync(4)
            };
            let node = |id: NodeId| toy(id.index(), log.clone());
            let observer = &mut log.clone();
            let out = if reference {
                reference_run(&cfg, 1, 1, &mut NoAdversary, node, observer)
            } else {
                run_observed(&cfg, 1, &mut NoAdversary, node, observer)
            };
            assert!(out.quiescent);
            assert_eq!(out.metrics.msgs_dropped(), dropped, "reference={reference}");
            let got = log.0.borrow();
            assert_eq!(*got, expected, "reference={reference}:\n{}", got.join("\n"));
        }
    }

    fn fanout(id: usize, log: Log) -> Fanout {
        Fanout {
            id,
            parted: false,
            log,
        }
    }

    #[test]
    fn default_run_hook_keeps_the_call_order_through_a_batch() {
        assert_run_table(
            fanout,
            None,
            0,
            "view(0,[0>1:5,0>2:5,0>3:5,0>2:6,0>1:6])
             msg(1<0:5@1) msg(2<0:5@1) msg(3<0:5@1) msg(2<0:6@1) msg(1<0:6@1)
             view(1,[1>0:15,1>0:25,2>0:15,2>0:25,3>0:15,3>0:25,2>0:16,2>0:26,1>0:16,1>0:26])
             msg(0<1:15@2) msg(0<1:25@2) msg(0<2:15@2) msg(0<2:25@2) msg(0<3:15@2) msg(0<3:25@2)
               msg(0<2:16@2) msg(0<2:26@2) msg(0<1:16@2) msg(0<1:26@2)
             view(2,[])",
        );
    }

    #[test]
    fn a_run_with_dark_recipients_drops_exactly_those() {
        assert_run_table(
            fanout,
            Some(Window::bounded(1, 2)),
            2,
            "view(0,[0>1:5,0>2:5,0>3:5,0>2:6,0>1:6])
             msg(1<0:5@1) msg(3<0:5@1) msg(1<0:6@1)
             view(1,[1>0:15,1>0:25,3>0:15,3>0:25,1>0:16,1>0:26])
             msg(0<1:15@2) msg(0<1:25@2) msg(0<3:15@2) msg(0<3:25@2) msg(0<1:16@2) msg(0<1:26@2)
             view(2,[])",
        );
    }

    #[test]
    fn a_part_run_with_a_dark_recipient_in_its_second_part_drops_exactly_that_envelope() {
        // Each part is a run of its own payload: `0>2:7` is the one drop.
        assert_run_table(
            |id, log| Fanout {
                id,
                parted: true,
                log,
            },
            Some(Window::bounded(1, 2)),
            1,
            "view(0,[0>1:6,0>3:6,0>2:7,0>1:7])
             msg(1<0:6@1) msg(3<0:6@1) msg(1<0:7@1)
             view(1,[1>0:16,1>0:26,3>0:16,3>0:26,1>0:17,1>0:27])
             msg(0<1:16@2) msg(0<1:26@2) msg(0<3:16@2) msg(0<3:26@2) msg(0<1:17@2) msg(0<1:27@2)
             view(2,[])",
        );
    }

    #[test]
    fn a_fan_in_with_a_dark_sender_drops_exactly_its_envelope() {
        // The three answers are one fan-in; node 2 is dark when it lands.
        assert_run_table(
            |id, log| Relay { id, log },
            Some(Window::bounded(2, 3)),
            1,
            "view(0,[0>1:5,0>2:5,0>3:5])
             msg(1<0:5@1) msg(2<0:5@1) msg(3<0:5@1)
             view(1,[1>0:15,2>0:15,3>0:15])
             msg(0<1:15@2) msg(0<3:15@2)
             view(2,[])",
        );
    }
}

/// The differential property: `run_session`, two runs back to back over
/// one [`EngineSession`], against a fresh `reference_run` each — on a toy
/// protocol and adversary built to vary what the engine has to get right:
/// outbox shapes (which decide envelope or batch), copied runs and part
/// runs, fan-ins from a run-level hook, the schedule (which
/// decides, step by step, bulk or keyed lane, and batch by batch or
/// fan-in by fan-in, whole or split), rushing sends, chained outages that
/// darken senders and recipients of either, and which hints are off.
mod differential {
    use std::collections::BTreeSet;
    use std::rc::Rc;

    use fba_sim::rng::splitmix64;
    use fba_sim::{
        choose_corrupt, deliver_each, run_session, Adversary, Context, CrashPlan, EngineConfig,
        EngineSession, Envelope, NodeId, Observer, Outbox, Protocol, RunContext, Step, Window,
    };
    use proptest::prelude::*;
    use rand::Rng;
    use rand_chacha::ChaCha12Rng;

    use super::reference::{assert_same_outcome, reference_run};

    /// Folds `parts` into `h`, order-sensitively.
    fn mix(h: u64, parts: impl IntoIterator<Item = u64>) -> u64 {
        parts.into_iter().fold(h, |h, part| splitmix64(h ^ part))
    }

    /// Marks an *echo* payload: every recipient answers its sender with
    /// the same [`echo`] of it, which `deliver_run` sends as one fan-in.
    const ECHO: u64 = 1 << 62;

    /// The answer to an echo payload: no longer one, one hop less.
    fn echo(msg: u64) -> u64 {
        (msg & !ECHO & !3) | (msg % 4).saturating_sub(1)
    }

    /// The part function of the toy's part runs: the tag into bits 4 and
    /// up, leaving the echo mark and the hop budget as they were.
    fn tagged(msg: &u64, tag: NodeId) -> u64 {
        msg ^ (tag.index() as u64) << 4
    }

    /// A payload's low two bits are its hop budget `b`: a delivery is
    /// answered with `b` messages — up to two equal ones to the sender
    /// (one multicast to a recipient listed twice, as `heard` falls a
    /// copied run or a part run of one part tagged with the sender), the
    /// third to a node drawn from the private RNG — so outboxes come
    /// empty, single, uniform and mixed, and traffic dies out. With a
    /// `fanout` of three or more, every other node opens with one echo
    /// part run over eight recipients — itself first, and with `n < 8`
    /// some of them twice — in parts of three, none and five, tagged 1, 2
    /// and 3, so each part's payload is its own: parts long enough for a
    /// per-envelope schedule to cut in the middle, whose answers come back
    /// as fan-ins as long. What a node has `heard` hashes deliveries in
    /// order; it decides on that after `quota` of them.
    struct Toy {
        id: usize,
        n: usize,
        fanout: usize,
        quota: u64,
        heard: u64,
        count: u64,
    }

    impl Toy {
        fn hear(&mut self, from: NodeId, msg: u64) {
            self.heard = mix(self.heard, [msg, from.index() as u64]);
            self.count += 1;
        }
    }

    impl Protocol for Toy {
        type Msg = u64;
        type Output = u64;

        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            // `fanout` messages to the next nodes round, two to a payload.
            let next: Vec<NodeId> = (0..self.fanout)
                .map(|k| NodeId::from_index((self.id + 1 + k) % self.n))
                .collect();
            for (pair, to) in next.chunks(2).enumerate() {
                ctx.multicast(to, 4 * (256 * self.id as u64 + pair as u64) + 3);
            }
            if self.fanout >= 3 && self.id.is_multiple_of(2) {
                let list = |ks: std::ops::Range<usize>| -> Rc<[NodeId]> {
                    ks.map(|k| NodeId::from_index((self.id + k) % self.n))
                        .collect()
                };
                let parts = [(1, list(0..3)), (2, list(3..3)), (3, list(3..8))];
                let parts = parts.map(|(tag, to)| (NodeId::from_index(tag), to));
                ctx.multicast_parts(ECHO | (4 * (4096 + self.id as u64) + 2), tagged, parts);
            }
        }
        fn on_step(&mut self, ctx: &mut Context<'_, u64>) {
            if self.count < self.quota && ctx.step() % 4 == self.id as u64 % 4 {
                let to = NodeId::from_index(ctx.rng().gen_range(0..self.n));
                ctx.send(to, 4 * ctx.step() + 1);
            }
        }
        fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Context<'_, u64>) {
            self.hear(from, msg);
            if msg & ECHO != 0 {
                return ctx.send(from, echo(msg));
            }
            let budget = msg % 4;
            let reply = (self.heard & !3 & !ECHO) | budget.saturating_sub(1);
            let to = &[from, from][..budget.min(2) as usize];
            if self.heard & 8 == 0 {
                ctx.multicast(to, reply);
            } else {
                ctx.multicast_parts(reply, tagged, [(from, to.into())]);
            }
            if budget == 3 {
                let to = NodeId::from_index(ctx.rng().gen_range(0..self.n));
                ctx.send(to, reply ^ 4);
            }
        }
        /// An echo run is answered by its live recipients as one fan-in
        /// to its sender; anything else takes the per-recipient loop.
        fn deliver_run(
            nodes: &mut [Option<Self>],
            from: NodeId,
            msg: &u64,
            recipients: &[NodeId],
            run: &mut RunContext<'_, u64>,
        ) {
            if msg & ECHO == 0 {
                return deliver_each(nodes, from, msg, recipients, run);
            }
            let mut senders = Vec::new();
            for &z in recipients {
                if let Some(node) = nodes[z.index()].as_mut() {
                    node.hear(from, *msg);
                    senders.push(z);
                }
            }
            run.fan_in(&senders, from, echo(*msg));
        }
        fn on_crash(&mut self, _step: Step) {
            self.heard = 0;
        }
        fn on_restart(&mut self, ctx: &mut Context<'_, u64>) {
            ctx.send(NodeId::from_index(0), 7);
            ctx.send(NodeId::from_index((self.id + 1) % self.n), 6);
        }
        fn output(&self) -> Option<u64> {
            (self.count >= self.quota).then_some(self.heard)
        }
    }

    /// Corrupts `t` nodes and has each inject one message per step for
    /// five steps, chosen from the rushing view when it gets one. Its
    /// `state` chains every scheduling and observation call, so a call
    /// out of order changes every later delay. `mode` 0 keeps the default
    /// schedule and says so through both hints; 1 is consulted and
    /// answers the default; 2 jitters every envelope, so batches split
    /// mid-run and fan-ins mid-list; 3 jitters the odd steps only, so bulk and keyed steps
    /// share calendar slots; 4 keys an envelope by its sender and hop
    /// budget alone (the `corner` shape: most steps are non-uniform and
    /// most batches ride the keyed lane whole); 5 answers the default
    /// except for one payload in sixteen (the `bad-string` shape: a long
    /// uniform prefix, the first deviation late in the step or never).
    struct Chaos {
        t: usize,
        rushing: bool,
        mode: u64,
        salt: u64,
        state: u64,
        n: usize,
        corrupt: Vec<NodeId>,
    }

    impl Chaos {
        /// Chains the call into `state` and answers with the envelope's
        /// `(delay, priority)` — off the chain in modes 2 and 3, off the
        /// envelope alone in modes 4 and 5 — or `None` for the default.
        fn key(&mut self, env: &Envelope<u64>, part: u64) -> Option<(Step, i64)> {
            let jitters = self.mode == 2 || (self.mode == 3 && env.sent_at % 2 == 1);
            if !jitters && self.mode < 4 {
                return None;
            }
            self.state = mix(self.state, [part]);
            let hash = match self.mode {
                4 => mix(self.salt, [env.from.index() as u64, env.msg % 4]),
                5 => match mix(self.salt, [env.msg]) {
                    rare if rare.is_multiple_of(16) => rare / 16,
                    _ => return None,
                },
                _ => self.state,
            };
            Some((1 + hash % 4, (hash % 5) as i64 - 2))
        }
    }

    impl Adversary<u64> for Chaos {
        fn corrupt(&mut self, n: usize, rng: &mut ChaCha12Rng) -> BTreeSet<NodeId> {
            let set = choose_corrupt(n, self.t.min(n), rng);
            (self.n, self.corrupt) = (n, set.iter().copied().collect());
            set
        }
        fn rushing(&self) -> bool {
            self.rushing
        }
        fn act(&mut self, step: Step, view: Option<&[Envelope<u64>]>, out: &mut Outbox<'_, u64>) {
            assert_eq!(view.is_some(), self.rushing);
            if step >= 5 {
                return;
            }
            let seen = view.map_or(step, |v| mix(step, v.iter().map(|e| e.msg)));
            for (i, &from) in self.corrupt.iter().enumerate() {
                let to = mix(seen, [i as u64]) % self.n as u64;
                out.send_as(
                    from,
                    NodeId::from_index(to as usize),
                    (seen & !3 & !ECHO) | 2,
                );
            }
        }
        fn delay(&mut self, env: &Envelope<u64>) -> Step {
            self.key(env, env.msg).map_or(1, |(delay, _)| delay)
        }
        fn priority(&mut self, env: &Envelope<u64>) -> i64 {
            let to = env.to.index() as u64;
            self.key(env, to).map_or(0, |(_, priority)| priority)
        }
        fn observe(&mut self, step: Step, sends: &[Envelope<u64>]) {
            if self.mode >= 2 {
                self.state = mix(self.state, [step, sends.len() as u64]);
            }
        }
        fn schedules(&self) -> bool {
            self.mode != 0
        }
        fn observes(&self) -> bool {
            self.mode != 0
        }
    }

    /// Hashes every observer call in order; `on_step` only when `watch`
    /// is on, which is also what it tells the engine.
    struct Tally {
        watch: bool,
        hash: u64,
    }

    impl Observer<Toy> for Tally {
        fn on_step(&mut self, step: Step, sends: &[Envelope<u64>]) {
            if self.watch {
                let sends = sends.iter().flat_map(|e| [e.to.index() as u64, e.msg]);
                self.hash = mix(mix(self.hash, [step]), sends);
            }
        }
        fn on_decision(&mut self, id: NodeId, step: Step, output: &u64) {
            self.hash = mix(self.hash, [id.index() as u64, step, *output]);
        }
        fn on_final(&mut self, id: NodeId, node: &Toy) {
            self.hash = mix(self.hash, [id.index() as u64, node.heard]);
        }
        fn wants_step_sends(&self) -> bool {
            self.watch
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(384))]

        #[test]
        fn run_session_matches_the_reference_on_random_toy_runs(
            n in 3usize..14,
            fanout in 0usize..6,
            quota in 1u64..6,
            seed in any::<u64>(),
            salt in any::<u64>(),
            max_delay in 1u64..4,
            drain_steps in 0u64..6,
            t in 0usize..4,
            rushing in any::<bool>(),
            mode in 0u64..6,
            transcript in any::<bool>(),
            watch in any::<bool>(),
            outages in collection::vec((0u64..3, 1u64..4, 1usize..4), 0..4),
        ) {
            // Windows `gap` steps apart — chained when it is 0 — each
            // taking down up to three nodes, corrupt ones included.
            let mut at = 1;
            let outages = outages.iter().enumerate().map(|(i, &(gap, len, k))| {
                let start = at + gap;
                at = start + len;
                let node = |j| NodeId::from_index((salt as usize % n + 5 * i + 3 * j) % n);
                (Window::bounded(start, at), (0..k).map(node).collect())
            });
            let mut cfg = EngineConfig {
                max_steps: 24,
                drain_steps,
                record_transcript: transcript,
                crash: Some(CrashPlan::new(outages.collect()).expect("ordered windows")),
                ..EngineConfig::sync(n)
            };
            let toy = |id: NodeId| Toy { id: id.index(), n, fanout, quota, heard: 0, count: 0 };
            let chaos = || Chaos { t, rushing, mode, salt, state: salt, n: 0, corrupt: Vec::new() };
            // The second run inherits the first's session — whatever a run
            // cut short left pending included — under another seed and
            // another delay horizon.
            let mut session = EngineSession::new(1);
            for (seed, max_delay) in [(seed, max_delay), (seed ^ salt, max_delay % 3 + 1)] {
                cfg.max_delay = max_delay;
                let (mut adv, mut tally) = (chaos(), Tally { watch, hash: 0 });
                let got = run_session(&cfg, seed, salt, &mut adv, toy, &mut tally, &mut session);
                let (mut ref_adv, mut ref_tally) = (chaos(), Tally { watch, hash: 0 });
                let want = reference_run(&cfg, seed, salt, &mut ref_adv, toy, &mut ref_tally);
                assert_same_outcome(&format!("seed {seed}"), &got, &want);
                prop_assert_eq!(adv.state, ref_adv.state, "adversary call sequence");
                prop_assert_eq!(tally.hash, ref_tally.hash, "observer call sequence");
            }
        }
    }
}
