//! Engine edge-case tests: step caps, drain bounds, header-size
//! overrides, and adversary lifecycle details.

use std::collections::BTreeSet;

use fba_sim::{run, Adversary, Context, EngineConfig, Envelope, NodeId, Outbox, Protocol, Step};
use rand_chacha::ChaCha12Rng;

/// Protocol that never decides and keeps chattering every step.
struct Chatter;

impl Protocol for Chatter {
    type Msg = ();
    type Output = ();
    fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
        ctx.send(NodeId::from_index((ctx.id().index() + 1) % ctx.n()), ());
    }
    fn on_step(&mut self, ctx: &mut Context<'_, ()>) {
        ctx.send(NodeId::from_index((ctx.id().index() + 1) % ctx.n()), ());
    }
    fn on_message(&mut self, _f: NodeId, _m: (), _c: &mut Context<'_, ()>) {}
    fn output(&self) -> Option<()> {
        None
    }
}

#[test]
fn max_steps_caps_non_terminating_protocols() {
    let cfg = EngineConfig {
        max_steps: 25,
        ..EngineConfig::sync(4)
    };
    let out = run::<Chatter, _, _>(&cfg, 1, &mut fba_sim::NoAdversary, |_| Chatter);
    assert!(out.all_decided_at.is_none());
    assert!(!out.quiescent);
    assert_eq!(out.metrics.steps, 25);
    // 4 nodes × 26 activations (steps 0..=25).
    assert_eq!(out.metrics.total_msgs_sent(), 4 * 26);
}

/// Decides instantly but keeps replying to every delivery — exercises the
/// drain bound.
struct EchoForever;

impl Protocol for EchoForever {
    type Msg = u32;
    type Output = ();
    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        ctx.send(NodeId::from_index((ctx.id().index() + 1) % ctx.n()), 0);
    }
    fn on_message(&mut self, from: NodeId, v: u32, ctx: &mut Context<'_, u32>) {
        ctx.send(from, v + 1);
    }
    fn output(&self) -> Option<()> {
        Some(())
    }
}

#[test]
fn drain_steps_bound_post_decision_chatter() {
    let cfg = EngineConfig {
        drain_steps: 10,
        ..EngineConfig::sync(4)
    };
    let out = run::<EchoForever, _, _>(&cfg, 1, &mut fba_sim::NoAdversary, |_| EchoForever);
    assert_eq!(out.all_decided_at, Some(0));
    assert!(!out.quiescent, "echo ping-pong never quiesces");
    assert!(
        out.metrics.steps <= 11,
        "drain must stop after drain_steps: ran {}",
        out.metrics.steps
    );
}

#[test]
fn header_bits_are_two_node_ids() {
    assert_eq!(EngineConfig::sync(4).effective_header_bits(), 2 * 2); // 2·⌈log₂ 4⌉
    assert_eq!(EngineConfig::sync(1000).effective_header_bits(), 2 * 10);
}

/// Adversary that records the step at which `act` was last called —
/// verifies the engine stops consulting it once all correct nodes decided.
struct ActTracker {
    last_act: Step,
}

impl Adversary<u32> for ActTracker {
    fn corrupt(&mut self, _n: usize, _rng: &mut ChaCha12Rng) -> BTreeSet<NodeId> {
        BTreeSet::new()
    }
    fn act(&mut self, step: Step, _v: Option<&[Envelope<u32>]>, _o: &mut Outbox<'_, u32>) {
        self.last_act = step;
    }
}

#[test]
fn adversary_stops_acting_once_all_decided() {
    let cfg = EngineConfig {
        drain_steps: 10,
        ..EngineConfig::sync(4)
    };
    let mut adv = ActTracker { last_act: 0 };
    let out = run::<EchoForever, _, _>(&cfg, 3, &mut adv, |_| EchoForever);
    // All decide at step 0; the adversary must never act after it.
    assert_eq!(out.all_decided_at, Some(0));
    assert_eq!(adv.last_act, 0);
}

/// Nodes whose ids are even decide at start; odd ones on first message.
struct Staggered {
    id: NodeId,
    decided: bool,
}

impl Protocol for Staggered {
    type Msg = ();
    type Output = u32;
    fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
        if self.id.index().is_multiple_of(2) {
            self.decided = true;
            // Tell the odd neighbour.
            let next = NodeId::from_index((self.id.index() + 1) % ctx.n());
            ctx.send(next, ());
        }
    }
    fn on_message(&mut self, _f: NodeId, _m: (), _c: &mut Context<'_, ()>) {
        self.decided = true;
    }
    fn output(&self) -> Option<u32> {
        self.decided.then_some(1)
    }
}

#[test]
fn decision_steps_are_recorded_per_node() {
    let cfg = EngineConfig::sync(4);
    let out = run::<Staggered, _, _>(&cfg, 4, &mut fba_sim::NoAdversary, |id| Staggered {
        id,
        decided: false,
    });
    assert_eq!(out.all_decided_at, Some(1));
    assert_eq!(out.metrics.decided_at(NodeId::from_index(0)), Some(0));
    assert_eq!(out.metrics.decided_at(NodeId::from_index(1)), Some(1));
    assert_eq!(out.metrics.decided_at(NodeId::from_index(2)), Some(0));
    assert_eq!(out.metrics.decided_at(NodeId::from_index(3)), Some(1));
    assert_eq!(out.metrics.decided_quantile(0.5), Some(0));
    assert_eq!(out.metrics.decided_quantile(1.0), Some(1));
}
