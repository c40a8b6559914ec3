//! [`Driver`]: one node's side of a run, input by input, for handler
//! tests written as tables of [`TestStep`] rows.

use std::collections::BTreeSet;

use rand_chacha::ChaCha12Rng;

use crate::engine::EngineSession;
use crate::ids::{NodeId, Step};
use crate::message::{Envelope, Runs};
use crate::metrics::Metrics;
use crate::protocol::{Context, Protocol, RunContext};
use crate::rng::node_rng;

/// One engine call, aimed at a node ([`Driver::apply`]).
#[derive(Clone, Debug)]
pub enum Input<M> {
    /// [`Protocol::on_start`].
    Start,
    /// [`Protocol::on_step`].
    Tick,
    /// [`Protocol::on_message`]: `msg` from `from`.
    Message {
        /// The sender.
        from: NodeId,
        /// The payload.
        msg: M,
    },
    /// [`Protocol::deliver_run`] over the node table: `msg` from `from` to
    /// every node of `recipients` — what it is aimed at, in place of the
    /// node [`Driver::apply`] names.
    Run {
        /// The sender.
        from: NodeId,
        /// The payload.
        msg: M,
        /// The recipients, in delivery order.
        recipients: Vec<NodeId>,
    },
    /// [`Protocol::on_crash`].
    Crash,
    /// [`Protocol::on_restart`].
    Restart,
}

/// One row of a step table: the rule it pins, what it feeds, and what
/// that must give.
pub struct TestStep<I, O> {
    /// The rule, named as the assertion's message.
    pub desc: &'static str,
    /// What the row feeds.
    pub input: I,
    /// What the row must give.
    pub expected_outputs: O,
}

/// A node table shaped like a run's, node `i`'s RNG its stream under the
/// master seed, driven one [`Input`] at a time at a step the caller sets.
/// Nothing is delivered or scheduled: each input returns what it sent, in
/// send order, one envelope per message (part runs and fan-ins expanded).
///
/// ```
/// use fba_sim::{Context, Driver, Input, NodeId, Protocol};
///
/// /// Answers a message with its successor; decides on a tick after one.
/// struct Next { heard: Option<u64>, ticked: bool }
///
/// impl Protocol for Next {
///     type Msg = u64;
///     type Output = u64;
///     fn on_start(&mut self, ctx: &mut Context<'_, u64>) { ctx.send(NodeId::from_index(1), 0) }
///     fn on_step(&mut self, _: &mut Context<'_, u64>) { self.ticked = self.heard.is_some() }
///     fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Context<'_, u64>) {
///         self.heard = Some(msg);
///         ctx.send(from, msg + 1);
///     }
///     fn output(&self) -> Option<u64> { self.heard.filter(|_| self.ticked) }
/// }
///
/// let (a, b) = (NodeId::from_index(0), NodeId::from_index(1));
/// let mut d = Driver::new(2, 7, |id| (id == a).then_some(Next { heard: None, ticked: false }));
/// assert_eq!(d.apply(a, Input::Start)[0].to, b);
/// let sent = d.at(1).apply(a, Input::Message { from: b, msg: 4 });
/// assert_eq!((sent[0].from, sent[0].to, sent[0].sent_at, sent[0].msg), (a, b, 1, 5));
/// assert!(d.at(2).apply(a, Input::Tick).is_empty());
/// assert_eq!(d.node(a).output(), Some(4));
/// ```
pub struct Driver<P: Protocol> {
    n: usize,
    step: Step,
    nodes: Vec<Option<P>>,
    rngs: Vec<ChaCha12Rng>,
    session: EngineSession<P::Msg>,
    outbox: Runs<P::Msg>,
}

/// What an input sent, in send order.
type Sent<P> = Vec<Envelope<<P as Protocol>::Msg>>;

impl<P: Protocol> Driver<P> {
    /// `n` nodes under master seed `seed`, at step 0: `factory(id)` is
    /// node `id`, or `None` where no state machine is driven.
    pub fn new(n: usize, seed: u64, factory: impl FnMut(NodeId) -> Option<P>) -> Self {
        Driver {
            n,
            step: 0,
            nodes: (0..n).map(NodeId::from_index).map(factory).collect(),
            rngs: (0..n).map(|i| node_rng(seed, i)).collect(),
            session: EngineSession::default(),
            outbox: Runs::new(),
        }
    }

    /// Sets the step of the inputs that follow.
    pub fn at(&mut self, step: Step) -> &mut Self {
        self.step = step;
        self
    }

    /// Hands `input` to node `to` (a [`Input::Run`] to its recipients) and
    /// returns what that sent; panics if `to` is not driven.
    pub fn apply(&mut self, to: NodeId, input: Input<P::Msg>) -> Sent<P> {
        let mut node = match input {
            Input::Run {
                from,
                msg,
                recipients,
            } => return self.deliver_run(from, &msg, &recipients),
            _ => self.nodes[to.index()].take().expect("a driven node"),
        };
        let sent = self.call(to, |ctx| match input {
            Input::Start => node.on_start(ctx),
            Input::Tick => node.on_step(ctx),
            Input::Message { from, msg } => node.on_message(from, msg, ctx),
            Input::Crash => node.on_crash(ctx.step()),
            Input::Restart => node.on_restart(ctx),
            Input::Run { .. } => unreachable!("delivered above"),
        });
        self.nodes[to.index()] = Some(node);
        sent
    }

    /// [`Protocol::deliver_run`] over the node table, shipped as the
    /// engine ships a run's sends and read back envelope by envelope.
    fn deliver_run(&mut self, from: NodeId, msg: &P::Msg, recipients: &[NodeId]) -> Sent<P> {
        let metrics = &mut Metrics::new(self.n, &BTreeSet::new());
        let (rngs, session) = (&mut self.rngs, &mut self.session);
        let mut run = RunContext::new(self.n, self.step, 0, rngs, session, metrics);
        P::deliver_run(&mut self.nodes, from, msg, recipients, &mut run);
        run.finish();
        let mut sent = Vec::new();
        for delivery in self.session.sends.drain(..) {
            delivery.for_each_envelope(|env| sent.push(env));
        }
        sent
    }

    /// Runs `f` as a callback of node `id` — its context, its RNG — and
    /// returns what it sent: a phase's handler driven without its node.
    pub fn call(&mut self, id: NodeId, f: impl FnOnce(&mut Context<'_, P::Msg>)) -> Sent<P> {
        let (rng, mut outbox) = (&mut self.rngs[id.index()], Runs::new());
        f(&mut Context::new(id, self.n, self.step, rng, &mut outbox));
        let (from, sent_at, mut sent) = (id, self.step, Vec::new());
        outbox.for_each_message(|to, msg| {
            sent.push(Envelope {
                from,
                to,
                sent_at,
                msg,
            })
        });
        self.outbox = outbox;
        sent
    }

    /// What the last callback sent, by the run, as the engine ships it:
    /// a part run holds a handle on its [`PartList`](crate::PartList),
    /// which [`Runs::sends_over`] compares.
    pub fn outbox(&self) -> &Runs<P::Msg> {
        &self.outbox
    }

    /// Node `id`; panics if it is not driven.
    pub fn node(&self, id: NodeId) -> &P {
        self.nodes[id.index()].as_ref().expect("a driven node")
    }

    /// Node `id`, to set up a state no input reaches.
    pub fn node_mut(&mut self, id: NodeId) -> &mut P {
        self.nodes[id.index()].as_mut().expect("a driven node")
    }
}
