//! The node-side protocol interface.
//!
//! A protocol implementation is a deterministic state machine driven by the
//! engine through three callbacks: [`Protocol::on_start`] (once, step 0),
//! [`Protocol::on_step`] (each subsequent step, before deliveries), and
//! [`Protocol::on_message`] (per delivered message). All interaction with
//! the network happens through the [`Context`] handed to each callback.
//!
//! Every delivered message reaches the protocol through
//! [`Protocol::deliver_run`] — a multicast, one sender, one payload, many
//! recipients, as a whole — whose default is the per-recipient
//! [`Protocol::on_message`] loop; a protocol whose handler repeats the
//! same per-message work at every recipient overrides it to do that work
//! once.

use std::fmt;
use std::rc::Rc;

use rand_chacha::ChaCha12Rng;

use crate::engine::EngineSession;
use crate::ids::{NodeId, Step};
use crate::message::{FanIn, PartList, Runs, WireSize};
use crate::metrics::Metrics;

/// A per-node protocol state machine.
///
/// One value of the implementing type exists per *correct* node; Byzantine
/// nodes are played by the run's [`Adversary`](crate::Adversary) instead.
///
/// Determinism contract: implementations must derive all randomness from
/// [`Context::rng`] (the node's private RNG in the paper's model) so that
/// runs replay exactly from a master seed.
pub trait Protocol {
    /// Payload type of the messages this protocol exchanges. `Clone` is
    /// for delivery — a multicast is stored once and cloned per recipient
    /// by [`deliver_each`], a fan-in ([`RunContext::fan_in`]) is stored
    /// once and cloned per *sender* — and for the per-envelope views;
    /// sending never clones or compares payloads.
    type Msg: Clone + WireSize + fmt::Debug;
    /// The value a node returns when it terminates.
    type Output: Clone + Eq + fmt::Debug;

    /// Called exactly once, during step 0, before any message flows.
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>);

    /// Called at the beginning of every step `≥ 1`, before that step's
    /// deliveries. Useful for round-structured protocols; event-driven
    /// protocols can ignore it.
    fn on_step(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// Called once per message delivered to this node.
    ///
    /// `from` is the authenticated sender identity stamped by the network.
    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Context<'_, Self::Msg>);

    /// Delivers one part — the same `msg` from `from` to every node of
    /// `recipients`, in that order — over the run's node table
    /// (`nodes[i]` is `None` where the adversary plays node `i`). This is
    /// the engine's one delivery call: once for a multicast, once per part
    /// of a [`Context::multicast_list`] run with that part's payload
    /// built, once with one recipient for a lone envelope, and once per
    /// sender with one recipient for a fan-in. The default is
    /// [`Protocol::on_message`] once per recipient ([`deliver_each`]),
    /// and the engine reaches `on_message` only through [`deliver_each`].
    ///
    /// The engine owns everything around the call: it has already dropped
    /// (and counted) a dark sender's message and dark recipients, and
    /// recorded the receipt of the rest, and as each recipient's context
    /// closes it ships what that recipient sent through
    /// [`RunContext::context`] as its outbox, and what several send
    /// through [`RunContext::fan_in`] as one fan-in as it is pushed, in
    /// the order they were sent. An override must be observably the
    /// same as the default — the same state changes, the same sends from
    /// the same recipients in the same order, the same draws from each
    /// recipient's RNG — and may differ only in doing per-*message* work
    /// once instead of per recipient. It must skip `None` entries and may
    /// not touch a node outside `recipients`.
    fn deliver_run(
        nodes: &mut [Option<Self>],
        from: NodeId,
        msg: &Self::Msg,
        recipients: &[NodeId],
        run: &mut RunContext<'_, Self::Msg>,
    ) where
        Self: Sized,
    {
        deliver_each(nodes, from, msg, recipients, run);
    }

    /// Called when the engine crashes this node at the start of `step`
    /// (crash–restart fault family, [`crate::CrashPlan`]): the node goes
    /// dark — no callbacks, no deliveries in either direction — until its
    /// restart. A crashing node cannot send, so no [`Context`] is handed
    /// in. Implementations that keep durable state (a checkpoint log) use
    /// this to mark transient state as lost; the default does nothing.
    fn on_crash(&mut self, step: Step) {
        let _ = step;
    }

    /// Called when the engine restarts this node at the end of its dark
    /// window, before that step's regular callbacks. Implementations
    /// restore from durable state and may immediately send catch-up
    /// traffic via `ctx`; the default does nothing, which models a naive
    /// resume with the (stale) in-memory state the node crashed with.
    fn on_restart(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// The node's final output, once it has decided. The engine polls this
    /// after each step; returning `Some` is irreversible as far as metrics
    /// are concerned (the first step at which it is observed is recorded as
    /// the node's decision step).
    fn output(&self) -> Option<Self::Output>;
}

/// The per-recipient delivery loop: [`Protocol::on_message`] with a clone
/// of `msg` and a fresh [`Context`] for every correct node of `recipients`,
/// in order. The default body of [`Protocol::deliver_run`], public so an
/// override can fall back to it for the payloads it does not specialise.
pub fn deliver_each<P: Protocol>(
    nodes: &mut [Option<P>],
    from: NodeId,
    msg: &P::Msg,
    recipients: &[NodeId],
    run: &mut RunContext<'_, P::Msg>,
) {
    for &to in recipients {
        if let Some(node) = nodes[to.index()].as_mut() {
            node.on_message(from, msg.clone(), &mut run.context(to));
        }
    }
}

/// What [`Protocol::deliver_run`] is handed in place of one [`Context`]:
/// the step, and a [`Context`] per recipient on demand. Everything sent
/// through one recipient's context — up to the next
/// [`RunContext::context`] or [`RunContext::fan_in`] call — is that
/// recipient's outbox for this delivery, exactly as if the engine had
/// called [`Protocol::on_message`] on it: each context opens on an empty
/// outbox, which ships into the step's send list as the context closes,
/// so two recipients never share a run.
pub struct RunContext<'a, M> {
    n: usize,
    step: Step,
    header_bits: u64,
    rngs: &'a mut [ChaCha12Rng],
    session: &'a mut EngineSession<M>,
    metrics: &'a mut Metrics,
    /// The recipient whose context is open.
    open: Option<NodeId>,
}

impl<'a, M: WireSize> RunContext<'a, M> {
    /// Creates a run context over the per-node RNG table and the step's
    /// send side.
    pub(crate) fn new(
        n: usize,
        step: Step,
        header_bits: u64,
        rngs: &'a mut [ChaCha12Rng],
        session: &'a mut EngineSession<M>,
        metrics: &'a mut Metrics,
    ) -> Self {
        RunContext {
            n,
            step,
            header_bits,
            rngs,
            session,
            metrics,
            open: None,
        }
    }

    /// Current step.
    #[must_use]
    pub fn step(&self) -> Step {
        self.step
    }

    /// The callback context of recipient `to`: its identity, its private
    /// RNG, and an outbox that is its alone.
    ///
    /// # Panics
    ///
    /// Panics if `to` is out of range.
    pub fn context(&mut self, to: NodeId) -> Context<'_, M> {
        self.close();
        self.open = Some(to);
        Context::new(
            to,
            self.n,
            self.step,
            &mut self.rngs[to.index()],
            &mut self.session.outbox_buf,
        )
    }

    /// `msg` from every node of `senders`, in order, to `to`: observably
    /// `for z in senders { run.context(z).send(to, msg.clone()) }` — each
    /// sender's message is an outbox of its own, in its place among the
    /// others — but two or more senders ship, at once, as one fan-in
    /// delivery that stores the payload once. No sender, no send.
    ///
    /// # Panics
    ///
    /// Panics, before anything is sent, if `to` or a sender is out of
    /// range.
    pub fn fan_in(&mut self, senders: &[NodeId], to: NodeId, msg: M) {
        let n = self.n;
        if let Some(id) = senders.iter().chain([&to]).find(|id| id.index() >= n) {
            panic!("fan-in node {id} out of range (n={n})");
        }
        match senders {
            [] => {}
            [one] => self.context(*one).send(to, msg),
            _ => {
                self.close();
                let fan = FanIn {
                    to,
                    sent_at: self.step,
                    msg,
                    from: senders.into(),
                };
                self.session
                    .ship_fan_in(fan, self.header_bits, self.metrics);
            }
        }
    }

    /// Closes the open context, shipping its outbox if it sent anything.
    fn close(&mut self) {
        if let Some(sender) = self.open.take() {
            if !self.session.outbox_buf.is_empty() {
                self.session
                    .ship(sender, self.step, self.header_bits, self.metrics);
            }
        }
    }

    /// Ends the run: everything its recipients sent is in the step's send
    /// list, in send order, and the session's outbox is empty again.
    pub(crate) fn finish(mut self) {
        self.close();
    }
}

/// Per-callback handle giving a protocol access to its environment: its
/// identity, the system size, the current step, its private RNG, and the
/// network send primitive.
pub struct Context<'a, M> {
    id: NodeId,
    n: usize,
    step: Step,
    rng: &'a mut ChaCha12Rng,
    outbox: &'a mut Runs<M>,
}

impl<'a, M> Context<'a, M> {
    /// Creates a context. Used by the engine; exposed for protocol unit
    /// tests that want to drive state machines directly.
    #[must_use]
    pub fn new(
        id: NodeId,
        n: usize,
        step: Step,
        rng: &'a mut ChaCha12Rng,
        outbox: &'a mut Runs<M>,
    ) -> Self {
        Context {
            id,
            n,
            step,
            rng,
            outbox,
        }
    }

    /// This node's identity.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// System size `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current step.
    #[must_use]
    pub fn step(&self) -> Step {
        self.step
    }

    /// The node's private random number generator.
    pub fn rng(&mut self) -> &mut ChaCha12Rng {
        self.rng
    }

    /// Queues `msg` for `to`. Delivery happens at a later step chosen by the
    /// network (exactly the next step in synchronous mode).
    ///
    /// # Panics
    ///
    /// Panics if `to` is out of range — that is a protocol bug, not a
    /// runtime condition.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.multicast(&[to], msg);
    }

    /// Queues `msg` for every node of `targets`, in order (a node listed
    /// twice gets it twice): the same messages as one [`Context::send`]
    /// per target, stored as one run of one part (see [`Runs`]) — `msg`
    /// once and a list of the targets — and, where the protocol overrides
    /// [`Protocol::deliver_run`], delivered once. No target, no send.
    ///
    /// # Panics
    ///
    /// Panics, before anything is sent, if a target is out of range.
    pub fn multicast(&mut self, targets: &[NodeId], msg: M) {
        if let Err(to) = self.outbox.push_multicast(msg, targets, self.n) {
            panic!("send target {to} out of range (n={})", self.n);
        }
    }

    /// Queues, for every part `(tag, targets)` of `list` in order,
    /// `part(&msg, tag)` for every node of `targets`, in order: the same
    /// messages as one [`Context::multicast`] per part, stored as one run
    /// (see [`Runs`]) — `msg` once, `part`, and one handle on `list`, so
    /// the senders of one list store its parts once however many runs are
    /// in flight over it. Each part is delivered as a multicast of its
    /// own.
    ///
    /// # Panics
    ///
    /// Panics, before anything is sent, if `list` was checked for
    /// another system size than this context's `n`.
    pub fn multicast_list(&mut self, msg: M, part: fn(&M, NodeId) -> M, list: &PartList) {
        assert_eq!(list.n, self.n, "a part list checked for another n");
        self.outbox.push_list(msg, part, list);
    }

    /// [`Context::multicast_list`] over the [`PartList`] of `parts`, built
    /// for this send alone: each part a tag and a handle on a list the
    /// caller already shares, so a list interned once is stored once. A
    /// part with no target sends nothing.
    ///
    /// # Panics
    ///
    /// Panics, before anything is sent, if a target is out of range.
    pub fn multicast_parts(
        &mut self,
        msg: M,
        part: fn(&M, NodeId) -> M,
        parts: impl IntoIterator<Item = (NodeId, Rc<[NodeId]>)>,
    ) {
        match PartList::new(parts, self.n) {
            Ok(list) => self.multicast_list(msg, part, &list),
            Err(to) => panic!("send target {to} out of range (n={})", self.n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::tests::{ids, shape};
    use crate::rng::node_rng;

    #[test]
    fn context_send_collects_messages() {
        let mut rng = node_rng(1, 0);
        let mut outbox = Runs::new();
        let mut ctx = Context::new(NodeId::from_index(0), 4, 2, &mut rng, &mut outbox);
        assert_eq!(ctx.id(), NodeId::from_index(0));
        assert_eq!(ctx.n(), 4);
        assert_eq!(ctx.step(), 2);
        ctx.send(NodeId::from_index(3), 9);
        ctx.multicast(&ids(&[1, 2]), 5);
        assert_eq!(outbox.len(), 3);
        assert_eq!(shape(&outbox), [(9, vec![3]), (5, vec![1, 2])]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn context_send_rejects_out_of_range() {
        let mut rng = node_rng(1, 0);
        let mut outbox: Runs<u32> = Runs::new();
        let mut ctx = Context::new(NodeId::from_index(0), 4, 0, &mut rng, &mut outbox);
        ctx.send(NodeId::from_index(4), 1);
    }

    #[test]
    fn multicast_to_nobody_sends_nothing_and_opens_no_run() {
        let mut rng = node_rng(1, 0);
        let mut outbox = Runs::new();
        let mut ctx = Context::new(NodeId::from_index(0), 4, 0, &mut rng, &mut outbox);
        ctx.multicast(&[], 1u32);
        ctx.multicast(&ids(&[2]), 2);
        ctx.multicast(&[], 3);
        assert_eq!((outbox.len(), outbox.run_count()), (1, 1));
        assert_eq!(shape(&outbox), [(2, vec![2])], "run offsets stay aligned");
    }

    #[test]
    fn multicast_rejects_an_out_of_range_target_before_appending_anything() {
        let mut rng = node_rng(1, 0);
        let mut outbox = Runs::new();
        let sent = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut ctx = Context::new(NodeId::from_index(0), 4, 0, &mut rng, &mut outbox);
            ctx.multicast(&ids(&[1, 2, 4, 3]), 1u32);
        }));
        let panic = sent.expect_err("target 4 of n = 4");
        let text = panic.downcast_ref::<String>().expect("a formatted panic");
        assert_eq!(
            text, "send target n4 out of range (n=4)",
            "`send`'s message"
        );
        assert_eq!((outbox.len(), outbox.run_count()), (0, 0));
    }

    #[test]
    fn context_rng_is_usable() {
        use rand::RngCore;
        let mut rng = node_rng(1, 0);
        let mut outbox: Runs<u32> = Runs::new();
        let mut ctx = Context::new(NodeId::from_index(0), 4, 0, &mut rng, &mut outbox);
        let a = ctx.rng().next_u64();
        let b = ctx.rng().next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn multicast_parts_keeps_the_handles_and_checks_the_range_first() {
        let mut rng = node_rng(1, 0);
        let mut outbox = Runs::new();
        let list: Rc<[NodeId]> = ids(&[3, 1]).into();
        let plus_tag = |msg: &u32, tag: NodeId| msg + tag.index() as u32;
        let mut ctx = Context::new(NodeId::from_index(0), 4, 0, &mut rng, &mut outbox);
        let parts = [(10, Rc::clone(&list)), (20, ids(&[2]).into())];
        ctx.multicast_parts(
            5u32,
            plus_tag,
            parts.map(|(tag, to)| (NodeId::from_index(tag), to)),
        );
        ctx.multicast_parts(6, plus_tag, [(NodeId::from_index(1), ids(&[]).into())]);
        let out_of_range = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let parts = [(ids(&[1]), 0), (ids(&[2, 4]), 1)];
            ctx.multicast_parts(
                7,
                plus_tag,
                parts.map(|(to, tag)| (NodeId::from_index(tag), to.into())),
            );
        }));
        let panic = out_of_range.expect_err("target 4 of n = 4");
        let text = panic.downcast_ref::<String>().expect("a formatted panic");
        assert_eq!(
            text, "send target n4 out of range (n=4)",
            "`send`'s message"
        );
        assert_eq!(
            (outbox.len(), outbox.run_count()),
            (3, 1),
            "one run, not one per part"
        );
        assert_eq!(shape(&outbox), [(15, vec![3, 1]), (25, vec![2])]);
        assert_eq!(Rc::strong_count(&list), 2, "one handle, no copy");
    }

    #[test]
    fn a_part_list_checked_for_another_n_is_refused_before_anything_is_sent() {
        let mut rng = node_rng(1, 0);
        let mut outbox = Runs::new();
        let part = (NodeId::from_index(0), ids(&[5]).into());
        let list = PartList::new([part], 8).expect("in range at n = 8");
        let sent = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut ctx = Context::new(NodeId::from_index(0), 4, 0, &mut rng, &mut outbox);
            ctx.multicast_list(1u32, |msg, _| *msg, &list);
        }));
        assert!(sent.is_err(), "target n5 of n = 4");
        assert_eq!((outbox.len(), outbox.run_count()), (0, 0));
    }

    #[test]
    #[should_panic(expected = "fan-in node n4 out of range (n=4)")]
    fn a_fan_in_from_an_out_of_range_sender_is_refused() {
        let mut rngs: Vec<_> = (0..4).map(|i| node_rng(1, i)).collect();
        let mut session = EngineSession::<u32>::new(1);
        let mut metrics = Metrics::new(4, &std::collections::BTreeSet::new());
        let mut run = RunContext::new(4, 0, 0, &mut rngs, &mut session, &mut metrics);
        run.fan_in(&ids(&[1, 4]), NodeId::from_index(0), 1);
    }
}
