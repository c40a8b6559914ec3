//! The node-side protocol interface.
//!
//! A protocol implementation is a deterministic state machine driven by the
//! engine through three callbacks: [`Protocol::on_start`] (once, step 0),
//! [`Protocol::on_step`] (each subsequent step, before deliveries), and
//! [`Protocol::on_message`] (per delivered message). All interaction with
//! the network happens through the [`Context`] handed to each callback.
//!
//! A multicast — one sender, one payload, many recipients — reaches the
//! protocol as a whole through [`Protocol::deliver_run`], whose default is
//! the per-recipient [`Protocol::on_message`] loop; a protocol whose
//! handler repeats the same per-message work at every recipient overrides
//! it to do that work once.

use std::fmt;

use rand_chacha::ChaCha12Rng;

use crate::ids::{NodeId, Step};
use crate::message::{Runs, WireSize};

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
    /// by [`deliver_each`] — and for the per-envelope views; sending
    /// never clones or compares payloads.
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

    /// Delivers one run of a batch — the same `msg` from `from` to every
    /// node of `recipients`, in that order — over the run's node table
    /// (`nodes[i]` is `None` where the adversary plays node `i`). The
    /// engine calls this once per run on the batched lane instead of
    /// [`Protocol::on_message`] once per recipient; the default is exactly
    /// that loop ([`deliver_each`]).
    ///
    /// The engine owns everything around the call: it has already dropped
    /// (and counted) dark recipients and recorded the receipt of the rest,
    /// and afterwards it ships what each recipient sent through
    /// [`RunContext::context`] as that recipient's outbox, in recipient
    /// order. An override must be observably the same as the default —
    /// the same state changes, the same sends from the same recipients in
    /// the same order, the same draws from each recipient's RNG — and may
    /// differ only in doing per-*message* work once instead of per
    /// recipient. It must skip `None` entries and may not touch a node
    /// outside `recipients`.
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
/// [`RunContext::context`] call — is that recipient's outbox for this
/// delivery, exactly as if the engine had called
/// [`Protocol::on_message`] on it: the recipients write into one shared
/// [`Runs`], cut between them on run boundaries, so two recipients never
/// share a run.
pub struct RunContext<'a, M> {
    n: usize,
    step: Step,
    rngs: &'a mut [ChaCha12Rng],
    outbox: &'a mut Runs<M>,
    /// `(sender, messages, runs)` of every non-empty outbox segment
    /// closed so far: whose it is and how long.
    cuts: &'a mut Vec<(NodeId, usize, usize)>,
    /// The recipient whose segment is open, and the `(message, run)` it
    /// starts at.
    open: Option<(NodeId, usize, usize)>,
}

impl<'a, M> RunContext<'a, M> {
    /// Creates a run context over the per-node RNG table and two empty
    /// scratch buffers.
    pub(crate) fn new(
        n: usize,
        step: Step,
        rngs: &'a mut [ChaCha12Rng],
        outbox: &'a mut Runs<M>,
        cuts: &'a mut Vec<(NodeId, usize, usize)>,
    ) -> Self {
        debug_assert!(outbox.is_empty() && cuts.is_empty());
        RunContext {
            n,
            step,
            rngs,
            outbox,
            cuts,
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
        self.open = Some((to, self.outbox.len(), self.outbox.run_count()));
        Context::new(
            to,
            self.n,
            self.step,
            &mut self.rngs[to.index()],
            self.outbox,
        )
    }

    /// Closes the open segment, recording it if anything was sent.
    fn close(&mut self) {
        if let Some((sender, to_start, runs_start)) = self.open.take() {
            let (to, runs) = (self.outbox.len(), self.outbox.run_count());
            if to > to_start {
                self.cuts.push((sender, to - to_start, runs - runs_start));
            }
        }
    }

    /// Ends the run: after this, `cuts` lists every non-empty
    /// per-recipient segment of `outbox`, in order.
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
    /// Messages in `outbox` when this callback began (a run's recipients
    /// share one).
    base: usize,
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
            base: outbox.len(),
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
    /// per target, stored — and, where the protocol overrides
    /// [`Protocol::deliver_run`], delivered — once. No target, no send.
    ///
    /// # Panics
    ///
    /// Panics, before anything is sent, if a target is out of range.
    pub fn multicast(&mut self, targets: &[NodeId], msg: M) {
        if let Some(to) = targets.iter().find(|to| to.index() >= self.n) {
            panic!("send target {to} out of range (n={})", self.n);
        }
        self.outbox.push_run(targets, msg);
    }

    /// Number of messages queued so far in this callback (mostly useful in
    /// tests).
    #[must_use]
    pub fn queued(&self) -> usize {
        self.outbox.len() - self.base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::run_copies;
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
        assert_eq!(ctx.queued(), 3);
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
        assert_eq!(ctx.queued(), 0);
        ctx.multicast(&ids(&[2]), 2);
        ctx.multicast(&[], 3);
        assert_eq!(ctx.queued(), 1);
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
    #[should_panic(expected = "more than u32::MAX copies")]
    #[cfg(target_pointer_width = "64")]
    fn a_run_too_long_for_its_copy_count_is_refused_not_truncated() {
        // `as u32` would record a run of 0 copies over 2³² recipients.
        assert_eq!(run_copies(u32::MAX as usize), u32::MAX);
        let _ = run_copies(u32::MAX as usize + 1);
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
    fn run_context_cuts_the_outbox_per_recipient() {
        let id = NodeId::from_index;
        let mut rngs: Vec<_> = (0..4).map(|i| node_rng(1, i)).collect();
        let (mut outbox, mut cuts) = (Runs::new(), Vec::new());
        let mut run = RunContext::new(4, 7, &mut rngs, &mut outbox, &mut cuts);
        assert_eq!(run.step(), 7);
        run.context(id(1)).send(id(0), 10u32);
        let _silent = run.context(id(2));
        let mut ctx = run.context(id(3));
        assert_eq!((ctx.id(), ctx.queued()), (id(3), 0), "an outbox of its own");
        ctx.multicast(&ids(&[0, 1]), 30);
        ctx.send(id(1), 31);
        assert_eq!(ctx.queued(), 3);
        // The same recipient again is a callback of its own.
        run.context(id(3)).send(id(2), 32);
        run.finish();
        assert_eq!(cuts, vec![(id(1), 1, 1), (id(3), 3, 2), (id(3), 1, 1)]);
        assert_eq!(outbox.len(), 5);
    }

    #[test]
    fn two_recipients_of_a_run_never_share_a_run() {
        // The first one's last payload equals the second one's first.
        let id = NodeId::from_index;
        let mut rngs: Vec<_> = (0..4).map(|i| node_rng(1, i)).collect();
        let (mut outbox, mut cuts) = (Runs::new(), Vec::new());
        let mut run = RunContext::new(4, 0, &mut rngs, &mut outbox, &mut cuts);
        run.context(id(1)).send(id(0), 5u32);
        run.context(id(2)).send(id(0), 5);
        run.finish();
        assert_eq!(cuts, vec![(id(1), 1, 1), (id(2), 1, 1)]);
        assert_eq!(shape(&outbox), [(5, vec![0]), (5, vec![0])]);
    }
}
