//! Wire-level message envelopes and bit accounting.
//!
//! The paper's communication-complexity metric counts *bits exchanged*, so
//! every protocol message type must report its payload size via [`WireSize`].
//! The engine adds a per-envelope header of `2·⌈log₂ n⌉` bits (sender and
//! recipient identity) on top of the payload, matching the model where
//! channels are authenticated and point-to-point.

use std::rc::Rc;

use crate::ids::{NodeId, Step};

/// Size of a message payload on the wire, in bits.
///
/// Implementations should approximate the information-theoretic content of
/// the message the way the paper counts it: a `c·log n`-bit candidate string
/// costs `c·log n` bits, a label from a polynomial-cardinality domain `R`
/// costs `O(log n)` bits, and so on. Sub-bit bookkeeping is not needed.
pub trait WireSize {
    /// The number of payload bits this message occupies on the wire.
    fn wire_bits(&self) -> u64;
}

impl WireSize for () {
    fn wire_bits(&self) -> u64 {
        0
    }
}

impl WireSize for bool {
    fn wire_bits(&self) -> u64 {
        1
    }
}

impl WireSize for u8 {
    fn wire_bits(&self) -> u64 {
        8
    }
}

impl WireSize for u32 {
    fn wire_bits(&self) -> u64 {
        32
    }
}

impl WireSize for u64 {
    fn wire_bits(&self) -> u64 {
        64
    }
}

impl<T: WireSize> WireSize for Option<T> {
    fn wire_bits(&self) -> u64 {
        1 + self.as_ref().map_or(0, WireSize::wire_bits)
    }
}

impl<T: WireSize> WireSize for Vec<T> {
    fn wire_bits(&self) -> u64 {
        self.iter().map(WireSize::wire_bits).sum()
    }
}

impl<A: WireSize, B: WireSize> WireSize for (A, B) {
    fn wire_bits(&self) -> u64 {
        self.0.wire_bits() + self.1.wire_bits()
    }
}

/// A message in flight: payload plus authenticated routing metadata.
///
/// The simulator stamps `from` itself, which is how the model's
/// "communication channels are authenticated — the identity of the sender is
/// known to the recipient" assumption is enforced structurally: Byzantine
/// nodes can send arbitrary payloads but can never forge `from`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope<M> {
    /// True sender (never forgeable).
    pub from: NodeId,
    /// Recipient.
    pub to: NodeId,
    /// Step during which the message was sent.
    pub sent_at: Step,
    /// Protocol payload.
    pub msg: M,
}

impl<M: WireSize> Envelope<M> {
    /// Total bits of this envelope given a fixed per-message header size.
    #[must_use]
    pub fn total_bits(&self, header_bits: u64) -> u64 {
        header_bits + self.msg.wire_bits()
    }
}

/// One sender's messages in send order, stored by the run. A run is one
/// stored payload however wide its fan-out, in one of two forms: a
/// multicast holds its payload and a handle on its one recipient list,
/// an `Rc<[NodeId]>`, and delivers the payload as sent; a part run holds
/// its payload, a part function and a handle on a shared [`PartList`],
/// whose part `i` — a tag and a recipient list — is the message
/// `part(&msg, tag_i)` to every node of list `i`. So `d` messages that
/// differ in one field are one stored payload and one handle, and `k`
/// senders of the same parts share one list.
///
/// This is what a callback's [`Context`](crate::Context) writes into and,
/// unchanged, what a batch carries through the calendar: a run is opened
/// by [`Context::multicast`](crate::Context::multicast) (or `send`, the
/// run of one), [`Context::multicast_list`](crate::Context::multicast_list)
/// or [`Context::multicast_parts`](crate::Context::multicast_parts) and is
/// never found by comparing payloads, so two equal payloads sent by two
/// calls stay two runs. The parts are storage only: a run of `k` parts is
/// the same messages as `k` multicasts, each carrying its built payload.
///
/// `Runs` is not `Send`: a recipient list is an `Rc`, and a run executes
/// on one thread.
#[derive(Debug)]
pub struct Runs<M> {
    /// One head per run, in send order.
    runs: Vec<Run<M>>,
    /// Messages in all runs: every recipient list's length.
    len: usize,
}

/// What a run's part `(tag, list)` sends to every node of `list`, built
/// from the run's stored payload: `part(&msg, tag)`.
pub(crate) type PartFn<M> = fn(&M, NodeId) -> M;

/// A run's head: its payload and where it goes.
#[derive(Debug)]
struct Run<M> {
    to: Targets<M>,
    msg: M,
}

/// A run's recipients: one list for the payload as sent, or a part
/// function and the parts it builds a payload for.
#[derive(Debug)]
enum Targets<M> {
    /// A multicast's recipients (never empty).
    All(Rc<[NodeId]>),
    /// A part run's function and parts (never empty).
    Parts(PartFn<M>, Rc<[Part]>),
}

/// One part of a part run: the tag its payload is built with, and its
/// recipients (never empty).
#[derive(Debug)]
struct Part {
    tag: NodeId,
    to: Rc<[NodeId]>,
}

/// The parts of a part run, checked and counted once and shared by
/// reference count: every sender of the same parts pushes the one list
/// (see [`Context::multicast_list`](crate::Context::multicast_list)).
/// Cloning it clones a handle.
#[derive(Clone, Debug)]
pub struct PartList {
    parts: Rc<[Part]>,
    /// Messages over all parts.
    len: usize,
    /// The system size every recipient was checked against.
    pub(crate) n: usize,
}

impl PartList {
    /// The parts `(tag, list)` of `parts`, in order, for a system of `n`
    /// nodes; a part with an empty list is left out.
    ///
    /// # Errors
    ///
    /// The first recipient `≥ n`.
    pub fn new(
        parts: impl IntoIterator<Item = (NodeId, Rc<[NodeId]>)>,
        n: usize,
    ) -> Result<Self, NodeId> {
        let parts = parts.into_iter();
        let mut kept = Vec::with_capacity(parts.size_hint().0);
        let mut len = 0;
        for (tag, to) in parts {
            if let Some(&out) = to.iter().find(|to| to.index() >= n) {
                return Err(out);
            }
            if !to.is_empty() {
                len += to.len();
                kept.push(Part { tag, to });
            }
        }
        let parts = kept.into();
        Ok(PartList { parts, len, n })
    }
}

impl<M> Default for Runs<M> {
    fn default() -> Self {
        Runs {
            runs: Vec::new(),
            len: 0,
        }
    }
}

impl<M> Runs<M> {
    /// An empty outbox.
    #[must_use]
    pub fn new() -> Self {
        Runs::default()
    }

    /// Number of logical messages (not runs).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing was sent.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Calls `visit(payload, recipients)` once per part, in send order,
    /// with the payload built for that part (or as sent, in a multicast).
    /// A part's recipients are the list it was sent over, not a copy.
    pub fn for_each_part(&self, mut visit: impl FnMut(&M, &[NodeId])) {
        for run in &self.runs {
            match &run.to {
                Targets::All(to) => visit(&run.msg, to),
                Targets::Parts(part, parts) => {
                    for p in parts.iter() {
                        visit(&part(&run.msg, p.tag), &p.to);
                    }
                }
            }
        }
    }

    /// Calls `visit(recipient, message)` once per message, in send order:
    /// the per-message view a per-envelope engine ships and handler tests
    /// read. Each message is its own value, a clone of its part's payload.
    pub fn for_each_message(&self, mut visit: impl FnMut(NodeId, M))
    where
        M: Clone,
    {
        // Builds its parts itself rather than through `for_each_part`:
        // the reference engine reads runs through this view alone, so the
        // engine's delivery and its oracle share no part-building code.
        for run in &self.runs {
            match &run.to {
                Targets::All(to) => to.iter().for_each(|&to| visit(to, run.msg.clone())),
                Targets::Parts(part, parts) => {
                    for p in parts.iter() {
                        let msg = part(&run.msg, p.tag);
                        p.to.iter().for_each(|&to| visit(to, msg.clone()));
                    }
                }
            }
        }
    }

    /// Appends a multicast of `msg` to `to`, if any: a recipient `≥ n` is
    /// refused, returned and leaves the outbox as it was.
    pub(crate) fn push_multicast(&mut self, msg: M, to: &[NodeId], n: usize) -> Result<(), NodeId> {
        if let Some(&out) = to.iter().find(|to| to.index() >= n) {
            return Err(out);
        }
        if !to.is_empty() {
            self.push(Targets::All(to.into()), to.len(), msg);
        }
        Ok(())
    }

    /// Appends a part run over `list`, if it has a recipient: `msg`,
    /// `part` and one handle on the list.
    pub(crate) fn push_list(&mut self, msg: M, part: PartFn<M>, list: &PartList) {
        if list.len > 0 {
            self.push(Targets::Parts(part, Rc::clone(&list.parts)), list.len, msg);
        }
    }

    /// Appends one head, reserving exactly one on fresh storage: an outbox
    /// most often ships one run, and amortised growth would hold four.
    fn push(&mut self, to: Targets<M>, len: usize, msg: M) {
        if self.runs.capacity() == 0 {
            self.runs.reserve_exact(1);
        }
        self.len += len;
        self.runs.push(Run { to, msg });
    }

    /// Number of runs: stored payloads.
    #[must_use]
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Whether a part run of this outbox reads its parts from `list`
    /// itself: the shared handle, not an equal copy.
    #[must_use]
    pub fn sends_over(&self, list: &PartList) -> bool {
        self.runs.iter().any(
            |run| matches!(&run.to, Targets::Parts(_, parts) if Rc::ptr_eq(parts, &list.parts)),
        )
    }

    /// Takes the only message out of an outbox of at most one.
    pub(crate) fn take_single(&mut self) -> Option<(NodeId, M)> {
        debug_assert!(self.len() <= 1);
        let run = self.runs.pop()?;
        self.len = 0;
        Some(match run.to {
            Targets::All(to) => (to[0], run.msg),
            Targets::Parts(part, parts) => (parts[0].to[0], part(&run.msg, parts[0].tag)),
        })
    }

    /// Empties a delivered outbox into `pool`. Its heads keep their
    /// capacity for a later outbox; their payloads and list handles are
    /// dropped, so the pool holds no payload and no handle on a list.
    pub(crate) fn pool_into(mut self, pool: &mut Vec<Runs<M>>) {
        self.runs.clear();
        self.len = 0;
        pool.push(self);
    }

    /// An empty outbox on storage from `pool`, which holds only emptied
    /// outboxes (see [`Runs::pool_into`]), so the engine's per-step hot
    /// loop reuses allocations.
    pub(crate) fn recycled(pool: &mut Vec<Runs<M>>) -> Self {
        pool.pop().unwrap_or_default()
    }
}

/// A coalesced group of messages one node sent during one step.
///
/// The AER fan-out paths send the same payload to dozens of recipients per
/// callback (`d` committee members, or `d` parts of `d` forwarding targets
/// each), so the engine ships a callback's outbox of two or more messages
/// as one batch — a single routing header (`from`, `sent_at`) on the
/// [`Runs`] the callback filled — instead of one [`Envelope`] per
/// message. A batch of `k`
/// messages is purely a wire-level framing optimisation: it still *counts*
/// as `k` logical messages and `k × (header + payload)` bits, and
/// recipients receive the payloads in exactly the order they were sent.
#[derive(Debug)]
pub(crate) struct Batch<M> {
    /// True sender of every message in the batch (never forgeable).
    pub(crate) from: NodeId,
    /// Step during which every message in the batch was sent.
    pub(crate) sent_at: Step,
    /// The messages, by the run: the outbox as its callback filled it,
    /// and after delivery storage for the pool. Boxed, so a batch stays
    /// smaller than an [`Envelope`] and never sets the size of a
    /// [`Delivery`].
    pub(crate) body: Box<Runs<M>>,
}

/// The same payload from two or more senders to one recipient, sent in
/// one step: what the recipients of one run send when each answers it
/// with the same message to the same node (see
/// [`RunContext::fan_in`](crate::RunContext::fan_in)).
///
/// Like a [`Batch`] it is framing only: it counts as one logical message
/// per sender, expands to one [`Envelope`] per sender in sender order, and
/// each sender's envelope is delivered (or dropped) as if it travelled
/// alone.
#[derive(Debug)]
pub(crate) struct FanIn<M> {
    /// The one recipient.
    pub(crate) to: NodeId,
    /// Step during which every sender sent it.
    pub(crate) sent_at: Step,
    /// The one stored payload.
    pub(crate) msg: M,
    /// The true senders, in send order.
    pub(crate) from: Box<[NodeId]>,
}

/// One unit of network traffic in the engine's queue: a single envelope,
/// a coalesced [`Batch`] or a [`FanIn`]. Deliveries expand to the same
/// logical messages in the same order whichever variant carries them, so
/// which one the engine picks is invisible to protocols, adversaries, and
/// observers (see the crate-level determinism contract).
#[derive(Debug)]
pub(crate) enum Delivery<M> {
    /// A single message.
    One(Envelope<M>),
    /// A coalesced same-sender, same-step group of messages.
    Batch(Batch<M>),
    /// A same-payload, same-recipient, same-step group of messages.
    FanIn(Box<FanIn<M>>),
}

impl<M> Delivery<M> {
    /// Number of logical messages.
    pub(crate) fn len(&self) -> usize {
        match self {
            Delivery::One(_) => 1,
            Delivery::Batch(batch) => batch.body.len(),
            Delivery::FanIn(fan) => fan.from.len(),
        }
    }

    /// Calls `visit` with every envelope the delivery stands for, in send
    /// order — a batch's per message, a fan-in's per sender: the
    /// representation observers, transcripts, and rushing and scheduling
    /// adversaries are shown.
    pub(crate) fn for_each_envelope(&self, mut visit: impl FnMut(Envelope<M>))
    where
        M: Clone,
    {
        match self {
            Delivery::One(env) => visit(env.clone()),
            Delivery::Batch(batch) => {
                let (from, sent_at) = (batch.from, batch.sent_at);
                let envelope = |to, msg| Envelope {
                    from,
                    to,
                    sent_at,
                    msg,
                };
                batch
                    .body
                    .for_each_message(|to, msg| visit(envelope(to, msg)));
            }
            Delivery::FanIn(fan) => {
                let (to, sent_at) = (fan.to, fan.sent_at);
                for &from in fan.from.iter() {
                    let msg = fan.msg.clone();
                    visit(Envelope {
                        from,
                        to,
                        sent_at,
                        msg,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn primitive_wire_sizes() {
        assert_eq!(().wire_bits(), 0);
        assert_eq!(true.wire_bits(), 1);
        assert_eq!(0u8.wire_bits(), 8);
        assert_eq!(0u32.wire_bits(), 32);
        assert_eq!(0u64.wire_bits(), 64);
    }

    #[test]
    fn option_wire_size_includes_presence_bit() {
        let none: Option<u64> = None;
        assert_eq!(none.wire_bits(), 1);
        assert_eq!(Some(1u64).wire_bits(), 65);
    }

    #[test]
    fn vec_wire_size_sums_elements() {
        let v = vec![1u32, 2, 3];
        assert_eq!(v.wire_bits(), 96);
        let empty: Vec<u32> = vec![];
        assert_eq!(empty.wire_bits(), 0);
    }

    #[test]
    fn tuple_wire_size() {
        assert_eq!((1u32, 2u64).wire_bits(), 96);
    }

    pub(crate) fn ids(indices: &[usize]) -> Vec<NodeId> {
        indices.iter().copied().map(NodeId::from_index).collect()
    }

    /// A batch from node `from` holding the given `(payload, recipients)`
    /// runs.
    fn batch(from: usize, sent_at: Step, runs: &[(u32, &[usize])]) -> Batch<u32> {
        let mut body = Box::<Runs<u32>>::default();
        for &(msg, to) in runs {
            multicast(&mut body, &ids(to), msg);
        }
        Batch {
            from: NodeId::from_index(from),
            sent_at,
            body,
        }
    }

    /// A part's recipient list.
    fn list(indices: &[usize]) -> Rc<[NodeId]> {
        ids(indices).into()
    }

    /// Appends `msg` to every node of `to` as `Context::multicast` does.
    fn multicast(out: &mut Runs<u32>, to: &[NodeId], msg: u32) {
        assert_eq!(out.push_multicast(msg, to, usize::MAX), Ok(()));
    }

    /// The part function of the tests: the payload's tens, then the tag.
    fn tagged(msg: &u32, tag: NodeId) -> u32 {
        10 * msg + tag.index() as u32
    }

    /// The part list of `parts`, all in range.
    fn part_list(parts: &[(usize, &Rc<[NodeId]>)]) -> PartList {
        let parts = parts
            .iter()
            .map(|&(tag, to)| (NodeId::from_index(tag), Rc::clone(to)));
        PartList::new(parts, usize::MAX).expect("in range")
    }

    /// Appends a run of `tagged` over `parts`, all in range.
    fn push_tagged(out: &mut Runs<u32>, msg: u32, parts: &[(usize, &Rc<[NodeId]>)]) {
        out.push_list(msg, tagged, &part_list(parts));
    }

    /// Every run's recipient lists: a multicast's one, a part run's per
    /// part.
    fn lists(runs: &Runs<u32>) -> Vec<&Rc<[NodeId]>> {
        let lists = runs.runs.iter().map(|run| match &run.to {
            Targets::All(to) => vec![to],
            Targets::Parts(_, parts) => parts.iter().map(|p| &p.to).collect(),
        });
        lists.flatten().collect()
    }

    /// Whether some part of `runs` reads its recipients from `list` itself.
    fn reads_from(runs: &Runs<u32>, list: &Rc<[NodeId]>) -> bool {
        lists(runs).into_iter().any(|to| Rc::ptr_eq(to, list))
    }

    /// `(recipient, message)` per message.
    fn messages(runs: &Runs<u32>) -> Vec<(usize, u32)> {
        let mut messages = Vec::new();
        runs.for_each_message(|to, msg| messages.push((to.index(), msg)));
        messages
    }

    /// `(from, to, sent_at, msg)` per envelope.
    fn envelopes(delivery: &Delivery<u32>) -> Vec<(usize, usize, Step, u32)> {
        let mut envs = Vec::new();
        delivery.for_each_envelope(|e| envs.push((e.from.index(), e.to.index(), e.sent_at, e.msg)));
        envs
    }

    /// `(payload, recipients)` per part, with its payload built.
    pub(crate) fn shape(runs: &Runs<u32>) -> Vec<(u32, Vec<usize>)> {
        let mut shape = Vec::new();
        runs.for_each_part(|msg, to| shape.push((*msg, to.iter().map(|to| to.index()).collect())));
        shape
    }

    #[test]
    fn runs_are_opened_by_the_sender_never_by_comparing_payloads() {
        let mut out = Runs::new();
        multicast(&mut out, &ids(&[1, 2]), 7);
        multicast(&mut out, &[], 8);
        multicast(&mut out, &ids(&[3]), 9);
        multicast(&mut out, &ids(&[1]), 9);
        assert_eq!((out.len(), out.run_count()), (4, 3), "no empty run");
        assert_eq!(
            shape(&out),
            [(7, vec![1, 2]), (9, vec![3]), (9, vec![1])],
            "equal payloads of two calls stay two runs"
        );
        assert_eq!(messages(&out), [(1, 7), (2, 7), (3, 9), (1, 9)]);
    }

    #[test]
    fn batch_envelopes_expand_in_send_order() {
        let b = batch(9, 4, &[(5, &[1, 0]), (6, &[2])]);
        assert_eq!(b.body.len(), 3);
        let envs = envelopes(&Delivery::Batch(b));
        assert_eq!(envs, vec![(9, 1, 4, 5), (9, 0, 4, 5), (9, 2, 4, 6)]);
    }

    #[test]
    fn part_runs_build_each_part_from_the_one_payload_among_copied_ones() {
        let (a, b, empty) = (list(&[4, 2, 4]), list(&[5]), list(&[]));
        let mut out = Runs::new();
        multicast(&mut out, &ids(&[1]), 1);
        push_tagged(&mut out, 2, &[(7, &a), (8, &empty), (9, &b)]);
        push_tagged(&mut out, 3, &[(1, &empty)]);
        multicast(&mut out, &ids(&[3, 0]), 4);
        push_tagged(&mut out, 5, &[(6, &b)]);
        assert_eq!(
            (out.len(), out.run_count()),
            (8, 4),
            "no empty part, no empty run"
        );
        assert_eq!(lists(&out).len(), 5, "the empty parts are left out");
        assert_eq!(
            shape(&out),
            [
                (1, vec![1]),
                (27, vec![4, 2, 4]),
                (29, vec![5]),
                (4, vec![3, 0]),
                (56, vec![5])
            ]
        );
        assert!(reads_from(&out, &a) && reads_from(&out, &b), "not copies");
        assert_eq!(
            messages(&out),
            [
                (1, 1),
                (4, 27),
                (2, 27),
                (4, 27),
                (5, 29),
                (3, 4),
                (0, 4),
                (5, 56)
            ]
        );
    }

    #[test]
    fn a_recipient_out_of_range_is_refused_before_anything_is_stored() {
        let parts = [(0, list(&[2])), (1, list(&[3, 4]))];
        let parts = parts.map(|(tag, to)| (NodeId::from_index(tag), to));
        let refused = PartList::new(parts, 4).map(|list| list.len);
        assert_eq!(refused, Err(NodeId::from_index(4)), "a part list");
        let mut out = Runs::new();
        push_tagged(&mut out, 1, &[(0, &list(&[1]))]);
        assert_eq!(
            out.push_multicast(2, &ids(&[0, 5]), 4),
            Err(NodeId::from_index(5)),
            "a multicast"
        );
        assert_eq!((out.len(), out.run_count()), (1, 1));
        assert_eq!(shape(&out), [(10, vec![1])]);
    }

    #[test]
    fn a_part_list_is_counted_once_and_shared_by_its_senders() {
        let (a, empty) = (list(&[4, 2]), list(&[]));
        let shared = part_list(&[(7, &a), (8, &empty), (9, &a)]);
        assert_eq!((shared.len, shared.n), (4, usize::MAX));
        let (mut one, mut two) = (Runs::new(), Runs::new());
        one.push_list(1, tagged, &shared);
        two.push_list(2, tagged, &shared);
        two.push_list(3, tagged, &part_list(&[(8, &empty)]));
        assert!(one.sends_over(&shared) && two.sends_over(&shared));
        assert!(
            !one.sends_over(&part_list(&[(7, &a), (9, &a)])),
            "an equal copy"
        );
        assert_eq!((two.len(), two.run_count()), (4, 1), "no empty run");
        assert_eq!(shape(&two), [(27, vec![4, 2]), (29, vec![4, 2])]);
        assert_eq!(
            Rc::strong_count(&a),
            3,
            "one handle per part, however many senders"
        );
    }

    #[test]
    fn storage_recycling_round_trips() {
        // A delivered body enters the pool emptied: its heads keep their
        // capacity, and no payload or list handle stays behind, a part
        // list's or a multicast's.
        let mut body = batch(0, 0, &[(3, &[1])]).body;
        let multicast_list = Rc::downgrade(lists(&body)[0]);
        let shared = list(&[2]);
        push_tagged(&mut body, 4, &[(0, &shared)]);
        assert_eq!(Rc::strong_count(&shared), 2, "the part holds a handle");
        let kept = body.runs.capacity();
        let mut pool = Vec::new();
        body.pool_into(&mut pool);
        assert_eq!(Rc::strong_count(&shared), 1, "the pool holds none");
        assert!(multicast_list.upgrade().is_none(), "nor the multicast's");
        let spare = Runs::recycled(&mut pool);
        assert!(pool.is_empty());
        assert_eq!((spare.len(), spare.run_count()), (0, 0));
        assert_eq!(spare.runs.capacity(), kept);
        assert!(kept > 0, "the pooled heads, emptied");
        assert!(Runs::<u32>::recycled(&mut pool).is_empty(), "or a new one");
    }

    #[test]
    fn an_outbox_of_one_gives_up_its_message() {
        let mut out = Runs::new();
        assert_eq!(out.take_single(), None);
        multicast(&mut out, &ids(&[4]), 7);
        assert_eq!(out.take_single(), Some((NodeId::from_index(4), 7)));
        assert_eq!((out.len(), out.run_count()), (0, 0));
        push_tagged(&mut out, 8, &[(3, &list(&[])), (2, &list(&[6]))]);
        assert_eq!(
            out.take_single(),
            Some((NodeId::from_index(6), 82)),
            "built"
        );
        assert_eq!((out.len(), out.run_count()), (0, 0));
    }

    #[test]
    fn fresh_storage_reserves_the_first_run_exactly() {
        let mut send = Runs::new();
        multicast(&mut send, &ids(&[1]), 1);
        assert_eq!(send.runs.capacity(), 1, "a send, one head");
        let lists: Vec<Rc<[NodeId]>> = (0..5).map(|i| list(&[i, i + 1])).collect();
        let parts: Vec<(usize, &Rc<[NodeId]>)> = lists.iter().enumerate().collect();
        let mut forward = Runs::new();
        push_tagged(&mut forward, 2, &parts);
        assert_eq!(forward.runs.capacity(), 1, "a forward, one head");
        // Past the first run, storage grows as usual.
        push_tagged(&mut forward, 3, &parts);
        multicast(&mut forward, &ids(&[3]), 4);
        assert_eq!(shape(&forward).len(), 11);
        assert!(forward.runs.capacity() >= 3);
    }

    /// `fba-core`'s `AerMsg`, by layout: a 56-byte enum whose widest
    /// variant holds a 32-byte string, a label and two node ids.
    #[derive(Clone)]
    #[allow(dead_code)]
    enum AerShaped {
        Push(Text),
        Fw1 {
            origin: NodeId,
            s: Text,
            r: u64,
            w: NodeId,
        },
        Fw2 {
            origin: NodeId,
            s: Text,
            r: u64,
        },
        RepairQuery(u64),
    }

    /// `GString`'s layout: inline bytes, a bit length and a cached key.
    #[derive(Clone)]
    #[allow(dead_code)]
    struct Text([u8; 16], u16, u64);

    #[test]
    fn a_batch_or_a_fan_in_is_never_the_widest_delivery() {
        use std::mem::size_of;
        assert_eq!(size_of::<AerShaped>(), 56);
        assert_eq!(size_of::<Envelope<AerShaped>>(), 72);
        assert!(size_of::<Delivery<AerShaped>>() <= size_of::<Envelope<AerShaped>>());
        // A run of `d` parts costs one head and one handle on `d` parts
        // its senders share; a forward of `d` separate runs would cost `d`
        // heads.
        assert_eq!(
            size_of::<Targets<AerShaped>>(),
            24,
            "a function and one handle"
        );
        assert!(
            size_of::<Run<AerShaped>>() <= 80,
            "a payload and three words"
        );
        assert!(size_of::<Part>() <= 24, "a tag and one handle");
    }

    #[test]
    fn fan_in_envelopes_expand_in_sender_order() {
        let fan = FanIn {
            to: NodeId::from_index(3),
            sent_at: 5,
            msg: 9u32,
            from: ids(&[4, 1, 4]).into(),
        };
        let fan = Delivery::FanIn(Box::new(fan));
        assert_eq!(
            envelopes(&fan),
            vec![(4, 3, 5, 9), (1, 3, 5, 9), (4, 3, 5, 9)]
        );
        assert_eq!(fan.len(), 3);
    }

    #[test]
    fn envelope_total_bits_adds_header() {
        let env = Envelope {
            from: NodeId::from_index(0),
            to: NodeId::from_index(1),
            sent_at: 3,
            msg: 7u64,
        };
        assert_eq!(env.total_bits(20), 84);
    }
}
