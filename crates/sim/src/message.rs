//! Wire-level message envelopes and bit accounting.
//!
//! The paper's communication-complexity metric counts *bits exchanged*, so
//! every protocol message type must report its payload size via [`WireSize`].
//! The engine adds a per-envelope header of `2·⌈log₂ n⌉` bits (sender and
//! recipient identity) on top of the payload, matching the model where
//! channels are authenticated and point-to-point.

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

/// One sender's messages in send order, stored by the run: a multicast —
/// one payload, many recipients — is one `(copies, payload)` entry plus
/// its recipients in one flat list, however wide its fan-out.
///
/// This is what a callback's [`Context`](crate::Context) writes into and,
/// unchanged, what a batch carries through the calendar: a run is opened
/// by [`Context::multicast`](crate::Context::multicast) (or `send`, the
/// run of one) and is never found by comparing payloads, so two equal
/// payloads sent by two calls stay two runs.
#[derive(Debug)]
pub struct Runs<M> {
    /// `(copies, payload)` per run, `copies ≥ 1`; the copies sum to
    /// `to.len()`.
    runs: Vec<(u32, M)>,
    /// Recipients of every message, in send order, across all runs.
    to: Vec<NodeId>,
}

impl<M> Default for Runs<M> {
    fn default() -> Self {
        Runs {
            runs: Vec::new(),
            to: Vec::new(),
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
        self.to.len()
    }

    /// Whether nothing was sent.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.to.is_empty()
    }

    /// The runs as `(payload, recipients)` pairs, in send order;
    /// `recipients.len()` is the run's copy count.
    pub fn runs(&self) -> impl Iterator<Item = (&M, &[NodeId])> + '_ {
        let mut offset = 0usize;
        self.runs.iter().map(move |(count, msg)| {
            let start = offset;
            offset += *count as usize;
            (msg, &self.to[start..offset])
        })
    }

    /// The per-message view, in send order: what a per-envelope engine
    /// ships and what handler tests read.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &M)> + '_ {
        self.runs()
            .flat_map(|(msg, tos)| tos.iter().map(move |&to| (to, msg)))
    }

    /// Appends one run: `msg` to every node of `targets`, in order. An
    /// empty target list opens no run.
    ///
    /// # Panics
    ///
    /// Panics on more than `u32::MAX` targets.
    pub(crate) fn push_run(&mut self, targets: &[NodeId], msg: M) {
        if targets.is_empty() {
            return;
        }
        self.runs.push((run_copies(targets.len()), msg));
        self.to.extend_from_slice(targets);
    }

    /// Number of runs.
    pub(crate) fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Moves everything out, front to back, a segment at a time.
    pub(crate) fn segments(&mut self) -> Segments<'_, M> {
        Segments(self.runs.drain(..), self.to.drain(..))
    }

    /// Takes the only message out of an outbox of at most one.
    pub(crate) fn take_single(&mut self) -> Option<(NodeId, M)> {
        debug_assert!(self.len() <= 1);
        let to = self.to.pop()?;
        self.runs.pop().map(|(_, msg)| (to, msg))
    }

    /// An empty outbox on recycled storage from `pool` (cleared here), so
    /// the engine's per-step hot loop reuses allocations.
    pub(crate) fn recycled(pool: &mut Vec<Runs<M>>) -> Self {
        let mut spare = pool.pop().unwrap_or_default();
        spare.runs.clear();
        spare.to.clear();
        spare
    }
}

/// The copy count of a run of `len` recipients.
///
/// # Panics
///
/// Panics when it does not fit the run's `u32`.
pub(crate) fn run_copies(len: usize) -> u32 {
    u32::try_from(len).expect("a run of more than u32::MAX copies")
}

/// The front-to-back drain of a [`Runs`] several senders wrote into (see
/// [`RunContext`](crate::RunContext)): its runs and its recipients.
pub(crate) struct Segments<'a, M>(std::vec::Drain<'a, (u32, M)>, std::vec::Drain<'a, NodeId>);

impl<M> Segments<'_, M> {
    /// Moves the next `runs` runs, `to` messages in all, to the end of
    /// `dst`.
    pub(crate) fn move_next(&mut self, to: usize, runs: usize, dst: &mut Runs<M>) {
        dst.runs.extend(self.0.by_ref().take(runs));
        dst.to.extend(self.1.by_ref().take(to));
    }
}

/// A coalesced group of messages one node sent during one step.
///
/// The AER fan-out paths send the same payload to dozens of recipients per
/// callback (`d` committee members × `d` forwarding targets), so the engine
/// ships a callback's outbox of two or more messages as one batch — a
/// single routing header (`from`, `sent_at`) on the [`Runs`] the callback
/// filled — instead of one [`Envelope`] per message. A batch of `k`
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
    /// and after delivery storage for the pool.
    pub(crate) body: Runs<M>,
}

impl<M> Batch<M> {
    /// Expands the batch into the per-message [`Envelope`] view, in send
    /// order — the representation observers, transcripts, and rushing
    /// adversaries are shown.
    pub(crate) fn envelopes(&self) -> impl Iterator<Item = Envelope<M>> + '_
    where
        M: Clone,
    {
        self.body.iter().map(move |(to, msg)| Envelope {
            from: self.from,
            to,
            sent_at: self.sent_at,
            msg: msg.clone(),
        })
    }
}

/// One unit of network traffic in the engine's queue: either a single
/// envelope or a coalesced [`Batch`]. Deliveries expand to the same
/// logical messages in the same order either way, so which variant the
/// engine picks is invisible to protocols, adversaries, and observers
/// (see the crate-level determinism contract).
#[derive(Debug)]
pub(crate) enum Delivery<M> {
    /// A single message.
    One(Envelope<M>),
    /// A coalesced same-sender, same-step group of messages.
    Batch(Batch<M>),
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
        let mut body = Runs::new();
        for &(msg, to) in runs {
            body.push_run(&ids(to), msg);
        }
        Batch {
            from: NodeId::from_index(from),
            sent_at,
            body,
        }
    }

    /// `(payload, recipients)` per run.
    pub(crate) fn shape(runs: &Runs<u32>) -> Vec<(u32, Vec<usize>)> {
        let run = |(msg, tos): (&u32, &[NodeId])| (*msg, tos.iter().map(|to| to.index()).collect());
        runs.runs().map(run).collect()
    }

    #[test]
    fn runs_are_opened_by_the_sender_never_by_comparing_payloads() {
        let mut out = Runs::new();
        out.push_run(&ids(&[1, 2]), 7u32);
        out.push_run(&[], 8);
        out.push_run(&ids(&[3]), 9);
        out.push_run(&ids(&[1]), 9);
        assert_eq!((out.len(), out.run_count()), (4, 3), "no zero-copy run");
        assert_eq!(
            shape(&out),
            [(7, vec![1, 2]), (9, vec![3]), (9, vec![1])],
            "equal payloads of two calls stay two runs"
        );
        let flat: Vec<(usize, u32)> = out.iter().map(|(to, msg)| (to.index(), *msg)).collect();
        assert_eq!(flat, [(1, 7), (2, 7), (3, 9), (1, 9)]);
    }

    #[test]
    fn batch_envelopes_expand_in_send_order() {
        let b = batch(9, 4, &[(5, &[1, 0]), (6, &[2])]);
        assert_eq!(b.body.len(), 3);
        let envs: Vec<(usize, usize, Step, u32)> = b
            .envelopes()
            .map(|e| (e.from.index(), e.to.index(), e.sent_at, e.msg))
            .collect();
        assert_eq!(envs, vec![(9, 1, 4, 5), (9, 0, 4, 5), (9, 2, 4, 6)]);
    }

    #[test]
    fn storage_recycling_round_trips() {
        let mut pool = vec![batch(0, 0, &[(3, &[1])]).body];
        let spare = Runs::recycled(&mut pool);
        assert_eq!((spare.len(), spare.run_count()), (0, 0));
        assert!(spare.to.capacity() > 0, "the pooled allocation, emptied");
        assert!(pool.is_empty());
        assert!(Runs::<u32>::recycled(&mut pool).is_empty(), "or a new one");
    }

    #[test]
    fn an_outbox_of_one_gives_up_its_message() {
        let mut out = Runs::new();
        assert_eq!(out.take_single(), None);
        out.push_run(&ids(&[4]), 7u32);
        assert_eq!(out.take_single(), Some((NodeId::from_index(4), 7)));
        assert_eq!((out.len(), out.run_count()), (0, 0));
    }

    #[test]
    fn segments_move_out_front_to_back_as_runs() {
        let mut shared = batch(0, 0, &[(1, &[1, 2]), (2, &[3]), (3, &[4, 5])]).body;
        let (mut first, mut second) = (Runs::new(), Runs::new());
        let mut rest = shared.segments();
        rest.move_next(2, 1, &mut first);
        rest.move_next(3, 2, &mut second);
        drop(rest);
        assert_eq!(shape(&first), [(1, vec![1, 2])]);
        assert_eq!(shape(&second), [(2, vec![3]), (3, vec![4, 5])]);
        assert_eq!((shared.len(), shared.run_count()), (0, 0));
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
