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

/// A coalesced group of messages one node sent during one step.
///
/// The AER fan-out paths send the same payload to dozens of recipients per
/// callback (`d` committee members × `d` forwarding targets), so the engine
/// stores each callback's outbox as one batch — a single routing header
/// (`from`, `sent_at`) plus run-length-encoded payloads and a flat recipient
/// list — instead of one [`Envelope`] per message. A batch of `k` messages
/// is purely a wire-level framing optimisation: it still *counts* as `k`
/// logical messages and `k × (header + payload)` bits, and recipients
/// receive the payloads in exactly the order [`Batch::push`] recorded them.
#[derive(Debug)]
pub(crate) struct Batch<M> {
    /// True sender of every message in the batch (never forgeable).
    pub(crate) from: NodeId,
    /// Step during which every message in the batch was sent.
    sent_at: Step,
    /// `(copies, payload)` runs; consecutive identical payloads share a run.
    runs: Vec<(u32, M)>,
    /// Recipients of every message, in send order, across all runs.
    to: Vec<NodeId>,
}

impl<M> Batch<M> {
    /// Builds an empty batch on top of recycled backing buffers (cleared
    /// here), so the engine's per-step hot loop reuses allocations.
    pub(crate) fn from_buffers(from: NodeId, sent_at: Step, buffers: BatchBuffers<M>) -> Self {
        let (mut runs, mut to) = buffers;
        runs.clear();
        to.clear();
        Batch {
            from,
            sent_at,
            runs,
            to,
        }
    }

    /// Tears the batch down to its backing buffers for reuse.
    pub(crate) fn into_buffers(self) -> BatchBuffers<M> {
        (self.runs, self.to)
    }

    /// Number of logical messages in the batch.
    pub(crate) fn len(&self) -> usize {
        self.to.len()
    }

    /// Appends one message. Consecutive pushes of equal payloads extend the
    /// current run instead of storing another copy.
    pub(crate) fn push(&mut self, to: NodeId, msg: M)
    where
        M: PartialEq,
    {
        match self.runs.last_mut() {
            Some((count, last)) if *last == msg => *count += 1,
            _ => self.runs.push((1, msg)),
        }
        self.to.push(to);
    }

    /// Splits the batch by a per-message key — `keys[i]` is the key of
    /// the `i`-th message in send order — into one sub-batch per distinct
    /// key, in order of first appearance, each holding its messages in
    /// send order on backing storage from `pool`, which gets this batch's
    /// own in return. A run is cut where its keys differ and its pieces
    /// stay runs; a piece costs one payload clone.
    ///
    /// Pieces are told apart by the run they come from, never by
    /// comparing payloads, and nothing here calls [`Batch::push`]: one
    /// more call site of `M`'s `PartialEq` made LLVM stop inlining the
    /// comparison into `enqueue_outbox`'s loop, which cost `benchmark/`'s
    /// sync workloads 7–10 % `run_wall_s` (CHANGES.md, PR 18). Out of
    /// line for the same loop's sake: no shipped adversary's schedule
    /// mixes a batch, so this runs under test adversaries only.
    #[cold]
    #[inline(never)]
    pub(crate) fn split<K: Copy + PartialEq>(
        self,
        keys: &[K],
        pool: &mut Vec<BatchBuffers<M>>,
    ) -> Vec<(K, Batch<M>)>
    where
        M: Clone,
    {
        debug_assert_eq!(keys.len(), self.len());
        let mut parts: Vec<(K, Batch<M>)> = Vec::new();
        // Per part, the source run its last run was cut from.
        let mut cut_from: Vec<usize> = Vec::new();
        let mut keys = keys;
        for (source, (msg, recipients)) in self.runs().enumerate() {
            let (own, rest) = keys.split_at(recipients.len());
            keys = rest;
            for (&to, &key) in recipients.iter().zip(own) {
                let at = parts.iter().position(|(of, _)| *of == key);
                let at = at.unwrap_or_else(|| {
                    let buffers = pool.pop().unwrap_or_default();
                    parts.push((key, Batch::from_buffers(self.from, self.sent_at, buffers)));
                    cut_from.push(usize::MAX);
                    parts.len() - 1
                });
                let part = &mut parts[at].1;
                match part.runs.last_mut() {
                    Some((count, _)) if cut_from[at] == source => *count += 1,
                    _ => part.runs.push((1, msg.clone())),
                }
                cut_from[at] = source;
                part.to.push(to);
            }
        }
        pool.push(self.into_buffers());
        parts
    }

    /// Iterates the payload runs as `(payload, recipients)` pairs, in send
    /// order; `recipients.len()` is the run's copy count.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (&M, &[NodeId])> + '_ {
        let mut offset = 0usize;
        self.runs.iter().map(move |(count, msg)| {
            let start = offset;
            offset += *count as usize;
            (msg, &self.to[start..offset])
        })
    }

    /// Expands the batch into the per-message [`Envelope`] view, in send
    /// order — the representation observers, transcripts, and rushing
    /// adversaries are shown.
    pub(crate) fn envelopes(&self) -> impl Iterator<Item = Envelope<M>> + '_
    where
        M: Clone,
    {
        self.runs().flat_map(move |(msg, tos)| {
            tos.iter().map(move |&to| Envelope {
                from: self.from,
                to,
                sent_at: self.sent_at,
                msg: msg.clone(),
            })
        })
    }
}

/// Recycled backing storage of a [`Batch`]: its run and recipient vectors.
pub(crate) type BatchBuffers<M> = (Vec<(u32, M)>, Vec<NodeId>);

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
mod tests {
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

    fn batch(from: usize, sent_at: Step) -> Batch<u32> {
        Batch::from_buffers(NodeId::from_index(from), sent_at, BatchBuffers::default())
    }

    #[test]
    fn batch_run_length_encodes_consecutive_equal_payloads() {
        let mut b = batch(0, 2);
        b.push(NodeId::from_index(1), 7);
        b.push(NodeId::from_index(2), 7);
        b.push(NodeId::from_index(3), 9);
        b.push(NodeId::from_index(1), 7);
        assert_eq!(b.len(), 4);
        let runs: Vec<(u32, Vec<NodeId>)> = b.runs().map(|(m, tos)| (*m, tos.to_vec())).collect();
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0].0, 7);
        assert_eq!(runs[0].1.len(), 2);
        assert_eq!(runs[1], (9, vec![NodeId::from_index(3)]));
        assert_eq!(runs[2], (7, vec![NodeId::from_index(1)]));
    }

    #[test]
    fn batch_envelopes_expand_in_send_order() {
        let mut b = batch(9, 4);
        b.push(NodeId::from_index(1), 5);
        b.push(NodeId::from_index(0), 5);
        b.push(NodeId::from_index(2), 6);
        let envs: Vec<(usize, usize, Step, u32)> = b
            .envelopes()
            .map(|e| (e.from.index(), e.to.index(), e.sent_at, e.msg))
            .collect();
        assert_eq!(envs, vec![(9, 1, 4, 5), (9, 0, 4, 5), (9, 2, 4, 6)]);
    }

    #[test]
    fn batch_buffer_recycling_round_trips() {
        let mut b = batch(0, 0);
        b.push(NodeId::from_index(1), 3);
        let b2 = Batch::from_buffers(NodeId::from_index(2), 1, b.into_buffers());
        assert_eq!(b2.len(), 0);
        assert_eq!(b2.from, NodeId::from_index(2));
        assert_eq!(b2.sent_at, 1);
    }

    #[test]
    fn split_cuts_runs_by_key_and_keeps_send_order() {
        // Runs 7×3, 9×1, 7×1; the first is cut in the middle.
        let mut b = batch(5, 2);
        for (to, msg) in [(1, 7), (2, 7), (3, 7), (4, 9), (6, 7)] {
            b.push(NodeId::from_index(to), msg);
        }
        let mut pool = vec![BatchBuffers::default()];
        let parts = b.split(&['a', 'b', 'a', 'a', 'b'], &mut pool);
        assert_eq!(
            pool.len(),
            1,
            "one buffer pair taken, the batch's own returned"
        );
        let shape = |part: &Batch<u32>| -> Vec<(u32, Vec<usize>)> {
            let run =
                |(msg, tos): (&u32, &[NodeId])| (*msg, tos.iter().map(|to| to.index()).collect());
            part.runs().map(run).collect()
        };
        assert_eq!(parts.len(), 2);
        assert!(parts
            .iter()
            .all(|(_, part)| (part.from.index(), part.sent_at) == (5, 2)));
        assert_eq!(parts[0].0, 'a');
        assert_eq!(shape(&parts[0].1), [(7, vec![1, 3]), (9, vec![4])]);
        // Equal payloads cut from different runs are not compared, so
        // they stay two runs.
        assert_eq!(parts[1].0, 'b');
        assert_eq!(shape(&parts[1].1), [(7, vec![2]), (7, vec![6])]);
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
