//! AER wire messages.
//!
//! Six message kinds drive the protocol (§3.1, Algorithms 1–3):
//!
//! * [`AerMsg::Push`] — push phase: a node diffuses its candidate to the
//!   nodes whose push quorums it belongs to.
//! * [`AerMsg::Poll`] / [`AerMsg::Pull`] — Algorithm 1: node `x` verifies a
//!   candidate `s` by messaging its poll list `J(x, r)` and its pull quorum
//!   `H(s, x)`.
//! * [`AerMsg::Fw1`] / [`AerMsg::Fw2`] — Algorithm 2: two-hop filtered
//!   forwarding of the pull request through pull quorums.
//! * [`AerMsg::Answer`] — Algorithm 3: an authoritative poll-list member
//!   confirms the candidate.
//!
//! Every variant carries the full candidate string (size `c·log n` bits),
//! so the engine's bit accounting reflects the paper's communication
//! metric directly.

use fba_samplers::{GString, Label};
use fba_sim::{NodeId, WireSize};

/// One AER protocol message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AerMsg {
    /// Push-phase diffusion of a candidate string (§3.1.1). Sent by node
    /// `y` to every `x` with `y ∈ I(s_y, x)`.
    Push(GString),
    /// `Poll(s, r)`: `x` notifies its poll list `J(x, r)` that it is
    /// verifying `s` with label `r` (Algorithm 1).
    Poll(GString, Label),
    /// `Pull(s, r)`: `x` asks its pull quorum `H(s, x)` to route the
    /// verification request (Algorithm 1).
    Pull(GString, Label),
    /// First-hop forward (Algorithm 2): a member `y ∈ H(s, x)` relays
    /// `x`'s pull to the pull quorum `H(s, w)` of each poll-list member
    /// `w ∈ J(x, r)`.
    Fw1 {
        /// The original requester `x`.
        origin: NodeId,
        /// Candidate string being verified.
        s: GString,
        /// The requester's poll label.
        r: Label,
        /// The poll-list member this forward is destined to serve.
        w: NodeId,
    },
    /// Second-hop forward (Algorithm 2): a member `z ∈ H(s, w)` that saw a
    /// majority of `H(s, x)` forward the request passes it to `w`.
    Fw2 {
        /// The original requester `x`.
        origin: NodeId,
        /// Candidate string being verified.
        s: GString,
        /// The requester's poll label.
        r: Label,
    },
    /// A poll-list member's confirmation of `s` (Algorithm 3).
    Answer(GString),
    /// Last-resort liveness repair (extension beyond the paper, see
    /// README "Deviations from the paper"): an undecided node asks a
    /// fresh poll list `J(x, r)` what its members decided.
    RepairQuery(Label),
    /// Reply to a [`AerMsg::RepairQuery`]: the sender's decided string.
    RepairAnswer(GString),
}

impl AerMsg {
    /// The candidate string this message is about, if it carries one.
    #[must_use]
    pub fn string(&self) -> Option<&GString> {
        match self {
            AerMsg::Push(s)
            | AerMsg::Poll(s, _)
            | AerMsg::Pull(s, _)
            | AerMsg::Fw1 { s, .. }
            | AerMsg::Fw2 { s, .. }
            | AerMsg::Answer(s)
            | AerMsg::RepairAnswer(s) => Some(s),
            AerMsg::RepairQuery(_) => None,
        }
    }

    /// Short tag for traces.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            AerMsg::Push(_) => "Push",
            AerMsg::Poll(..) => "Poll",
            AerMsg::Pull(..) => "Pull",
            AerMsg::Fw1 { .. } => "Fw1",
            AerMsg::Fw2 { .. } => "Fw2",
            AerMsg::Answer(_) => "Answer",
            AerMsg::RepairQuery(_) => "RepairQuery",
            AerMsg::RepairAnswer(_) => "RepairAnswer",
        }
    }
}

impl WireSize for AerMsg {
    fn wire_bits(&self) -> u64 {
        // 3 bits of message-kind discriminant on every variant.
        const KIND: u64 = 3;
        match self {
            AerMsg::Push(s) | AerMsg::Answer(s) | AerMsg::RepairAnswer(s) => KIND + s.wire_bits(),
            AerMsg::Poll(s, r) | AerMsg::Pull(s, r) => KIND + s.wire_bits() + r.wire_bits(),
            AerMsg::Fw1 { s, r, .. } => {
                // origin and w are node ids; count 32 bits each (the
                // simulator's header already covers from/to, these are
                // payload-embedded identities).
                KIND + s.wire_bits() + r.wire_bits() + 64
            }
            AerMsg::Fw2 { s, r, .. } => KIND + s.wire_bits() + r.wire_bits() + 32,
            AerMsg::RepairQuery(r) => KIND + r.wire_bits(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(bits: usize) -> GString {
        GString::zeroes(bits)
    }

    #[test]
    fn wire_sizes_scale_with_string_length() {
        let short = AerMsg::Push(s(16)).wire_bits();
        let long = AerMsg::Push(s(64)).wire_bits();
        assert_eq!(long - short, 48);
    }

    #[test]
    fn forwards_cost_more_than_pushes() {
        let push = AerMsg::Push(s(32)).wire_bits();
        let fw1 = AerMsg::Fw1 {
            origin: NodeId::from_index(0),
            s: s(32),
            r: Label(1),
            w: NodeId::from_index(1),
        }
        .wire_bits();
        assert!(fw1 > push);
    }

    #[test]
    fn string_accessor_returns_payload() {
        let g = s(24);
        for m in [
            AerMsg::Push(g),
            AerMsg::Poll(g, Label(0)),
            AerMsg::Pull(g, Label(0)),
            AerMsg::Fw1 {
                origin: NodeId::from_index(0),
                s: g,
                r: Label(0),
                w: NodeId::from_index(0),
            },
            AerMsg::Fw2 {
                origin: NodeId::from_index(0),
                s: g,
                r: Label(0),
            },
            AerMsg::Answer(g),
            AerMsg::RepairAnswer(g),
        ] {
            assert_eq!(m.string(), Some(&g));
        }
        assert_eq!(AerMsg::RepairQuery(Label(0)).string(), None);
    }

    #[test]
    fn kinds_are_distinct() {
        let g = s(8);
        let kinds = [
            AerMsg::Push(g).kind(),
            AerMsg::Poll(g, Label(0)).kind(),
            AerMsg::Pull(g, Label(0)).kind(),
            AerMsg::Answer(g).kind(),
        ];
        let unique: std::collections::BTreeSet<_> = kinds.iter().collect();
        assert_eq!(unique.len(), kinds.len());
    }
}
