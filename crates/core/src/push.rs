//! The push phase (§3.1.1).
//!
//! Each node `y` diffuses its initial candidate `s_y` to every node `x`
//! with `y ∈ I(s_y, x)`. A receiving node `x` adds a string `s` to its
//! candidate list `L_x` iff *more than half* of the push quorum `I(s, x)`
//! pushed `s` to it. Because nodes never react to pushes by sending
//! messages, the phase is impervious to flooding: Byzantine pushes can add
//! work only through quorums they already control (Lemma 4 bounds the
//! total damage to `O(n)` candidate-list entries system-wide).

use fba_sim::fxhash::{FxHashMap, FxHashSet};

use fba_samplers::{GString, QuorumScheme, StringKey};
use fba_sim::NodeId;

use crate::state::AerRunState;

/// Per-node push-phase state: counts distinct valid pushers per candidate
/// string and maintains the accepted list `L_x`.
///
/// Vote counting lives in the run's shared [`AerRunState`], keyed by the
/// interned quorum slot of `I(s, x)` — one contiguous `u64`-per-quorum
/// vector for the whole run instead of a hash map of sender sets per
/// node. Slots are unique per `(s, x)`, so nodes never alias each other's
/// masks even though the storage is shared.
#[derive(Clone, Debug)]
pub struct PushPhase {
    x: NodeId,
    /// What the run shares: the memoized push-quorum sampler `I` and the
    /// vote masks, of which this node writes only the slots of its own
    /// quorums `I(·, x)`.
    state: AerRunState,
    /// Candidate strings currently being counted but not (yet) accepted.
    pending: usize,
    /// Accepted candidates, in acceptance order; position 0 is `s_x`.
    accepted: Vec<GString>,
    accepted_keys: FxHashSet<StringKey>,
}

impl PushPhase {
    /// Creates the push state for node `x` with initial candidate `own`
    /// on the run's shared `state`. `L_x` starts as `{own}` (§3.1.1,
    /// Figure 2a).
    #[must_use]
    pub fn new(x: NodeId, own: GString, state: &AerRunState) -> Self {
        let mut accepted_keys = FxHashSet::default();
        accepted_keys.insert(own.key());
        PushPhase {
            x,
            state: state.clone(),
            pending: 0,
            accepted: vec![own],
            accepted_keys,
        }
    }

    /// This node's own initial candidate.
    #[must_use]
    pub fn own_candidate(&self) -> &GString {
        &self.accepted[0]
    }

    /// Handles a `Push(s)` from `from`. Returns `Some(s)` if this push
    /// crossed the majority threshold and `s` was *newly* accepted into
    /// `L_x`.
    ///
    /// Pushes from nodes outside `I(s, x)` are ignored (the sampler-based
    /// filter that makes flooding ineffective), as are duplicates from the
    /// same sender.
    pub fn on_push(&mut self, from: NodeId, s: GString) -> Option<GString> {
        let key = s.key();
        if self.accepted_keys.contains(&key) {
            return None;
        }
        let push_quorums = &self.state.push_quorums;
        let slot = push_quorums.slot(key, self.x);
        // Non-members of I(s, x) never reach the vote mask: flooding from
        // outside the quorum leaves no per-string state behind.
        let position = push_quorums.position_at(slot, from)?;
        let (newly, votes) = self.state.push_vote(slot, position);
        if !newly {
            return None; // duplicate sender
        }
        if votes == 1 {
            self.pending += 1;
        }
        if votes as usize >= push_quorums.majority() {
            self.pending -= 1;
            self.accepted_keys.insert(key);
            self.accepted.push(s);
            Some(s)
        } else {
            None
        }
    }

    /// The current candidate list `L_x`.
    #[must_use]
    pub fn candidates(&self) -> &[GString] {
        &self.accepted
    }

    /// Whether `s` has been accepted into `L_x`.
    #[must_use]
    pub fn contains(&self, s: &GString) -> bool {
        self.accepted_keys.contains(&s.key())
    }

    /// Number of candidate strings currently being counted but not (yet)
    /// accepted — exposure for flood-resistance experiments.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Crash-recovery: rebuilds `L_x` from a checkpointed accepted list
    /// (position 0 is `s_x`, as logged by the WAL's first record).
    ///
    /// The run-shared vote arena is left untouched: votes counted before
    /// the crash model pushes already received, and `pending` stays in
    /// lockstep with the arena's partially-filled masks — zeroing either
    /// without the other would desynchronise the majority accounting.
    pub fn restore_accepted(&mut self, accepted: &[GString]) {
        self.accepted.clear();
        self.accepted_keys.clear();
        for &s in accepted {
            if self.accepted_keys.insert(s.key()) {
                self.accepted.push(s);
            }
        }
    }
}

/// Computes, for every node `y`, the push target list
/// `{x : y ∈ I(s_y, x)}` given all nodes' initial candidates.
///
/// Each node could compute its own list locally by scanning `x ∈ [n]`
/// (the sampler is public), and for a string with one holder `y` below
/// the sampler's tail band `[n − d, n)` that is what happens: one
/// membership probe per receiver ([`receivers_of`]), no quorum
/// materialised. A run with mostly-unique candidates (the unknowing
/// fraction of a synthetic precondition draws a fresh random string per
/// node) has almost only such strings. Every other string — several
/// holders, or one inside the tail band, where a probe has to evaluate
/// the quorum anyway — gets one `O(n·d)` quorum sweep for all its
/// holders: members are enumerated through a reusable scratch bitmap and
/// filtered against a holder bitmap. Which path a string takes is read
/// off `assignments`; both produce the same ascending lists. Per Lemma 3,
/// each returned list has expected length `d`.
///
/// [`receivers_of`]: fba_samplers::QuorumSampler::receivers_of
///
/// # Panics
///
/// Panics if `assignments.len() != scheme.n()`.
#[must_use]
pub fn push_targets(scheme: &QuorumScheme, assignments: &[GString]) -> Vec<Vec<NodeId>> {
    let n = scheme.n();
    assert_eq!(
        assignments.len(),
        n,
        "one initial candidate per node required"
    );
    let mut by_key: FxHashMap<StringKey, Vec<usize>> = FxHashMap::default();
    for (i, s) in assignments.iter().enumerate() {
        by_key.entry(s.key()).or_default().push(i);
    }
    let mut targets: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let tail = n - scheme.push.d();
    let words = n.div_ceil(64);
    let mut holder = vec![0u64; words];
    let mut seen = vec![0u64; words];
    let mut members: Vec<NodeId> = Vec::with_capacity(scheme.push.d());
    for (key, holders) in &by_key {
        if let [yi] = holders[..] {
            if yi < tail {
                scheme
                    .push
                    .receivers_of(*key, NodeId::from_index(yi), &mut targets[yi]);
                continue;
            }
        }
        for &yi in holders {
            holder[yi >> 6] |= 1u64 << (yi & 63);
        }
        // One pass over receivers: append `x` to every holder of `key`
        // that sits in `I(key, x)`. Receivers are visited in ascending
        // order, so each target list comes out sorted by construction.
        for xi in 0..n {
            let x = NodeId::from_index(xi);
            members.clear();
            scheme.push.quorum_into(*key, x, &mut seen, &mut members);
            for y in &members {
                let yi = y.index();
                if holder[yi >> 6] & (1u64 << (yi & 63)) != 0 {
                    targets[yi].push(x);
                }
            }
        }
        for &yi in holders {
            holder[yi >> 6] &= !(1u64 << (yi & 63));
        }
    }
    targets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::MAX_QUORUM_SIZE;
    use fba_samplers::PollSampler;
    use fba_sim::TestStep;
    use std::ops::Range;

    fn scheme(n: usize, d: usize) -> QuorumScheme {
        QuorumScheme::new(7, n, d)
    }

    fn phase(x: NodeId, own: GString, sc: QuorumScheme) -> PushPhase {
        let poll = PollSampler::new(7, sc.n(), sc.d(), 2);
        PushPhase::new(x, own, &AerRunState::new(sc, poll))
    }

    fn gs(tag: u8, len: usize) -> GString {
        GString::from_bits(
            &(0..len)
                .map(|i| (i as u8 + tag).is_multiple_of(3))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn own_candidate_is_preaccepted() {
        let sc = scheme(32, 5);
        let own = gs(1, 16);
        let p = phase(NodeId::from_index(0), own, sc);
        assert!(p.contains(&own));
        assert_eq!(p.candidates(), &[own]);
        assert_eq!(p.own_candidate(), &own);
    }

    /// The pushes of one step-table row, all for the same string `s`.
    enum Input {
        /// One push from every node outside `I(s, x)`.
        Outsiders,
        /// One push from the member at each position of `I(s, x)`, in
        /// order.
        Members(Range<usize>),
    }

    /// What a row's pushes returned and the phase's state after them.
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    struct Outputs {
        /// Pushes that returned `Some(s)`: `s` newly accepted.
        accepted: usize,
        /// Strings counted but not yet accepted.
        pending: usize,
        /// `|L_x|`.
        candidates: usize,
    }

    #[test]
    fn algorithm_1_accepts_a_push_at_a_strict_majority_of_its_quorum() {
        // The widest quorum a run supports, so the last vote bit counts.
        const D: usize = MAX_QUORUM_SIZE;
        const MAJORITY: usize = D / 2 + 1;
        let (n, x, s) = (256, NodeId::from_index(3), gs(2, 16));
        let sc = scheme(n, D);
        let mut p = phase(x, gs(1, 16), sc);
        let quorum = sc.push.quorum(s.key(), x);
        assert_eq!((quorum.len(), sc.push.majority()), (D, MAJORITY));
        let counting = Outputs {
            pending: 1,
            candidates: 1,
            ..Outputs::default()
        };
        let table = [
            TestStep {
                desc: "§3.1.1: a push from outside I(s, x) is ignored and leaves no state",
                input: Input::Outsiders,
                expected_outputs: Outputs {
                    candidates: 1,
                    ..Outputs::default()
                },
            },
            TestStep {
                desc: "§3.1.1: the first member of I(s, x) is below the majority",
                input: Input::Members(0..1),
                expected_outputs: counting,
            },
            TestStep {
                desc: "§3.1.1: a member that pushes again counts once",
                input: Input::Members(0..1),
                expected_outputs: counting,
            },
            TestStep {
                desc: "§3.1.1: 30 distinct members of 63 stay below the majority",
                input: Input::Members(1..MAJORITY - 2),
                expected_outputs: counting,
            },
            TestStep {
                desc: "§3.1.1: the member at position 62 counts, one short of the majority",
                input: Input::Members(D - 1..D),
                expected_outputs: counting,
            },
            TestStep {
                desc: "§3.1.1: the member crossing half of I(s, x) accepts s into L_x, once",
                input: Input::Members(MAJORITY - 2..MAJORITY - 1),
                expected_outputs: Outputs {
                    accepted: 1,
                    candidates: 2,
                    ..Outputs::default()
                },
            },
            TestStep {
                desc: "§3.1.1: a member after the acceptance changes nothing",
                input: Input::Members(MAJORITY - 1..MAJORITY),
                expected_outputs: Outputs {
                    candidates: 2,
                    ..Outputs::default()
                },
            },
        ];
        for row in table {
            let senders: Vec<NodeId> = match row.input {
                Input::Outsiders => (0..n)
                    .map(NodeId::from_index)
                    .filter(|y| !quorum.contains(y))
                    .collect(),
                Input::Members(positions) => quorum[positions].to_vec(),
            };
            let accepted = senders
                .iter()
                .filter(|&&y| p.on_push(y, s) == Some(s))
                .count();
            let outputs = Outputs {
                accepted,
                pending: p.pending(),
                candidates: p.candidates().len(),
            };
            assert_eq!(outputs, row.expected_outputs, "{}", row.desc);
            assert_eq!(p.contains(&s), outputs.candidates == 2, "{}", row.desc);
        }
    }

    #[test]
    fn push_targets_match_quorum_membership() {
        let n = 24;
        let sc = scheme(n, 5);
        let assignments: Vec<GString> = (0..n).map(|i| gs((i % 3) as u8, 16)).collect();
        let targets = push_targets(&sc, &assignments);
        for yi in 0..n {
            let y = NodeId::from_index(yi);
            let key = assignments[yi].key();
            // Forward check: every listed target's quorum contains y.
            for &x in &targets[yi] {
                assert!(sc.push.contains(key, x, y));
            }
            // Reverse check: every x whose quorum contains y is listed.
            for xi in 0..n {
                let x = NodeId::from_index(xi);
                if sc.push.contains(key, x, y) {
                    assert!(targets[yi].contains(&x), "missing target {x} for {y}");
                }
            }
        }
    }

    #[test]
    fn push_targets_have_logarithmic_expected_size() {
        let n = 256;
        let d = 10;
        let sc = scheme(n, d);
        // Everyone shares one string: per-node expected target count is d.
        let assignments: Vec<GString> = (0..n).map(|_| gs(0, 16)).collect();
        let targets = push_targets(&sc, &assignments);
        let total: usize = targets.iter().map(Vec::len).sum();
        assert_eq!(total, n * d, "every quorum slot maps to one push edge");
    }

    #[test]
    #[should_panic(expected = "one initial candidate per node")]
    fn push_targets_rejects_wrong_length() {
        let sc = scheme(8, 3);
        let _ = push_targets(&sc, &[gs(0, 16)]);
    }
}
