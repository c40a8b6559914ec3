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
/// interned quorum slot of `I(s, x)` — one contiguous `u128`-per-quorum
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
    use fba_samplers::PollSampler;
    use std::collections::BTreeSet;

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

    #[test]
    fn acceptance_requires_quorum_majority_of_distinct_members() {
        let sc = scheme(32, 5);
        let x = NodeId::from_index(3);
        let mut p = phase(x, gs(1, 16), sc);
        let s = gs(2, 16);
        let quorum = sc.push.quorum(s.key(), x);
        assert_eq!(quorum.len(), 5);
        let maj = sc.push.majority(); // 3

        // First two pushes: below threshold.
        assert!(p.on_push(quorum[0], s).is_none());
        assert!(p.on_push(quorum[1], s).is_none());
        // Duplicate sender does not advance the counter.
        assert!(p.on_push(quorum[1], s).is_none());
        assert!(!p.contains(&s));
        // Third distinct member crosses the majority.
        let newly = p.on_push(quorum[maj - 1], s);
        assert_eq!(newly, Some(s));
        assert!(p.contains(&s));
        // Further pushes for an accepted string are no-ops.
        assert!(p.on_push(quorum[3], s).is_none());
        assert_eq!(p.candidates().len(), 2);
    }

    #[test]
    fn pushes_from_non_members_are_filtered() {
        let sc = scheme(32, 5);
        let x = NodeId::from_index(3);
        let mut p = phase(x, gs(1, 16), sc);
        let s = gs(2, 16);
        let quorum: BTreeSet<_> = sc.push.quorum(s.key(), x).into_iter().collect();
        let outsiders: Vec<_> = (0..32)
            .map(NodeId::from_index)
            .filter(|y| !quorum.contains(y))
            .collect();
        for y in outsiders {
            assert!(p.on_push(y, s).is_none());
        }
        assert!(!p.contains(&s));
        assert_eq!(
            p.pending(),
            0,
            "non-member pushes must not allocate counters"
        );
    }

    #[test]
    fn pending_counts_in_flight_strings() {
        let sc = scheme(32, 5);
        let x = NodeId::from_index(3);
        let mut p = phase(x, gs(1, 16), sc);
        let s = gs(2, 16);
        let quorum = sc.push.quorum(s.key(), x);
        let _ = p.on_push(quorum[0], s);
        assert_eq!(p.pending(), 1);
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
