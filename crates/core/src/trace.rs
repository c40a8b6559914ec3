//! Transcript analysis: turning recorded message flows into the views of
//! Figure 2.
//!
//! The engine's `record_transcript` mode captures every envelope of a
//! run; this module distils transcripts into (a) per-node push-phase vote
//! counts — the Figure 2a picture — and (b) the hop-by-hop flow of a
//! single verification request — the Figure 2b picture. Used by the
//! `paperbench f2a`/`f2b` experiments and the `push_pull_trace` example.
//! The retry-wave count needs no transcript: [`WaveCounter`] is a
//! streaming [`Observer`].

use std::collections::BTreeMap;

use fba_samplers::{GString, QuorumScheme, StringKey};
use fba_sim::{Envelope, NodeId, Observer, Step};

use crate::aer::AerNode;
use crate::msg::AerMsg;

/// Push-phase vote tally at one receiving node (Figure 2a).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PushVotes {
    /// Distinct valid quorum members that pushed, per candidate string.
    pub valid: BTreeMap<StringKey, usize>,
    /// Pushes discarded because the sender was not in `I(s, x)`.
    pub filtered: usize,
}

impl PushVotes {
    /// Valid pushes counted for `s`.
    #[must_use]
    pub fn votes_for(&self, s: &GString) -> usize {
        self.valid.get(&s.key()).copied().unwrap_or(0)
    }
}

/// Counts the push-phase votes a node received, applying the same
/// `I(s, x)` membership filter the node itself applies.
///
/// Duplicate pushes from the same sender for the same string count once,
/// mirroring [`crate::push::PushPhase`].
#[must_use]
pub fn push_votes_at(
    transcript: &[Envelope<AerMsg>],
    x: NodeId,
    scheme: &QuorumScheme,
) -> PushVotes {
    let mut seen: BTreeMap<StringKey, std::collections::BTreeSet<NodeId>> = BTreeMap::new();
    let mut filtered = 0usize;
    for env in transcript {
        if env.to != x {
            continue;
        }
        if let AerMsg::Push(s) = &env.msg {
            let key = s.key();
            if scheme.push.contains(key, x, env.from) {
                seen.entry(key).or_default().insert(env.from);
            } else {
                filtered += 1;
            }
        }
    }
    PushVotes {
        valid: seen.into_iter().map(|(k, set)| (k, set.len())).collect(),
        filtered,
    }
}

/// One hop of a verification request's flow (Figure 2b).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HopSummary {
    /// Hop label ("Poll", "Pull", "Fw1", "Fw2", "Answer").
    pub kind: &'static str,
    /// Messages observed on this hop.
    pub count: usize,
    /// Step the first message of the hop was sent.
    pub first_step: Option<Step>,
}

/// The complete flow of one requester's verification of one string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestFlow {
    /// The requester.
    pub origin: NodeId,
    /// Hops in pipeline order: Poll, Pull, Fw1, Fw2, Answer.
    pub hops: Vec<HopSummary>,
}

impl RequestFlow {
    /// The hop summary for `kind`, if present.
    #[must_use]
    pub fn hop(&self, kind: &str) -> Option<&HopSummary> {
        self.hops.iter().find(|h| h.kind == kind)
    }

    /// Pipeline depth: steps between the request going out and the first
    /// answer coming back.
    #[must_use]
    pub fn pipeline_depth(&self) -> Option<Step> {
        let start = self.hop("Poll")?.first_step?;
        let end = self.hop("Answer")?.first_step?;
        Some(end.saturating_sub(start) + 1)
    }
}

/// Extracts the Figure 2b flow: every message serving `origin`'s
/// verification of `s`.
#[must_use]
pub fn request_flow(transcript: &[Envelope<AerMsg>], origin: NodeId, s: &GString) -> RequestFlow {
    let key = s.key();
    let mut counts: BTreeMap<&'static str, (usize, Option<Step>)> = BTreeMap::new();
    let mut record = |kind: &'static str, step: Step| {
        let slot = counts.entry(kind).or_insert((0, None));
        slot.0 += 1;
        slot.1 = Some(slot.1.map_or(step, |f| f.min(step)));
    };
    for env in transcript {
        match &env.msg {
            AerMsg::Poll(ps, _) if env.from == origin && ps.key() == key => {
                record("Poll", env.sent_at);
            }
            AerMsg::Pull(ps, _) if env.from == origin && ps.key() == key => {
                record("Pull", env.sent_at);
            }
            AerMsg::Fw1 {
                origin: o, s: ps, ..
            } if *o == origin && ps.key() == key => {
                record("Fw1", env.sent_at);
            }
            AerMsg::Fw2 {
                origin: o, s: ps, ..
            } if *o == origin && ps.key() == key => {
                record("Fw2", env.sent_at);
            }
            AerMsg::Answer(ps) if env.to == origin && ps.key() == key => {
                record("Answer", env.sent_at);
            }
            _ => {}
        }
    }
    let hops = ["Poll", "Pull", "Fw1", "Fw2", "Answer"]
        .into_iter()
        .map(|kind| {
            let (count, first_step) = counts.get(kind).copied().unwrap_or((0, None));
            HopSummary {
                kind,
                count,
                first_step,
            }
        })
        .collect();
    RequestFlow { origin, hops }
}

/// Counts retry waves as a run goes, without a transcript.
///
/// A *wave* is a step in which at least one `Poll` or `RepairQuery` left a
/// requester. Step 0 is the initial wave (every node polls its own
/// candidate); later waves are polls of newly accepted candidates or
/// repair escalations. Fault-free runs should show O(1) waves at every
/// `n` — the scale-aware timeout exists to keep it that way, and this
/// count is the scalar the retry-wave regression guard watches.
#[derive(Clone, Copy, Debug, Default)]
pub struct WaveCounter {
    /// Waves seen so far.
    pub waves: usize,
}

impl Observer<AerNode> for WaveCounter {
    fn on_step(&mut self, _step: Step, sends: &[Envelope<AerMsg>]) {
        let launches =
            |e: &Envelope<AerMsg>| matches!(e.msg, AerMsg::Poll(..) | AerMsg::RepairQuery(_));
        self.waves += usize::from(sends.iter().any(launches));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AerConfig, AerHarness};
    use fba_ae::{Precondition, UnknowingAssignment};
    use fba_sim::{run_observed, NoAdversary};

    fn traced_run() -> (AerHarness, Precondition, Vec<Envelope<AerMsg>>) {
        let n = 48;
        let cfg = AerConfig::recommended(n);
        let pre = Precondition::synthetic(
            n,
            cfg.string_len,
            0.8,
            UnknowingAssignment::RandomPerNode,
            3,
        );
        let h = AerHarness::from_precondition(cfg, &pre);
        let mut engine = h.engine_sync();
        engine.record_transcript = true;
        let out = h.run(&engine, 3, &mut NoAdversary);
        assert!(out.all_decided());
        (h, pre, out.transcript)
    }

    #[test]
    fn push_votes_reach_majority_for_gstring() {
        let (h, pre, transcript) = traced_run();
        let scheme = h.scheme();
        let unknowing = (0..48)
            .map(NodeId::from_index)
            .find(|id| !pre.knows(*id))
            .unwrap();
        let votes = push_votes_at(&transcript, unknowing, &scheme);
        assert!(
            votes.votes_for(&pre.gstring) >= h.config().majority(),
            "gstring short of majority at {unknowing}: {votes:?}"
        );
    }

    #[test]
    fn push_votes_filter_matches_protocol_filter() {
        let (h, pre, transcript) = traced_run();
        let scheme = h.scheme();
        // Replay the transcript into a fresh PushPhase and compare.
        let x = (0..48)
            .map(NodeId::from_index)
            .find(|id| !pre.knows(*id))
            .unwrap();
        let mut phase = crate::push::PushPhase::new(x, pre.assignments[x.index()], &h.run_state());
        for env in &transcript {
            if env.to == x {
                if let AerMsg::Push(s) = &env.msg {
                    let _ = phase.on_push(env.from, *s);
                }
            }
        }
        let votes = push_votes_at(&transcript, x, &scheme);
        // The trace says gstring crossed the majority iff the protocol
        // accepted it.
        assert_eq!(
            votes.votes_for(&pre.gstring) >= h.config().majority(),
            phase.contains(&pre.gstring),
        );
    }

    #[test]
    fn request_flow_shows_the_pipeline() {
        let (h, pre, transcript) = traced_run();
        let origin = (0..48)
            .map(NodeId::from_index)
            .find(|id| pre.knows(*id))
            .unwrap();
        let flow = request_flow(&transcript, origin, &pre.gstring);
        let d = h.config().d;
        assert_eq!(flow.hop("Poll").unwrap().count, d);
        assert_eq!(flow.hop("Pull").unwrap().count, d);
        assert!(
            flow.hop("Fw1").unwrap().count > d,
            "routing fan-out missing"
        );
        assert!(flow.hop("Answer").unwrap().count >= h.config().majority());
        // Pipeline order: Poll at 0, Fw1 at 1, Fw2 at 2, Answer at 3.
        assert_eq!(flow.hop("Poll").unwrap().first_step, Some(0));
        assert_eq!(flow.hop("Fw1").unwrap().first_step, Some(1));
        assert_eq!(flow.hop("Fw2").unwrap().first_step, Some(2));
        assert_eq!(flow.hop("Answer").unwrap().first_step, Some(3));
        assert_eq!(flow.pipeline_depth(), Some(4));
    }

    #[test]
    fn poll_waves_stay_constant_in_fault_free_runs() {
        let (h, _, _) = traced_run();
        let mut counter = WaveCounter::default();
        let state = h.run_state();
        let node = |id| h.node_with(id, &state);
        let out = run_observed(&h.engine_sync(), 3, &mut NoAdversary, node, &mut counter);
        assert!(out.all_decided());
        // Step 0: every node polls its own candidate. Unknowing nodes
        // start a second wave when they accept gstring; stragglers may
        // add a repair wave — but the total stays O(1), nothing
        // like one wave per `poll_timeout` window.
        let waves = counter.waves;
        assert!((2..=4).contains(&waves), "retry waves regressed: {waves}");
    }
}
