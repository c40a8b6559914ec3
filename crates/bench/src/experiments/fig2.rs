//! Figure 2 reproduction: the push and pull phase mechanics, as data.
//!
//! Figure 2a shows a node accepting candidate `s₁` (majority of its push
//! quorum pushed it) and rejecting `s₂`; Figure 2b shows one pull request
//! flowing through `H(s, x)`, the `H(s, w)` quorums and the poll list
//! `J(x, r)`. These experiments regenerate both as measured tables —
//! single-cell batteries (one fixed-seed recorded run each) whose rows
//! dissect the transcript rather than aggregate a sweep.

use fba_ae::UnknowingAssignment;
use fba_core::trace::{push_votes_at, request_flow, HopSummary};
use fba_sim::NodeId;

use crate::battery::{Agg, Battery, Report, SeedPolicy};
use crate::experiments::common::{aer_scenario, KNOWING};
use crate::scope::Scope;
use crate::table::fnum;

/// The two strings a witness of the recorded f2a run tallies votes for.
const STRINGS: [&str; 2] = ["s1 = gstring", "s2 (shared bogus)"];

/// The f2a cell: per witness, the valid pushes for each of [`STRINGS`],
/// plus the run parameters the table and notes read.
struct F2aCell {
    tallies: Vec<(NodeId, [usize; 2])>,
    majority: usize,
    d: usize,
}

impl F2aCell {
    /// Witnesses at which string `which` of [`STRINGS`] crossed the majority.
    fn accepted(&self, which: usize) -> Option<f64> {
        let votes = self.tallies.iter().map(|(_, votes)| votes[which]);
        Some(votes.filter(|&v| v >= self.majority).count() as f64)
    }
}

/// Figure 2a: push-quorum vote counts and verdicts at unknowing nodes.
#[must_use]
pub fn f2a(scope: Scope) -> Report {
    let n = match scope {
        Scope::Quick => 48,
        _ => 96,
    };
    let battery = Battery::new(
        "f2a",
        "f2a — Fig. 2a: push-phase votes at sample unknowing nodes",
        move |&(): &(), seed| {
            let out = aer_scenario(n, 0.75, UnknowingAssignment::SharedAdversarial)
                .record_transcript(true)
                .run(seed)
                .expect("f2a scenario")
                .into_aer();
            let pre = &out.precondition;
            let scheme = out.config.scheme();
            let bogus = pre
                .assignments
                .iter()
                .find(|s| **s != pre.gstring)
                .expect("bogus block exists");
            let tallies = (0..n)
                .map(NodeId::from_index)
                .filter(|id| !pre.knows(*id))
                .take(3)
                .map(|x| {
                    let votes = push_votes_at(&out.run.transcript, x, &scheme);
                    (x, [&pre.gstring, bogus].map(|s| votes.votes_for(s)))
                })
                .collect();
            F2aCell {
                tallies,
                majority: out.config.majority(),
                d: out.config.d,
            }
        },
    )
    .points(vec![()])
    .seeds(SeedPolicy::Fixed(vec![7]))
    .rows(
        &["node", "string", "valid pushes", "needed", "verdict"],
        |ctx| {
            let cell = &ctx.outcomes()[0];
            let mut rows = Vec::new();
            for (witness, votes) in &cell.tallies {
                for (label, count) in STRINGS.into_iter().zip(*votes) {
                    rows.push(vec![
                        witness.to_string(),
                        label.into(),
                        count.to_string(),
                        cell.majority.to_string(),
                        if count >= cell.majority {
                            "accepted".into()
                        } else {
                            "rejected".into()
                        },
                    ]);
                }
            }
            rows
        },
    )
    .json_metric("witnesses", Agg::Mean, |o: &F2aCell| {
        Some(o.tallies.len() as f64)
    })
    .json_metric("gstring accepted witnesses", Agg::Mean, |o: &F2aCell| {
        o.accepted(0)
    })
    .json_metric("bogus accepted witnesses", Agg::Mean, |o: &F2aCell| {
        o.accepted(1)
    });
    let grid = battery.grid(scope);
    let mut report = battery.report_from(&grid);
    let cell = grid.single();
    report.table.note(format!(
        "n = {n}, d = {}, 75% know gstring, 25% share one bogus candidate.",
        cell.d
    ));
    report
        .table
        .note("gstring crosses the majority at (nearly) every witness; the bogus block does not.");
    report
}

/// The hops of one pull request, in pipeline order.
const HOPS: [&str; 5] = ["Poll", "Pull", "Fw1", "Fw2", "Answer"];

/// The f2b cell: the summary of each of [`HOPS`] for one pull request,
/// plus the run parameters the table and notes read.
struct F2bCell {
    hops: [HopSummary; 5],
    pipeline_depth: Option<u64>,
    requester: NodeId,
    decided_at: Option<u64>,
    d: usize,
}

/// Figure 2b: message counts per hop for one node's gstring verification.
#[must_use]
pub fn f2b(scope: Scope) -> Report {
    let n = match scope {
        Scope::Quick => 48,
        _ => 96,
    };
    let battery = Battery::new(
        "f2b",
        "f2b — Fig. 2b: one pull request for gstring, hop by hop",
        move |&(): &(), seed| {
            let out = aer_scenario(n, KNOWING, UnknowingAssignment::RandomPerNode)
                .record_transcript(true)
                .run(seed)
                .expect("f2b scenario")
                .into_aer();
            let pre = &out.precondition;
            let x = (0..n)
                .map(NodeId::from_index)
                .find(|id| pre.knows(*id))
                .expect("a knowing node exists");
            let flow = request_flow(&out.run.transcript, x, &pre.gstring);
            F2bCell {
                hops: HOPS.map(|kind| flow.hop(kind).expect("hop present").clone()),
                pipeline_depth: flow.pipeline_depth(),
                requester: x,
                decided_at: out.run.metrics.decided_at(x),
                d: out.config.d,
            }
        },
    )
    .points(vec![()])
    .seeds(SeedPolicy::Fixed(vec![9]))
    .rows(
        &["hop", "message", "count", "first step", "ref (d, d², d³)"],
        |ctx| {
            let cell = &ctx.outcomes()[0];
            let d = cell.d as f64;
            let labels: [(&str, f64); 5] = [
                ("Poll(s,r) → J(x,r)", d),
                ("Pull(s,r) → H(s,x)", d),
                ("Fw1 → H(s,w) ∀w", d * d * d),
                ("Fw2 → w", d * d),
                ("Answer → x", d),
            ];
            cell.hops
                .iter()
                .zip(labels)
                .enumerate()
                .map(|(i, (hop, (label, reference)))| {
                    vec![
                        (i + 1).min(4).to_string(),
                        label.into(),
                        hop.count.to_string(),
                        hop.first_step.map_or("-".to_string(), |s| s.to_string()),
                        fnum(reference),
                    ]
                })
                .collect()
        },
    )
    .json_metric("fw1 count", Agg::Mean, |o: &F2bCell| {
        Some(o.hops[2].count as f64)
    })
    .json_metric("answer count", Agg::Mean, |o: &F2bCell| {
        Some(o.hops[4].count as f64)
    })
    .json_metric("pipeline depth", Agg::Mean, |o: &F2bCell| {
        o.pipeline_depth.map(|s| s as f64)
    });
    let grid = battery.grid(scope);
    let mut report = battery.report_from(&grid);
    let cell = grid.single();
    report.table.note(format!(
        "requester {}, n = {n}, d = {}; decision at step {}; pipeline depth {}.",
        cell.requester,
        cell.d,
        cell.decided_at.map_or("-".to_string(), |s| s.to_string()),
        cell.pipeline_depth
            .map_or("-".to_string(), |s| s.to_string()),
    ));
    report
        .table
        .note("counts track the d/d³/d²/d fan-out of Algorithms 1–3 (routers forward only if");
    report
        .table
        .note("the string matches their belief, so Fw1 ≈ knowing-fraction × d³).");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f2a_rows_accept_gstring_and_reject_bogus() {
        let t = f2a(Scope::Quick).table;
        assert!(!t.rows.is_empty());
        let mut g_accepted = 0;
        let mut g_total = 0;
        for row in &t.rows {
            if row[1].contains("gstring") {
                g_total += 1;
                if row[4] == "accepted" {
                    g_accepted += 1;
                }
            } else {
                assert_eq!(row[4], "rejected", "bogus block accepted: {row:?}");
            }
        }
        assert!(
            g_accepted * 3 >= g_total * 2,
            "gstring accepted at only {g_accepted}/{g_total} witnesses"
        );
    }

    #[test]
    fn f2b_counts_every_hop() {
        let t = f2b(Scope::Quick).table;
        assert_eq!(t.rows.len(), 5);
        // The Fw1 wave must dominate.
        let fw1: usize = t.rows[2][2].parse().unwrap();
        let answers: usize = t.rows[4][2].parse().unwrap();
        assert!(fw1 > answers, "Fw1 {fw1} vs answers {answers}");
        assert!(answers >= 1);
    }
}
