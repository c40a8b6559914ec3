//! Figure 2 reproduction: trace the push and pull phases of AER on a
//! small system, showing (a) a node accepting one candidate and rejecting
//! another, and (b) a pull request travelling Poll/Pull → Fw1 → Fw2 →
//! Answer → decision.
//!
//! **Paper claim exercised:** Figure 2 and Algorithms 1–3 — the push
//! phase's sampler-filtered vote counting (2a) and the two-hop filtered
//! verification pipeline (2b), extracted from the transcript a
//! [`TranscriptSink`] observer collects while the scenario runs; 2a is
//! `fba::core::trace::push_votes_at`, the node's own filter. See the
//! README's example index.
//!
//! ```bash
//! cargo run --release --example push_pull_trace
//! ```

use fba::ae::UnknowingAssignment;
use fba::core::trace::push_votes_at;
use fba::core::AerMsg;
use fba::samplers::GString;
use fba::scenario::{Phase, Scenario};
use fba::sim::{NodeId, TranscriptSink};

fn main() {
    let n = 48;
    let seed = 7;
    // A third of the nodes hold a *shared* bogus string s2, so push
    // quorums see competing candidates — the Figure 2a situation. The
    // transcript is captured by a read-only observer riding the run.
    let mut sink = TranscriptSink::<AerMsg>::new();
    let outcome = Scenario::new(n)
        .phase(Phase::aer_with(
            0.66,
            UnknowingAssignment::SharedAdversarial,
        ))
        .run_observed(seed, &mut sink)
        .expect("valid scenario")
        .into_aer();
    let transcript = &sink.transcript;
    let cfg = &outcome.config;
    let pre = &outcome.precondition;

    let g = &pre.gstring;
    let s2 = pre
        .assignments
        .iter()
        .find(|s| *s != g)
        .expect("a bogus candidate exists");

    // ---- Figure 2a: push phase at one node -------------------------------
    // Pick an unknowing node x and count the pushes it received per
    // string, from legitimate quorum members only, as x does.
    let x = (0..n)
        .map(NodeId::from_index)
        .find(|id| !pre.knows(*id))
        .expect("an unknowing node exists");
    let votes = push_votes_at(transcript, x, &cfg.scheme());
    println!("== Figure 2a: push phase at node {x} ==");
    println!(
        "   quorum size d = {}, acceptance needs > d/2 = {}",
        cfg.d,
        cfg.majority()
    );
    for (label, s) in [("s1 = gstring", g), ("s2 (bogus)", s2)] {
        let count = votes.votes_for(s);
        let verdict = if count >= cfg.majority() {
            "ACCEPTED"
        } else {
            "rejected"
        };
        println!("   {label}: {count} valid pushes -> {verdict}");
    }

    // ---- Figure 2b: one pull request hop by hop ---------------------------
    println!("\n== Figure 2b: pull request from node {x} for gstring ==");
    let interesting = |s: &GString| s == g;
    let mut shown = 0;
    for env in transcript {
        let (tag, s) = match &env.msg {
            AerMsg::Poll(s, _) if env.from == x => ("Poll  ", s),
            AerMsg::Pull(s, _) if env.from == x => ("Pull  ", s),
            AerMsg::Fw1 { origin, s, .. } if *origin == x => ("Fw1   ", s),
            AerMsg::Fw2 { origin, s, .. } if *origin == x => ("Fw2   ", s),
            AerMsg::Answer(s) if env.to == x => ("Answer", s),
            _ => continue,
        };
        if !interesting(s) {
            continue;
        }
        shown += 1;
        if shown <= 30 {
            println!("   step {}: {tag} {} -> {}", env.sent_at, env.from, env.to);
        }
    }
    println!("   … {shown} messages in total served this one verification");
    println!(
        "\nnode {x} decided at step {} on {}",
        outcome.run.metrics.decided_at(x).expect("x decided"),
        if outcome.run.outputs[&x] == *g {
            "gstring"
        } else {
            "a bogus string!"
        },
    );
    assert_eq!(outcome.run.outputs[&x], *g);
}
