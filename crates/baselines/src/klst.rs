//! KLST11-style load-balanced almost-everywhere → everywhere baseline.
//!
//! Reproduces the complexity *shape* of the [KLST11] row of Figure 1a —
//! `O(log² n)` rounds, `Õ(√n)` bits per node, load-balanced — as a
//! sample-majority diffusion: the protocol runs `⌈log₂ n⌉²` query rounds;
//! in each round every node pulls the current candidate of a few uniform
//! random peers (sized so the whole run transfers `Θ(√n · log n)` strings
//! per node) and adopts the majority of what it saw in that round.
//!
//! This is *not* a line-by-line port of KLST11 (whose machinery exists to
//! survive full-information adversaries without private channels); it is
//! the comparison baseline for the table rows.

use std::collections::BTreeMap;

use fba_samplers::GString;
use fba_sim::{ceil_log2, Context, NodeId, Protocol, Step, WireSize};
use rand::Rng;

/// Messages of the sample-majority diffusion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KlstMsg {
    /// "What is your current candidate?"
    Query,
    /// The sender's current candidate.
    Reply(GString),
}

impl WireSize for KlstMsg {
    fn wire_bits(&self) -> u64 {
        match self {
            KlstMsg::Query => 1,
            KlstMsg::Reply(s) => 1 + s.wire_bits(),
        }
    }
}

/// Parameters of the baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KlstParams {
    /// Query rounds (`⌈log₂ n⌉²`).
    pub rounds: u32,
    /// Peers queried per round (`⌈√n / log₂ n⌉`, so the total sample is
    /// `Θ(√n · log n)` strings).
    pub queries_per_round: usize,
}

impl KlstParams {
    /// The Figure 1a shape for system size `n`.
    #[must_use]
    pub fn recommended(n: usize) -> Self {
        let log = ceil_log2(n).max(1);
        let rounds = (log * log).max(1);
        let queries = ((n as f64).sqrt() / f64::from(log)).ceil() as usize;
        KlstParams {
            rounds,
            queries_per_round: queries.max(1),
        }
    }

    /// Steps consumed: one query round takes two steps (query out,
    /// replies back); the decision fires when the last round's replies
    /// are in.
    #[must_use]
    pub fn schedule_len(&self) -> Step {
        2 * Step::from(self.rounds)
    }
}

/// One participant of the sample-majority diffusion.
///
/// Replies always serve the node's *original* candidate; votes accumulate
/// across all rounds and one final majority decides. (Adopting per-round
/// sample majorities would turn the run into a voter-model martingale
/// that can drift away from the initial majority.)
#[derive(Clone, Debug)]
pub struct KlstNode {
    params: KlstParams,
    current: GString,
    votes: BTreeMap<GString, usize>,
    output: Option<GString>,
}

impl KlstNode {
    /// Creates the node with its initial candidate.
    #[must_use]
    pub fn new(params: KlstParams, own: GString) -> Self {
        let mut votes = BTreeMap::new();
        votes.insert(own, 1);
        KlstNode {
            params,
            current: own,
            votes,
            output: None,
        }
    }

    fn send_queries(&mut self, ctx: &mut Context<'_, KlstMsg>) {
        let n = ctx.n();
        let me = ctx.id();
        let mut queried = Vec::with_capacity(self.params.queries_per_round);
        for _ in 0..self.params.queries_per_round {
            let mut to = me;
            while to == me {
                to = NodeId::from_index(ctx.rng().gen_range(0..n));
            }
            queried.push(to);
        }
        ctx.multicast(&queried, KlstMsg::Query);
    }
}

impl Protocol for KlstNode {
    type Msg = KlstMsg;
    type Output = GString;

    fn on_start(&mut self, ctx: &mut Context<'_, KlstMsg>) {
        self.send_queries(ctx);
    }

    fn on_step(&mut self, ctx: &mut Context<'_, KlstMsg>) {
        let step = ctx.step();
        if step % 2 != 0 {
            return; // odd steps carry replies
        }
        let round = step / 2;
        if round < Step::from(self.params.rounds) {
            self.send_queries(ctx);
        } else if self.output.is_none() {
            let winner = self
                .votes
                .iter()
                .max_by_key(|(_, &count)| count)
                .map(|(value, _)| *value)
                .expect("own vote always present");
            self.output = Some(winner);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: KlstMsg, ctx: &mut Context<'_, KlstMsg>) {
        match msg {
            KlstMsg::Query => ctx.send(from, KlstMsg::Reply(self.current)),
            KlstMsg::Reply(s) => {
                *self.votes.entry(s).or_default() += 1;
            }
        }
    }

    fn output(&self) -> Option<GString> {
        self.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fba_ae::{Precondition, UnknowingAssignment};
    use fba_sim::{run, EngineConfig, NoAdversary, SilentAdversary};

    fn engine(n: usize, params: &KlstParams) -> EngineConfig {
        EngineConfig {
            max_steps: params.schedule_len() + 4,
            ..EngineConfig::sync(n)
        }
    }

    #[test]
    fn params_follow_the_table_row() {
        let p = KlstParams::recommended(1024);
        assert_eq!(p.rounds, 100, "log²(1024) = 100 rounds");
        assert_eq!(p.queries_per_round, 4, "⌈32/10⌉ wait: ⌈32/10⌉ = 4");
        let small = KlstParams::recommended(64);
        assert!(p.schedule_len() > small.schedule_len());
    }

    #[test]
    fn diffusion_reaches_everyone() {
        let n = 128;
        let pre = Precondition::synthetic(n, 32, 0.75, UnknowingAssignment::RandomPerNode, 4);
        let params = KlstParams::recommended(n);
        let out = run::<KlstNode, _, _>(&engine(n, &params), 4, &mut NoAdversary, |id| {
            KlstNode::new(params, pre.assignments[id.index()])
        });
        assert!(out.all_decided());
        assert_eq!(out.unanimous(), Some(&pre.gstring));
        assert_eq!(out.all_decided_at, Some(params.schedule_len()));
    }

    #[test]
    fn diffusion_survives_silent_faults() {
        let n = 128;
        let pre = Precondition::synthetic(n, 32, 0.8, UnknowingAssignment::SharedAdversarial, 5);
        let params = KlstParams::recommended(n);
        let mut adv = SilentAdversary::new(16);
        let out = run::<KlstNode, _, _>(&engine(n, &params), 5, &mut adv, |id| {
            KlstNode::new(params, pre.assignments[id.index()])
        });
        assert!(out.all_decided());
        assert_eq!(out.unanimous(), Some(&pre.gstring));
    }

    #[test]
    fn load_is_balanced() {
        let n = 256;
        let pre = Precondition::synthetic(n, 32, 0.75, UnknowingAssignment::RandomPerNode, 6);
        let params = KlstParams::recommended(n);
        let out = run::<KlstNode, _, _>(&engine(n, &params), 6, &mut NoAdversary, |id| {
            KlstNode::new(params, pre.assignments[id.index()])
        });
        let load = out.metrics.recv_load();
        assert!(
            load.imbalance < 2.0,
            "max/mean received bits should be near 1, got {:.2}",
            load.imbalance
        );
    }

    #[test]
    fn bits_per_node_grow_like_sqrt_n() {
        let mut per_node = Vec::new();
        for n in [64usize, 1024] {
            let pre = Precondition::synthetic(n, 32, 0.75, UnknowingAssignment::RandomPerNode, 7);
            let params = KlstParams::recommended(n);
            let out = run::<KlstNode, _, _>(&engine(n, &params), 7, &mut NoAdversary, |id| {
                KlstNode::new(params, pre.assignments[id.index()])
            });
            per_node.push(out.metrics.amortized_bits());
        }
        let growth = per_node[1] / per_node[0];
        // √(1024/64) = 4; allow polylog slack around it.
        assert!(
            growth > 2.0 && growth < 12.0,
            "expected ≈√n growth, got ×{growth:.2}"
        );
    }
}
