//! Flooding almost-everywhere → everywhere baseline.
//!
//! The brute-force solution §2.2 implicitly argues against: every node
//! broadcasts its candidate to everyone and adopts the majority. Constant
//! time, but `Θ(n)` bits per node — the row that makes AER's `O(log² n)`
//! meaningful in the Figure 1a comparison.

use std::collections::BTreeMap;

use fba_samplers::GString;
use fba_sim::{all_nodes, Context, NodeId, Protocol};

/// Flooding diffusion message: the sender's candidate.
pub type FloodMsg = GString;

/// One flooding participant.
#[derive(Clone, Debug)]
pub struct FloodNode {
    own: GString,
    votes: BTreeMap<GString, usize>,
    output: Option<GString>,
}

impl FloodNode {
    /// Creates the node with its initial candidate.
    #[must_use]
    pub fn new(own: GString) -> Self {
        let mut votes = BTreeMap::new();
        votes.insert(own, 1);
        FloodNode {
            own,
            votes,
            output: None,
        }
    }
}

impl Protocol for FloodNode {
    type Msg = FloodMsg;
    type Output = GString;

    fn on_start(&mut self, ctx: &mut Context<'_, FloodMsg>) {
        let n = ctx.n();
        let me = ctx.id();
        let others: Vec<NodeId> = all_nodes(n).filter(|&to| to != me).collect();
        ctx.multicast(&others, self.own);
    }

    fn on_step(&mut self, ctx: &mut Context<'_, FloodMsg>) {
        // All broadcasts arrive during step 1; decide at step 2.
        if ctx.step() == 2 && self.output.is_none() {
            let winner = self
                .votes
                .iter()
                .max_by_key(|(_, &count)| count)
                .map(|(value, _)| *value)
                .expect("own vote always present");
            self.output = Some(winner);
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: FloodMsg, _ctx: &mut Context<'_, FloodMsg>) {
        *self.votes.entry(msg).or_default() += 1;
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

    fn pre(n: usize, knowing: f64, seed: u64) -> Precondition {
        Precondition::synthetic(n, 32, knowing, UnknowingAssignment::RandomPerNode, seed)
    }

    #[test]
    fn flooding_converges_in_two_steps() {
        let n = 64;
        let p = pre(n, 0.7, 1);
        let cfg = EngineConfig::sync(n);
        let out = run::<FloodNode, _, _>(&cfg, 1, &mut NoAdversary, |id| {
            FloodNode::new(p.assignments[id.index()])
        });
        assert_eq!(out.all_decided_at, Some(2));
        assert_eq!(out.unanimous(), Some(&p.gstring));
    }

    #[test]
    fn flooding_costs_linear_bits_per_node() {
        let mut per_node = Vec::new();
        for n in [32usize, 128] {
            let p = pre(n, 0.7, 2);
            let cfg = EngineConfig::sync(n);
            let out = run::<FloodNode, _, _>(&cfg, 2, &mut NoAdversary, |id| {
                FloodNode::new(p.assignments[id.index()])
            });
            per_node.push(out.metrics.amortized_bits());
        }
        let growth = per_node[1] / per_node[0];
        assert!(
            growth > 3.0,
            "×4 nodes should give ≈×4 bits/node, got ×{growth:.2}"
        );
    }

    #[test]
    fn flooding_tolerates_silent_minority() {
        let n = 64;
        let p = pre(n, 0.8, 3);
        let cfg = EngineConfig::sync(n);
        let mut adv = SilentAdversary::new(10);
        let out = run::<FloodNode, _, _>(&cfg, 3, &mut adv, |id| {
            FloodNode::new(p.assignments[id.index()])
        });
        assert!(out.all_decided());
        assert_eq!(out.unanimous(), Some(&p.gstring));
    }
}
