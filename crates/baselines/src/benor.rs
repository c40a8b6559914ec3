//! Ben-Or-style randomized binary Byzantine Agreement (BO83).
//!
//! The classic `Θ(n²)`-messages-per-phase randomized agreement the
//! paper's Figure 1b lineage starts from ("Another advantage of free
//! choice"). Each phase has a report round and a proposal round; nodes
//! decide when more than `t` proposals back one value, and flip private
//! coins otherwise. Tolerates `t < n/5` under asynchrony; expected
//! constant phases when inputs are biased, exponential in the worst case
//! — which is precisely why three decades of follow-up work (including
//! this paper) exists.
//!
//! The implementation is event-driven (threshold-triggered), so it runs
//! unchanged on the synchronous and asynchronous engines.

use std::collections::{BTreeMap, BTreeSet};

use fba_sim::{all_nodes, Context, NodeId, Protocol, WireSize};
use rand::Rng;

/// Ben-Or protocol messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BenOrMsg {
    /// Phase-`p` report of the sender's current value.
    Report {
        /// Phase number.
        phase: u32,
        /// Current value.
        value: bool,
    },
    /// Phase-`p` proposal: `Some(v)` if the sender saw a super-majority
    /// of reports for `v`, `None` ("?") otherwise.
    Proposal {
        /// Phase number.
        phase: u32,
        /// The backed value, if any.
        value: Option<bool>,
    },
    /// Decision gossip for termination.
    Decided {
        /// The decided value.
        value: bool,
    },
}

impl WireSize for BenOrMsg {
    fn wire_bits(&self) -> u64 {
        match self {
            BenOrMsg::Report { .. } => 2 + 32 + 1,
            BenOrMsg::Proposal { .. } => 2 + 32 + 2,
            BenOrMsg::Decided { .. } => 2 + 1,
        }
    }
}

/// Parameters of a Ben-Or run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BenOrParams {
    /// Fault budget `t` (thresholds use `n − t`); must satisfy `t < n/5`.
    pub t: usize,
    /// Give-up bound on phases (the worst case is exponential).
    pub max_phases: u32,
}

impl BenOrParams {
    /// Defaults: `t = ⌊(n−1)/5⌋`, 64 phases.
    #[must_use]
    pub fn recommended(n: usize) -> Self {
        BenOrParams {
            t: (n.saturating_sub(1)) / 5,
            max_phases: 64,
        }
    }
}

#[derive(Clone, Debug)]
struct PhaseTally {
    report_senders: BTreeSet<NodeId>,
    report_ones: usize,
    reported: bool,
    proposal_senders: BTreeSet<NodeId>,
    proposals_for: [usize; 2],
    proposals_none: usize,
    advanced: bool,
}

impl PhaseTally {
    fn new() -> Self {
        PhaseTally {
            report_senders: BTreeSet::new(),
            report_ones: 0,
            reported: false,
            proposal_senders: BTreeSet::new(),
            proposals_for: [0, 0],
            proposals_none: 0,
            advanced: false,
        }
    }
}

/// One Ben-Or participant.
#[derive(Clone, Debug)]
pub struct BenOrNode {
    params: BenOrParams,
    n: usize,
    value: bool,
    phase: u32,
    tallies: BTreeMap<u32, PhaseTally>,
    decided: Option<bool>,
    decided_votes: [BTreeSet<NodeId>; 2],
    announced: bool,
}

impl BenOrNode {
    /// Creates the node with initial `value`.
    #[must_use]
    pub fn new(params: BenOrParams, n: usize, value: bool) -> Self {
        BenOrNode {
            params,
            n,
            value,
            phase: 0,
            tallies: BTreeMap::new(),
            decided: None,
            decided_votes: [BTreeSet::new(), BTreeSet::new()],
            announced: false,
        }
    }

    fn broadcast(&self, msg: BenOrMsg, ctx: &mut Context<'_, BenOrMsg>) {
        let everyone: Vec<NodeId> = all_nodes(self.n).collect();
        ctx.multicast(&everyone, msg);
    }

    fn quorum(&self) -> usize {
        self.n - self.params.t
    }

    fn super_majority(&self) -> usize {
        (self.n + self.params.t) / 2 + 1
    }

    fn maybe_propose(&mut self, phase: u32, ctx: &mut Context<'_, BenOrMsg>) {
        let quorum = self.quorum();
        let super_majority = self.super_majority();
        let tally = self.tallies.entry(phase).or_insert_with(PhaseTally::new);
        if tally.reported || tally.report_senders.len() < quorum {
            return;
        }
        tally.reported = true;
        let ones = tally.report_ones;
        let zeroes = tally.report_senders.len() - ones;
        let proposal = if ones >= super_majority {
            Some(true)
        } else if zeroes >= super_majority {
            Some(false)
        } else {
            None
        };
        let msg = BenOrMsg::Proposal {
            phase,
            value: proposal,
        };
        self.broadcast(msg, ctx);
    }

    fn maybe_advance(&mut self, phase: u32, ctx: &mut Context<'_, BenOrMsg>) {
        if self.decided.is_some() || phase != self.phase {
            return;
        }
        let quorum = self.quorum();
        let t = self.params.t;
        let tally = self.tallies.entry(phase).or_insert_with(PhaseTally::new);
        if tally.advanced || tally.proposal_senders.len() < quorum {
            return;
        }
        tally.advanced = true;
        let for_true = tally.proposals_for[1];
        let for_false = tally.proposals_for[0];

        if for_true > t {
            self.decide(true, ctx);
            return;
        }
        if for_false > t {
            self.decide(false, ctx);
            return;
        }
        self.value = if for_true > 0 {
            true
        } else if for_false > 0 {
            false
        } else {
            ctx.rng().gen()
        };
        self.phase += 1;
        if self.phase >= self.params.max_phases {
            return; // give up; reported as undecided
        }
        let msg = BenOrMsg::Report {
            phase: self.phase,
            value: self.value,
        };
        self.broadcast(msg, ctx);
        // Catch up on messages that raced ahead of our phase.
        self.maybe_propose(self.phase, ctx);
        self.maybe_advance(self.phase, ctx);
    }

    fn decide(&mut self, value: bool, ctx: &mut Context<'_, BenOrMsg>) {
        if self.decided.is_none() {
            self.decided = Some(value);
            if !self.announced {
                self.announced = true;
                self.broadcast(BenOrMsg::Decided { value }, ctx);
            }
        }
    }
}

impl Protocol for BenOrNode {
    type Msg = BenOrMsg;
    type Output = bool;

    fn on_start(&mut self, ctx: &mut Context<'_, BenOrMsg>) {
        let msg = BenOrMsg::Report {
            phase: 0,
            value: self.value,
        };
        self.broadcast(msg, ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: BenOrMsg, ctx: &mut Context<'_, BenOrMsg>) {
        match msg {
            BenOrMsg::Report { phase, value } => {
                let tally = self.tallies.entry(phase).or_insert_with(PhaseTally::new);
                if tally.report_senders.insert(from) && value {
                    tally.report_ones += 1;
                }
                self.maybe_propose(phase, ctx);
            }
            BenOrMsg::Proposal { phase, value } => {
                let tally = self.tallies.entry(phase).or_insert_with(PhaseTally::new);
                if tally.proposal_senders.insert(from) {
                    match value {
                        Some(v) => tally.proposals_for[usize::from(v)] += 1,
                        None => tally.proposals_none += 1,
                    }
                }
                self.maybe_advance(phase, ctx);
            }
            BenOrMsg::Decided { value } => {
                self.decided_votes[usize::from(value)].insert(from);
                if self.decided_votes[usize::from(value)].len() > self.params.t {
                    self.decide(value, ctx);
                }
            }
        }
    }

    fn output(&self) -> Option<bool> {
        self.decided
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fba_sim::{run, EngineConfig, NoAdversary, SilentAdversary};
    use rand::Rng;

    fn inputs(n: usize, ones_fraction: f64, seed: u64) -> Vec<bool> {
        let mut rng = fba_sim::rng::derive_rng(seed, &[0x1b]);
        (0..n)
            .map(|_| rng.gen_bool(ones_fraction.clamp(0.0, 1.0)))
            .collect()
    }

    fn engine(n: usize) -> EngineConfig {
        EngineConfig {
            max_steps: 600,
            ..EngineConfig::sync(n)
        }
    }

    #[test]
    fn unanimous_inputs_decide_immediately() {
        let n = 32;
        let params = BenOrParams::recommended(n);
        let out = run::<BenOrNode, _, _>(&engine(n), 1, &mut NoAdversary, |_| {
            BenOrNode::new(params, n, true)
        });
        assert!(out.all_decided());
        assert_eq!(out.unanimous(), Some(&true));
        assert!(out.all_decided_at.unwrap() <= 4);
    }

    #[test]
    fn biased_inputs_converge_to_the_majority() {
        let n = 40;
        let params = BenOrParams::recommended(n);
        let vals = inputs(n, 0.8, 2);
        let out = run::<BenOrNode, _, _>(&engine(n), 2, &mut NoAdversary, |id| {
            BenOrNode::new(params, n, vals[id.index()])
        });
        assert!(out.all_decided());
        assert_eq!(out.unanimous(), Some(&true));
    }

    #[test]
    fn validity_on_unanimous_zero() {
        let n = 32;
        let params = BenOrParams::recommended(n);
        let out = run::<BenOrNode, _, _>(&engine(n), 3, &mut NoAdversary, |_| {
            BenOrNode::new(params, n, false)
        });
        assert_eq!(out.unanimous(), Some(&false));
    }

    #[test]
    fn survives_silent_faults_within_budget() {
        let n = 40;
        let params = BenOrParams::recommended(n); // t = 7
        let vals = inputs(n, 0.85, 4);
        let mut adv = SilentAdversary::new(params.t);
        let out = run::<BenOrNode, _, _>(&engine(n), 4, &mut adv, |id| {
            BenOrNode::new(params, n, vals[id.index()])
        });
        assert!(out.all_decided(), "undecided under silent faults");
        assert!(out.unanimous().is_some(), "agreement violated");
    }

    #[test]
    fn quadratic_message_complexity() {
        let mut totals = Vec::new();
        for n in [16usize, 64] {
            let params = BenOrParams::recommended(n);
            let out = run::<BenOrNode, _, _>(&engine(n), 5, &mut NoAdversary, |_| {
                BenOrNode::new(params, n, true)
            });
            totals.push(out.metrics.correct_msgs_sent() as f64);
        }
        let growth = totals[1] / totals[0];
        assert!(
            growth > 10.0,
            "×4 nodes should give ≈×16 messages, got ×{growth:.1}"
        );
    }
}
