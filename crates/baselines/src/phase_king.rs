//! Phase-King deterministic binary Byzantine Agreement (Berman–Garay–
//! Perry style, `n > 4t`).
//!
//! The deterministic counterpoint for Figure 1b: `t + 1` phases (so
//! `Θ(n)` time — the Fischer–Lynch lower bound made concrete) and `Θ(n²)`
//! messages per phase. Each phase has a universal-exchange round and a
//! king round; a phase whose king is correct aligns everyone, and
//! persistence keeps it that way.

use std::collections::BTreeSet;

use fba_sim::{all_nodes, Context, NodeId, Protocol, Step, WireSize};

/// Phase-King messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KingMsg {
    /// Universal exchange of the sender's current value for a phase.
    Value {
        /// Phase number.
        phase: u32,
        /// Sender's current value.
        value: bool,
    },
    /// The king's tie-breaker for a phase.
    King {
        /// Phase number.
        phase: u32,
        /// The king's value.
        value: bool,
    },
}

impl WireSize for KingMsg {
    fn wire_bits(&self) -> u64 {
        1 + 32 + 1
    }
}

/// Parameters: fault budget and derived phase count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KingParams {
    /// Fault budget; requires `n > 4t`.
    pub t: usize,
}

impl KingParams {
    /// Largest budget the protocol tolerates: `t = ⌈n/4⌉ − 1`.
    #[must_use]
    pub fn recommended(n: usize) -> Self {
        KingParams {
            t: (n.div_ceil(4)).saturating_sub(1),
        }
    }

    /// Number of phases (`t + 1`; one per candidate king).
    #[must_use]
    pub fn phases(&self) -> u32 {
        self.t as u32 + 1
    }

    /// Steps consumed: each phase is two exchange steps plus two king
    /// steps.
    #[must_use]
    pub fn schedule_len(&self) -> Step {
        4 * Step::from(self.phases())
    }
}

/// One Phase-King participant.
#[derive(Clone, Debug)]
pub struct KingNode {
    params: KingParams,
    n: usize,
    value: bool,
    ones: BTreeSet<NodeId>,
    zeroes: BTreeSet<NodeId>,
    king_value: Option<bool>,
    output: Option<bool>,
}

impl KingNode {
    /// Creates the node with initial `value`.
    #[must_use]
    pub fn new(params: KingParams, n: usize, value: bool) -> Self {
        KingNode {
            params,
            n,
            value,
            ones: BTreeSet::new(),
            zeroes: BTreeSet::new(),
            king_value: None,
            output: None,
        }
    }

    fn broadcast_value(&mut self, phase: u32, ctx: &mut Context<'_, KingMsg>) {
        self.ones.clear();
        self.zeroes.clear();
        self.king_value = None;
        let msg = KingMsg::Value {
            phase,
            value: self.value,
        };
        self.broadcast(msg, ctx);
    }

    fn broadcast(&self, msg: KingMsg, ctx: &mut Context<'_, KingMsg>) {
        let everyone: Vec<NodeId> = all_nodes(self.n).collect();
        ctx.multicast(&everyone, msg);
    }
}

impl Protocol for KingNode {
    type Msg = KingMsg;
    type Output = bool;

    fn on_start(&mut self, ctx: &mut Context<'_, KingMsg>) {
        self.broadcast_value(0, ctx);
    }

    fn on_step(&mut self, ctx: &mut Context<'_, KingMsg>) {
        let step = ctx.step();
        if self.output.is_some() || step % 2 != 0 || step == 0 {
            return;
        }
        let slot = step / 2; // two steps per slot: send + deliver
        let phase = (slot / 2) as u32;
        let in_king_slot = slot % 2 == 1;
        let t = self.params.t;
        if in_king_slot {
            // Exchange results are in; the king speaks.
            let king = NodeId::from_index(phase as usize % self.n);
            let ones = self.ones.len();
            let zeroes = self.zeroes.len();
            let majority_value = ones >= zeroes;
            let weight = ones.max(zeroes);
            self.value = majority_value;
            // Strong majorities stick regardless of the king.
            let strong = weight >= self.n - t;
            if ctx.id() == king {
                let value = majority_value;
                self.broadcast(KingMsg::King { phase, value }, ctx);
            }
            // Stash whether we must defer to the king at the next slot.
            self.king_value = if strong { Some(self.value) } else { None };
        } else if phase > 0 {
            // King round of phase-1 done: adopt king's value if weak,
            // then either start the next phase or terminate.
            let prev_phase = phase - 1;
            if let Some(own) = self.king_value {
                self.value = own; // strong majority persists
            }
            // (weak nodes adopted the king's value in on_message)
            if prev_phase + 1 >= self.params.phases() {
                self.output = Some(self.value);
            } else {
                self.broadcast_value(phase, ctx);
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: KingMsg, _ctx: &mut Context<'_, KingMsg>) {
        match msg {
            KingMsg::Value { value, .. } => {
                if value {
                    self.ones.insert(from);
                    self.zeroes.remove(&from);
                } else {
                    self.zeroes.insert(from);
                    self.ones.remove(&from);
                }
            }
            KingMsg::King { phase, value } => {
                // Only the phase's designated king is listened to.
                if from == NodeId::from_index(phase as usize % self.n) && self.king_value.is_none()
                {
                    self.value = value;
                }
            }
        }
    }

    fn output(&self) -> Option<bool> {
        self.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fba_sim::{run, EngineConfig, NoAdversary, SilentAdversary};
    use rand::Rng;

    fn engine(n: usize, params: &KingParams) -> EngineConfig {
        EngineConfig {
            max_steps: params.schedule_len() + 8,
            ..EngineConfig::sync(n)
        }
    }

    #[test]
    fn agreement_and_validity_fault_free() {
        let n = 24;
        let params = KingParams::recommended(n);
        for unanimous in [true, false] {
            let out = run::<KingNode, _, _>(&engine(n, &params), 1, &mut NoAdversary, |_| {
                KingNode::new(params, n, unanimous)
            });
            assert!(out.all_decided());
            assert_eq!(out.unanimous(), Some(&unanimous), "validity violated");
        }
    }

    #[test]
    fn mixed_inputs_still_agree() {
        let n = 24;
        let params = KingParams::recommended(n);
        let mut rng = fba_sim::rng::derive_rng(2, &[]);
        let vals: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
        let out = run::<KingNode, _, _>(&engine(n, &params), 2, &mut NoAdversary, |id| {
            KingNode::new(params, n, vals[id.index()])
        });
        assert!(out.all_decided());
        assert!(out.unanimous().is_some(), "agreement violated");
    }

    #[test]
    fn tolerates_silent_faults() {
        let n = 25;
        let params = KingParams::recommended(n); // t = 6
        let mut adv = SilentAdversary::new(params.t);
        let out = run::<KingNode, _, _>(&engine(n, &params), 3, &mut adv, |id| {
            KingNode::new(params, n, id.index() % 2 == 0)
        });
        assert!(out.all_decided());
        assert!(out.unanimous().is_some());
    }

    #[test]
    fn time_grows_linearly_with_n() {
        let small = KingParams::recommended(16).schedule_len();
        let large = KingParams::recommended(64).schedule_len();
        assert!(
            large >= 3 * small,
            "t+1 phases must scale linearly: {small} vs {large}"
        );
    }
}
