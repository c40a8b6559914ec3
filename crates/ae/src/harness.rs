//! Running the almost-everywhere phase and distilling its outcome.

use std::collections::{BTreeMap, BTreeSet};

use fba_samplers::GString;
use fba_sim::{run_observed, Adversary, EngineConfig, FinalInspect, NodeId, RunOutcome};

use crate::precondition::Precondition;
use crate::protocol::{AeConfig, AeMsg, AeNode};

/// Distilled result of an almost-everywhere run: the majority string, who
/// knows it, and the raw run outcome for metric extraction.
#[derive(Clone, Debug)]
pub struct AeOutcome {
    /// The string held by the plurality of correct nodes.
    pub gstring: GString,
    /// Correct nodes holding `gstring`.
    pub knowing: BTreeSet<NodeId>,
    /// Fraction of *correct* nodes holding `gstring`.
    pub knowing_fraction: f64,
    /// The supreme committee, as agreed by the plurality of nodes that
    /// completed the tournament (used by the entropy experiment to
    /// attribute gstring bit slices to members).
    pub supreme_committee: Option<Vec<NodeId>>,
    /// The underlying simulator outcome.
    pub run: RunOutcome<GString, AeMsg>,
}

impl AeOutcome {
    /// Converts the outcome into the [`Precondition`] AER consumes:
    /// every node's output becomes its initial AER candidate.
    ///
    /// Corrupt nodes (which produced no output) are assigned the all-zero
    /// default — the AER adversary overrides their behaviour anyway.
    #[must_use]
    pub fn to_precondition(&self, n: usize, string_len: usize) -> Precondition {
        let assignments: Vec<GString> = (0..n)
            .map(|i| {
                self.run
                    .outputs
                    .get(&NodeId::from_index(i))
                    .cloned()
                    .unwrap_or_else(|| GString::zeroes(string_len))
            })
            .collect();
        Precondition {
            gstring: self.gstring,
            assignments,
            knowing: self.knowing.clone(),
        }
    }
}

/// Default engine configuration for the almost-everywhere phase.
#[must_use]
pub fn ae_engine(cfg: &AeConfig) -> EngineConfig {
    EngineConfig {
        max_steps: cfg.schedule_len() + 4,
        ..EngineConfig::sync(cfg.n)
    }
}

/// Runs the almost-everywhere phase under `adversary` and distils the
/// outcome.
///
/// # Panics
///
/// Panics if no correct node produced an output (the schedule guarantees
/// outputs, so this indicates an engine misconfiguration).
pub fn run_ae<A>(cfg: &AeConfig, seed: u64, adversary: &mut A) -> AeOutcome
where
    A: Adversary<AeMsg> + ?Sized,
{
    run_ae_with(cfg, seed, adversary, &BTreeSet::new(), 0)
}

/// Like [`run_ae`], but the nodes in `rigged` contribute the constant
/// `rigged_value` instead of private randomness — semi-honest committee
/// members biasing the bits they control. Used by the gstring-entropy
/// experiment validating the "`2/3 + ε` of gstring's bits are uniformly
/// random" precondition structure.
///
/// # Panics
///
/// Panics if no correct node produced an output.
pub fn run_ae_with<A>(
    cfg: &AeConfig,
    seed: u64,
    adversary: &mut A,
    rigged: &BTreeSet<NodeId>,
    rigged_value: u64,
) -> AeOutcome
where
    A: Adversary<AeMsg> + ?Sized,
{
    let engine = ae_engine(cfg);
    let mut committees: BTreeMap<Vec<NodeId>, usize> = BTreeMap::new();
    let run = run_observed::<AeNode, A, _, _>(
        &engine,
        seed,
        adversary,
        |id| {
            if rigged.contains(&id) {
                AeNode::new_rigged(*cfg, id, rigged_value)
            } else {
                AeNode::new(*cfg, id)
            }
        },
        &mut FinalInspect(|_, node: &AeNode| {
            if let Some(c) = node.supreme_committee() {
                *committees.entry(c).or_default() += 1;
            }
        }),
    );
    let supreme_committee = committees
        .into_iter()
        .max_by_key(|&(_, count)| count)
        .map(|(c, _)| c);
    let mut votes: BTreeMap<GString, usize> = BTreeMap::new();
    for value in run.outputs.values() {
        *votes.entry(*value).or_default() += 1;
    }
    let gstring = votes
        .into_iter()
        .max_by_key(|&(_, count)| count)
        .map(|(value, _)| value)
        .expect("at least one correct node must produce an output");
    let knowing: BTreeSet<NodeId> = run
        .outputs
        .iter()
        .filter(|(_, v)| **v == gstring)
        .map(|(id, _)| *id)
        .collect();
    let correct = run.outputs.len().max(1);
    AeOutcome {
        knowing_fraction: knowing.len() as f64 / correct as f64,
        gstring,
        knowing,
        supreme_committee,
        run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fba_sim::{NoAdversary, SilentAdversary};

    #[test]
    fn fault_free_outcome_knows_everywhere() {
        let cfg = AeConfig::recommended(64);
        let out = run_ae(&cfg, 3, &mut NoAdversary);
        assert_eq!(out.knowing.len(), 64);
        assert!((out.knowing_fraction - 1.0).abs() < 1e-12);
        assert_eq!(out.gstring.len_bits(), cfg.string_len);
    }

    #[test]
    fn outcome_converts_to_precondition() {
        let cfg = AeConfig::recommended(64);
        let mut adv = SilentAdversary::new(8);
        let out = run_ae(&cfg, 4, &mut adv);
        let pre = out.to_precondition(64, cfg.string_len);
        assert_eq!(pre.assignments.len(), 64);
        assert_eq!(pre.gstring, out.gstring);
        // Knowing nodes' assignments match gstring.
        for id in &pre.knowing {
            assert_eq!(pre.assignments[id.index()], pre.gstring);
        }
        // The knowing fraction satisfies the paper's requirement.
        assert!(out.knowing_fraction > 0.75);
    }

    #[test]
    fn supreme_committee_is_reported_and_agreed() {
        let cfg = AeConfig::recommended(128);
        let out = run_ae(&cfg, 6, &mut NoAdversary);
        let committee = out.supreme_committee.expect("committee known fault-free");
        assert_eq!(committee.len(), cfg.committee_size);
        assert!(committee.iter().all(|id| id.index() < 128));
    }

    #[test]
    fn rigged_members_bias_only_their_own_slices() {
        use crate::protocol::AeNode;
        let cfg = AeConfig::recommended(64);
        // Rig every node: the gstring becomes fully deterministic — the
        // concatenation of the zero-contribution slice pattern.
        let rigged: BTreeSet<NodeId> = (0..64).map(NodeId::from_index).collect();
        let out = run_ae_with(&cfg, 7, &mut NoAdversary, &rigged, 0);
        let committee = out.supreme_committee.expect("committee known");
        let per = cfg.string_len.div_ceil(committee.len());
        let slice = AeNode::contribution_bits(0, per);
        // Every slice of gstring equals the known zero pattern.
        for (m, _) in committee.iter().enumerate() {
            for (j, &expected) in slice.iter().enumerate().take(per) {
                let idx = m * per + j;
                if idx >= cfg.string_len {
                    break;
                }
                assert_eq!(
                    out.gstring.bit(idx),
                    expected,
                    "bit {idx} should be adversary-determined"
                );
            }
        }
        // Agreement still holds: bias is not a safety attack.
        assert!((out.knowing_fraction - 1.0).abs() < 1e-12);

        // Unrigged run from the same seed differs (entropy present).
        let honest = run_ae(&cfg, 7, &mut NoAdversary);
        assert_ne!(honest.gstring, out.gstring);
    }

    #[test]
    fn amortized_communication_is_polylogarithmic() {
        // bits/node must grow far slower than √n.
        let mut per_node = Vec::new();
        for n in [64usize, 256, 1024] {
            let cfg = AeConfig::recommended(n);
            let out = run_ae(&cfg, 5, &mut NoAdversary);
            per_node.push(out.run.metrics.amortized_bits());
        }
        let growth = per_node[2] / per_node[0]; // n ×16
        assert!(
            growth < 8.0,
            "amortized bits grew ×{growth:.1} over a ×16 size increase (√n would be ×4 on each hop, polylog must be less)"
        );
    }
}
