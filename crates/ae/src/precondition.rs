//! The almost-everywhere precondition AER consumes.
//!
//! §2.1 of the paper: AER assumes that a `1/2 + ε` fraction of the nodes
//! are both correct and know a common string `gstring` (equivalently, all
//! but a `1/4` fraction of the *correct* nodes know it), where `gstring`
//! is `c·log n` bits long and at least `2/3 + ε` of its bits are uniformly
//! random. The paper obtains this state from the protocol of KSSV06;
//! this crate provides both a message-passing implementation of that
//! contract ([`crate::protocol`]) and the *synthetic injector* below, used
//! to set up AER-only experiments exactly the way the paper's analysis
//! isolates AER.

use std::collections::BTreeSet;

use fba_samplers::GString;
use fba_sim::rng::{derive_rng, TAG_WORKLOAD};
use fba_sim::NodeId;
use rand::seq::index::sample;
use rand::Rng;

/// How the nodes that do *not* know `gstring` are initialised.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnknowingAssignment {
    /// Each unknowing node holds an independent uniformly random string —
    /// the benign outcome of a partially failed almost-everywhere phase.
    RandomPerNode,
    /// Every unknowing node holds the *same* adversary-chosen string — the
    /// worst case for AER's majority filters, because the bogus candidates
    /// form a coherent block.
    SharedAdversarial,
}

/// A fully materialised AER starting state: who knows `gstring`, and what
/// everyone's initial candidate is.
#[derive(Clone, Debug)]
pub struct Precondition {
    /// The common string the knowing nodes share.
    pub gstring: GString,
    /// Initial candidate `s_x` of every node (indexed by node id).
    pub assignments: Vec<GString>,
    /// The nodes assigned `gstring`.
    pub knowing: BTreeSet<NodeId>,
}

impl Precondition {
    /// Builds a synthetic precondition for `n` nodes.
    ///
    /// * `string_len` — length of `gstring` in bits (`c·log n`);
    /// * `knowledge_fraction` — fraction of all nodes assigned `gstring`
    ///   (the paper requires this to exceed `1/2 + ε` plus the corruption
    ///   the adversary will claim from it);
    /// * `mode` — what the remaining nodes hold;
    /// * `seed` — workload seed (deterministic).
    ///
    /// The generated `gstring` has the paper's bit structure: a `2/3 + ε`
    /// uniformly random prefix and an adversarial remainder.
    ///
    /// # Panics
    ///
    /// Panics if `knowledge_fraction` is outside `[0, 1]` or `n == 0`.
    #[must_use]
    pub fn synthetic(
        n: usize,
        string_len: usize,
        knowledge_fraction: f64,
        mode: UnknowingAssignment,
        seed: u64,
    ) -> Self {
        assert!(n > 0, "need at least one node");
        assert!(
            (0.0..=1.0).contains(&knowledge_fraction),
            "knowledge fraction {knowledge_fraction} outside [0, 1]"
        );
        let mut rng = derive_rng(seed, &[TAG_WORKLOAD]);
        // 2/3 + ε uniform bits, adversarial remainder (ε = 1/24 here; the
        // exact split only matters for Lemma 5's union bound).
        let gstring = GString::mixed(string_len, 2.0 / 3.0 + 1.0 / 24.0, true, &mut rng);

        let k = ((n as f64) * knowledge_fraction).round() as usize;
        let knowing: BTreeSet<NodeId> = sample(&mut rng, n, k.min(n))
            .into_iter()
            .map(NodeId::from_index)
            .collect();

        let shared_bad = GString::random(string_len, &mut rng);
        let assignments: Vec<GString> = (0..n)
            .map(|i| {
                let id = NodeId::from_index(i);
                if knowing.contains(&id) {
                    gstring
                } else {
                    match mode {
                        UnknowingAssignment::RandomPerNode => GString::random(string_len, &mut rng),
                        UnknowingAssignment::SharedAdversarial => shared_bad,
                    }
                }
            })
            .collect();

        Precondition {
            gstring,
            assignments,
            knowing,
        }
    }

    /// System size.
    #[must_use]
    pub fn n(&self) -> usize {
        self.assignments.len()
    }

    /// Fraction of all nodes that know `gstring`.
    #[must_use]
    pub fn knowing_fraction(&self) -> f64 {
        self.knowing.len() as f64 / self.n() as f64
    }

    /// Whether node `x` was assigned `gstring`.
    #[must_use]
    pub fn knows(&self, x: NodeId) -> bool {
        self.knowing.contains(&x)
    }

    /// Checks the paper's §2.1 assumption against a prospective corrupt
    /// set: more than `1/2 + ε` of all nodes must be correct *and*
    /// knowing.
    #[must_use]
    pub fn satisfies_assumption(&self, corrupt: &BTreeSet<NodeId>, epsilon: f64) -> bool {
        let correct_knowing = self
            .knowing
            .iter()
            .filter(|id| !corrupt.contains(id))
            .count();
        (correct_knowing as f64) > (0.5 + epsilon) * self.n() as f64
    }
}

/// Draws a uniformly random knowledge fraction scenario for randomized
/// property tests: `n`, fraction in `[lo, hi]`.
#[must_use]
pub fn random_fraction(lo: f64, hi: f64, seed: u64) -> f64 {
    let mut rng = derive_rng(seed, &[TAG_WORKLOAD, 0x66]);
    rng.gen_range(lo..=hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_assigns_requested_fraction() {
        let p = Precondition::synthetic(100, 40, 0.8, UnknowingAssignment::RandomPerNode, 3);
        assert_eq!(p.n(), 100);
        assert_eq!(p.knowing.len(), 80);
        assert!((p.knowing_fraction() - 0.8).abs() < 1e-9);
        for id in &p.knowing {
            assert_eq!(p.assignments[id.index()], p.gstring);
            assert!(p.knows(*id));
        }
    }

    #[test]
    fn synthetic_is_deterministic() {
        let a = Precondition::synthetic(64, 32, 0.75, UnknowingAssignment::SharedAdversarial, 9);
        let b = Precondition::synthetic(64, 32, 0.75, UnknowingAssignment::SharedAdversarial, 9);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.gstring, b.gstring);
        assert_eq!(a.knowing, b.knowing);
    }

    #[test]
    fn unknowing_modes_differ() {
        let shared =
            Precondition::synthetic(64, 32, 0.5, UnknowingAssignment::SharedAdversarial, 9);
        let unknowing: Vec<_> = (0..64)
            .map(NodeId::from_index)
            .filter(|id| !shared.knows(*id))
            .collect();
        // All unknowing nodes share one bogus string.
        let first = &shared.assignments[unknowing[0].index()];
        assert!(unknowing
            .iter()
            .all(|id| &shared.assignments[id.index()] == first));
        assert_ne!(first, &shared.gstring);

        let random = Precondition::synthetic(64, 32, 0.5, UnknowingAssignment::RandomPerNode, 9);
        let a = &random.assignments[unknowing[0].index()];
        let b = &random.assignments[unknowing[1].index()];
        assert_ne!(a, b, "independent random strings should differ");
    }

    #[test]
    fn gstring_has_adversarial_suffix_structure() {
        let p = Precondition::synthetic(64, 48, 0.8, UnknowingAssignment::RandomPerNode, 4);
        // Bits beyond ceil((2/3 + 1/24)·48) = 34 are the adversarial fill.
        for i in 34..48 {
            assert!(p.gstring.bit(i));
        }
    }

    #[test]
    fn satisfies_assumption_accounts_for_corruption() {
        let p = Precondition::synthetic(100, 40, 0.8, UnknowingAssignment::RandomPerNode, 3);
        let empty = BTreeSet::new();
        assert!(p.satisfies_assumption(&empty, 1.0 / 12.0));
        // Corrupt 30 knowing nodes: 50 correct knowing left, not > 58.3.
        let corrupt: BTreeSet<NodeId> = p.knowing.iter().copied().take(30).collect();
        assert!(!p.satisfies_assumption(&corrupt, 1.0 / 12.0));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn synthetic_rejects_bad_fraction() {
        let _ = Precondition::synthetic(10, 16, 1.5, UnknowingAssignment::RandomPerNode, 0);
    }

    #[test]
    fn random_fraction_in_range() {
        for seed in 0..20 {
            let f = random_fraction(0.6, 0.9, seed);
            assert!((0.6..=0.9).contains(&f));
        }
    }
}
