//! `push_targets` against its definition, `{x : y ∈ I(s_y, x)}` for every
//! node `y`, on both of its paths: the membership probe (a string with
//! one holder below the sampler's tail band `[n − d, n)`) and the quorum
//! sweep (every other string).

use fba_ae::{Precondition, UnknowingAssignment};
use fba_core::push::push_targets;
use fba_samplers::{GString, QuorumScheme};
use fba_sim::rng::derive_rng;
use fba_sim::NodeId;

const STRING_LEN: usize = 40;

fn nodes(n: usize) -> impl Iterator<Item = NodeId> {
    (0..n).map(NodeId::from_index)
}

/// The definition, one materialised quorum per `(y, x)` pair.
fn brute_force(scheme: &QuorumScheme, assignments: &[GString]) -> Vec<Vec<NodeId>> {
    let holds = |y: NodeId, x| {
        let key = assignments[y.index()].key();
        scheme.push.quorum(key, x).contains(&y)
    };
    nodes(scheme.n())
        .map(|y| nodes(scheme.n()).filter(|&x| holds(y, x)).collect())
        .collect()
}

fn check(scheme: &QuorumScheme, assignments: &[GString], shape: &str) {
    let targets = push_targets(scheme, assignments);
    let (n, d) = (scheme.n(), scheme.d());
    assert_eq!(
        targets,
        brute_force(scheme, assignments),
        "{shape}, n={n} d={d}"
    );
    for (y, list) in targets.iter().enumerate() {
        // A raw draw that repeats must not list a receiver twice.
        assert!(
            list.windows(2).all(|w| w[0] < w[1]),
            "{shape}, n={n} d={d}: targets of node {y} not strictly ascending"
        );
    }
}

#[test]
fn push_targets_equal_the_brute_force_on_every_assignment_shape() {
    for (n, d) in [(24, 5), (64, 9), (150, 12)] {
        for seed in [3u64, 17, 40_961] {
            let scheme = QuorumScheme::new(seed, n, d);
            let mut rng = derive_rng(seed, &[n as u64]);
            let distinct: Vec<GString> = (0..n)
                .map(|_| GString::random(STRING_LEN, &mut rng))
                .collect();
            check(&scheme, &distinct, "all distinct");
            let shared = distinct[0];
            check(&scheme, &vec![shared; n], "all equal");
            let mode = UnknowingAssignment::RandomPerNode;
            let pre = Precondition::synthetic(n, STRING_LEN, 0.8, mode, seed);
            check(&scheme, &pre.assignments, "synthetic, 0.8 knowing");
            // One unique string among shared ones, its holder on either
            // edge of the tail band and at its far end.
            for holder in [n - d - 1, n - d, n - 1] {
                let mut assignments = vec![shared; n];
                assignments[holder] = distinct[1];
                check(&scheme, &assignments, &format!("unique holder {holder}"));
            }
        }
    }
}

/// The n = 4096 shape every benchmark workload's set-up has: the lists
/// equal those of the quorum sweep run for every string alike.
#[cfg(not(debug_assertions))]
#[test]
fn push_targets_equal_the_quorum_sweep_at_n4096() {
    let cfg = fba_core::AerConfig::recommended(4096);
    let mode = UnknowingAssignment::RandomPerNode;
    let pre = Precondition::synthetic(cfg.n, cfg.string_len, 0.8, mode, 7);
    let scheme = cfg.scheme();
    let keys: std::collections::BTreeSet<_> = pre.assignments.iter().map(GString::key).collect();
    let mut sweep = vec![Vec::new(); cfg.n];
    let mut seen = vec![0u64; cfg.n.div_ceil(64)];
    let mut members = Vec::new();
    for key in keys {
        for x in nodes(cfg.n) {
            members.clear();
            scheme.push.quorum_into(key, x, &mut seen, &mut members);
            for y in &members {
                if pre.assignments[y.index()].key() == key {
                    sweep[y.index()].push(x);
                }
            }
        }
    }
    assert_eq!(push_targets(&scheme, &pre.assignments), sweep);
}
