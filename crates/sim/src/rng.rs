//! Deterministic randomness derivation.
//!
//! The paper's model gives each node a *private* random number generator.
//! Those streams, the adversary's and the workload's are derived here from
//! a single master seed, so a run is a pure function of `(master_seed,
//! configuration)` — what every replay relies on. The samplers' *public*
//! randomness is a fixed seed of the configuration instead.

use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// Domain-separation tag for per-node private RNGs.
pub const TAG_NODE: u64 = 0x4e4f_4445; // "NODE"
/// Domain-separation tag for the adversary's RNG.
pub const TAG_ADVERSARY: u64 = 0x4144_5645; // "ADVE"
/// Domain-separation tag for workload/input generation.
pub const TAG_WORKLOAD: u64 = 0x574f_524b; // "WORK"
/// Domain-separation tag for per-instance seeds in service (chained
/// agreement) runs.
pub const TAG_SERVICE: u64 = 0x5345_5256; // "SERV"
/// Domain-separation tag for crash-schedule node sampling (the
/// crash–restart fault family in `fba-recovery`).
pub const TAG_CRASH: u64 = 0x4352_5348; // "CRSH"

/// The `splitmix64` mixing function (Steele, Lea, Flood 2014).
///
/// A full-avalanche 64-bit permutation used to fold seed tags together. It
/// is the same finalizer `rand` uses for `seed_from_u64`, reproduced here so
/// multi-tag derivation is stable regardless of `rand` internals.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Folds a master seed and a sequence of stream tags into one 64-bit seed.
///
/// Distinct tag sequences yield (with overwhelming probability) independent
/// streams; identical sequences always yield the same stream.
#[must_use]
pub fn mix(master: u64, tags: &[u64]) -> u64 {
    let mut acc = splitmix64(master);
    for &t in tags {
        acc = splitmix64(acc ^ splitmix64(t));
    }
    acc
}

/// Derives a deterministic ChaCha RNG from a master seed and stream tags.
///
/// ```
/// use fba_sim::rng::{derive_rng, TAG_NODE};
/// use rand::RngCore;
///
/// let mut a = derive_rng(42, &[TAG_NODE, 7]);
/// let mut b = derive_rng(42, &[TAG_NODE, 7]);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[must_use]
#[expect(clippy::disallowed_methods, reason = "D4: the one RNG constructor")]
pub fn derive_rng(master: u64, tags: &[u64]) -> ChaCha12Rng {
    ChaCha12Rng::seed_from_u64(mix(master, tags))
}

/// Derives the private RNG of node `index` for a given run.
#[must_use]
pub fn node_rng(master: u64, index: usize) -> ChaCha12Rng {
    derive_rng(master, &[TAG_NODE, index as u64])
}

/// Derives the master seed of instance `k` in a service (chained
/// agreement) run with the given service seed.
///
/// Instance 0 *is* the service seed: a 1-instance service run replays the
/// corresponding standalone run bit for bit (the service equivalence
/// contract in `tests/scenario_equivalence.rs` depends on this). Later
/// instances get independent derived streams.
#[must_use]
pub fn instance_seed(service_seed: u64, k: usize) -> u64 {
    if k == 0 {
        service_seed
    } else {
        mix(service_seed, &[TAG_SERVICE, k as u64])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn splitmix_is_not_identity_and_is_deterministic() {
        assert_ne!(splitmix64(0), 0);
        assert_eq!(splitmix64(123), splitmix64(123));
        assert_ne!(splitmix64(123), splitmix64(124));
    }

    #[test]
    fn mix_depends_on_every_tag() {
        let base = mix(1, &[2, 3]);
        assert_ne!(base, mix(1, &[2, 4]));
        assert_ne!(base, mix(1, &[3, 2]));
        assert_ne!(base, mix(2, &[2, 3]));
        assert_eq!(base, mix(1, &[2, 3]));
    }

    #[test]
    fn mix_of_empty_tags_still_mixes_master() {
        assert_ne!(mix(0, &[]), 0);
        assert_ne!(mix(1, &[]), mix(2, &[]));
    }

    #[test]
    fn derived_rngs_are_reproducible() {
        let mut a = derive_rng(7, &[TAG_NODE, 1]);
        let mut b = derive_rng(7, &[TAG_NODE, 1]);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_streams_diverge() {
        let mut a = derive_rng(7, &[TAG_NODE, 0]);
        let mut b = derive_rng(7, &[TAG_NODE, 1]);
        // Equality of a single draw would be a 2^-64 coincidence.
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn node_rng_matches_manual_derivation() {
        let mut a = node_rng(99, 5);
        let mut b = derive_rng(99, &[TAG_NODE, 5]);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn instance_zero_is_the_service_seed() {
        assert_eq!(instance_seed(42, 0), 42);
        assert_eq!(instance_seed(7, 0), 7);
    }

    #[test]
    fn later_instances_get_independent_seeds() {
        let s1 = instance_seed(42, 1);
        let s2 = instance_seed(42, 2);
        assert_ne!(s1, 42);
        assert_ne!(s1, s2);
        // Deterministic and distinct across service seeds.
        assert_eq!(s1, instance_seed(42, 1));
        assert_ne!(s1, instance_seed(43, 1));
    }
}
