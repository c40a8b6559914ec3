//! A fast, non-cryptographic hasher for hot-path maps and sets.
//!
//! `std`'s default SipHash-1-3 is DoS-resistant but costs tens of cycles
//! per small key; the simulator's maps are keyed by values derived from
//! seeded executions (node ids, 64-bit string keys), where flood-resistance
//! buys nothing and the per-message map lookups in the push/pull phases are
//! squarely on the hot path. [`FxHasher`] implements the multiply-xor
//! scheme popularized by rustc's `FxHashMap`: one rotate, one xor and one
//! multiply per 8-byte chunk.
//!
//! Determinism: the hasher is keyless, so iteration-order-independent uses
//! (lookups, membership) are reproducible across runs and platforms of the
//! same pointer width. Code that *iterates* a map must still iterate in a
//! sorted or insertion order if the iteration feeds protocol decisions —
//! the same rule that already applied under SipHash's random keys.
#![expect(clippy::disallowed_types, reason = "D1: wraps std's maps")]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc-style multiply-xor hasher.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = [0u8; 8];
            word[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_to_hash(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equal() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&(1u64, 2u32)), hash_of(&(1u64, 2u32)));
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
    }

    #[test]
    fn nearby_keys_spread() {
        let hashes: std::collections::BTreeSet<u64> = (0..1000u64).map(|k| hash_of(&k)).collect();
        assert_eq!(hashes.len(), 1000, "dense u64 keys must not collide");
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(7, "seven");
        assert_eq!(m.get(&7), Some(&"seven"));
        let mut s: FxHashSet<(u32, u64)> = FxHashSet::default();
        assert!(s.insert((1, 2)));
        assert!(!s.insert((1, 2)));
    }

    #[test]
    fn byte_slices_of_all_lengths_hash() {
        let mut seen = std::collections::BTreeSet::new();
        for len in 0..32usize {
            let bytes: Vec<u8> = (0..len as u8).collect();
            seen.insert(hash_of(&bytes));
        }
        assert!(seen.len() >= 31, "length must influence the hash");
    }
}
