//! Offline ChaCha-based random number generators.
//!
//! Implements the real ChaCha stream cipher core (D. J. Bernstein) with 12
//! rounds, buffered one 64-byte block at a time. Only the API surface this
//! workspace uses is provided: [`ChaCha12Rng`] plus the [`rand_core`]
//! re-exports. Streams are high-quality and fully deterministic from a
//! 32-byte (or splitmix-expanded 64-bit) seed; they are *not* guaranteed
//! byte-compatible with the upstream `rand_chacha` crate, which is fine
//! because every consumer in this repository derives and replays its own
//! seeds.

#![forbid(unsafe_code)]

use rand::{RngCore, SeedableRng};

/// Re-export of the core traits under the path `rand_chacha::rand_core`,
/// matching the upstream crate layout.
pub mod rand_core {
    pub use rand::{RngCore, SeedableRng};
}

const WORDS_PER_BLOCK: usize = 16;

#[inline]
fn quarter_round(state: &mut [u32; WORDS_PER_BLOCK], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// The ChaCha core with a compile-time round count.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ChaChaCore<const ROUNDS: usize> {
    /// Key words (state rows 1–2).
    key: [u32; 8],
    /// 64-bit block counter (state words 12–13).
    counter: u64,
    /// Buffered keystream block.
    buf: [u32; WORDS_PER_BLOCK],
    /// Next unread word in `buf`; `WORDS_PER_BLOCK` means exhausted.
    index: usize,
}

impl<const ROUNDS: usize> ChaChaCore<ROUNDS> {
    fn new(key_bytes: &[u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (word, chunk) in key.iter_mut().zip(key_bytes.chunks_exact(4)) {
            *word = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        ChaChaCore {
            key,
            counter: 0,
            buf: [0; WORDS_PER_BLOCK],
            index: WORDS_PER_BLOCK,
        }
    }

    fn refill(&mut self) {
        // "expand 32-byte k" constants.
        let mut state: [u32; WORDS_PER_BLOCK] = [
            0x6170_7865,
            0x3320_646e,
            0x7962_2d32,
            0x6b20_6574,
            self.key[0],
            self.key[1],
            self.key[2],
            self.key[3],
            self.key[4],
            self.key[5],
            self.key[6],
            self.key[7],
            self.counter as u32,
            (self.counter >> 32) as u32,
            0,
            0,
        ];
        let initial = state;
        for _ in 0..(ROUNDS / 2) {
            // Column round.
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            // Diagonal round.
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (out, (s, i)) in self.buf.iter_mut().zip(state.iter().zip(initial.iter())) {
            *out = s.wrapping_add(*i);
        }
        self.counter = self.counter.wrapping_add(1);
        self.index = 0;
    }

    #[inline]
    fn next_word(&mut self) -> u32 {
        if self.index == WORDS_PER_BLOCK {
            self.refill();
        }
        let w = self.buf[self.index];
        self.index += 1;
        w
    }
}

macro_rules! chacha_rng {
    ($name:ident, $rounds:literal, $doc:literal) => {
        #[doc = $doc]
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub struct $name {
            core: ChaChaCore<$rounds>,
        }

        impl SeedableRng for $name {
            type Seed = [u8; 32];

            fn from_seed(seed: Self::Seed) -> Self {
                $name {
                    core: ChaChaCore::new(&seed),
                }
            }
        }

        impl RngCore for $name {
            fn next_u32(&mut self) -> u32 {
                self.core.next_word()
            }

            fn next_u64(&mut self) -> u64 {
                let lo = u64::from(self.core.next_word());
                let hi = u64::from(self.core.next_word());
                (hi << 32) | lo
            }
        }
    };
}

chacha_rng!(ChaCha8Rng, 8, "ChaCha with 8 rounds.");
chacha_rng!(
    ChaCha12Rng,
    12,
    "ChaCha with 12 rounds (the workspace default)."
);
chacha_rng!(ChaCha20Rng, 20, "ChaCha with 20 rounds.");

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "D4: the shim's own stream tests")]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = ChaCha12Rng::seed_from_u64(42);
        let mut b = ChaCha12Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaCha12Rng::seed_from_u64(1);
        let mut b = ChaCha12Rng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fill_bytes_matches_word_stream() {
        let mut a = ChaCha12Rng::seed_from_u64(9);
        let mut b = ChaCha12Rng::seed_from_u64(9);
        let mut buf = [0u8; 16];
        a.fill_bytes(&mut buf);
        let expect = [b.next_u64().to_le_bytes(), b.next_u64().to_le_bytes()].concat();
        assert_eq!(&buf[..], &expect[..]);
    }

    #[test]
    fn rounds_matter() {
        let mut a = ChaCha8Rng::seed_from_u64(5);
        let mut b = ChaCha12Rng::seed_from_u64(5);
        let mut c = ChaCha20Rng::seed_from_u64(5);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_ne!(x, y);
        assert_ne!(y, z);
    }

    #[test]
    fn output_is_balanced() {
        // Cheap sanity check on the keystream: bit balance over 64k bits.
        let mut rng = ChaCha12Rng::seed_from_u64(1234);
        let ones: u32 = (0..1024).map(|_| rng.next_u64().count_ones()).sum();
        let total = 1024 * 64;
        assert!(
            (total * 45 / 100..total * 55 / 100).contains(&ones),
            "ones = {ones} of {total}"
        );
    }
}
