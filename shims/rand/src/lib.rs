//! Offline, API-compatible subset of the `rand` crate.
//!
//! This workspace builds with no network access, so the handful of `rand`
//! APIs the reproduction uses are implemented here from scratch: the
//! [`RngCore`] / [`SeedableRng`] / [`Rng`] traits, uniform range sampling,
//! and [`seq::index::sample`]. The statistical requirements are modest —
//! every consumer seeds its generator deterministically and the protocols
//! only need uniform draws — but all samplers below are unbiased-enough
//! (Lemire multiply-shift reduction, 53-bit floats) for the repository's
//! statistical tests.

#![forbid(unsafe_code)]

/// Low-level uniform bit source; mirror of `rand_core::RngCore`.
pub trait RngCore {
    /// Next 32 uniform bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 uniform bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with uniform bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest);
    }
}

/// `splitmix64` (Steele, Lea, Flood 2014) — the same finalizer upstream
/// `rand` uses to expand `seed_from_u64` seeds.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic construction from seeds; mirror of
/// `rand_core::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Raw seed type (a byte array).
    type Seed: Default + AsMut<[u8]>;

    /// Builds the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a 64-bit seed by splitmix64 expansion
    /// (bit-compatible with upstream `rand`'s default).
    #[expect(clippy::disallowed_methods, reason = "D4: the trait builds itself")]
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let bytes = seed.as_mut();
        let mut acc = state;
        for chunk in bytes.chunks_mut(8) {
            acc = acc.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = acc;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let out = z.to_le_bytes();
            let len = chunk.len();
            chunk.copy_from_slice(&out[..len]);
        }
        Self::from_seed(seed)
    }
}

/// Maps a 64-bit hash to `0..bound` without modulo bias (Lemire).
#[inline]
fn reduce64(hash: u64, bound: u64) -> u64 {
    ((u128::from(hash) * u128::from(bound)) >> 64) as u64
}

/// A uniform double in `[0, 1)` with 53 random bits.
#[inline]
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Types drawable uniformly from their whole domain via [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one uniform value.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 != 0
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng)
    }
}

/// Integer types supporting uniform range sampling.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform draw from `[lo, hi)`; caller guarantees `lo < hi`.
    fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
    /// Uniform draw from `[lo, hi]`; caller guarantees `lo <= hi`.
    fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

macro_rules! impl_sample_uniform_uint {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                let span = (hi as u64) - (lo as u64);
                lo + reduce64(rng.next_u64(), span) as $t
            }
            fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                let span = (hi as u64) - (lo as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + reduce64(rng.next_u64(), span + 1) as $t
            }
        }
    )*};
}
impl_sample_uniform_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                let span = (hi as i64).wrapping_sub(lo as i64) as u64;
                lo.wrapping_add(reduce64(rng.next_u64(), span) as $t)
            }
            fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                let span = (hi as i64).wrapping_sub(lo as i64) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(reduce64(rng.next_u64(), span + 1) as $t)
            }
        }
    )*};
}
impl_sample_uniform_int!(i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
        lo + (hi - lo) * unit_f64(rng)
    }
    fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
        // Closed float intervals are sampled like half-open ones; the
        // endpoint has measure zero.
        lo + (hi - lo) * unit_f64(rng)
    }
}

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws a uniform value from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range called with empty range");
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "gen_range called with empty inclusive range");
        T::sample_inclusive(lo, hi, rng)
    }
}

/// Types fillable with uniform randomness via [`Rng::fill`].
pub trait Fill {
    /// Overwrites `self` with uniform random data.
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R);
}

impl Fill for [u8] {
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        rng.fill_bytes(self);
    }
}

/// High-level sampling helpers; mirror of `rand::Rng`.
pub trait Rng: RngCore {
    /// A uniform value over `T`'s whole domain.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// A uniform value from `range`.
    fn gen_range<T, Rg>(&mut self, range: Rg) -> T
    where
        T: SampleUniform,
        Rg: SampleRange<T>,
    {
        range.sample(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        unit_f64(self) < p
    }

    /// Fills `dest` with uniform random data.
    fn fill<T: Fill + ?Sized>(&mut self, dest: &mut T) {
        dest.fill_from(self);
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Sequence-related helpers; mirror of `rand::seq`.
pub mod seq {
    /// Index sampling; mirror of `rand::seq::index`.
    pub mod index {
        use crate::{Rng, RngCore};

        /// A set of sampled indices.
        #[derive(Clone, Debug)]
        pub struct IndexVec(Vec<usize>);

        impl IndexVec {
            /// Number of sampled indices.
            #[must_use]
            pub fn len(&self) -> usize {
                self.0.len()
            }

            /// Whether the sample is empty.
            #[must_use]
            pub fn is_empty(&self) -> bool {
                self.0.is_empty()
            }

            /// The indices as a plain vector.
            #[must_use]
            pub fn into_vec(self) -> Vec<usize> {
                self.0
            }
        }

        impl IntoIterator for IndexVec {
            type Item = usize;
            type IntoIter = std::vec::IntoIter<usize>;
            fn into_iter(self) -> Self::IntoIter {
                self.0.into_iter()
            }
        }

        /// Samples `amount` distinct indices uniformly from `0..length`
        /// (Floyd's algorithm, `amount` draws, `O(amount log amount)`).
        ///
        /// # Panics
        ///
        /// Panics if `amount > length`.
        pub fn sample<R: RngCore + ?Sized>(rng: &mut R, length: usize, amount: usize) -> IndexVec {
            assert!(
                amount <= length,
                "cannot sample {amount} of {length} indices"
            );
            let mut chosen: Vec<usize> = Vec::with_capacity(amount);
            for j in (length - amount)..length {
                let t = rng.gen_range(0..=j);
                match chosen.binary_search(&t) {
                    Ok(_) => {
                        let pos = chosen.binary_search(&j).unwrap_err();
                        chosen.insert(pos, j);
                    }
                    Err(pos) => chosen.insert(pos, t),
                }
            }
            IndexVec(chosen)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(u64);
    impl RngCore for Counter {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(1);
            splitmix64(self.0)
        }
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = Counter(0);
        for _ in 0..1000 {
            let v: usize = rng.gen_range(3..17);
            assert!((3..17).contains(&v));
            let w: u64 = rng.gen_range(0..5);
            assert!(w < 5);
            let f: f64 = rng.gen_range(0.25..=0.75);
            assert!((0.25..=0.75).contains(&f));
            let i: i64 = rng.gen_range(-4..4);
            assert!((-4..4).contains(&i));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Counter(7);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn sample_returns_distinct_in_range() {
        let mut rng = Counter(3);
        for _ in 0..100 {
            let idx = seq::index::sample(&mut rng, 50, 20);
            let v = idx.into_vec();
            assert_eq!(v.len(), 20);
            let mut sorted = v.clone();
            sorted.dedup();
            assert_eq!(sorted.len(), 20);
            assert!(v.iter().all(|&i| i < 50));
        }
    }

    #[test]
    fn sample_full_range_is_permutation_support() {
        let mut rng = Counter(9);
        let v = seq::index::sample(&mut rng, 8, 8).into_vec();
        let mut sorted = v;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn sample_is_roughly_uniform() {
        let mut rng = Counter(11);
        let mut counts = [0u32; 10];
        for _ in 0..5_000 {
            for i in seq::index::sample(&mut rng, 10, 3) {
                counts[i] += 1;
            }
        }
        // Each index should appear ~1500 times.
        for (i, &c) in counts.iter().enumerate() {
            assert!((1_200..1_800).contains(&c), "index {i} drawn {c} times");
        }
    }
}
