//! The core seeded-hash sampler.
//!
//! §2.2 of the paper defines a `(θ,δ)`-sampler as a function
//! `S : X → Y` such that for any subset `S ⊆ Y`, at most a `θ` fraction of
//! inputs `x` have `|S(x) ∩ S|/|S(x)| > |S|/n + δ`. Lemma 1 shows such
//! functions exist by drawing the `d` out-neighbours of every input
//! uniformly at random; §4.1 analyses exactly this uniform random digraph.
//!
//! [`Sampler`] *instantiates* that construction: the `d`-subset assigned to
//! each key is produced by Floyd's uniform subset-sampling algorithm driven
//! by a `splitmix64` hash chain over `(seed, tag, key)`. All nodes share
//! the seed, so the function is public deterministic information — exactly
//! the "deterministically-known information + random sources" middle ground
//! the paper describes. The empirical checks in [`crate::properties`]
//! verify the Lemma 1 / Lemma 2 behaviour of the instantiated functions.

use fba_sim::rng::{mix, splitmix64};
use fba_sim::NodeId;

/// A uniform pseudo-random map from 64-bit keys to `d`-subsets of `[n]`.
///
/// ```
/// use fba_samplers::Sampler;
///
/// let s = Sampler::new(42, 1, 100, 8);
/// let q = s.set_for(7);
/// assert_eq!(q.len(), 8);
/// assert!(s.contains(7, q[0]));
/// assert_eq!(q, s.set_for(7)); // deterministic
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sampler {
    seed: u64,
    tag: u64,
    n: usize,
    d: usize,
}

/// Maps a 64-bit hash to `0..bound` without modulo bias (Lemire's
/// multiply-shift reduction).
#[inline]
fn reduce(hash: u64, bound: usize) -> usize {
    ((u128::from(hash) * bound as u128) >> 64) as usize
}

impl Sampler {
    /// Creates a sampler over `[n]` producing subsets of size `d`.
    ///
    /// `seed` is the run's public sampler seed; `tag` separates the
    /// different sampler functions (I, H, J, committees, …) derived from
    /// the same seed.
    ///
    /// # Panics
    ///
    /// Panics if `d > n` or `n == 0`.
    #[must_use]
    pub fn new(seed: u64, tag: u64, n: usize, d: usize) -> Self {
        assert!(n > 0, "sampler requires n > 0");
        assert!(d <= n, "subset size {d} exceeds n = {n}");
        Sampler { seed, tag, n, d }
    }

    /// System size `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Subset size `d` (the paper's `O(log n)` quorum size).
    #[must_use]
    pub fn d(&self) -> usize {
        self.d
    }

    /// The key-independent prefix of the hash chain, `mix(seed, [tag])`.
    #[inline]
    pub(crate) fn prefix(&self) -> u64 {
        mix(self.seed, &[self.tag])
    }

    /// The per-key hash base shared by every draw of one subset
    /// evaluation, `mix(seed, [tag, key])`, over a precomputed
    /// [`Sampler::prefix`]; hoisting it out of the draw loop matters in
    /// batch enumeration, where millions of subsets are drawn back to
    /// back.
    #[inline]
    pub(crate) fn base_over(prefix: u64, key: u64) -> u64 {
        splitmix64(prefix ^ splitmix64(key))
    }

    #[inline]
    fn base(&self, key: u64) -> u64 {
        Self::base_over(self.prefix(), key)
    }

    /// The per-index constant of draw `i`.
    #[inline]
    pub(crate) fn salt(i: u64) -> u64 {
        splitmix64(i ^ 0x5bd1_e995)
    }

    /// The `i`-th raw draw over a precomputed [`Sampler::base`].
    #[inline]
    fn draw(base: u64, i: u64) -> u64 {
        // One splitmix application per draw over the mixed base; full
        // 64-bit avalanche per index.
        splitmix64(base ^ Self::salt(i))
    }

    /// Floyd's algorithm — a uniform `d`-subset of `[n]` from exactly `d`
    /// hash evaluations — appending the subset assigned to `key` to `out`,
    /// sorted ascending. Each pick is inserted into the sorted tail
    /// written so far, so the whole evaluation is `O(d log d)` comparisons
    /// and the output needs no final sort. The collision branch (`t`
    /// already chosen → take `j`) appends in place because `j` strictly
    /// exceeds every previously chosen value.
    pub(crate) fn sorted_into(&self, key: u64, out: &mut Vec<NodeId>) {
        let base = self.base(key);
        let start = out.len();
        for (i, j) in ((self.n - self.d)..self.n).enumerate() {
            let t = NodeId::from_index(reduce(Self::draw(base, i as u64), j + 1));
            match out[start..].binary_search(&t) {
                Ok(_) => out.push(NodeId::from_index(j)),
                Err(pos) => out.insert(start + pos, t),
            }
        }
    }

    /// The `d`-subset assigned to `key`, sorted ascending (see
    /// [`Sampler::members_into`] for the draw-order batch form).
    #[must_use]
    pub fn set_for(&self, key: u64) -> Vec<NodeId> {
        let mut chosen = Vec::with_capacity(self.d);
        self.sorted_into(key, &mut chosen);
        chosen
    }

    /// The membership probe below the tail band: whether `y` belongs to
    /// the subset drawn over `base`, given the per-index
    /// [`Sampler::salt`]s in draw order. Wrong for `y ≥ n − d`; both
    /// callers branch on that first.
    ///
    /// Floyd's pick at draw `i` is the raw draw `t_i` unless `t_i` was
    /// already picked, in which case it is `n − d + i`. A node below
    /// `n − d` is therefore a member **iff some raw draw equals it** —
    /// `d` independent hash-and-compare steps, no collision tracking.
    #[inline]
    pub(crate) fn probe(&self, base: u64, salts: impl Iterator<Item = u64>, y: usize) -> bool {
        (self.n - self.d + 1..)
            .zip(salts)
            .any(|(bound, salt)| reduce(splitmix64(base ^ salt), bound) == y)
    }

    /// Whether `node` belongs to the subset assigned to `key`.
    ///
    /// Below the tail band `[n − d, n)` a node is a member iff some raw
    /// draw equals it: `d` hash-and-compare steps, nothing stored. A
    /// tail-band node is also what Floyd picks on a collision, so only
    /// there is the subset evaluated. Hot paths memoize whole sets — see
    /// `SharedSets<S>` and its aliases `SharedQuorumCache` and
    /// `SharedPollCache`.
    #[must_use]
    pub fn contains(&self, key: u64, node: NodeId) -> bool {
        if node.index() < self.n - self.d {
            let salts = (0..self.d as u64).map(Self::salt);
            self.probe(self.base(key), salts, node.index())
        } else {
            self.set_for(key).binary_search(&node).is_ok()
        }
    }

    /// Appends the subset assigned to `key` to `out` **in draw order**
    /// (same members as [`Sampler::set_for`], which sorts them).
    ///
    /// This is the batch-enumeration form of [`Sampler::set_for`]: Floyd
    /// collision detection runs against the caller-provided `seen` bitmap
    /// (at least `⌈n/64⌉` words, all-zero on entry, cleared again before
    /// returning) instead of a sorted probe buffer, so one evaluation
    /// costs `d` hash draws and `O(d)` bit operations — no allocation, no
    /// `O(d²)` insertion shifting. Callers that sweep millions of subsets
    /// ([`Sampler::inverse_over_keys`], the shared-string sweep of
    /// `fba-core`'s push-target construction) reuse one scratch bitmap
    /// across the whole sweep.
    ///
    /// # Panics
    ///
    /// Panics if `seen` is shorter than `⌈n/64⌉` words.
    pub fn members_into(&self, key: u64, seen: &mut [u64], out: &mut Vec<NodeId>) {
        assert!(
            seen.len() * 64 >= self.n,
            "scratch bitmap too small: {} words for n = {}",
            seen.len(),
            self.n
        );
        let start = out.len();
        let base = self.base(key);
        for (i, j) in ((self.n - self.d)..self.n).enumerate() {
            let t = reduce(Self::draw(base, i as u64), j + 1);
            // Collision → Floyd picks `j`, which strictly exceeds every
            // prior pick, so `j` itself is always fresh.
            let pick = if seen[t >> 6] & (1u64 << (t & 63)) != 0 {
                j
            } else {
                t
            };
            seen[pick >> 6] |= 1u64 << (pick & 63);
            out.push(NodeId::from_index(pick));
        }
        for m in &out[start..] {
            let v = m.index();
            seen[v >> 6] &= !(1u64 << (v & 63));
        }
    }

    /// For a fixed `key_of(x)` family over all `x ∈ [n]`, computes for
    /// every node `y` the list of `x` such that `y ∈ set_for(key_of(x))`.
    ///
    /// This is the `H⁻¹(i, x)` notion of §2.2 specialised to the way the
    /// protocols use it (e.g. "which nodes' push quorums for string `s` am
    /// I a member of"). One pass over all `x`, `O(n·d)` total work.
    #[must_use]
    pub fn inverse_over_keys<F>(&self, key_of: F) -> Vec<Vec<NodeId>>
    where
        F: Fn(NodeId) -> u64,
    {
        let mut inverse: Vec<Vec<NodeId>> = vec![Vec::new(); self.n];
        let mut seen = vec![0u64; self.n.div_ceil(64)];
        let mut members: Vec<NodeId> = Vec::with_capacity(self.d);
        for xi in 0..self.n {
            let x = NodeId::from_index(xi);
            members.clear();
            self.members_into(key_of(x), &mut seen, &mut members);
            for y in &members {
                inverse[y.index()].push(x);
            }
        }
        inverse
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn sets_have_exact_size_and_distinct_sorted_members() {
        let s = Sampler::new(1, 2, 50, 12);
        for key in 0..200u64 {
            let q = s.set_for(key);
            assert_eq!(q.len(), 12);
            let set: BTreeSet<_> = q.iter().copied().collect();
            assert_eq!(set.len(), 12, "members must be distinct");
            let mut sorted = q.clone();
            sorted.sort();
            assert_eq!(sorted, q, "members must be sorted");
            assert!(q.iter().all(|id| id.index() < 50));
        }
    }

    #[test]
    fn full_subset_when_d_equals_n() {
        let s = Sampler::new(9, 0, 6, 6);
        let q = s.set_for(3);
        assert_eq!(q.len(), 6);
        let all: BTreeSet<_> = (0..6).map(NodeId::from_index).collect();
        assert_eq!(q.into_iter().collect::<BTreeSet<_>>(), all);
    }

    #[test]
    fn contains_agrees_with_set_for() {
        let s = Sampler::new(77, 3, 64, 9);
        for key in 0..64u64 {
            let q: BTreeSet<_> = s.set_for(key).into_iter().collect();
            for i in 0..64 {
                let id = NodeId::from_index(i);
                assert_eq!(s.contains(key, id), q.contains(&id), "key={key} node={i}");
            }
        }
    }

    #[test]
    fn members_into_matches_set_for_and_clears_scratch() {
        for (n, d) in [(1usize, 1usize), (50, 12), (64, 64), (200, 1), (1000, 31)] {
            let s = Sampler::new(11, 4, n, d);
            let mut seen = vec![0u64; n.div_ceil(64)];
            let mut out = Vec::new();
            for key in 0..100u64 {
                out.clear();
                s.members_into(key, &mut seen, &mut out);
                let mut sorted = out.clone();
                sorted.sort();
                assert_eq!(sorted, s.set_for(key), "n={n} d={d} key={key}");
                assert!(
                    seen.iter().all(|&w| w == 0),
                    "scratch must be cleared after use"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "scratch bitmap too small")]
    fn members_into_rejects_short_scratch() {
        let s = Sampler::new(0, 0, 100, 4);
        s.members_into(0, &mut [0u64; 1], &mut Vec::new());
    }

    #[test]
    fn different_tags_give_different_functions() {
        let a = Sampler::new(5, 1, 128, 10);
        let b = Sampler::new(5, 2, 128, 10);
        let differs = (0..32u64).any(|k| a.set_for(k) != b.set_for(k));
        assert!(differs);
    }

    #[test]
    fn different_seeds_give_different_functions() {
        let a = Sampler::new(5, 1, 128, 10);
        let b = Sampler::new(6, 1, 128, 10);
        let differs = (0..32u64).any(|k| a.set_for(k) != b.set_for(k));
        assert!(differs);
    }

    #[test]
    fn marginal_distribution_is_roughly_uniform() {
        // Each node should appear in ~ keys·d/n quorums.
        let n = 100;
        let d = 10;
        let keys = 5_000u64;
        let s = Sampler::new(123, 7, n, d);
        let mut counts = vec![0u64; n];
        for k in 0..keys {
            for id in s.set_for(k) {
                counts[id.index()] += 1;
            }
        }
        let expected = keys as f64 * d as f64 / n as f64; // 500
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > expected * 0.7 && (c as f64) < expected * 1.3,
                "node {i} appears {c} times, expected ≈ {expected}"
            );
        }
    }

    #[test]
    fn inverse_over_keys_matches_forward_map() {
        let n = 40;
        let s = Sampler::new(3, 1, n, 6);
        let key_of = |x: NodeId| 1000 + x.index() as u64;
        let inv = s.inverse_over_keys(key_of);
        for xi in 0..n {
            let x = NodeId::from_index(xi);
            for y in s.set_for(key_of(x)) {
                assert!(inv[y.index()].contains(&x));
            }
        }
        // Total size consistency: sum of inverse lists == n*d.
        let total: usize = inv.iter().map(Vec::len).sum();
        assert_eq!(total, n * 6);
    }

    #[test]
    #[should_panic(expected = "exceeds n")]
    fn rejects_oversized_d() {
        let _ = Sampler::new(0, 0, 4, 5);
    }

    #[test]
    #[should_panic(expected = "n > 0")]
    fn rejects_empty_domain() {
        let _ = Sampler::new(0, 0, 0, 0);
    }
}
