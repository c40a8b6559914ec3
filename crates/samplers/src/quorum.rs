//! Push quorums (`I`), pull quorums (`H`) and the shared quorum scheme.
//!
//! §3.1 of the paper: all nodes must share three sampling functions —
//! `I` defines the *Push Quorums* used to diffuse candidate strings,
//! `H` defines the *Pull Quorums* used to route and filter pull requests,
//! and `J` generates *Poll Lists* (see [`crate::poll`]). `I` and `H` are
//! `(θ,δ)`-samplers `D × [n] → [n]^d` (Lemma 1) under which no node is
//! overloaded; the paper keys them as `H(i, x) = S(i·n + x)` — the same
//! split reproduced here by mixing the string key with the node index.

use fba_sim::rng::{mix, splitmix64};
use fba_sim::NodeId;

use crate::sampler::Sampler;
use crate::strings::StringKey;

/// Sampler-function tags (domain separation of I, H, J and committees
/// derived from one public seed).
pub mod tags {
    /// Push-quorum sampler `I`.
    pub const PUSH: u64 = 0x49; // 'I'
    /// Pull-quorum sampler `H`.
    pub const PULL: u64 = 0x48; // 'H'
    /// Poll-list sampler `J`.
    pub const POLL: u64 = 0x4a; // 'J'
    /// Committee sampler used by the almost-everywhere substrate.
    pub const COMMITTEE: u64 = 0x43; // 'C'
}

/// A quorum sampler `D × [n] → [n]^d` for a fixed role (push or pull).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuorumSampler {
    inner: Sampler,
}

impl QuorumSampler {
    /// Creates the quorum sampler for `(seed, tag)` over `[n]` with quorum
    /// size `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d > n` or `n == 0` (see [`Sampler::new`]).
    #[must_use]
    pub fn new(seed: u64, tag: u64, n: usize, d: usize) -> Self {
        QuorumSampler {
            inner: Sampler::new(seed, tag, n, d),
        }
    }

    /// Quorum size `d`.
    #[must_use]
    pub fn d(&self) -> usize {
        self.inner.d()
    }

    /// System size `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.inner.n()
    }

    #[inline]
    pub(crate) fn key(&self, s: StringKey, x: NodeId) -> u64 {
        // The paper's `H(i, x) = S(i·n + x)` two-variable split.
        mix(s.0, &[x.index() as u64])
    }

    /// The underlying raw sampler (crate-internal, for the cache layer).
    pub(crate) fn raw(&self) -> Sampler {
        self.inner
    }

    /// The quorum assigned to string `s` and node `x` — the paper's
    /// `I(s, x)` / `H(s, x)`.
    #[must_use]
    pub fn quorum(&self, s: StringKey, x: NodeId) -> Vec<NodeId> {
        self.inner.set_for(self.key(s, x))
    }

    /// Membership test `y ∈ quorum(s, x)`.
    #[must_use]
    pub fn contains(&self, s: StringKey, x: NodeId, y: NodeId) -> bool {
        self.inner.contains(self.key(s, x), y)
    }

    /// Strict-majority threshold for this quorum size: acceptance requires
    /// *more than half* of the quorum (`> d/2`), i.e. at least
    /// `⌊d/2⌋ + 1` distinct members.
    #[must_use]
    pub fn majority(&self) -> usize {
        self.inner.d() / 2 + 1
    }

    /// For string `s`, the inverse map over all receivers: entry `y` lists
    /// every `x` with `y ∈ quorum(s, x)` — the nodes `y` must push `s` to
    /// (for `I`), or the pull quorums `y` serves (for `H`).
    ///
    /// `O(n·d)` work; the per-node expected list length is `d`, matching
    /// Lemma 3's `O(log n)` push cost. Lemma 1's "no node overloaded"
    /// guarantee is checked empirically in
    /// [`crate::properties::indegree_stats`].
    #[must_use]
    pub fn inverse_for_string(&self, s: StringKey) -> Vec<Vec<NodeId>> {
        self.inner.inverse_over_keys(|x| self.key(s, x))
    }

    /// Appends the receivers `{x : y ∈ quorum(s, x)}` of one holder `y`
    /// to `out`, ascending — row `y` of
    /// [`QuorumSampler::inverse_for_string`] without the other `n − 1`
    /// rows, expected `d` receivers (Lemma 3).
    ///
    /// One [`Sampler::contains`] probe per receiver — `d` hash-and-compare
    /// steps, no quorum materialised — with everything that does not
    /// depend on `x` computed once: the `(seed, tag)` prefix of the hash
    /// chain, `splitmix64(s)` and the `d` per-draw constants.
    pub fn receivers_of(&self, s: StringKey, y: NodeId, out: &mut Vec<NodeId>) {
        let raw = self.inner;
        let receivers = (0..raw.n()).map(NodeId::from_index);
        if y.index() >= raw.n() - raw.d() {
            // Tail band (or no node at all): `contains` evaluates the set.
            out.extend(receivers.filter(|&x| self.contains(s, x, y)));
            return;
        }
        // `QuorumSampler::key` and `Sampler::base`, unrolled over the
        // hoisted halves of their `mix` chains.
        let (prefix, string_hash) = (raw.prefix(), splitmix64(s.0));
        let salts: Vec<u64> = (0..raw.d() as u64).map(Sampler::salt).collect();
        out.extend(receivers.filter(|x| {
            let key = splitmix64(string_hash ^ splitmix64(x.index() as u64));
            let base = Sampler::base_over(prefix, key);
            raw.probe(base, salts.iter().copied(), y.index())
        }));
    }

    /// Appends the members of `quorum(s, x)` to `out` in draw order, using
    /// the caller's scratch bitmap — the batch-enumeration form of
    /// [`QuorumSampler::quorum`]. See [`Sampler::members_into`] for the
    /// scratch contract; sweeps that need every member of the quorums of
    /// many `(s, x)` pairs (push-target construction for a string several
    /// nodes hold) reuse one bitmap throughout. For one holder, ask
    /// [`QuorumSampler::receivers_of`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `seen` is shorter than `⌈n/64⌉` words.
    pub fn quorum_into(&self, s: StringKey, x: NodeId, seen: &mut [u64], out: &mut Vec<NodeId>) {
        self.inner.members_into(self.key(s, x), seen, out);
    }
}

/// The shared sampler scheme: everything the paper requires all nodes to
/// agree on before AER starts (§3.1 "all nodes must share three sampling
/// functions: I, H and J").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuorumScheme {
    /// Push-quorum sampler `I`.
    pub push: QuorumSampler,
    /// Pull-quorum sampler `H`.
    pub pull: QuorumSampler,
    /// System size.
    n: usize,
    /// Quorum size `d = Θ(log n)`.
    d: usize,
}

impl QuorumScheme {
    /// Builds the scheme from a public seed.
    ///
    /// # Panics
    ///
    /// Panics if `d > n` or `n == 0`.
    #[must_use]
    pub fn new(seed: u64, n: usize, d: usize) -> Self {
        QuorumScheme {
            push: QuorumSampler::new(seed, tags::PUSH, n, d),
            pull: QuorumSampler::new(seed, tags::PULL, n, d),
            n,
            d,
        }
    }

    /// System size `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Quorum size `d`.
    #[must_use]
    pub fn d(&self) -> usize {
        self.d
    }

    /// A fresh run-shared memoizing view of `I` (see
    /// [`crate::SharedQuorumCache`]); one per run, cloned into every node.
    #[must_use]
    pub fn shared_push(&self) -> crate::SharedQuorumCache {
        crate::SharedQuorumCache::new(self.push)
    }

    /// A fresh run-shared memoizing view of `H`.
    #[must_use]
    pub fn shared_pull(&self) -> crate::SharedQuorumCache {
        crate::SharedQuorumCache::new(self.pull)
    }
}

/// The paper's default quorum size: `d = ⌈κ·ln n⌉`, clamped to `[3, n]`.
///
/// The constant `κ` trades failure probability against communication; the
/// experiments record the κ they use (default 3).
#[must_use]
pub fn default_quorum_size(n: usize, kappa: f64) -> usize {
    let d = (kappa * fba_sim::ln_at_least_one(n)).ceil() as usize;
    d.max(3).min(n.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(v: u64) -> StringKey {
        StringKey(v)
    }

    #[test]
    fn quorum_is_deterministic_and_sized() {
        let q = QuorumSampler::new(1, tags::PUSH, 64, 8);
        let a = q.quorum(key(9), NodeId::from_index(3));
        let b = q.quorum(key(9), NodeId::from_index(3));
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
    }

    #[test]
    fn quorum_depends_on_both_string_and_node() {
        let q = QuorumSampler::new(1, tags::PUSH, 256, 10);
        let base = q.quorum(key(5), NodeId::from_index(0));
        assert_ne!(base, q.quorum(key(6), NodeId::from_index(0)));
        assert_ne!(base, q.quorum(key(5), NodeId::from_index(1)));
    }

    #[test]
    fn push_and_pull_samplers_differ() {
        let scheme = QuorumScheme::new(7, 128, 9);
        let s = key(11);
        let x = NodeId::from_index(4);
        assert_ne!(scheme.push.quorum(s, x), scheme.pull.quorum(s, x));
        assert_eq!(scheme.n(), 128);
        assert_eq!(scheme.d(), 9);
    }

    #[test]
    fn contains_matches_quorum() {
        let q = QuorumSampler::new(3, tags::PULL, 50, 7);
        let s = key(2);
        for xi in 0..50 {
            let x = NodeId::from_index(xi);
            let members = q.quorum(s, x);
            for yi in 0..50 {
                let y = NodeId::from_index(yi);
                assert_eq!(q.contains(s, x, y), members.contains(&y));
            }
        }
    }

    #[test]
    fn majority_threshold() {
        assert_eq!(QuorumSampler::new(0, 0, 10, 7).majority(), 4);
        assert_eq!(QuorumSampler::new(0, 0, 10, 8).majority(), 5);
    }

    #[test]
    fn inverse_for_string_is_consistent() {
        let q = QuorumSampler::new(5, tags::PUSH, 30, 5);
        let s = key(77);
        let inv = q.inverse_for_string(s);
        for xi in 0..30 {
            let x = NodeId::from_index(xi);
            for y in q.quorum(s, x) {
                assert!(inv[y.index()].contains(&x));
            }
        }
        let total: usize = inv.iter().map(Vec::len).sum();
        assert_eq!(total, 30 * 5);
    }

    #[test]
    fn default_quorum_size_grows_logarithmically() {
        let d64 = default_quorum_size(64, 3.0);
        let d4096 = default_quorum_size(4096, 3.0);
        assert!(d4096 > d64);
        assert!(d4096 <= 3 * d64, "growth should be logarithmic, not linear");
        assert_eq!(default_quorum_size(2, 3.0), 2, "d is capped at n");
        assert!(default_quorum_size(4, 100.0) <= 4);
    }
}
