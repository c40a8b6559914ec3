//! # fba-samplers — the sampler family of *Fast Byzantine Agreement*
//!
//! §2.2 of the paper: samplers are the middle ground between deterministic
//! quorum choice (corruptible) and fully random quorums (uncoordinated).
//! Every node derives the same three functions from public randomness:
//!
//! * **`I`** — push quorums: `I(s, x)` is the set of nodes allowed to push
//!   candidate string `s` to node `x` ([`QuorumSampler`]).
//! * **`H`** — pull quorums: `H(s, x)` forwards and filters `x`'s pull
//!   requests for `s` ([`QuorumSampler`]).
//! * **`J`** — poll lists: `J(x, r)` for a random label `r ∈ R` is the
//!   authoritative sample `x` polls to verify a candidate
//!   ([`PollSampler`]).
//!
//! Lemma 1 and Lemma 2 of the paper prove such functions exist by drawing
//! `d`-subsets uniformly; this crate instantiates that construction with
//! seeded hashing ([`Sampler`]) and *verifies the properties empirically*
//! ([`properties`]) instead of assuming them.
//!
//! ## Memoization and determinism
//!
//! Every sampler is a pure function of `(public seed, key)`, so hot paths
//! memoize whole sets: one run-shared memo type, [`SharedSets<S>`], stores
//! each evaluated quorum or poll list (`d` ids in one flat per-sampler
//! arena) behind a dense [`SetSlot`] and answers repeat membership
//! queries with a binary search. Its two aliases add the key formats:
//! [`SharedQuorumCache`] over `(s, x)` and [`SharedPollCache`] over
//! `(x, r)`. A cache hit returns
//! byte-identical data to a fresh evaluation — caching cannot change any
//! protocol outcome, only how often the Floyd sampling loop runs.
//! `tests/cache_equiv.rs` asserts cached ≡ uncached over randomized keys
//! (miss pass, then hit pass), and the engine-level determinism tests in
//! `fba-sim` and the integration suite pin run outcomes end to end.
//!
//! ```
//! use fba_samplers::{PollSampler, QuorumScheme, StringKey};
//! use fba_sim::NodeId;
//!
//! let scheme = QuorumScheme::new(42, 1000, 12);
//! let s = StringKey(7);
//! let x = NodeId::from_index(3);
//! let push_quorum = scheme.push.quorum(s, x);     // I(s, x)
//! assert_eq!(push_quorum.len(), 12);
//!
//! let j = PollSampler::new(42, 1000, 12, PollSampler::default_cardinality(1000));
//! let list = j.poll_list(x, fba_samplers::Label(99)); // J(x, r)
//! assert_eq!(list.len(), 12);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

mod cache;
mod poll;
pub mod properties;
mod quorum;
mod sampler;
mod strings;

pub use cache::{SetSlot, SharedPollCache, SharedQuorumCache, SharedSets};
pub use poll::{Label, PollSampler};
pub use quorum::{default_quorum_size, tags, QuorumSampler, QuorumScheme};
pub use sampler::Sampler;
pub use strings::{gstring_len, GString, StringKey, MAX_GSTRING_BITS};
