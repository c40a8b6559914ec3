//! AER configuration and validation.

use std::error::Error;
use std::fmt;

use fba_samplers::{default_quorum_size, gstring_len, PollSampler, QuorumScheme};
use fba_sim::ceil_log2;

use crate::state::MAX_QUORUM_SIZE;

/// Parameters of one AER deployment.
///
/// The paper's asymptotic choices are concretised here with explicit
/// constants; [`AerConfig::recommended`] reproduces the defaults used by
/// every experiment (`d = ⌈3·ln n⌉`, `|gstring| = 4·log₂ n`,
/// `cap = ⌈log₂ n⌉²`). The label domain `|R| = n²` and the public sampler
/// seed `0x5eed` are fixed, not fields, and the protocol never reads the
/// fault budget: that is the adversary's ([`default_faults`]). README
/// "Deviations from the paper" records where the implementation departs
/// from the text.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AerConfig {
    /// System size `n`.
    pub n: usize,
    /// Quorum and poll-list size `d = Θ(log n)`.
    pub d: usize,
    /// Length of candidate strings in bits (`c·log n`).
    pub string_len: usize,
    /// Overload cap: a poll-list member defers answering a string's pull
    /// requests once it has answered this many, until it decides
    /// (Algorithm 3's `log² n` filter).
    pub overload_cap: u64,
    /// Steps every open poll must run before a node falls back to repair,
    /// and the spacing between repair queries (liveness extension beyond
    /// the paper). Ignored when `repair_attempts = 0`.
    ///
    /// The scale-aware default is [`AerConfig::sync_poll_horizon`]: one
    /// full fault-free delivery horizon, which is a property of the
    /// *pipeline depth* (a constant number of hops), not of `n`.
    pub poll_timeout: u64,
    /// Number of last-resort repair queries an undecided node may issue
    /// (0 = disabled / strict paper mode). Each asks a fresh poll list for
    /// its members' decisions and adopts a strict-majority value — the
    /// same safety argument as Lemma 7. The node keeps its one poll per
    /// candidate open meanwhile, so a late answer still counts.
    pub repair_attempts: u32,
}

/// Public seed from which the shared samplers `I`, `H`, `J` derive.
const SAMPLER_SEED: u64 = 0x5eed;

/// The default corruption budget for `n` nodes, `⌊0.15·n⌋` — below the
/// paper's `(1/3 − ε)·n` bound with `ε = 1/12`. It is the adversary's
/// budget, not the protocol's: AER never reads it.
#[must_use]
pub fn default_faults(n: usize) -> usize {
    (n as f64 * 0.15) as usize
}

impl AerConfig {
    /// The defaults used throughout the reproduction for system size `n`:
    /// `d = ⌈3·ln n⌉`, `|s| = 4·log₂ n`, `cap = ⌈log₂ n⌉²`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 8` (the protocol is degenerate below that).
    #[must_use]
    pub fn recommended(n: usize) -> Self {
        assert!(n >= 8, "AER needs n ≥ 8, got {n}");
        let cfg = AerConfig {
            n,
            d: default_quorum_size(n, 3.0),
            string_len: gstring_len(n, 4),
            overload_cap: {
                let l = u64::from(ceil_log2(n));
                (l * l).max(4)
            },
            poll_timeout: Self::sync_poll_horizon(),
            repair_attempts: 4,
        };
        cfg.validate().expect("recommended config must be valid");
        cfg
    }

    /// The fault-free synchronous delivery horizon of one poll: the
    /// longest message chain a successful verification traverses —
    /// `Poll`/`Pull` → `Fw1` → `Fw2` → `Answer`, four hops — plus one
    /// step of slack for the push acceptance that may precede the poll.
    ///
    /// This is the natural unit for `poll_timeout`: it depends only on
    /// the pipeline's hop count, so it is *constant in `n`* — a poll that
    /// produced nothing within one horizon will not produce anything by
    /// waiting longer. Asynchronous engines multiply hop latency by their
    /// delay bound; repair there fires early and harmlessly (every
    /// handler is idempotent and answer-majority gated).
    #[must_use]
    pub const fn sync_poll_horizon() -> u64 {
        5
    }

    /// Strict paper mode: one poll per candidate, no repair. Used by the
    /// timing experiments (Lemmas 6/8) where the liveness extension would
    /// mask the adversary's delay chains.
    #[must_use]
    pub fn strict(mut self) -> Self {
        self.repair_attempts = 0;
        self
    }

    /// Returns a copy with a different overload cap.
    #[must_use]
    pub fn with_overload_cap(mut self, cap: u64) -> Self {
        self.overload_cap = cap;
        self
    }

    /// Returns a copy with a different quorum size `d`.
    #[must_use]
    pub fn with_d(mut self, d: usize) -> Self {
        self.d = d;
        self
    }

    /// Checks the paper's parameter constraints.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n < 8 {
            return Err(ConfigError::SystemTooSmall { n: self.n });
        }
        if self.d < 3 || self.d > self.n.min(MAX_QUORUM_SIZE) {
            return Err(ConfigError::BadQuorumSize {
                d: self.d,
                n: self.n,
            });
        }
        if self.string_len < 8 {
            return Err(ConfigError::StringTooShort {
                len: self.string_len,
            });
        }
        if self.overload_cap == 0 {
            return Err(ConfigError::ZeroOverloadCap);
        }
        if self.repair_attempts > 0 && self.poll_timeout == 0 {
            return Err(ConfigError::BadRetryPolicy {
                timeout: self.poll_timeout,
            });
        }
        Ok(())
    }

    /// The shared push/pull quorum scheme (`I` and `H`).
    #[must_use]
    pub fn scheme(&self) -> QuorumScheme {
        QuorumScheme::new(SAMPLER_SEED, self.n, self.d)
    }

    /// The shared poll-list sampler (`J`), over the label domain
    /// `|R| = n²`.
    #[must_use]
    pub fn poll_sampler(&self) -> PollSampler {
        let labels = PollSampler::default_cardinality(self.n);
        PollSampler::new(SAMPLER_SEED, self.n, self.d, labels)
    }

    /// Strict-majority threshold for quorums and poll lists
    /// (`⌊d/2⌋ + 1`).
    #[must_use]
    pub fn majority(&self) -> usize {
        self.d / 2 + 1
    }

    /// Default synchronous engine configuration for this deployment:
    /// enough steps for the repair schedule to play out. The one source of
    /// the default — the harness and the scenario builder both delegate
    /// here.
    #[must_use]
    pub fn engine_sync(&self) -> fba_sim::EngineConfig {
        let budget = self.poll_timeout * (u64::from(self.repair_attempts) + 3);
        fba_sim::EngineConfig {
            max_steps: budget.max(60),
            ..fba_sim::EngineConfig::sync(self.n)
        }
    }

    /// Default asynchronous engine configuration (`max_delay` steps of
    /// adversarial delay). The one source of the default — see
    /// [`AerConfig::engine_sync`].
    #[must_use]
    pub fn engine_async(&self, max_delay: fba_sim::Step) -> fba_sim::EngineConfig {
        fba_sim::EngineConfig {
            max_steps: 400,
            ..fba_sim::EngineConfig::asynchronous(self.n, max_delay)
        }
    }
}

/// A violated [`AerConfig`] constraint.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConfigError {
    /// `n` is too small for quorum logic to be meaningful.
    SystemTooSmall {
        /// Offending system size.
        n: usize,
    },
    /// Quorum size out of `[3, min(n, 63)]` — at least 3, at most the
    /// system, and no wider than the run's 64-bit vote masks (one bit
    /// reserved).
    BadQuorumSize {
        /// Requested quorum size.
        d: usize,
        /// System size.
        n: usize,
    },
    /// Candidate strings shorter than 8 bits.
    StringTooShort {
        /// Requested length.
        len: usize,
    },
    /// The overload cap must be at least 1.
    ZeroOverloadCap,
    /// Repair needs a non-zero timeout.
    BadRetryPolicy {
        /// Requested timeout.
        timeout: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::SystemTooSmall { n } => write!(f, "system size {n} is below 8"),
            ConfigError::BadQuorumSize { d, n } => {
                write!(
                    f,
                    "quorum size {d} outside [3, {}]",
                    n.min(&MAX_QUORUM_SIZE)
                )
            }
            ConfigError::StringTooShort { len } => {
                write!(
                    f,
                    "candidate strings of {len} bits are below the 8-bit floor"
                )
            }
            ConfigError::ZeroOverloadCap => write!(f, "overload cap must be at least 1"),
            ConfigError::BadRetryPolicy { timeout } => {
                write!(f, "repair with timeout {timeout} is degenerate")
            }
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommended_is_valid_across_sizes() {
        for n in [8, 16, 64, 256, 1024, 4096] {
            let cfg = AerConfig::recommended(n);
            assert!(cfg.validate().is_ok(), "n={n}");
            assert!(cfg.d >= 3 && cfg.d <= n);
            assert!((default_faults(n) as f64) < (1.0 / 3.0 - 1.0 / 12.0) * n as f64);
        }
    }

    #[test]
    fn recommended_scales_logarithmically() {
        let small = AerConfig::recommended(64);
        let large = AerConfig::recommended(4096);
        assert!(large.d > small.d);
        assert!(large.d < 4 * small.d);
        assert!(large.string_len > small.string_len);
    }

    #[test]
    #[should_panic(expected = "n ≥ 8")]
    fn recommended_rejects_tiny_systems() {
        let _ = AerConfig::recommended(4);
    }

    #[test]
    fn the_six_fields_and_the_fixed_samplers_are_pinned() {
        // Every option `AerConfig` has, written out: a new field fails to
        // compile here, and a drifted default, sampler seed or label
        // domain fails here before any golden digest moves.
        for (n, d, string_len, overload_cap) in
            [(8, 7, 12, 9), (64, 13, 24, 36), (4096, 25, 48, 144)]
        {
            let pinned = AerConfig {
                n,
                d,
                string_len,
                overload_cap,
                poll_timeout: 5,
                repair_attempts: 4,
            };
            let cfg = AerConfig::recommended(n);
            assert_eq!(cfg, pinned, "n={n}");
            assert_eq!(cfg.scheme(), QuorumScheme::new(0x5eed, n, d), "n={n}");
            let labels = (n * n) as u64;
            assert_eq!(
                cfg.poll_sampler(),
                PollSampler::new(0x5eed, n, d, labels),
                "n={n}"
            );
        }
    }

    #[test]
    fn validate_rejects_bad_quorum() {
        let cfg = AerConfig::recommended(64).with_d(2);
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::BadQuorumSize { .. })
        ));
        let cfg = AerConfig::recommended(64).with_d(65);
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::BadQuorumSize { .. })
        ));
        // The vote masks hold 63 positions, whatever n allows.
        let wide = AerConfig::recommended(256).with_d(64);
        assert_eq!(
            wide.validate(),
            Err(ConfigError::BadQuorumSize { d: 64, n: 256 })
        );
        assert_eq!(
            wide.validate().unwrap_err().to_string(),
            "quorum size 64 outside [3, 63]"
        );
        assert_eq!(AerConfig::recommended(256).with_d(63).validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_degenerate_fields() {
        let mut cfg = AerConfig::recommended(64);
        cfg.string_len = 4;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::StringTooShort { .. })
        ));

        let cfg = AerConfig::recommended(64).with_overload_cap(0);
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroOverloadCap));

        let mut cfg = AerConfig::recommended(64);
        cfg.poll_timeout = 0;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::BadRetryPolicy { timeout: 0 })
        );
        assert_eq!(cfg.strict().validate(), Ok(()), "no repair, no timeout");
    }

    #[test]
    fn strict_mode_disables_liveness_extensions() {
        let cfg = AerConfig::recommended(64).strict();
        assert_eq!(cfg.repair_attempts, 0);
        assert!(cfg.validate().is_ok(), "strict mode must stay valid");
    }

    #[test]
    fn recommended_timeout_is_the_delivery_horizon_at_every_scale() {
        // The retry-wave fix: the poll timeout tracks pipeline depth, not
        // n, so the retry/repair schedule is identical at every scale.
        for n in [8, 64, 1024, 4096, 16384] {
            let cfg = AerConfig::recommended(n);
            assert_eq!(cfg.poll_timeout, AerConfig::sync_poll_horizon(), "n={n}");
        }
    }

    #[test]
    fn builders_override_fields() {
        let cfg = AerConfig::recommended(64).with_overload_cap(77).with_d(11);
        assert_eq!(cfg.overload_cap, 77);
        assert_eq!(cfg.d, 11);
    }

    #[test]
    fn derived_samplers_share_seed_and_size() {
        let cfg = AerConfig::recommended(128);
        let scheme = cfg.scheme();
        let poll = cfg.poll_sampler();
        assert_eq!(scheme.n(), 128);
        assert_eq!(scheme.d(), cfg.d);
        assert_eq!(poll.n(), 128);
        assert_eq!(poll.d(), cfg.d);
        assert_eq!(poll.label_cardinality(), 128 * 128);
    }

    #[test]
    fn majority_is_strict() {
        let cfg = AerConfig::recommended(64).with_d(12);
        assert_eq!(cfg.majority(), 7);
        let cfg = cfg.with_d(13);
        assert_eq!(cfg.majority(), 7);
    }
}
