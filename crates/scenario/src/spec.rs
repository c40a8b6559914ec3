//! The data-level phase grammar: which protocol a scenario runs
//! ([`Phase`], [`Baseline`]), from what starting state
//! ([`PreconditionSpec`]), and how `poll_timeout` derives
//! ([`PollTimeoutSpec`]).

use std::fmt;
use std::str::FromStr;

use fba_ae::UnknowingAssignment;
use fba_sim::ParseSpecError;

/// How the AER precondition is synthesised (the §2.1 postcondition of the
/// almost-everywhere phase, injected directly).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PreconditionSpec {
    /// Fraction of nodes that start knowing `gstring`.
    pub knowing: f64,
    /// What the remaining nodes hold.
    pub assignment: UnknowingAssignment,
}

impl Default for PreconditionSpec {
    fn default() -> Self {
        PreconditionSpec {
            knowing: 0.8,
            assignment: UnknowingAssignment::RandomPerNode,
        }
    }
}

impl PreconditionSpec {
    /// A spec with knowledge fraction `knowing` and random junk at the
    /// unknowing nodes.
    #[must_use]
    pub fn knowing(knowing: f64) -> Self {
        PreconditionSpec {
            knowing,
            ..Self::default()
        }
    }

    /// A spec with knowledge fraction `knowing` and the given unknowing
    /// assignment mode.
    #[must_use]
    pub fn new(knowing: f64, assignment: UnknowingAssignment) -> Self {
        PreconditionSpec {
            knowing,
            assignment,
        }
    }
}

/// Which protocol (composition) the scenario executes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Phase {
    /// AER alone, on a synthetic precondition.
    Aer {
        /// The precondition synthesis parameters.
        precondition: PreconditionSpec,
    },
    /// The almost-everywhere committee-tree phase alone.
    Ae,
    /// The paper's headline composition: almost-everywhere phase, then
    /// AER on its output.
    Composed,
    /// One of the Figure 1 comparison protocols.
    Baseline(Baseline),
}

impl Phase {
    /// `Phase::Aer` with knowledge fraction `knowing` and random junk at
    /// unknowing nodes.
    #[must_use]
    pub fn aer(knowing: f64) -> Self {
        Phase::Aer {
            precondition: PreconditionSpec::knowing(knowing),
        }
    }

    /// `Phase::Aer` with an explicit unknowing-assignment mode.
    #[must_use]
    pub fn aer_with(knowing: f64, assignment: UnknowingAssignment) -> Self {
        Phase::Aer {
            precondition: PreconditionSpec::new(knowing, assignment),
        }
    }

    /// The phase grammar for CLI usage messages.
    pub const EXPECTED: &'static str =
        "aer | ae | composed | baseline:{klst|flood|benor|phase-king}";

    /// A static name for error messages.
    #[must_use]
    pub fn phase_name(&self) -> &'static str {
        match self {
            Phase::Aer { .. } => "aer",
            Phase::Ae => "almost-everywhere",
            Phase::Composed => "composed",
            Phase::Baseline(_) => "baseline",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Aer { .. } => write!(f, "aer"),
            Phase::Ae => write!(f, "ae"),
            Phase::Composed => write!(f, "composed"),
            Phase::Baseline(b) => write!(f, "baseline:{b}"),
        }
    }
}

impl FromStr for Phase {
    type Err = ParseSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseSpecError {
            input: s.to_string(),
            expected: Phase::EXPECTED,
        };
        match s {
            "aer" => Ok(Phase::Aer {
                precondition: PreconditionSpec::default(),
            }),
            "ae" => Ok(Phase::Ae),
            "composed" => Ok(Phase::Composed),
            _ => {
                let name = s.strip_prefix("baseline:").ok_or_else(err)?;
                match name {
                    "klst" => Ok(Phase::Baseline(Baseline::Klst {
                        precondition: PreconditionSpec::default(),
                    })),
                    "flood" => Ok(Phase::Baseline(Baseline::Flood {
                        precondition: PreconditionSpec::default(),
                    })),
                    "benor" => Ok(Phase::Baseline(Baseline::BenOr)),
                    "phase-king" => Ok(Phase::Baseline(Baseline::PhaseKing)),
                    _ => Err(err()),
                }
            }
        }
    }
}

/// The Figure 1 comparison protocols.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Baseline {
    /// KLST11-style load-balanced almost-everywhere → everywhere
    /// diffusion.
    Klst {
        /// The shared starting state (same shape as AER's).
        precondition: PreconditionSpec,
    },
    /// Flooding diffusion.
    Flood {
        /// The shared starting state.
        precondition: PreconditionSpec,
    },
    /// Ben-Or's randomized binary agreement. Inputs are seed-derived
    /// draws, `true` with probability 0.9 per node (worst-case Ben-Or is
    /// exponential, and 50/50 inputs stall at the sizes `fig1b` runs).
    BenOr,
    /// Phase-King deterministic agreement. Inputs are seed-derived
    /// uniform random bits.
    PhaseKing,
}

impl fmt::Display for Baseline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Baseline::Klst { .. } => write!(f, "klst"),
            Baseline::Flood { .. } => write!(f, "flood"),
            Baseline::BenOr => write!(f, "benor"),
            Baseline::PhaseKing => write!(f, "phase-king"),
        }
    }
}

/// How the AER `poll_timeout` is derived for this scenario.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PollTimeoutSpec {
    /// Use the [`AerConfig`](fba_core::AerConfig) value unchanged (the synchronous delivery
    /// horizon) — the pre-builder behaviour, and the default.
    #[default]
    Config,
    /// Scale the synchronous horizon by the network's delay bound
    /// (`sync_poll_horizon × max_delay`), so asynchronous scenarios wait
    /// one *asynchronous* delivery horizon before repair instead of
    /// firing redundant repair queries into delayed traffic. No-op under
    /// [`NetworkSpec::Sync`](fba_sim::NetworkSpec::Sync).
    DelayScaled,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_grammar_parses_and_displays() {
        for (text, want) in [
            ("aer", "aer"),
            ("ae", "ae"),
            ("composed", "composed"),
            ("baseline:klst", "baseline:klst"),
            ("baseline:flood", "baseline:flood"),
            ("baseline:benor", "baseline:benor"),
            ("baseline:phase-king", "baseline:phase-king"),
        ] {
            let phase: Phase = text.parse().expect(text);
            assert_eq!(phase.to_string(), want);
        }
        assert!("baseline:raft".parse::<Phase>().is_err());
        assert!("tcp".parse::<Phase>().is_err());
    }
}
