//! The `crash:` spec grammar: crash–restart fault schedules as data.
//!
//! `crash:[3..7]64` crashes 64 sampled honest nodes at the start of step
//! 3 and restarts them at the start of step 7; `;`-separated windows
//! chain outages. The windows are the `sched:` grammar's
//! ([`fba_sim::Windows`]: one syntax, one validator) under the outage
//! rules — ordered, non-overlapping, non-empty, *closed* (a crashed node
//! must come back; `[3..]` is malformed) and not starting at step 0
//! (every node runs `on_start`) — and the payload is a victim count ≥ 1.
//!
//! A [`CrashSpec`] is pure data: *which* nodes crash is resolved only when
//! the spec meets a concrete system size and seed in
//! [`CrashSpec::resolve`], which samples each window's victims from a
//! domain-separated stream ([`fba_sim::rng::TAG_CRASH`], per-window
//! tagged) — so a crashed run is reproducible from `(seed, spec)` alone,
//! and the same `(seed, spec)` pair pins the same victims across every
//! instance of a service run.

use std::fmt;
use std::str::FromStr;

use fba_sim::rng::{derive_rng, TAG_CRASH};
use fba_sim::{choose_corrupt, CrashPlan, ParseSpecError, Step, Window, WindowError, Windows};

/// What a valid `crash:` spec looks like; used in parse errors and the
/// `paperbench` usage text.
pub const CRASH_EXPECTED: &str =
    "crash:[start..end]count[;[start..end]count…] with start ≥ 1, end > start, count ≥ 1, \
     windows ordered and non-overlapping";

/// A validated crash–restart schedule: outage windows, each crashing a
/// positive number of nodes sampled at resolution time.
///
/// The programmatic constructor accepts an empty window list (the
/// no-fault baseline — resolving it yields an empty [`CrashPlan`], pinned
/// bit-identical to running with no plan at all); the *grammar* does not:
/// `crash:` with an empty body is malformed, mirroring `sched:`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrashSpec {
    windows: Windows<usize>,
}

impl CrashSpec {
    /// Builds a spec from `(window, victim count)` pairs.
    ///
    /// # Errors
    ///
    /// Whatever [`Windows::outages`] rejects, and a count of zero.
    pub fn new(windows: Vec<(Window, usize)>) -> Result<Self, WindowError> {
        let windows = Windows::outages(windows)?;
        match windows.iter().find(|(_, count)| *count == 0) {
            Some((w, _)) => Err(WindowError::Rule(format!("window {w}0 crashes zero nodes"))),
            None => Ok(CrashSpec { windows }),
        }
    }

    /// The empty spec: no outages, the no-fault baseline.
    #[must_use]
    pub fn none() -> Self {
        CrashSpec::default()
    }

    /// The `(window, victim count)` pairs, in time order.
    #[must_use]
    pub fn windows(&self) -> &[(Window, usize)] {
        &self.windows
    }

    /// Whether the spec schedules no outages.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The last restart step, or `None` for an empty spec. Runs need at
    /// least this many steps of headroom to bring every victim back.
    #[must_use]
    pub fn last_restart(&self) -> Option<Step> {
        self.windows.last().and_then(|(w, _)| w.end)
    }

    /// Resolves the spec against a concrete system: samples each window's
    /// victims from the domain-separated stream
    /// `derive_rng(seed, [TAG_CRASH, window_index])` and returns the
    /// engine-facing [`CrashPlan`]. Deterministic: the same `(n, seed,
    /// spec)` always yields the same plan.
    ///
    /// # Errors
    ///
    /// Names the first window whose count exceeds `n`; the seed cannot
    /// make a spec unresolvable.
    pub fn resolve(&self, n: usize, seed: u64) -> Result<CrashPlan, WindowError> {
        let outages = self.windows.iter().enumerate().map(|(index, &(w, count))| {
            if count > n {
                return Err(WindowError::Rule(format!(
                    "window {w}{count} crashes {count} nodes but the system only has {n}"
                )));
            }
            let mut rng = derive_rng(seed, &[TAG_CRASH, index as u64]);
            Ok((w, choose_corrupt(n, count, &mut rng).into_iter().collect()))
        });
        CrashPlan::new(outages.collect::<Result<_, _>>()?)
    }
}

impl fmt::Display for CrashSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "crash:{}", self.windows)
    }
}

impl FromStr for CrashSpec {
    type Err = ParseSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.strip_prefix("crash:")
            .and_then(|body| Window::parse_list(body, Window::parse_number))
            .and_then(|windows| CrashSpec::new(windows).ok())
            .ok_or_else(|| ParseSpecError {
                input: s.to_string(),
                expected: CRASH_EXPECTED,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips() {
        for raw in ["crash:[3..7]64", "crash:[1..2]1;[5..9]16;[9..12]4"] {
            let spec: CrashSpec = raw.parse().unwrap();
            assert_eq!(spec.to_string(), raw);
            let reparsed: CrashSpec = spec.to_string().parse().unwrap();
            assert_eq!(spec, reparsed);
        }
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for raw in [
            "crash:",                // empty body
            "crash",                 // no colon
            "sched:[1..2]1",         // wrong family
            "crash:[0..5]4",         // starts at step 0
            "crash:[5..5]4",         // empty window
            "crash:[7..5]4",         // inverted window
            "crash:[1..5]0",         // zero nodes
            "crash:[3..]4",          // open window
            "crash:[1..4]2;[3..8]2", // overlap
            "crash:[5..8]2;[1..3]2", // out of order
            "crash:[1..4]2;",        // trailing separator
            "crash:[ 1..4]2",        // whitespace
            "crash:[1..4] 2",        // whitespace
            "crash:[1..4]+2",        // sign
            "crash:[+1..4]2",        // sign
            "crash:[a..4]2",         // non-numeric
            "crash:[1..4]",          // missing count
            "crash:1..4]2",          // missing bracket
        ] {
            assert!(raw.parse::<CrashSpec>().is_err(), "{raw} must be rejected");
        }
    }

    #[test]
    fn empty_spec_is_programmatic_only() {
        let none = CrashSpec::none();
        assert!(none.is_empty());
        assert_eq!(none.to_string(), "crash:");
        assert!("crash:".parse::<CrashSpec>().is_err());
        let plan = none.resolve(64, 7).unwrap();
        assert!(plan.is_empty());
    }

    #[test]
    fn resolve_is_deterministic_and_seed_sensitive() {
        let spec: CrashSpec = "crash:[2..6]8;[9..12]4".parse().unwrap();
        let a = spec.resolve(64, 42).unwrap();
        let b = spec.resolve(64, 42).unwrap();
        assert_eq!(a, b);
        let c = spec.resolve(64, 43).unwrap();
        assert_ne!(a, c, "a different seed draws different victims");
        let shape: Vec<_> = a
            .outages()
            .map(|(s, e, nodes)| (s, e, nodes.len()))
            .collect();
        assert_eq!(shape, [(2, 6, 8), (9, 12, 4)]);
    }

    #[test]
    fn resolve_uses_independent_streams_per_window() {
        let spec: CrashSpec = "crash:[1..3]8;[5..7]8".parse().unwrap();
        let plan = spec.resolve(256, 3).unwrap();
        let victims: Vec<_> = plan.outages().map(|(_, _, nodes)| nodes).collect();
        assert_ne!(
            victims[0], victims[1],
            "distinct window tags draw distinct victim sets"
        );
    }

    #[test]
    fn resolve_rejects_oversized_counts() {
        let spec: CrashSpec = "crash:[1..3]65".parse().unwrap();
        let err = spec.resolve(64, 1).unwrap_err();
        assert_eq!(
            err.to_string(),
            "window [1..3]65 crashes 65 nodes but the system only has 64"
        );
        assert!(CrashSpec::new(vec![(Window::bounded(1, 3), 0)]).is_err());
    }
}
