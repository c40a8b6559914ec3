//! Data-driven run descriptions: adversary and network specifications.
//!
//! A [`AdversarySpec`] names a Byzantine strategy as *data* — parseable
//! from the command line (`silent`, `flood`, `corner:512`, …), printable
//! back to the same grammar, and hashable into sweep grids — instead of a
//! concrete adversary struct wired by hand. The protocol crates register
//! constructors that turn a spec into a live adversary (see
//! `fba_core::adversary::AerAdversary::from_spec` for the AER registry);
//! this module owns only the specification language; the one strategy
//! every phase supports, [`SilentAdversary`], comes out of
//! [`AdversarySpec::generic`].
//!
//! [`NetworkSpec`] does the same for the timing model: `sync` or
//! `async:<max_delay>`.
//!
//! Grammar (round-trips through [`std::fmt::Display`] /
//! [`std::str::FromStr`]):
//!
//! | spec | strategy | parameters |
//! |---|---|---|
//! | `none` | no corruption | — |
//! | `silent` | fail-stop silence | `silent:<t>` overrides the fault budget |
//! | `random-flood` | blind push spraying | `random-flood:<rate>,<steps>` |
//! | `flood` | coherent push flooding of one bogus string | — |
//! | `equivocate` | per-victim fabrications | `equivocate:<strings>` |
//! | `pull-flood` | pull-request spraying | `pull-flood:<rate>,<steps>` |
//! | `bad-string` | full Lemma 7 campaign | — |
//! | `corner` | Lemma 6 cornering/overload | `corner:<label_scan>` |
//! | `sched` | composed fault schedule | `sched:[a..b]spec;[b..c]spec;…` |
//!
//! A **composed fault schedule** assigns a different strategy to each
//! step window: `sched:[0..5]silent:9;[5..12]flood;[12..]corner:512`
//! runs the silent adversary for steps 0–4, the push flood for steps
//! 5–11, and the cornering attack from step 12 on. The window rules —
//! half-open, non-empty, ordered and non-overlapping (gaps are fine: no
//! strategy acts there), only the last open-ended (`[12..]`) — and the
//! `[a..b]` syntax are [`Windows`]'s, shared with the `crash:`
//! family; a schedule adds that it has a window and does not nest
//! ([`ScheduleSpec`]). Protocol registries dispatch the active window's
//! strategy at each step (e.g. `fba_core::adversary::Composed` for AER).

use std::fmt;
use std::str::FromStr;

use crate::adversary::SilentAdversary;
use crate::ids::Step;
use crate::window::{Window, WindowError, Windows};

/// A composed fault schedule: one strategy per step window (see the
/// module docs for the grammar and `sched:` syntax).
///
/// Construction validates the window structure, so every value of this
/// type is well-formed: the window rules of [`Windows::schedule`], at
/// least one window, and no nested schedules.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ScheduleSpec {
    windows: Windows<AdversarySpec>,
}

impl ScheduleSpec {
    /// Builds a schedule from `(window, strategy)` pairs.
    ///
    /// # Errors
    ///
    /// Rejects empty schedules, nested schedules, and whatever
    /// [`Windows::schedule`] rejects.
    pub fn new(windows: Vec<(Window, AdversarySpec)>) -> Result<Self, WindowError> {
        if windows.is_empty() {
            return Err(WindowError::Rule("schedule has no windows".into()));
        }
        if let Some((w, _)) = windows
            .iter()
            .find(|(_, spec)| matches!(spec, AdversarySpec::Sched(_)))
        {
            return Err(WindowError::Rule(format!(
                "window {w} holds a schedule; schedules cannot nest"
            )));
        }
        Windows::schedule(windows).map(|windows| ScheduleSpec { windows })
    }

    /// The `(window, strategy)` pairs, in step order.
    #[must_use]
    pub fn windows(&self) -> &[(Window, AdversarySpec)] {
        &self.windows
    }
}

impl fmt::Display for ScheduleSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sched:{}", self.windows)
    }
}

/// A Byzantine strategy named as data (see the module docs for the
/// grammar). Protocol crates map specs to concrete adversaries; the
/// simulator itself can instantiate the protocol-independent subset via
/// [`AdversarySpec::generic`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum AdversarySpec {
    /// No node is corrupted (`none`).
    None,
    /// `t` corrupted nodes stay silent (`silent` / `silent:<t>`); `None`
    /// uses the scenario's fault budget.
    Silent {
        /// Explicit corruption count, overriding the scenario default.
        t: Option<usize>,
    },
    /// Blind flooding with fresh random strings
    /// (`random-flood:<rate>,<steps>`).
    RandomFlood {
        /// Pushes per corrupt node per step.
        rate: usize,
        /// Steps to keep flooding.
        steps: Step,
    },
    /// Coherent push flooding of one bogus string through legitimate
    /// quorum slots (`flood`).
    PushFlood,
    /// Equivocation: several fabricated strings per corrupt node
    /// (`equivocate:<strings>`).
    Equivocate {
        /// Distinct fabrications per corrupt node.
        strings: usize,
    },
    /// Pull-request spraying against the forward-once filter
    /// (`pull-flood:<rate>,<steps>`).
    PullFlood {
        /// Requests per corrupt node per step.
        rate: u64,
        /// Steps to keep flooding.
        steps: Step,
    },
    /// The full bad-string campaign: push, route, relay and answer for a
    /// coherent bogus string, rushing (`bad-string`).
    BadString,
    /// The cornering/overload attack under adversarial scheduling
    /// (`corner:<label_scan>`).
    Corner {
        /// Labels scanned per corrupt node when aiming poll lists.
        label_scan: u64,
    },
    /// A composed fault schedule: a different strategy per step window
    /// (`sched:[0..5]silent:9;[5..12]flood;[12..]corner:512`).
    Sched(ScheduleSpec),
}

/// Default rate for `random-flood` when no parameters are given.
const DEFAULT_FLOOD_RATE: usize = 16;
/// Default duration (steps) for `random-flood` / `pull-flood`.
const DEFAULT_FLOOD_STEPS: Step = 4;
/// Default fabrications per corrupt node for `equivocate`.
const DEFAULT_EQUIVOCATE_STRINGS: usize = 8;
/// Default per-node request rate for `pull-flood`.
const DEFAULT_PULL_FLOOD_RATE: u64 = 16;
/// Default label-scan budget for `corner`.
const DEFAULT_CORNER_SCAN: u64 = 256;

impl AdversarySpec {
    /// Every spec name with its parameter grammar and a one-line
    /// description — the registry backing CLI usage messages.
    pub const CATALOGUE: &'static [(&'static str, &'static str)] = &[
        ("none", "no corruption"),
        ("silent[:t]", "t corrupted nodes stay silent"),
        ("random-flood[:rate,steps]", "blind random-string pushing"),
        ("flood", "coherent push flooding of one bogus string"),
        ("equivocate[:strings]", "distinct fabrications per victim"),
        ("pull-flood[:rate,steps]", "pull-request spraying"),
        ("bad-string", "full campaign for a bogus string (rushing)"),
        ("corner[:label_scan]", "cornering/overload attack (rushing)"),
        (
            "sched:[a..b]spec;[b..]spec",
            "composed fault schedule: one strategy per step window",
        ),
    ];

    /// Instantiates the protocol-independent subset for the phases that
    /// field nothing else (the almost-everywhere substrate, the
    /// baselines): `silent[:t]`, and `none` as silence with a budget of 0.
    /// `None` for protocol-specific strategies. `default_t` is the
    /// corruption count used when the spec does not carry its own.
    #[must_use]
    pub fn generic(&self, default_t: usize) -> Option<SilentAdversary> {
        match self {
            AdversarySpec::None => Some(SilentAdversary::new(0)),
            AdversarySpec::Silent { t } => Some(SilentAdversary::new(t.unwrap_or(default_t))),
            _ => None,
        }
    }
}

impl fmt::Display for AdversarySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdversarySpec::None => write!(f, "none"),
            AdversarySpec::Silent { t: None } => write!(f, "silent"),
            AdversarySpec::Silent { t: Some(t) } => write!(f, "silent:{t}"),
            AdversarySpec::RandomFlood { rate, steps } => {
                write!(f, "random-flood:{rate},{steps}")
            }
            AdversarySpec::PushFlood => write!(f, "flood"),
            AdversarySpec::Equivocate { strings } => write!(f, "equivocate:{strings}"),
            AdversarySpec::PullFlood { rate, steps } => write!(f, "pull-flood:{rate},{steps}"),
            AdversarySpec::BadString => write!(f, "bad-string"),
            AdversarySpec::Corner { label_scan } => write!(f, "corner:{label_scan}"),
            AdversarySpec::Sched(schedule) => write!(f, "{schedule}"),
        }
    }
}

/// A malformed [`AdversarySpec`] / [`NetworkSpec`] string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseSpecError {
    /// The offending input.
    pub input: String,
    /// What a valid spec looks like.
    pub expected: &'static str,
}

impl fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown spec `{}` (expected {})",
            self.input, self.expected
        )
    }
}

impl std::error::Error for ParseSpecError {}

fn spec_error(input: &str, expected: &'static str) -> ParseSpecError {
    ParseSpecError {
        input: input.to_string(),
        expected,
    }
}

/// Splits `name[:params]`, then `params` on commas.
///
/// Rejects (returns `None` for) malformed shapes the grammar must not
/// silently accept: a trailing colon with no parameters (`silent:`), a
/// trailing or doubled comma yielding an empty parameter (`silent:9,`),
/// and embedded whitespace anywhere in the spec (`silent: 9`). Callers
/// turn `None` into the usual usage error.
fn split_spec(s: &str) -> Option<(&str, Vec<&str>)> {
    if s.is_empty() || s.chars().any(char::is_whitespace) {
        return None;
    }
    match s.split_once(':') {
        Some((name, params)) => {
            let params: Vec<&str> = params.split(',').collect();
            if params.iter().any(|p| p.is_empty()) {
                return None;
            }
            Some((name, params))
        }
        None => Some((s, Vec::new())),
    }
}

const ADVERSARY_EXPECTED: &str =
    "none | silent[:t] | random-flood[:rate,steps] | flood | equivocate[:strings] | \
     pull-flood[:rate,steps] | bad-string | corner[:label_scan] | \
     sched:[a..b]spec;[b..]spec (windows ordered, non-overlapping, only the last open)";

impl FromStr for AdversarySpec {
    type Err = ParseSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || spec_error(s, ADVERSARY_EXPECTED);
        // `sched:` bodies contain colons and commas of their inner specs,
        // so they bypass the name/params split.
        if let Some(body) = s.strip_prefix("sched:") {
            if body.chars().any(char::is_whitespace) {
                return Err(err());
            }
            // Inner specs parse through the full grammar; nesting is
            // rejected by `ScheduleSpec::new`.
            return Window::parse_list(body, |spec| spec.parse().ok())
                .and_then(|windows| ScheduleSpec::new(windows).ok())
                .map(AdversarySpec::Sched)
                .ok_or_else(err);
        }
        let (name, params) = split_spec(s).ok_or_else(err)?;
        let parse_one = |params: &[&str]| -> Result<u64, ParseSpecError> {
            match params {
                [v] => Window::parse_number(v).ok_or_else(err),
                _ => Err(err()),
            }
        };
        let parse_two = |params: &[&str]| -> Result<(u64, u64), ParseSpecError> {
            match params {
                [a, b] => Ok((
                    Window::parse_number(a).ok_or_else(err)?,
                    Window::parse_number(b).ok_or_else(err)?,
                )),
                _ => Err(err()),
            }
        };
        match (name, params.as_slice()) {
            ("none", []) => Ok(AdversarySpec::None),
            ("silent", []) => Ok(AdversarySpec::Silent { t: None }),
            ("silent", p) => Ok(AdversarySpec::Silent {
                t: Some(parse_one(p)? as usize),
            }),
            ("random-flood", []) => Ok(AdversarySpec::RandomFlood {
                rate: DEFAULT_FLOOD_RATE,
                steps: DEFAULT_FLOOD_STEPS,
            }),
            ("random-flood", p) => {
                let (rate, steps) = parse_two(p)?;
                Ok(AdversarySpec::RandomFlood {
                    rate: rate as usize,
                    steps,
                })
            }
            ("flood" | "push-flood", []) => Ok(AdversarySpec::PushFlood),
            ("equivocate", []) => Ok(AdversarySpec::Equivocate {
                strings: DEFAULT_EQUIVOCATE_STRINGS,
            }),
            ("equivocate", p) => Ok(AdversarySpec::Equivocate {
                strings: parse_one(p)? as usize,
            }),
            ("pull-flood", []) => Ok(AdversarySpec::PullFlood {
                rate: DEFAULT_PULL_FLOOD_RATE,
                steps: DEFAULT_FLOOD_STEPS,
            }),
            ("pull-flood", p) => {
                let (rate, steps) = parse_two(p)?;
                Ok(AdversarySpec::PullFlood { rate, steps })
            }
            ("bad-string", []) => Ok(AdversarySpec::BadString),
            ("corner", []) => Ok(AdversarySpec::Corner {
                label_scan: DEFAULT_CORNER_SCAN,
            }),
            ("corner", p) => Ok(AdversarySpec::Corner {
                label_scan: parse_one(p)?,
            }),
            _ => Err(err()),
        }
    }
}

/// The timing model of a run, as data: `sync` or `async:<max_delay>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NetworkSpec {
    /// Synchronous timing: every message is delivered the next step.
    Sync,
    /// Asynchronous timing: the adversary may delay deliveries up to
    /// `max_delay` steps and reorder within steps.
    Async {
        /// The reliability bound on adversarial delay (≥ 1).
        max_delay: Step,
    },
}

impl NetworkSpec {
    /// The delay bound: 1 for synchronous timing.
    #[must_use]
    pub fn max_delay(&self) -> Step {
        match self {
            NetworkSpec::Sync => 1,
            NetworkSpec::Async { max_delay } => (*max_delay).max(1),
        }
    }
}

impl fmt::Display for NetworkSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkSpec::Sync => write!(f, "sync"),
            NetworkSpec::Async { max_delay } => write!(f, "async:{max_delay}"),
        }
    }
}

impl FromStr for NetworkSpec {
    type Err = ParseSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let expected = "sync | async[:max_delay]";
        let (name, params) = split_spec(s).ok_or_else(|| spec_error(s, expected))?;
        match (name, params.as_slice()) {
            ("sync", []) => Ok(NetworkSpec::Sync),
            ("async", []) => Ok(NetworkSpec::Async { max_delay: 1 }),
            ("async", [d]) => {
                let max_delay: Step =
                    Window::parse_number(d).ok_or_else(|| spec_error(s, expected))?;
                if max_delay == 0 {
                    return Err(spec_error(s, expected));
                }
                Ok(NetworkSpec::Async { max_delay })
            }
            _ => Err(spec_error(s, expected)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The strategy catalogue — every row parses bare and parameterised,
    // round-trips, and builds — is one table in
    // `crates/bench/tests/catalogue.rs`; the window rules are one property
    // in `crates/recovery/tests/spec_roundtrip.rs`. Here: what the
    // grammar must refuse, and what a schedule adds to its windows.

    #[test]
    fn malformed_adversaries_are_rejected() {
        for bad in ["martian", "silent:x", "random-flood:1", "corner:1,2", ""] {
            assert!(bad.parse::<AdversarySpec>().is_err(), "{bad}");
        }
        let err = "martian".parse::<AdversarySpec>().unwrap_err();
        assert!(err.to_string().contains("martian"));
        assert!(err.to_string().contains("corner"));
        assert_eq!(
            "push-flood".parse::<AdversarySpec>().unwrap(),
            AdversarySpec::PushFlood,
            "flood alias"
        );
    }

    #[test]
    fn trailing_empty_and_signed_params_are_rejected() {
        // The split_spec hardening: these used to reach the per-name
        // parameter matchers (or worse, pass an empty parameter through);
        // all must fail with the usage error now. A sign would parse and
        // print back without it.
        for bad in [
            "silent:",
            "silent:9,",
            "silent:,9",
            "silent: 9",
            " silent",
            "silent ",
            "silent\t:9",
            "silent:+9",
            "silent:-9",
            "random-flood:16,,4",
            "random-flood:+16,4",
            "pull-flood:16,4,",
            "pull-flood:16,+4",
            "corner:",
            "corner:+64",
            "none:",
            "flood:",
        ] {
            assert!(bad.parse::<AdversarySpec>().is_err(), "{bad:?} must fail");
        }
        for bad in [
            "async:", "async:2,", "sync ", " sync", "async: 2", "async:+2",
        ] {
            assert!(bad.parse::<NetworkSpec>().is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn schedules_round_trip_display_and_parse() {
        let sched = AdversarySpec::Sched(
            ScheduleSpec::new(vec![
                (Window::bounded(0, 5), AdversarySpec::Silent { t: Some(9) }),
                (Window::bounded(5, 12), AdversarySpec::PushFlood),
                (Window::open(12), AdversarySpec::Corner { label_scan: 512 }),
            ])
            .expect("valid schedule"),
        );
        let shown = sched.to_string();
        assert_eq!(shown, "sched:[0..5]silent:9;[5..12]flood;[12..]corner:512");
        assert_eq!(shown.parse::<AdversarySpec>().unwrap(), sched);

        // Single open window, parameterless inner spec.
        let single = "sched:[0..]bad-string".parse::<AdversarySpec>().unwrap();
        let AdversarySpec::Sched(schedule) = &single else {
            panic!("expected a schedule");
        };
        assert_eq!(
            schedule.windows(),
            [(Window::open(0), AdversarySpec::BadString)]
        );
        assert_eq!(single.to_string().parse::<AdversarySpec>().unwrap(), single);

        // Gaps between windows are allowed (no strategy acts there).
        let gapped = "sched:[0..2]flood;[7..9]silent".parse::<AdversarySpec>();
        assert!(gapped.is_ok(), "gaps are valid: {gapped:?}");
    }

    #[test]
    fn invalid_schedules_are_rejected() {
        // A schedule's own two rules, on top of its windows'…
        assert!(matches!(
            ScheduleSpec::new(Vec::new()),
            Err(WindowError::Rule(_))
        ));
        let inner = ScheduleSpec::new(vec![(Window::open(0), AdversarySpec::None)]).unwrap();
        assert!(matches!(
            ScheduleSpec::new(vec![(Window::open(0), AdversarySpec::Sched(inner))]),
            Err(WindowError::Rule(_))
        ));
        assert_eq!(
            ScheduleSpec::new(vec![(Window::bounded(3, 3), AdversarySpec::None)]).unwrap_err(),
            WindowError::Empty(Window::bounded(3, 3))
        );

        // …and every shape (plus syntax noise) through the parser.
        for bad in [
            "sched:",
            "sched:[0..5]",
            "sched:[0..5]martian",
            "sched:[5..5]silent",
            "sched:[0..5]silent;[3..8]flood", // overlapping
            "sched:[5..9]silent;[0..3]flood", // unordered
            "sched:[0..]silent;[9..12]flood", // open window not last
            "sched:[0..5]silent:;[5..]flood", // inner trailing colon
            "sched:[0..5]sched:[0..2]silent", // nested
            "sched:[0..5] silent",            // whitespace
            "sched:[a..5]silent",             // non-numeric bound
            "sched:[+0..5]silent",            // signed bound
            "sched:[0..+5]silent",            // signed bound
            "sched:[0..5]silent:+9",          // signed inner parameter
            "sched:0..5silent",               // missing brackets
            "sched:[0..5]silent;;[5..]flood", // empty window entry
        ] {
            assert!(bad.parse::<AdversarySpec>().is_err(), "{bad:?} must fail");
        }
        let err = "sched:[0..5]silent;[3..8]flood"
            .parse::<AdversarySpec>()
            .unwrap_err();
        assert!(err.to_string().contains("sched"), "{err}");
    }

    #[test]
    fn network_specs_round_trip() {
        for spec in [
            NetworkSpec::Sync,
            NetworkSpec::Async { max_delay: 1 },
            NetworkSpec::Async { max_delay: 3 },
        ] {
            assert_eq!(spec.to_string().parse::<NetworkSpec>().unwrap(), spec);
        }
        assert_eq!(
            "async".parse::<NetworkSpec>().unwrap(),
            NetworkSpec::Async { max_delay: 1 }
        );
        assert!("async:0".parse::<NetworkSpec>().is_err());
        assert!("bluetooth".parse::<NetworkSpec>().is_err());
        assert_eq!(NetworkSpec::Sync.max_delay(), 1);
        assert_eq!(NetworkSpec::Async { max_delay: 4 }.max_delay(), 4);
    }

    #[test]
    fn generic_covers_exactly_the_protocol_independent_specs() {
        assert_eq!(AdversarySpec::None.generic(3).map(|s| s.t), Some(0));
        let silent = |t| AdversarySpec::Silent { t };
        assert_eq!(silent(Some(5)).generic(3).map(|s| s.t), Some(5));
        assert_eq!(silent(None).generic(3).map(|s| s.t), Some(3));
        assert!(AdversarySpec::PushFlood.generic(3).is_none());
        assert!(AdversarySpec::BadString.generic(3).is_none());
    }
}
