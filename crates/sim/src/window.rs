//! Step windows: the one vocabulary both fault families speak.
//!
//! A fault schedule says *what happens over which steps*: which Byzantine
//! strategy is live (`sched:`, [`crate::ScheduleSpec`]) or which correct
//! nodes are dark (`crash:`, [`crate::CrashPlan`] and
//! `fba_recovery::CrashSpec`). Both are a [`Windows<T>`]: half-open step
//! windows `[start..end)`, each carrying a payload `T`, checked by one
//! constructor, printed by one `Display` and read by one parser
//! ([`Window::parse_list`]).
//!
//! The rules, checked window by window in list order, the first violated
//! one named by the [`WindowError`]:
//!
//! 1. *(outages only)* a window is closed and starts at step 1 or later —
//!    a crashed node must come back, and every node runs `on_start`;
//! 2. nothing follows an open-ended window `[a..]`;
//! 3. a window starts at or after the end of the one before it (ordered,
//!    non-overlapping; gaps and touching windows are fine);
//! 4. a window covers at least one step.
//!
//! An empty list is valid here (the no-fault baseline of the crash
//! family); a family that needs a window, a payload that must not nest or
//! a victim count that must fit the system adds that rule on top and
//! reports it as [`WindowError::Rule`].

use std::fmt;
use std::ops::Deref;
use std::str::FromStr;

use crate::ids::Step;

/// A step window: half-open `[start..end)`, or open-ended `[start..]`
/// when `end` is `None`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Window {
    /// First step (inclusive) the window covers.
    pub start: Step,
    /// First step past the window (exclusive); `None` = to the end of
    /// the run.
    pub end: Option<Step>,
}

impl Window {
    /// A bounded window `[start..end)`.
    #[must_use]
    pub fn bounded(start: Step, end: Step) -> Self {
        Window {
            start,
            end: Some(end),
        }
    }

    /// An open-ended window `[start..]`.
    #[must_use]
    pub fn open(start: Step) -> Self {
        Window { start, end: None }
    }

    /// Whether `step` falls inside the window.
    #[must_use]
    pub fn contains(&self, step: Step) -> bool {
        step >= self.start && self.end.is_none_or(|end| step < end)
    }

    /// The spec grammar's one number parser: ASCII digits only. No sign,
    /// no whitespace, not empty — `Display` prints numbers back bare, so
    /// anything else would not round-trip.
    #[must_use]
    pub fn parse_number<T: FromStr>(text: &str) -> Option<T> {
        if text.is_empty() || !text.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        text.parse().ok()
    }

    /// Parses the body both fault grammars share,
    /// `[a..b]payload;[b..c]payload;[c..]payload`, handing each window's
    /// trailing text to `payload`. Purely syntactic: the window rules are
    /// the constructors' ([`Windows::schedule`], [`Windows::outages`]).
    #[must_use]
    pub fn parse_list<T>(
        body: &str,
        payload: impl Fn(&str) -> Option<T>,
    ) -> Option<Vec<(Window, T)>> {
        body.split(';')
            .map(|part| {
                let (range, rest) = part.strip_prefix('[')?.split_once(']')?;
                let (start, end) = range.split_once("..")?;
                let end = match end {
                    "" => None,
                    end => Some(Window::parse_number(end)?),
                };
                let start = Window::parse_number(start)?;
                Some((Window { start, end }, payload(rest)?))
            })
            .collect()
    }
}

impl fmt::Display for Window {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.end {
            Some(end) => write!(f, "[{}..{}]", self.start, end),
            None => write!(f, "[{}..]", self.start),
        }
    }
}

/// Why a window list was rejected: the first rule violated (see the
/// module docs for the order) and the window that violated it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WindowError {
    /// An outage window is open-ended (rule 1).
    Open(Window),
    /// An outage window starts at step 0 (rule 1).
    StartsAtZero(Window),
    /// The window follows an open-ended one, which must be last (rule 2).
    AfterOpen(Window),
    /// The window starts before the previous one ends: overlapping or
    /// out of order (rule 3).
    Unordered(Window),
    /// The window covers no steps, `end <= start` (rule 4).
    Empty(Window),
    /// A rule the fault family adds to the window rules — a schedule
    /// with no windows or a nested one, an outage of zero nodes or of
    /// more than the system has — in words.
    Rule(String),
}

impl fmt::Display for WindowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WindowError::Open(w) => write!(f, "window {w} never ends; an outage must restart"),
            WindowError::StartsAtZero(w) => write!(
                f,
                "window {w} starts at step 0; an outage starts at step 1 or later (every node \
                 runs on_start first)"
            ),
            WindowError::AfterOpen(w) => write!(f, "window {w} follows an open-ended window"),
            WindowError::Unordered(w) => {
                write!(f, "window {w} overlaps or precedes an earlier window")
            }
            WindowError::Empty(w) => write!(f, "window {w} covers no steps"),
            WindowError::Rule(why) => write!(f, "{why}"),
        }
    }
}

impl std::error::Error for WindowError {}

/// A validated window list: every value satisfies the rules of the module
/// docs. Reads as a slice of `(window, payload)` pairs in step order.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Windows<T>(Vec<(Window, T)>);

impl<T> Windows<T> {
    /// Windows of a behaviour schedule: ordered, non-overlapping,
    /// non-empty, only the last may be open-ended.
    ///
    /// # Errors
    ///
    /// Names the first rule violated.
    pub fn schedule(windows: Vec<(Window, T)>) -> Result<Self, WindowError> {
        Self::checked(windows, false)
    }

    /// Windows of outages: as [`Windows::schedule`], and every window
    /// closed and starting at step 1 or later.
    ///
    /// # Errors
    ///
    /// Names the first rule violated.
    pub fn outages(windows: Vec<(Window, T)>) -> Result<Self, WindowError> {
        Self::checked(windows, true)
    }

    fn checked(windows: Vec<(Window, T)>, outages: bool) -> Result<Self, WindowError> {
        // Exclusive end of the previous window; `None` once an open-ended
        // window has been seen.
        let mut prev_end: Option<Step> = Some(0);
        for &(w, _) in &windows {
            if outages && w.end.is_none() {
                return Err(WindowError::Open(w));
            }
            if outages && w.start == 0 {
                return Err(WindowError::StartsAtZero(w));
            }
            let Some(prev) = prev_end else {
                return Err(WindowError::AfterOpen(w));
            };
            if w.start < prev {
                return Err(WindowError::Unordered(w));
            }
            if w.end.is_some_and(|end| end <= w.start) {
                return Err(WindowError::Empty(w));
            }
            prev_end = w.end;
        }
        Ok(Windows(windows))
    }
}

impl<T> Default for Windows<T> {
    fn default() -> Self {
        Windows(Vec::new())
    }
}

impl<T> Deref for Windows<T> {
    type Target = [(Window, T)];

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

/// `[a..b]payload;[b..]payload`: what [`Window::parse_list`] reads.
impl<T: fmt::Display> fmt::Display for Windows<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (w, payload)) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ";")?;
            }
            write!(f, "{w}{payload}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Which lists the constructors accept is one property over random
    // lists, for both families: `crates/recovery/tests/spec_roundtrip.rs`.

    #[test]
    fn windows_are_half_open() {
        assert!(Window::bounded(2, 4).contains(2));
        assert!(!Window::bounded(2, 4).contains(4));
        assert!(!Window::open(5).contains(4));
        assert!(Window::open(5).contains(Step::MAX));
    }

    #[test]
    fn numbers_are_digits_only() {
        assert_eq!(Window::parse_number::<u64>("042"), Some(42));
        for bad in ["", "+2", "-2", " 2", "2 ", "2_0", "0x2", "٢"] {
            assert_eq!(Window::parse_number::<u64>(bad), None, "{bad:?}");
        }
        assert_eq!(Window::parse_number::<u8>("256"), None, "overflow");
    }

    #[test]
    fn a_list_prints_what_it_parses() {
        let text = "[1..3]7;[3..9]1;[12..]4";
        let windows = Window::parse_list(text, Window::parse_number::<u32>).expect("parses");
        assert_eq!(windows[2], (Window::open(12), 4));
        let windows = Windows::schedule(windows).expect("ordered");
        assert_eq!(windows.to_string(), text);
        assert!(matches!(
            Windows::outages(windows.to_vec()),
            Err(WindowError::Open(w)) if w == Window::open(12)
        ));
    }
}
