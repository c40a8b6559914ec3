//! Property tests for the window vocabulary both fault grammars share
//! (`sched:` and `crash:` over `fba_sim::Windows`), and the crash-only
//! contract on top: victims are a pure function of `(n, seed, spec)`.

use fba_recovery::CrashSpec;
use fba_sim::{AdversarySpec, ScheduleSpec, Step, Window, WindowError};
use proptest::collection;
use proptest::prelude::*;

/// Arbitrary window lists — most of them invalid somewhere: small bounds
/// so that overlaps, empty windows, step-0 starts and mid-list open
/// windows all turn up.
fn any_windows() -> impl Strategy<Value = Vec<Window>> {
    let window = (0u64..12, 0u64..14).prop_map(|(start, end)| Window {
        start,
        end: (end < 12).then_some(end),
    });
    collection::vec(window, 1..5)
}

/// The window rules, restated: the first violated rule over the list, in
/// the order the `Windows` docs give.
fn first_violation(windows: &[Window], outages: bool) -> Option<WindowError> {
    let mut prev_end: Option<Step> = Some(0);
    for &w in windows {
        if outages && w.end.is_none() {
            return Some(WindowError::Open(w));
        }
        if outages && w.start == 0 {
            return Some(WindowError::StartsAtZero(w));
        }
        match prev_end {
            None => return Some(WindowError::AfterOpen(w)),
            Some(prev) if w.start < prev => return Some(WindowError::Unordered(w)),
            Some(_) if w.end.is_some_and(|end| end <= w.start) => {
                return Some(WindowError::Empty(w))
            }
            Some(_) => prev_end = w.end,
        }
    }
    None
}

/// Strategy for a well-formed outage list: gaps ≥ 0 between consecutive
/// windows, lengths ≥ 1, counts ≥ 1 — every output satisfies the grammar.
fn crash_windows() -> impl Strategy<Value = Vec<(Window, usize)>> {
    collection::vec((1u64..6, 1u64..8, 1usize..20), 1..5).prop_map(|raw| {
        let mut cursor = 0u64;
        raw.into_iter()
            .map(|(gap, len, count)| {
                let start = cursor + gap;
                cursor = start + len;
                (Window::bounded(start, cursor), count)
            })
            .collect()
    })
}

proptest::proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Ordered ⇔ accepted, the first violated rule named, and whatever is
    /// accepted prints back to text that parses to the same value — in
    /// both families, which differ only in the outage rule and the payload.
    #[test]
    fn both_grammars_accept_exactly_the_ordered_lists(windows in any_windows()) {
        let sched = ScheduleSpec::new(
            windows.iter().map(|&w| (w, AdversarySpec::PushFlood)).collect(),
        );
        match first_violation(&windows, false) {
            Some(rule) => prop_assert_eq!(sched, Err(rule)),
            None => {
                let spec = AdversarySpec::Sched(sched.expect("ordered"));
                prop_assert_eq!(spec.to_string().parse::<AdversarySpec>(), Ok(spec));
            }
        }
        let crash = CrashSpec::new(windows.iter().map(|&w| (w, 3)).collect());
        match first_violation(&windows, true) {
            Some(rule) => {
                prop_assert_eq!(crash, Err(rule));
                let body: Vec<_> = windows.iter().map(|w| format!("{w}3")).collect();
                let text = format!("crash:{}", body.join(";"));
                prop_assert!(text.parse::<CrashSpec>().is_err(), "{}", text);
            }
            None => {
                let spec = crash.expect("ordered outages");
                prop_assert_eq!(spec.to_string().parse::<CrashSpec>(), Ok(spec));
            }
        }
    }

    #[test]
    fn resolution_is_a_pure_function_of_n_seed_spec(
        windows in crash_windows(),
        seed in any::<u64>(),
    ) {
        let spec = CrashSpec::new(windows).expect("strategy yields valid windows");
        let n = 64;
        let a = spec.resolve(n, seed).expect("counts fit n");
        let b = spec.resolve(n, seed).expect("counts fit n");
        prop_assert_eq!(&a, &b);
        for ((start, end, nodes), &(window, count)) in a.outages().zip(spec.windows()) {
            prop_assert_eq!(nodes.len(), count);
            prop_assert_eq!(Window::bounded(start, end), window);
        }
    }
}
