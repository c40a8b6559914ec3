//! Windowed composition of AER attack strategies.
//!
//! The paper's adversary is adaptive in *behaviour* (it may corrupt the
//! schedule, silence nodes, and flood at different moments of a run) even
//! though the corrupt *set* is fixed up front (§2.1, non-adaptive
//! corruption). [`Composed`] realises exactly that: a
//! [`fba_sim::ScheduleSpec`] assigns one strategy per step window, and the
//! composition dispatches the active window's strategy at every engine
//! hook while each strategy keeps its own state for the whole run — the
//! Lemma 6 [`CornerReport`] of a `corner` window stays inspectable after
//! the run ends, exactly as for a bare `corner` spec.
//!
//! Semantics:
//!
//! * **Corrupt set** — chosen once, before the run (non-adaptive): every
//!   window's strategy draws its corrupt set from an identical clone of
//!   the engine's corruption RNG, so windows that budget the same `t`
//!   draw the *same* coalition (one coalition, several behaviours).
//!   Windows that corrupt nobody (`none`) are exempt; any other budget
//!   disagreement would silently corrupt more than the declared fault
//!   bound, so [`Composed`] treats differing window coalitions as an
//!   invariant violation (the `Scenario` builder rejects mismatched
//!   budgets with a proper error before a run ever starts).
//! * **Step rebasing** — the active strategy sees steps relative to its
//!   window start: a `flood` window `[5..12]` fires its step-0 volley at
//!   absolute step 5. This is what makes `sched:[0..]X` bit-identical to
//!   the bare `X`.
//! * **Rushing** — the composition is rushing iff *any* window's strategy
//!   is (the engine needs the per-step view computed); non-rushing
//!   windows still receive `None`, preserving each strategy's own
//!   observation regime.
//! * **Scheduling power** — delay/priority queries dispatch on the
//!   envelope's send step, so asynchronous scheduling switches over at
//!   window boundaries along with everything else.
//! * **Gaps** — steps no window covers behave like
//!   [`fba_sim::NoAdversary`]: nothing is sent, nothing is delayed.

use std::collections::BTreeSet;

use fba_samplers::GString;
use fba_sim::{Adversary, Envelope, NodeId, Outbox, ScheduleSpec, Step, Window};
use rand_chacha::ChaCha12Rng;

use crate::adversary::{AerAdversary, AttackContext, CornerReport};
use crate::msg::AerMsg;

/// A composed fault schedule over the AER strategy registry: one
/// [`AerAdversary`] per step window (see the module docs for the exact
/// dispatch semantics).
#[derive(Debug)]
pub struct Composed {
    windows: Vec<(Window, AerAdversary)>,
}

impl Composed {
    /// Instantiates every window's strategy from the schedule.
    ///
    /// `ctx` and `bad` are shared by all windows, exactly as
    /// [`AerAdversary::from_spec`] uses them for a single strategy.
    /// Nested schedules are unrepresentable ([`ScheduleSpec::new`]
    /// rejects them), so construction cannot recurse.
    #[must_use]
    pub fn from_schedule(schedule: &ScheduleSpec, ctx: &AttackContext, bad: GString) -> Self {
        Composed {
            windows: schedule
                .windows()
                .iter()
                .map(|(w, spec)| (*w, AerAdversary::from_spec(spec, ctx.clone(), bad)))
                .collect(),
        }
    }

    /// The strategy whose window covers `step`, with its window start
    /// (for step rebasing).
    fn active(&mut self, step: Step) -> Option<(Step, &mut AerAdversary)> {
        self.windows
            .iter_mut()
            .find(|(w, _)| w.contains(step))
            .map(|(w, a)| (w.start, a))
    }

    /// The first `corner` window's report, if the schedule fields one.
    #[must_use]
    pub fn corner_report(&self) -> Option<&CornerReport> {
        self.windows.iter().find_map(|(_, a)| a.corner_report())
    }
}

impl Adversary<AerMsg> for Composed {
    /// # Panics
    ///
    /// Panics if two corrupting windows draw different coalitions
    /// (mismatched budgets — e.g. `silent:3` next to a `t`-budget
    /// strategy). Running such a schedule would silently corrupt more
    /// nodes than the declared fault bound; the `Scenario` builder
    /// rejects the mismatch with a typed error before reaching this
    /// invariant check.
    fn corrupt(&mut self, n: usize, rng: &mut ChaCha12Rng) -> BTreeSet<NodeId> {
        // Every window draws from an identical RNG state: windows with
        // equal budgets pick identical coalitions, and a single-window
        // schedule consumes exactly the stream the bare strategy would.
        let snapshot = rng.clone();
        let mut coalition: Option<BTreeSet<NodeId>> = None;
        for (window, strategy) in &mut self.windows {
            let mut window_rng = snapshot.clone();
            let set = strategy.corrupt(n, &mut window_rng);
            if set.is_empty() {
                continue; // `none` windows corrupt nobody.
            }
            match &coalition {
                None => coalition = Some(set),
                Some(existing) => assert_eq!(
                    *existing, set,
                    "fault-schedule window {window} drew a different coalition than an \
                     earlier window — align every corrupting window on one budget \
                     (same `silent:<t>` override, or the scenario fault budget)"
                ),
            }
        }
        coalition.unwrap_or_default()
    }

    fn rushing(&self) -> bool {
        self.windows.iter().any(|(_, a)| a.rushing())
    }

    fn act(&mut self, step: Step, view: Option<&[Envelope<AerMsg>]>, out: &mut Outbox<'_, AerMsg>) {
        if let Some((start, strategy)) = self.active(step) {
            let view = if strategy.rushing() { view } else { None };
            strategy.act(step - start, view, out);
        }
    }

    fn observe(&mut self, step: Step, sends: &[Envelope<AerMsg>]) {
        if let Some((start, strategy)) = self.active(step) {
            strategy.observe(step - start, sends);
        }
    }

    fn delay(&mut self, env: &Envelope<AerMsg>) -> Step {
        match self.active(env.sent_at) {
            Some((_, strategy)) => strategy.delay(env),
            None => 1,
        }
    }

    fn priority(&mut self, env: &Envelope<AerMsg>) -> i64 {
        match self.active(env.sent_at) {
            Some((_, strategy)) => strategy.priority(env),
            None => 0,
        }
    }

    fn schedules(&self) -> bool {
        self.windows.iter().any(|(_, a)| a.schedules())
    }

    fn observes(&self) -> bool {
        self.windows.iter().any(|(_, a)| a.observes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::BadString;
    use crate::{AerConfig, AerHarness};
    use fba_ae::{Precondition, UnknowingAssignment};
    use fba_samplers::Label;
    use fba_sim::rng::derive_rng;
    use fba_sim::AdversarySpec;

    fn context(n: usize) -> (AttackContext, GString) {
        let cfg = AerConfig::recommended(n);
        let pre = Precondition::synthetic(
            n,
            cfg.string_len,
            0.8,
            UnknowingAssignment::SharedAdversarial,
            5,
        );
        let h = AerHarness::from_precondition(cfg, &pre);
        let bad = *pre
            .assignments
            .iter()
            .find(|s| **s != pre.gstring)
            .expect("bogus exists");
        (AttackContext::new(&h, pre.gstring), bad)
    }

    fn schedule(windows: Vec<(Window, AdversarySpec)>) -> ScheduleSpec {
        ScheduleSpec::new(windows).expect("valid schedule")
    }

    #[test]
    fn strategies_fire_relative_to_their_window() {
        let (ctx, bad) = context(64);
        // flood's entire volley happens at its window-relative step 0.
        let sched = schedule(vec![
            (Window::bounded(0, 3), AdversarySpec::Silent { t: None }),
            (Window::open(3), AdversarySpec::PushFlood),
        ]);
        let mut adv = Composed::from_schedule(&sched, &ctx, bad);
        let mut rng = derive_rng(1, &[]);
        let corrupt = Adversary::<AerMsg>::corrupt(&mut adv, 64, &mut rng);
        assert!(!corrupt.is_empty());

        for step in 0..3 {
            let mut out = Outbox::new(&corrupt, 64);
            adv.act(step, None, &mut out);
            assert!(out.is_empty(), "silent window must stay silent");
        }
        let mut out = Outbox::new(&corrupt, 64);
        adv.act(3, None, &mut out);
        assert!(!out.is_empty(), "flood fires at its window start");
        let mut later = Outbox::new(&corrupt, 64);
        adv.act(4, None, &mut later);
        assert!(later.is_empty(), "flood's volley is one-shot");
    }

    #[test]
    fn gap_steps_act_like_no_adversary() {
        let (ctx, bad) = context(64);
        let sched = schedule(vec![
            (Window::bounded(0, 1), AdversarySpec::PushFlood),
            (Window::bounded(5, 6), AdversarySpec::Silent { t: None }),
        ]);
        let mut adv = Composed::from_schedule(&sched, &ctx, bad);
        let mut rng = derive_rng(2, &[]);
        let corrupt = Adversary::<AerMsg>::corrupt(&mut adv, 64, &mut rng);
        let mut out = Outbox::new(&corrupt, 64);
        adv.act(3, None, &mut out);
        assert!(out.is_empty(), "no window covers step 3");
        let env = Envelope {
            from: NodeId::from_index(0),
            to: NodeId::from_index(1),
            sent_at: 3,
            msg: AerMsg::Push(bad),
        };
        assert_eq!(adv.delay(&env), 1);
        assert_eq!(adv.priority(&env), 0);
    }

    #[test]
    fn window_state_does_not_leak_across_the_boundary() {
        // Two bad-string windows: the `answered` dedup set of window 1
        // must not suppress the answer of window 2's fresh instance.
        let (ctx, bad) = context(64);
        let sched = schedule(vec![
            (Window::bounded(0, 4), AdversarySpec::BadString),
            (Window::open(4), AdversarySpec::BadString),
        ]);
        let mut adv = Composed::from_schedule(&sched, &ctx, bad);
        let mut rng = derive_rng(3, &[]);
        let corrupt = Adversary::<AerMsg>::corrupt(&mut adv, 64, &mut rng);

        // A hand-wired single BadString drawing from the same RNG state
        // picks the same coalition — the union is that one set.
        let mut bare = BadString::new(ctx.clone(), bad);
        let mut bare_rng = derive_rng(3, &[]);
        assert_eq!(
            Adversary::<AerMsg>::corrupt(&mut bare, 64, &mut bare_rng),
            corrupt
        );

        let z = *corrupt.iter().next().unwrap();
        let x = (0..64)
            .map(NodeId::from_index)
            .find(|id| !corrupt.contains(id))
            .unwrap();
        let poll = |step| Envelope {
            from: x,
            to: z,
            sent_at: step,
            msg: AerMsg::Poll(bad, Label(3)),
        };
        let answers = |sends: Vec<(NodeId, NodeId, AerMsg)>| {
            sends
                .iter()
                .filter(|(_, _, m)| matches!(m, AerMsg::Answer(_)))
                .count()
        };

        // Window 1 answers the poll once, then dedups it.
        let mut out = Outbox::new(&corrupt, 64);
        adv.act(1, Some(&[poll(1)]), &mut out);
        assert_eq!(answers(out.into_sends()), 1, "window 1 answers");
        let mut out = Outbox::new(&corrupt, 64);
        adv.act(2, Some(&[poll(2)]), &mut out);
        assert_eq!(answers(out.into_sends()), 0, "window 1 dedups");

        // Window 2 is a fresh instance: it answers the same poll again.
        let mut out = Outbox::new(&corrupt, 64);
        adv.act(5, Some(&[poll(5)]), &mut out);
        assert_eq!(
            answers(out.into_sends()),
            1,
            "window 2 must not inherit window 1's answered set"
        );
    }

    #[test]
    fn non_rushing_windows_never_see_the_rushing_view() {
        // silent (non-rushing) + bad-string (rushing): the composition is
        // rushing, but the silent window receives no view — and sends
        // nothing even when handed one.
        let (ctx, bad) = context(64);
        let sched = schedule(vec![
            (Window::bounded(0, 2), AdversarySpec::Silent { t: None }),
            (Window::open(2), AdversarySpec::BadString),
        ]);
        let mut adv = Composed::from_schedule(&sched, &ctx, bad);
        assert!(Adversary::<AerMsg>::rushing(&adv), "any window rushing");
        let mut rng = derive_rng(4, &[]);
        let corrupt = Adversary::<AerMsg>::corrupt(&mut adv, 64, &mut rng);
        let z = *corrupt.iter().next().unwrap();
        let x = (0..64)
            .map(NodeId::from_index)
            .find(|id| !corrupt.contains(id))
            .unwrap();
        let view = [Envelope {
            from: x,
            to: z,
            sent_at: 0,
            msg: AerMsg::Poll(bad, Label(0)),
        }];
        let mut out = Outbox::new(&corrupt, 64);
        adv.act(0, Some(&view), &mut out);
        assert!(out.is_empty(), "silent window ignores the view");
        let mut out = Outbox::new(&corrupt, 64);
        adv.act(2, Some(&view), &mut out);
        assert!(!out.is_empty(), "bad-string window reacts");
    }

    #[test]
    #[should_panic(expected = "different coalition")]
    fn mismatched_window_budgets_violate_the_coalition_invariant() {
        // silent:3 and a default-budget flood window would draw two
        // different coalitions — corrupting more nodes than either
        // budget declares. The Scenario builder rejects this with a
        // typed error; direct construction trips the invariant.
        let (ctx, bad) = context(64);
        let sched = schedule(vec![
            (Window::bounded(0, 2), AdversarySpec::Silent { t: Some(3) }),
            (Window::open(2), AdversarySpec::PushFlood),
        ]);
        let mut adv = Composed::from_schedule(&sched, &ctx, bad);
        let mut rng = derive_rng(7, &[]);
        let _ = Adversary::<AerMsg>::corrupt(&mut adv, 64, &mut rng);
    }

    #[test]
    fn corner_report_surfaces_from_its_window() {
        let (ctx, bad) = context(64);
        let sched = schedule(vec![
            (Window::bounded(0, 2), AdversarySpec::Silent { t: None }),
            (Window::open(2), AdversarySpec::Corner { label_scan: 16 }),
        ]);
        let adv = Composed::from_schedule(&sched, &ctx, bad);
        assert!(adv.corner_report().is_some());

        let no_corner = schedule(vec![(Window::open(0), AdversarySpec::Silent { t: None })]);
        let adv = Composed::from_schedule(&no_corner, &ctx, bad);
        assert!(adv.corner_report().is_none());
    }
}
