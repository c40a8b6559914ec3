//! The AER adversary registry: [`AdversarySpec`] → live strategy.
//!
//! [`AerAdversary`] is whichever Byzantine strategy an [`AdversarySpec`]
//! names, built from the spec plus an [`AttackContext`] (the
//! full-information view) and the campaign string `bad` used by the
//! coherent attacks. [`AerAdversary::from_spec`] is the one place that
//! maps a spec variant to a strategy; what comes out is one boxed
//! strategy object, so every engine hook is a single virtual call into
//! the strategy's own code. The one piece of strategy state an experiment
//! reads back after a run — the Lemma 6 [`CornerReport`] — is a method of
//! the boxed trait.

use std::collections::BTreeSet;
use std::fmt;

use fba_samplers::GString;
use fba_sim::{
    Adversary, AdversarySpec, Envelope, NoAdversary, NodeId, Outbox, SilentAdversary, Step,
};
use rand_chacha::ChaCha12Rng;

use crate::adversary::{
    AttackContext, BadString, Composed, Corner, CornerReport, Equivocate, PullFlood, PushFlood,
    RandomStringFlood,
};
use crate::msg::AerMsg;

/// What the registry boxes: a strategy against AER, and the report a
/// cornering strategy leaves behind.
trait AerStrategy: Adversary<AerMsg> + fmt::Debug {
    fn corner_report(&self) -> Option<&CornerReport> {
        None
    }
}

impl AerStrategy for NoAdversary {}
impl AerStrategy for SilentAdversary {}
impl AerStrategy for RandomStringFlood {}
impl AerStrategy for PushFlood {}
impl AerStrategy for Equivocate {}
impl AerStrategy for PullFlood {}
impl AerStrategy for BadString {}

impl AerStrategy for Corner {
    fn corner_report(&self) -> Option<&CornerReport> {
        Some(self.report())
    }
}

impl AerStrategy for Composed {
    fn corner_report(&self) -> Option<&CornerReport> {
        Composed::corner_report(self)
    }
}

/// Any Byzantine strategy the AER suite can field (see the module docs).
#[derive(Debug)]
pub struct AerAdversary(Box<dyn AerStrategy>);

impl AerAdversary {
    /// Instantiates the strategy `spec` names.
    ///
    /// `ctx.t` is the corruption budget (callers override the config
    /// default before passing it in); `bad` is the campaign string used
    /// by the `flood` and `bad-string` strategies (ignored by the rest).
    #[must_use]
    pub fn from_spec(spec: &AdversarySpec, ctx: AttackContext, bad: GString) -> Self {
        AerAdversary(match spec {
            AdversarySpec::None => Box::new(NoAdversary),
            AdversarySpec::Silent { t } => Box::new(SilentAdversary::new(t.unwrap_or(ctx.t))),
            AdversarySpec::RandomFlood { rate, steps } => {
                Box::new(RandomStringFlood::new(ctx, *rate, *steps))
            }
            AdversarySpec::PushFlood => Box::new(PushFlood::new(ctx, bad)),
            AdversarySpec::Equivocate { strings } => Box::new(Equivocate::new(ctx, *strings)),
            AdversarySpec::PullFlood { rate, steps } => {
                Box::new(PullFlood::new(ctx, *rate, *steps))
            }
            AdversarySpec::BadString => Box::new(BadString::new(ctx, bad)),
            AdversarySpec::Corner { label_scan } => Box::new(Corner::new(ctx, *label_scan)),
            AdversarySpec::Sched(schedule) => {
                Box::new(Composed::from_schedule(schedule, &ctx, bad))
            }
        })
    }

    /// The cornering attack's plan/coverage report, when the strategy is
    /// `corner` — or a composed schedule with a `corner` window (the
    /// first such window's report).
    #[must_use]
    pub fn corner_report(&self) -> Option<&CornerReport> {
        self.0.corner_report()
    }
}

impl Adversary<AerMsg> for AerAdversary {
    fn corrupt(&mut self, n: usize, rng: &mut ChaCha12Rng) -> BTreeSet<NodeId> {
        self.0.corrupt(n, rng)
    }

    fn rushing(&self) -> bool {
        self.0.rushing()
    }

    fn act(&mut self, step: Step, view: Option<&[Envelope<AerMsg>]>, out: &mut Outbox<'_, AerMsg>) {
        self.0.act(step, view, out);
    }

    fn observe(&mut self, step: Step, sends: &[Envelope<AerMsg>]) {
        self.0.observe(step, sends);
    }

    fn delay(&mut self, env: &Envelope<AerMsg>) -> Step {
        self.0.delay(env)
    }

    fn priority(&mut self, env: &Envelope<AerMsg>) -> i64 {
        self.0.priority(env)
    }

    fn schedules(&self) -> bool {
        self.0.schedules()
    }

    fn observes(&self) -> bool {
        self.0.observes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AerConfig, AerHarness};
    use fba_ae::{Precondition, UnknowingAssignment};
    use fba_sim::rng::derive_rng;

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

    // That every catalogue row builds, and what it reports for `rushing` /
    // `schedules` / `observes`, is one table: `crates/bench/tests/catalogue.rs`.

    #[test]
    fn silent_spec_uses_context_budget_unless_overridden() {
        let (ctx, bad) = context(64);
        let t = ctx.t;
        let mut defaulted =
            AerAdversary::from_spec(&AdversarySpec::Silent { t: None }, ctx.clone(), bad);
        let mut rng = derive_rng(1, &[]);
        assert_eq!(defaulted.corrupt(64, &mut rng).len(), t);
        let mut explicit = AerAdversary::from_spec(&AdversarySpec::Silent { t: Some(3) }, ctx, bad);
        let mut rng = derive_rng(1, &[]);
        assert_eq!(explicit.corrupt(64, &mut rng).len(), 3);
    }

    #[test]
    fn corner_report_is_exposed_only_for_corner() {
        let (ctx, bad) = context(64);
        let corner =
            AerAdversary::from_spec(&AdversarySpec::Corner { label_scan: 8 }, ctx.clone(), bad);
        assert!(corner.corner_report().is_some());
        let silent = AerAdversary::from_spec(&AdversarySpec::Silent { t: None }, ctx, bad);
        assert!(silent.corner_report().is_none());
    }
}
