//! The Lemma 7 safety attack: a coherent campaign for a bogus string.

use std::collections::BTreeSet;

use fba_samplers::{GString, Label};
use fba_sim::{choose_corrupt, Adversary, Envelope, NodeId, Outbox, Step};
use rand_chacha::ChaCha12Rng;

use crate::msg::AerMsg;

use super::AttackContext;

/// Corrupt nodes push, route, relay and answer for one adversary-chosen
/// string `bad`, rushing their responses so they arrive *before* honest
/// traffic:
///
/// * push phase: `bad` is pushed through every legitimate quorum slot
///   (`z ∈ I(bad, x)`), maximising its acceptance into candidate lists;
/// * pull phase: whenever a correct node polls for `bad`, every corrupt
///   member of its poll list answers instantly (no `Fw2` majority needed —
///   Byzantine nodes are not bound by Algorithm 3);
/// * corrupt members of pull quorums inject `Fw1`/`Fw2` for `bad`,
///   helping *correct* holders of `bad` (the `SharedAdversarial`
///   precondition's unknowing block) cross their majorities;
/// * repair queries are answered with `bad`.
///
/// Lemma 7 predicts this still fails w.h.p.: deciding requires a strict
/// majority of a freshly random poll list, and the bogus coalition is a
/// minority of the population. The `l7` experiment counts the rare finite-
/// scale exceptions.
#[derive(Clone, Debug)]
pub struct BadString {
    ctx: AttackContext,
    /// The bogus string the campaign promotes.
    pub bad: GString,
    corrupt: BTreeSet<NodeId>,
    push_plan: Vec<(NodeId, NodeId)>,
    answered: BTreeSet<(NodeId, NodeId)>,
    fw2_sent: BTreeSet<(NodeId, NodeId, NodeId)>,
}

impl BadString {
    /// Creates the campaign for `bad`.
    #[must_use]
    pub fn new(ctx: AttackContext, bad: GString) -> Self {
        BadString {
            ctx,
            bad,
            corrupt: BTreeSet::new(),
            push_plan: Vec::new(),
            answered: BTreeSet::new(),
            fw2_sent: BTreeSet::new(),
        }
    }

    fn react_to_poll(&mut self, x: NodeId, w: NodeId, out: &mut Outbox<'_, AerMsg>) {
        // Corrupt poll-list member answers the bogus string immediately.
        if self.corrupt.contains(&w) && self.answered.insert((w, x)) {
            out.send_as(w, x, AerMsg::Answer(self.bad));
        }
    }

    fn react_to_pull(&mut self, x: NodeId, r: Label, out: &mut Outbox<'_, AerMsg>) {
        // Help correct holders of `bad` cross their Fw2 majorities: every
        // corrupt member of H(bad, w) injects Fw2 towards w ∈ J(x, r).
        let key = self.bad.key();
        for w in self.ctx.poll.poll_list(x, r) {
            for z in self.ctx.scheme.pull.quorum(key, w) {
                if self.corrupt.contains(&z) && self.fw2_sent.insert((z, x, w)) {
                    out.send_as(
                        z,
                        w,
                        AerMsg::Fw2 {
                            origin: x,
                            s: self.bad,
                            r,
                        },
                    );
                }
            }
        }
    }
}

impl Adversary<AerMsg> for BadString {
    fn corrupt(&mut self, n: usize, rng: &mut ChaCha12Rng) -> BTreeSet<NodeId> {
        let set = choose_corrupt(n, self.ctx.t, rng);
        self.corrupt = set.clone();
        let inverse = self.ctx.scheme.push.inverse_for_string(self.bad.key());
        self.push_plan = self
            .corrupt
            .iter()
            .flat_map(|&z| inverse[z.index()].iter().map(move |&x| (z, x)))
            .collect();
        set
    }

    fn rushing(&self) -> bool {
        true
    }

    fn act(&mut self, step: Step, view: Option<&[Envelope<AerMsg>]>, out: &mut Outbox<'_, AerMsg>) {
        if step == 0 {
            for &(z, x) in &self.push_plan {
                out.send_as(z, x, AerMsg::Push(self.bad));
            }
        }
        let Some(view) = view else { return };
        let bad_key = self.bad.key();
        for env in view {
            match &env.msg {
                AerMsg::Poll(s, _) if s.key() == bad_key => {
                    self.react_to_poll(env.from, env.to, out);
                }
                AerMsg::Pull(s, r) if s.key() == bad_key => {
                    self.react_to_pull(env.from, *r, out);
                }
                AerMsg::RepairQuery(_) => {
                    // The queried member is in J(x, r) by construction of
                    // the query; corrupt members push the bogus string.
                    self.react_to_poll(env.from, env.to, out);
                }
                _ => {}
            }
        }
    }

    fn priority(&mut self, env: &Envelope<AerMsg>) -> i64 {
        // Rush bogus answers ahead of honest traffic within each step.
        match &env.msg {
            AerMsg::Answer(s) | AerMsg::RepairAnswer(s) if s.key() == self.bad.key() => -1,
            _ => 0,
        }
    }

    // `schedules` stays at the default `true`: `priority` is overridden.

    fn observes(&self) -> bool {
        false // `observe` is the default no-op (reactions use the rushing view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AttackContext;
    use crate::{AerConfig, AerHarness};
    use fba_ae::{Precondition, UnknowingAssignment};
    use fba_sim::rng::derive_rng;

    fn setup(n: usize) -> (AerHarness, Precondition, AttackContext, GString) {
        let cfg = AerConfig::recommended(n);
        let pre = Precondition::synthetic(
            n,
            cfg.string_len,
            0.8,
            UnknowingAssignment::SharedAdversarial,
            5,
        );
        let h = AerHarness::from_precondition(cfg, &pre);
        // The shared bogus string the unknowing block already holds.
        let bad = *pre
            .assignments
            .iter()
            .find(|s| **s != pre.gstring)
            .expect("some node is unknowing");
        let ctx = AttackContext::new(&h, pre.gstring);
        (h, pre, ctx, bad)
    }

    #[test]
    fn answers_bogus_polls_from_corrupt_list_members() {
        let (_, _, ctx, bad) = setup(64);
        let mut adv = BadString::new(ctx, bad);
        let mut rng = derive_rng(1, &[]);
        let corrupt = Adversary::<AerMsg>::corrupt(&mut adv, 64, &mut rng);
        let z = *corrupt.iter().next().unwrap();
        let x = (0..64)
            .map(NodeId::from_index)
            .find(|id| !corrupt.contains(id))
            .unwrap();

        // A poll for `bad` reaching corrupt member z must be answered.
        let view = vec![Envelope {
            from: x,
            to: z,
            sent_at: 1,
            msg: AerMsg::Poll(bad, Label(3)),
        }];
        let mut out = Outbox::new(&corrupt, 64);
        adv.act(1, Some(&view), &mut out);
        let sends = out.into_sends();
        assert!(sends
            .iter()
            .any(|(from, to, m)| *from == z && *to == x && matches!(m, AerMsg::Answer(_))));

        // Duplicate polls are answered once.
        let mut out2 = Outbox::new(&corrupt, 64);
        adv.act(2, Some(&view), &mut out2);
        assert!(out2
            .into_sends()
            .iter()
            .all(|(_, _, m)| !matches!(m, AerMsg::Answer(_))));
    }

    #[test]
    fn ignores_polls_for_other_strings() {
        let (_, pre, ctx, bad) = setup(64);
        let mut adv = BadString::new(ctx, bad);
        let mut rng = derive_rng(1, &[]);
        let corrupt = Adversary::<AerMsg>::corrupt(&mut adv, 64, &mut rng);
        let z = *corrupt.iter().next().unwrap();
        let view = vec![Envelope {
            from: NodeId::from_index(0),
            to: z,
            sent_at: 1,
            msg: AerMsg::Poll(pre.gstring, Label(3)),
        }];
        let mut out = Outbox::new(&corrupt, 64);
        adv.act(1, Some(&view), &mut out);
        assert!(out.is_empty(), "gstring polls must not be answered");
    }

    #[test]
    fn rushes_bogus_answers() {
        let (_, pre, ctx, bad) = setup(64);
        let mut adv = BadString::new(ctx, bad);
        let bogus = Envelope {
            from: NodeId::from_index(0),
            to: NodeId::from_index(1),
            sent_at: 0,
            msg: AerMsg::Answer(bad),
        };
        let honest = Envelope {
            from: NodeId::from_index(0),
            to: NodeId::from_index(1),
            sent_at: 0,
            msg: AerMsg::Answer(pre.gstring),
        };
        assert!(adv.priority(&bogus) < adv.priority(&honest));
    }
}
