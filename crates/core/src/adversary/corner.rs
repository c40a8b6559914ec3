//! The Lemma 6 cornering/overload attack.
//!
//! In asynchronous (or synchronous rushing) executions the adversary can
//! see where each node sent its pull requests and react in the same step.
//! The attack (§4.3, proof of Lemma 6):
//!
//! 1. observe the `Poll(gstring, r)` messages of victim requesters,
//!    revealing their poll lists `J(x, r)`;
//! 2. issue the adversary's own *legitimate-looking* pull requests for
//!    `gstring` — each corrupt node gets exactly one forwarded request
//!    (the routers' forward-once filter caps the rest) — choosing poll
//!    labels so the requests land on chosen *overload targets*;
//! 3. once a target has answered `log² n` requests it defers further
//!    answers until it has decided (Algorithm 3), so the victims that
//!    depend on it must wait for the target's own decision: a dependency
//!    chain;
//! 4. intra-step scheduling (asynchrony) delivers the adversary's
//!    forwards first, so its requests exhaust the cap before the victims'
//!    arrive.
//!
//! The chain is grown breadth-first: block the root victim by overloading
//! just enough of its knowing poll-list members that the remainder is one
//! short of a majority, then block those members the same way, and so on
//! until the overload budget runs out. Lemma 2's expansion property is
//! what bounds the achievable depth at `O(log n / log log n)`; the `l6`
//! experiment measures the depth this attacker actually achieves.

use std::collections::{BTreeMap, BTreeSet};

use fba_samplers::Label;
use fba_sim::{Adversary, Envelope, NodeId, Outbox, Step};
use rand_chacha::ChaCha12Rng;

use crate::msg::AerMsg;

use super::AttackContext;

/// What the attack planned and achieved — exposed for the `l6`
/// experiment.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CornerReport {
    /// Victim requesters the plan tried to block.
    pub blocked_victims: usize,
    /// Distinct overload targets chosen.
    pub overload_targets: usize,
    /// Planned BFS depth of the dependency chain.
    pub planned_depth: usize,
    /// Overload units actually covered by label assignment (each unit is
    /// one corrupt pull landing on one target).
    pub covered_units: usize,
    /// Units the plan needed (`(cap + 1)` per target).
    pub needed_units: usize,
}

/// The cornering attacker.
#[derive(Clone, Debug)]
pub struct Corner {
    ctx: AttackContext,
    /// Labels scanned per corrupt node when aiming its poll list.
    pub label_scan: u64,
    corrupt: Vec<NodeId>,
    corrupt_set: BTreeSet<NodeId>,
    launched: bool,
    report: CornerReport,
}

impl Corner {
    /// Creates the attacker; `label_scan` bounds the per-corrupt-node
    /// label search (larger = better aim, slower).
    #[must_use]
    pub fn new(ctx: AttackContext, label_scan: u64) -> Self {
        Corner {
            ctx,
            label_scan,
            corrupt: Vec::new(),
            corrupt_set: BTreeSet::new(),
            launched: false,
            report: CornerReport::default(),
        }
    }

    /// The plan/coverage report (valid once the attack launched).
    #[must_use]
    pub fn report(&self) -> &CornerReport {
        &self.report
    }

    /// Whether a node is correct and initially knows gstring (will answer
    /// gstring polls).
    fn is_knowing(&self, id: NodeId) -> bool {
        !self.corrupt_set.contains(&id)
            && self.ctx.assignments[id.index()].key() == self.ctx.gstring.key()
    }

    /// Plans the overload target set from the observed victim polls.
    fn plan_targets(&mut self, victims: &BTreeMap<NodeId, Label>) -> BTreeSet<NodeId> {
        let majority = self.ctx.poll.majority();
        let cap_units = (self.ctx.overload_cap + 1) as usize;
        // Effective per-pull coverage is limited by label aiming; assume a
        // conservative 4 hits per corrupt pull when sizing the plan.
        let budget_units = self.corrupt.len() * 4;
        let max_targets = (budget_units / cap_units).max(1);

        let mut targets: BTreeSet<NodeId> = BTreeSet::new();
        let mut queue: Vec<(NodeId, usize)> = Vec::new();
        let mut blocked: BTreeSet<NodeId> = BTreeSet::new();
        let mut depth_reached = 0;

        // Roots: the first victims in id order.
        for (&x, _) in victims.iter().take(2) {
            queue.push((x, 0));
        }
        let mut qi = 0;
        while qi < queue.len() && targets.len() < max_targets {
            let (x, depth) = queue[qi];
            qi += 1;
            let Some(&r) = victims.get(&x) else { continue };
            if !blocked.insert(x) {
                continue;
            }
            depth_reached = depth_reached.max(depth);
            let members = self.ctx.poll.poll_list(x, r);
            let knowing: Vec<NodeId> = members
                .iter()
                .copied()
                .filter(|&w| self.is_knowing(w))
                .collect();
            if knowing.len() < majority {
                continue; // already blocked by sampling luck
            }
            let need = knowing.len() - majority + 1;
            // Prefer overloading members that are themselves observable
            // victims, extending the chain.
            let mut picks: Vec<NodeId> = knowing
                .iter()
                .copied()
                .filter(|w| victims.contains_key(w) && !blocked.contains(w))
                .take(need)
                .collect();
            for &w in &knowing {
                if picks.len() >= need {
                    break;
                }
                if !picks.contains(&w) {
                    picks.push(w);
                }
            }
            for w in picks {
                targets.insert(w);
                if victims.contains_key(&w) && !blocked.contains(&w) {
                    queue.push((w, depth + 1));
                }
                if targets.len() >= max_targets {
                    break;
                }
            }
        }
        self.report.blocked_victims = blocked.len();
        self.report.overload_targets = targets.len();
        self.report.planned_depth = depth_reached + 1;
        self.report.needed_units = targets.len() * cap_units;
        targets
    }

    /// Aims each corrupt node's single forwarded pull at the target set.
    fn launch(&mut self, targets: &BTreeSet<NodeId>, out: &mut Outbox<'_, AerMsg>) {
        let g = self.ctx.gstring;
        let key = g.key();
        let cap_units = (self.ctx.overload_cap + 1) as usize;
        let mut coverage: BTreeMap<NodeId, usize> = targets.iter().map(|&w| (w, 0)).collect();
        for &z in &self.corrupt {
            // Scan labels for the one whose poll list hits the most
            // still-needy targets.
            let mut best: (usize, Label) = (0, Label(0));
            let scan = self.label_scan.min(self.ctx.poll.label_cardinality());
            for raw in 0..scan {
                let r = Label(raw);
                let hits = self
                    .ctx
                    .poll
                    .poll_list(z, r)
                    .iter()
                    .filter(|w| coverage.get(w).is_some_and(|&c| c < cap_units))
                    .count();
                if hits > best.0 {
                    best = (hits, r);
                }
            }
            let r = best.1;
            for w in self.ctx.poll.poll_list(z, r) {
                if let Some(c) = coverage.get_mut(&w) {
                    *c += 1;
                    self.report.covered_units += 1;
                }
            }
            // The legitimate-looking request: Poll to J(z, r), Pull to
            // H(gstring, z). Routers forward it once; three hops later the
            // Fw2 majorities make every polled target do answering work.
            for w in self.ctx.poll.poll_list(z, r) {
                out.send_as(z, w, AerMsg::Poll(g, r));
            }
            for y in self.ctx.scheme.pull.quorum(key, z) {
                out.send_as(z, y, AerMsg::Pull(g, r));
            }
        }
    }
}

impl Adversary<AerMsg> for Corner {
    fn corrupt(&mut self, n: usize, rng: &mut ChaCha12Rng) -> BTreeSet<NodeId> {
        self.corrupt_set = self.ctx.coalition(n, rng, &mut self.corrupt);
        self.corrupt_set.clone()
    }

    fn rushing(&self) -> bool {
        true
    }

    fn act(
        &mut self,
        _step: Step,
        view: Option<&[Envelope<AerMsg>]>,
        out: &mut Outbox<'_, AerMsg>,
    ) {
        if self.launched {
            return;
        }
        let Some(view) = view else { return };
        // Collect victims: requesters polling for gstring this step.
        let gkey = self.ctx.gstring.key();
        let mut victims: BTreeMap<NodeId, Label> = BTreeMap::new();
        for env in view {
            if let AerMsg::Poll(s, r) = &env.msg {
                if s.key() == gkey && !self.corrupt_set.contains(&env.from) {
                    victims.entry(env.from).or_insert(*r);
                }
            }
        }
        if victims.is_empty() {
            return;
        }
        self.launched = true;
        let targets = self.plan_targets(&victims);
        self.launch(&targets, out);
    }

    fn delay(&mut self, env: &Envelope<AerMsg>) -> Step {
        // Asynchrony: stall honest traffic to the reliability bound (the
        // engine clamps to `max_delay`, so this is a no-op in the
        // synchronous and `max_delay = 1` regimes every pinned experiment
        // runs), while traffic serving corrupt requesters — and the
        // corrupt nodes' own sends — rides the fast lane. This is the
        // worst-case scheduler of §2.1: victims' verification pipelines
        // run `max_delay×` slower than the attack's.
        if self.corrupt_set.contains(&env.from) {
            return 1;
        }
        match &env.msg {
            AerMsg::Fw2 { origin, .. } | AerMsg::Fw1 { origin, .. }
                if self.corrupt_set.contains(origin) =>
            {
                1
            }
            _ => Step::MAX,
        }
    }

    fn priority(&mut self, env: &Envelope<AerMsg>) -> i64 {
        // Asynchrony: within a step, deliver forwards serving corrupt
        // requesters first so they exhaust the overload cap before the
        // victims' forwards are processed.
        match &env.msg {
            AerMsg::Fw2 { origin, .. } | AerMsg::Fw1 { origin, .. } => {
                if self.corrupt_set.contains(origin) {
                    -1
                } else {
                    1
                }
            }
            _ => 0,
        }
    }

    // `schedules` stays at the default `true`: `delay` and `priority` are
    // both overridden.

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

    fn setup(n: usize, cap: u64) -> (AerHarness, AttackContext) {
        let cfg = AerConfig::recommended(n).with_overload_cap(cap).strict();
        let pre = Precondition::synthetic(
            n,
            cfg.string_len,
            0.85,
            UnknowingAssignment::RandomPerNode,
            5,
        );
        let h = AerHarness::from_precondition(cfg, &pre);
        let ctx = AttackContext::new(&h, pre.gstring);
        (h, ctx)
    }

    #[test]
    fn attack_launches_once_on_observing_polls() {
        let (h, ctx) = setup(64, 3);
        let g = ctx.gstring;
        let mut adv = Corner::new(ctx, 64);
        let mut rng = derive_rng(1, &[]);
        let corrupt = Adversary::<AerMsg>::corrupt(&mut adv, 64, &mut rng);

        // Fabricate a rushing view: two victims poll gstring.
        let poll = h.poll_sampler();
        let victims: Vec<NodeId> = (0..64)
            .map(NodeId::from_index)
            .filter(|id| !corrupt.contains(id))
            .take(2)
            .collect();
        let mut view = Vec::new();
        for (i, &x) in victims.iter().enumerate() {
            let r = Label(i as u64);
            for w in poll.poll_list(x, r) {
                view.push(Envelope {
                    from: x,
                    to: w,
                    sent_at: 0,
                    msg: AerMsg::Poll(g, r),
                });
            }
        }
        let mut out = Outbox::new(&corrupt, 64);
        adv.act(0, Some(&view), &mut out);
        assert!(!out.is_empty(), "attack must launch");
        let report = adv.report().clone();
        assert!(report.overload_targets > 0);
        assert!(report.planned_depth >= 1);
        assert!(report.covered_units > 0);

        // Second act is a no-op (single volley per run).
        let mut out2 = Outbox::new(&corrupt, 64);
        adv.act(1, Some(&view), &mut out2);
        assert!(out2.is_empty());
    }

    #[test]
    fn corrupt_pulls_look_legitimate() {
        let (h, ctx) = setup(64, 3);
        let g = ctx.gstring;
        let mut adv = Corner::new(ctx, 32);
        let mut rng = derive_rng(2, &[]);
        let corrupt = Adversary::<AerMsg>::corrupt(&mut adv, 64, &mut rng);
        let poll = h.poll_sampler();
        let scheme = h.scheme();

        let x = (0..64)
            .map(NodeId::from_index)
            .find(|id| !corrupt.contains(id))
            .unwrap();
        let r = Label(9);
        let view: Vec<Envelope<AerMsg>> = poll
            .poll_list(x, r)
            .into_iter()
            .map(|w| Envelope {
                from: x,
                to: w,
                sent_at: 0,
                msg: AerMsg::Poll(g, r),
            })
            .collect();
        let mut out = Outbox::new(&corrupt, 64);
        adv.act(0, Some(&view), &mut out);
        for (from, to, msg) in out.into_sends() {
            match msg {
                AerMsg::Poll(s, r) => {
                    assert_eq!(s, g);
                    assert!(poll.contains(from, r, to), "poll outside J({from}, r)");
                }
                AerMsg::Pull(s, _) => {
                    assert_eq!(s, g);
                    assert!(
                        scheme.pull.contains(s.key(), from, to),
                        "pull outside H(g, {from})"
                    );
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn priorities_favor_corrupt_origins() {
        let (_, ctx) = setup(64, 3);
        let g = ctx.gstring;
        let mut adv = Corner::new(ctx, 8);
        let mut rng = derive_rng(3, &[]);
        let corrupt = Adversary::<AerMsg>::corrupt(&mut adv, 64, &mut rng);
        let z = *corrupt.iter().next().unwrap();
        let x = (0..64)
            .map(NodeId::from_index)
            .find(|id| !corrupt.contains(id))
            .unwrap();
        let mk = |origin: NodeId| Envelope {
            from: NodeId::from_index(0),
            to: NodeId::from_index(1),
            sent_at: 0,
            msg: AerMsg::Fw2 {
                origin,
                s: g,
                r: Label(0),
            },
        };
        assert!(adv.priority(&mk(z)) < adv.priority(&mk(x)));
    }
}
