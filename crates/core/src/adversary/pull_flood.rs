//! Pull-request flooding: the attack §2.3's filters exist to stop.
//!
//! "As in [KS09], pull requests are filtered to prevent Byzantine nodes
//! from triggering too many replies (poor worst case complexity)." A pull
//! request for `gstring` is forwarded by correct routers — each forward
//! fans out to `d²` relays — so an unfiltered requester could trigger
//! `Θ(d³)` traffic per request, repeatedly. The defence is the
//! forward-once filter in Algorithm 2: a router forwards at most one pull
//! per `(requester, string)` pair, so each corrupt node gets *one*
//! routed verification no matter how many requests it sprays.
//!
//! [`PullFlood`] sprays `requests_per_node` pulls with distinct labels
//! from every corrupt node each step; the amplification tests assert the
//! induced correct-node traffic stays within one routed request per
//! corrupt node.

use std::collections::BTreeSet;

use fba_samplers::Label;
use fba_sim::{Adversary, Envelope, NodeId, Outbox, Step};
use rand_chacha::ChaCha12Rng;

use crate::msg::AerMsg;

use super::AttackContext;

/// The pull-flooding strategy.
#[derive(Clone, Debug)]
pub struct PullFlood {
    ctx: AttackContext,
    /// Pull requests per corrupt node per step.
    pub requests_per_node: u64,
    /// Steps to keep flooding.
    pub steps: Step,
    corrupt: Vec<NodeId>,
}

impl PullFlood {
    /// Creates the strategy.
    #[must_use]
    pub fn new(ctx: AttackContext, requests_per_node: u64, steps: Step) -> Self {
        PullFlood {
            ctx,
            requests_per_node,
            steps,
            corrupt: Vec::new(),
        }
    }
}

impl Adversary<AerMsg> for PullFlood {
    fn corrupt(&mut self, n: usize, rng: &mut ChaCha12Rng) -> BTreeSet<NodeId> {
        self.ctx.coalition(n, rng, &mut self.corrupt)
    }

    fn act(
        &mut self,
        step: Step,
        _view: Option<&[Envelope<AerMsg>]>,
        out: &mut Outbox<'_, AerMsg>,
    ) {
        if step >= self.steps {
            return;
        }
        let g = self.ctx.gstring;
        let key = g.key();
        for &z in &self.corrupt {
            for i in 0..self.requests_per_node {
                // Distinct labels per request: each *could* reach a fresh
                // poll list if the filters were missing.
                let r = Label(
                    (step * self.requests_per_node + i + u64::from(z.raw()) * 7919)
                        % self.ctx.poll.label_cardinality(),
                );
                for w in self.ctx.poll.poll_list(z, r) {
                    out.send_as(z, w, AerMsg::Poll(g, r));
                }
                for y in self.ctx.scheme.pull.quorum(key, z) {
                    out.send_as(z, y, AerMsg::Pull(g, r));
                }
            }
        }
    }

    fn schedules(&self) -> bool {
        false // keeps the default uniform (1, 0) schedule
    }

    fn observes(&self) -> bool {
        false // `observe` is the default no-op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AttackContext;
    use crate::{AerConfig, AerHarness};
    use fba_ae::{Precondition, UnknowingAssignment};
    use fba_sim::rng::derive_rng;
    use fba_sim::NoAdversary;

    fn setup(n: usize) -> (AerHarness, Precondition) {
        let cfg = AerConfig::recommended(n);
        let pre = Precondition::synthetic(
            n,
            cfg.string_len,
            0.8,
            UnknowingAssignment::RandomPerNode,
            5,
        );
        (AerHarness::from_precondition(cfg, &pre), pre)
    }

    #[test]
    fn sprays_the_requested_volume() {
        let (h, pre) = setup(64);
        let ctx = AttackContext::new(&h, pre.gstring);
        let (d, t) = (h.config().d, ctx.t);
        let mut adv = PullFlood::new(ctx, 3, 2);
        let mut rng = derive_rng(1, &[]);
        let corrupt = Adversary::<AerMsg>::corrupt(&mut adv, 64, &mut rng);
        let mut out = Outbox::new(&corrupt, 64);
        adv.act(0, None, &mut out);
        // Each request = d polls + d pulls.
        assert_eq!(out.len(), t * 3 * 2 * d);
        let mut out2 = Outbox::new(&corrupt, 64);
        adv.act(5, None, &mut out2);
        assert!(out2.is_empty(), "flood stops after `steps`");
    }

    #[test]
    fn amplification_is_capped_by_the_forward_once_filter() {
        let n = 96;
        let (h, pre) = setup(n);
        let ctx = AttackContext::new(&h, pre.gstring);
        let d = h.config().d as u64;

        let baseline = h.run(&h.engine_sync(), 7, &mut NoAdversary);
        // Heavy flood: 16 requests per corrupt node per step, 6 steps.
        let mut flood = PullFlood::new(ctx, 16, 6);
        let attacked = h.run(&h.engine_sync(), 7, &mut flood);

        assert_eq!(
            attacked.unanimous(),
            Some(&pre.gstring),
            "flooding must not corrupt agreement"
        );
        // The only extra *correct-node* work the flood can trigger is one
        // routed verification per corrupt node (forward-once), costing
        // ≈ d³ Fw1s + d² Fw2s + answers. Everything beyond that was
        // filtered.
        let t = attacked.corrupt.len() as u64;
        let per_request = d * d * d + 2 * d * d; // generous envelope
        let budget = baseline.metrics.correct_msgs_sent() + t * per_request;
        let measured = attacked.metrics.correct_msgs_sent();
        assert!(
            measured <= budget,
            "amplification exceeded the forward-once envelope: {measured} > {budget}"
        );
    }

    #[test]
    fn repeated_labels_do_not_earn_repeated_routing() {
        // A single corrupt requester sending 50 pulls must trigger at most
        // one Fw1 wave per router.
        let n = 64;
        let (h, pre) = setup(n);
        let ctx = AttackContext::new(&h, pre.gstring);
        let mut engine = h.engine_sync();
        engine.record_transcript = true;
        let mut flood = PullFlood::new(ctx, 50, 1);
        let out = h.run(&engine, 9, &mut flood);
        let corrupt = out.corrupt.clone();
        // Count Fw1 messages whose origin is corrupt, grouped by router.
        use std::collections::BTreeMap;
        let mut per_router: BTreeMap<NodeId, usize> = BTreeMap::new();
        for env in &out.transcript {
            if let AerMsg::Fw1 { origin, .. } = &env.msg {
                if corrupt.contains(origin) && !corrupt.contains(&env.from) {
                    *per_router.entry(env.from).or_default() += 1;
                }
            }
        }
        let d = h.config().d;
        for (router, count) in per_router {
            // One forward per (corrupt requester, gstring): ≤ t requesters
            // × d² fanout; but a single router serves only the requesters
            // whose H(g, x) it belongs to (expected d of them).
            assert!(
                count <= 3 * d * d * d,
                "router {router} forwarded {count} corrupt-origin Fw1s"
            );
        }
    }
}
