//! Equivocation attack: different stories to different victims.

use std::collections::BTreeSet;

use fba_samplers::GString;
use fba_sim::{Adversary, Envelope, NodeId, Outbox, Step};
use rand_chacha::ChaCha12Rng;

use crate::msg::AerMsg;

use super::AttackContext;

/// Each corrupt node fabricates `k` distinct strings and pushes every one
/// of them through its legitimate quorum slots — possible because the
/// model provides authenticated channels but *no* transferable
/// authentication or non-equivocation (§2.1).
///
/// The defence is Lemma 4: acceptance needs a quorum majority per
/// `(s, x)`, so the total candidate-list inflation stays `O(n)` no matter
/// how many strings the adversary invents. The `l4` experiment measures
/// exactly this.
#[derive(Clone, Debug)]
pub struct Equivocate {
    ctx: AttackContext,
    /// Distinct strings fabricated per corrupt node.
    pub strings_per_node: usize,
    corrupt: Vec<NodeId>,
    /// Precomputed (sender, victim, string) push edges.
    plan: Vec<(NodeId, NodeId, GString)>,
}

impl Equivocate {
    /// Creates the strategy with `strings_per_node` fabrications per
    /// corrupt node.
    #[must_use]
    pub fn new(ctx: AttackContext, strings_per_node: usize) -> Self {
        Equivocate {
            ctx,
            strings_per_node,
            corrupt: Vec::new(),
            plan: Vec::new(),
        }
    }
}

impl Adversary<AerMsg> for Equivocate {
    fn corrupt(&mut self, n: usize, rng: &mut ChaCha12Rng) -> BTreeSet<NodeId> {
        let set = self.ctx.coalition(n, rng, &mut self.corrupt);
        let len = self.ctx.gstring.len_bits();
        // All corrupt nodes share the fabricated string pool so each pool
        // entry gets pushes from many corrupt quorum members (maximising
        // the chance of crossing some acceptance threshold somewhere).
        let pool: Vec<GString> = (0..self.strings_per_node)
            .map(|_| GString::random(len, rng))
            .collect();
        for s in &pool {
            let edges = self.ctx.push_edges(s, &self.corrupt);
            self.plan.extend(edges.into_iter().map(|(z, x)| (z, x, *s)));
        }
        set
    }

    fn act(
        &mut self,
        step: Step,
        _view: Option<&[Envelope<AerMsg>]>,
        out: &mut Outbox<'_, AerMsg>,
    ) {
        if step != 0 {
            return;
        }
        for (z, x, s) in &self.plan {
            out.send_as(*z, *x, AerMsg::Push(*s));
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

    #[test]
    fn equivocate_pushes_multiple_distinct_strings_per_sender() {
        let n = 64;
        let cfg = AerConfig::recommended(n);
        let pre = Precondition::synthetic(
            n,
            cfg.string_len,
            0.8,
            UnknowingAssignment::RandomPerNode,
            5,
        );
        let h = AerHarness::from_precondition(cfg, &pre);
        let ctx = AttackContext::new(&h, pre.gstring);
        let mut adv = Equivocate::new(ctx, 4);
        let mut rng = derive_rng(3, &[]);
        let corrupt = Adversary::<AerMsg>::corrupt(&mut adv, n, &mut rng);
        let mut out = Outbox::new(&corrupt, n);
        adv.act(0, None, &mut out);
        let sends = out.into_sends();
        assert!(!sends.is_empty());
        // Each push must use a legitimate quorum slot.
        let scheme = h.scheme();
        let mut strings = BTreeSet::new();
        for (from, to, msg) in &sends {
            if let AerMsg::Push(s) = msg {
                assert!(scheme.push.contains(s.key(), *to, *from));
                strings.insert(*s);
            }
        }
        assert_eq!(strings.len(), 4, "the fabricated pool has 4 strings");
        // Step 1: silent.
        let mut out2 = Outbox::new(&corrupt, n);
        adv.act(1, None, &mut out2);
        assert!(out2.is_empty());
    }
}
