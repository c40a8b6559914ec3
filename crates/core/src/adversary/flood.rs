//! Push-phase flooding strategies.

use std::collections::BTreeSet;

use fba_samplers::GString;
use fba_sim::{Adversary, Envelope, NodeId, Outbox, Step};
use rand::Rng;
use rand_chacha::ChaCha12Rng;

use crate::msg::AerMsg;

use super::AttackContext;

/// Blind flooding: every corrupt node sprays freshly random strings at
/// random victims during the first steps.
///
/// §3.1.1: "the adversary cannot increase the communication complexity of
/// this phase by sending many candidate strings to all nodes" — receivers
/// check membership in `I(s, x)`, so none of this traffic creates
/// counters, candidates, or responses. Tests assert exactly that.
#[derive(Clone, Debug)]
pub struct RandomStringFlood {
    ctx: AttackContext,
    /// Pushes per corrupt node per step.
    pub rate: usize,
    /// Number of steps to keep flooding.
    pub steps: Step,
    corrupt: Vec<NodeId>,
}

impl RandomStringFlood {
    /// Creates the strategy; `rate` pushes per corrupt node for `steps`
    /// steps.
    #[must_use]
    pub fn new(ctx: AttackContext, rate: usize, steps: Step) -> Self {
        RandomStringFlood {
            ctx,
            rate,
            steps,
            corrupt: Vec::new(),
        }
    }
}

impl Adversary<AerMsg> for RandomStringFlood {
    fn corrupt(&mut self, n: usize, rng: &mut ChaCha12Rng) -> BTreeSet<NodeId> {
        self.ctx.n = n;
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
        // Deterministic per-step pseudo-randomness derived from the step.
        let mut rng = fba_sim::rng::derive_rng(0xf100d, &[step]);
        let len = self.ctx.gstring.len_bits();
        for &z in &self.corrupt {
            for _ in 0..self.rate {
                let victim = NodeId::from_index(rng.gen_range(0..self.ctx.n));
                let junk = GString::random(len, &mut rng);
                out.send_as(z, victim, AerMsg::Push(junk));
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

/// Coherent push flooding: all corrupt nodes push one shared bogus string
/// through the quorum slots they legitimately occupy (`z ∈ I(bad, x)`).
///
/// This is the strongest admissible push attack — Lemma 4 bounds its
/// damage: the corrupt nodes control a majority in only `O(θ·n)` push
/// quorums, so the bogus string lands in `O(n)` candidate lists at most.
#[derive(Clone, Debug)]
pub struct PushFlood {
    ctx: AttackContext,
    /// The bogus string being pushed.
    pub bad: GString,
    corrupt: Vec<NodeId>,
    targets: Vec<(NodeId, NodeId)>,
}

impl PushFlood {
    /// Creates the strategy pushing `bad`.
    #[must_use]
    pub fn new(ctx: AttackContext, bad: GString) -> Self {
        PushFlood {
            ctx,
            bad,
            corrupt: Vec::new(),
            targets: Vec::new(),
        }
    }
}

impl Adversary<AerMsg> for PushFlood {
    fn corrupt(&mut self, n: usize, rng: &mut ChaCha12Rng) -> BTreeSet<NodeId> {
        let set = self.ctx.coalition(n, rng, &mut self.corrupt);
        // Precompute the legitimate push edges for the bogus string.
        let inverse = self.ctx.scheme.push.inverse_for_string(self.bad.key());
        self.targets = self
            .corrupt
            .iter()
            .flat_map(|&z| inverse[z.index()].iter().map(move |&x| (z, x)))
            .collect();
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
        for &(z, x) in &self.targets {
            out.send_as(z, x, AerMsg::Push(self.bad));
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

    fn setup(n: usize) -> (AerHarness, Precondition, AttackContext) {
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
        (h, pre, ctx)
    }

    #[test]
    fn random_flood_sends_at_requested_rate() {
        let (_, _, ctx) = setup(64);
        let t = ctx.t;
        let mut adv = RandomStringFlood::new(ctx, 3, 2);
        let mut rng = derive_rng(1, &[]);
        let corrupt = Adversary::<AerMsg>::corrupt(&mut adv, 64, &mut rng);
        assert_eq!(corrupt.len(), t);
        let mut out = Outbox::new(&corrupt, 64);
        adv.act(0, None, &mut out);
        assert_eq!(out.len(), t * 3);
        let mut out2 = Outbox::new(&corrupt, 64);
        adv.act(5, None, &mut out2); // past `steps`
        assert!(out2.is_empty());
    }

    #[test]
    fn push_flood_only_uses_legitimate_slots() {
        let (h, _, ctx) = setup(64);
        let bad = GString::random(ctx.gstring.len_bits(), &mut derive_rng(7, &[]));
        let mut adv = PushFlood::new(ctx, bad);
        let mut rng = derive_rng(2, &[]);
        let corrupt = Adversary::<AerMsg>::corrupt(&mut adv, 64, &mut rng);
        let mut out = Outbox::new(&corrupt, 64);
        adv.act(0, None, &mut out);
        let scheme = h.scheme();
        for (from, to, msg) in out.into_sends() {
            assert!(corrupt.contains(&from));
            match msg {
                AerMsg::Push(s) => {
                    assert_eq!(s, bad);
                    assert!(
                        scheme.push.contains(s.key(), to, from),
                        "push outside I(bad, {to}) from {from}"
                    );
                }
                other => panic!("unexpected message {other:?}"),
            }
        }
    }
}
