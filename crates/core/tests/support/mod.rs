//! Driving one node's handlers by hand: a [`Context`] over an outbox of
//! the test's own, and what the handler wrote into it. Test-only and
//! written against `fba-sim`'s public API alone; the unit tests of
//! `fba-core` pull it in through `crate::test_support`, the integration
//! tests with `mod support` (one copy).

use fba_sim::rng::node_rng;
use fba_sim::{Context, NodeId, Runs, Step};
use rand_chacha::ChaCha12Rng;

/// One node's side of the engine: its identity, the system size and its
/// private RNG, which lives across calls as it does across callbacks.
pub struct Hand {
    id: NodeId,
    n: usize,
    rng: ChaCha12Rng,
}

impl Hand {
    /// The hand of node `id` in a system of `n`, its RNG the node's
    /// stream under master seed `seed`.
    pub fn new(id: NodeId, n: usize, seed: u64) -> Self {
        let rng = node_rng(seed, id.index());
        Hand { id, n, rng }
    }

    /// Runs `handler` against a fresh context at `step` and returns the
    /// outbox it filled, by the run.
    pub fn outbox<M>(&mut self, step: Step, handler: impl FnOnce(&mut Context<'_, M>)) -> Runs<M> {
        let mut out = Runs::new();
        handler(&mut Context::new(
            self.id,
            self.n,
            step,
            &mut self.rng,
            &mut out,
        ));
        out
    }

    /// What `handler` sent at `step`: the outbox's per-envelope view, in
    /// send order.
    pub fn sent<M: Clone>(
        &mut self,
        step: Step,
        handler: impl FnOnce(&mut Context<'_, M>),
    ) -> Vec<(NodeId, M)> {
        let mut sent = Vec::new();
        self.outbox(step, handler)
            .for_each_message(|to, msg| sent.push((to, msg)));
        sent
    }
}
