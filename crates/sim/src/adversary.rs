//! The coordinated Byzantine adversary interface.
//!
//! The paper's adversary (§2.1) controls up to `t` nodes, has *full
//! knowledge* of the network, coordinates all corrupt nodes centrally, and
//! is **non-adaptive**: the corrupt set is fixed before the algorithm runs.
//! Two observation regimes exist:
//!
//! * a **rushing** adversary sees the messages correct nodes send during a
//!   step *before* choosing its own messages for that step;
//! * a **non-rushing** adversary chooses its messages for a step
//!   independently of correct messages sent during the same step (it still
//!   sees everything sent in strictly earlier steps).
//!
//! In asynchronous executions the adversary additionally schedules the
//! network: it assigns every message a delivery delay (bounded by the
//! engine's `max_delay`, enforcing reliability) and an intra-step
//! processing priority.

use std::collections::BTreeSet;

use rand::seq::index::sample;
use rand_chacha::ChaCha12Rng;

use crate::ids::{NodeId, Step};
use crate::message::Envelope;

/// Messages the adversary injects during its turn.
///
/// Sender identities are checked against the corrupt set: the model's
/// authenticated channels make sender forgery impossible.
#[derive(Debug)]
pub struct Outbox<'a, M> {
    corrupt: &'a BTreeSet<NodeId>,
    n: usize,
    sends: Vec<(NodeId, NodeId, M)>,
}

impl<'a, M> Outbox<'a, M> {
    /// Creates an outbox bound to a corrupt set. Engine-internal, exposed
    /// for adversary unit tests.
    #[must_use]
    pub fn new(corrupt: &'a BTreeSet<NodeId>, n: usize) -> Self {
        Outbox {
            corrupt,
            n,
            sends: Vec::new(),
        }
    }

    /// Queues `msg` from corrupt node `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not corrupt (authenticated channels cannot be
    /// forged) or if `to` is out of range.
    pub fn send_as(&mut self, from: NodeId, to: NodeId, msg: M) {
        assert!(
            self.corrupt.contains(&from),
            "adversary tried to forge sender {from}, which is not corrupt"
        );
        assert!(to.index() < self.n, "send target {to} out of range");
        self.sends.push((from, to, msg));
    }

    /// Number of messages queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sends.len()
    }

    /// Whether no messages are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty()
    }

    /// Consumes the outbox, returning the queued `(from, to, msg)` triples.
    #[must_use]
    pub fn into_sends(self) -> Vec<(NodeId, NodeId, M)> {
        self.sends
    }
}

/// A coordinated, full-information, non-adaptive Byzantine adversary.
///
/// One adversary instance plays *all* corrupt nodes of a run. Every message
/// sent by anyone is eventually shown to it via [`Adversary::observe`]
/// (full-information model); rushing adversaries additionally receive the
/// current step's correct sends inside [`Adversary::act`].
pub trait Adversary<M: Clone> {
    /// Chooses the corrupt set before the run starts (non-adaptive
    /// corruption). Must return node ids in `0..n`.
    fn corrupt(&mut self, n: usize, rng: &mut ChaCha12Rng) -> BTreeSet<NodeId>;

    /// Whether this adversary is rushing (§2.1).
    fn rushing(&self) -> bool {
        false
    }

    /// The adversary's turn for `step`.
    ///
    /// `rushing_view` is `Some(correct sends of this step)`, one
    /// [`Envelope`] per logical message in send order, iff
    /// [`Adversary::rushing`] returns true, and `None` otherwise. Messages
    /// queued on `out` are handed to the network at the end of the step and
    /// delivered no earlier than `step + 1`.
    ///
    /// A step has one such view. What `act` is lent here is the buffer
    /// that [`Adversary::delay`] / [`Adversary::priority`] are then
    /// consulted over and that [`Adversary::observe`],
    /// [`Observer::on_step`](crate::Observer::on_step) and the transcript
    /// read, by then with this turn's own sends appended — so read it in
    /// place; a strategy that copies it doubles the step's footprint.
    fn act(&mut self, step: Step, rushing_view: Option<&[Envelope<M>]>, out: &mut Outbox<'_, M>);

    /// Full-information observation hook: called at the end of every step
    /// with *all* messages sent during it — the correct sends `act` was
    /// (or, not rushing, would have been) shown, in the same order,
    /// followed by the adversary's own.
    fn observe(&mut self, step: Step, sends: &[Envelope<M>]) {
        let _ = (step, sends);
    }

    /// Network-scheduling power (asynchronous executions): the delivery
    /// delay for `env`, in steps. The engine clamps the result to
    /// `1..=max_delay`, which enforces the model's reliability assumption.
    fn delay(&mut self, env: &Envelope<M>) -> Step {
        let _ = env;
        1
    }

    /// Network-scheduling power: intra-step processing priority for `env`.
    /// Deliveries due at the same step are processed in ascending priority
    /// order (ties broken by send order).
    fn priority(&mut self, env: &Envelope<M>) -> i64 {
        let _ = env;
        0
    }

    /// Whether the engine must consult [`Adversary::delay`] /
    /// [`Adversary::priority`] for every envelope. Defaults to `true`
    /// (always correct); adversaries that keep the default uniform
    /// `(delay 1, priority 0)` schedule may return `false`, letting the
    /// engine skip per-message materialisation on batched fast paths.
    /// Must return `true` whenever either scheduling hook is overridden
    /// (the reference engine ignores the hint, so the differential suites
    /// catch a wrong `false`).
    fn schedules(&self) -> bool {
        true
    }

    /// Whether the engine must call [`Adversary::observe`] each step.
    /// Defaults to `true` (always correct); adversaries whose `observe` is
    /// the default no-op may return `false` to skip the per-step
    /// materialisation of the full send view. Must return `true` whenever
    /// `observe` is overridden (checked like [`Adversary::schedules`]).
    fn observes(&self) -> bool {
        true
    }
}

/// Samples a uniformly random corrupt set of size `t` from `0..n`.
///
/// # Panics
///
/// Panics if `t > n`.
#[must_use]
pub fn choose_corrupt(n: usize, t: usize, rng: &mut ChaCha12Rng) -> BTreeSet<NodeId> {
    assert!(t <= n, "cannot corrupt {t} of {n} nodes");
    sample(rng, n, t)
        .into_iter()
        .map(NodeId::from_index)
        .collect()
}

/// The benign environment: no node is corrupted, nothing is scheduled
/// adversarially. Used for fault-free runs ("unlike many randomized
/// protocols, success is guaranteed when there is no Byzantine fault").
#[derive(Clone, Copy, Debug, Default)]
pub struct NoAdversary;

impl<M: Clone> Adversary<M> for NoAdversary {
    fn corrupt(&mut self, _n: usize, _rng: &mut ChaCha12Rng) -> BTreeSet<NodeId> {
        BTreeSet::new()
    }

    fn act(&mut self, _step: Step, _view: Option<&[Envelope<M>]>, _out: &mut Outbox<'_, M>) {}

    fn schedules(&self) -> bool {
        false
    }

    fn observes(&self) -> bool {
        false
    }
}

/// Corrupts `t` random nodes that then stay silent (fail-stop behaviour).
///
/// The weakest Byzantine strategy; useful as a liveness smoke test because
/// quorum majorities must still be reached without the corrupt members.
#[derive(Clone, Copy, Debug)]
pub struct SilentAdversary {
    /// Number of nodes to corrupt.
    pub t: usize,
}

impl SilentAdversary {
    /// Creates a silent adversary corrupting `t` nodes.
    #[must_use]
    pub fn new(t: usize) -> Self {
        SilentAdversary { t }
    }
}

impl<M: Clone> Adversary<M> for SilentAdversary {
    fn corrupt(&mut self, n: usize, rng: &mut ChaCha12Rng) -> BTreeSet<NodeId> {
        choose_corrupt(n, self.t, rng)
    }

    fn act(&mut self, _step: Step, _view: Option<&[Envelope<M>]>, _out: &mut Outbox<'_, M>) {}

    fn schedules(&self) -> bool {
        false
    }

    fn observes(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::derive_rng;

    #[test]
    fn choose_corrupt_size_and_range() {
        let mut rng = derive_rng(3, &[]);
        let set = choose_corrupt(100, 33, &mut rng);
        assert_eq!(set.len(), 33);
        assert!(set.iter().all(|id| id.index() < 100));
    }

    #[test]
    fn choose_corrupt_is_deterministic() {
        let mut a = derive_rng(5, &[]);
        let mut b = derive_rng(5, &[]);
        assert_eq!(
            choose_corrupt(64, 21, &mut a),
            choose_corrupt(64, 21, &mut b)
        );
    }

    #[test]
    #[should_panic(expected = "cannot corrupt")]
    fn choose_corrupt_rejects_oversize() {
        let mut rng = derive_rng(3, &[]);
        let _ = choose_corrupt(4, 5, &mut rng);
    }

    #[test]
    fn outbox_accepts_corrupt_sender() {
        let corrupt: BTreeSet<_> = [NodeId::from_index(1)].into_iter().collect();
        let mut out: Outbox<'_, u32> = Outbox::new(&corrupt, 4);
        assert!(out.is_empty());
        out.send_as(NodeId::from_index(1), NodeId::from_index(0), 7);
        assert_eq!(out.len(), 1);
        let sends = out.into_sends();
        assert_eq!(
            sends,
            vec![(NodeId::from_index(1), NodeId::from_index(0), 7)]
        );
    }

    #[test]
    #[should_panic(expected = "forge")]
    fn outbox_rejects_forged_sender() {
        let corrupt: BTreeSet<_> = [NodeId::from_index(1)].into_iter().collect();
        let mut out: Outbox<'_, u32> = Outbox::new(&corrupt, 4);
        out.send_as(NodeId::from_index(0), NodeId::from_index(2), 7);
    }

    #[test]
    fn no_adversary_corrupts_nothing() {
        let mut rng = derive_rng(0, &[]);
        let set = <NoAdversary as Adversary<u32>>::corrupt(&mut NoAdversary, 10, &mut rng);
        assert!(set.is_empty());
        assert!(!<NoAdversary as Adversary<u32>>::rushing(&NoAdversary));
    }

    #[test]
    fn silent_adversary_corrupts_t() {
        let mut rng = derive_rng(0, &[]);
        let mut adv = SilentAdversary::new(3);
        let set = <SilentAdversary as Adversary<u32>>::corrupt(&mut adv, 10, &mut rng);
        assert_eq!(set.len(), 3);
    }
}
