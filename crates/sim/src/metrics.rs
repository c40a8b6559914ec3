//! Per-run communication and time accounting.
//!
//! The paper evaluates protocols on two metrics (§2.1):
//!
//! * **Time complexity** — number of steps before all correct nodes return
//!   an agreement value.
//! * **Communication complexity** — total exchanged bits divided by the
//!   number of nodes ("amortized" over nodes, not time).
//!
//! [`Metrics`] records both, per node, and additionally exposes the
//! *load-balance* view needed for Figure 1a's "Load-Balanced" row: AER
//! deliberately relaxes load-balancing, so its max-node load can grow much
//! faster than its mean load.

use std::collections::BTreeSet;

use crate::ids::{NodeId, Step};

/// Aggregated statistics over a per-node quantity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoadSummary {
    /// Largest per-node value.
    pub max: u64,
    /// Mean per-node value.
    pub mean: f64,
    /// `max / mean`; 1.0 means perfectly balanced. Defined as 0 when the
    /// mean is 0.
    pub imbalance: f64,
}

impl LoadSummary {
    fn from_values(values: impl Iterator<Item = u64>) -> Self {
        let mut max = 0u64;
        let mut sum = 0u128;
        let mut count = 0u64;
        for v in values {
            max = max.max(v);
            sum += u128::from(v);
            count += 1;
        }
        let mean = if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        };
        let imbalance = if mean == 0.0 { 0.0 } else { max as f64 / mean };
        LoadSummary {
            max,
            mean,
            imbalance,
        }
    }
}

/// Communication and decision accounting for one simulated run.
///
/// The corrupt set is borrowed at construction and stored as a membership
/// mask: per-node `O(1)` corruption checks on the metric paths, and no
/// clone of the caller's set (the engine keeps ownership for
/// [`crate::RunOutcome::corrupt`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Metrics {
    n: usize,
    corrupt_mask: Vec<bool>,
    corrupt_count: usize,
    msgs_sent: Vec<u64>,
    bits_sent: Vec<u64>,
    msgs_recv: Vec<u64>,
    bits_recv: Vec<u64>,
    decided_at: Vec<Option<Step>>,
    msgs_dropped: u64,
    /// Step at which the run stopped (last executed step).
    pub steps: Step,
}

impl Metrics {
    /// Creates empty metrics for a system of `n` nodes with the given
    /// corrupt set (borrowed; out-of-range ids are ignored).
    #[must_use]
    pub fn new(n: usize, corrupt: &BTreeSet<NodeId>) -> Self {
        let mut corrupt_mask = vec![false; n];
        let mut corrupt_count = 0;
        for id in corrupt {
            if id.index() < n && !corrupt_mask[id.index()] {
                corrupt_mask[id.index()] = true;
                corrupt_count += 1;
            }
        }
        Metrics {
            n,
            corrupt_mask,
            corrupt_count,
            msgs_sent: vec![0; n],
            bits_sent: vec![0; n],
            msgs_recv: vec![0; n],
            bits_recv: vec![0; n],
            decided_at: vec![None; n],
            msgs_dropped: 0,
            steps: 0,
        }
    }

    /// System size.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether `node` is in this run's corrupt set.
    #[must_use]
    pub fn is_corrupt(&self, node: NodeId) -> bool {
        self.corrupt_mask[node.index()]
    }

    /// Size of this run's corrupt set.
    #[must_use]
    pub fn corrupt_count(&self) -> usize {
        self.corrupt_count
    }

    /// Records one sent message of `bits` total wire bits.
    pub fn record_send(&mut self, from: NodeId, bits: u64) {
        self.msgs_sent[from.index()] += 1;
        self.bits_sent[from.index()] += bits;
    }

    /// Records `count` identical sent messages of `bits_per_msg` total
    /// wire bits each — the batched-delivery accounting path. A batch of
    /// `k` messages counts exactly like `k` [`Metrics::record_send`]
    /// calls: batching is wire framing, not a metrics discount.
    pub fn record_send_run(&mut self, from: NodeId, count: u64, bits_per_msg: u64) {
        self.msgs_sent[from.index()] += count;
        self.bits_sent[from.index()] += count * bits_per_msg;
    }

    /// Records one delivered message of `bits` total wire bits.
    pub fn record_recv(&mut self, to: NodeId, bits: u64) {
        self.msgs_recv[to.index()] += 1;
        self.bits_recv[to.index()] += bits;
    }

    /// Records `count` logical messages dropped by the network — the
    /// crash fault family's accounting: deliveries whose sender or
    /// recipient was dark at delivery time never reach `record_recv` and
    /// land here instead. Always 0 in runs without crash outages.
    pub fn record_dropped(&mut self, count: u64) {
        self.msgs_dropped += count;
    }

    /// Total logical messages dropped on dark-node edges.
    #[must_use]
    pub fn msgs_dropped(&self) -> u64 {
        self.msgs_dropped
    }

    /// Records the step at which a node first produced an output. Later
    /// calls for the same node are ignored.
    pub fn record_decision(&mut self, node: NodeId, step: Step) {
        let slot = &mut self.decided_at[node.index()];
        if slot.is_none() {
            *slot = Some(step);
        }
    }

    /// Step at which `node` decided, if it did.
    #[must_use]
    pub fn decided_at(&self, node: NodeId) -> Option<Step> {
        self.decided_at[node.index()]
    }

    /// The step by which *all* correct nodes had decided, i.e. the paper's
    /// time-complexity metric. `None` if some correct node never decided.
    #[must_use]
    pub fn all_correct_decided_at(&self) -> Option<Step> {
        let mut latest = 0;
        for id in self.correct_ids() {
            match self.decided_at[id.index()] {
                Some(s) => latest = latest.max(s),
                None => return None,
            }
        }
        Some(latest)
    }

    /// The step by which a `q` fraction (`0 < q ≤ 1`) of correct nodes had
    /// decided; `None` if fewer than that fraction ever decided.
    ///
    /// Timing experiments report quantiles because a handful of
    /// finite-size stragglers (or strict-mode casualties) would otherwise
    /// turn every measurement into `∞`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `(0, 1]`.
    #[must_use]
    pub fn decided_quantile(&self, q: f64) -> Option<Step> {
        assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
        let mut steps: Vec<Step> = self
            .correct_ids()
            .filter_map(|id| self.decided_at[id.index()])
            .collect();
        let correct = self.correct_ids().count();
        let need = ((correct as f64) * q).ceil() as usize;
        if steps.len() < need || need == 0 {
            return None;
        }
        steps.sort_unstable();
        Some(steps[need - 1])
    }

    /// Fraction of correct nodes that decided.
    #[must_use]
    pub fn decided_fraction(&self) -> f64 {
        let correct = self.correct_ids().count();
        if correct == 0 {
            return 0.0;
        }
        let decided = self
            .correct_ids()
            .filter(|id| self.decided_at[id.index()].is_some())
            .count();
        decided as f64 / correct as f64
    }

    fn correct_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n)
            .map(NodeId::from_index)
            .filter(move |id| !self.corrupt_mask[id.index()])
    }

    /// Total bits sent by correct nodes.
    ///
    /// The paper's communication complexity counts bits exchanged *by the
    /// protocol*; Byzantine traffic is unbounded by definition and filtered
    /// by recipients, so correct-node totals are the meaningful quantity
    /// (see Lemma 3's phrasing "messages sent by any good node").
    #[must_use]
    pub fn correct_bits_sent(&self) -> u64 {
        self.correct_ids()
            .map(|id| self.bits_sent[id.index()])
            .sum()
    }

    /// Total messages sent by correct nodes.
    #[must_use]
    pub fn correct_msgs_sent(&self) -> u64 {
        self.correct_ids()
            .map(|id| self.msgs_sent[id.index()])
            .sum()
    }

    /// Total bits sent by all nodes, including Byzantine ones.
    #[must_use]
    pub fn total_bits_sent(&self) -> u64 {
        self.bits_sent.iter().sum()
    }

    /// Total messages sent by all nodes, including Byzantine ones.
    #[must_use]
    pub fn total_msgs_sent(&self) -> u64 {
        self.msgs_sent.iter().sum()
    }

    /// Amortized communication complexity: correct-node bits divided by `n`.
    #[must_use]
    pub fn amortized_bits(&self) -> f64 {
        self.correct_bits_sent() as f64 / self.n.max(1) as f64
    }

    /// Bits sent by one node.
    #[must_use]
    pub fn bits_sent_by(&self, node: NodeId) -> u64 {
        self.bits_sent[node.index()]
    }

    /// Messages sent by one node.
    #[must_use]
    pub fn msgs_sent_by(&self, node: NodeId) -> u64 {
        self.msgs_sent[node.index()]
    }

    /// Bits received by one node.
    #[must_use]
    pub fn bits_recv_by(&self, node: NodeId) -> u64 {
        self.bits_recv[node.index()]
    }

    /// Messages received by one node.
    #[must_use]
    pub fn msgs_recv_by(&self, node: NodeId) -> u64 {
        self.msgs_recv[node.index()]
    }

    /// Load summary of bits *received* across correct nodes.
    ///
    /// Receive-side load is where AER gives up load-balancing: the adversary
    /// can concentrate verification work on a few victims (§1, "AER is not
    /// load-balanced").
    #[must_use]
    pub fn recv_load(&self) -> LoadSummary {
        LoadSummary::from_values(self.correct_ids().map(|id| self.bits_recv[id.index()]))
    }

    /// Number of correct nodes that decided in this run.
    #[must_use]
    pub fn decided_count(&self) -> u64 {
        self.correct_ids()
            .filter(|id| self.decided_at[id.index()].is_some())
            .count() as u64
    }
}

/// Run-cumulative accounting across a *sequence* of engine instances.
///
/// [`Metrics`] is deliberately a per-instance view: every engine run
/// constructs a fresh one, so `decided_fraction`, per-node loads, and
/// msgs/bits always describe exactly one agreement instance. Service
/// (chained agreement) runs need the complementary cumulative view — this
/// type absorbs one `Metrics` per finished instance and keeps only sums,
/// so nothing is ever double-counted: `absorb` is called exactly once per
/// instance and the per-instance views stay untouched.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsTotals {
    instances: u64,
    decided_instances: u64,
    decisions: u64,
    msgs_sent: u64,
    bits_sent: u64,
    correct_msgs_sent: u64,
    correct_bits_sent: u64,
    steps: Step,
}

impl MetricsTotals {
    /// Creates empty totals (no instances absorbed yet).
    #[must_use]
    pub fn new() -> Self {
        MetricsTotals::default()
    }

    /// Folds one finished instance's metrics into the running totals.
    pub fn absorb(&mut self, m: &Metrics) {
        self.instances += 1;
        if m.all_correct_decided_at().is_some() {
            self.decided_instances += 1;
        }
        self.decisions += m.decided_count();
        self.msgs_sent += m.total_msgs_sent();
        self.bits_sent += m.total_bits_sent();
        self.correct_msgs_sent += m.correct_msgs_sent();
        self.correct_bits_sent += m.correct_bits_sent();
        self.steps += m.steps;
    }

    /// Number of instances absorbed.
    #[must_use]
    pub fn instances(&self) -> u64 {
        self.instances
    }

    /// Instances in which *every* correct node decided.
    #[must_use]
    pub fn decided_instances(&self) -> u64 {
        self.decided_instances
    }

    /// Total per-node decisions across all instances.
    #[must_use]
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Total messages sent across all instances (all nodes).
    #[must_use]
    pub fn total_msgs_sent(&self) -> u64 {
        self.msgs_sent
    }

    /// Total bits sent across all instances (all nodes).
    #[must_use]
    pub fn total_bits_sent(&self) -> u64 {
        self.bits_sent
    }

    /// Total messages sent by correct nodes across all instances.
    #[must_use]
    pub fn correct_msgs_sent(&self) -> u64 {
        self.correct_msgs_sent
    }

    /// Total bits sent by correct nodes across all instances.
    #[must_use]
    pub fn correct_bits_sent(&self) -> u64 {
        self.correct_bits_sent
    }

    /// Total engine steps executed across all instances.
    #[must_use]
    pub fn steps(&self) -> Step {
        self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn send_recv_accounting() {
        let mut m = Metrics::new(3, &BTreeSet::new());
        m.record_send(id(0), 100);
        m.record_send(id(0), 50);
        m.record_recv(id(1), 100);
        assert_eq!(m.bits_sent_by(id(0)), 150);
        assert_eq!(m.msgs_sent_by(id(0)), 2);
        assert_eq!(m.bits_recv_by(id(1)), 100);
        assert_eq!(m.msgs_recv_by(id(1)), 1);
        assert_eq!(m.total_bits_sent(), 150);
        assert_eq!(m.total_msgs_sent(), 2);
    }

    #[test]
    fn send_run_counts_like_k_individual_sends() {
        // Batching is wire framing, not a metrics discount: a run of k
        // identical messages must account exactly like k single sends.
        let mut batched = Metrics::new(2, &BTreeSet::new());
        batched.record_send_run(id(0), 5, 32);
        let mut single = Metrics::new(2, &BTreeSet::new());
        for _ in 0..5 {
            single.record_send(id(0), 32);
        }
        assert_eq!(batched.msgs_sent_by(id(0)), single.msgs_sent_by(id(0)));
        assert_eq!(batched.bits_sent_by(id(0)), single.bits_sent_by(id(0)));
        assert_eq!(batched.total_msgs_sent(), 5);
        assert_eq!(batched.total_bits_sent(), 5 * 32);
    }

    #[test]
    fn corrupt_traffic_excluded_from_correct_totals() {
        let corrupt: BTreeSet<_> = [id(2)].into_iter().collect();
        let mut m = Metrics::new(3, &corrupt);
        m.record_send(id(0), 10);
        m.record_send(id(2), 1_000_000);
        assert_eq!(m.correct_bits_sent(), 10);
        assert_eq!(m.total_bits_sent(), 1_000_010);
        assert!((m.amortized_bits() - 10.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn decision_tracking_keeps_first() {
        let mut m = Metrics::new(2, &BTreeSet::new());
        m.record_decision(id(0), 4);
        m.record_decision(id(0), 9);
        assert_eq!(m.decided_at(id(0)), Some(4));
        assert_eq!(m.all_correct_decided_at(), None);
        m.record_decision(id(1), 7);
        assert_eq!(m.all_correct_decided_at(), Some(7));
    }

    #[test]
    fn all_correct_decided_ignores_corrupt() {
        let corrupt: BTreeSet<_> = [id(1)].into_iter().collect();
        let mut m = Metrics::new(2, &corrupt);
        m.record_decision(id(0), 3);
        assert_eq!(m.all_correct_decided_at(), Some(3));
    }

    #[test]
    fn decided_quantile_and_fraction() {
        let mut m = Metrics::new(4, &BTreeSet::new());
        m.record_decision(id(0), 2);
        m.record_decision(id(1), 5);
        m.record_decision(id(2), 9);
        assert_eq!(m.decided_quantile(0.5), Some(5));
        assert_eq!(m.decided_quantile(0.75), Some(9));
        assert_eq!(m.decided_quantile(1.0), None, "node 3 never decided");
        assert!((m.decided_fraction() - 0.75).abs() < 1e-12);
        m.record_decision(id(3), 11);
        assert_eq!(m.decided_quantile(1.0), Some(11));
        assert_eq!(m.decided_fraction(), 1.0);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn decided_quantile_rejects_zero() {
        let m = Metrics::new(2, &BTreeSet::new());
        let _ = m.decided_quantile(0.0);
    }

    #[test]
    fn load_summary_basics() {
        let mut m = Metrics::new(4, &BTreeSet::new());
        m.record_recv(id(0), 10);
        m.record_recv(id(1), 10);
        m.record_recv(id(2), 10);
        m.record_recv(id(3), 70);
        let s = m.recv_load();
        assert_eq!(s.max, 70);
        assert!((s.mean - 25.0).abs() < 1e-12);
        assert!((s.imbalance - 2.8).abs() < 1e-12);
    }

    #[test]
    fn load_summary_zero_traffic() {
        let m = Metrics::new(4, &BTreeSet::new());
        let s = m.recv_load();
        assert_eq!(s.max, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.imbalance, 0.0);
    }

    #[test]
    fn totals_sum_instances_without_double_counting() {
        let corrupt: BTreeSet<_> = [id(2)].into_iter().collect();
        let mut a = Metrics::new(3, &corrupt);
        a.record_send(id(0), 10);
        a.record_send(id(2), 1000); // corrupt traffic
        a.record_decision(id(0), 2);
        a.record_decision(id(1), 3);
        a.steps = 5;
        let mut b = Metrics::new(3, &corrupt);
        b.record_send(id(1), 7);
        b.record_recv(id(0), 7);
        b.record_decision(id(0), 1);
        b.steps = 4;

        let mut totals = MetricsTotals::new();
        totals.absorb(&a);
        totals.absorb(&b);

        assert_eq!(totals.instances(), 2);
        // Instance a fully decided (both correct nodes); b did not.
        assert_eq!(totals.decided_instances(), 1);
        assert_eq!(totals.decisions(), 3);
        assert_eq!(
            totals.total_msgs_sent(),
            a.total_msgs_sent() + b.total_msgs_sent()
        );
        assert_eq!(
            totals.total_bits_sent(),
            a.total_bits_sent() + b.total_bits_sent()
        );
        assert_eq!(
            totals.correct_bits_sent(),
            a.correct_bits_sent() + b.correct_bits_sent()
        );
        assert_eq!(totals.correct_bits_sent(), 17, "corrupt bits excluded");
        assert_eq!(totals.steps(), 9);
        // Absorbing never mutates the per-instance views.
        assert_eq!(a.total_bits_sent(), 1010);
        assert!((a.decided_fraction() - 1.0).abs() < 1e-12);
        assert!((b.decided_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_totals_are_all_zero() {
        let t = MetricsTotals::new();
        assert_eq!(t.instances(), 0);
        assert_eq!(t.decided_instances(), 0);
        assert_eq!(t.decisions(), 0);
        assert_eq!(t.total_msgs_sent(), 0);
        assert_eq!(t.correct_msgs_sent(), 0);
        assert_eq!(t.steps(), 0);
    }
}
