//! Crash–restart outage plans: the resolved form of the crash fault
//! family.
//!
//! A [`CrashPlan`] names which *correct* nodes go dark over which step
//! windows. It is the fully resolved, engine-facing representation — the
//! `crash:[a..b]k` spec grammar and the seeded node sampling that produce
//! one live in `fba-recovery`; the engine only ever sees concrete node
//! lists. While a node is dark the engine suspends its callbacks and drops
//! every delivery to or from it; at the window's end the node is restarted
//! through [`crate::Protocol::on_restart`] and resumes normal execution.
//!
//! Crash faults are orthogonal to corruption: a crashed node is honest
//! (it follows the protocol before and after its outage), it just loses
//! its network presence — and, unless the protocol checkpoints, its
//! transient in-memory state — for a window. Corrupt nodes appearing in a
//! plan are ignored (the adversary already plays them).
//!
//! The windows obey the outage rules of [`Windows::outages`] — closed,
//! starting at step 1 or later (every node must execute `on_start`, or no
//! protocol state exists to checkpoint), ordered, non-overlapping,
//! non-empty — and every window names at least one node. An entirely
//! *empty* plan (no outages) is permitted programmatically and is the
//! engine's no-fault fast path: runs carrying one are bit-identical to
//! runs with no plan at all, a pin the equivalence suite enforces.

use crate::ids::{NodeId, Step};
use crate::window::{Window, WindowError, Windows};

/// A validated sequence of outages: per window, the nodes (sorted,
/// deduplicated) that crash at the start of step `start` and restart at
/// the start of step `end`. They miss every callback and delivery of
/// steps `start..end` and run again from step `end` (restart happens
/// before that step's regular callbacks).
///
/// Carried into the engine via `EngineConfig::crash`; `None` and an empty
/// plan are equivalent (and bit-identical — the engine treats both as the
/// no-fault fast path).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrashPlan {
    outages: Windows<Vec<NodeId>>,
}

impl CrashPlan {
    /// A plan with no outages: the no-fault baseline.
    #[must_use]
    pub fn empty() -> Self {
        CrashPlan::default()
    }

    /// Builds a plan from `(window, crashed nodes)` pairs, sorting and
    /// deduplicating each node list.
    ///
    /// # Errors
    ///
    /// Whatever [`Windows::outages`] rejects, and an outage naming no
    /// node.
    pub fn new(mut outages: Vec<(Window, Vec<NodeId>)>) -> Result<Self, WindowError> {
        for (w, nodes) in &mut outages {
            nodes.sort_unstable();
            nodes.dedup();
            if nodes.is_empty() {
                return Err(WindowError::Rule(format!("window {w} crashes zero nodes")));
            }
        }
        Windows::outages(outages).map(|outages| CrashPlan { outages })
    }

    /// The outages, in time order: `(first dark step, restart step,
    /// crashed nodes)`.
    pub fn outages(&self) -> impl Iterator<Item = (Step, Step, &[NodeId])> + '_ {
        self.outages.iter().map(|(w, nodes)| {
            let end = w.end.expect("outage windows are closed");
            (w.start, end, nodes.as_slice())
        })
    }

    /// Whether the plan has no outages.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.outages.is_empty()
    }

    /// The largest node index any outage names, or `None` for an empty
    /// plan. Engine runs reject plans naming nodes outside `0..n`.
    #[must_use]
    pub fn max_node_index(&self) -> Option<usize> {
        self.outages
            .iter()
            .flat_map(|(_, nodes)| nodes.iter().map(|id| id.index()))
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[usize]) -> Vec<NodeId> {
        raw.iter().copied().map(NodeId::from_index).collect()
    }

    #[test]
    fn plan_sorts_and_dedups_nodes_and_reads_back_in_time_order() {
        let plan = CrashPlan::new(vec![
            (Window::bounded(1, 4), ids(&[4, 1, 4, 2])),
            (Window::bounded(4, 6), ids(&[1])),
            (Window::bounded(9, 12), ids(&[0, 1])),
        ])
        .unwrap();
        let outages: Vec<_> = plan.outages().collect();
        assert_eq!(outages[0], (1, 4, ids(&[1, 2, 4]).as_slice()));
        assert_eq!(outages[1], (4, 6, ids(&[1]).as_slice()));
        assert_eq!(outages[2], (9, 12, ids(&[0, 1]).as_slice()));
        assert_eq!(plan.max_node_index(), Some(4));
    }

    #[test]
    fn plan_adds_one_rule_to_the_outage_windows() {
        // The window rules are `Windows::outages`' (see `window.rs`)…
        assert_eq!(
            CrashPlan::new(vec![(Window::bounded(0, 3), ids(&[1]))]),
            Err(WindowError::StartsAtZero(Window::bounded(0, 3)))
        );
        // …and an outage names a node.
        assert!(matches!(
            CrashPlan::new(vec![(Window::bounded(1, 2), vec![])]),
            Err(WindowError::Rule(_))
        ));
    }

    #[test]
    fn empty_plan_is_the_no_fault_baseline() {
        let plan = CrashPlan::empty();
        assert!(plan.is_empty());
        assert_eq!(plan.max_node_index(), None);
        assert_eq!(plan, CrashPlan::new(vec![]).unwrap());
    }
}
