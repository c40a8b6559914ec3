//! Rejoin accounting: how fast restarted nodes catch back up.
//!
//! The first-class metric of the crash fault family is *rejoin cost* —
//! for each crashed honest node, the steps between its restart and its
//! decision. [`rejoin_report`] derives it per outage window from a
//! resolved [`CrashPlan`] and the run's [`Metrics`], so batteries and
//! tests can report reconvergence latency alongside the usual decision
//! metrics.

use fba_sim::{CrashPlan, Metrics, Step};

/// Rejoin cost for one outage window.
#[derive(Clone, Debug, PartialEq)]
pub struct OutageRejoin {
    /// First dark step of the window.
    pub start: Step,
    /// Restart step of the window.
    pub end: Step,
    /// Honest nodes crashed by the window (corrupt victims are excluded —
    /// crashing an adversary-played node is a no-op).
    pub crashed: usize,
    /// Of those, how many decided by the end of the run.
    pub rejoined: usize,
    /// Worst rejoin latency: max over crashed honest nodes of
    /// `decided_at - end` (0 for nodes that decided before or during the
    /// outage). `None` if some crashed node never decided.
    pub max_rejoin_steps: Option<Step>,
    /// Mean rejoin latency over crashed honest nodes that decided.
    /// `None` if none decided.
    pub mean_rejoin_steps: Option<f64>,
}

/// Rejoin costs for every outage of a crashed run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RejoinReport {
    /// One entry per outage window, in time order.
    pub outages: Vec<OutageRejoin>,
}

impl RejoinReport {
    /// Whether every crashed honest node in every window decided.
    #[must_use]
    pub fn all_rejoined(&self) -> bool {
        self.outages.iter().all(|o| o.rejoined == o.crashed)
    }

    /// Worst rejoin latency across all windows; `None` if any crashed
    /// node never decided (or the report is empty).
    #[must_use]
    pub fn max_rejoin_steps(&self) -> Option<Step> {
        self.outages
            .iter()
            .map(|o| o.max_rejoin_steps)
            .collect::<Option<Vec<_>>>()
            .and_then(|maxes| maxes.into_iter().max())
    }
}

/// Derives per-window rejoin costs from a resolved plan and the run's
/// metrics. A node's rejoin latency is `decided_at - window.end`,
/// saturating at 0 for nodes that decided before their restart (possible
/// when a window crashes an already-decided node).
#[must_use]
pub fn rejoin_report(plan: &CrashPlan, metrics: &Metrics) -> RejoinReport {
    let outages = plan
        .outages()
        .map(|(start, end, nodes)| {
            let mut crashed = 0usize;
            let mut rejoined = 0usize;
            let mut max_rejoin: Step = 0;
            let mut sum_rejoin: u128 = 0;
            for &id in nodes {
                if metrics.is_corrupt(id) {
                    continue;
                }
                crashed += 1;
                if let Some(decided) = metrics.decided_at(id) {
                    rejoined += 1;
                    let latency = decided.saturating_sub(end);
                    max_rejoin = max_rejoin.max(latency);
                    sum_rejoin += u128::from(latency);
                }
            }
            OutageRejoin {
                start,
                end,
                crashed,
                rejoined,
                max_rejoin_steps: (crashed > 0 && rejoined == crashed).then_some(max_rejoin),
                mean_rejoin_steps: (rejoined > 0).then(|| sum_rejoin as f64 / rejoined as f64),
            }
        })
        .collect();
    RejoinReport { outages }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fba_sim::{NodeId, Window};
    use std::collections::BTreeSet;

    fn ids(raw: &[usize]) -> Vec<NodeId> {
        raw.iter().copied().map(NodeId::from_index).collect()
    }

    #[test]
    fn report_measures_latency_from_restart() {
        let plan = CrashPlan::new(vec![(Window::bounded(2, 5), ids(&[0, 1, 2]))]).unwrap();
        let corrupt: BTreeSet<_> = ids(&[2]).into_iter().collect();
        let mut m = Metrics::new(4, &corrupt);
        m.record_decision(NodeId::from_index(0), 9); // rejoin = 4
        m.record_decision(NodeId::from_index(1), 3); // decided mid-outage: 0
        m.record_decision(NodeId::from_index(3), 4); // not crashed, ignored

        let report = rejoin_report(&plan, &m);
        assert_eq!(report.outages.len(), 1);
        let o = &report.outages[0];
        assert_eq!((o.crashed, o.rejoined), (2, 2), "corrupt victim excluded");
        assert_eq!(o.max_rejoin_steps, Some(4));
        assert_eq!(o.mean_rejoin_steps, Some(2.0));
        assert!(report.all_rejoined());
        assert_eq!(report.max_rejoin_steps(), Some(4));
    }

    #[test]
    fn undecided_nodes_void_the_max() {
        let plan = CrashPlan::new(vec![(Window::bounded(1, 3), ids(&[0, 1]))]).unwrap();
        let mut m = Metrics::new(2, &BTreeSet::new());
        m.record_decision(NodeId::from_index(0), 7);

        let report = rejoin_report(&plan, &m);
        let o = &report.outages[0];
        assert_eq!((o.crashed, o.rejoined), (2, 1));
        assert_eq!(o.max_rejoin_steps, None, "an undecided victim has no max");
        assert_eq!(o.mean_rejoin_steps, Some(4.0));
        assert!(!report.all_rejoined());
        assert_eq!(report.max_rejoin_steps(), None);
    }

    #[test]
    fn empty_plan_yields_empty_report() {
        let m = Metrics::new(4, &BTreeSet::new());
        let report = rejoin_report(&CrashPlan::empty(), &m);
        assert!(report.outages.is_empty());
        assert!(report.all_rejoined());
        assert_eq!(report.max_rejoin_steps(), None);
    }
}
