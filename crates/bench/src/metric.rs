//! The vocabulary AER-shaped experiments report in: one [`AerSummary`]
//! per run, and one catalogue of named [`Metric`]s over it.
//!
//! A battery cell keeps the summary, not the run: eight numbers instead
//! of an [`AerRun`] (per-node accounting, every output, the whole
//! precondition) per seed. `paperbench sweep --metric` resolves its
//! names here, and every experiment that reports decision time or
//! communication declares those columns with [`Battery::metrics`] — so a
//! header, its aggregation and its JSON key are written down once.

use fba_scenario::AerRun;
use fba_sim::{Metrics, Step};

use crate::battery::{Agg, Battery};

/// What one run contributes to a table cell. Quantiles nobody reached
/// stay `None` and aggregate to `n/a`, never to a fake `0`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AerSummary {
    /// Percent of correct nodes that decided.
    pub decided_pct: f64,
    /// Step by which half of the correct nodes had decided.
    pub p50: Option<f64>,
    /// Step by which 75 % of the correct nodes had decided.
    pub p75: Option<f64>,
    /// Step by which 95 % of the correct nodes had decided.
    pub p95: Option<f64>,
    /// Step at which the last correct node decided (`None` if one never did).
    pub max: Option<f64>,
    /// Amortized bits sent per node.
    pub bits: f64,
    /// Messages sent by correct nodes, per node.
    pub msgs: f64,
    /// Correct nodes that decided something other than `gstring`.
    pub wrong: f64,
}

impl AerSummary {
    /// The summary of one AER run.
    #[must_use]
    pub fn of(run: &AerRun) -> Self {
        AerSummary {
            wrong: run.wrong_decisions() as f64,
            ..Self::of_metrics(&run.run.metrics, run.run.all_decided_at)
        }
    }

    /// The summary of any engine run's accounting (a baseline, one phase
    /// of a composed run); `all_decided_at` is the outcome's field of
    /// that name. Bare metrics do not know what should have been
    /// decided, so `wrong` is 0 here — [`AerSummary::of`] counts it.
    #[must_use]
    pub fn of_metrics(metrics: &Metrics, all_decided_at: Option<Step>) -> Self {
        let quantile = |q| metrics.decided_quantile(q).map(|s| s as f64);
        AerSummary {
            decided_pct: metrics.decided_fraction() * 100.0,
            p50: quantile(0.5),
            p75: quantile(0.75),
            p95: quantile(0.95),
            max: all_decided_at.map(|s| s as f64),
            bits: metrics.amortized_bits(),
            msgs: metrics.correct_msgs_sent() as f64 / metrics.n() as f64,
            wrong: 0.0,
        }
    }
}

/// One named column over [`AerSummary`].
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// The name `--metric` and [`Battery::metrics`] take.
    pub name: &'static str,
    /// The table header, which is also the JSON key.
    pub header: &'static str,
    /// How a cell's per-seed samples aggregate.
    pub agg: Agg,
    /// One line for usage texts.
    pub help: &'static str,
    /// Reads the sample off a run's summary.
    pub extract: fn(&AerSummary) -> Option<f64>,
}

/// The catalogue, in the order usage texts list it.
pub const METRICS: &[Metric] = &[
    Metric {
        name: "decided",
        header: "decided %",
        agg: Agg::Mean,
        help: "percent of correct nodes that decided (mean over seeds)",
        extract: |s| Some(s.decided_pct),
    },
    Metric {
        name: "rounds",
        header: "rounds p50",
        agg: Agg::Mean,
        help: "median decision step (mean over seeds; n/a if never reached)",
        extract: |s| s.p50,
    },
    Metric {
        name: "rounds-p75",
        header: "rounds p75",
        agg: Agg::Mean,
        help: "step by which 75% of correct nodes decided (mean; n/a if never reached)",
        extract: |s| s.p75,
    },
    Metric {
        name: "rounds-p95",
        header: "rounds p95",
        agg: Agg::Mean,
        help: "step by which 95% of correct nodes decided (mean; n/a if never reached)",
        extract: |s| s.p95,
    },
    Metric {
        name: "rounds-max",
        header: "rounds max",
        agg: Agg::Mean,
        help: "step the last correct node decided (mean; n/a if anyone never did)",
        extract: |s| s.max,
    },
    Metric {
        name: "bits",
        header: "bits/node",
        agg: Agg::Mean,
        help: "amortized bits per node (mean)",
        extract: |s| Some(s.bits),
    },
    Metric {
        name: "msgs",
        header: "msgs/node",
        agg: Agg::Mean,
        help: "messages sent by correct nodes, per node (mean)",
        extract: |s| Some(s.msgs),
    },
    Metric {
        name: "wrong",
        header: "wrong",
        agg: Agg::Sum,
        help: "correct nodes that decided a non-gstring value (sum, must be 0)",
        extract: |s| Some(s.wrong),
    },
];

impl Metric {
    /// Looks a metric up by name.
    ///
    /// # Errors
    ///
    /// Returns a message listing the catalogue when `name` is not in it.
    pub fn named(name: &str) -> Result<&'static Metric, String> {
        METRICS.iter().find(|m| m.name == name).ok_or_else(|| {
            let known: Vec<&str> = METRICS.iter().map(|m| m.name).collect();
            format!(
                "unknown metric `{name}`; known metrics: {}",
                known.join(", ")
            )
        })
    }
}

impl<P, O> Battery<P, O>
where
    P: Send + Sync + 'static,
    O: Send + Sync + 'static,
{
    /// Declares one column per catalogue name, in the order given;
    /// `summary` reads the [`AerSummary`] out of the cell outcome.
    ///
    /// # Panics
    ///
    /// Panics on a name that is not in [`METRICS`] (resolve names that
    /// come from outside the program with [`Metric::named`] first).
    #[must_use]
    pub fn metrics(
        mut self,
        names: &[&str],
        summary: impl Fn(&O) -> AerSummary + Clone + Send + Sync + 'static,
    ) -> Self {
        for name in names {
            let metric = Metric::named(name).expect("a catalogue metric");
            let summary = summary.clone();
            self = self.col(metric.header, metric.agg, move |o| {
                (metric.extract)(&summary(o))
            });
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fba_scenario::Scenario;

    #[test]
    fn the_summary_reads_what_the_run_reports() {
        let run = Scenario::new(48).run(3).expect("valid").into_aer();
        let s = AerSummary::of(&run);
        assert_eq!(s.decided_pct, 100.0);
        assert_eq!(s.max, run.run.all_decided_at.map(|s| s as f64));
        assert!(s.p50 <= s.p75 && s.p75 <= s.p95 && s.p95 <= s.max);
        assert_eq!(s.bits, run.run.metrics.amortized_bits());
        assert_eq!(
            s.msgs * 48.0,
            run.run.metrics.correct_msgs_sent() as f64,
            "per node"
        );
        assert_eq!(s.wrong, 0.0);
    }

    #[test]
    fn names_and_headers_are_unique_and_unknown_names_list_the_catalogue() {
        for (i, a) in METRICS.iter().enumerate() {
            assert_eq!(Metric::named(a.name).unwrap().header, a.header);
            for b in &METRICS[i + 1..] {
                assert_ne!(a.name, b.name);
                assert_ne!(a.header, b.header, "headers are JSON keys");
            }
        }
        let err = Metric::named("latency").unwrap_err();
        assert!(err.contains("unknown metric `latency`"), "{err}");
        assert!(err.contains("rounds-max"), "{err}");
    }
}
