//! The command-line battery: `paperbench sweep --axis … --metric …`.
//!
//! An arbitrary axes × metrics battery built entirely from spec strings —
//! no new code per experiment. Axis values parse through the existing
//! scenario spec grammar (`silent:9`, `flood`, `corner:512`, `async:3`,
//! `sched:[0..5]silent;[5..]flood`, …), so everything the [`Scenario`]
//! builder can express is sweepable from the shell:
//!
//! ```bash
//! paperbench sweep --axis n=256,1024 \
//!     --axis 'adversary=silent,flood,sched:[0..3]flood;[3..]silent' \
//!     --metric rounds,bits --scope quick --json sweep.json
//! ```
//!
//! Values split on commas, with spec-aware re-merging: a segment that is
//! not a valid value by itself but completes the previous segment into
//! one (the comma *parameters* of `random-flood:16,4`) is merged back,
//! so comma-parameterized specs work in a plain list
//! (`--axis adversary=silent,random-flood:16,4` is two values). Repeating
//! `--axis` with the same name extends the axis. Metric names are those
//! of the [`crate::metric`] catalogue. Unknown axes or metrics, malformed
//! values, and a value or metric listed twice are rejected with the
//! catalogue before anything runs.

use std::str::FromStr;

use fba_scenario::{Phase, Scenario};
use fba_sim::{AdversarySpec, NetworkSpec};

use crate::battery::{Battery, SeedPolicy};
use crate::experiments::common::summarize;
use crate::metric::{AerSummary, Metric};

/// The sweepable axes, with their value grammar.
pub const AXES: &[(&str, &str)] = &[
    ("n", "system sizes, e.g. n=256,1024"),
    (
        "adversary",
        "adversary specs, e.g. adversary=silent,flood,corner:512",
    ),
    ("network", "timing specs, e.g. network=sync,async:2"),
    ("knowing", "knowledge fractions, e.g. knowing=0.6,0.8"),
];

/// Metrics run when none are named.
pub const DEFAULT_METRICS: &[&str] = &["decided", "rounds", "bits"];

/// One cell of the CLI sweep: every axis pinned to a value (undeclared
/// axes keep these defaults: `n=256`, no adversary, sync network,
/// knowing `0.8`).
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// System size.
    pub n: usize,
    /// Adversary spec.
    pub adversary: AdversarySpec,
    /// Timing spec.
    pub network: NetworkSpec,
    /// Knowledge fraction of the synthetic precondition.
    pub knowing: f64,
}

impl Default for SweepPoint {
    fn default() -> Self {
        SweepPoint {
            n: 256,
            adversary: AdversarySpec::None,
            network: NetworkSpec::Sync,
            knowing: 0.8,
        }
    }
}

impl SweepPoint {
    fn scenario(&self, strict: bool) -> Scenario {
        let mut scenario = Scenario::new(self.n)
            .phase(Phase::aer(self.knowing))
            .adversary(self.adversary.clone())
            .network(self.network);
        if strict {
            scenario = scenario.strict();
        }
        scenario
    }

    fn axis_value(&self, axis: &str) -> String {
        match axis {
            "n" => self.n.to_string(),
            "adversary" => self.adversary.to_string(),
            "network" => self.network.to_string(),
            "knowing" => format!("{}", self.knowing),
            other => unreachable!("unknown sweep axis `{other}` survived validation"),
        }
    }

    fn with_axis(mut self, axis: &str, value: &str) -> Result<Self, String> {
        fn parse<T: FromStr>(axis: &str, value: &str) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            value
                .parse()
                .map_err(|e| format!("bad {axis} value `{value}`: {e}"))
        }
        match axis {
            "n" => self.n = parse(axis, value)?,
            "adversary" => self.adversary = parse(axis, value)?,
            "network" => self.network = parse(axis, value)?,
            "knowing" => self.knowing = parse(axis, value)?,
            other => {
                let known: Vec<&str> = AXES.iter().map(|(name, _)| *name).collect();
                return Err(format!(
                    "unknown axis `{other}`; known axes: {}",
                    known.join(", ")
                ));
            }
        }
        Ok(self)
    }
}

/// Splits one `--axis name=<list>` value list on commas, merging back
/// segments that are comma *parameters* of the previous value rather
/// than values themselves: a segment that does not parse as an `axis`
/// value on its own, but completes the previous candidate into one, is
/// appended to it. `silent,random-flood:16,4` therefore yields
/// `["silent", "random-flood:16,4"]`, while a genuinely malformed
/// segment stays separate so validation reports it by name.
#[must_use]
pub fn split_axis_values(axis: &str, raw: &str) -> Vec<String> {
    let parses = |value: &str| SweepPoint::default().with_axis(axis, value).is_ok();
    let mut values: Vec<String> = Vec::new();
    for segment in raw.split(',') {
        if let Some(last) = values.last_mut() {
            let candidate = format!("{last},{segment}");
            if !parses(segment) && parses(&candidate) {
                *last = candidate;
                continue;
            }
        }
        values.push(segment.to_string());
    }
    values
}

/// Builds the sweep battery from declared axes (name → values, in
/// declaration order; repeated names extend the same axis) and metric
/// names ([`DEFAULT_METRICS`] when empty). `seeds` overrides the scope
/// seed set; `strict` disables retries.
///
/// # Errors
///
/// Returns a usage-style message on unknown axes or metrics, malformed
/// values, a metric or an axis value listed twice (two columns under one
/// JSON key, the same row twice), or a cell the scenario builder rejects
/// (pre-flighted here so invalid combinations never reach the parallel
/// fan-out).
pub fn battery(
    axes: &[(String, Vec<String>)],
    metrics: &[String],
    seeds: Option<Vec<u64>>,
    strict: bool,
) -> Result<Battery<SweepPoint, AerSummary>, String> {
    let defaults: Vec<String> = DEFAULT_METRICS.iter().map(ToString::to_string).collect();
    let metrics = if metrics.is_empty() {
        &defaults
    } else {
        metrics
    };
    for (i, name) in metrics.iter().enumerate() {
        Metric::named(name)?;
        if metrics[..i].contains(name) {
            return Err(format!("metric `{name}` is listed twice"));
        }
    }
    // Merge repeated axis declarations, preserving first-seen order; a
    // value is kept as the parsed spec prints it, so a repeat is caught
    // however it was spelled.
    let mut merged: Vec<(String, Vec<String>)> = Vec::new();
    for (name, values) in axes {
        if values.is_empty() {
            return Err(format!("axis `{name}` has no values"));
        }
        let at = merged
            .iter()
            .position(|(n, _)| n == name)
            .unwrap_or_else(|| {
                merged.push((name.clone(), Vec::new()));
                merged.len() - 1
            });
        for value in values {
            let value = SweepPoint::default()
                .with_axis(name, value)?
                .axis_value(name);
            if merged[at].1.contains(&value) {
                return Err(format!("axis `{name}` lists `{value}` twice"));
            }
            merged[at].1.push(value);
        }
    }
    if merged.is_empty() {
        merged.push(("n".to_string(), vec!["256".to_string()]));
    }

    // The axis product, first declared axis outermost.
    let mut points = vec![SweepPoint::default()];
    for (name, values) in &merged {
        let mut expanded = Vec::with_capacity(points.len() * values.len());
        for point in &points {
            for value in values {
                expanded.push(point.clone().with_axis(name, value)?);
            }
        }
        points = expanded;
    }
    for point in &points {
        point.scenario(strict).validate().map_err(|e| {
            format!(
                "invalid cell (n={}, adversary={}, network={}, knowing={}): {e}",
                point.n, point.adversary, point.network, point.knowing
            )
        })?;
    }

    let axis_names: Vec<String> = merged.iter().map(|(name, _)| name.clone()).collect();
    let title = format!(
        "sweep — {} × [{}]",
        axis_names.join(" × "),
        metrics.join(", ")
    );
    let label_axes = axis_names.clone();
    let names: Vec<&str> = axis_names.iter().map(String::as_str).collect();
    let mut battery = Battery::new("sweep", title, move |p: &SweepPoint, seed| {
        summarize(&p.scenario(strict), seed)
    })
    .axes(&names, move |p: &SweepPoint| {
        label_axes.iter().map(|axis| p.axis_value(axis)).collect()
    })
    .points(points)
    .point_n(|p: &SweepPoint| p.n);
    if let Some(seeds) = seeds {
        battery = battery.seeds(SeedPolicy::Fixed(seeds));
    }
    let metrics: Vec<&str> = metrics.iter().map(String::as_str).collect();
    Ok(battery
        .metrics(&metrics, |o| *o)
        .note("Declarative CLI battery: AER on a synthetic precondition, axes × metrics as data.")
        .note("Undeclared axes default to n=256, adversary=none, network=sync, knowing=0.8."))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use crate::scope::Scope;

    fn axis(name: &str, values: &[&str]) -> (String, Vec<String>) {
        (
            name.to_string(),
            values.iter().map(ToString::to_string).collect(),
        )
    }

    #[test]
    fn rejects_unknown_axes_metrics_and_bad_values() {
        let err = battery(&[axis("planet", &["mars"])], &[], None, false).unwrap_err();
        assert!(err.contains("unknown axis"), "{err}");
        assert!(err.contains("adversary"), "lists the catalogue: {err}");
        let err =
            battery(&[axis("n", &["64"])], &["latency".to_string()], None, false).unwrap_err();
        assert!(err.contains("unknown metric"), "{err}");
        assert!(err.contains("rounds"), "lists the catalogue: {err}");
        let err = battery(&[axis("adversary", &["martian"])], &[], None, false).unwrap_err();
        assert!(err.contains("bad adversary value"), "{err}");
        // The knowledge fraction is checked where every other cell
        // constraint is: by the scenario resolver.
        for bad in ["1.5", "-0.1", "NaN"] {
            let err = battery(&[axis("knowing", &[bad])], &[], None, false).unwrap_err();
            assert!(err.contains("invalid cell"), "{err}");
            assert!(err.contains("outside [0, 1]"), "{err}");
        }
        // A grammatical but semantically invalid schedule is pre-flighted.
        let err = battery(
            &[axis("adversary", &["sched:[0..2]silent:3;[2..]flood"])],
            &[],
            None,
            false,
        )
        .unwrap_err();
        assert!(err.contains("invalid cell"), "{err}");
    }

    #[test]
    fn rejects_a_metric_or_an_axis_value_listed_twice() {
        let decided_twice = ["decided".to_string(), "decided".to_string()];
        let err = battery(&[axis("n", &["48"])], &decided_twice, None, false).unwrap_err();
        assert!(err.contains("metric `decided` is listed twice"), "{err}");
        // Within one flag, across repeated flags, and under another
        // spelling of the same value.
        for axes in [
            vec![axis("n", &["48", "48"])],
            vec![axis("n", &["48"]), axis("n", &["64", "48"])],
            vec![axis("n", &["48", "048"])],
            vec![axis("knowing", &["0.8", "0.80"])],
        ] {
            let err = battery(&axes, &[], None, false).unwrap_err();
            assert!(err.contains("twice"), "{axes:?}: {err}");
        }
    }

    #[test]
    fn sweep_runs_axes_by_metrics_and_reports_both_ways() {
        let battery = battery(
            &[
                axis("n", &["48"]),
                axis("adversary", &["silent", "flood"]),
                axis("network", &["sync", "async:2"]),
            ],
            &[
                "decided".to_string(),
                "rounds".to_string(),
                "wrong".to_string(),
            ],
            Some(vec![3]),
            false,
        )
        .expect("valid sweep");
        let report = battery.report(Scope::Quick);
        assert_eq!(report.table.rows.len(), 4, "2 adversaries × 2 networks");
        assert_eq!(
            report.table.columns,
            vec![
                "n",
                "adversary",
                "network",
                "decided %",
                "rounds p50",
                "wrong"
            ]
        );
        for row in &report.table.rows {
            let decided: f64 = row[3].parse().unwrap();
            assert!(decided > 99.0, "row {row:?}");
            assert_eq!(row[5], "0", "safety under sweep: {row:?}");
        }
        let json = Value::parse(&report.cells_json).expect("sweep JSON parses");
        assert_eq!(json.get("battery").and_then(Value::as_str), Some("sweep"));
        let cells = json.get("cells").and_then(Value::as_array).unwrap();
        assert_eq!(cells.len(), 4);
        let coords = cells[0].get("axes").and_then(Value::as_object).unwrap();
        assert_eq!(coords["adversary"].as_str(), Some("silent"));
    }

    #[test]
    fn comma_parameters_remerge_into_one_axis_value() {
        assert_eq!(
            split_axis_values("adversary", "silent,random-flood:16,4"),
            vec!["silent", "random-flood:16,4"]
        );
        assert_eq!(
            split_axis_values("adversary", "random-flood:16,4,flood,pull-flood:8,2"),
            vec!["random-flood:16,4", "flood", "pull-flood:8,2"]
        );
        // Genuinely malformed segments stay separate so validation names
        // them, and plain lists are untouched.
        assert_eq!(
            split_axis_values("adversary", "silent,martian"),
            vec!["silent", "martian"]
        );
        assert_eq!(split_axis_values("n", "64,128"), vec!["64", "128"]);
        // End to end: a comma-parameterized spec sweeps like any other.
        let battery = battery(
            &[
                axis("n", &["48"]),
                (
                    "adversary".to_string(),
                    split_axis_values("adversary", "silent,random-flood:4,2"),
                ),
            ],
            &["decided".to_string()],
            Some(vec![1]),
            false,
        )
        .expect("comma-parameterized sweep builds");
        let table = battery.report(Scope::Quick).table;
        assert_eq!(table.rows.len(), 2);
        assert!(
            table.rows.iter().any(|r| r[1] == "random-flood:4,2"),
            "{:?}",
            table.rows
        );
    }

    #[test]
    fn repeated_axis_flags_extend_the_axis() {
        let battery = battery(
            &[
                axis("n", &["48"]),
                axis("adversary", &["silent"]),
                axis("adversary", &["flood"]),
            ],
            &["decided".to_string()],
            Some(vec![1]),
            false,
        )
        .expect("valid sweep");
        let table = battery.report(Scope::Quick).table;
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.columns[..3], ["n", "adversary", "decided %"]);
    }
}
