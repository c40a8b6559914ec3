//! The `bench-engine` battery: host-time throughput of complete AER
//! runs per (system size, mode).
//!
//! The one experiment whose cells read the host clock — `benchmark/` is
//! the judged yardstick for n ≤ 4096; this battery is the only place
//! the n ≥ 8192 regimes are timed (`--scope huge|extreme`). Every cell
//! is one full [`Scenario`] run, fault-free or under a silent-`t`
//! coalition, timed and `VmHWM`-bracketed inside the cell closure; the
//! battery is [`Battery::serial`] so neither measurement is shared with
//! a concurrent cell. The peak candidate-list size rides along (the
//! Lemma 4 quantity) so a perf change that also distorts protocol state
//! shows up in the same table.

use std::time::Instant;

use fba_core::AerNode;
use fba_scenario::Scenario;
use fba_sim::{AdversarySpec, FinalInspect, NodeId};

use crate::battery::{product2, Agg, Battery, Report, SeedPolicy};
use crate::scope::Scope;

/// System sizes per scope: large enough that sampler and queue
/// behaviour dominates, small enough for the scope's time budget. The
/// huge scope times the scale frontier; the extreme scope the regimes
/// opened by batched delivery.
#[must_use]
pub fn bench_sizes(scope: Scope) -> Vec<usize> {
    match scope {
        Scope::Quick => vec![256],
        Scope::Default => vec![1024],
        Scope::Full => vec![4096],
        Scope::Huge => vec![4096, 8192],
        Scope::Extreme => vec![16384, 32768],
    }
}

/// Resets the process peak-RSS high-water mark so the next
/// [`peak_rss_mb`] read covers only work done since this call.
fn reset_peak_rss() {
    // Writing "5" to clear_refs resets VmHWM (Linux ≥ 4.0). Best-effort:
    // failure (or a non-Linux host, where the file does not exist) just
    // means the cell inherits the previous high-water mark.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process peak resident set (`VmHWM`) in mebibytes, or `None` where
/// the kernel interface is unavailable.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let hwm = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: u64 = hwm.split_whitespace().next()?.parse().ok()?;
    Some((kib / 1024) as f64)
}

/// One timed run.
struct Cell {
    elapsed_sec: f64,
    steps: f64,
    msgs: f64,
    peak_candidates: f64,
    decided_fraction: f64,
    peak_rss_mb: Option<f64>,
}

fn run_cell(n: usize, with_faults: bool, seed: u64) -> Cell {
    let mut scenario = Scenario::new(n);
    if with_faults {
        scenario = scenario.adversary(AdversarySpec::Silent { t: None });
    }
    let mut peak = 0usize;
    let mut inspect = FinalInspect(|_: NodeId, node: &AerNode| {
        peak = peak.max(node.candidates().len());
    });
    reset_peak_rss();
    let started = Instant::now();
    let out = scenario
        .run_observed(seed, &mut inspect)
        .expect("bench scenario")
        .into_aer();
    let elapsed_sec = started.elapsed().as_secs_f64().max(1e-9);
    Cell {
        elapsed_sec,
        steps: out.run.metrics.steps as f64,
        msgs: out.run.metrics.total_msgs_sent() as f64,
        peak_candidates: peak as f64,
        decided_fraction: out.run.metrics.decided_fraction(),
        peak_rss_mb: peak_rss_mb(),
    }
}

/// The `bench-engine` experiment: per-run wall time, throughput and
/// peak RSS of full AER runs, per system size and mode.
#[must_use]
pub fn table(scope: Scope) -> Report {
    Battery::new(
        "bench-engine",
        "bench-engine — host-time throughput of full AER runs",
        |&(n, with_faults): &(usize, bool), seed| run_cell(n, with_faults, seed),
    )
    .axes(&["n", "mode"], |&(n, with_faults)| {
        let mode = if with_faults {
            "silent-t"
        } else {
            "fault-free"
        };
        vec![n.to_string(), mode.to_string()]
    })
    .points(product2(&bench_sizes(scope), &[false, true]))
    .point_n(|&(n, _)| n)
    .seeds(SeedPolicy::ThinAt {
        threshold: 4096,
        max: 4,
    })
    .serial()
    .col_runs("runs")
    .col("run wall s", Agg::Mean, |o: &Cell| Some(o.elapsed_sec))
    .col("steps/s", Agg::Mean, |o: &Cell| {
        Some(o.steps / o.elapsed_sec)
    })
    .col("msgs/s", Agg::Mean, |o: &Cell| Some(o.msgs / o.elapsed_sec))
    .col("peak |L_x|", Agg::Max, |o: &Cell| Some(o.peak_candidates))
    .col("min decided", Agg::Min, |o: &Cell| Some(o.decided_fraction))
    .col("peak RSS MiB", Agg::Max, |o: &Cell| o.peak_rss_mb)
    .note("Host-time columns: they move with the machine and are not pinned by any golden.")
    .note("Cells run one at a time on the calling thread, so `msgs/s` is a one-core rate and")
    .note("`peak RSS MiB` is the process VmHWM, reset before each run (n/a off Linux).")
    .report(scope)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn quick_report_times_one_row_per_size_and_mode() {
        let report = table(Scope::Quick);
        let t = &report.table;
        let keys: Vec<(&str, &str)> = t
            .rows
            .iter()
            .map(|r| (r[0].as_str(), r[1].as_str()))
            .collect();
        assert_eq!(keys, vec![("256", "fault-free"), ("256", "silent-t")]);
        let col = |name: &str| t.columns.iter().position(|c| c == name).expect(name);
        for row in &t.rows {
            assert_eq!(row[col("runs")], Scope::Quick.seeds().len().to_string());
            assert_eq!(row[col("min decided")].parse::<f64>().unwrap(), 1.0);
            assert!(
                row[col("peak |L_x|")].parse::<f64>().unwrap() >= 1.0,
                "every node holds its own candidate: {row:?}"
            );
        }
        let json = Value::parse(&report.cells_json).expect("bench-engine JSON parses");
        let cells = json.get("cells").and_then(Value::as_array).unwrap();
        assert_eq!(cells.len(), t.rows.len());
        for cell in cells {
            let metrics = cell.get("metrics").and_then(Value::as_object).unwrap();
            assert!(metrics["msgs/s"].as_f64().unwrap() > 0.0);
            let rss = &metrics["peak RSS MiB"];
            if cfg!(target_os = "linux") {
                assert!(rss.as_f64().unwrap() > 0.0, "Linux reports VmHWM");
            } else {
                assert_eq!(*rss, Value::Null);
            }
        }
    }

    #[test]
    fn sizes_stay_within_the_validated_scale_bound() {
        // Sizing only — the huge and extreme batteries take minutes.
        assert_eq!(bench_sizes(Scope::Huge), vec![4096, 8192]);
        assert_eq!(bench_sizes(Scope::Extreme), vec![16384, 32768]);
        assert!(bench_sizes(Scope::Extreme)
            .iter()
            .all(|&n| n <= Scenario::MAX_N));
    }
}
