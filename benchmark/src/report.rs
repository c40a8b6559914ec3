//! Result files: what `benchmark run` writes and `benchmark compare`
//! reads, plus the `BENCHMARK.json` manifest derived from the tables.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use fba_bench::json::Value;

use crate::metrics::{per_layer, Better, PassResult, END_TO_END};
use crate::stats::{median, quartiles, spread};
use crate::workload::catalogue;

/// Seconds of calls one timed run measures — `run_seconds` in
/// `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

/// The host a result was taken on.
#[derive(Clone, Debug, PartialEq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a repository.
    pub commit: String,
}

/// One workload's results across the repetitions of one `benchmark run`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkloadReport {
    /// Ops attempted, summed over passes.
    pub attempted: u64,
    /// Ops failed, summed over passes.
    pub failed: u64,
    /// End-to-end metric → one sample per repetition.
    pub end_to_end: BTreeMap<String, Vec<f64>>,
    /// Per-layer metric → value of the one traced pass.
    pub per_layer: BTreeMap<String, f64>,
}

impl WorkloadReport {
    /// Folds one timed pass in.
    pub fn absorb_timed(&mut self, pass: &PassResult) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        for (name, value, _) in &pass.metrics {
            self.end_to_end
                .entry(name.clone())
                .or_default()
                .push(*value);
        }
    }

    /// Folds the traced pass in.
    pub fn absorb_traced(&mut self, pass: &PassResult) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        for (name, value, _) in &pass.metrics {
            self.per_layer.insert(name.clone(), *value);
        }
    }
}

/// Everything one `benchmark run` measured.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Where it ran.
    pub host: Host,
    /// First `--seed`; repetition `r` used `seed_base + r`.
    pub seed_base: u64,
    /// Timed repetitions per workload.
    pub reps: u64,
    /// `--seconds` of every timed pass.
    pub seconds: u64,
    /// Per workload, in catalogue order when printed.
    pub workloads: BTreeMap<String, WorkloadReport>,
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

impl RunReport {
    /// Whether any op failed on any workload.
    #[must_use]
    pub fn any_failed(&self) -> bool {
        self.workloads.values().any(|w| w.failed > 0)
    }

    /// Every metric as `workload name value unit` lines; end-to-end
    /// metrics print their median with quartiles and sample count.
    #[must_use]
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        for workload in catalogue() {
            let Some(report) = self.workloads.get(workload.name) else {
                continue;
            };
            for def in &END_TO_END {
                if let Some(samples) = report.end_to_end.get(def.name) {
                    let (q1, q3) = quartiles(samples);
                    let _ = writeln!(
                        out,
                        "{} {} {} {}  (q1 {q1} q3 {q3} n {})",
                        workload.name,
                        def.name,
                        median(samples),
                        def.unit,
                        samples.len()
                    );
                }
            }
            for def in per_layer() {
                if let Some(value) = report.per_layer.get(&def.name) {
                    let _ = writeln!(out, "{} {} {value} {}", workload.name, def.name, def.unit);
                }
            }
        }
        out
    }

    /// The report as a JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(
            out,
            "  \"host\": {{\"nproc\": {}, \"rustc\": {}, \"commit\": {}}},",
            self.host.nproc,
            json_string(&self.host.rustc),
            json_string(&self.host.commit)
        );
        let _ = writeln!(
            out,
            "  \"seed_base\": {}, \"reps\": {}, \"seconds\": {},",
            self.seed_base, self.reps, self.seconds
        );
        out.push_str("  \"workloads\": {\n");
        let workloads: Vec<String> = self
            .workloads
            .iter()
            .map(|(name, w)| {
                let end_to_end: Vec<String> = END_TO_END
                    .iter()
                    .filter_map(|def| {
                        let samples: Vec<String> = w
                            .end_to_end
                            .get(def.name)?
                            .iter()
                            .map(f64::to_string)
                            .collect();
                        Some(format!(
                            "        {}: {{\"unit\": {}, \"samples\": [{}]}}",
                            json_string(def.name),
                            json_string(def.unit),
                            samples.join(", ")
                        ))
                    })
                    .collect();
                let layers: Vec<String> = per_layer()
                    .iter()
                    .filter_map(|def| {
                        let value = w.per_layer.get(&def.name)?;
                        Some(format!(
                            "        {}: {{\"unit\": {}, \"value\": {value}}}",
                            json_string(&def.name),
                            json_string(def.unit)
                        ))
                    })
                    .collect();
                format!(
                    "    {}: {{\n      \"attempted\": {}, \"failed\": {},\n      \"end_to_end\": {{\n{}\n      }},\n      \"per_layer\": {{\n{}\n      }}\n    }}",
                    json_string(name),
                    w.attempted,
                    w.failed,
                    end_to_end.join(",\n"),
                    layers.join(",\n")
                )
            })
            .collect();
        out.push_str(&workloads.join(",\n"));
        out.push_str("\n  }\n}\n");
        out
    }

    /// Parses a document written by [`RunReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns what is missing or malformed.
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        let doc = Value::parse(text).map_err(|e| e.to_string())?;
        let field = |v: &Value, key: &str| -> Result<Value, String> {
            v.get(key)
                .cloned()
                .ok_or_else(|| format!("missing `{key}`"))
        };
        let number = |v: &Value, key: &str| -> Result<f64, String> {
            field(v, key)?
                .as_f64()
                .ok_or_else(|| format!("`{key}` is not a number"))
        };
        let string = |v: &Value, key: &str| -> Result<String, String> {
            Ok(field(v, key)?
                .as_str()
                .ok_or_else(|| format!("`{key}` is not a string"))?
                .to_string())
        };
        let host = field(&doc, "host")?;
        let mut workloads = BTreeMap::new();
        let listed = field(&doc, "workloads")?;
        for (name, w) in listed.as_object().ok_or("`workloads` is not an object")? {
            let mut report = WorkloadReport {
                attempted: number(w, "attempted")? as u64,
                failed: number(w, "failed")? as u64,
                ..WorkloadReport::default()
            };
            let end_to_end = field(w, "end_to_end")?;
            for (metric, entry) in end_to_end
                .as_object()
                .ok_or("`end_to_end` is not an object")?
            {
                let samples = field(entry, "samples")?
                    .as_array()
                    .ok_or("`samples` is not an array")?
                    .iter()
                    .map(|s| s.as_f64().ok_or("a sample is not a number"))
                    .collect::<Result<Vec<f64>, _>>()?;
                report.end_to_end.insert(metric.clone(), samples);
            }
            let layers = field(w, "per_layer")?;
            for (metric, entry) in layers.as_object().ok_or("`per_layer` is not an object")? {
                report
                    .per_layer
                    .insert(metric.clone(), number(entry, "value")?);
            }
            workloads.insert(name.clone(), report);
        }
        Ok(RunReport {
            host: Host {
                nproc: number(&host, "nproc")? as usize,
                rustc: string(&host, "rustc")?,
                commit: string(&host, "commit")?,
            },
            seed_base: number(&doc, "seed_base")? as u64,
            reps: number(&doc, "reps")? as u64,
            seconds: number(&doc, "seconds")? as u64,
            workloads,
        })
    }
}

/// The verdict on one workload × end-to-end metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound, and B's runs do not
    /// all read better than A's.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B's samples against A's for a metric with the given direction
/// and bound: `(share by which B's median is worse, verdict)`.
#[must_use]
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, Verdict) {
    let (med_a, med_b) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (med_b - med_a) / med_a.abs(),
        Better::Higher => (med_a - med_b) / med_a.abs(),
    };
    let b_wins_every_pair = a.iter().all(|x| {
        b.iter().all(|y| match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    let verdict = if spread(a).max(spread(b)) > bound && !b_wins_every_pair {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// Compares result B against baseline A: one row per workload ×
/// end-to-end metric, then every exact per-layer count that differs.
/// Returns the text and whether anything regressed.
#[must_use]
pub fn compare(a: &RunReport, b: &RunReport) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<24} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    for workload in catalogue() {
        let (Some(wa), Some(wb)) = (
            a.workloads.get(workload.name),
            b.workloads.get(workload.name),
        ) else {
            let _ = writeln!(out, "{:<24} missing from one side", workload.name);
            regressed = true;
            continue;
        };
        for def in &END_TO_END {
            let (Some(sa), Some(sb)) = (wa.end_to_end.get(def.name), wb.end_to_end.get(def.name))
            else {
                let _ = writeln!(
                    out,
                    "{:<24} {:<18} missing from one side",
                    workload.name, def.name
                );
                regressed = true;
                continue;
            };
            let (worse_by, verdict) = judge(sa, sb, def.better, def.bound);
            regressed |= verdict == Verdict::Regressed;
            let (qa, qb) = (quartiles(sa), quartiles(sb));
            let _ = writeln!(
                out,
                "{:<24} {:<18} {:>14.6} {:>14.6} {:>8.2}% {:>6.1}%  {}  (A q1 {:.6} q3 {:.6} n {}; B q1 {:.6} q3 {:.6} n {})",
                workload.name,
                def.name,
                median(sa),
                median(sb),
                worse_by * 100.0,
                def.bound * 100.0,
                verdict.as_str(),
                qa.0,
                qa.1,
                sa.len(),
                qb.0,
                qb.1,
                sb.len(),
            );
        }
        if wa.failed + wb.failed > 0 {
            let _ = writeln!(
                out,
                "{:<24} failed ops: A {} B {}",
                workload.name, wa.failed, wb.failed
            );
            regressed = true;
        }
        // Counts are exact: on equal seeds any difference is a change in
        // behaviour, not noise.
        if a.seed_base == b.seed_base {
            for def in per_layer() {
                if !matches!(def.unit, "count" | "steps") {
                    continue;
                }
                let (va, vb) = (wa.per_layer.get(&def.name), wb.per_layer.get(&def.name));
                if va != vb {
                    let _ = writeln!(
                        out,
                        "{:<24} {:<18} count differs: A {va:?} B {vb:?}",
                        workload.name, def.name
                    );
                }
            }
        }
    }
    (out, regressed)
}

/// `BENCHMARK.json`, derived from the workload and metric tables.
#[must_use]
pub fn manifest_json() -> String {
    let workloads: Vec<String> = catalogue()
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_string(w.name),
                json_string(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|def| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_string(def.name),
                json_string(def.unit),
                json_string(def.better.as_str()),
                def.bound
            )
        })
        .collect();
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|def| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(&def.name),
                json_string(def.unit),
                json_string(def.better.as_str())
            )
        })
        .collect();
    format!(
        concat!(
            "{{\n",
            "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", ",
            "\"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
            "  \"paths\": [\"benchmark\"],\n",
            "  \"run_seconds\": {},\n",
            "  \"workloads\": [\n{}\n  ],\n",
            "  \"end_to_end\": [\n{}\n  ],\n",
            "  \"per_layer\": [\n{}\n  ]\n",
            "}}\n"
        ),
        RUN_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        layers.join(",\n")
    )
}
