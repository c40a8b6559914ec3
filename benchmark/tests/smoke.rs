//! Every workload end to end at n = 128 — timed pass, traced pass and
//! their digest checks — plus the result-file and manifest contracts.

use std::collections::BTreeMap;
use std::path::Path;

use fba_benchmark::cli::parse_pass;
use fba_benchmark::layers::layer_pass;
use fba_benchmark::metrics::{per_layer, Better, PassResult, END_TO_END};
use fba_benchmark::report::{
    compare, judge, manifest_json, Host, RunReport, Verdict, WorkloadReport,
};
use fba_benchmark::timed::timed_pass;
use fba_benchmark::workload::catalogue;

const SMALL_N: usize = 128;

fn assert_pass(pass: &PassResult, names: &[String], what: &str) {
    assert!(pass.correct, "{what}: not correct");
    assert_eq!(pass.failed, 0, "{what}: failed ops");
    assert!(pass.attempted >= 1, "{what}: nothing attempted");
    let emitted: Vec<&String> = pass.metrics.iter().map(|(name, _, _)| name).collect();
    assert_eq!(
        emitted,
        names.iter().collect::<Vec<_>>(),
        "{what}: metric names"
    );
    for (name, value, _) in &pass.metrics {
        assert!(value.is_finite(), "{what}: {name} = {value}");
    }
    // The result line survives the trip through the parser `run` uses.
    assert_eq!(
        &parse_pass(&pass.to_json_line()).expect("result line parses"),
        pass
    );
}

#[test]
fn every_workload_passes_timed_and_traced_at_small_n() {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("traces");
    let end_to_end: Vec<String> = END_TO_END.iter().map(|d| d.name.to_string()).collect();
    let layers: Vec<String> = per_layer().into_iter().map(|d| d.name).collect();
    for workload in catalogue() {
        let small = workload.at_size(SMALL_N);

        let timed = timed_pass(&small, 7, 0.2);
        assert_pass(&timed, &end_to_end, workload.name);
        // One lap plus the repeat that checks determinism (a).
        assert!(timed.attempted >= ((small.distinct_seeds + 1) * small.ops_per_call()) as u64);
        for (name, value, _) in &timed.metrics {
            assert!(*value > 0.0, "{}: {name} must never be 0", workload.name);
        }
        // The simulated costs depend on the seed alone, not on the budget.
        let again = timed_pass(&small, 7, 0.0);
        for exact in ["sim_steps", "sim_bits_per_node"] {
            assert_eq!(
                timed.get(exact),
                again.get(exact),
                "{}: {exact}",
                workload.name
            );
        }

        let traced = layer_pass(&small, 7, &out_dir);
        assert_pass(&traced, &layers, workload.name);
        let trace = std::fs::read_to_string(out_dir.join(format!("trace_{}.json", small.name)))
            .expect("span tree written");
        let spans = fba_bench::json::Value::parse(&trace).expect("span tree is JSON");
        let spans = spans.as_array().expect("span tree is an array");
        let names: Vec<&str> = spans
            .iter()
            .filter_map(|s| s.get("name")?.as_str())
            .collect();
        for expected in [
            "run",
            "setup",
            "harness_build",
            "engine_run",
            "step[0]",
            "on_start",
            "fw1",
        ] {
            assert!(
                names.contains(&expected),
                "{}: no `{expected}` span",
                workload.name
            );
        }

        // Counts repeat bit for bit.
        let twice = layer_pass(&small, 7, &out_dir);
        for def in per_layer() {
            if matches!(def.unit, "count" | "steps") {
                assert_eq!(traced.get(&def.name), twice.get(&def.name), "{}", def.name);
            }
        }
        let applies = |prefix: &str| traced.get(prefix).is_some_and(|v| v > 0.0);
        assert_eq!(
            applies("recovery.on_restart_calls"),
            small.crash_window.is_some()
        );
        assert_eq!(
            applies("scenario.service_vs_fresh_ratio"),
            small.service.is_some()
        );
    }
}

fn sample_report() -> RunReport {
    let mut workloads = BTreeMap::new();
    for workload in catalogue() {
        let mut report = WorkloadReport::default();
        for rep in 0..3u32 {
            report.absorb_timed(&PassResult {
                correct: true,
                attempted: 5,
                failed: 0,
                metrics: END_TO_END
                    .iter()
                    .enumerate()
                    .map(|(i, def)| {
                        (
                            def.name.to_string(),
                            1.5 + i as f64 + 0.0001 * f64::from(rep),
                            def.unit,
                        )
                    })
                    .collect(),
            });
        }
        report.absorb_traced(&PassResult {
            correct: true,
            attempted: 4,
            failed: 0,
            metrics: per_layer()
                .into_iter()
                .enumerate()
                .map(|(i, def)| (def.name, 0.25 * i as f64, def.unit))
                .collect(),
        });
        workloads.insert(workload.name.to_string(), report);
    }
    RunReport {
        host: Host {
            nproc: 2,
            rustc: "rustc 1.0 \"quoted\"".to_string(),
            commit: "unknown".to_string(),
        },
        seed_base: 1,
        reps: 3,
        seconds: 20,
        workloads,
    }
}

#[test]
fn result_file_round_trips() {
    let report = sample_report();
    let parsed = RunReport::from_json(&report.to_json()).expect("result file parses");
    assert_eq!(parsed, report);
    // One `workload name value unit` line per metric.
    let lines = report.to_table().lines().count();
    assert_eq!(
        lines,
        catalogue().len() * (END_TO_END.len() + per_layer().len())
    );
}

#[test]
fn compare_judges_against_the_bound() {
    let base = [10.0, 10.1, 9.9, 10.05, 9.95];
    let shifted = |by: f64| base.map(|v| v * by);
    assert_eq!(judge(&base, &base, Better::Lower, 0.10).1, Verdict::Ok);
    assert_eq!(
        judge(&base, &shifted(1.05), Better::Lower, 0.10).1,
        Verdict::Ok
    );
    assert_eq!(
        judge(&base, &shifted(1.2), Better::Lower, 0.10).1,
        Verdict::Regressed
    );
    assert_eq!(
        judge(&base, &shifted(0.8), Better::Higher, 0.10).1,
        Verdict::Regressed
    );
    assert_eq!(
        judge(&base, &shifted(1.2), Better::Higher, 0.10).1,
        Verdict::Ok
    );
    // Spread wider than the bound: unresolved, unless B wins every pair.
    let noisy = [8.0, 12.0, 10.0, 7.0, 13.0];
    assert_eq!(
        judge(&noisy, &base, Better::Lower, 0.10).1,
        Verdict::Unresolved
    );
    assert_eq!(
        judge(&noisy, &shifted(0.5), Better::Lower, 0.10).1,
        Verdict::Ok
    );

    let report = sample_report();
    let (text, regressed) = compare(&report, &report);
    assert!(!regressed, "{text}");
    assert_eq!(
        text.matches(" ok ").count(),
        catalogue().len() * END_TO_END.len()
    );

    let mut slower = report.clone();
    for samples in slower
        .workloads
        .get_mut("crash_n1024")
        .expect("workload present")
        .end_to_end
        .get_mut("run_wall_s")
        .expect("metric present")
    {
        *samples *= 1.5;
    }
    let (text, regressed) = compare(&report, &slower);
    assert!(regressed, "{text}");
    assert_eq!(text.matches(" regressed ").count(), 1);
}

#[test]
fn manifest_lists_exactly_what_the_binary_emits() {
    let well_formed = |name: &str| {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    };
    let mut seen = std::collections::BTreeSet::new();
    let mut unique = |name: &str| assert!(seen.insert(name.to_string()), "{name} used twice");

    let workloads = catalogue();
    assert_eq!(workloads.len(), 4);
    for workload in &workloads {
        assert!(well_formed(workload.name), "{}", workload.name);
        unique(workload.name);
        assert!(
            workload.why.chars().count() <= 200,
            "{}: why too long",
            workload.name
        );
        assert!(!workload.why.contains('\n'));
    }
    assert_eq!(END_TO_END.len(), 7);
    for def in &END_TO_END {
        assert!(well_formed(def.name), "{}", def.name);
        unique(def.name);
        assert!(def.bound > 0.0 && def.bound <= 0.25, "{}", def.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    assert!(
        END_TO_END.iter().all(|d| d.bound <= setup.bound),
        "setup_s has the largest bound"
    );
    let layers = per_layer();
    assert!(!layers.is_empty() && layers.len() <= 128);
    for def in &layers {
        assert!(well_formed(&def.name), "{}", def.name);
        unique(&def.name);
    }

    // The committed manifest is the one the tables generate
    // (`benchmark manifest > BENCHMARK.json`).
    let committed =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    assert_eq!(committed, manifest_json());
    assert!(committed.len() <= 64 * 1024);
    fba_bench::json::Value::parse(&committed).expect("BENCHMARK.json is JSON");
}
