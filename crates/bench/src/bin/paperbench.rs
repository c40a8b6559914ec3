//! CLI: regenerate the paper's tables and figures, run one arbitrary
//! scenario, or run an arbitrary axes × metrics battery.
//!
//! ```bash
//! paperbench all              # every experiment, default scope
//! paperbench f1a-time l6      # specific experiments
//! paperbench --quick all      # CI-sized
//! paperbench --full all       # adds the largest classic system sizes
//! paperbench --scope huge …   # scale frontier (n = 4096/8192)
//! paperbench --json out/ all  # also write per-cell JSON records per id
//! paperbench --scope huge bench-engine   # time the n = 4096/8192 regimes
//! paperbench scenario --n 2048 --adversary flood --network async:3 --phase composed
//! paperbench scenario --n 1024 --crash 'crash:[3..7]64'
//! paperbench sweep --axis n=256,1024 --axis adversary=silent,flood \
//!     --metric rounds,bits --scope quick --json sweep.json
//! ```
//!
//! Experiment sweeps fan independent seeded runs across every core
//! (deterministically — parallel output is bit-identical to serial; set
//! `FBA_THREADS=1` to force serial execution).
//!
//! Unknown experiment ids, subcommands, scope names, adversary specs,
//! phases, sweep axes or sweep metrics print usage and exit non-zero
//! without running anything.

use std::process::ExitCode;

use fba_bench::{run_experiment, sweep, Scope, ALL_IDS};
use fba_recovery::{CrashSpec, CRASH_EXPECTED};
use fba_scenario::{Baseline, Phase, Scenario, ScenarioOutcome};
use fba_sim::{AdversarySpec, NetworkSpec};

fn usage() {
    eprintln!(
        "usage: paperbench [--quick|--full|--huge|--scope <quick|default|full|huge|extreme>] \
         [--json <dir>] <experiment id>... | all | scenario <flags> | sweep <flags>"
    );
    eprintln!("known ids: {}", ALL_IDS.join(", "));
    eprintln!("scenario flags: see `paperbench scenario --help`");
    eprintln!("sweep flags:    see `paperbench sweep --help`");
}

fn sweep_usage() {
    eprintln!(
        "usage: paperbench sweep [--scope <quick|default|full|huge|extreme>] \
         [--axis <name>=<v1,v2,…>]... [--metric <m1,m2,…>]... [--seeds <s1,s2,…>] \
         [--strict] [--json <path>]"
    );
    eprintln!("  axes (values parse through the scenario spec grammar):");
    for (name, what) in sweep::AXES {
        eprintln!("      {name:<10} {what}");
    }
    eprintln!("  metrics (default: {}):", sweep::DEFAULT_METRICS.join(","));
    for (name, what) in sweep::METRICS {
        eprintln!("      {name:<10} {what}");
    }
    eprintln!("  values split on commas; comma *parameters* re-merge automatically");
    eprintln!("  (adversary=silent,random-flood:16,4 is two values). Repeating");
    eprintln!("  --axis with the same name extends the axis.");
}

/// Handles one scope-selecting flag (`--quick`/`--full`/`--huge`, or
/// `--scope <name>` consuming its value from `iter`). Returns `None`
/// when `arg` is not a scope flag, `Some(Err(()))` when `--scope` has a
/// missing or unknown value — one parser shared by every subcommand so
/// the scope surface cannot drift between them.
fn scope_flag(arg: &str, iter: &mut std::slice::Iter<'_, String>) -> Option<Result<Scope, ()>> {
    match arg {
        "--quick" => Some(Ok(Scope::Quick)),
        "--full" => Some(Ok(Scope::Full)),
        "--huge" => Some(Ok(Scope::Huge)),
        "--scope" => Some(iter.next().and_then(|name| Scope::parse(name)).ok_or(())),
        _ => None,
    }
}

#[allow(clippy::too_many_lines)] // flat flag parsing, mirroring run_scenario
fn run_sweep(args: &[String]) -> ExitCode {
    let mut scope = Scope::Default;
    let mut axes: Vec<(String, Vec<String>)> = Vec::new();
    let mut metrics: Vec<String> = Vec::new();
    let mut seeds: Option<Vec<u64>> = None;
    let mut strict = false;
    let mut json_path: Option<String> = None;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match scope_flag(arg, &mut iter) {
            Some(Ok(parsed)) => {
                scope = parsed;
                continue;
            }
            Some(Err(())) => {
                eprintln!("error: --scope needs one of quick|default|full|huge|extreme");
                sweep_usage();
                return ExitCode::FAILURE;
            }
            None => {}
        }
        let mut value_of = |flag: &str| -> Result<String, ExitCode> {
            iter.next().cloned().ok_or_else(|| {
                eprintln!("error: {flag} needs a value");
                sweep_usage();
                ExitCode::FAILURE
            })
        };
        match arg.as_str() {
            "--help" | "-h" => {
                sweep_usage();
                return ExitCode::SUCCESS;
            }
            "--axis" => {
                let raw = match value_of("--axis") {
                    Ok(raw) => raw,
                    Err(code) => return code,
                };
                let Some((name, values)) = raw.split_once('=') else {
                    eprintln!("error: --axis needs <name>=<v1,v2,…> (got `{raw}`)");
                    sweep_usage();
                    return ExitCode::FAILURE;
                };
                axes.push((name.to_string(), sweep::split_axis_values(name, values)));
            }
            "--metric" => {
                let raw = match value_of("--metric") {
                    Ok(raw) => raw,
                    Err(code) => return code,
                };
                metrics.extend(raw.split(',').map(ToString::to_string));
            }
            "--seeds" => {
                let raw = match value_of("--seeds") {
                    Ok(raw) => raw,
                    Err(code) => return code,
                };
                match raw
                    .split(',')
                    .map(str::parse)
                    .collect::<Result<Vec<u64>, _>>()
                {
                    Ok(parsed) => seeds = Some(parsed),
                    Err(err) => {
                        eprintln!("error: bad --seeds `{raw}`: {err}");
                        sweep_usage();
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--strict" => strict = true,
            "--json" => {
                json_path = match value_of("--json") {
                    Ok(raw) => Some(raw),
                    Err(code) => return code,
                };
            }
            other => {
                eprintln!("error: unknown sweep flag `{other}`");
                sweep_usage();
                return ExitCode::FAILURE;
            }
        }
    }

    if metrics.is_empty() {
        metrics = sweep::DEFAULT_METRICS
            .iter()
            .map(ToString::to_string)
            .collect();
    }
    let battery = match sweep::battery(&axes, &metrics, seeds, strict) {
        Ok(battery) => battery,
        Err(err) => {
            eprintln!("error: {err}");
            sweep_usage();
            return ExitCode::FAILURE;
        }
    };
    // Pre-flight the JSON destination before a potentially hours-long
    // sweep, so a bad path cannot discard the results at the very end:
    // create the parent directory, then probe-write the file itself
    // (catches an unwritable or directory destination up front).
    if let Some(path) = &json_path {
        if let Some(parent) = std::path::Path::new(path)
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
        {
            if let Err(err) = std::fs::create_dir_all(parent) {
                eprintln!("error: could not create {}: {err}", parent.display());
                return ExitCode::FAILURE;
            }
        }
        if let Err(err) = std::fs::write(path, "") {
            eprintln!("error: could not write {path}: {err}");
            return ExitCode::FAILURE;
        }
    }
    let started = std::time::Instant::now();
    let report = battery.report(scope);
    println!("{}", report.table.render());
    println!("_(ran in {:.1?}, scope {scope:?})_", started.elapsed());
    if let Some(path) = json_path {
        if let Err(err) = std::fs::write(&path, &report.cells_json) {
            eprintln!("error: could not write {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}

fn scenario_usage() {
    eprintln!(
        "usage: paperbench scenario [--n <nodes>] [--seed <seed>] [--faults <t>] \
         [--adversary <spec>] [--network <spec>] [--phase <spec>] [--knowing <fraction>] \
         [--crash <schedule>] [--strict]"
    );
    eprintln!("  --adversary: one of");
    for (grammar, what) in AdversarySpec::CATALOGUE {
        eprintln!("      {grammar:<28} {what}");
    }
    eprintln!("  --network:   sync | async[:max_delay]");
    eprintln!("  --phase:     {}", Phase::EXPECTED);
    eprintln!("  --crash:     {CRASH_EXPECTED}");
    eprintln!("               (AER phase only; no window may crash more than n nodes)");
}

/// Applies `--knowing` to the phases that synthesise a precondition;
/// `None` for phases that have no knowledge fraction to set (rejected
/// rather than silently ignored).
fn with_knowing(phase: Phase, knowing: f64) -> Option<Phase> {
    match phase {
        Phase::Aer { mut precondition } => {
            precondition.knowing = knowing;
            Some(Phase::Aer { precondition })
        }
        Phase::Baseline(Baseline::Klst { mut precondition }) => {
            precondition.knowing = knowing;
            Some(Phase::Baseline(Baseline::Klst { precondition }))
        }
        Phase::Baseline(Baseline::Flood { mut precondition }) => {
            precondition.knowing = knowing;
            Some(Phase::Baseline(Baseline::Flood { precondition }))
        }
        _ => None,
    }
}

#[allow(clippy::too_many_lines)] // flat flag parsing + per-phase reporting
fn run_scenario(args: &[String]) -> ExitCode {
    let mut n = 256usize;
    let mut seed = 1u64;
    let mut faults: Option<usize> = None;
    let mut adversary = AdversarySpec::None;
    let mut network = NetworkSpec::Sync;
    let mut phase: Phase = "aer".parse().expect("default phase parses");
    let mut knowing: Option<f64> = None;
    let mut crash: Option<CrashSpec> = None;
    let mut strict = false;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| -> Result<String, ExitCode> {
            iter.next().cloned().ok_or_else(|| {
                eprintln!("error: {flag} needs a value");
                scenario_usage();
                ExitCode::FAILURE
            })
        };
        macro_rules! parse_flag {
            ($flag:literal) => {{
                let raw = match value_of($flag) {
                    Ok(raw) => raw,
                    Err(code) => return code,
                };
                match raw.parse() {
                    Ok(parsed) => parsed,
                    Err(err) => {
                        eprintln!("error: bad {} `{raw}`: {err}", $flag);
                        scenario_usage();
                        return ExitCode::FAILURE;
                    }
                }
            }};
        }
        match arg.as_str() {
            "--help" | "-h" => {
                scenario_usage();
                return ExitCode::SUCCESS;
            }
            "--n" => n = parse_flag!("--n"),
            "--seed" => seed = parse_flag!("--seed"),
            "--faults" => faults = Some(parse_flag!("--faults")),
            "--adversary" => adversary = parse_flag!("--adversary"),
            "--network" => network = parse_flag!("--network"),
            "--phase" => phase = parse_flag!("--phase"),
            "--knowing" => knowing = Some(parse_flag!("--knowing")),
            "--crash" => crash = Some(parse_flag!("--crash")),
            "--strict" => strict = true,
            other => {
                eprintln!("error: unknown scenario flag `{other}`");
                scenario_usage();
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(k) = knowing {
        let Some(updated) = with_knowing(phase, k) else {
            eprintln!("error: --knowing applies only to the aer, baseline:klst and baseline:flood phases (got `{phase}`)");
            scenario_usage();
            return ExitCode::FAILURE;
        };
        phase = updated;
    }
    let mut scenario = Scenario::new(n)
        .adversary(adversary.clone())
        .network(network)
        .phase(phase);
    if let Some(t) = faults {
        scenario = scenario.faults(t);
    }
    if strict {
        scenario = scenario.strict();
    }
    if let Some(spec) = crash {
        scenario = scenario.faults_spec(spec);
    }

    println!("scenario: n={n} seed={seed} phase={phase} adversary={adversary} network={network}");
    let started = std::time::Instant::now();
    let outcome = match scenario.run(seed) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("error: {err}");
            scenario_usage();
            return ExitCode::FAILURE;
        }
    };
    match outcome {
        ScenarioOutcome::Aer(out) => {
            println!(
                "decided {}/{} correct nodes, {} wrong, all decided at {}, {:.0} bits/node",
                out.run.outputs.len(),
                out.correct_nodes(),
                out.wrong_decisions(),
                out.run
                    .all_decided_at
                    .map_or("-".to_string(), |s| format!("step {s}")),
                out.run.metrics.amortized_bits(),
            );
            if let Some(report) = &out.corner {
                println!(
                    "corner plan: {} victims, {} overload targets, depth {}",
                    report.blocked_victims, report.overload_targets, report.planned_depth
                );
            }
            for outage in out.rejoin().iter().flat_map(|r| &r.outages) {
                println!(
                    "outage [{}..{}): {}/{} crashed correct nodes rejoined, max {} / mean {} \
                     steps past restart",
                    outage.start,
                    outage.end,
                    outage.rejoined,
                    outage.crashed,
                    outage
                        .max_rejoin_steps
                        .map_or("n/a".to_string(), |s| s.to_string()),
                    outage
                        .mean_rejoin_steps
                        .map_or("n/a".to_string(), |m| format!("{m:.2}")),
                );
            }
        }
        ScenarioOutcome::Ae(run) => {
            println!(
                "almost-everywhere phase decided: {:.1}% of correct nodes knowing after \
                 {} rounds, {:.0} bits/node",
                run.outcome.knowing_fraction * 100.0,
                run.outcome.run.metrics.steps,
                run.outcome.run.metrics.amortized_bits(),
            );
        }
        ScenarioOutcome::Composed(c) => {
            println!(
                "composed BA {}: decided {}/{} correct nodes, AE {} rounds + AER {}, \
                 {:.0} bits/node total",
                if c.report.success() {
                    "SUCCESS"
                } else {
                    "partial"
                },
                c.report.decided_nodes,
                c.report.correct_nodes,
                c.report.ae_rounds,
                c.report
                    .aer_rounds
                    .map_or("-".to_string(), |s| s.to_string()),
                c.report.ae_bits_per_node + c.report.aer_bits_per_node,
            );
        }
        ScenarioOutcome::Baseline(b) => {
            let metrics = b.outcome.metrics();
            println!(
                "baseline decided {:.1}% of correct nodes, {} rounds, {:.0} bits/node",
                metrics.decided_fraction() * 100.0,
                b.outcome
                    .all_decided_at()
                    .map_or("-".to_string(), |s| s.to_string()),
                metrics.amortized_bits(),
            );
        }
    }
    println!("_(ran in {:.1?})_", started.elapsed());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    // Large-n batteries churn gigabytes of short-lived queue/arena memory;
    // raising the glibc trim/mmap thresholds keeps it inside the heap
    // instead of round-tripping through mmap/munmap. No-op elsewhere.
    let _ = fba_sim::tune_allocator_for_bulk();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("scenario") {
        return run_scenario(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("sweep") {
        return run_sweep(&args[1..]);
    }
    let mut scope = Scope::Default;
    let mut ids: Vec<String> = Vec::new();
    let mut json_dir: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match scope_flag(arg, &mut iter) {
            Some(Ok(parsed)) => {
                scope = parsed;
                continue;
            }
            Some(Err(())) => {
                eprintln!("error: --scope needs one of quick|default|full|huge|extreme");
                usage();
                return ExitCode::FAILURE;
            }
            None => {}
        }
        match arg.as_str() {
            "--json" => {
                let Some(dir) = iter.next() else {
                    eprintln!("error: --json needs a directory path");
                    usage();
                    return ExitCode::FAILURE;
                };
                json_dir = Some(dir.clone());
            }
            "all" => ids.extend(ALL_IDS.iter().map(ToString::to_string)),
            other => {
                if ALL_IDS.contains(&other) {
                    ids.push(other.to_string());
                } else {
                    eprintln!("error: unknown experiment id or subcommand `{other}`");
                    usage();
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if ids.is_empty() {
        usage();
        return ExitCode::FAILURE;
    }
    if let Some(dir) = &json_dir {
        if let Err(err) = std::fs::create_dir_all(dir) {
            eprintln!("error: could not create {dir}: {err}");
            return ExitCode::FAILURE;
        }
    }
    for id in ids {
        let started = std::time::Instant::now();
        match run_experiment(&id, scope) {
            Ok(report) => {
                println!("{}", report.table.render());
                println!(
                    "_(generated in {:.1?}, scope {scope:?})_\n",
                    started.elapsed()
                );
                if let Some(dir) = &json_dir {
                    let path = format!("{dir}/{id}.json");
                    if let Err(err) = std::fs::write(&path, &report.cells_json) {
                        eprintln!("error: could not write {path}: {err}");
                        return ExitCode::FAILURE;
                    }
                    println!("wrote {path}");
                }
            }
            Err(err) => {
                eprintln!("error: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
