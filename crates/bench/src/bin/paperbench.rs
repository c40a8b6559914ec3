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
//! Whatever a subcommand rejects — an unknown id, scope, flag, spec,
//! axis or metric, a scenario the builder refuses, an unwritable
//! `--json` path — is an `error:` line, the usage text and exit code 1,
//! printed in one place (`main`).

use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

use fba_bench::{run_experiments, sweep, Scope, ALL_IDS, METRICS};
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
    for metric in METRICS {
        eprintln!("      {:<10} {}", metric.name, metric.help);
    }
    eprintln!("  values split on commas; comma *parameters* re-merge automatically");
    eprintln!("  (adversary=silent,random-flood:16,4 is two values). Repeating");
    eprintln!("  --axis with the same name extends the axis.");
}

/// The cursor every subcommand reads its flags with. A rejection is an
/// `Err(message)`; `main` is the one place that prints it.
struct Flags<'a>(std::slice::Iter<'a, String>);

impl<'a> Flags<'a> {
    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    /// The value that follows `flag`.
    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value that follows `flag`, parsed.
    fn parsed<T: FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        let raw = self.value(flag)?;
        raw.parse()
            .map_err(|err| format!("bad {flag} `{raw}`: {err}"))
    }

    /// The scope `arg` selects (`--quick`/`--full`/`--huge`, or `--scope`
    /// and its value), or `None` when `arg` is not a scope flag — one
    /// parser, so the scope surface cannot drift between subcommands.
    fn scope(&mut self, arg: &str) -> Result<Option<Scope>, String> {
        Ok(Some(match arg {
            "--quick" => Scope::Quick,
            "--full" => Scope::Full,
            "--huge" => Scope::Huge,
            "--scope" => self
                .next()
                .and_then(Scope::parse)
                .ok_or("--scope needs one of quick|default|full|huge|extreme")?,
            _ => return Ok(None),
        }))
    }
}

fn run_sweep(args: &[String]) -> Result<(), String> {
    let mut scope = Scope::Default;
    let mut axes: Vec<(String, Vec<String>)> = Vec::new();
    let mut metrics: Vec<String> = Vec::new();
    let mut seeds: Option<Vec<u64>> = None;
    let mut strict = false;
    let mut json_path: Option<&str> = None;

    let mut flags = Flags(args.iter());
    while let Some(arg) = flags.next() {
        if let Some(parsed) = flags.scope(arg)? {
            scope = parsed;
            continue;
        }
        match arg {
            "--help" | "-h" => {
                sweep_usage();
                return Ok(());
            }
            "--axis" => {
                let raw = flags.value(arg)?;
                let (name, values) = raw
                    .split_once('=')
                    .ok_or_else(|| format!("--axis needs <name>=<v1,v2,…> (got `{raw}`)"))?;
                axes.push((name.to_string(), sweep::split_axis_values(name, values)));
            }
            "--metric" => metrics.extend(flags.value(arg)?.split(',').map(ToString::to_string)),
            "--seeds" => {
                let raw = flags.value(arg)?;
                let parsed: Result<Vec<u64>, _> = raw.split(',').map(str::parse).collect();
                seeds = Some(parsed.map_err(|err| format!("bad --seeds `{raw}`: {err}"))?);
            }
            "--strict" => strict = true,
            "--json" => json_path = Some(flags.value(arg)?),
            other => return Err(format!("unknown sweep flag `{other}`")),
        }
    }

    let battery = sweep::battery(&axes, &metrics, seeds, strict)?;
    // Pre-flight the JSON destination before a potentially hours-long
    // sweep, so a bad path cannot discard the results at the very end:
    // create the parent directory, then probe-write the file itself
    // (catches an unwritable or directory destination up front).
    let write = |path: &str, text: &str| {
        std::fs::write(path, text).map_err(|err| format!("could not write {path}: {err}"))
    };
    if let Some(path) = json_path {
        if let Some(parent) = std::path::Path::new(path)
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
        {
            std::fs::create_dir_all(parent)
                .map_err(|err| format!("could not create {}: {err}", parent.display()))?;
        }
        write(path, "")?;
    }
    let started = Instant::now();
    let report = battery.report(scope);
    println!("{}", report.table.render());
    println!("_(ran in {:.1?}, scope {scope:?})_", started.elapsed());
    if let Some(path) = json_path {
        write(path, &report.cells_json)?;
        println!("wrote {path}");
    }
    Ok(())
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

fn run_scenario(args: &[String]) -> Result<(), String> {
    let mut n = 256usize;
    let mut seed = 1u64;
    let mut faults: Option<usize> = None;
    let mut adversary = AdversarySpec::None;
    let mut network = NetworkSpec::Sync;
    let mut phase: Phase = "aer".parse().expect("default phase parses");
    let mut knowing: Option<f64> = None;
    let mut crash: Option<CrashSpec> = None;
    let mut strict = false;

    let mut flags = Flags(args.iter());
    while let Some(arg) = flags.next() {
        match arg {
            "--help" | "-h" => {
                scenario_usage();
                return Ok(());
            }
            "--n" => n = flags.parsed(arg)?,
            "--seed" => seed = flags.parsed(arg)?,
            "--faults" => faults = Some(flags.parsed(arg)?),
            "--adversary" => adversary = flags.parsed(arg)?,
            "--network" => network = flags.parsed(arg)?,
            "--phase" => phase = flags.parsed(arg)?,
            "--knowing" => knowing = Some(flags.parsed(arg)?),
            "--crash" => crash = Some(flags.parsed(arg)?),
            "--strict" => strict = true,
            other => return Err(format!("unknown scenario flag `{other}`")),
        }
    }

    if let Some(knowing) = knowing {
        // Only these phases synthesise a precondition; elsewhere the flag
        // is rejected rather than silently ignored.
        let (Phase::Aer { precondition }
        | Phase::Baseline(Baseline::Klst { precondition } | Baseline::Flood { precondition })) =
            &mut phase
        else {
            return Err(format!(
                "--knowing applies only to the aer, baseline:klst and baseline:flood phases \
                 (got `{phase}`)"
            ));
        };
        precondition.knowing = knowing;
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
    let started = Instant::now();
    print_outcome(&scenario.run(seed).map_err(|err| err.to_string())?);
    println!("_(ran in {:.1?})_", started.elapsed());
    Ok(())
}

/// What one run decided, in the terms of the phase it ran.
fn print_outcome(outcome: &ScenarioOutcome) {
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
}

fn run_ids(args: &[String]) -> Result<(), String> {
    let mut scope = Scope::Default;
    let mut ids: Vec<&str> = Vec::new();
    let mut json_dir: Option<&str> = None;
    let mut flags = Flags(args.iter());
    while let Some(arg) = flags.next() {
        if let Some(parsed) = flags.scope(arg)? {
            scope = parsed;
            continue;
        }
        match arg {
            "--json" => json_dir = Some(flags.value(arg)?),
            "all" => ids.extend(ALL_IDS),
            id if ALL_IDS.contains(&id) => ids.push(id),
            other => return Err(format!("unknown experiment id or subcommand `{other}`")),
        }
    }
    if ids.is_empty() {
        return Err("no experiment id given".to_string());
    }
    if let Some(dir) = json_dir {
        std::fs::create_dir_all(dir).map_err(|err| format!("could not create {dir}: {err}"))?;
    }
    let mut started = Instant::now();
    run_experiments(&ids, scope, |id, report| {
        println!("{}", report.table.render());
        println!(
            "_(generated in {:.1?}, scope {scope:?})_\n",
            started.elapsed()
        );
        if let Some(dir) = json_dir {
            let path = format!("{dir}/{id}.json");
            std::fs::write(&path, &report.cells_json)
                .map_err(|err| format!("could not write {path}: {err}"))?;
            println!("wrote {path}");
        }
        started = Instant::now();
        Ok(())
    })
}

fn main() -> ExitCode {
    // Large-n batteries churn gigabytes of short-lived queue/arena memory;
    // raising the glibc trim/mmap thresholds keeps it inside the heap
    // instead of round-tripping through mmap/munmap. No-op elsewhere.
    let _ = fba_sim::tune_allocator_for_bulk();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (result, usage): (_, fn()) = match args.first().map(String::as_str) {
        Some("scenario") => (run_scenario(&args[1..]), scenario_usage),
        Some("sweep") => (run_sweep(&args[1..]), sweep_usage),
        _ => (run_ids(&args), usage),
    };
    // Every rejection, whichever subcommand raised it, ends here.
    if let Err(err) = result {
        eprintln!("error: {err}");
        usage();
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
