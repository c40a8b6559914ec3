//! The command line.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one pass; the contract's form
//! benchmark run [--seed-base N] [--reps K] [--seconds S] [--out FILE]
//! benchmark compare A.json B.json
//! benchmark manifest
//! ```

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use fba_bench::json::Value;

use crate::layers::layer_pass;
use crate::metrics::PassResult;
use crate::report::{compare, manifest_json, Host, RunReport, WorkloadReport, RUN_SECONDS};
use crate::timed::timed_pass;
use crate::workload::{by_name, catalogue};

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  benchmark run [--seed-base <n>] [--reps <k>] [--seconds <s>] [--out <file>]
  benchmark compare <A.json> <B.json>
  benchmark manifest";

/// Where the traced pass writes its span trees: `out/` beside the
/// package's manifest, inside the checkout the binary was built from.
#[must_use]
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `--flag value` pairs, every flag at most once.
fn flags(args: &[String], allowed: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !allowed.contains(&flag.as_str()) {
            return Err(format!("unknown argument `{flag}`"));
        }
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        if out.insert(flag.clone(), value.clone()).is_some() {
            return Err(format!("`{flag}` given twice"));
        }
    }
    Ok(out)
}

fn number(
    flags: &BTreeMap<String, String>,
    flag: &str,
    default: Option<u64>,
) -> Result<u64, String> {
    match (flags.get(flag), default) {
        (Some(text), _) => text
            .parse()
            .map_err(|_| format!("`{flag} {text}` is not a whole number")),
        (None, Some(default)) => Ok(default),
        (None, None) => Err(format!("`{flag}` is required")),
    }
}

/// One pass in this process: the form the benchmark contract invokes.
fn pass(args: &[String]) -> Result<ExitCode, String> {
    let flags = flags(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let name = flags.get("--workload").ok_or("`--workload` is required")?;
    let workload = by_name(name).ok_or_else(|| {
        let names: Vec<&str> = catalogue().iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; known: {}", names.join(", "))
    })?;
    let seed = number(&flags, "--seed", None)?;
    let seconds = number(&flags, "--seconds", None)?;
    let result = match number(&flags, "--trace", None)? {
        0 => timed_pass(&workload, seed, seconds as f64),
        1 => layer_pass(&workload, seed, &out_dir()),
        other => return Err(format!("`--trace {other}`: expected 0 or 1")),
    };
    println!("{}", result.to_json_line());
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Parses the result line a pass printed last.
///
/// # Errors
///
/// Returns what is missing or malformed.
pub fn parse_pass(stdout: &str) -> Result<PassResult, String> {
    let line = stdout.lines().last().ok_or("the pass printed nothing")?;
    let doc = Value::parse(line).map_err(|e| format!("result line: {e}"))?;
    let whole = |key: &str| {
        doc.get(key)
            .and_then(Value::as_f64)
            .map(|v| v as u64)
            .ok_or_else(|| format!("result line: no `{key}`"))
    };
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result line: no `metrics`")?;
    let known: Vec<(String, &'static str)> = crate::metrics::END_TO_END
        .iter()
        .map(|def| (def.name.to_string(), def.unit))
        .chain(
            crate::metrics::per_layer()
                .into_iter()
                .map(|def| (def.name, def.unit)),
        )
        .collect();
    // Table order, not the parser's alphabetical order.
    let metrics = known
        .into_iter()
        .filter_map(|(name, unit)| {
            let value = metrics.get(&name)?.get("value")?.as_f64()?;
            Some((name, value, unit))
        })
        .collect();
    let failed = whole("failed")?;
    Ok(PassResult {
        correct: failed == 0,
        attempted: whole("attempted")?,
        failed,
        metrics,
    })
}

/// Runs one pass in a child process, so peak RSS and allocator state do
/// not leak from one pass into the next. The engine's environment knobs
/// are removed: the benchmark measures the default lanes.
fn child_pass(workload: &str, seed: u64, seconds: u64, trace: u8) -> Result<PassResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .env_remove("FBA_BATCH")
        .env_remove("FBA_THREADS")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn pass: {e}"))?;
    // A pass that found failed ops exits non-zero but still reports.
    parse_pass(&String::from_utf8_lossy(&output.stdout)).map_err(|e| {
        format!(
            "{workload} seed {seed} trace {trace}: {e} ({})",
            output.status
        )
    })
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Every workload, timed `reps` times and traced once.
fn run(args: &[String]) -> Result<ExitCode, String> {
    let flags = flags(args, &["--seed-base", "--reps", "--seconds", "--out"])?;
    let seed_base = number(&flags, "--seed-base", Some(1))?;
    let reps = number(&flags, "--reps", Some(3))?.max(1);
    let seconds = number(&flags, "--seconds", Some(RUN_SECONDS))?;
    let out = flags
        .get("--out")
        .map_or_else(|| out_dir().join("result.json"), PathBuf::from);

    let mut workloads = BTreeMap::new();
    for workload in catalogue() {
        let mut report = WorkloadReport::default();
        for rep in 0..reps {
            eprintln!("{}: timed pass {}/{reps}", workload.name, rep + 1);
            report.absorb_timed(&child_pass(workload.name, seed_base + rep, seconds, 0)?);
        }
        eprintln!("{}: traced pass", workload.name);
        report.absorb_traced(&child_pass(workload.name, seed_base, seconds, 1)?);
        workloads.insert(workload.name.to_string(), report);
    }
    let report = RunReport {
        host: Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: tool_line("rustc", &["-V"]),
            commit: tool_line("git", &["rev-parse", "HEAD"]),
        },
        seed_base,
        reps,
        seconds,
        workloads,
    };
    print!("{}", report.to_table());
    if let Some(dir) = out.parent().filter(|dir| !dir.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, report.to_json()).map_err(|e| format!("{}: {e}", out.display()))?;
    eprintln!("wrote {}", out.display());
    Ok(if report.any_failed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two result files".to_string());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        RunReport::from_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (text, regressed) = compare(&load(a)?, &load(b)?);
    print!("{text}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Entry point: dispatches on the first argument.
#[must_use]
pub fn main(args: Vec<String>) -> ExitCode {
    // Same allocator tuning as `paperbench`: keep per-step queue memory
    // on the heap instead of re-faulting it from the kernel every step.
    fba_sim::tune_allocator_for_bulk();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        Some("manifest") => {
            print!("{}", manifest_json());
            Ok(ExitCode::SUCCESS)
        }
        Some(flag) if flag.starts_with("--") => pass(&args),
        _ => Err("no command".to_string()),
    };
    result.unwrap_or_else(|message| {
        eprintln!("benchmark: {message}\n{USAGE}");
        ExitCode::from(2)
    })
}
