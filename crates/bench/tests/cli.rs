//! Smoke tests for the `paperbench` CLI surface: bad invocations must
//! print an `error:` line and usage and exit 1 without running any
//! experiment.

use std::process::Command;

fn paperbench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_paperbench"))
        .args(args)
        .output()
        .expect("paperbench binary runs")
}

/// What every rejection looks like: exit code 1 exactly — a panic's 101
/// or an allocation abort's 134 is a bug, not a rejection — an `error:`
/// line and the usage text on stderr. Returns stderr for the caller to
/// read the reason off.
fn rejected(args: &[&str]) -> String {
    let out = paperbench(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains("error:"), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: paperbench"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    stderr
}

#[test]
fn unknown_subcommand_prints_usage_and_fails() {
    let stderr = rejected(&["definitely-not-an-experiment"]);
    assert!(
        stderr.contains("definitely-not-an-experiment"),
        "stderr should name the offender: {stderr}"
    );
    assert!(
        stderr.contains("known ids:"),
        "stderr missing ids: {stderr}"
    );
}

#[test]
fn bad_scope_prints_usage_and_fails() {
    let stderr = rejected(&["--scope", "enormous", "l6"]);
    assert!(stderr.contains("--scope needs"), "stderr: {stderr}");
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let stderr = rejected(&[]);
    assert!(stderr.contains("known ids:"), "stderr: {stderr}");
}

#[test]
fn scenario_valid_spec_runs_and_decides() {
    let out = paperbench(&[
        "scenario",
        "--n",
        "48",
        "--adversary",
        "silent",
        "--network",
        "async:2",
        "--seed",
        "3",
    ]);
    assert!(out.status.success(), "valid scenario must run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("decided 48/") || stdout.contains("decided 4"),
        "stdout should report decisions: {stdout}"
    );
    assert!(stdout.contains("adversary=silent"), "stdout: {stdout}");
    assert!(stdout.contains("network=async:2"), "stdout: {stdout}");
}

#[test]
fn scenario_expresses_every_adversary_in_both_timing_models() {
    // The acceptance matrix: each adversary spec × each timing model.
    for adversary in ["silent", "flood", "equivocate", "corner"] {
        for network in ["sync", "async:2"] {
            let out = paperbench(&[
                "scenario",
                "--n",
                "48",
                "--adversary",
                adversary,
                "--network",
                network,
            ]);
            assert!(
                out.status.success(),
                "{adversary} over {network} must run: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                stdout.contains("decided"),
                "{adversary}/{network}: {stdout}"
            );
        }
    }
}

#[test]
fn scenario_runs_composed_fault_schedules() {
    // The tentpole smoke: a schedule mixing three strategies, straight
    // from the command line.
    let out = paperbench(&[
        "scenario",
        "--n",
        "48",
        "--adversary",
        "sched:[0..1]flood;[1..3]equivocate:4;[3..]corner:64",
        "--network",
        "async:1",
        "--seed",
        "3",
    ]);
    assert!(
        out.status.success(),
        "schedule must run: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("decided"), "stdout: {stdout}");
    assert!(
        stdout.contains("adversary=sched:[0..1]flood;[1..3]equivocate:4;[3..]corner:64"),
        "the schedule round-trips into the banner: {stdout}"
    );
    assert!(
        stdout.contains("corner plan"),
        "the corner window's report surfaces: {stdout}"
    );
}

#[test]
fn scenario_rejects_malformed_schedules() {
    // Overlapping, unordered, and syntactically broken schedules are all
    // rejected — nothing runs.
    for bad in [
        "sched:[0..5]silent;[3..8]flood",  // overlapping windows
        "sched:[5..9]silent;[0..3]flood",  // unordered windows
        "sched:[0..]silent;[9..12]flood",  // open window not last
        "sched:[5..5]silent",              // empty window
        "sched:[0..5]martian",             // unknown inner strategy
        "sched:",                          // no windows
        "sched:[0..2]silent:3;[2..]flood", // mismatched window budgets
    ] {
        let stderr = rejected(&["scenario", "--n", "48", "--adversary", bad]);
        assert!(
            stderr.contains("usage: paperbench scenario"),
            "{bad:?}: {stderr}"
        );
    }
}

#[test]
fn sweep_valid_axes_and_metrics_run_and_report_both_ways() {
    let json_path = std::env::temp_dir().join("paperbench_sweep_test.json");
    let _ = std::fs::remove_file(&json_path);
    let out = paperbench(&[
        "sweep",
        "--scope",
        "quick",
        "--axis",
        "n=48",
        "--axis",
        "adversary=silent,flood",
        "--metric",
        "decided,rounds,wrong",
        "--seeds",
        "3",
        "--json",
        json_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "valid sweep must run: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // This is the CI smoke's invocation; `sweep.golden` pins both of its
    // reporters (the table up to the timing footer, then the JSON file).
    let stdout = String::from_utf8_lossy(&out.stdout);
    let table = stdout.split("\n_(ran in").next().expect("a table");
    let json = std::fs::read_to_string(&json_path).expect("sweep JSON written");
    let _ = std::fs::remove_file(&json_path);
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sweep.golden");
    let pinned = std::fs::read_to_string(golden).expect("sweep.golden");
    assert_eq!(format!("{table}{json}"), pinned);
}

#[test]
fn sweep_rejects_unknown_axes_and_metrics() {
    for (args, reason) in [
        (&["--axis", "planet=mars"][..], "unknown axis"),
        (
            &["--axis", "n=48", "--metric", "latency"][..],
            "unknown metric",
        ),
        (&["--axis", "adversary=martian"][..], "bad adversary value"),
    ] {
        let stderr = rejected(&[&["sweep"], args].concat());
        assert!(stderr.contains(reason), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: paperbench sweep"), "{stderr}");
    }
}

#[test]
fn sweep_rejects_a_metric_or_an_axis_value_listed_twice() {
    // Two columns under one header would be duplicate keys in the JSON
    // records; a repeated value prints the same row twice; a repeated
    // seed weighs one run twice in every aggregate.
    for (args, reason) in [
        (
            &["--axis", "n=48", "--metric", "decided,decided"][..],
            "metric `decided` is listed twice",
        ),
        (
            &[
                "--axis", "n=48", "--metric", "decided", "--metric", "decided",
            ][..],
            "metric `decided` is listed twice",
        ),
        (&["--axis", "n=48,48"][..], "axis `n` lists `48` twice"),
        (
            &["--axis", "n=48", "--axis", "n=48"][..],
            "axis `n` lists `48` twice",
        ),
        (
            &["--axis", "n=48", "--seeds", "1,1"][..],
            "seed `1` is listed twice",
        ),
        (
            &["--axis", "n=48", "--seeds", "1", "--seeds", "1"][..],
            "seed `1` is listed twice",
        ),
    ] {
        let stderr = rejected(&[&["sweep", "--scope", "quick"], args].concat());
        assert!(stderr.contains(reason), "{args:?}: {stderr}");
    }
}

#[test]
fn repeated_seeds_flags_extend_the_seed_list() {
    let out = paperbench(&[
        "sweep", "--scope", "quick", "--axis", "n=48", "--metric", "decided", "--seeds", "1",
        "--seeds", "2",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("Fixed seed(s) 1, 2"), "{stdout}");
}

#[test]
fn json_flag_writes_cell_records_per_experiment_id() {
    let dir = std::env::temp_dir().join("paperbench_json_test");
    let _ = std::fs::remove_dir_all(&dir);
    let out = paperbench(&["--quick", "--json", dir.to_str().unwrap(), "l3", "crashes"]);
    assert!(
        out.status.success(),
        "experiment with --json must run: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(dir.join("l3.json")).expect("l3.json written");
    assert!(json.contains("\"battery\": \"l3\""), "{json}");
    assert!(json.contains("\"seed_policy\""), "{json}");
    assert!(json.contains("\"cells\""), "{json}");
    // The workload batteries are ids like any other.
    let json = std::fs::read_to_string(dir.join("crashes.json")).expect("crashes.json written");
    assert!(json.contains("\"battery\": \"crashes\""), "{json}");
    assert!(json.contains("\"schedule\": \"crash:[3..7]16\""), "{json}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scenario_rejects_n_above_the_supported_bound() {
    // The scale guard: n past the validated bound must fail fast with a
    // message naming the bound, not OOM hours into queue construction.
    let stderr = rejected(&["scenario", "--n", "1048576", "--adversary", "silent"]);
    assert!(
        stderr.contains("exceeds the supported system-size bound"),
        "stderr: {stderr}"
    );
    assert!(
        stderr.contains("65536"),
        "stderr should name the bound: {stderr}"
    );
}

#[test]
fn undersized_n_is_an_error_not_a_panic() {
    // n below the protocol's lower bound used to die on an assert deep
    // in the config derivation; both CLIs must reject it by message.
    for args in [
        &["scenario", "--n", "3"][..],
        &["sweep", "--scope", "quick", "--axis", "n=0"][..],
    ] {
        let stderr = rejected(args);
        assert!(
            stderr.contains("below the smallest supported system size of 8"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn scenario_runs_a_crash_schedule_and_reports_rejoin_cost() {
    let out = paperbench(&["scenario", "--n", "64", "--crash", "crash:[3..7]4"]);
    assert!(
        out.status.success(),
        "crash schedule must run: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("decided 64/64"), "stdout: {stdout}");
    assert!(
        stdout.contains("outage [3..7): 4/4 crashed correct nodes rejoined"),
        "stdout: {stdout}"
    );
}

#[test]
fn scenario_runs_a_crash_schedule_in_the_composed_aer_half() {
    let out = paperbench(&[
        "scenario",
        "--n",
        "64",
        "--phase",
        "composed",
        "--crash",
        "crash:[2..6]4",
        "--seed",
        "3",
    ]);
    assert!(
        out.status.success(),
        "composed crash schedule must run: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("composed BA SUCCESS"), "stdout: {stdout}");
    assert!(
        stdout.contains("decided 64/64 correct nodes, 0 wrong"),
        "stdout: {stdout}"
    );
    assert!(
        stdout.contains("outage [2..6): 4/4 crashed correct nodes rejoined"),
        "stdout: {stdout}"
    );
}

#[test]
fn scenario_runs_the_binary_baselines() {
    // The baseline arm of the outcome printer, for both binary protocols.
    for phase in ["baseline:benor", "baseline:phase-king"] {
        let out = paperbench(&["scenario", "--n", "64", "--phase", phase, "--seed", "3"]);
        assert!(
            out.status.success(),
            "{phase} must run: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("baseline decided 100.0% of correct nodes"),
            "{phase}: {stdout}"
        );
    }
}

#[test]
fn scenario_rejects_malformed_crash_schedules() {
    // Grammar errors fail at parse, scenario-level ones at validation;
    // either way a rejection, and nothing runs.
    for (bad, phase) in [
        ("crash:[5..3]4", "aer"),         // inverted window
        ("crash:[2..6]4;[4..8]4", "aer"), // overlapping windows
        ("crash:[3..7]100000", "aer"),    // more victims than nodes
        ("crash:", "aer"),                // empty body
        ("crash:[3..7]4", "ae"),          // no checkpoint layer off AER
        ("crash:[3..7]4", "baseline:flood"),
    ] {
        let stderr = rejected(&["scenario", "--n", "64", "--phase", phase, "--crash", bad]);
        assert!(
            stderr.contains("usage: paperbench scenario"),
            "{bad:?}/{phase}: {stderr}"
        );
    }
}

#[test]
fn scenario_rejects_signed_numbers_in_every_grammar() {
    // `u64::from_str` takes a leading `+` and `Display` prints the number
    // back without it; the grammar has one digit-only number parser.
    for (flag, bad) in [
        ("--adversary", "silent:+9"),
        ("--network", "async:+2"),
        ("--adversary", "sched:[+0..+5]silent:+9"),
        ("--crash", "crash:[+2..5]4"),
    ] {
        let stderr = rejected(&["scenario", "--n", "64", flag, bad]);
        assert!(stderr.contains(bad), "{bad:?}: {stderr}");
        assert!(
            stderr.contains("usage: paperbench scenario"),
            "{bad:?}: {stderr}"
        );
    }
    for axis in ["adversary=silent:+9", "network=async:+2"] {
        rejected(&["sweep", "--scope", "quick", "--axis", axis]);
    }
}

#[test]
fn scenario_unknown_adversary_prints_usage_and_fails() {
    let stderr = rejected(&["scenario", "--n", "48", "--adversary", "martian"]);
    assert!(
        stderr.contains("martian"),
        "stderr names offender: {stderr}"
    );
    assert!(
        stderr.contains("usage: paperbench scenario"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("corner"), "stderr lists specs: {stderr}");
}

#[test]
fn scenario_unknown_phase_prints_usage_and_fails() {
    let stderr = rejected(&["scenario", "--phase", "tcp"]);
    assert!(stderr.contains("tcp"), "stderr: {stderr}");
    assert!(
        stderr.contains("usage: paperbench scenario"),
        "stderr: {stderr}"
    );
}

#[test]
fn scenario_rejects_knowing_on_phases_without_a_precondition() {
    let stderr = rejected(&["scenario", "--phase", "composed", "--knowing", "0.6"]);
    assert!(
        stderr.contains("--knowing applies only"),
        "stderr: {stderr}"
    );
}

#[test]
fn scenario_rejects_a_knowing_that_is_not_a_fraction() {
    // Used to reach an assert in the precondition generator (exit 101).
    for phase in ["aer", "baseline:klst", "baseline:flood"] {
        for bad in ["2", "NaN", "-0.1"] {
            let stderr = rejected(&["scenario", "--n", "64", "--phase", phase, "--knowing", bad]);
            assert!(stderr.contains("outside [0, 1]"), "{phase}/{bad}: {stderr}");
        }
    }
    let stderr = rejected(&["sweep", "--scope", "quick", "--axis", "knowing=2"]);
    assert!(stderr.contains("outside [0, 1]"), "{stderr}");
}

#[test]
fn scenario_rejects_aer_adversary_on_wrong_phase() {
    // `flood` is AER-specific; the AE phase must reject it gracefully.
    let stderr = rejected(&[
        "scenario",
        "--n",
        "48",
        "--phase",
        "ae",
        "--adversary",
        "flood",
    ]);
    assert!(stderr.contains("AER-specific"), "stderr: {stderr}");
}

#[test]
fn scenario_rejects_out_of_range_budgets_and_delays() {
    // A corruption budget above n or a delay bound the run cannot outlast
    // is a rejection in every phase, never a death inside the engine.
    for phase in ["aer", "ae", "composed", "baseline:klst"] {
        for (flag, bad) in [
            ("--faults", "100"),
            ("--adversary", "silent:100"),
            ("--adversary", "sched:[0..3]silent:100;[3..]none"),
            ("--network", "async:18446744073709551615"),
            ("--network", "async:4294967295"),
        ] {
            rejected(&["scenario", "--n", "64", "--phase", phase, flag, bad]);
        }
    }
    let axis = "network=async:4294967295";
    rejected(&["sweep", "--scope", "quick", "--axis", axis]);
}
