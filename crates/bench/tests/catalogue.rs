//! The strategy catalogue, row by row: what the grammar lists
//! (`AdversarySpec::CATALOGUE`) is what parses, what prints back, what
//! `paperbench scenario --help` and README's "The spec grammar" show, and
//! what `AerAdversary::from_spec` builds. A new strategy is a row here.

use fba_ae::{Precondition, UnknowingAssignment};
use fba_core::adversary::{AerAdversary, AttackContext};
use fba_core::{AerConfig, AerHarness};
use fba_recovery::CrashSpec;
use fba_sim::{Adversary, AdversarySpec, NetworkSpec};

/// Per catalogue row, in catalogue order: the grammar cell, a
/// parameterised form, and what the built strategy tells the engine —
/// `rushing`, `schedules`, `observes`.
const ROWS: [(&str, &str, [bool; 3]); 9] = [
    ("none", "none", [false, false, false]),
    ("silent[:t]", "silent:9", [false, false, false]),
    (
        "random-flood[:rate,steps]",
        "random-flood:8,3",
        [false, false, false],
    ),
    ("flood", "flood", [false, false, false]),
    (
        "equivocate[:strings]",
        "equivocate:6",
        [false, false, false],
    ),
    (
        "pull-flood[:rate,steps]",
        "pull-flood:50,1",
        [false, false, false],
    ),
    ("bad-string", "bad-string", [true, true, false]),
    ("corner[:label_scan]", "corner:512", [true, true, false]),
    (
        "sched:[a..b]spec;[b..]spec",
        "sched:[0..5]silent:9;[5..]corner:512",
        [true, true, false],
    ),
];

#[test]
fn every_catalogue_row_parses_prints_is_documented_and_builds() {
    let help = std::process::Command::new(env!("CARGO_BIN_EXE_paperbench"))
        .args(["scenario", "--help"])
        .output()
        .expect("paperbench runs");
    let help = String::from_utf8_lossy(&help.stderr).into_owned();
    let readme = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    let readme = std::fs::read_to_string(readme).expect("README.md");

    let n = 64;
    let cfg = AerConfig::recommended(n);
    let mode = UnknowingAssignment::SharedAdversarial;
    let pre = Precondition::synthetic(n, cfg.string_len, 0.8, mode, 5);
    let harness = AerHarness::from_precondition(cfg, &pre);
    let bad = *pre
        .assignments
        .iter()
        .find(|s| **s != pre.gstring)
        .expect("a bogus string exists");

    assert_eq!(AdversarySpec::CATALOGUE.len(), ROWS.len());
    for ((grammar, what), (row, parameterised, flags)) in AdversarySpec::CATALOGUE.iter().zip(ROWS)
    {
        assert_eq!(*grammar, row, "rows follow the catalogue's order");
        let spec: AdversarySpec = parameterised.parse().expect(parameterised);
        assert_eq!(spec.to_string(), parameterised, "prints back identically");
        // The bare name (a schedule has none: its windows are mandatory)
        // parses to defaults that print back to what parses to them.
        let bare = grammar.split('[').next().expect("a name");
        if !bare.ends_with(':') {
            let defaulted: AdversarySpec = bare.parse().expect(bare);
            assert_eq!(defaulted.to_string().parse(), Ok(defaulted), "{bare}");
        }

        assert!(help.contains(&format!("{grammar:<28} {what}")), "{help}");
        assert!(
            readme.contains(&format!("| `{grammar}` | {what} |")),
            "README's spec grammar lacks `{grammar}`: {what}"
        );

        let ctx = AttackContext::new(&harness, pre.gstring);
        let built = AerAdversary::from_spec(&spec, ctx, bad);
        assert_eq!(
            [built.rushing(), built.schedules(), built.observes()],
            flags,
            "{parameterised}: rushing / schedules / observes"
        );
    }
}

#[test]
fn the_other_two_grammars_print_back_identically() {
    let network = "async:2".parse::<NetworkSpec>().expect("parses");
    assert_eq!(network.to_string(), "async:2");
    let crash = "crash:[3..7]64".parse::<CrashSpec>().expect("parses");
    assert_eq!(crash.to_string(), "crash:[3..7]64");
}
