//! Golden-table equivalence: every migrated experiment's rendered table
//! (title, columns, rows) must stay bit-identical to the pre-redesign
//! hand-rolled module at quick scope.
//!
//! The golden files under `tests/golden/` were verified bit-identical
//! (title, columns, rows) against captures of the pre-battery modules
//! (PR 4 state) when the migration landed, and are maintained as
//! current-render regression pins — bless intentional changes with
//! `UPDATE_GOLDEN=1 cargo test -p fba-bench --test golden`. Comparison
//! covers everything *above* the note lines: the battery redesign
//! deliberately appends the declared seed-policy note to tables whose
//! thinning used to be silent (a satellite requirement), so note lines
//! are checked separately — `gauntlet`, whose thinning note already
//! existed verbatim, is pinned as a full render including notes.

use fba_bench::json::Value;
use fba_bench::{run_experiment, Scope};

fn golden_path(id: &str) -> String {
    format!("{}/tests/golden/{id}.golden", env!("CARGO_MANIFEST_DIR"))
}

fn golden(id: &str) -> String {
    let path = golden_path(id);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {path}: {e}"))
}

/// The render with the note block stripped: title, header and data rows.
fn data_lines(render: &str) -> String {
    render
        .lines()
        .take_while(|line| !line.starts_with("> "))
        .collect::<Vec<_>>()
        .join("\n")
        .trim_end()
        .to_string()
}

fn assert_matches_golden(ids: &[&str]) {
    for id in ids {
        let report = run_experiment(id, Scope::Quick).expect("known id");
        // Bless path for intentional output changes:
        // `UPDATE_GOLDEN=1 cargo test -p fba-bench --test golden`.
        if std::env::var("UPDATE_GOLDEN").is_ok() {
            std::fs::write(golden_path(id), report.table.render()).expect("bless golden");
        }
        assert_eq!(
            data_lines(&report.table.render()),
            data_lines(&golden(id)),
            "experiment `{id}` diverged from its pre-redesign golden table"
        );
        // Every id also emits parseable per-cell JSON records.
        let json = Value::parse(&report.cells_json)
            .unwrap_or_else(|e| panic!("experiment `{id}` emitted invalid JSON: {e}"));
        assert_eq!(json.get("battery").and_then(Value::as_str), Some(*id));
        assert!(
            !json
                .get("cells")
                .and_then(Value::as_array)
                .unwrap()
                .is_empty(),
            "experiment `{id}` emitted no JSON cells"
        );
    }
}

// Split by family so the heavy sweeps run on parallel test threads.

#[test]
fn golden_fig1a() {
    assert_matches_golden(&["f1a-time", "f1a-bits", "f1a-load"]);
}

#[test]
fn golden_fig1b() {
    assert_matches_golden(&["f1b"]);
}

#[test]
fn golden_fig2() {
    assert_matches_golden(&["f2a", "f2b"]);
}

#[test]
fn golden_lemmas() {
    assert_matches_golden(&["l3", "l4", "l5", "l7", "l9"]);
}

#[test]
fn golden_timing() {
    assert_matches_golden(&["l6", "l8", "l10", "ablate-cap"]);
}

#[test]
fn golden_misc() {
    assert_matches_golden(&["s41", "ae", "gbits", "ablate-d"]);
}

#[test]
fn golden_gauntlet_full_render_including_notes() {
    // Gauntlet's thinning note predates the redesign with the exact text
    // the declared `SeedPolicy::ThinAt` now generates, so its golden is
    // pinned as a byte-identical full render — notes and all.
    let report = run_experiment("gauntlet", Scope::Quick).expect("known id");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(golden_path("gauntlet"), report.table.render()).expect("bless golden");
    }
    assert_eq!(report.table.render(), golden("gauntlet"));
}

#[test]
fn golden_recovery_snapshot() {
    // `recovery` is new in this redesign (no pre-redesign module); its
    // golden pins the battery's determinism going forward. Regenerate
    // with `UPDATE_GOLDEN=1 cargo test -p fba-bench --test golden`.
    let report = run_experiment("recovery", Scope::Quick).expect("known id");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(golden_path("recovery"), report.table.render()).expect("bless golden");
    }
    assert_eq!(report.table.render(), golden("recovery"));
}

#[test]
fn golden_service_and_crashes_full_render() {
    // The two workload batteries became ordinary experiments when their
    // bespoke reporters were deleted; every column is deterministic, so
    // the goldens pin the full render. Their quick-scope values were
    // checked equal to the last rows the old `service --json` /
    // `crashes --json` subcommands printed (kept beside the goldens in
    // `service-crashes.parent.txt`).
    for id in ["service", "crashes"] {
        let report = run_experiment(id, Scope::Quick).expect("known id");
        if std::env::var("UPDATE_GOLDEN").is_ok() {
            std::fs::write(golden_path(id), report.table.render()).expect("bless golden");
        }
        assert_eq!(report.table.render(), golden(id));
        // What a blessed golden must still say: every correct node
        // decides in every instance / after every restart.
        let t = &report.table;
        let col = t.columns.iter().position(|c| c == "min decided").unwrap();
        for row in &t.rows {
            assert_eq!(row[col], "1.00", "{id}: {row:?}");
        }
    }
}

#[test]
fn formerly_silent_thinning_is_now_declared_in_notes() {
    // l3 / l4 / s41 used to thin to 3 seeds inside their loops without
    // telling anyone; the declared policy must now surface in the notes.
    for id in ["l3", "l4", "s41"] {
        let report = run_experiment(id, Scope::Quick).expect("known id");
        assert!(
            report
                .table
                .notes
                .iter()
                .any(|note| note.contains("first 3 seed")),
            "experiment `{id}` does not declare its seed thinning: {:?}",
            report.table.notes
        );
    }
}
