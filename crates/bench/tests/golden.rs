//! Golden pins: the full quick-scope output of every deterministic
//! experiment id — the rendered table, notes included, in
//! `tests/golden/<id>.golden`, and the per-cell JSON records in
//! `tests/golden/<id>.cells.json` — must stay byte-identical.
//! `bench-engine` reads the host clock, so its output is only parsed.
//!
//! Bless an intentional change with
//! `UPDATE_GOLDEN=1 cargo test -p fba-bench --test golden`.

use fba_bench::json::Value;
use fba_bench::{run_experiments, Scope, ALL_IDS};

#[expect(clippy::disallowed_methods, reason = "D6: UPDATE_GOLDEN blesses")]
fn assert_pinned(id: &str, extension: &str, actual: &str) {
    let path = format!(
        "{}/tests/golden/{id}.{extension}",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, actual).expect("bless golden");
    }
    let pinned =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {path}: {e}"));
    assert_eq!(actual, pinned, "experiment `{id}` diverged from {path}");
}

#[test]
fn every_id_matches_its_pins() {
    // One call over the whole registry: each report must be the battery
    // its id names, so this is also the check that every id dispatches.
    let mut ran = Vec::new();
    run_experiments(ALL_IDS, Scope::Quick, |id, report| {
        ran.push(id.to_string());
        let json = Value::parse(&report.cells_json)
            .unwrap_or_else(|e| panic!("experiment `{id}` emitted invalid JSON: {e}"));
        assert_eq!(json.get("battery").and_then(Value::as_str), Some(id));
        let cells = json.get("cells").and_then(Value::as_array);
        assert!(
            cells.is_some_and(|cells| !cells.is_empty()),
            "experiment `{id}` emitted no JSON cells"
        );
        if id == "bench-engine" {
            return Ok(());
        }
        assert_pinned(id, "golden", &report.table.render());
        assert_pinned(id, "cells.json", &report.cells_json);

        // What a bless cannot erase. Every correct node decides in every
        // service instance and after every restart…
        let table = &report.table;
        if matches!(id, "service" | "crashes") {
            let col = table.columns.iter().position(|c| c == "min decided");
            for row in &table.rows {
                assert_eq!(row[col.expect("min decided")], "1.00", "{id}: {row:?}");
            }
        }
        // …and the batteries that thin their seeds say so.
        if matches!(id, "l3" | "l4" | "s41") {
            assert!(
                table.notes.iter().any(|n| n.contains("first 3 seed")),
                "experiment `{id}` does not declare its seed thinning: {:?}",
                table.notes
            );
        }
        Ok(())
    })
    .expect("known ids");
    assert_eq!(ran, ALL_IDS);
}
