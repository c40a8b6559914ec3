//! The lint against the real workspace: clean at HEAD, and fire drills
//! proving it would catch a regression planted into real files.

use std::fs;
use std::path::{Path, PathBuf};

use fba_lint::{lint_source, lint_workspace, workspace_files, Config, RuleId};

/// The actual workspace root (two levels up from this crate).
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn the_workspace_is_clean_at_head() {
    let root = workspace_root();
    let diags = lint_workspace(&root, &Config::default()).expect("walk succeeds");
    assert!(
        diags.is_empty(),
        "the determinism contract must hold on every shipped line:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn the_walk_covers_every_crate() {
    // The pass touches every crate: each workspace member's src tree must
    // contribute files to the lint surface.
    let files = workspace_files(&workspace_root()).expect("walk succeeds");
    for krate in [
        "crates/ae/src/",
        "crates/baselines/src/",
        "crates/bench/src/",
        "crates/core/src/",
        "crates/lint/src/",
        "crates/recovery/src/",
        "crates/samplers/src/",
        "crates/scenario/src/",
        "crates/sim/src/",
        "src/",
    ] {
        assert!(
            files.iter().any(|f| f.starts_with(krate)),
            "no files walked under {krate}; walked: {files:?}"
        );
    }
}

/// Fire drill: plant a D1 violation into a temp copy of the real
/// `crates/core/src/push.rs` and assert the workspace walk detects it at
/// the planted line.
#[test]
fn fire_drill_planted_d1_in_a_real_file_is_detected() {
    let root = workspace_root();
    let real = fs::read_to_string(root.join("crates/core/src/push.rs")).expect("read push.rs");
    assert!(
        !real.contains("std::collections::HashMap"),
        "push.rs must stay on FxHashMap (the PR-9 fix)"
    );

    // Re-introduce exactly the import this PR removed.
    let planted = real.replace(
        "use fba_sim::fxhash::{FxHashMap, FxHashSet};",
        "use std::collections::HashMap;\nuse fba_sim::fxhash::{FxHashMap, FxHashSet};",
    );
    assert_ne!(planted, real, "the anchor line must exist to plant after");
    let planted_line = 1 + planted
        .lines()
        .position(|l| l == "use std::collections::HashMap;")
        .expect("planted line present") as u32;

    // Build a temp workspace holding the sabotaged copy and walk it.
    let dir = std::env::temp_dir().join("paperlint_fire_drill_d1");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(dir.join("crates/core/src")).expect("mkdir");
    fs::write(dir.join("crates/core/src/push.rs"), &planted).expect("write");
    let diags = lint_workspace(&dir, &Config::default()).expect("walk succeeds");
    fs::remove_dir_all(&dir).expect("cleanup");

    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, RuleId::D1);
    assert_eq!(diags[0].path, "crates/core/src/push.rs");
    assert_eq!(diags[0].line, planted_line);
}

/// Fire drill: deleting the `// SAFETY:` comment from the one audited
/// unsafe site (`crates/sim/src/tuning.rs`) makes the pass fail.
#[test]
fn fire_drill_deleting_the_safety_comment_fails_d5() {
    let root = workspace_root();
    let rel = "crates/sim/src/tuning.rs";
    let real = fs::read_to_string(root.join(rel)).expect("read tuning.rs");
    let config = Config::default();

    // As shipped: the audited site passes.
    let diags = lint_source(rel, &real, &config);
    assert!(
        diags.is_empty(),
        "shipped tuning.rs must be clean: {diags:?}"
    );

    // Strip the audit line; the unsafe block is now unaudited.
    let stripped: String = real
        .lines()
        .filter(|l| !l.contains("SAFETY:"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_ne!(stripped, real, "tuning.rs must carry a SAFETY: comment");
    let diags = lint_source(rel, &stripped, &config);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, RuleId::D5);
    assert!(diags[0].message.contains("SAFETY"), "{:?}", diags[0]);
}

/// Fire drill: moving the audited unsafe out of the allowlisted file is
/// also caught — the allowlist pins the site, not just the comment.
#[test]
fn fire_drill_unsafe_outside_the_allowlist_fails_d5() {
    let root = workspace_root();
    let real = fs::read_to_string(root.join("crates/sim/src/tuning.rs")).expect("read tuning.rs");
    let diags = lint_source("crates/sim/src/engine.rs", &real, &Config::default());
    assert!(
        diags.iter().any(|d| d.rule == RuleId::D5),
        "the same code outside the allowlist must fail: {diags:?}"
    );
}
