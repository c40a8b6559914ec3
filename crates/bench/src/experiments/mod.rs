//! One module per experiment family, and the registry that names them:
//! [`ALL_IDS`], [`run_experiments`] and README's "Experiment index" are
//! all read from one table of `(id, what it reproduces, how it runs)`.
//!
//! Every experiment is a declarative [`crate::battery::Battery`]: its
//! sweep (cell product, seed policy, parallel fan-out, aggregation) and
//! both reporters (Markdown table + JSON cell records) are data declared
//! on the battery — no module hand-rolls cell loops, aggregation, a
//! printer or JSON text. That includes the workload batteries
//! ([`service`], [`crashes`]) and the one host-time battery
//! ([`engine`], id `bench-engine`), whose cells time themselves. Columns
//! that report decision time or communication of an AER run come from
//! the [`crate::metric`] catalogue.

pub mod ablate_d;
pub mod ae_exp;
pub mod common;
pub mod crashes;
pub mod engine;
pub mod fig1a;
pub mod fig1b;
pub mod fig2;
pub mod gauntlet;
pub mod gbits;
pub mod lemmas;
pub mod recovery;
pub mod s41;
pub mod service;
pub mod timing;

use crate::battery::Report;
use crate::scope::Scope;

/// How a registry row produces its table.
enum Run {
    /// The experiment's own battery.
    Own(fn(Scope) -> Report),
    /// Table `k` of [`fig1a::tables`], whose sweep one call runs once.
    Fig1a(usize),
}

/// The registry, in presentation order: the id, the figure, lemma or
/// section of the paper it reproduces (or that it is an extension), and
/// how it runs. README's "Experiment index" says a line more about each.
const REGISTRY: [(&str, &str, Run); 24] = [
    ("f1a-time", "Fig. 1a, row Time", Run::Fig1a(0)),
    ("f1a-bits", "Fig. 1a, row Bits", Run::Fig1a(1)),
    ("f1a-load", "Fig. 1a, row Load-Balanced", Run::Fig1a(2)),
    ("f1b", "Fig. 1b", Run::Own(fig1b::table)),
    ("f2a", "Fig. 2a", Run::Own(fig2::f2a)),
    ("f2b", "Fig. 2b", Run::Own(fig2::f2b)),
    ("l3", "Lemma 3", Run::Own(lemmas::l3)),
    ("l4", "Lemma 4", Run::Own(lemmas::l4)),
    ("l5", "Lemma 5", Run::Own(lemmas::l5)),
    ("l6", "Lemma 6", Run::Own(timing::l6)),
    ("l7", "Lemma 7", Run::Own(lemmas::l7)),
    ("l8", "Lemma 8", Run::Own(timing::l8)),
    ("l9", "Lemma 9", Run::Own(lemmas::l9)),
    ("l10", "Lemma 10", Run::Own(timing::l10)),
    ("s41", "§4.1, Lemmas 1–2", Run::Own(s41::table)),
    ("ae", "§2.1 precondition", Run::Own(ae_exp::table)),
    ("gbits", "§2.1, §3", Run::Own(gbits::table)),
    (
        "gauntlet",
        "extension: fault schedules",
        Run::Own(gauntlet::table),
    ),
    (
        "recovery",
        "extension: attack, then quiet",
        Run::Own(recovery::table),
    ),
    (
        "ablate-cap",
        "Algorithm 3, ablated",
        Run::Own(timing::ablate_cap),
    ),
    (
        "ablate-d",
        "§4.1 d = Θ(log n), ablated",
        Run::Own(ablate_d::table),
    ),
    (
        "service",
        "extension: service mode",
        Run::Own(service::table),
    ),
    (
        "crashes",
        "extension: crash–restart",
        Run::Own(crashes::table),
    ),
    (
        "bench-engine",
        "extension: host time",
        Run::Own(engine::table),
    ),
];

/// All experiment ids, in presentation order.
pub const ALL_IDS: &[&str] = &{
    let mut ids = [""; REGISTRY.len()];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = REGISTRY[i].0;
        i += 1;
    }
    ids
};

/// Runs the experiments `ids` name, in that order, handing each id and
/// its table and JSON cell records to `emit` as soon as they exist. Ids
/// that render one sweep (the three `f1a-*`) run it once per call.
///
/// # Errors
///
/// Returns the list of known ids when one of `ids` is unknown, before
/// anything runs; and stops at the first error `emit` returns.
pub fn run_experiments(
    ids: &[impl AsRef<str>],
    scope: Scope,
    mut emit: impl FnMut(&str, Report) -> Result<(), String>,
) -> Result<(), String> {
    let lookup = |id: &str| {
        REGISTRY.iter().find(|row| row.0 == id).ok_or_else(|| {
            format!(
                "unknown experiment `{id}`; known ids: {}",
                ALL_IDS.join(", ")
            )
        })
    };
    let rows = ids
        .iter()
        .map(|id| lookup(id.as_ref()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut fig1a = None;
    for (id, _, run) in rows {
        let report = match run {
            Run::Own(table) => table(scope),
            Run::Fig1a(k) => fig1a.get_or_insert_with(|| fig1a::tables(scope))[*k].clone(),
        };
        emit(id, report)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_reports_catalogue_before_anything_runs() {
        let emit = |_: &str, _| panic!("nothing may run");
        let err = run_experiments(&["l3", "nope"], Scope::Quick, emit).unwrap_err();
        assert!(err.contains("unknown experiment `nope`"), "{err}");
        for id in ["f1a-time", "l10", "recovery", "bench-engine"] {
            assert!(err.contains(id), "{err}");
        }
    }

    #[test]
    fn shared_sweep_rows_render_the_table_their_id_names() {
        // Asked for out of order, each `f1a-*` id still gets its own table.
        let mut tables = 0;
        run_experiments(
            &["f1a-load", "f1a-time", "f1a-bits"],
            Scope::Quick,
            |id, r| {
                assert!(r.table.title.starts_with(id), "{id}: {}", r.table.title);
                tables += 1;
                Ok(())
            },
        )
        .expect("known ids");
        assert_eq!(tables, 3);
    }

    #[test]
    fn readme_indexes_every_row_of_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(path).expect("README.md");
        for (i, (id, what, _)) in REGISTRY.iter().enumerate() {
            assert!(
                readme.contains(&format!("\n| `{id}` | {what} |")),
                "README's experiment index lacks `{id}`: {what}"
            );
            assert!(!ALL_IDS[..i].contains(id), "`{id}` is registered twice");
        }
    }

    /// Appends `[file, attribute, rule]` for every lint exemption in the
    /// `.rs` files under `dir`: an `expect`/`allow` attribute naming a
    /// `clippy::disallowed_*` lint or `unsafe_code`, written without its
    /// reason, and the rule its `reason = "Dn: …"` names.
    fn collect_exemptions(
        root: &std::path::Path,
        dir: &std::path::Path,
        out: &mut Vec<[String; 3]>,
    ) {
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .expect("readable directory")
            .map(|entry| entry.expect("directory entry").path())
            .collect();
        paths.sort();
        for path in paths {
            if path.is_dir() {
                collect_exemptions(root, &path, out);
                continue;
            }
            if path.extension().is_none_or(|ext| ext != "rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("readable source");
            let file = path.strip_prefix(root).expect("under the root");
            for kind in ["expect(", "allow("] {
                for (at, _) in text.match_indices(kind) {
                    if !(text[..at].ends_with("#[") || text[..at].ends_with("#![")) {
                        continue;
                    }
                    let body = &text[at + kind.len()..];
                    let body = body[..body.find(")]").expect("attribute closes")]
                        .split_whitespace()
                        .collect::<Vec<_>>()
                        .join(" ");
                    let (lints, reason) = body.split_once(", reason = \"").unwrap_or((&body, ""));
                    if lints.contains("clippy::disallowed_") || lints.contains("unsafe_code") {
                        let rule = reason.split(':').next().unwrap_or_default();
                        out.push([
                            file.display().to_string(),
                            format!("{kind}{lints})"),
                            rule.into(),
                        ]);
                    }
                }
            }
        }
    }

    #[test]
    fn readme_lists_every_lint_exemption() {
        let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        let mut found = Vec::new();
        for dir in ["src", "tests", "examples", "crates", "shims"] {
            collect_exemptions(root, &root.join(dir), &mut found);
        }
        let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
        let table = readme
            .split_once("\n| site | attribute | rule | what |\n|---|---|---|---|\n")
            .expect("README's exemption table")
            .1;
        let mut listed: Vec<[String; 3]> = table
            .lines()
            .take_while(|line| line.starts_with('|'))
            .map(|row| {
                let cells: Vec<_> = row.split('|').map(|c| c.trim().replace('`', "")).collect();
                [cells[1].clone(), cells[2].clone(), cells[3].clone()]
            })
            .collect();
        found.sort();
        listed.sort();
        assert_eq!(
            found, listed,
            "README's exemption table is not the workspace's exemptions"
        );
    }
}
