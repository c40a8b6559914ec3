//! `paperlint` — walk the workspace, enforce the determinism contract.
//!
//! ```text
//! paperlint [--root <path>] [--list-rules]
//! ```
//!
//! Exits 0 when the workspace is clean, 1 with one `file:line: rule:
//! message` diagnostic per line when it is not, and 2 on usage or I/O
//! errors. Run it from the workspace root (CI does) or point `--root` at
//! one.

use std::path::PathBuf;
use std::process::ExitCode;

use fba_lint::{lint_workspace, workspace_files, Config, RuleId};

fn usage() -> ExitCode {
    eprintln!(
        "usage: paperlint [--root <workspace>] [--list-rules]\n\
         \n\
         Statically enforces the workspace determinism contract and exits\n\
         non-zero on any diagnostic. Exemptions are the sanctioned paths of\n\
         `crates/lint/src/config.rs`; there is no per-line waiver."
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut list_rules = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let Some(path) = args.next() else {
                    eprintln!("paperlint: --root needs a path");
                    return usage();
                };
                root = PathBuf::from(path);
            }
            "--list-rules" => list_rules = true,
            other => {
                eprintln!("paperlint: unknown argument `{other}`");
                return usage();
            }
        }
    }

    if list_rules {
        for rule in RuleId::DETERMINISM {
            println!("{rule}  {}", rule.describe());
        }
        return ExitCode::SUCCESS;
    }

    if !root.join("Cargo.toml").exists() {
        eprintln!(
            "paperlint: no Cargo.toml under {} — point --root at the workspace",
            root.display()
        );
        return ExitCode::from(2);
    }

    let config = Config::default();
    let files = match workspace_files(&root) {
        Ok(files) => files,
        Err(err) => {
            eprintln!("paperlint: walking {} failed: {err}", root.display());
            return ExitCode::from(2);
        }
    };
    match lint_workspace(&root, &config) {
        Ok(diags) if diags.is_empty() => {
            eprintln!("paperlint: clean ({} files)", files.len());
            ExitCode::SUCCESS
        }
        Ok(diags) => {
            for d in &diags {
                println!("{d}");
            }
            eprintln!(
                "paperlint: {} diagnostic{} across {} files",
                diags.len(),
                if diags.len() == 1 { "" } else { "s" },
                files.len()
            );
            ExitCode::FAILURE
        }
        Err(err) => {
            eprintln!("paperlint: linting failed: {err}");
            ExitCode::from(2)
        }
    }
}
