//! # fba-lint — the workspace determinism lint (`paperlint`)
//!
//! Every guarantee this reproduction ships — bit-identical replays,
//! engine ≡ reference engine, the service seed scheme — rests on
//! conventions the compiler cannot see: no randomized-hasher containers
//! in protocol crates, no wall clock or ad-hoc RNG in deterministic code,
//! parallelism only behind the sanctioned sweep fan-out, one audited
//! `unsafe` site. The equivalence suites *sample* those invariants per
//! seed; this crate *enforces* them on every line, statically.
//!
//! ## The rules
//!
//! | Rule | Invariant | Scope |
//! |------|-----------|-------|
//! | D1 | no std `HashMap`/`HashSet` (SipHash random keys) | deterministic crates; `fba_sim::fxhash` sanctioned |
//! | D2 | no `std::thread`/`Mutex`/`Atomic*` | everywhere; `fba_bench::par` sanctioned |
//! | D3 | no `Instant`/`SystemTime` | everywhere except fba-bench (the timing code) |
//! | D4 | no RNG construction (`from_seed`, `seed_from_u64`, …) | everywhere; `fba_sim::rng` sanctioned |
//! | D5 | `unsafe` only on the audited allowlist, under `// SAFETY:` | everywhere |
//! | D6 | no `env::var` reads | everywhere; `fba_bench::par` (`FBA_THREADS`) sanctioned |
//! | D7 | no `print!`/`eprintln!` in library code | everywhere; binaries sanctioned |
//!
//! The "sanctioned" sites are path prefixes in [`config`], the one
//! exemption mechanism: there is no per-line waiver comment.
//!
//! ## How it works
//!
//! [`lexer`] is a minimal string/char/comment-aware Rust token scanner (in
//! the idiom of fba-bench's mini JSON reader — self-contained, no registry
//! deps). [`rules`] matches token sequences per rule, [`config`] scopes
//! rules per crate with sanctioned-path exemptions, and [`walk`] runs the
//! whole workspace. The `paperlint`
//! binary exits non-zero with `file:line: rule: message` diagnostics.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod lexer;
pub mod rules;
pub mod walk;

pub use config::Config;
pub use rules::{lint_source, Diagnostic, RuleId};
pub use walk::{lint_workspace, workspace_files};
