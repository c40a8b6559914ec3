//! The determinism rules and the per-file check engine.
//!
//! Every rule matches on the token stream from [`crate::lexer`] — comments,
//! strings and `#[cfg(test)]` modules are already out of the picture — and
//! reports at most one diagnostic per `(line, rule)`.

use std::fmt;

use crate::config::Config;
use crate::lexer::{cfg_test_mask, lex, Lexed, Token, TokenKind};

/// A lint rule identifier: the `D*` rules are the determinism contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // the variants are documented by `describe`
pub enum RuleId {
    D1,
    D2,
    D3,
    D4,
    D5,
    D6,
    D7,
}

impl RuleId {
    /// All determinism rules, in order.
    pub const DETERMINISM: [RuleId; 7] = [
        RuleId::D1,
        RuleId::D2,
        RuleId::D3,
        RuleId::D4,
        RuleId::D5,
        RuleId::D6,
        RuleId::D7,
    ];

    /// The rule's short name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::D1 => "D1",
            RuleId::D2 => "D2",
            RuleId::D3 => "D3",
            RuleId::D4 => "D4",
            RuleId::D5 => "D5",
            RuleId::D6 => "D6",
            RuleId::D7 => "D7",
        }
    }

    /// One-line statement of the invariant the rule enforces.
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            RuleId::D1 => {
                "no std HashMap/HashSet in deterministic crates (SipHash random keys); \
                 use fba_sim::fxhash or BTreeMap"
            }
            RuleId::D2 => {
                "no thread/lock/atomic primitives outside the sanctioned sweep \
                 fan-out (fba-bench::par)"
            }
            RuleId::D3 => "no wall-clock reads (Instant/SystemTime) outside bench timing code",
            RuleId::D4 => {
                "no ad-hoc RNG construction; all streams derive from fba_sim::rng's \
                 seed-split helpers"
            }
            RuleId::D5 => {
                "every unsafe block sits in the audited allowlist under a // SAFETY: comment"
            }
            RuleId::D6 => {
                "no environment reads outside the sanctioned config sites \
                 (FBA_THREADS in fba-bench::par, UPDATE_GOLDEN)"
            }
            RuleId::D7 => {
                "no print!/eprintln! in library crates; output goes through observers/reporters"
            }
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One `file:line:rule` finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path (unix separators).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// The rule that fired.
    pub rule: RuleId,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Lints one file's source text under `config`. `rel_path` decides crate
/// scoping (e.g. `crates/core/src/push.rs` → `fba-core`); callers pass
/// real or synthetic paths — fixture tests use the latter.
#[must_use]
pub fn lint_source(rel_path: &str, source: &str, config: &Config) -> Vec<Diagnostic> {
    let lexed = lex(source);
    let mask = cfg_test_mask(&lexed.tokens);
    let mut raw: Vec<Diagnostic> = Vec::new();
    for rule in RuleId::DETERMINISM {
        if !config.applies(rule, rel_path) {
            continue;
        }
        check_rule(rule, rel_path, &lexed, &mask, config, &mut raw);
    }
    // One diagnostic per (line, rule), not one per matching token.
    raw.sort_by_key(|d| (d.line, d.rule));
    raw.dedup_by_key(|d| (d.line, d.rule));
    raw
}

/// Live (non-test-masked) tokens with their stream index.
fn live<'a>(lexed: &'a Lexed, mask: &'a [bool]) -> impl Iterator<Item = (usize, &'a Token)> + 'a {
    lexed
        .tokens
        .iter()
        .enumerate()
        .filter(move |(i, _)| !mask[*i])
}

/// Whether the token at stream index `i` is the identifier `want` and the
/// two tokens before it spell `prefix ::`.
fn path_prefixed(tokens: &[Token], i: usize, prefix: &str, want: &str) -> bool {
    tokens[i].kind == TokenKind::Ident
        && tokens[i].text == want
        && i >= 2
        && tokens[i - 1].text == "::"
        && tokens[i - 2].text == prefix
}

fn check_rule(
    rule: RuleId,
    path: &str,
    lexed: &Lexed,
    mask: &[bool],
    config: &Config,
    out: &mut Vec<Diagnostic>,
) {
    let mut emit = |line: u32, message: String| {
        out.push(Diagnostic {
            path: path.to_owned(),
            line,
            rule,
            message,
        });
    };
    match rule {
        RuleId::D1 => {
            for (_, t) in live(lexed, mask) {
                if t.kind == TokenKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
                    emit(
                        t.line,
                        format!(
                            "`{}` in a deterministic crate: SipHash's random keys make \
                             iteration order a run-to-run variable; use \
                             `fba_sim::fxhash::Fx{}` or an ordered map",
                            t.text, t.text
                        ),
                    );
                }
            }
        }
        RuleId::D2 => {
            let toks = &lexed.tokens;
            for (i, t) in live(lexed, mask) {
                let hit = match t.kind {
                    TokenKind::Ident => {
                        t.text == "Mutex"
                            || t.text == "RwLock"
                            || t.text == "Condvar"
                            || t.text == "mpsc"
                            || t.text.starts_with("Atomic")
                            || path_prefixed(toks, i, "std", "thread")
                    }
                    _ => false,
                };
                if hit {
                    emit(
                        t.line,
                        format!(
                            "`{}`: shared-state parallelism belongs behind \
                             `fba_bench::par`; protocol code must stay \
                             single-threaded-deterministic",
                            t.text
                        ),
                    );
                }
            }
        }
        RuleId::D3 => {
            for (_, t) in live(lexed, mask) {
                if t.kind == TokenKind::Ident && (t.text == "Instant" || t.text == "SystemTime") {
                    emit(
                        t.line,
                        format!(
                            "`{}` reads the wall clock: deterministic code measures \
                             nothing but simulated steps; timing lives in fba-bench",
                            t.text
                        ),
                    );
                }
            }
        }
        RuleId::D4 => {
            const CONSTRUCTORS: [&str; 5] = [
                "from_seed",
                "seed_from_u64",
                "from_entropy",
                "thread_rng",
                "OsRng",
            ];
            for (_, t) in live(lexed, mask) {
                if t.kind == TokenKind::Ident && CONSTRUCTORS.contains(&t.text.as_str()) {
                    emit(
                        t.line,
                        format!(
                            "`{}` constructs an RNG outside `fba_sim::rng`: every stream \
                             must derive from the master seed via the sanctioned \
                             seed-split helpers (mix/derive/instance_seed)",
                            t.text
                        ),
                    );
                }
            }
        }
        RuleId::D5 => {
            let allowed = config.unsafe_allowed(path);
            for (_, t) in live(lexed, mask) {
                if t.kind != TokenKind::Ident || t.text != "unsafe" {
                    continue;
                }
                if !allowed {
                    emit(
                        t.line,
                        "`unsafe` outside the audited allowlist; the workspace carries \
                         exactly the sites named in fba-lint's config"
                            .to_owned(),
                    );
                } else if !has_safety_comment(lexed, t.line) {
                    emit(
                        t.line,
                        "allowlisted `unsafe` without a `// SAFETY:` comment on the \
                         preceding lines"
                            .to_owned(),
                    );
                }
            }
        }
        RuleId::D6 => {
            const READS: [&str; 4] = ["var", "var_os", "set_var", "remove_var"];
            let toks = &lexed.tokens;
            for (i, t) in live(lexed, mask) {
                if t.kind == TokenKind::Ident
                    && READS.contains(&t.text.as_str())
                    && path_prefixed(toks, i, "env", &t.text.clone())
                {
                    emit(
                        t.line,
                        format!(
                            "`env::{}` outside the sanctioned config sites: ambient \
                             environment must not steer deterministic code",
                            t.text
                        ),
                    );
                }
            }
        }
        RuleId::D7 => {
            const MACROS: [&str; 4] = ["print", "println", "eprint", "eprintln"];
            let toks = &lexed.tokens;
            for (i, t) in live(lexed, mask) {
                if t.kind == TokenKind::Ident
                    && MACROS.contains(&t.text.as_str())
                    && toks.get(i + 1).is_some_and(|n| n.text == "!")
                {
                    emit(
                        t.line,
                        format!(
                            "`{}!` in library code: results flow through observers and \
                             reporters, not stdout side effects",
                            t.text
                        ),
                    );
                }
            }
        }
    }
}

/// Whether a comment mentioning `SAFETY:` ends within the six lines
/// preceding (or on) `line` — the audit trail an allowlisted `unsafe`
/// must carry.
fn has_safety_comment(lexed: &Lexed, line: u32) -> bool {
    lexed
        .comments
        .iter()
        .any(|c| c.text.contains("SAFETY:") && c.end_line <= line && c.end_line + 6 >= line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;

    fn lint_core(src: &str) -> Vec<Diagnostic> {
        lint_source("crates/core/src/x.rs", src, &Config::default())
    }

    #[test]
    fn one_diagnostic_per_line_and_rule() {
        let diags = lint_core("use std::collections::{HashMap, HashSet};\n");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RuleId::D1);
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn display_is_file_line_rule() {
        let diags = lint_core("use std::time::Instant;\n");
        assert_eq!(diags.len(), 1);
        let rendered = diags[0].to_string();
        assert!(
            rendered.starts_with("crates/core/src/x.rs:1: D3: "),
            "{rendered}"
        );
    }

    #[test]
    fn hash_map_entry_path_is_not_a_hit() {
        // `std::collections::hash_map::Entry` names the module, not the
        // randomized-hasher container.
        let diags = lint_core("use std::collections::hash_map::Entry;\n");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn thread_as_plain_identifier_is_not_a_hit() {
        let diags = lint_core("fn f(thread: usize) -> usize { thread + 1 }\n");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn print_ident_without_bang_is_not_a_hit() {
        let diags = lint_core("fn print(x: usize) {} fn f() { print(1); }\n");
        assert!(diags.is_empty(), "{diags:?}");
    }
}
