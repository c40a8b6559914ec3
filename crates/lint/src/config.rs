//! The crate → rule-set table: which rule binds which file.
//!
//! Scoping happens at two grains:
//!
//! * **crate filters** — e.g. D1 binds only the deterministic crates
//!   (protocol, samplers, simulator, scenario layer), while D3 binds
//!   everything *except* fba-bench, which is the workspace's timing code;
//! * **sanctioned paths** — per-rule path prefixes where the rule's
//!   subject is the point: `fba_sim::fxhash` implements the sanctioned
//!   hasher (D1), `fba_sim::rng` the sanctioned seed splits (D4),
//!   `fba_bench::par` the sanctioned threads (D2) and its `FBA_THREADS`
//!   read the sanctioned env read (D6).
//!
//! That table is the one exemption mechanism: there are no per-line
//! waivers (the workspace carried none when they were removed), so an
//! exception is an edit to this file, reviewed as one.

use crate::rules::RuleId;

/// Which crates a rule binds.
#[derive(Clone, Debug)]
pub enum CrateFilter {
    /// Every linted crate.
    All,
    /// Only the named crates.
    Only(Vec<&'static str>),
    /// Every crate except the named ones.
    Except(Vec<&'static str>),
}

/// One rule's scope: the crates it binds and the sanctioned path prefixes
/// exempt from it.
#[derive(Clone, Debug)]
pub struct RuleScope {
    /// The rule.
    pub rule: RuleId,
    /// Crates the rule binds.
    pub crates: CrateFilter,
    /// Workspace-relative path prefixes where the rule does not apply.
    pub sanctioned: Vec<&'static str>,
}

/// The lint configuration: rule scopes plus the audited `unsafe` allowlist.
#[derive(Clone, Debug)]
pub struct Config {
    /// Per-rule scoping.
    pub scopes: Vec<RuleScope>,
    /// Files allowed to contain `unsafe` (each site still needs its
    /// `// SAFETY:` comment — D5 checks both).
    pub unsafe_allowlist: Vec<&'static str>,
}

/// The crates whose executions must be pure functions of the seed: the
/// protocol phases, samplers, simulator, baselines and the scenario layer
/// (plus the facade, which only re-exports them).
const DETERMINISTIC_CRATES: [&str; 8] = [
    "fba-core",
    "fba-samplers",
    "fba-sim",
    "fba-ae",
    "fba-baselines",
    "fba-scenario",
    "fba-recovery",
    "fba",
];

impl Default for Config {
    fn default() -> Self {
        let scopes = vec![
            RuleScope {
                rule: RuleId::D1,
                crates: CrateFilter::Only(DETERMINISTIC_CRATES.to_vec()),
                // The FxHash wrapper is the sanctioned replacement itself.
                sanctioned: vec!["crates/sim/src/fxhash.rs"],
            },
            RuleScope {
                rule: RuleId::D2,
                crates: CrateFilter::All,
                // The one sanctioned parallel executor: the sweep fan-out.
                sanctioned: vec!["crates/bench/src/par.rs"],
            },
            RuleScope {
                rule: RuleId::D3,
                // fba-bench *is* the timing code.
                crates: CrateFilter::Except(vec!["fba-bench"]),
                sanctioned: vec![],
            },
            RuleScope {
                rule: RuleId::D4,
                crates: CrateFilter::All,
                // The seed-split helpers: the one place RNGs are built.
                sanctioned: vec!["crates/sim/src/rng.rs"],
            },
            RuleScope {
                rule: RuleId::D5,
                crates: CrateFilter::All,
                sanctioned: vec![],
            },
            RuleScope {
                rule: RuleId::D6,
                crates: CrateFilter::All,
                // The sweep worker count (FBA_THREADS); UPDATE_GOLDEN lives
                // in a test target, which the walker does not lint.
                sanctioned: vec!["crates/bench/src/par.rs"],
            },
            RuleScope {
                rule: RuleId::D7,
                crates: CrateFilter::All,
                // Binaries own their stdout.
                sanctioned: vec!["crates/bench/src/bin/", "crates/lint/src/bin/"],
            },
        ];
        Config {
            scopes,
            unsafe_allowlist: vec!["crates/sim/src/tuning.rs"],
        }
    }
}

impl Config {
    /// Whether `rule` binds the file at workspace-relative `path`.
    #[must_use]
    pub fn applies(&self, rule: RuleId, path: &str) -> bool {
        let Some(scope) = self.scopes.iter().find(|s| s.rule == rule) else {
            return false;
        };
        let Some(krate) = crate_of(path) else {
            return false;
        };
        let in_crate = match &scope.crates {
            CrateFilter::All => true,
            CrateFilter::Only(list) => list.contains(&krate.as_str()),
            CrateFilter::Except(list) => !list.contains(&krate.as_str()),
        };
        in_crate && !scope.sanctioned.iter().any(|p| path.starts_with(p))
    }

    /// Whether `path` is on the audited `unsafe` allowlist (D5).
    #[must_use]
    pub fn unsafe_allowed(&self, path: &str) -> bool {
        self.unsafe_allowlist.iter().any(|p| path.starts_with(p))
    }
}

/// Maps a workspace-relative path to its crate name: `crates/<x>/src/…` →
/// `fba-<x>`, `src/…` → `fba` (the facade). Paths outside a linted source
/// tree (tests, benches, examples, shims) map to `None`.
#[must_use]
pub fn crate_of(path: &str) -> Option<String> {
    if let Some(rest) = path.strip_prefix("crates/") {
        let (name, tail) = rest.split_once('/')?;
        if tail.starts_with("src/") {
            return Some(format!("fba-{name}"));
        }
        return None;
    }
    if path.starts_with("src/") {
        return Some("fba".to_owned());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_of_maps_source_trees_only() {
        assert_eq!(
            crate_of("crates/core/src/push.rs").as_deref(),
            Some("fba-core")
        );
        assert_eq!(crate_of("src/lib.rs").as_deref(), Some("fba"));
        assert_eq!(crate_of("crates/core/tests/x.rs"), None);
        assert_eq!(crate_of("tests/properties.rs"), None);
        assert_eq!(crate_of("shims/rand/src/lib.rs"), None);
    }

    #[test]
    fn d1_binds_deterministic_crates_but_not_bench() {
        let c = Config::default();
        assert!(c.applies(RuleId::D1, "crates/core/src/push.rs"));
        assert!(c.applies(RuleId::D1, "crates/scenario/src/lib.rs"));
        assert!(!c.applies(RuleId::D1, "crates/bench/src/battery.rs"));
        assert!(
            !c.applies(RuleId::D1, "crates/sim/src/fxhash.rs"),
            "sanctioned"
        );
    }

    #[test]
    fn d3_exempts_bench_wholesale() {
        let c = Config::default();
        assert!(!c.applies(RuleId::D3, "crates/bench/src/battery.rs"));
        assert!(c.applies(RuleId::D3, "crates/sim/src/engine.rs"));
    }

    #[test]
    fn d2_and_d6_sanction_only_the_sweep_fan_out() {
        let c = Config::default();
        for rule in [RuleId::D2, RuleId::D6] {
            assert!(!c.applies(rule, "crates/bench/src/par.rs"));
            assert!(c.applies(rule, "crates/bench/src/battery.rs"));
            assert!(c.applies(rule, "crates/scenario/src/lib.rs"));
            assert!(c.applies(rule, "crates/sim/src/engine.rs"));
        }
    }

    #[test]
    fn unsafe_allowlist_is_exact() {
        let c = Config::default();
        assert!(c.unsafe_allowed("crates/sim/src/tuning.rs"));
        assert!(!c.unsafe_allowed("crates/sim/src/engine.rs"));
    }
}
