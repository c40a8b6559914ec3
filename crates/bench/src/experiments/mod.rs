//! One module per experiment family; see DESIGN.md §5 for the index
//! mapping every table/figure of the paper to these functions.
//!
//! Every experiment is a declarative [`crate::battery::Battery`]: its
//! sweep (cell product, seed policy, parallel fan-out, aggregation) and
//! both reporters (Markdown table + JSON cell records) are data declared
//! on the battery — no module hand-rolls cell loops, aggregation, a
//! printer or JSON text. That includes the workload batteries
//! ([`service`], [`crashes`]) and the one host-time battery
//! ([`engine`], id `bench-engine`), whose cells time themselves.

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

/// All experiment ids, in presentation order.
pub const ALL_IDS: &[&str] = &[
    "f1a-time",
    "f1a-bits",
    "f1a-load",
    "f1b",
    "f2a",
    "f2b",
    "l3",
    "l4",
    "l5",
    "l6",
    "l7",
    "l8",
    "l9",
    "l10",
    "s41",
    "ae",
    "gbits",
    "gauntlet",
    "recovery",
    "ablate-cap",
    "ablate-d",
    "service",
    "crashes",
    "bench-engine",
];

/// Runs one experiment by id, producing its table and JSON cell records.
///
/// # Errors
///
/// Returns the list of known ids when `id` is unknown.
pub fn run_experiment(id: &str, scope: Scope) -> Result<Report, String> {
    Ok(match id {
        "f1a-time" => fig1a::time(scope),
        "f1a-bits" => fig1a::bits(scope),
        "f1a-load" => fig1a::load(scope),
        "f1b" => fig1b::table(scope),
        "f2a" => fig2::f2a(scope),
        "f2b" => fig2::f2b(scope),
        "l3" => lemmas::l3(scope),
        "l4" => lemmas::l4(scope),
        "l5" => lemmas::l5(scope),
        "l6" => timing::l6(scope),
        "l7" => lemmas::l7(scope),
        "l8" => timing::l8(scope),
        "l9" => lemmas::l9(scope),
        "l10" => timing::l10(scope),
        "s41" => s41::table(scope),
        "ablate-cap" => timing::ablate_cap(scope),
        "ablate-d" => ablate_d::table(scope),
        "gauntlet" => gauntlet::table(scope),
        "recovery" => recovery::table(scope),
        "gbits" => gbits::table(scope),
        "ae" => ae_exp::table(scope),
        "service" => service::table(scope),
        "crashes" => crashes::table(scope),
        "bench-engine" => engine::table(scope),
        other => {
            return Err(format!(
                "unknown experiment `{other}`; known ids: {}",
                ALL_IDS.join(", ")
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_reports_catalogue() {
        let err = run_experiment("nope", Scope::Quick).unwrap_err();
        assert!(err.contains("f1a-time"));
        assert!(err.contains("l10"));
        assert!(err.contains("recovery"));
        assert!(err.contains("bench-engine"));
    }
}
