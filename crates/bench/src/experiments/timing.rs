//! Timing experiments: the Lemma 6 / Lemma 8 / Lemma 10 round-complexity
//! claims, plus the overload-cap ablation that shows why Algorithm 3's
//! valve is `log² n` and not smaller — each a declarative battery.

use fba_ae::UnknowingAssignment;
use fba_core::trace::WaveCounter;
use fba_core::AerConfig;
use fba_scenario::PollTimeoutSpec;
use fba_sim::{AdversarySpec, NetworkSpec};

use crate::battery::{product2, Agg, Battery, Report};
use crate::experiments::common::{aer_scenario, loglog_ratio, summarize, KNOWING};
use crate::metric::AerSummary;
use crate::scope::Scope;
use crate::table::fnum;

/// Lemma 6 / Lemma 10: asynchronous (rushing) completion time under the
/// cornering attack, for caps at and above the normal service load.
///
/// Strict mode (no retries) so the deferral chains are not masked. The
/// per-node answering load in a fault-free run is ≈ `d` (every node's
/// gstring pull polls `d` of `n` nodes), so the interesting cap range is
/// `[~1.5·d, log² n]`: caps *below* `d` break the protocol outright (see
/// [`ablate_cap`]), and at `log² n` the attack needs `t·d / log² n ≫ d`
/// — i.e. very large `n` — to block anyone.
#[must_use]
pub fn l6(scope: Scope) -> Report {
    /// A run's summary next to what the cornering plan reported.
    struct Cell {
        run: AerSummary,
        planned_depth: f64,
        overload_targets: f64,
    }
    // The (n, cap) grid: both named caps per system size.
    let points: Vec<(usize, &str, u64)> = scope
        .aer_sizes()
        .into_iter()
        .flat_map(|n| {
            let paper = AerConfig::recommended(n);
            let d = paper.d as u64;
            [(n, "1.5d", d + d / 2), (n, "log²n", paper.overload_cap)]
        })
        .collect();
    Battery::new(
        "l6",
        "l6 — Lemma 6: async rushing time under the cornering attack (strict mode)",
        |&(n, _, cap): &(usize, &str, u64), seed| {
            let out = aer_scenario(n, KNOWING, UnknowingAssignment::RandomPerNode)
                .overload_cap(cap)
                .strict()
                .network(NetworkSpec::Async { max_delay: 1 })
                // Derive the poll timeout from the delay bound so the sweep
                // stays wave-free if the delay is ever raised (a no-op at
                // max_delay = 1; strict mode has no retries anyway).
                .poll_timeout(PollTimeoutSpec::DelayScaled)
                .adversary(AdversarySpec::Corner { label_scan: 512 })
                .run(seed)
                .expect("l6 scenario")
                .into_aer();
            let report = out.corner.as_ref().expect("corner adversary reports");
            Cell {
                run: AerSummary::of(&out),
                planned_depth: report.planned_depth as f64,
                overload_targets: report.overload_targets as f64,
            }
        },
    )
    .axes(&["n", "cap"], |&(n, cap_name, _)| {
        vec![n.to_string(), cap_name.to_string()]
    })
    .points(points)
    .point_n(|&(n, _, _)| n)
    .metrics(&["decided", "rounds", "rounds-p75"], |o: &Cell| o.run)
    .col("chain depth planned", Agg::Mean, |o: &Cell| {
        Some(o.planned_depth)
    })
    .col("overload targets", Agg::Mean, |o: &Cell| {
        Some(o.overload_targets)
    })
    .col_point("ref logn/loglogn", |&(n, _, _)| fnum(loglog_ratio(n)))
    .note("paper: answers within O(log n / log log n) async steps. The attack budget is")
    .note("t·d/cap node-overloads; at log²n caps it only bites for n far beyond simulation,")
    .note("so the 1.5d rows are where the deferral chains (and the depth column) show.")
    .note("Strict mode strands the θ-fraction of unlucky quorums (hence decided% < 100).")
    .report(scope)
}

/// Ablation: the overload cap must exceed the normal per-node answering
/// load (≈ `d`). Caps below it make honest traffic trip the valve and the
/// wait-until-decided rule turns into circular waiting.
#[must_use]
pub fn ablate_cap(scope: Scope) -> Report {
    let n = match scope {
        Scope::Quick => 64,
        _ => 256,
    };
    let paper = AerConfig::recommended(n);
    let d = paper.d as u64;
    let caps: Vec<(&str, u64)> = vec![
        ("d/2 (below load)", d / 2),
        ("d (at load)", d),
        ("1.5d", d + d / 2),
        ("log²n (paper)", paper.overload_cap),
    ];
    Battery::new(
        "ablate-cap",
        "ablate-cap — why Algorithm 3's valve is log²n: decided fraction vs cap",
        move |&(_, cap): &(&str, u64), seed| {
            let scenario = aer_scenario(n, KNOWING, UnknowingAssignment::RandomPerNode)
                .overload_cap(cap.max(1))
                .strict()
                .network(NetworkSpec::Async { max_delay: 1 })
                .adversary(AdversarySpec::Corner { label_scan: 256 });
            summarize(&scenario, seed)
        },
    )
    .axes(&["cap"], |&(name, _)| vec![name.to_string()])
    .points(caps)
    .col_point("cap value", |&(_, cap)| cap.to_string())
    .metrics(&["decided", "rounds"], |o| *o)
    .note(format!(
        "n = {n}, d = {d}, strict mode, cornering adversary. The normal answering load is"
    ))
    .note("≈ d per node; caps below it deadlock the wait-until-decided rule (decided %")
    .note("collapses), which is exactly why the paper's filter triggers only at log²n.")
    .report(scope)
}

/// Lemma 8: synchronous non-rushing completion time is constant.
#[must_use]
pub fn l8(scope: Scope) -> Report {
    Battery::new(
        "l8",
        "l8 — Lemma 8: sync non-rushing completion time (strict mode)",
        |&n: &usize, seed| {
            let scenario = aer_scenario(n, KNOWING, UnknowingAssignment::RandomPerNode)
                .strict()
                .adversary(AdversarySpec::Silent { t: None });
            summarize(&scenario, seed)
        },
    )
    .axes(&["n"], |n| vec![n.to_string()])
    .points(scope.aer_sizes())
    .point_n(|&n| n)
    .metrics(&["decided", "rounds", "rounds-p75"], |o| *o)
    .note("paper: any polling request is answered in O(1) steps against a non-rushing")
    .note("adversary — the p50/p75 columns must not grow with n. decided% < 100 is the")
    .note("strict-mode θ-fraction; l9/l10 run the same protocol with the liveness")
    .note("extensions and decide everywhere.")
    .report(scope)
}

/// Lemma 10 variant with repairs enabled: the full asynchronous
/// guarantee, everyone decides.
///
/// The sweep runs the delay bounds `d ∈ {1, 4}` with the delay-scaled
/// poll timeout (`sync_poll_horizon × max_delay`), so requesters wait
/// one *asynchronous* delivery horizon before retrying. The two legacy
/// columns re-run each cell with the pre-satellite constant timeout for
/// paper comparability — at `d > 1` the constant schedule fires retry
/// waves into traffic that is merely delayed, not lost.
#[must_use]
pub fn l10(scope: Scope) -> Report {
    /// The delay-scaled run next to the constant-timeout rerun.
    struct Cell {
        scaled: AerSummary,
        scaled_waves: f64,
        legacy: AerSummary,
        legacy_waves: f64,
    }
    const DELAYS: [u64; 2] = [1, 4];
    Battery::new(
        "l10",
        "l10 — Lemma 10: async end-to-end with liveness extensions on",
        |&(n, delay): &(usize, u64), seed| {
            let run = |timeout: PollTimeoutSpec| {
                let mut waves = WaveCounter::default();
                let out = aer_scenario(n, KNOWING, UnknowingAssignment::RandomPerNode)
                    .network(NetworkSpec::Async { max_delay: delay })
                    .poll_timeout(timeout)
                    .adversary(AdversarySpec::Corner { label_scan: 512 })
                    .run_observed(seed, &mut waves)
                    .expect("l10 scenario")
                    .into_aer();
                (AerSummary::of(&out), waves.waves as f64)
            };
            let (scaled, scaled_waves) = run(PollTimeoutSpec::DelayScaled);
            let (legacy, legacy_waves) = run(PollTimeoutSpec::Config);
            Cell {
                scaled,
                scaled_waves,
                legacy,
                legacy_waves,
            }
        },
    )
    .axes(&["n", "delay"], |&(n, delay)| {
        vec![n.to_string(), delay.to_string()]
    })
    .points(product2(&scope.aer_sizes(), &DELAYS))
    .point_n(|&(n, _)| n)
    .metrics(&["decided", "rounds", "rounds-max"], |o: &Cell| o.scaled)
    .col("poll waves", Agg::Mean, |o: &Cell| Some(o.scaled_waves))
    .col("legacy waves", Agg::Mean, |o: &Cell| Some(o.legacy_waves))
    .col("legacy p50", Agg::Mean, |o: &Cell| o.legacy.p50)
    .note("paper: O(log n / log log n) rounds, Õ(n) messages, every correct node learns")
    .note(
        "gstring. Retries/repair (README \"Deviations from the paper\") close the finite-size gap.",
    )
    .note("Main columns use the delay-scaled poll timeout (horizon × max_delay); the")
    .note("legacy columns rerun the constant-timeout schedule — at delay 4 it emits")
    .note("redundant retry waves into traffic that is delayed, not lost. A `n/a`")
    .note("legacy p50 means fewer than half the correct nodes decided at all under")
    .note("the legacy schedule (every poll times out before its answers arrive).")
    .report(scope)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l8_rounds_stay_constant() {
        let t = l8(Scope::Quick).table;
        let first: f64 = t.rows.first().unwrap()[2].parse().unwrap();
        let last: f64 = t.rows.last().unwrap()[2].parse().unwrap();
        assert!(
            last <= first + 4.0,
            "sync non-rushing p50 should not grow: {first} → {last}"
        );
    }

    #[test]
    fn l10_decides_everywhere() {
        let t = l10(Scope::Quick).table;
        for row in &t.rows {
            let decided: f64 = row[2].parse().unwrap();
            assert!(decided > 99.0, "row {row:?}");
        }
    }

    #[test]
    fn l10_delay_scaled_timeout_cuts_retry_waves() {
        let t = l10(Scope::Quick).table;
        // At delay > 1 the scaled schedule must not wave more than the
        // legacy constant-timeout schedule (strictly fewer at some size).
        let mut strictly_fewer = false;
        for row in t.rows.iter().filter(|r| r[1] != "1") {
            let waves: f64 = row[5].parse().unwrap();
            let legacy: f64 = row[6].parse().unwrap();
            assert!(waves <= legacy, "scaled waves exceed legacy: {row:?}");
            strictly_fewer |= waves < legacy;
        }
        assert!(
            strictly_fewer,
            "delay-scaled timeout never reduced waves: {:?}",
            t.rows
        );
    }

    #[test]
    fn ablation_shows_the_collapse_below_load() {
        let t = ablate_cap(Scope::Quick).table;
        let below: f64 = t.rows[0][2].parse().unwrap();
        let paper: f64 = t.rows[3][2].parse().unwrap();
        assert!(
            paper > below + 20.0,
            "the paper cap must decisively beat the below-load cap: {below} vs {paper}"
        );
    }
}
