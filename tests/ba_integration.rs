//! End-to-end Byzantine Agreement integration tests: the committee-tree
//! almost-everywhere phase composed with AER, under fault injection and
//! at the resilience boundary — all runs constructed through the
//! [`Scenario`] builder.

use fba::samplers::GString;
use fba::scenario::{Phase, Scenario};
use fba::sim::{AdversarySpec, NetworkSpec};

#[test]
fn ba_succeeds_fault_free_across_sizes() {
    for n in [32, 64, 128] {
        let run = Scenario::new(n)
            .phase(Phase::Composed)
            .run(3)
            .expect("valid scenario")
            .into_composed();
        assert!(run.report.success(), "n={n}: {:?}", run.report);
        assert_eq!(run.report.agreed.as_ref(), Some(&run.ae.outcome.gstring));
        assert!(run.report.knowing_fraction_after_ae > 0.9, "n={n}");
    }
}

#[test]
fn ba_phase_rounds_are_polylogarithmic() {
    let rounds = |n: usize| {
        let run = Scenario::new(n)
            .phase(Phase::Composed)
            .run(5)
            .expect("valid scenario")
            .into_composed();
        run.report.ae_rounds + run.report.aer_rounds.unwrap_or(0)
    };
    let small = rounds(32);
    let large = rounds(256);
    // ×8 nodes: rounds grow additively (tree depth), not multiplicatively.
    assert!(
        large < small + 16,
        "rounds should grow logarithmically: {small} -> {large}"
    );
}

#[test]
fn ba_tolerates_silent_faults_through_both_phases() {
    let n = 128;
    for seed in [7u64, 8] {
        let run = Scenario::new(n)
            .phase(Phase::Composed)
            .faults(n / 8)
            .ae_adversary(AdversarySpec::Silent { t: None })
            .adversary(AdversarySpec::Silent { t: None })
            .run(seed)
            .expect("valid scenario")
            .into_composed();
        assert!(run.report.agreed.is_some(), "seed {seed}: disagreement");
        assert!(run.report.matches_ae_majority, "seed {seed}");
        assert!(
            run.aer.run.metrics.decided_fraction() > 0.95,
            "seed {seed}: too many undecided"
        );
    }
}

#[test]
fn ba_resists_combined_ae_faults_and_aer_campaign() {
    let n = 96;
    let zero = GString::zeroes(fba::core::AerConfig::recommended(n).string_len);
    let run = Scenario::new(n)
        .phase(Phase::Composed)
        .faults(n / 10)
        .ae_adversary(AdversarySpec::Silent { t: None })
        .adversary(AdversarySpec::BadString)
        .bad_string(zero)
        .run(11)
        .expect("valid scenario")
        .into_composed();
    let zero = GString::zeroes(run.ae.outcome.gstring.len_bits());
    for (id, v) in &run.aer.run.outputs {
        assert_ne!(v, &zero, "node {id} fell for the campaign");
    }
    assert!(run.report.knowing_fraction_after_ae > 0.75);
}

#[test]
fn ba_runs_with_async_aer_phase_and_cornering() {
    let n = 96;
    let run = Scenario::new(n)
        .phase(Phase::Composed)
        .network(NetworkSpec::Async { max_delay: 1 })
        .adversary(AdversarySpec::Corner { label_scan: 128 })
        .run(13)
        .expect("valid scenario")
        .into_composed();
    for v in run.aer.run.outputs.values() {
        assert_eq!(
            v, &run.ae.outcome.gstring,
            "cornering must only delay, never corrupt"
        );
    }
    assert!(run.report.decided_nodes as f64 >= 0.9 * run.report.correct_nodes as f64);
}

#[test]
fn ba_survives_crash_windows_in_its_aer_half() {
    // The crash plan drives the AER half (windows count from its step 0):
    // victims go dark, restart from their checkpoints and still decide.
    let run = Scenario::new(64)
        .phase(Phase::Composed)
        .faults_spec("crash:[2..6]4".parse().expect("parses"))
        .run(3)
        .expect("valid scenario")
        .into_composed();
    assert!(run.report.success(), "{:?}", run.report);
    let rejoin = run.aer.rejoin().expect("crash plan ran");
    assert!(rejoin.all_rejoined(), "{rejoin:?}");
    assert!(
        run.aer.run.metrics.msgs_dropped() > 0,
        "the window was dark"
    );
}

#[test]
fn ae_phase_alone_meets_its_contract_under_faults() {
    for n in [64, 128, 256] {
        let run = Scenario::new(n)
            .phase(Phase::Ae)
            .faults(n / 8)
            .adversary(AdversarySpec::Silent { t: None })
            .run(18)
            .expect("valid scenario")
            .into_ae();
        let out = &run.outcome;
        assert!(
            out.knowing_fraction > 0.75,
            "n={n}: contract violated ({:.2})",
            out.knowing_fraction
        );
        assert_eq!(out.gstring.len_bits(), run.config.string_len);
        // The precondition conversion round-trips.
        let pre = out.to_precondition(n, run.config.string_len);
        assert!(pre.satisfies_assumption(&out.run.corrupt, 1.0 / 12.0));
    }
}

#[test]
fn ba_gstring_varies_across_runs() {
    // The agreed value carries the committee's randomness: different
    // seeds must give different strings (probability of collision is
    // 2^-len).
    let composed = Scenario::new(64).phase(Phase::Composed);
    let r1 = composed.run(100).expect("valid scenario").into_composed();
    let r2 = composed.run(101).expect("valid scenario").into_composed();
    assert_ne!(r1.report.agreed, r2.report.agreed);
}
