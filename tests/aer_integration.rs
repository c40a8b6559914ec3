//! Cross-crate integration tests for AER: agreement, validity,
//! reproducibility and resilience across system sizes, engines and the
//! full adversary suite — all runs constructed through the [`Scenario`]
//! builder.

use fba::ae::UnknowingAssignment;
use fba::core::trace::WaveCounter;
use fba::core::{AerHarness, AerNode};
use fba::scenario::{Phase, PollTimeoutSpec, Scenario};
use fba::sim::{AdversarySpec, FinalInspect, NetworkSpec, NoAdversary, NodeId};

fn scenario(n: usize, knowing: f64, mode: UnknowingAssignment) -> Scenario {
    Scenario::new(n).phase(Phase::aer_with(knowing, mode))
}

#[test]
fn aer_agrees_across_sizes_fault_free() {
    for n in [32, 64, 128, 256] {
        let out = scenario(n, 0.8, UnknowingAssignment::RandomPerNode)
            .run(1)
            .expect("valid scenario")
            .into_aer();
        assert!(out.run.all_decided(), "n={n}: someone never decided");
        assert_eq!(out.run.unanimous(), Some(out.gstring()), "n={n}");
        assert!(out.run.quiescent, "n={n}: network did not quiesce");
    }
}

#[test]
fn aer_survives_each_adversary_without_wrong_decisions() {
    let n = 96;
    // The attack suite as data: spec + timing model per row.
    let suite: [(AdversarySpec, NetworkSpec); 6] = [
        (AdversarySpec::Silent { t: None }, NetworkSpec::Sync),
        (
            AdversarySpec::RandomFlood { rate: 8, steps: 3 },
            NetworkSpec::Sync,
        ),
        (AdversarySpec::PushFlood, NetworkSpec::Sync),
        (AdversarySpec::Equivocate { strings: 6 }, NetworkSpec::Sync),
        (AdversarySpec::BadString, NetworkSpec::Sync),
        (
            AdversarySpec::Corner { label_scan: 128 },
            NetworkSpec::Async { max_delay: 1 },
        ),
    ];
    for seed in [3u64, 5, 6] {
        for (spec, network) in &suite {
            let out = scenario(n, 0.8, UnknowingAssignment::SharedAdversarial)
                .adversary(spec.clone())
                .network(*network)
                .run(seed)
                .expect("valid scenario")
                .into_aer();
            assert_eq!(
                out.wrong_decisions(),
                0,
                "seed {seed}, adversary {spec}: wrong decision"
            );
            let t = out.config.t;
            assert!(
                out.run.outputs.len() as f64 >= 0.9 * (n - t) as f64,
                "seed {seed}, adversary {spec}: only {}/{} decided",
                out.run.outputs.len(),
                n - t
            );
        }
    }
}

#[test]
fn scale_aware_schedule_preserves_small_n_outcomes() {
    // The scale-aware retry schedule (horizon-derived poll timeout +
    // eager repair) exists to kill large-n retry waves; at small n it must
    // be outcome-equivalent to the legacy fixed schedule: same decision
    // values at every node, and no slower to full decision.
    for n in [32, 64, 128, 256] {
        let base = scenario(n, 0.8, UnknowingAssignment::RandomPerNode);
        let new_out = base.run(1).expect("valid scenario").into_aer();
        // The legacy schedule has no scenario knob: it is the derived
        // config with eager repair off, run on the same precondition.
        let mut legacy = base
            .poll_timeout(PollTimeoutSpec::Fixed(8))
            .aer_config()
            .expect("valid scenario");
        legacy.eager_repair = false;
        let harness = AerHarness::from_precondition(legacy, &new_out.precondition);
        let legacy_out = harness.run(&harness.engine_sync(), 1, &mut NoAdversary);
        assert_eq!(
            new_out.run.outputs, legacy_out.outputs,
            "n={n}: decision values diverged from the legacy schedule"
        );
        assert!(
            new_out.run.all_decided_at <= legacy_out.all_decided_at,
            "n={n}: scale-aware schedule slower than legacy ({:?} vs {:?})",
            new_out.run.all_decided_at,
            legacy_out.all_decided_at
        );
    }
}

#[test]
fn async_scenarios_can_scale_the_poll_timeout_to_the_delay_bound() {
    // Satellite knob: `PollTimeoutSpec::DelayScaled` waits one
    // *asynchronous* delivery horizon per attempt, killing the redundant
    // retry waves the synchronous timeout fires under delay — without
    // changing what anyone decides.
    let n = 64;
    for max_delay in [2u64, 3] {
        let base = scenario(n, 0.8, UnknowingAssignment::RandomPerNode)
            .network(NetworkSpec::Async { max_delay })
            .adversary(AdversarySpec::Silent { t: Some(8) });
        let run = |scenario: &Scenario| {
            let mut waves = WaveCounter::default();
            let out = scenario
                .run_observed(7, &mut waves)
                .expect("valid scenario");
            (out.into_aer(), waves.waves)
        };
        let (config_timeout, waves_config) = run(&base);
        let (scaled, waves_scaled) = run(&base.clone().poll_timeout(PollTimeoutSpec::DelayScaled));
        assert_eq!(
            scaled.config.poll_timeout,
            fba::core::AerConfig::sync_poll_horizon() * max_delay,
            "delay {max_delay}"
        );
        // Same decisions, fewer (or equal) retry waves.
        assert_eq!(scaled.run.outputs, config_timeout.run.outputs);
        assert!(
            waves_scaled <= waves_config,
            "delay {max_delay}: scaled timeout fired more waves ({waves_scaled} vs {waves_config})"
        );
    }
}

#[test]
fn aer_is_deterministic_per_seed_and_varies_across_seeds() {
    let silent8 = AdversarySpec::Silent { t: Some(8) };
    let s = scenario(64, 0.8, UnknowingAssignment::RandomPerNode).adversary(silent8);
    let a = s.run(42).expect("valid scenario").into_aer();
    let b = s.run(42).expect("valid scenario").into_aer();
    assert_eq!(a.run.outputs, b.run.outputs);
    assert_eq!(
        a.run.metrics.total_bits_sent(),
        b.run.metrics.total_bits_sent()
    );
    assert_eq!(a.run.corrupt, b.run.corrupt);

    let c = s.run(43).expect("valid scenario").into_aer();
    assert_ne!(
        a.run.corrupt, c.run.corrupt,
        "different seeds corrupt different sets"
    );
}

#[test]
fn aer_flood_does_not_inflate_correct_node_traffic() {
    let n = 96;
    let base = scenario(n, 0.8, UnknowingAssignment::RandomPerNode);
    let baseline = base.clone().run(5).expect("valid scenario").into_aer();
    let flooded = base
        .adversary(AdversarySpec::RandomFlood { rate: 64, steps: 8 })
        .run(5)
        .expect("valid scenario")
        .into_aer();
    // §3.1.1: pushes never trigger responses, so correct-node output
    // traffic under blind flooding stays close to fault-free levels
    // (the corrupt set removal changes totals slightly).
    let base_bits = baseline.run.metrics.correct_bits_sent() as f64;
    let under_attack = flooded.run.metrics.correct_bits_sent() as f64;
    assert!(
        under_attack < 1.15 * base_bits,
        "flooding inflated correct traffic: {base_bits} -> {under_attack}"
    );
    assert_eq!(flooded.run.unanimous(), Some(flooded.gstring()));
}

#[test]
fn aer_handles_worst_case_default_value_precondition() {
    // Every unknowing node holds the zero string (the "default value"
    // case from §3.1).
    let out = scenario(96, 0.75, UnknowingAssignment::DefaultValue)
        .run(6)
        .expect("valid scenario")
        .into_aer();
    assert_eq!(out.run.unanimous(), Some(out.gstring()));
}

#[test]
fn aer_async_engine_reaches_agreement_under_delay() {
    for max_delay in [1, 2, 3] {
        let out = scenario(64, 0.8, UnknowingAssignment::RandomPerNode)
            .network(NetworkSpec::Async { max_delay })
            .adversary(AdversarySpec::Silent { t: Some(8) })
            .run(7)
            .expect("valid scenario")
            .into_aer();
        assert_eq!(
            out.run.unanimous(),
            Some(out.gstring()),
            "max_delay={max_delay}"
        );
        assert!(
            out.run.metrics.decided_fraction() > 0.95,
            "max_delay={max_delay}: too many undecided"
        );
    }
}

#[test]
fn aer_decision_times_concentrate_in_constant_rounds() {
    let out = scenario(128, 0.8, UnknowingAssignment::RandomPerNode)
        .run(8)
        .expect("valid scenario")
        .into_aer();
    let p90 = out.run.metrics.decided_quantile(0.9).expect("90% decided");
    assert!(p90 <= 6, "90th percentile decision step {p90} too late");
}

#[test]
fn aer_candidate_lists_stay_bounded_under_equivocation() {
    let n = 96;
    let mut total = 0usize;
    let mut max = 0usize;
    {
        let mut inspect = FinalInspect(|_: NodeId, node: &AerNode| {
            total += node.candidates().len();
            max = max.max(node.candidates().len());
        });
        let _ = scenario(n, 0.8, UnknowingAssignment::RandomPerNode)
            .adversary(AdversarySpec::Equivocate { strings: 10 })
            .run_observed(9, &mut inspect)
            .expect("valid scenario");
    }
    assert!(
        total < 4 * n,
        "Σ|Lx| = {total} should stay linear in n = {n}"
    );
    assert!(max < 12, "single candidate list exploded: {max}");
}

#[test]
fn unknowing_witness_converges_through_the_full_pipeline() {
    let out = scenario(64, 0.7, UnknowingAssignment::RandomPerNode)
        .run(11)
        .expect("valid scenario")
        .into_aer();
    let witness = (0..64)
        .map(NodeId::from_index)
        .find(|id| !out.precondition.knows(*id))
        .unwrap();
    assert_eq!(out.run.outputs.get(&witness), Some(out.gstring()));
    // Witness learns strictly later than step 1 (push must arrive first).
    assert!(out.run.metrics.decided_at(witness).unwrap() >= 2);
}

#[test]
fn outcome_carries_consistent_derivations() {
    let out = scenario(32, 0.8, UnknowingAssignment::RandomPerNode)
        .run(12)
        .expect("valid scenario")
        .into_aer();
    assert_eq!(out.precondition.assignments.len(), 32);
    assert_eq!(out.config.n, 32);
    assert_eq!(out.config.scheme().n(), 32);
    assert_eq!(out.config.poll_sampler().n(), 32);
    assert_eq!(out.engine.n, 32);
    for id in &out.precondition.knowing {
        assert_eq!(&out.precondition.assignments[id.index()], out.gstring());
    }
}
