//! The cross-instance determinism contract for service mode — the test
//! suite the instance-sequence layer exists to satisfy.
//!
//! A service run chains agreement instances over one engine session and
//! one shared AER arena (interned quorum slots, sampler caches, vote
//! arenas, Fw1 routes). The contract has two halves, and this suite pins
//! both:
//!
//! * **No leak**: instance `k`'s outcome is bit-identical to a fresh
//!   engine run with the same value seed and the same coalition seed —
//!   nothing an earlier instance did is visible in a later outcome. The
//!   hardest case is *repeated* value seeds, where every `(string, node)`
//!   slot collides across instances: a single stale vote bit in the push
//!   arena makes `on_push` see a sender as a duplicate and suppress
//!   candidate acceptance. (Deliberately disabling the per-instance
//!   vote-arena reset in `AerRunState::begin_instance` makes the
//!   `repeated_value_seeds_*` tests below fail — that injection is the
//!   suite's own fire drill.)
//! * **Real reuse**: the persistence is not vacuous — cache hit/miss
//!   counters prove later instances *hit* the caches the first instance
//!   populated, rather than silently rebuilding them.

use fba::scenario::{Phase, Scenario};
use fba::sim::{AdversarySpec, NetworkSpec};

/// Per-instance outcome comparison: a service instance against its
/// fresh-engine comparator, down to per-node metrics.
fn assert_instance_matches(
    label: &str,
    service: &fba::scenario::AerRun,
    fresh: &fba::scenario::AerRun,
) {
    assert_eq!(
        service.run.corrupt, fresh.run.corrupt,
        "{label}: corrupt set"
    );
    assert_eq!(service.run.outputs, fresh.run.outputs, "{label}: outputs");
    assert_eq!(
        service.run.all_decided_at, fresh.run.all_decided_at,
        "{label}: decision step"
    );
    assert_eq!(
        service.run.quiescent, fresh.run.quiescent,
        "{label}: quiescence"
    );
    assert_eq!(
        service.run.metrics, fresh.run.metrics,
        "{label}: per-node metrics"
    );
    assert_eq!(
        service.precondition.gstring, fresh.precondition.gstring,
        "{label}: gstring"
    );
}

#[test]
fn every_instance_matches_a_fresh_engine_run() {
    // Instance k of a chained run == a standalone run with instance k's
    // value seed and the service's coalition seed, across adversaries
    // and timing models. This is the no-leak half of the contract under
    // *distinct* value seeds (the common case).
    let specs = [
        AdversarySpec::None,
        AdversarySpec::Silent { t: None },
        AdversarySpec::Equivocate { strings: 4 },
        AdversarySpec::BadString,
    ];
    for spec in &specs {
        for network in [NetworkSpec::Sync, NetworkSpec::Async { max_delay: 2 }] {
            let scenario = Scenario::new(48)
                .phase(Phase::aer(0.8))
                .network(network)
                .adversary(spec.clone())
                .service(3, 4);
            let service_seed = 11;
            let service = scenario.run_service(service_seed).expect("valid service");
            for (k, inst) in service.instances.iter().enumerate() {
                let fresh = scenario
                    .run_instance(inst.seed, service_seed)
                    .expect("valid instance");
                assert_instance_matches(
                    &format!("{spec} {network} instance {k}"),
                    &inst.run,
                    &fresh,
                );
            }
        }
    }
}

#[test]
fn repeated_value_seeds_still_match_fresh_runs() {
    // The leak trap: every instance replays the *same* value seed, so
    // every string interns to the same slots and every quorum resolves
    // to the same positions — maximal overlap between what instance k
    // writes and what instance k+1 reads. Any cross-instance residue in
    // the vote arenas or phase state diverges here first.
    for spec in [AdversarySpec::None, AdversarySpec::Silent { t: None }] {
        let scenario = Scenario::new(48)
            .phase(Phase::aer(0.8))
            .adversary(spec.clone())
            .service(4, 1)
            .service_value_seeds(vec![9, 9, 9, 9]);
        let service_seed = 9;
        let service = scenario.run_service(service_seed).expect("valid service");
        let fresh = scenario
            .run_instance(9, service_seed)
            .expect("valid instance");
        for (k, inst) in service.instances.iter().enumerate() {
            assert_instance_matches(
                &format!("{spec} repeated-seed instance {k}"),
                &inst.run,
                &fresh,
            );
        }
    }
}

#[test]
fn later_instances_hit_the_persistent_caches() {
    // The real-reuse half of the contract, counter-based: with identical
    // value seeds, instances 2..k replay exactly the quorum and poll
    // queries instance 1 made, so a *chained* run must add zero cache
    // misses over a 1-instance run — every later lookup is a hit. If the
    // caches were silently rebuilt per instance (persistence broken),
    // misses would scale with the instance count instead.
    let base = Scenario::new(48).phase(Phase::aer(0.8));
    let single = base
        .clone()
        .service(1, 1)
        .service_value_seeds(vec![7])
        .run_service(7)
        .expect("valid service");
    let chained = base
        .service(3, 1)
        .service_value_seeds(vec![7, 7, 7])
        .run_service(7)
        .expect("valid service");
    for (name, single_stats, chained_stats) in [
        ("push", single.push_cache_stats, chained.push_cache_stats),
        ("pull", single.pull_cache_stats, chained.pull_cache_stats),
        ("poll", single.poll_cache_stats, chained.poll_cache_stats),
    ] {
        assert_eq!(
            chained_stats.1, single_stats.1,
            "{name}: chained instances must not add cache misses"
        );
        assert!(
            chained_stats.0 > single_stats.0,
            "{name}: later instances must hit the persistent cache \
             (1-instance hits {}, 3-instance hits {})",
            single_stats.0,
            chained_stats.0
        );
    }
}

#[test]
fn crash_windows_compose_with_the_service_contract() {
    // Crash–restart composes with the instance-sequence layer: a chained
    // run with a mid-stream dark window in every instance still satisfies
    // both the no-leak half of the contract (each instance matches its
    // fresh-engine replay — the crash plan re-resolves identically from
    // the coalition seed inside `run_instance`) and whole-run
    // reproducibility, while the victims reconverge every time.
    let scenario = Scenario::new(48)
        .phase(Phase::aer(0.8))
        .faults_spec("crash:[2..7]6".parse().expect("parses"))
        .service(3, 4);
    let service_seed = 17;
    let service = scenario.run_service(service_seed).expect("valid service");
    assert_eq!(
        service.min_decided_fraction(),
        1.0,
        "restarted nodes reconverge in every instance"
    );
    assert!(service.all_unanimous());
    for (k, inst) in service.instances.iter().enumerate() {
        assert!(
            inst.run.run.metrics.msgs_dropped() > 0,
            "instance {k} went dark mid-stream"
        );
        assert!(
            inst.run.rejoin().expect("crash plan ran").all_rejoined(),
            "instance {k} rejoined every victim"
        );
        let fresh = scenario
            .run_instance(inst.seed, service_seed)
            .expect("valid instance");
        assert_instance_matches(&format!("crash instance {k}"), &inst.run, &fresh);
    }
    let replay = scenario.run_service(service_seed).expect("valid service");
    for (a, b) in service.instances.iter().zip(&replay.instances) {
        assert_eq!(a.run.run.outputs, b.run.run.outputs);
        assert_eq!(a.run.run.metrics, b.run.run.metrics);
    }
    assert_eq!(service.totals, replay.totals);
}

#[test]
fn service_runs_are_reproducible() {
    // A service run is a pure function of (scenario, seed): replaying
    // the same seed reproduces every instance bit for bit, totals
    // included.
    let scenario = Scenario::new(48)
        .phase(Phase::aer(0.8))
        .adversary(AdversarySpec::Silent { t: None })
        .network(NetworkSpec::Async { max_delay: 2 })
        .service(3, 4);
    let a = scenario.run_service(21).expect("valid service");
    let b = scenario.run_service(21).expect("valid service");
    assert_eq!(a.instances.len(), b.instances.len());
    for (x, y) in a.instances.iter().zip(&b.instances) {
        assert_eq!(x.seed, y.seed);
        assert_eq!(x.arrived_at, y.arrived_at);
        assert_eq!(x.started_at, y.started_at);
        assert_eq!(x.finished_at, y.finished_at);
        assert_eq!(x.run.run.outputs, y.run.run.outputs);
        assert_eq!(x.run.run.metrics, y.run.run.metrics);
    }
    assert_eq!(a.totals, b.totals);
    assert_eq!(a.total_steps, b.total_steps);
    assert_eq!(a.poll_cache_stats, b.poll_cache_stats);
}

#[test]
fn instance_seeds_follow_the_published_scheme() {
    // Instance 0 runs with the service seed itself (that is what makes
    // the 1-instance equivalence pin possible); later instances use the
    // domain-separated derivation, exposed so standalone replays can
    // target any instance.
    let service = Scenario::new(32)
        .service(3, 1)
        .run_service(42)
        .expect("valid service");
    assert_eq!(service.instances[0].seed, 42);
    for (k, inst) in service.instances.iter().enumerate() {
        assert_eq!(inst.seed, fba::sim::rng::instance_seed(42, k));
    }
}

proptest::proptest! {
    // Every case chains several full protocol runs; keep the count low.
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

    /// Arrival times are outcome-invariant: jitter inside the admission
    /// window moves `arrived_at`/`started_at` but never changes what any
    /// instance decides or sends. Totals always equal the sum of the
    /// per-instance views.
    #[test]
    fn service_outcomes_ignore_arrival_jitter(
        n in 24usize..56,
        seed in proptest::prelude::any::<u64>(),
        instances in 1usize..4,
        interval in 0u64..8,
        jitter in proptest::collection::vec(0u64..16, 4),
        silent in proptest::prelude::any::<bool>(),
    ) {
        let mut base = Scenario::new(n).phase(Phase::aer(0.8));
        if silent {
            base = base.adversary(AdversarySpec::Silent { t: None });
        }
        let reference = base
            .clone()
            .service(instances, interval)
            .run_service(seed)
            .expect("valid service");

        // Totals are exactly the sum of the per-instance metrics.
        let msgs: u64 = reference.instances.iter().map(|i| i.run.run.metrics.total_msgs_sent()).sum();
        let bits: u64 = reference.instances.iter().map(|i| i.run.run.metrics.total_bits_sent()).sum();
        let steps: u64 = reference.instances.iter().map(|i| i.run.run.metrics.steps).sum();
        assert_eq!(reference.totals.total_msgs_sent(), msgs);
        assert_eq!(reference.totals.total_bits_sent(), bits);
        assert_eq!(reference.totals.steps(), steps);
        assert_eq!(reference.totals.instances(), instances as u64);

        // Jittered (but non-decreasing) arrivals: outcomes unchanged.
        let mut arrivals = Vec::with_capacity(instances);
        let mut at = 0u64;
        for j in jitter.iter().take(instances) {
            at += j;
            arrivals.push(at);
        }
        let jittered = base
            .service(instances, interval)
            .service_arrivals(arrivals)
            .run_service(seed)
            .expect("valid service");
        for (k, (a, b)) in reference.instances.iter().zip(&jittered.instances).enumerate() {
            assert_eq!(a.seed, b.seed, "instance {k} seed");
            assert_eq!(a.run.run.outputs, b.run.run.outputs, "instance {k} outputs");
            assert_eq!(a.run.run.metrics, b.run.run.metrics, "instance {k} metrics");
            assert!(b.started_at >= b.arrived_at, "instance {k} admission");
        }
    }
}
