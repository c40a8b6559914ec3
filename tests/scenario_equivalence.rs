//! The migration pin: every experiment/example path through the
//! [`Scenario`] builder must be **bit-identical** to the pre-redesign
//! hand-wired construction (`AerConfig` → `Precondition` → `AerHarness`
//! → `EngineConfig` → concrete adversary), at n ∈ {64, 256}.
//!
//! Each case builds the run twice — once through the builder, once
//! through the raw layers exactly as the experiments used to — and
//! compares outputs, corrupt sets, decision times and total bit/message
//! counts. Any divergence means the builder silently changed what an
//! experiment measures.

use fba::ae::{Precondition, UnknowingAssignment};
use fba::baselines::{BenOrNode, BenOrParams, KingNode, KingParams, KlstNode, KlstParams};
use fba::core::adversary::{
    AttackContext, BadString, Corner, Equivocate, PullFlood, PushFlood, RandomStringFlood,
};
use fba::core::{AerConfig, AerHarness, AerMsg};
use fba::samplers::GString;
use fba::scenario::{Baseline, Phase, PreconditionSpec, Scenario};
use fba::sim::{
    run, AdversarySpec, EngineConfig, NetworkSpec, NoAdversary, RunOutcome, SilentAdversary,
};
use rand::Rng;

const SIZES: [usize; 2] = [64, 256];

/// The hand-wired construction all migrated AER call sites used.
fn hand_wired(
    n: usize,
    seed: u64,
    knowing: f64,
    mode: UnknowingAssignment,
    strict: bool,
    async_delay: Option<u64>,
    adversary: &AdversarySpec,
) -> (RunOutcome<GString, AerMsg>, Precondition) {
    let mut cfg = AerConfig::recommended(n);
    if strict {
        cfg = cfg.strict();
    }
    let pre = Precondition::synthetic(n, cfg.string_len, knowing, mode, seed);
    let h = AerHarness::from_precondition(cfg, &pre);
    let engine = match async_delay {
        None => h.engine_sync(),
        Some(d) => h.engine_async(d),
    };
    let ctx = || AttackContext::new(&h, pre.gstring);
    let bad = || {
        pre.assignments
            .iter()
            .find(|s| **s != pre.gstring)
            .copied()
            .unwrap_or_else(|| {
                GString::random(
                    pre.gstring.len_bits(),
                    &mut fba::sim::rng::derive_rng(seed, &[0xbad]),
                )
            })
    };
    let out = match adversary {
        AdversarySpec::None => h.run(&engine, seed, &mut NoAdversary),
        AdversarySpec::Silent { t } => {
            let t = t.unwrap_or(fba::core::default_faults(n));
            h.run(&engine, seed, &mut SilentAdversary::new(t))
        }
        AdversarySpec::RandomFlood { rate, steps } => h.run(
            &engine,
            seed,
            &mut RandomStringFlood::new(ctx(), *rate, *steps),
        ),
        AdversarySpec::PushFlood => h.run(&engine, seed, &mut PushFlood::new(ctx(), bad())),
        AdversarySpec::Equivocate { strings } => {
            h.run(&engine, seed, &mut Equivocate::new(ctx(), *strings))
        }
        AdversarySpec::PullFlood { rate, steps } => {
            h.run(&engine, seed, &mut PullFlood::new(ctx(), *rate, *steps))
        }
        AdversarySpec::BadString => h.run(&engine, seed, &mut BadString::new(ctx(), bad())),
        AdversarySpec::Corner { label_scan } => {
            h.run(&engine, seed, &mut Corner::new(ctx(), *label_scan))
        }
        AdversarySpec::Sched(_) => {
            unreachable!("schedules are pinned against the bare strategy, not hand-wired")
        }
    };
    (out, pre)
}

fn assert_identical(
    label: &str,
    scenario: &RunOutcome<GString, AerMsg>,
    hand: &RunOutcome<GString, AerMsg>,
) {
    assert_eq!(scenario.corrupt, hand.corrupt, "{label}: corrupt set");
    assert_eq!(scenario.outputs, hand.outputs, "{label}: outputs");
    assert_eq!(
        scenario.all_decided_at, hand.all_decided_at,
        "{label}: decision step"
    );
    assert_eq!(scenario.quiescent, hand.quiescent, "{label}: quiescence");
    assert_eq!(
        scenario.metrics.total_bits_sent(),
        hand.metrics.total_bits_sent(),
        "{label}: bits"
    );
    assert_eq!(
        scenario.metrics.total_msgs_sent(),
        hand.metrics.total_msgs_sent(),
        "{label}: messages"
    );
    assert_eq!(scenario.metrics.steps, hand.metrics.steps, "{label}: steps");
}

#[test]
fn every_adversary_spec_is_bit_identical_sync() {
    let specs = [
        AdversarySpec::None,
        AdversarySpec::Silent { t: None },
        AdversarySpec::RandomFlood { rate: 16, steps: 4 },
        AdversarySpec::PushFlood,
        AdversarySpec::Equivocate { strings: 8 },
        AdversarySpec::PullFlood { rate: 16, steps: 4 },
        AdversarySpec::BadString,
    ];
    for n in SIZES {
        for spec in &specs {
            let seed = 3;
            let scenario = Scenario::new(n)
                .phase(Phase::aer_with(0.8, UnknowingAssignment::SharedAdversarial))
                .adversary(spec.clone())
                .run(seed)
                .expect("valid scenario")
                .into_aer();
            let (hand, pre) = hand_wired(
                n,
                seed,
                0.8,
                UnknowingAssignment::SharedAdversarial,
                false,
                None,
                spec,
            );
            assert_identical(&format!("n={n} {spec}"), &scenario.run, &hand);
            assert_eq!(scenario.precondition.gstring, pre.gstring);
        }
    }
}

#[test]
fn single_window_schedules_are_bit_identical_to_the_bare_spec() {
    // The tentpole's safety pin: `sched:[0..]X` must be *bit-identical*
    // to the bare `X` — same corrupt set, outputs, decision steps, bit
    // and message counts. This is what makes composed schedules safe to
    // build on: a schedule is the bare strategy plus window dispatch,
    // never a subtly different adversary.
    use fba::sim::{ScheduleSpec, Window};
    let specs = [
        AdversarySpec::Silent { t: None },
        AdversarySpec::RandomFlood { rate: 16, steps: 4 },
        AdversarySpec::PushFlood,
        AdversarySpec::Equivocate { strings: 8 },
        AdversarySpec::BadString,
    ];
    for n in SIZES {
        for spec in &specs {
            let seed = 3;
            let wrap = |spec: &AdversarySpec| {
                AdversarySpec::Sched(
                    ScheduleSpec::new(vec![(Window::open(0), spec.clone())])
                        .expect("single-window schedule"),
                )
            };
            let scheduled = Scenario::new(n)
                .phase(Phase::aer_with(0.8, UnknowingAssignment::SharedAdversarial))
                .adversary(wrap(spec))
                .run(seed)
                .expect("valid scenario")
                .into_aer();
            let (hand, _) = hand_wired(
                n,
                seed,
                0.8,
                UnknowingAssignment::SharedAdversarial,
                false,
                None,
                spec,
            );
            assert_identical(&format!("n={n} sched:[0..]{spec}"), &scheduled.run, &hand);
        }

        // The async rushing shape too: a single corner window under the
        // strict asynchronous engine (the fig1a/l6 regime).
        let corner = AdversarySpec::Corner { label_scan: 256 };
        let scheduled = Scenario::new(n)
            .phase(Phase::aer(0.8))
            .strict()
            .network(NetworkSpec::Async { max_delay: 1 })
            .adversary(AdversarySpec::Sched(
                ScheduleSpec::new(vec![(Window::open(0), corner.clone())]).expect("valid"),
            ))
            .run(5)
            .expect("valid scenario")
            .into_aer();
        let (hand, _) = hand_wired(
            n,
            5,
            0.8,
            UnknowingAssignment::RandomPerNode,
            true,
            Some(1),
            &corner,
        );
        assert_identical(
            &format!("n={n} sched:[0..]corner async"),
            &scheduled.run,
            &hand,
        );
        assert!(
            scheduled.corner.is_some(),
            "n={n}: corner report surfaces through the single-window schedule"
        );
    }
}

#[test]
fn corner_and_silent_are_bit_identical_async() {
    for n in SIZES {
        let seed = 5;
        // The fig1a/l6 shape: strict mode, async engine, cornering.
        let corner_spec = AdversarySpec::Corner { label_scan: 256 };
        let scenario = Scenario::new(n)
            .phase(Phase::aer(0.8))
            .strict()
            .network(NetworkSpec::Async { max_delay: 1 })
            .adversary(corner_spec.clone())
            .run(seed)
            .expect("valid scenario")
            .into_aer();
        let (hand, _) = hand_wired(
            n,
            seed,
            0.8,
            UnknowingAssignment::RandomPerNode,
            true,
            Some(1),
            &corner_spec,
        );
        assert_identical(&format!("n={n} corner async"), &scenario.run, &hand);

        // The aer_integration shape: async delay 2, silent faults.
        let silent = AdversarySpec::Silent { t: Some(n / 8) };
        let scenario = Scenario::new(n)
            .phase(Phase::aer(0.8))
            .network(NetworkSpec::Async { max_delay: 2 })
            .adversary(silent.clone())
            .run(seed)
            .expect("valid scenario")
            .into_aer();
        let (hand, _) = hand_wired(
            n,
            seed,
            0.8,
            UnknowingAssignment::RandomPerNode,
            false,
            Some(2),
            &silent,
        );
        assert_identical(&format!("n={n} silent async"), &scenario.run, &hand);
    }
}

#[test]
fn diffusion_baselines_are_bit_identical() {
    for n in SIZES {
        let seed = 9;
        let t = (n as f64 * 0.15) as usize;
        let pre_spec = PreconditionSpec::knowing(0.8);

        // KLST (the fig1a shape).
        let scenario = Scenario::new(n)
            .phase(Phase::Baseline(Baseline::Klst {
                precondition: pre_spec,
            }))
            .faults(t)
            .adversary(AdversarySpec::Silent { t: None })
            .run(seed)
            .expect("valid scenario")
            .into_baseline();
        let cfg = AerConfig::recommended(n);
        let pre = Precondition::synthetic(
            n,
            cfg.string_len,
            0.8,
            UnknowingAssignment::RandomPerNode,
            seed,
        );
        let params = KlstParams::recommended(n);
        let engine = EngineConfig {
            max_steps: params.schedule_len() + 8,
            ..EngineConfig::sync(n)
        };
        let mut adv = SilentAdversary::new(t);
        let hand = run::<KlstNode, _, _>(&engine, seed, &mut adv, |id| {
            KlstNode::new(params, pre.assignments[id.index()])
        });
        let fba::scenario::BaselineOutcome::Klst(srun) = &scenario.outcome else {
            panic!("klst scenario produced a different baseline");
        };
        assert_eq!(srun.outputs, hand.outputs, "n={n} klst outputs");
        assert_eq!(
            srun.metrics.total_bits_sent(),
            hand.metrics.total_bits_sent(),
            "n={n} klst bits"
        );
        assert_eq!(srun.all_decided_at, hand.all_decided_at, "n={n} klst time");
    }
}

#[test]
fn binary_baselines_are_bit_identical() {
    for n in SIZES {
        let seed = 11;

        // Ben-Or, the fig1b shape (0.9-biased inputs, silent params.t).
        let params = BenOrParams::recommended(n);
        let scenario = Scenario::new(n)
            .phase(Phase::Baseline(Baseline::BenOr))
            .faults(params.t)
            .adversary(AdversarySpec::Silent { t: None })
            .run(seed)
            .expect("valid scenario")
            .into_baseline();
        let engine = EngineConfig {
            max_steps: 400,
            ..EngineConfig::sync(n)
        };
        let mut rng = fba::sim::rng::derive_rng(seed, &[0xb0]);
        let inputs: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.9)).collect();
        let mut adv = SilentAdversary::new(params.t);
        let hand = run::<BenOrNode, _, _>(&engine, seed, &mut adv, |id| {
            BenOrNode::new(params, n, inputs[id.index()])
        });
        let fba::scenario::BaselineOutcome::BenOr(srun) = &scenario.outcome else {
            panic!("benor scenario produced a different baseline");
        };
        assert_eq!(
            scenario.inputs.as_deref(),
            Some(&inputs[..]),
            "n={n} inputs"
        );
        assert_eq!(srun.outputs, hand.outputs, "n={n} benor outputs");
        assert_eq!(
            srun.metrics.total_msgs_sent(),
            hand.metrics.total_msgs_sent(),
            "n={n} benor messages"
        );

        // Phase-King (only at the small size — Θ(n) rounds of Θ(n²)
        // messages; the fig1b sweep caps King sizes the same way).
        if n > 64 {
            continue;
        }
        let kparams = KingParams::recommended(n);
        let scenario = Scenario::new(n)
            .phase(Phase::Baseline(Baseline::PhaseKing))
            .faults(kparams.t / 2)
            .adversary(AdversarySpec::Silent { t: None })
            .run(seed)
            .expect("valid scenario")
            .into_baseline();
        let kengine = EngineConfig {
            max_steps: kparams.schedule_len() + 8,
            ..EngineConfig::sync(n)
        };
        let mut rng = fba::sim::rng::derive_rng(seed, &[0xb1]);
        let kinputs: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
        let mut adv = SilentAdversary::new(kparams.t / 2);
        let hand = run::<KingNode, _, _>(&kengine, seed, &mut adv, |id| {
            KingNode::new(kparams, n, kinputs[id.index()])
        });
        let fba::scenario::BaselineOutcome::King(srun) = &scenario.outcome else {
            panic!("king scenario produced a different baseline");
        };
        assert_eq!(srun.outputs, hand.outputs, "n={n} king outputs");
        assert_eq!(srun.all_decided_at, hand.all_decided_at, "n={n} king time");
    }
}

#[test]
fn ae_phase_is_bit_identical_to_run_ae() {
    for n in SIZES {
        let seed = 13;
        let scenario = Scenario::new(n)
            .phase(Phase::Ae)
            .run(seed)
            .expect("valid scenario")
            .into_ae();
        let hand = fba::ae::run_ae(&fba::ae::AeConfig::recommended(n), seed, &mut NoAdversary);
        assert_eq!(scenario.outcome.gstring, hand.gstring, "n={n}");
        assert_eq!(scenario.outcome.knowing, hand.knowing, "n={n}");
        assert_eq!(
            scenario.outcome.run.metrics.total_bits_sent(),
            hand.run.metrics.total_bits_sent(),
            "n={n}"
        );
    }
}

#[test]
fn service_single_instance_is_bit_identical_to_run() {
    // The service-mode anchor pin: a 1-instance service run IS the plain
    // run — same outputs, corrupt set, decision step, *per-node* metrics
    // (Metrics implements full structural equality) and transcript —
    // across the adversary matrix and both timing models. Everything the
    // service layer threads through (the reusable engine session, the
    // shared AER arena, the per-instance reset) must be invisible at
    // instance 0, or chaining is built on sand.
    use fba::sim::{ScheduleSpec, Window};
    let sched = AdversarySpec::Sched(
        ScheduleSpec::new(vec![
            (Window::bounded(0, 2), AdversarySpec::Silent { t: None }),
            (Window::open(2), AdversarySpec::Equivocate { strings: 4 }),
        ])
        .expect("valid schedule"),
    );
    let specs = [
        AdversarySpec::None,
        AdversarySpec::Silent { t: None },
        AdversarySpec::PushFlood,
        AdversarySpec::Equivocate { strings: 8 },
        AdversarySpec::BadString,
        AdversarySpec::Corner { label_scan: 256 },
        sched,
    ];
    for spec in &specs {
        for network in [NetworkSpec::Sync, NetworkSpec::Async { max_delay: 2 }] {
            let base = Scenario::new(64)
                .phase(Phase::aer(0.8))
                .network(network)
                .adversary(spec.clone())
                .record_transcript(true);
            let plain = base.clone().run(3).expect("valid scenario").into_aer();
            let service = base.service(1, 1).run_service(3).expect("valid service");
            assert_eq!(service.instances.len(), 1);
            let inst = &service.instances[0].run;
            let label = format!("{spec} {network}");
            assert_identical(&label, &inst.run, &plain.run);
            assert_eq!(
                inst.run.metrics, plain.run.metrics,
                "{label}: per-node metrics"
            );
            assert_eq!(
                inst.run.transcript, plain.run.transcript,
                "{label}: transcript"
            );
            assert_eq!(
                inst.precondition.gstring, plain.precondition.gstring,
                "{label}: precondition"
            );
        }
    }
}

/// One 64-bit digest over everything the golden pin cares about, folded
/// over `runs` in order: steps, decision time, total and **per-node**
/// send/receive accounting, outputs, the full transcript, and the corrupt
/// set. Computed with the crate's keyless [`fba::sim::fxhash::FxHasher`],
/// so the value is stable across runs and platforms of the same pointer
/// width.
fn run_digest<'a>(
    runs: impl IntoIterator<Item = &'a RunOutcome<GString, AerMsg>>,
    n: usize,
) -> u64 {
    use std::hash::Hasher;
    let mut h = fba::sim::fxhash::FxHasher::default();
    for run in runs {
        h.write_u64(run.metrics.steps);
        h.write_u64(run.all_decided_at.unwrap_or(u64::MAX));
        h.write_u64(run.metrics.total_bits_sent());
        h.write_u64(run.metrics.total_msgs_sent());
        for i in 0..n {
            let id = fba::sim::NodeId::from_index(i);
            h.write_u64(run.metrics.bits_sent_by(id));
            h.write_u64(run.metrics.msgs_sent_by(id));
            h.write_u64(run.metrics.bits_recv_by(id));
            h.write_u64(run.metrics.msgs_recv_by(id));
        }
        h.write(format!("{:?}", run.outputs).as_bytes());
        h.write(format!("{:?}", run.transcript).as_bytes());
        h.write(format!("{:?}", run.corrupt).as_bytes());
    }
    h.finish()
}

#[test]
fn engine_matches_golden_digests() {
    // The absolute anchor for engine and `Scenario` refactors. Every
    // other equivalence test compares two code paths that a refactor
    // moves together; this one pins the engine to frozen constants over
    // transcript-recording runs, so any drift in delivery order,
    // scheduling, metrics accounting, or transcripts fails loudly. All
    // but the strict case were re-captured when poll-label redraw was
    // deleted (strict mode never redrew, so its digest held). Do not
    // update these numbers without understanding exactly why they moved.
    use fba::sim::{ScheduleSpec, Window};
    let sched = AdversarySpec::Sched(
        ScheduleSpec::new(vec![
            (Window::bounded(0, 2), AdversarySpec::Silent { t: None }),
            (Window::open(2), AdversarySpec::Equivocate { strings: 4 }),
        ])
        .expect("valid schedule"),
    );
    let base = |n: usize| {
        Scenario::new(n)
            .phase(Phase::aer(0.8))
            .record_transcript(true)
    };
    // (label, n, seed, scenario, service run?, expected digest)
    let cases: [(&str, usize, u64, Scenario, bool, u64); 7] = [
        (
            "n=64 sync silent",
            64,
            3,
            base(64).adversary(AdversarySpec::Silent { t: Some(9) }),
            false,
            0xc024b8e402aade0e,
        ),
        (
            "n=64 async corner strict",
            64,
            5,
            base(64)
                .network(NetworkSpec::Async { max_delay: 1 })
                .adversary(AdversarySpec::Corner { label_scan: 256 })
                .strict(),
            false,
            0x677fb1416447f5c5,
        ),
        (
            "n=64 sync sched",
            64,
            3,
            base(64).adversary(sched),
            false,
            0x99aba18bf9c2cd08,
        ),
        (
            "n=256 sync none",
            256,
            3,
            base(256),
            false,
            0xd68f2181fc28beff,
        ),
        (
            "n=64 async:2 bad-string",
            64,
            3,
            base(64)
                .network(NetworkSpec::Async { max_delay: 2 })
                .adversary(AdversarySpec::BadString),
            false,
            0x0cc115f0e28e8385,
        ),
        (
            "n=64 crash:[3..7]8",
            64,
            3,
            base(64).faults_spec("crash:[3..7]8".parse().expect("parses")),
            false,
            0xc5cde35c66e6e0b2,
        ),
        (
            "n=64 service x3 silent:9",
            64,
            3,
            base(64)
                .adversary(AdversarySpec::Silent { t: Some(9) })
                .service(3, 1),
            true,
            0x7b808c32f737ac28,
        ),
    ];
    for (label, n, seed, scenario, service, expected) in cases {
        let got = if service {
            let run = scenario.run_service(seed).expect("valid service");
            run_digest(run.instances.iter().map(|inst| &inst.run.run), n)
        } else {
            let run = scenario.run(seed).expect("valid scenario").into_aer();
            run_digest([&run.run], n)
        };
        assert_eq!(
            got, expected,
            "{label}: golden digest drifted (got {got:#x})"
        );
    }
}

#[test]
fn composed_runs_match_golden_digests() {
    // The composed phase's anchor: the AER half's transcript-recording
    // run (through `run_digest`) plus the almost-everywhere phase's
    // gstring, frozen. The AER half runs with master and coalition seed
    // `seed + 1`; giving it `seed` instead fails both rows.
    let silent = AdversarySpec::Silent { t: None };
    let base = |n: usize| {
        Scenario::new(n)
            .phase(Phase::Composed)
            .record_transcript(true)
    };
    // (label, n, seed, scenario, expected digest)
    let cases: [(&str, usize, u64, Scenario, u64); 2] = [
        (
            "n=64 composed sync silent",
            64,
            3,
            base(64).adversary(silent.clone()).ae_adversary(silent),
            0x5eebe128c502415b,
        ),
        (
            "n=64 composed async:1 corner:128",
            64,
            13,
            base(64)
                .network(NetworkSpec::Async { max_delay: 1 })
                .adversary(AdversarySpec::Corner { label_scan: 128 }),
            0x78bc29b8828a0830,
        ),
    ];
    for (label, n, seed, scenario, expected) in cases {
        let run = scenario.run(seed).expect("valid scenario").into_composed();
        let got = {
            use std::hash::Hasher;
            let mut h = fba::sim::fxhash::FxHasher::default();
            h.write_u64(run_digest([&run.aer.run], n));
            h.write(format!("{:?}", run.ae.outcome.gstring).as_bytes());
            h.finish()
        };
        assert_eq!(
            got, expected,
            "{label}: golden digest drifted (got {got:#x})"
        );
    }
}

#[test]
fn observers_and_transcripts_do_not_perturb_outcomes() {
    // Attaching instrumentation must never change what a scenario
    // computes — the determinism contract that makes observers safe to
    // use in experiments.
    for n in SIZES {
        let base = Scenario::new(n)
            .phase(Phase::aer(0.8))
            .adversary(AdversarySpec::Silent { t: None });
        let plain = base.clone().run(17).expect("valid scenario").into_aer();
        let mut sink = fba::sim::TranscriptSink::<AerMsg>::new();
        let observed = base
            .run_observed(17, &mut sink)
            .expect("valid scenario")
            .into_aer();
        assert_identical(&format!("n={n} observed"), &observed.run, &plain.run);
        assert_eq!(
            sink.transcript.len(),
            plain.run.metrics.total_msgs_sent() as usize,
            "n={n}: the sink sees every send"
        );
    }
}

#[test]
fn observers_need_not_be_send() {
    // A run executes on the calling thread, so an observer may share
    // state with its caller through `Rc<RefCell<_>>`.
    use std::cell::RefCell;
    use std::rc::Rc;
    let finals = Rc::new(RefCell::new(0usize));
    let sink = Rc::clone(&finals);
    let mut inspect = fba::sim::FinalInspect(move |_: fba::sim::NodeId, _: &fba::core::AerNode| {
        *sink.borrow_mut() += 1;
    });
    Scenario::new(64)
        .run_observed(17, &mut inspect)
        .expect("valid scenario");
    assert_eq!(*finals.borrow(), 64, "one final hook per correct node");
}

#[test]
fn empty_crash_schedules_are_bit_identical_to_the_no_fault_baseline() {
    // The recovery tentpole's safety pin: setting a zero-window crash
    // schedule must leave every run byte-identical to never setting one.
    // The recovery layer may not consume RNG, send messages, or touch
    // the engine unless a crash is actually scheduled — pinned down to
    // per-node metrics and the full delivery transcript.
    use fba::recovery::CrashSpec;
    for n in SIZES {
        for (label, scenario) in [
            ("plain", Scenario::new(n).phase(Phase::aer(0.8))),
            (
                "adversarial-async",
                Scenario::new(n)
                    .phase(Phase::aer(0.8))
                    .adversary(AdversarySpec::Silent { t: None })
                    .network(NetworkSpec::Async { max_delay: 2 }),
            ),
        ] {
            let baseline = scenario
                .clone()
                .record_transcript(true)
                .run(5)
                .expect("valid scenario")
                .into_aer();
            let with_empty = scenario
                .record_transcript(true)
                .faults_spec(CrashSpec::none())
                .run(5)
                .expect("valid scenario")
                .into_aer();
            let label = format!("{label} n={n}");
            assert_identical(&label, &with_empty.run, &baseline.run);
            assert_eq!(
                with_empty.run.metrics, baseline.run.metrics,
                "{label}: per-node metrics"
            );
            assert_eq!(
                with_empty.run.transcript, baseline.run.transcript,
                "{label}: transcript"
            );
        }
    }
}

#[test]
fn crashed_runs_are_pure_functions_of_seed_and_spec() {
    // A crashed run must replay bit-for-bit from (seed, spec) alone —
    // victim sampling, dark-window drops, checkpoint restores and the
    // state-sync re-polls all derive from the run seed and the schedule,
    // never from ambient state.
    for n in SIZES {
        let scenario = Scenario::new(n)
            .phase(Phase::aer(0.8))
            .record_transcript(true)
            .faults_spec("crash:[2..8]4".parse().expect("parses"));
        let first = scenario.run(9).expect("valid scenario").into_aer();
        let second = scenario.run(9).expect("valid scenario").into_aer();
        let label = format!("crash replay n={n}");
        assert_identical(&label, &second.run, &first.run);
        assert_eq!(
            second.run.metrics, first.run.metrics,
            "{label}: per-node metrics"
        );
        assert_eq!(
            second.run.transcript, first.run.transcript,
            "{label}: transcript"
        );
        assert!(
            first.run.metrics.msgs_dropped() > 0,
            "{label}: the dark window actually dropped traffic"
        );
        assert_eq!(
            first.run.metrics.decided_fraction(),
            1.0,
            "{label}: restarted nodes reconverge"
        );
    }
}
