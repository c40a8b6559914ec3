//! The traced pass (`--trace 1`): one call of the workload, three ways —
//! through `Scenario`, hand-wired, and hand-wired with every node and the
//! adversary wrapped in a timer — plus the micro-drives. Per-layer
//! metrics out, span tree to `out/trace_<workload>.json`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use fba_scenario::Scenario;
use fba_sim::rng::instance_seed;

use crate::metrics::{per_layer, PassResult};
use crate::micro;
use crate::ops::{call_digest, evaluate, timed_call, Op, Outcome};
use crate::timed::call_seed;
use crate::trace::{
    calibrate_timer, Agg, Kind, Recorder, SpanTree, Timed, TimedAdversary, KIND_NAMES,
};
use crate::wired::{run_wired, setup, WiredCall};
use crate::workload::Workload;

/// Empty spans timed to calibrate the tracer.
const CALIBRATION_SPANS: u64 = 1_000_000;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn hit_ratio((hits, misses): (u64, u64)) -> f64 {
    ratio(hits as f64, (hits + misses) as f64)
}

fn wired_ops(call: &WiredCall) -> Vec<Op> {
    call.instances
        .iter()
        .map(|inst| evaluate(&inst.run, &inst.gstring))
        .collect()
}

/// Span tree of the traced call: `run → {setup → {config, precondition,
/// harness_build, run_state}, engine_run → step[k] → kind}` per instance.
fn span_tree(traced: &WiredCall, recorder: &Recorder, run_started: Instant) -> SpanTree {
    let ns = |at: Instant| recorder.ns(at);
    let secs = |s: f64| (s * 1e9) as u64;
    let mut tree = SpanTree::default();
    let run_start = ns(run_started);
    let root = tree.push("run", None, run_start, run_start + secs(traced.wall_s));
    for (inst, trace) in traced.instances.iter().zip(&recorder.runs) {
        // The stages run back to back from `started`; only their
        // durations were taken, so they are laid end to end.
        let mut cursor = ns(inst.started);
        let setup = tree.push(
            "setup",
            Some(root),
            cursor,
            cursor + secs(inst.setup.total_s()),
        );
        for (name, stage_s) in [
            ("config", inst.setup.config_s),
            ("precondition", inst.setup.precondition_s),
            ("harness_build", inst.setup.harness_build_s),
            ("run_state", inst.setup.run_state_s),
        ] {
            tree.push(name, Some(setup), cursor, cursor + secs(stage_s));
            cursor += secs(stage_s);
        }
        let engine_start = ns(inst.engine_started);
        let engine = tree.push(
            "engine_run",
            Some(root),
            engine_start,
            engine_start + secs(inst.engine_s),
        );
        tree.push_engine(engine, trace, ns);
    }
    tree
}

/// Drives each layer alone at the workload's n and d, reporting through
/// `put`.
fn micro_drives(
    workload: &Workload,
    scenario: &Scenario,
    seed: u64,
    put: &mut impl FnMut(&str, f64),
) {
    let (deployment, _times) = setup(workload, scenario, seed);
    let (harness, gstring) = (&deployment.harness, deployment.pre.gstring);
    put(
        "samplers.quorum_eval_ns",
        micro::quorum_eval_ns(harness, &gstring),
    );
    put("samplers.poll_list_ns", micro::poll_list_ns(harness));
    put(
        "samplers.cached_contains_ns",
        micro::cached_contains_ns(harness, &gstring),
    );
    put(
        "sim.null_ns_per_msg",
        micro::null_engine_ns_per_msg(workload.n),
    );
    put(
        "sim.calendar_bulk_ns_per_item",
        micro::calendar_bulk_ns_per_item(),
    );
    put(
        "sim.calendar_sched_ns_per_item",
        micro::calendar_sched_ns_per_item(workload.network_spec().max_delay().max(2)),
    );
    let (append_ns, restore_ns) = micro::checkpoint_ns(&gstring);
    put("recovery.append_ns", append_ns);
    put("recovery.restore_ns", restore_ns);
}

/// Runs the traced pass on the run's first call seed and writes the span
/// tree under `out_dir`.
///
/// # Panics
///
/// Panics if `out_dir` cannot be written.
#[must_use]
pub fn layer_pass(workload: &Workload, seed: u64, out_dir: &Path) -> PassResult {
    let scenario = workload.scenario();
    let ops_per_call = workload.ops_per_call();
    let seed0 = call_seed(seed, 0);
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };
    let mut failed = 0usize;
    let mut check = |ok: bool, what: &str| {
        if !ok {
            eprintln!("{}: check failed: {what}", workload.name);
            failed += ops_per_call;
        }
    };

    let (timer_ns, timer_inner_ns) = calibrate_timer(CALIBRATION_SPANS);
    put("trace.timer_ns", timer_ns);

    // 1. Through the public entry point, untraced — twice. The first
    //    call grows the heap to the workload's working set (a third of a
    //    second of page faults at n = 4096); only the second is timed
    //    against the hand-wired calls below, which find the heap warm too.
    let (warm_up, _) = timed_call(workload, &scenario, seed0);
    let (public, outcome) = timed_call(workload, &scenario, seed0);
    check(
        public.failed_ops(ops_per_call) == 0,
        "Scenario run broke an invariant",
    );
    // Determinism check (a): the same seed run twice.
    check(
        call_digest(&warm_up.ops) == call_digest(&public.ops),
        "the same seed did not reproduce its digest",
    );

    // 2. Hand-wired, untraced.
    let plain = run_wired(workload, &scenario, seed0, |node| node, |adv| adv, |_| {});
    let plain_ops = wired_ops(&plain);
    check(
        plain_ops.iter().all(|op| op.ok),
        "hand-wired run broke an invariant",
    );
    // Determinism check (c): hand-wired ≡ Scenario.
    check(
        call_digest(&plain_ops) == call_digest(&public.ops),
        "hand-wired digest differs from Scenario's",
    );

    // 3. Hand-wired, traced.
    let recorder = RefCell::new(Recorder::new());
    let run_started = Instant::now();
    let traced = run_wired(
        workload,
        &scenario,
        seed0,
        |node| Timed::new(node, &recorder),
        |adv| TimedAdversary::new(adv, &recorder),
        |_| recorder.borrow_mut().begin_run(),
    );
    let recorder = recorder.into_inner();
    let traced_ops = wired_ops(&traced);
    // Determinism check (b): traced ≡ untraced.
    check(
        call_digest(&traced_ops) == call_digest(&plain_ops),
        "traced digest differs from untraced",
    );

    let mut kinds = [Agg::default(); Kind::COUNT];
    let mut adversary = Agg::default();
    for run in &recorder.runs {
        for (acc, agg) in kinds.iter_mut().zip(run.by_kind()) {
            acc.absorb(&agg);
        }
        adversary.absorb(&run.adversary);
    }
    let message_calls: u64 = Kind::MESSAGES
        .iter()
        .map(|k| kinds[*k as usize].calls)
        .sum();
    let msgs_to_correct: u64 = traced_ops.iter().map(|op| op.msgs_to_correct).sum();
    check(
        message_calls == msgs_to_correct,
        "traced message-kind calls differ from Metrics::msgs_recv_by over correct nodes",
    );

    // Self times. What one span costs inside a real run is measured, not
    // assumed: the traced and untraced engine runs did the same work, so
    // the tracer's in-situ cost per span is their difference over the
    // timed spans (in the tight calibration loop the clock reads pipeline
    // and cost a third less). Of that, the calibrated share
    // `timer_inner_ns / timer_ns` lands inside a span's own duration and
    // is subtracted from it. The engine's self time is what is left of
    // the untraced engine wall, so the parts sum to the run users see.
    let timed_spans: u64 = recorder.runs.iter().map(|run| run.timed_spans).sum();
    let engine_s = |call: &WiredCall| call.instances.iter().map(|i| i.engine_s).sum::<f64>();
    let (traced_engine_s, plain_engine_s) = (engine_s(&traced), engine_s(&plain));
    let in_situ_ns = ((traced_engine_s - plain_engine_s) * 1e9 / timed_spans as f64).max(0.0);
    let inner_ns = in_situ_ns * ratio(timer_inner_ns, timer_ns);
    let self_s = |agg: &Agg| (agg.total_ns as f64 - agg.calls as f64 * inner_ns).max(0.0) / 1e9;
    let mut handlers_self_s = 0.0;
    for (name, agg) in KIND_NAMES.iter().zip(&kinds) {
        let layer = if *name == "on_restart" {
            "recovery"
        } else {
            "core"
        };
        put(&format!("{layer}.{name}_s"), self_s(agg));
        put(&format!("{layer}.{name}_calls"), agg.calls as f64);
        handlers_self_s += self_s(agg);
    }
    put("core.adversary_s", self_s(&adversary));
    put("core.adversary_consults", adversary.calls as f64);
    put("trace.timer_in_situ_ns", in_situ_ns);
    let engine_self_s = (plain_engine_s - handlers_self_s - self_s(&adversary)).max(0.0);
    let delivered: u64 = public.ops.iter().map(|op| op.msgs_delivered).sum();
    put("core.handlers_share", ratio(handlers_self_s, plain.wall_s));
    put(
        "core.fw1_per_pull",
        ratio(
            kinds[Kind::Fw1 as usize].calls as f64,
            kinds[Kind::Pull as usize].calls as f64,
        ),
    );
    put(
        "core.msgs_per_decision",
        ratio(delivered as f64, public.decisions() as f64),
    );
    put("sim.engine_self_s", engine_self_s);
    put(
        "sim.engine_ns_per_msg",
        ratio(engine_self_s * 1e9, delivered as f64),
    );
    put("sim.msgs_per_s", ratio(delivered as f64, public.wall_s));
    put("sim.msgs_delivered", delivered as f64);
    put(
        "sim.msgs_dropped",
        public.ops.iter().map(|op| op.msgs_dropped).sum::<u64>() as f64,
    );
    put(
        "sim.steps",
        public.ops.iter().map(|op| op.steps).sum::<u64>() as f64,
    );
    put(
        "sim.all_decided_at",
        public
            .ops
            .iter()
            .map(|op| op.all_decided_at.unwrap_or(op.steps))
            .max()
            .unwrap_or(0) as f64,
    );
    put("trace.overhead_ratio", ratio(traced.wall_s, plain.wall_s));
    let plain_setup_s: f64 = plain.instances.iter().map(|i| i.setup.total_s()).sum();
    put(
        "scenario.overhead_s",
        public.wall_s - plain_setup_s - plain_engine_s,
    );

    // Set-up stages, from the untraced hand-wired call's first instance.
    let setup = plain.instances[0].setup;
    put("ae.precondition_s", setup.precondition_s);
    put("core.harness_build_s", setup.harness_build_s);
    put("core.run_state_s", setup.run_state_s);

    // Sampler caches over the whole call (one arena per call).
    let (push, pull, poll) = (
        plain.state.push_cache_stats(),
        plain.state.pull_cache_stats(),
        plain.state.poll_cache_stats(),
    );
    put("samplers.push_cache_hit_ratio", hit_ratio(push));
    put("samplers.pull_cache_hit_ratio", hit_ratio(pull));
    put("samplers.poll_cache_hit_ratio", hit_ratio(poll));
    put("samplers.cache_misses", (push.1 + pull.1 + poll.1) as f64);
    if let Some(Outcome::Chain(chain)) = &outcome {
        check(
            (
                chain.push_cache_stats,
                chain.pull_cache_stats,
                chain.poll_cache_stats,
            ) == (push, pull, poll),
            "hand-wired cache counters differ from ServiceRun's",
        );
    }

    micro_drives(workload, &scenario, seed0, &mut put);

    // Recovery against the same seed without the crash schedule.
    let mut rejoin_steps_max = 0.0;
    let mut recovery_overhead = 0.0;
    if workload.crash_window.is_some() {
        if let Some(Outcome::Single(run)) = &outcome {
            rejoin_steps_max = run
                .rejoin()
                .and_then(|report| report.max_rejoin_steps())
                .map_or(0.0, |steps| steps as f64);
        }
        let fault_free = Workload {
            crash_window: None,
            ..workload.clone()
        };
        let (baseline, _) = timed_call(&fault_free, &fault_free.scenario(), seed0);
        check(
            baseline.failed_ops(ops_per_call) == 0,
            "fault-free twin broke an invariant",
        );
        recovery_overhead = ratio(public.wall_s, baseline.wall_s);
    }
    put("recovery.rejoin_steps_max", rejoin_steps_max);
    put("recovery.overhead_ratio", recovery_overhead);

    // Service chain against fresh replays of two of its instances.
    let mut service_vs_fresh = 0.0;
    if workload.service.is_some() {
        let replays: Vec<f64> = (1..=2usize.min(ops_per_call - 1))
            .map(|k| {
                let start = Instant::now();
                let replay = scenario.run_instance(instance_seed(seed0, k), seed0);
                let wall_s = start.elapsed().as_secs_f64();
                let same = replay.is_ok_and(|run| {
                    public
                        .ops
                        .get(k)
                        .is_some_and(|op| evaluate(&run.run, run.gstring()).digest == op.digest)
                });
                check(same, "chained instance differs from its fresh replay");
                wall_s
            })
            .collect();
        if !replays.is_empty() {
            let fresh = replays.iter().sum::<f64>() / replays.len() as f64;
            service_vs_fresh = ratio(public.wall_s / ops_per_call as f64, fresh);
        }
    }
    put("scenario.service_vs_fresh_ratio", service_vs_fresh);

    std::fs::create_dir_all(out_dir).expect("create the trace directory");
    let path = out_dir.join(format!("trace_{}.json", workload.name));
    std::fs::write(&path, span_tree(&traced, &recorder, run_started).to_json())
        .expect("write the span tree");

    let attempted = 4 * ops_per_call;
    let failed = failed.min(attempted);
    PassResult {
        correct: failed == 0,
        attempted: attempted as u64,
        failed: failed as u64,
        metrics: per_layer()
            .into_iter()
            .map(|def| {
                let value = *m
                    .get(&def.name)
                    .unwrap_or_else(|| panic!("no value for per-layer metric {}", def.name));
                (def.name, value, def.unit)
            })
            .collect(),
    }
}
