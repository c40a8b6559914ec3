//! Every metric the benchmark emits, by name — the one table that
//! `BENCHMARK.json`, the passes and the README glossary must agree with
//! (the test suite holds them to it).

use crate::trace::KIND_NAMES;

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The direction as `BENCHMARK.json` spells it.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: something a user of the simulator sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before the change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, reported per workload with `--trace 0`.
///
/// The bounds on the three host-time metrics are what this host's noise
/// allows, not what one would wish for: ten passes taken within minutes
/// of each other spread by 1 % in a quiet spell and by 15 % in a noisy
/// one (neighbours on the same machine), and a bound inside that range
/// would reject changes that did nothing. Finer claims need the paired
/// runs of `compare`. The simulated metrics are exact per seed; their
/// bounds only have to cover the spread across seeds.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "run_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "decisions_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "ok_ops_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.001,
    },
    EndToEnd {
        name: "sim_steps",
        unit: "steps",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "sim_bits_per_node",
        unit: "bits",
        better: Better::Lower,
        bound: 0.01,
    },
];

/// One per-layer metric, reported per workload with `--trace 1`.
#[derive(Clone, Debug)]
pub struct PerLayer {
    /// Metric name, `<layer>.<what>`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// The per-layer metrics, grouped by crate. Times are host time; counts
/// are exact and repeat bit for bit on the same seed.
#[must_use]
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut out: Vec<PerLayer> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better| {
        out.push(PerLayer {
            name: name.to_string(),
            unit,
            better,
        });
    };

    add("samplers.quorum_eval_ns", "ns", Lower);
    add("samplers.poll_list_ns", "ns", Lower);
    add("samplers.cached_contains_ns", "ns", Lower);
    add("samplers.push_cache_hit_ratio", "ratio", Higher);
    add("samplers.pull_cache_hit_ratio", "ratio", Higher);
    add("samplers.poll_cache_hit_ratio", "ratio", Higher);
    add("samplers.cache_misses", "count", Lower);

    add("ae.precondition_s", "s", Lower);

    add("core.harness_build_s", "s", Lower);
    add("core.run_state_s", "s", Lower);
    // `on_restart` is the last kind and belongs to `fba-recovery` below.
    for kind in &KIND_NAMES[..KIND_NAMES.len() - 1] {
        add(&format!("core.{kind}_s"), "s", Lower);
        add(&format!("core.{kind}_calls"), "count", Lower);
    }
    add("core.handlers_share", "ratio", Lower);
    add("core.fw1_per_pull", "ratio", Lower);
    add("core.msgs_per_decision", "ratio", Lower);
    add("core.adversary_s", "s", Lower);
    add("core.adversary_consults", "count", Lower);

    add("sim.engine_self_s", "s", Lower);
    add("sim.engine_ns_per_msg", "ns", Lower);
    add("sim.msgs_per_s", "1/s", Higher);
    add("sim.msgs_delivered", "count", Lower);
    add("sim.msgs_dropped", "count", Lower);
    add("sim.steps", "steps", Lower);
    add("sim.all_decided_at", "steps", Lower);
    add("sim.null_ns_per_msg", "ns", Lower);
    add("sim.calendar_bulk_ns_per_item", "ns", Lower);
    add("sim.calendar_sched_ns_per_item", "ns", Lower);

    add("recovery.on_restart_s", "s", Lower);
    add("recovery.on_restart_calls", "count", Lower);
    add("recovery.rejoin_steps_max", "steps", Lower);
    add("recovery.overhead_ratio", "ratio", Lower);
    add("recovery.append_ns", "ns", Lower);
    add("recovery.restore_ns", "ns", Lower);

    add("scenario.overhead_s", "s", Lower);
    add("scenario.service_vs_fresh_ratio", "ratio", Lower);

    add("trace.timer_ns", "ns", Lower);
    add("trace.timer_in_situ_ns", "ns", Lower);
    add("trace.overhead_ratio", "ratio", Lower);
    out
}

/// What one pass over one workload produced: the contract's result line.
#[derive(Clone, Debug, PartialEq)]
pub struct PassResult {
    /// Whether every op passed every check.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed an invariant or a determinism check.
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl PassResult {
    /// The result as the single-line JSON object the contract asks for.
    /// Values print with every digit `f64` carries.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The value of metric `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}
