//! One call through the public entry point, and what it is checked for.
//!
//! A *call* is one `Scenario::run` or one whole `Scenario::run_service`
//! chain; an *op* is one agreement instance inside it. Every op is
//! checked against the protocol's invariants — every correct node
//! decided, nobody decided a wrong value, the decision is unanimously
//! `gstring` — and reduced to a digest so that runs of the same binary
//! can be compared with each other. Expected digests are not pinned here:
//! a later protocol fix must be able to pass.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use fba_core::AerMsg;
use fba_samplers::GString;
use fba_scenario::{Scenario, ScenarioError};
use fba_sim::{NodeId, RunOutcome, Step};

use crate::workload::Workload;

/// One agreement instance, checked and reduced.
#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    /// Correct nodes that decided.
    pub decisions: u64,
    /// Step at which the last correct node decided — the paper's time
    /// bound, simulated. `None` if some correct node never decided.
    pub all_decided_at: Option<Step>,
    /// Mean step at which a correct node decided (over those that did).
    pub mean_decided_at: f64,
    /// Correct-node bits sent ÷ n — the paper's communication bound.
    pub amortized_bits: f64,
    /// Messages delivered (to any node).
    pub msgs_delivered: u64,
    /// Messages delivered to correct nodes, i.e. `on_message` calls.
    pub msgs_to_correct: u64,
    /// Deliveries dropped by dark windows.
    pub msgs_dropped: u64,
    /// Steps the engine executed.
    pub steps: Step,
    /// Whether every invariant held.
    pub ok: bool,
    /// Outcome digest (see [`digest`]).
    pub digest: u64,
}

/// Reduces an engine outcome to an [`Op`].
#[must_use]
pub fn evaluate(run: &RunOutcome<GString, AerMsg>, gstring: &GString) -> Op {
    let m = &run.metrics;
    let nodes = || (0..m.n()).map(NodeId::from_index);
    let unanimous_gstring = run.unanimous() == Some(gstring);
    let wrong = run.outputs.values().filter(|v| *v != gstring).count();
    let decided_steps: u64 = run.outputs.keys().filter_map(|id| m.decided_at(*id)).sum();
    Op {
        decisions: m.decided_count(),
        all_decided_at: run.all_decided_at,
        mean_decided_at: decided_steps as f64 / run.outputs.len().max(1) as f64,
        amortized_bits: m.amortized_bits(),
        msgs_delivered: nodes().map(|id| m.msgs_recv_by(id)).sum(),
        msgs_to_correct: nodes()
            .filter(|id| !m.is_corrupt(*id))
            .map(|id| m.msgs_recv_by(id))
            .sum(),
        msgs_dropped: m.msgs_dropped(),
        steps: m.steps,
        ok: run.all_decided() && wrong == 0 && unanimous_gstring,
        digest: digest(run),
    }
}

/// The benchmark-side outcome digest: steps, `all_decided_at`, total
/// messages and bits, dropped deliveries, every node's decision step and
/// every output. Equal digests are what "the same run" means in the
/// determinism checks.
#[must_use]
pub fn digest(run: &RunOutcome<GString, AerMsg>) -> u64 {
    let m = &run.metrics;
    // `DefaultHasher::new()` uses fixed keys, so the digest repeats
    // across processes of the same build.
    let mut h = DefaultHasher::new();
    m.steps.hash(&mut h);
    run.all_decided_at.hash(&mut h);
    m.total_msgs_sent().hash(&mut h);
    m.total_bits_sent().hash(&mut h);
    m.msgs_dropped().hash(&mut h);
    for id in (0..m.n()).map(NodeId::from_index) {
        m.decided_at(id).hash(&mut h);
    }
    run.outputs.hash(&mut h);
    h.finish()
}

/// Folds the op digests of one call into one.
#[must_use]
pub fn call_digest(ops: &[Op]) -> u64 {
    let mut h = DefaultHasher::new();
    for op in ops {
        op.digest.hash(&mut h);
    }
    h.finish()
}

/// One timed call.
#[derive(Clone, Debug)]
pub struct Call {
    /// Wall time of the call, seconds.
    pub wall_s: f64,
    /// The ops it ran; empty when the call returned `Err` or panicked.
    pub ops: Vec<Op>,
}

impl Call {
    /// Ops that broke an invariant; a call that produced no outcome fails
    /// every op it was asked for.
    #[must_use]
    pub fn failed_ops(&self, ops_per_call: usize) -> usize {
        if self.ops.is_empty() {
            ops_per_call
        } else {
            self.ops.iter().filter(|op| !op.ok).count()
        }
    }

    /// Correct-node decisions across the call's ops.
    #[must_use]
    pub fn decisions(&self) -> u64 {
        self.ops.iter().map(|op| op.decisions).sum()
    }
}

/// What a call through the public entry point returns, before reduction.
pub enum Outcome {
    /// `Scenario::run`.
    Single(Box<fba_scenario::AerRun>),
    /// `Scenario::run_service`.
    Chain(fba_scenario::ServiceRun),
}

impl Outcome {
    /// The ops of the call, in execution order.
    #[must_use]
    pub fn ops(&self) -> Vec<Op> {
        match self {
            Outcome::Single(run) => vec![evaluate(&run.run, run.gstring())],
            Outcome::Chain(chain) => chain
                .instances
                .iter()
                .map(|inst| evaluate(&inst.run.run, inst.run.gstring()))
                .collect(),
        }
    }
}

/// Runs the workload once through `Scenario::run` / `run_service`.
///
/// # Errors
///
/// Returns the scenario's own error.
pub fn run_public(
    workload: &Workload,
    scenario: &Scenario,
    seed: u64,
) -> Result<Outcome, ScenarioError> {
    if workload.service.is_some() {
        scenario.run_service(seed).map(Outcome::Chain)
    } else {
        scenario
            .run(seed)
            .map(|outcome| Outcome::Single(Box::new(outcome.into_aer())))
    }
}

/// Times one call. Reduction to ops happens after the clock stops; an
/// `Err` or a panic yields a call with no ops.
#[must_use]
pub fn timed_call(workload: &Workload, scenario: &Scenario, seed: u64) -> (Call, Option<Outcome>) {
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| run_public(workload, scenario, seed)));
    let wall_s = start.elapsed().as_secs_f64();
    let outcome = match outcome {
        Ok(Ok(outcome)) => Some(outcome),
        Ok(Err(err)) => {
            eprintln!("{}: seed {seed}: {err}", workload.name);
            None
        }
        Err(_) => {
            eprintln!("{}: seed {seed}: panicked", workload.name);
            None
        }
    };
    let ops = outcome.as_ref().map_or_else(Vec::new, Outcome::ops);
    (Call { wall_s, ops }, outcome)
}
