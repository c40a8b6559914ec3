//! # fast-byzantine-agreement
//!
//! A full reproduction of **“Fast Byzantine Agreement”** (Braud-Santoni,
//! Guerraoui, Huc — PODC 2013): the first Byzantine Agreement protocol
//! with poly-logarithmic communication *and* time.
//!
//! ## Quickstart: describe a run, then run it
//!
//! Every execution mode — AER on a synthetic precondition, the
//! almost-everywhere substrate, the composed BA protocol, the Figure 1
//! baselines, under any adversary and either timing model — is one
//! declarative [`Scenario`]:
//!
//! ```
//! use fba::scenario::{Phase, Scenario};
//! use fba::sim::{AdversarySpec, NetworkSpec};
//!
//! // 64 nodes, 80% of which already know gstring; 9 corrupted nodes run
//! // the coherent bad-string campaign over an asynchronous network.
//! let outcome = Scenario::new(64)
//!     .faults(9)
//!     .adversary(AdversarySpec::BadString)
//!     .network(NetworkSpec::Async { max_delay: 2 })
//!     .phase(Phase::aer(0.8))
//!     .run(42)
//!     .expect("valid scenario")
//!     .into_aer();
//!
//! // Lemma 7: nobody decides the campaign string.
//! assert_eq!(outcome.wrong_decisions(), 0);
//! assert_eq!(outcome.run.unanimous(), Some(outcome.gstring()));
//! ```
//!
//! Adversaries and networks are *data* with a stable string grammar
//! (`silent:9`, `flood`, `corner:512`, `async:3`, …), so the same
//! scenario is expressible from the command line:
//!
//! ```bash
//! paperbench scenario --n 64 --faults 9 --adversary bad-string --network async:2
//! ```
//!
//! ## Mixed adversaries: composed fault schedules
//!
//! A `sched:` spec assigns a different strategy to each step window —
//! the fault-schedule matrix an adaptive-behaviour adversary implies.
//! Each window's strategy keeps its own state for the whole run, and a
//! single-window `sched:[0..]X` is bit-identical to the bare `X`:
//!
//! ```
//! use fba::scenario::{Phase, Scenario};
//! use fba::sim::AdversarySpec;
//!
//! // A push-flood volley, then equivocation, then the cornering attack.
//! let sched: AdversarySpec = "sched:[0..1]flood;[1..3]equivocate:4;[3..]corner:64"
//!     .parse()
//!     .expect("valid schedule");
//! let outcome = Scenario::new(64)
//!     .adversary(sched)
//!     .phase(Phase::aer(0.8))
//!     .run(9)
//!     .expect("valid scenario")
//!     .into_aer();
//! assert_eq!(outcome.wrong_decisions(), 0);
//! assert!(outcome.corner.is_some(), "the corner window still reports");
//! ```
//!
//! Windows are half-open `[start..end)` (only the last may be open-ended),
//! must be ordered and non-overlapping, and cannot nest; malformed
//! schedules are rejected at parse/construction time. The `paperbench
//! gauntlet` battery sweeps a schedule matrix across system sizes.
//!
//! See [`scenario`] for the full builder surface (phases, observers,
//! tuning knobs) and [`sim::AdversarySpec`] for the adversary grammar
//! (including [`sim::ScheduleSpec`] and [`sim::Window`]).
//!
//! ## Batteries: experiments as axes × metrics × reporters
//!
//! One level up, a whole *experiment* is one declarative
//! [`Battery`]: the cell grid (axes product), a declared
//! seed policy (surfaced in the table notes and the JSON records — never
//! a silent `take(3)`), a pure per-cell runner, `Option`-aware
//! aggregation (`n/a`, never a fake `0`), and two reporters — a Markdown
//! table plus one structured JSON record per cell:
//!
//! ```
//! use fba::bench::{product2, Agg, Battery, Scope, SeedPolicy};
//!
//! let report = Battery::new(
//!     "demo",
//!     "demo — score per (n, delay)",
//!     |&(n, delay): &(usize, u64), seed| (n as u64 + delay + seed) as f64,
//! )
//! .axes(&["n", "delay"], |&(n, d)| vec![n.to_string(), d.to_string()])
//! .points(product2(&[64, 128], &[1, 4]))
//! .point_n(|&(n, _)| n)
//! .seeds(SeedPolicy::ThinAt { threshold: 4096, max: 3 })
//! .col("score", Agg::Mean, |&score| Some(score))
//! .report(Scope::Quick);
//! assert_eq!(report.table.rows.len(), 4);
//! assert!(report.cells_json.contains("\"battery\": \"demo\""));
//! ```
//!
//! Every `paperbench` experiment id (the workload and host-time
//! batteries included) is built on this API, and `paperbench sweep --axis n=256,1024 --axis
//! adversary=silent,flood --metric rounds,bits` runs an arbitrary
//! axes × metrics battery from the command line — axis values parse
//! through the spec grammar above. The `recovery` battery (attack
//! window, then quiet, measuring re-convergence) is pure spec rows on
//! the same API.
//!
//! ## Crate map
//!
//! * [`scenario`] — **the public entry point for executing runs**: the
//!   [`Scenario`] builder, resolved once ([`Scenario::validate`] raises
//!   exactly the rejections a run would), and its typed outcomes.
//! * [`sim`] — deterministic message-passing simulator (synchronous
//!   rounds, adversarial asynchrony, full-information rushing/non-rushing
//!   Byzantine adversaries, bit-exact communication accounting) plus the
//!   [`sim::AdversarySpec`]/[`sim::NetworkSpec`] grammar and the
//!   read-only [`sim::Observer`] instrumentation interface; one step
//!   loop ([`sim::run_session`]) in six named stages.
//! * [`samplers`] — the sampler family of §2.2: push quorums `I`, pull
//!   quorums `H`, poll lists `J`, with empirical Lemma 1 / Lemma 2
//!   verification.
//! * [`ae`] — the almost-everywhere agreement substrate (KSSV06-style
//!   committee tree) plus synthetic precondition injection.
//! * [`core`] — **AER**, the paper's almost-everywhere → everywhere
//!   protocol (push §3.1.1 + pull Algorithms 1–3), the composed **BA**
//!   protocol, and the Byzantine attack suite (flooding, equivocation,
//!   bad-string campaigns, the Lemma 6 cornering attack).
//! * [`recovery`] — the crash–restart fault family: the `crash:[3..7]64`
//!   schedule grammar, the checkpoint/WAL layer nodes persist phase
//!   progress into, and rejoin-cost accounting for restarted nodes.
//! * [`baselines`] — Figure 1 comparison protocols (KLST11-style
//!   diffusion, flooding, Ben-Or, Phase-King).
//! * [`bench`](mod@bench) — the declarative [`Battery`] API
//!   (axes × metrics × reporters), every paper experiment built on it,
//!   the deterministic parallel sweep runner, and the `paperbench` CLI.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use fba_ae as ae;
pub use fba_baselines as baselines;
pub use fba_bench as bench;
pub use fba_core as core;
pub use fba_recovery as recovery;
pub use fba_samplers as samplers;
pub use fba_scenario as scenario;
pub use fba_sim as sim;

pub use fba_bench::{Agg, Battery, Report, SeedPolicy};
pub use fba_recovery::{CrashSpec, RejoinReport};
pub use fba_scenario::{Baseline, Phase, PreconditionSpec, Scenario, ScenarioOutcome};
pub use fba_sim::{AdversarySpec, NetworkSpec, ScheduleSpec, Window};
