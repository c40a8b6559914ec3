//! # fba-scenario — one typed builder for every run
//!
//! Every execution mode of the *Fast Byzantine Agreement* reproduction —
//! AER on a synthetic precondition, the almost-everywhere substrate
//! alone, the composed end-to-end BA protocol, and the Figure 1 baseline
//! protocols — is described by one declarative [`Scenario`] and executed
//! by [`Scenario::run`]:
//!
//! ```
//! use fba_scenario::{Phase, Scenario};
//! use fba_sim::{AdversarySpec, NetworkSpec};
//!
//! let outcome = Scenario::new(64)
//!     .adversary(AdversarySpec::Silent { t: None })
//!     .network(NetworkSpec::Async { max_delay: 2 })
//!     .phase(Phase::aer(0.8))
//!     .run(7)
//!     .expect("valid scenario")
//!     .into_aer();
//! assert_eq!(outcome.run.unanimous(), Some(outcome.gstring()));
//! ```
//!
//! A scenario is **resolved once**. One private resolver (`plan.rs`)
//! checks the system size, the crash schedule, whether the phase can
//! field the adversary, the derived [`fba_core::AerConfig`], every
//! corruption budget (against `n` and, across `sched:` windows, against
//! each other) and the delay bound, and builds whatever does not depend
//! on the seed. [`Scenario::validate`] *is* that resolver and every run
//! entry point starts from it, so `validate()` raises exactly the
//! rejections `run()` would, and no spec string reaches a panic further
//! down. Per seed the builder then synthesises the precondition, picks
//! the engine from the [`NetworkSpec`] and builds the adversary from the
//! data-level [`AdversarySpec`] (via the `fba-core` registry). New
//! fault/timing combinations are therefore *data*, not new modules: the
//! `paperbench scenario` subcommand runs any spec from the command line,
//! and sweeps enumerate specs instead of duplicating wiring. That
//! includes composed fault schedules —
//! `sched:[0..5]silent:9;[5..]corner:512` swaps the active strategy at
//! step-window boundaries (windowed dispatch in
//! `fba_core::adversary::Composed`), and a single-window schedule is
//! bit-identical to the bare spec.
//!
//! Determinism: a scenario outcome is a pure function of
//! `(scenario, seed)` (pinned by the `scenario_equivalence` integration
//! suite).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

mod error;
mod outcome;
mod plan;
mod run;
mod spec;

use std::collections::BTreeSet;

use fba_recovery::CrashSpec;
use fba_samplers::GString;
use fba_sim::{AdversarySpec, NetworkSpec, NodeId, Step};

pub use error::ScenarioError;
pub use outcome::{
    AeRun, AerRun, BaReport, BaselineOutcome, BaselineRun, ComposedRun, ScenarioOutcome,
    ServiceInstance, ServiceRun,
};
pub use spec::{Baseline, Phase, PollTimeoutSpec, PreconditionSpec};

/// A declarative run description — see the crate docs.
///
/// Build with [`Scenario::new`], refine with the chainable setters, and
/// execute with [`Scenario::run`] (or [`Scenario::run_observed`] to
/// attach read-only instrumentation). All setters are data; nothing is
/// constructed until `run`.
#[derive(Clone, Debug)]
pub struct Scenario {
    n: usize,
    faults: Option<usize>,
    faults_spec: Option<CrashSpec>,
    adversary: AdversarySpec,
    ae_adversary: AdversarySpec,
    network: NetworkSpec,
    phase: Phase,
    strict: bool,
    overload_cap: Option<u64>,
    quorum_size: Option<usize>,
    poll_timeout: PollTimeoutSpec,
    record_transcript: bool,
    bad_string: Option<GString>,
    rigged: BTreeSet<NodeId>,
    rigged_value: u64,
    service: Option<(usize, Step)>,
}

impl Scenario {
    /// The largest supported system size. A full AER run queues
    /// `Θ(n·d³)` messages in its pull wave — about 4 GB of resident
    /// queue and arena state at n = 16384 and ~2.7× per doubling — so
    /// sizes past this bound are rejected up front
    /// ([`ScenarioError::UnsupportedScale`]) instead of dying by OOM
    /// deep inside a sweep.
    pub const MAX_N: usize = 1 << 16;

    /// A fault-free synchronous AER scenario for `n` nodes with the
    /// default precondition (80% knowing, random junk elsewhere).
    #[must_use]
    pub fn new(n: usize) -> Self {
        Scenario {
            n,
            faults: None,
            faults_spec: None,
            adversary: AdversarySpec::None,
            ae_adversary: AdversarySpec::None,
            network: NetworkSpec::Sync,
            phase: Phase::Aer {
                precondition: PreconditionSpec::default(),
            },
            strict: false,
            overload_cap: None,
            quorum_size: None,
            poll_timeout: PollTimeoutSpec::default(),
            record_transcript: false,
            bad_string: None,
            rigged: BTreeSet::new(),
            rigged_value: 0,
            service: None,
        }
    }

    /// Sets the corruption budget `t` the adversary works with, in every
    /// phase. Defaults to [`fba_core::default_faults`] (`⌊0.15·n⌋`) — for
    /// the Ben-Or and Phase-King baselines, to their own parameters'
    /// bounds. The protocol never reads `t`, which is what lets boundary
    /// experiments field out-of-contract coalitions.
    #[must_use]
    pub fn faults(mut self, t: usize) -> Self {
        self.faults = Some(t);
        self
    }

    /// Sets the crash–restart fault schedule (the `crash:[3..7]64`
    /// grammar — see [`CrashSpec`]). Per window, the victim set is
    /// sampled from the coalition seed (so a service run crashes the
    /// same nodes in every instance, like the corrupt coalition); the
    /// checkpoint/WAL layer is enabled on every node; crashed nodes go
    /// dark for the window (deliveries to and from them are dropped,
    /// callbacks suspended) and restart at window end from their last
    /// checkpoint, then state-sync by re-polling their checkpointed
    /// candidates against fresh peer samples. [`Phase::Aer`] runs crash
    /// plans, and so does [`Phase::Composed`] in its AER half (windows
    /// count from that half's step 0); `ae` and the baselines have no
    /// checkpoint layer and reject a non-empty spec. An empty spec is the
    /// no-fault baseline, bit-identical to never calling this (pinned by
    /// the equivalence suite).
    #[must_use]
    pub fn faults_spec(mut self, spec: CrashSpec) -> Self {
        self.faults_spec = Some(spec);
        self
    }

    /// Sets the Byzantine strategy (see [`AdversarySpec`] for the
    /// grammar), including composed fault schedules (`sched:…`, one
    /// strategy per step window). For [`Phase::Composed`] this is the
    /// AER-phase strategy; the almost-everywhere phase uses
    /// [`Scenario::ae_adversary`].
    #[must_use]
    pub fn adversary(mut self, spec: AdversarySpec) -> Self {
        self.adversary = spec;
        self
    }

    /// Sets the almost-everywhere-phase strategy for [`Phase::Composed`]
    /// runs (must be `none` or `silent`). Defaults to `none`.
    #[must_use]
    pub fn ae_adversary(mut self, spec: AdversarySpec) -> Self {
        self.ae_adversary = spec;
        self
    }

    /// Sets the timing model. Defaults to [`NetworkSpec::Sync`].
    #[must_use]
    pub fn network(mut self, network: NetworkSpec) -> Self {
        self.network = network;
        self
    }

    /// Sets the protocol phase. Defaults to [`Phase::Aer`] with the
    /// default precondition.
    #[must_use]
    pub fn phase(mut self, phase: Phase) -> Self {
        self.phase = phase;
        self
    }

    /// Strict paper mode: one poll per candidate, no repair (see
    /// [`AerConfig::strict`](fba_core::AerConfig::strict)).
    #[must_use]
    pub fn strict(mut self) -> Self {
        self.strict = true;
        self
    }

    /// Overrides the Algorithm 3 overload cap.
    #[must_use]
    pub fn overload_cap(mut self, cap: u64) -> Self {
        self.overload_cap = Some(cap);
        self
    }

    /// Overrides the quorum/poll-list size `d`.
    #[must_use]
    pub fn quorum_size(mut self, d: usize) -> Self {
        self.quorum_size = Some(d);
        self
    }

    /// Sets how `poll_timeout` derives from the scenario (see
    /// [`PollTimeoutSpec`]). Defaults to the config value unchanged.
    #[must_use]
    pub fn poll_timeout(mut self, spec: PollTimeoutSpec) -> Self {
        self.poll_timeout = spec;
        self
    }

    /// Records every envelope into the outcome's transcript (costs
    /// memory; needed by the trace analyses).
    #[must_use]
    pub fn record_transcript(mut self, record: bool) -> Self {
        self.record_transcript = record;
        self
    }

    /// Puts the scenario in sustained-service mode: `instances` chained
    /// agreement instances at an offered load of one new client value
    /// every `interval` steps, executed by [`Scenario::run_service`].
    /// Instance `k`'s value arrives at step `k · interval` and starts
    /// as soon as the engine is free (instances never overlap — the
    /// engine is a serial resource; a value that arrives mid-instance
    /// queues until the current instance finishes).
    ///
    /// Membership knowledge, interned quorum slots, sampler caches, and
    /// the vote arenas persist across instances; per-instance protocol
    /// state is reset. The corrupt coalition is pinned across the whole
    /// service run, while per-instance adversary strategy state (e.g.
    /// `sched:` windows) restarts each instance.
    #[must_use]
    pub fn service(mut self, instances: usize, interval: Step) -> Self {
        self.service = Some((instances, interval));
        self
    }

    /// Sets the campaign string used by the `flood` and `bad-string`
    /// strategies. Defaults to the first non-`gstring` assignment of the
    /// precondition (the coherent bogus block under
    /// [`fba_ae::UnknowingAssignment::SharedAdversarial`]), falling back to a
    /// seed-derived random string when everyone knows `gstring`.
    #[must_use]
    pub fn bad_string(mut self, bad: GString) -> Self {
        self.bad_string = Some(bad);
        self
    }

    /// Rigs the given nodes of a [`Phase::Ae`] run (or of a
    /// [`Phase::Composed`] run's almost-everywhere half) to contribute the
    /// constant `value` instead of private randomness (the semi-honest
    /// bias of the gstring-entropy experiment).
    #[must_use]
    pub fn rig(mut self, rigged: BTreeSet<NodeId>, value: u64) -> Self {
        self.rigged = rigged;
        self.rigged_value = value;
        self
    }
}
