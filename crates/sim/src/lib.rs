//! # fba-sim — deterministic network simulator
//!
//! The execution substrate for the *Fast Byzantine Agreement* (PODC 2013)
//! reproduction: a fully connected, reliable, authenticated message-passing
//! network of `n` nodes (§2.1 of the paper) with
//!
//! * **synchronous** executions — a message sent during step `r` is
//!   delivered during step `r + 1`;
//! * **asynchronous** executions — a coordinated adversary schedules
//!   delivery delays (bounded, preserving reliability) and reorders
//!   deliveries within a step;
//! * a **full-information, non-adaptive Byzantine adversary** that plays
//!   all corrupt nodes, observes every message, and may be *rushing*
//!   (sees correct nodes' current-step messages before choosing its own)
//!   or *non-rushing*;
//! * per-node **bit and message accounting** matching the paper's
//!   communication-complexity metric (total bits / n, plus load-balance
//!   summaries for Figure 1a's "Load-Balanced" row).
//!
//! Runs are pure functions of a 64-bit master seed, so every experiment in
//! the repository replays exactly.
//!
//! ## Step structure
//!
//! [`run_session`] is the only step loop. Before step 0 the adversary
//! picks the corrupt set ([`Adversary::corrupt`]) and the factory builds
//! one state machine per correct node. Every step then runs six stages,
//! in this order (the engine's private methods carry the same names):
//!
//! 1. `crash_transitions` — crash plans only: restarts
//!    ([`Protocol::on_restart`], which may send) before new crashes
//!    ([`Protocol::on_crash`]).
//! 2. `step_callbacks` — [`Protocol::on_start`] at step 0,
//!    [`Protocol::on_step`] later, in node order, skipping dark nodes.
//!    A callback of any stage sends by the run ([`Context::multicast`];
//!    [`Context::send`] is the run of one).
//! 3. `deliver_due` — the deliveries scheduled for this step, in
//!    `(priority, send order)` order; anything to or from a dark node is
//!    dropped and counted. A single envelope is one
//!    [`Protocol::on_message`]. A batch is delivered run by run, in send
//!    order: each run — one multicast as its sender made it: one
//!    payload, its recipient list minus the dark ones; a part run, part
//!    by part — is one [`Protocol::deliver_run`] call over the node
//!    table, whose default
//!    is `on_message` per recipient in list order. The engine keeps the
//!    accounting and the dark filter on its side of the call, and ships
//!    what each recipient sent through its [`RunContext::context`] as
//!    that recipient's outbox as the context closes — when the next
//!    recipient's opens, a fan-in is pushed or the call returns — so an
//!    override can only save work, not reorder it. What several
//!    recipients send through [`RunContext::fan_in`] — one payload, one
//!    destination — ships as one fan-in in its place among those
//!    outboxes, and is delivered sender by sender, one `on_message` per
//!    live sender.
//! 4. `adversary_turn` — [`Adversary::act`]; a rushing adversary is shown
//!    the sends of stages 1–3.
//! 5. `schedule_sends` — every envelope sent this step, in send order, is
//!    put to [`Adversary::delay`] and then [`Adversary::priority`]; then
//!    [`Adversary::observe`] and [`Observer::on_step`] see the whole
//!    step — stage 4's view with the adversary's own sends behind it;
//!    then the sends move into the calendar, to be delivered within
//!    `max_delay` steps.
//! 6. `track_decisions` — [`Protocol::output`] of every undecided node;
//!    [`Observer::on_decision`] for each new one.
//!
//! Once every correct node has decided the run *drains*: stages 1–3 and 6
//! continue until the calendar is empty (or `drain_steps` pass), stage 4
//! is skipped and stage 5 no longer consults the adversary.
//! [`Observer::on_final`] closes the run. The *reference engine*
//! (`tests/support/reference.rs`: test-only, one envelope per message in
//! one ordered map, one `on_message` per delivery, nothing reused or
//! skipped) is the executable form of these six stages; the literal
//! call-order tables in `tests/engine_props.rs` pin it call by call, and
//! it pins [`run_session`] everywhere else.
//!
//! ## Determinism contract
//!
//! Every performance mechanism in this workspace is *outcome-invariant* by
//! construction, so speed never trades against replayability:
//!
//! * **Event queue** — the engine schedules deliveries in a
//!   [`calendar::CalendarQueue`] ring buffer. It preserves the exact
//!   delivery order of the ordered-map queue it replaced (step order, then
//!   `(priority, insertion order)` within a step); the randomized
//!   equivalence test in `tests/calendar_equiv.rs` checks this against a
//!   `BTreeMap` reference model.
//! * **Scratch reuse** — per-step send/delivery buffers are recycled, not
//!   reallocated. Buffer capacity is invisible to protocol logic, and the
//!   adversary callback order (`delay` then `priority` per envelope in
//!   send order, then `observe`) is unchanged, so stateful adversaries see
//!   the same call sequence.
//! * **Memoization** — quorum caching in `fba-samplers` memoizes pure
//!   functions of `(public seed, string, node)`; a cache hit returns the
//!   same bytes the sampler would recompute.
//! * **Parallelism** — experiment sweeps fan out *whole runs*, each a pure
//!   function of `(config, seed)`, and aggregate results by input index.
//!   Thread count and interleaving cannot affect any run's RNG streams,
//!   so parallel output equals serial output bit for bit.
//! * **Batched bulk lane** — a callback's outbox *is* batch storage
//!   ([`Runs`]: per [`Context::multicast`] one stored payload and a copy
//!   count, plus one flat recipient list), and an outbox of two or more
//!   messages ships as it stands, as one batch on the calendar's bulk
//!   lane, instead of per-message envelopes (a lone message stays an
//!   envelope). Nothing is cloned or compared on the way, and how a
//!   sender cut its sends into runs is invisible: `multicast(&[a, b], m)`
//!   and `send(a, m); send(b, m)` are the same two envelopes. So is how
//!   a run stores its messages: a part run ([`Context::multicast_parts`])
//!   stores one payload, a part function and per part a tag and a handle
//!   on a list the sender shares, and each part is the same envelopes as
//!   a multicast of `part(&msg, tag)` over a copy of its list — built
//!   from the stored payload wherever the engine reads the run (views,
//!   accounting, delivery, splits). The other
//!   direction is framing too: a [`RunContext::fan_in`] — one payload
//!   from several recipients of one run to one node — is one stored
//!   payload and a sender list, and is the same envelopes as each sender
//!   sending alone. Batches and fan-ins unpack in exact send order at
//!   delivery, every per-envelope consumer (rushing views, scheduling
//!   adversaries, observers, transcripts) is shown one flattened
//!   per-envelope view — built at most once a step, the adversary's own
//!   sends appended to it — and metrics count *logical* messages: a
//!   batch of `k` counts `k` messages and `k×` bits, a fan-in one message
//!   per sender. There is no switch: on a step whose schedule the
//!   adversary made non-uniform every delivery is keyed because the
//!   engine sees that it is, and a batch or fan-in whose envelopes share
//!   one `(delay, priority)` stays whole (every batch of every shipped
//!   strategy does); one whose envelopes do not is keyed envelope by
//!   envelope, which is the reference order, `(due, priority, send
//!   sequence)`.
//!   The pin is the reference engine, which never batches — full
//!   [`Metrics`] equality, outputs and transcripts over every adversary
//!   spec × network × crash cell (`tests/engine_differential.rs` in the
//!   facade crate) and over random toy runs (`tests/engine_props.rs`).
//! * **Run-level delivery** — a protocol may override
//!   [`Protocol::deliver_run`] to handle a multicast once instead of once
//!   per recipient (`fba-core` does, for `Fw1`, and sends the recipients'
//!   relays as one fan-in). The contract is the
//!   default loop's observable behaviour: same state changes, same sends
//!   from the same recipients in the same order, same RNG draws.
//!   Accounting, dark-recipient drops and outbox sealing stay in the
//!   engine, and the default-hook call order is pinned by the step
//!   tables in `tests/engine_props.rs`. The reference engine never calls
//!   the hook, so the same differential matrix is what holds `fba-core`'s
//!   override to the per-recipient loop.
//! * **Instance sequencing** — service mode chains agreement instances
//!   over one reusable [`EngineSession`] and shared protocol arenas. The
//!   sequencing rules: instance `0` runs with the service seed itself,
//!   instance `k > 0` with [`rng::instance_seed`]`(seed, k)` (domain-
//!   separated, so instances are independent draws); the *adversary*
//!   stream is derived from its own seed — the service seed for every
//!   instance, pinning one corrupt coalition across the run. What
//!   persists across instances is only what is outcome-invariant: engine
//!   scratch (cleared by [`EngineSession`] reuse — capacity is
//!   invisible), pure memoization caches, and interned-slot arenas whose
//!   per-instance state is reset at instance start. Every instance is
//!   therefore bit-identical to a fresh-engine run with the same
//!   `(value seed, adversary seed)` — pinned by
//!   `tests/service_determinism.rs`, including the repeated-value-seed
//!   battery that forces maximal slot collisions, and cache hit/miss
//!   counters prove the persistence is real rather than silently
//!   rebuilt. Arrival schedules only move service-clock bookkeeping,
//!   never outcomes.
//! * **Dark windows** — the crash–restart fault family
//!   ([`EngineConfig::crash`], resolved plans in [`CrashPlan`]) gates
//!   every one of its checks on the plan being non-empty: a run carrying
//!   `None` *or* an empty plan executes the exact pre-crash instruction
//!   sequence, so the no-fault path stays bit-identical to baseline
//!   (pinned by `tests/scenario_equivalence.rs`). With outages present,
//!   crash and restart transitions happen at fixed plan-determined steps
//!   (restarts before crashes, before the step's regular callbacks),
//!   dark nodes are skipped in deterministic node order, and dropped
//!   deliveries are counted in [`Metrics::msgs_dropped`] — a crashed run
//!   is a pure function of `(config, plan, master seed)`.
//! * **One executor** — [`run_session`] is the only step loop, and a run
//!   executes single-threaded; the one parallel axis is *across* runs
//!   (see **Parallelism** above). The README's "Why there is no threaded
//!   backend" carries the measurements behind that choice.
//!
//! ### Static enforcement
//!
//! The pins above *sample* the contract per seed. Its preconditions —
//! no randomized-hasher containers, no wall clock or ad-hoc RNG
//! construction, parallelism only behind the sanctioned sweep fan-out,
//! one audited `unsafe` site, no ambient `env::var` reads — are rules
//! D1–D7, *statically enforced* by the compiler: the workspace
//! `clippy.toml` disallows the paths, rustc's `unsafe_code` and clippy's
//! `print_stdout` lints are set in every crate root, and CI runs clippy
//! with `-D warnings`. Three exemptions live in this crate, each an
//! `expect`/`allow` at its site: [`fxhash`] is the D1 hasher, [`rng`]
//! the D4 seed splits, and [`tuning`] the D5 `unsafe` site. See the
//! README's "Static guarantees" section for the rule and exemption
//! tables.
//!
//! ## Quick example
//!
//! ```
//! use fba_sim::{run, Context, EngineConfig, NoAdversary, NodeId, Protocol};
//!
//! /// Every node announces itself to node 0; node 0 decides on the count.
//! struct Census { id: NodeId, heard: u64 }
//!
//! impl Protocol for Census {
//!     type Msg = ();
//!     type Output = u64;
//!     fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
//!         if self.id.index() != 0 { ctx.send(NodeId::from_index(0), ()); }
//!     }
//!     fn on_message(&mut self, _from: NodeId, _msg: (), _ctx: &mut Context<'_, ()>) {
//!         self.heard += 1;
//!     }
//!     fn output(&self) -> Option<u64> {
//!         if self.id.index() == 0 {
//!             (self.heard == 7).then_some(self.heard)
//!         } else {
//!             Some(0)
//!         }
//!     }
//! }
//!
//! let cfg = EngineConfig::sync(8);
//! let out = run::<Census, _, _>(&cfg, 42, &mut NoAdversary, |id| Census { id, heard: 0 });
//! assert_eq!(out.outputs[&NodeId::from_index(0)], 7);
//! ```

// D5: `deny`, not `forbid`, because the audited glibc `mallopt` binding
// in [`tuning`] carries its own `allow(unsafe_code)`; clippy holds that
// block to its `// SAFETY:` comment. Everything else is unsafe-free.
#![deny(unsafe_code, clippy::undocumented_unsafe_blocks)]
#![deny(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

mod adversary;
pub mod calendar;
mod crash;
mod engine;
pub mod fxhash;
mod ids;
mod message;
mod metrics;
pub mod observer;
mod protocol;
pub mod rng;
mod spec;
pub mod tuning;
mod window;

pub use adversary::{choose_corrupt, Adversary, NoAdversary, Outbox, SilentAdversary};
pub use crash::CrashPlan;
pub use engine::{run, run_observed, run_session, EngineConfig, EngineSession, RunOutcome};
pub use ids::{all_nodes, ceil_log2, ln_at_least_one, NodeId, Step};
pub use message::{Envelope, Runs, WireSize};
pub use metrics::{LoadSummary, Metrics, MetricsTotals};
pub use observer::{FinalInspect, NullObserver, Observer, TranscriptSink};
pub use protocol::{deliver_each, Context, Protocol, RunContext};
pub use spec::{AdversarySpec, NetworkSpec, ParseSpecError, ScheduleSpec};
pub use tuning::tune_allocator_for_bulk;
pub use window::{Window, WindowError, Windows};
