//! Read-only run instrumentation: the [`Observer`] trait and stock sinks.
//!
//! Observers put the two instrumentation styles the experiments need —
//! end-of-run state inspection ([`FinalInspect`]) and transcript
//! recording for `fba_core::trace`-style analysis ([`TranscriptSink`]) —
//! behind one composable interface with three hooks:
//!
//! * [`Observer::on_step`] — once per engine step, with every envelope
//!   sent during it (the same view a full-information adversary gets);
//! * [`Observer::on_decision`] — the first time each correct node
//!   produces an output;
//! * [`Observer::on_final`] — once per surviving correct node when the
//!   run ends.
//!
//! Observers are strictly read-only: they cannot send messages, touch
//! node state, or consume randomness, so attaching any combination of
//! them never changes a run's outcome (the determinism contract in the
//! crate docs). Compose sinks with tuples: `(&mut a, &mut b)` is itself
//! an observer driving both.

use crate::ids::{NodeId, Step};
use crate::message::Envelope;
use crate::protocol::Protocol;

/// A read-only hook set driven by [`run_observed`](crate::run_observed).
///
/// All methods default to no-ops, so sinks implement only what they
/// watch.
pub trait Observer<P: Protocol> {
    /// Called once per step after all of the step's sends (correct and
    /// corrupt alike) are known, before they are handed to the network.
    fn on_step(&mut self, step: Step, sends: &[Envelope<P::Msg>]) {
        let _ = (step, sends);
    }

    /// Called when correct node `id` first produces an output, during the
    /// step it is observed deciding.
    fn on_decision(&mut self, id: NodeId, step: Step, output: &P::Output) {
        let _ = (id, step, output);
    }

    /// Called once per surviving correct node after the run's last step —
    /// the state-inspection hook experiments use to read protocol
    /// internals (e.g. candidate-list sizes for Lemma 4).
    fn on_final(&mut self, id: NodeId, node: &P) {
        let _ = (id, node);
    }

    /// Whether the engine must call [`Observer::on_step`] each step.
    /// Defaults to `true` (always correct); observers whose `on_step` is
    /// the default no-op may return `false` so the engine can skip
    /// materialising the per-envelope send view on batched fast paths.
    /// Must return `true` whenever `on_step` is overridden (the reference
    /// engine ignores the hint, so the differential suites catch a wrong
    /// `false`).
    fn wants_step_sends(&self) -> bool {
        true
    }
}

/// The do-nothing observer (used by plain [`run`](crate::run)).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl<P: Protocol> Observer<P> for NullObserver {
    fn wants_step_sends(&self) -> bool {
        false
    }
}

impl<P: Protocol, O: Observer<P> + ?Sized> Observer<P> for &mut O {
    fn on_step(&mut self, step: Step, sends: &[Envelope<P::Msg>]) {
        (**self).on_step(step, sends);
    }
    fn on_decision(&mut self, id: NodeId, step: Step, output: &P::Output) {
        (**self).on_decision(id, step, output);
    }
    fn on_final(&mut self, id: NodeId, node: &P) {
        (**self).on_final(id, node);
    }
    fn wants_step_sends(&self) -> bool {
        (**self).wants_step_sends()
    }
}

impl<P: Protocol, A: Observer<P>, B: Observer<P>> Observer<P> for (A, B) {
    fn on_step(&mut self, step: Step, sends: &[Envelope<P::Msg>]) {
        self.0.on_step(step, sends);
        self.1.on_step(step, sends);
    }
    fn on_decision(&mut self, id: NodeId, step: Step, output: &P::Output) {
        self.0.on_decision(id, step, output);
        self.1.on_decision(id, step, output);
    }
    fn on_final(&mut self, id: NodeId, node: &P) {
        self.0.on_final(id, node);
        self.1.on_final(id, node);
    }
    fn wants_step_sends(&self) -> bool {
        self.0.wants_step_sends() || self.1.wants_step_sends()
    }
}

/// Adapts a `FnMut(NodeId, &P)` closure into an end-of-run inspector: it
/// is called for every surviving correct node once the run ends.
#[derive(Clone, Debug)]
pub struct FinalInspect<F>(pub F);

impl<P: Protocol, F: FnMut(NodeId, &P)> Observer<P> for FinalInspect<F> {
    fn on_final(&mut self, id: NodeId, node: &P) {
        (self.0)(id, node);
    }
    fn wants_step_sends(&self) -> bool {
        false
    }
}

/// Collects every envelope sent during the run — the observer-side
/// equivalent of `EngineConfig::record_transcript`, feeding the same
/// trace analyses (`fba_core::trace`) without an engine flag.
#[derive(Clone, Debug)]
pub struct TranscriptSink<M> {
    /// Every envelope sent, in send order.
    pub transcript: Vec<Envelope<M>>,
}

impl<M> Default for TranscriptSink<M> {
    fn default() -> Self {
        TranscriptSink {
            transcript: Vec::new(),
        }
    }
}

impl<M> TranscriptSink<M> {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl<P: Protocol> Observer<P> for TranscriptSink<P::Msg> {
    fn on_step(&mut self, _step: Step, sends: &[Envelope<P::Msg>]) {
        self.transcript.extend(sends.iter().cloned());
    }
}

/// Records `(node, step)` decision events in the order the engine
/// observed them.
#[derive(Clone, Debug, Default)]
pub struct DecisionLog {
    /// `(node, step)` pairs, in observation order.
    pub decisions: Vec<(NodeId, Step)>,
}

impl DecisionLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl<P: Protocol> Observer<P> for DecisionLog {
    fn on_decision(&mut self, id: NodeId, step: Step, _output: &P::Output) {
        self.decisions.push((id, step));
    }
    fn wants_step_sends(&self) -> bool {
        false
    }
}
