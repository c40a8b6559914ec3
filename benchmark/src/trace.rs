//! The outside-in trace: timing wrappers around every node and the
//! adversary, and the aggregated span tree they fill.
//!
//! A run makes tens of millions of callbacks, so spans are aggregated,
//! not recorded per call: one span per `(engine run, step, callback
//! kind)` carrying `(start, end, calls, total_ns)`. Step boundaries come
//! from `ctx.step()` as seen by the wrapper. The clock is read here, in
//! the benchmark — the library crates may not read one (paperlint D3).

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

use fba_core::{AerMsg, AerNode};
use fba_samplers::GString;
use fba_sim::{Adversary, Context, Envelope, NodeId, Outbox, Protocol, Step};
use rand_chacha::ChaCha12Rng;

/// Callback kinds, in the order of [`Kind`]'s discriminants. The names
/// are the `core.<kind>_s` / `core.<kind>_calls` metric stems.
pub const KIND_NAMES: [&str; Kind::COUNT] = [
    "on_start",
    "on_step",
    "push",
    "poll",
    "pull",
    "fw1",
    "fw2",
    "answer",
    "repair",
    "on_restart",
];

/// What a callback into an `AerNode` was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `Protocol::on_start`.
    OnStart,
    /// `Protocol::on_step`.
    OnStep,
    /// `on_message(Push)`.
    Push,
    /// `on_message(Poll)`.
    Poll,
    /// `on_message(Pull)`.
    Pull,
    /// `on_message(Fw1)`.
    Fw1,
    /// `on_message(Fw2)`.
    Fw2,
    /// `on_message(Answer)`.
    Answer,
    /// `on_message(RepairQuery | RepairAnswer)`.
    Repair,
    /// `Protocol::on_restart`.
    OnRestart,
}

impl Kind {
    /// Number of kinds.
    pub const COUNT: usize = 10;

    /// The kinds that are message deliveries (`on_message`).
    pub const MESSAGES: [Kind; 7] = [
        Kind::Push,
        Kind::Poll,
        Kind::Pull,
        Kind::Fw1,
        Kind::Fw2,
        Kind::Answer,
        Kind::Repair,
    ];

    fn of(msg: &AerMsg) -> Kind {
        match msg {
            AerMsg::Push(_) => Kind::Push,
            AerMsg::Poll(..) => Kind::Poll,
            AerMsg::Pull(..) => Kind::Pull,
            AerMsg::Fw1 { .. } => Kind::Fw1,
            AerMsg::Fw2 { .. } => Kind::Fw2,
            AerMsg::Answer(_) => Kind::Answer,
            AerMsg::RepairQuery(_) | AerMsg::RepairAnswer(_) => Kind::Repair,
        }
    }
}

/// An aggregated span: every call of one kind within one parent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Agg {
    /// Calls folded into the span.
    pub calls: u64,
    /// Sum of the calls' measured durations, nanoseconds.
    pub total_ns: u64,
    /// Start of the first call and end of the last; `None` while empty.
    pub window: Option<(Instant, Instant)>,
}

impl Agg {
    /// Folds one timed call in; it stands for `weight` calls of its kind
    /// (1 unless the kind is sampled), of which only itself is counted.
    fn add(&mut self, start: Instant, end: Instant, weight: u64) {
        self.calls += 1;
        self.total_ns += (end - start).as_nanos() as u64 * weight;
        self.window = Some((self.window.map_or(start, |(first, _)| first), end));
    }

    /// Folds a later span of the same kind in.
    pub fn absorb(&mut self, later: &Agg) {
        let Some((later_first, later_last)) = later.window else {
            return;
        };
        self.calls += later.calls;
        self.total_ns += later.total_ns;
        self.window = Some((
            self.window.map_or(later_first, |(first, _)| first),
            later_last,
        ));
    }
}

/// The spans of one engine run.
#[derive(Clone, Debug, Default)]
pub struct EngineTrace {
    /// Per simulated step, per callback kind.
    pub steps: Vec<[Agg; Kind::COUNT]>,
    /// Adversary consults (`act` / `observe` / `delay` / `priority`).
    /// `calls` is exact; `total_ns` is scaled up from the timed sample.
    pub adversary: Agg,
    /// Spans that were actually timed — what the tracer's cost scales with.
    pub timed_spans: u64,
}

impl EngineTrace {
    /// The run's callbacks by kind, summed over steps.
    #[must_use]
    pub fn by_kind(&self) -> [Agg; Kind::COUNT] {
        let mut out = [Agg::default(); Kind::COUNT];
        for step in &self.steps {
            for (acc, agg) in out.iter_mut().zip(step) {
                acc.absorb(agg);
            }
        }
        out
    }
}

/// Collects spans for the engine runs of one call. Shared by reference
/// between the node wrappers and the adversary wrapper; the simulator is
/// single-threaded, so a `RefCell` is enough.
pub struct Recorder {
    epoch: Instant,
    /// One trace per engine run started with [`Recorder::begin_run`].
    pub runs: Vec<EngineTrace>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            runs: Vec::new(),
        }
    }

    /// Starts the spans of the next engine run.
    pub fn begin_run(&mut self) {
        self.runs.push(EngineTrace::default());
    }

    /// Nanoseconds from the epoch to `at`.
    #[must_use]
    pub fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.epoch).as_nanos())
            .expect("a run is shorter than 2^64 ns")
    }

    fn callback(&mut self, step: Step, kind: Kind, start: Instant, end: Instant) {
        let run = self.runs.last_mut().expect("begin_run precedes callbacks");
        let step = usize::try_from(step).expect("step fits usize");
        if run.steps.len() <= step {
            run.steps.resize(step + 1, [Agg::default(); Kind::COUNT]);
        }
        run.steps[step][kind as usize].add(start, end, 1);
        run.timed_spans += 1;
    }

    fn consult(&mut self, start: Instant, end: Instant, weight: u64) {
        let run = self.runs.last_mut().expect("begin_run precedes consults");
        run.adversary.add(start, end, weight);
        run.timed_spans += 1;
    }

    fn untimed_consult(&mut self) {
        let run = self.runs.last_mut().expect("begin_run precedes consults");
        run.adversary.calls += 1;
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

/// Measures the cost of one empty span with the same clock reads and
/// recorder call a real callback pays: `(outer_ns, inner_ns)`, where
/// `outer_ns` is what one span adds to the traced run's wall and
/// `inner_ns` the part of it that lands inside the span's own duration.
#[must_use]
pub fn calibrate_timer(spans: u64) -> (f64, f64) {
    let recorder = RefCell::new(Recorder::new());
    recorder.borrow_mut().begin_run();
    let outer = Instant::now();
    for _ in 0..spans {
        let start = Instant::now();
        let end = Instant::now();
        recorder.borrow_mut().callback(0, Kind::OnStep, start, end);
    }
    let outer_ns = outer.elapsed().as_nanos() as f64 / spans as f64;
    let inner_ns =
        recorder.borrow().runs[0].steps[0][Kind::OnStep as usize].total_ns as f64 / spans as f64;
    (outer_ns, inner_ns)
}

/// An `AerNode` that times every callback into it. Implements
/// [`Protocol`] by delegation, so the engine cannot tell the difference —
/// digest check (b), traced ≡ untraced, holds it to that.
pub struct Timed<'r> {
    inner: AerNode,
    recorder: &'r RefCell<Recorder>,
}

impl<'r> Timed<'r> {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: AerNode, recorder: &'r RefCell<Recorder>) -> Self {
        Timed { inner, recorder }
    }
}

impl Protocol for Timed<'_> {
    type Msg = AerMsg;
    type Output = GString;

    fn on_start(&mut self, ctx: &mut Context<'_, AerMsg>) {
        let step = ctx.step();
        let start = Instant::now();
        self.inner.on_start(ctx);
        let end = Instant::now();
        self.recorder
            .borrow_mut()
            .callback(step, Kind::OnStart, start, end);
    }

    fn on_step(&mut self, ctx: &mut Context<'_, AerMsg>) {
        let step = ctx.step();
        let start = Instant::now();
        self.inner.on_step(ctx);
        let end = Instant::now();
        self.recorder
            .borrow_mut()
            .callback(step, Kind::OnStep, start, end);
    }

    fn on_message(&mut self, from: NodeId, msg: AerMsg, ctx: &mut Context<'_, AerMsg>) {
        let step = ctx.step();
        let kind = Kind::of(&msg);
        let start = Instant::now();
        self.inner.on_message(from, msg, ctx);
        let end = Instant::now();
        self.recorder.borrow_mut().callback(step, kind, start, end);
    }

    fn on_crash(&mut self, step: Step) {
        self.inner.on_crash(step);
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, AerMsg>) {
        let step = ctx.step();
        let start = Instant::now();
        self.inner.on_restart(ctx);
        let end = Instant::now();
        self.recorder
            .borrow_mut()
            .callback(step, Kind::OnRestart, start, end);
    }

    fn output(&self) -> Option<GString> {
        self.inner.output()
    }
}

/// Per-envelope consults (`delay`, `priority`) are timed one in this
/// many: a scheduling adversary answers millions of them in a few
/// nanoseconds each, and timing every one would measure the clock.
const ENVELOPE_SAMPLE: u64 = 64;

/// An adversary that times its consults: every `act` and `observe`, and
/// a systematic sample of the per-envelope `delay` / `priority` calls.
/// Delegates everything else, so the engine takes the same lanes it takes
/// for the wrapped adversary.
pub struct TimedAdversary<'r, A> {
    inner: A,
    recorder: &'r RefCell<Recorder>,
    envelope_consults: u64,
}

impl<'r, A> TimedAdversary<'r, A> {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: A, recorder: &'r RefCell<Recorder>) -> Self {
        TimedAdversary {
            inner,
            recorder,
            envelope_consults: 0,
        }
    }

    fn consult<T>(&mut self, weight: u64, f: impl FnOnce(&mut A) -> T) -> T {
        let start = Instant::now();
        let value = f(&mut self.inner);
        let end = Instant::now();
        self.recorder.borrow_mut().consult(start, end, weight);
        value
    }

    fn envelope_consult<T>(&mut self, f: impl FnOnce(&mut A) -> T) -> T {
        let sampled = self.envelope_consults.is_multiple_of(ENVELOPE_SAMPLE);
        self.envelope_consults += 1;
        if sampled {
            self.consult(ENVELOPE_SAMPLE, f)
        } else {
            self.recorder.borrow_mut().untimed_consult();
            f(&mut self.inner)
        }
    }
}

impl<A: Adversary<AerMsg>> Adversary<AerMsg> for TimedAdversary<'_, A> {
    fn corrupt(&mut self, n: usize, rng: &mut ChaCha12Rng) -> BTreeSet<NodeId> {
        self.inner.corrupt(n, rng)
    }

    fn rushing(&self) -> bool {
        self.inner.rushing()
    }

    fn act(
        &mut self,
        step: Step,
        rushing_view: Option<&[Envelope<AerMsg>]>,
        out: &mut Outbox<'_, AerMsg>,
    ) {
        self.consult(1, |a| a.act(step, rushing_view, out));
    }

    fn observe(&mut self, step: Step, sends: &[Envelope<AerMsg>]) {
        self.consult(1, |a| a.observe(step, sends));
    }

    fn delay(&mut self, env: &Envelope<AerMsg>) -> Step {
        self.envelope_consult(|a| a.delay(env))
    }

    fn priority(&mut self, env: &Envelope<AerMsg>) -> i64 {
        self.envelope_consult(|a| a.priority(env))
    }

    fn schedules(&self) -> bool {
        self.inner.schedules()
    }

    fn observes(&self) -> bool {
        self.inner.observes()
    }
}

/// One node of the span tree written to `out/trace_<workload>.json`.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name (`run`, `setup`, `engine_run`, `step[3]`, `fw1`, …).
    pub name: String,
    /// Index of the parent span; `None` for the root.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Calls aggregated into the span.
    pub calls: u64,
    /// Sum of the calls' durations; `end_ns - start_ns` for plain spans.
    pub total_ns: u64,
}

/// A span tree under construction.
#[derive(Clone, Debug, Default)]
pub struct SpanTree {
    /// Spans in creation order; parents precede children.
    pub spans: Vec<Span>,
}

impl SpanTree {
    /// Adds a plain (single-call) span and returns its index.
    pub fn push(&mut self, name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns,
            calls: 1,
            total_ns: end_ns - start_ns,
        });
        self.spans.len() - 1
    }

    /// Adds an engine run's step and kind spans under `engine_run`;
    /// `ns` maps an instant to nanoseconds since the trace epoch.
    pub fn push_engine(
        &mut self,
        engine_run: usize,
        trace: &EngineTrace,
        ns: impl Fn(Instant) -> u64,
    ) {
        for (k, kinds) in trace.steps.iter().enumerate() {
            let windows = || kinds.iter().filter_map(|agg| agg.window);
            let (Some(start), Some(end)) = (
                windows().map(|(first, _)| first).min(),
                windows().map(|(_, last)| last).max(),
            ) else {
                continue;
            };
            let step = self.push(&format!("step[{k}]"), Some(engine_run), ns(start), ns(end));
            for (name, agg) in KIND_NAMES.iter().zip(kinds) {
                self.push_agg(name, step, agg, &ns);
            }
        }
        self.push_agg("adversary", engine_run, &trace.adversary, &ns);
    }

    fn push_agg(&mut self, name: &str, parent: usize, agg: &Agg, ns: &impl Fn(Instant) -> u64) {
        let Some((first, last)) = agg.window else {
            return;
        };
        self.spans.push(Span {
            name: name.to_string(),
            parent: Some(parent),
            start_ns: ns(first),
            end_ns: ns(last),
            calls: agg.calls,
            total_ns: agg.total_ns,
        });
    }

    /// The tree as a JSON array of span objects.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"calls\": {}, \"total_ns\": {}}}",
                span.name, span.start_ns, span.end_ns, span.calls, span.total_ns
            );
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push(']');
        out
    }
}
