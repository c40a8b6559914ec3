//! Micro-drives: one layer at a time, called directly, with no protocol
//! around it. Each returns nanoseconds per operation.

use std::hint::black_box;
use std::time::Instant;

use fba_core::AerHarness;
use fba_recovery::{CheckpointStore, RecoveryConfig, WalRecord};
use fba_samplers::{GString, Label};
use fba_sim::calendar::CalendarQueue;
use fba_sim::{run, Context, EngineConfig, NoAdversary, NodeId, Protocol, Step};

/// Calls per sampler micro-drive.
const SAMPLER_CALLS: u64 = 100_000;

fn ns_per(start: Instant, ops: u64) -> f64 {
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// Uncached `QuorumSampler::quorum` at the harness's `n`, `d`.
#[must_use]
pub fn quorum_eval_ns(harness: &AerHarness, gstring: &GString) -> f64 {
    let cache = harness.scheme().shared_push();
    let sampler = cache.sampler();
    let n = harness.config().n as u64;
    let start = Instant::now();
    for i in 0..SAMPLER_CALLS {
        let x = NodeId::from_index((i % n) as usize);
        black_box(sampler.quorum(black_box(gstring.key()), x));
    }
    ns_per(start, SAMPLER_CALLS)
}

/// Uncached `PollSampler::poll_list` at the harness's `n`, `d`.
#[must_use]
pub fn poll_list_ns(harness: &AerHarness) -> f64 {
    let sampler = harness.poll_sampler();
    let n = harness.config().n as u64;
    let labels = sampler.label_cardinality();
    let start = Instant::now();
    for i in 0..SAMPLER_CALLS {
        let x = NodeId::from_index((i % n) as usize);
        black_box(sampler.poll_list(x, Label(black_box(i % labels))));
    }
    ns_per(start, SAMPLER_CALLS)
}

/// `SharedQuorumCache::contains_at` on an interned slot — the hit path
/// the Fw1 handler takes.
#[must_use]
pub fn cached_contains_ns(harness: &AerHarness, gstring: &GString) -> f64 {
    const CALLS: u64 = 10 * SAMPLER_CALLS;
    let cache = harness.scheme().shared_pull();
    let n = harness.config().n as u64;
    let slot = cache.slot(gstring.key(), NodeId::from_index(0));
    let mut members = 0u64;
    let start = Instant::now();
    for i in 0..CALLS {
        let y = NodeId::from_index((i % n) as usize);
        members += u64::from(cache.contains_at(black_box(slot), y));
    }
    let ns = ns_per(start, CALLS);
    black_box(members);
    ns
}

/// A protocol that does no work: every node sends one identical payload
/// to a fixed fan-out of neighbours each round and ignores what arrives.
struct NullNode {
    id: usize,
    rounds_left: u32,
    fanout: usize,
}

impl NullNode {
    fn fan_out(&self, ctx: &mut Context<'_, u64>) {
        let n = ctx.n();
        for k in 1..=self.fanout {
            ctx.send(NodeId::from_index((self.id + k) % n), 7);
        }
    }
}

impl Protocol for NullNode {
    type Msg = u64;
    type Output = ();

    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        self.fan_out(ctx);
    }

    fn on_step(&mut self, ctx: &mut Context<'_, u64>) {
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            self.fan_out(ctx);
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: u64, _ctx: &mut Context<'_, u64>) {
        black_box(msg);
    }

    fn output(&self) -> Option<()> {
        (self.rounds_left == 0).then_some(())
    }
}

/// The engine with zero protocol work: `fba_sim::run` driving
/// [`NullNode`]s at the workload's `n`, per delivered message.
#[must_use]
pub fn null_engine_ns_per_msg(n: usize) -> f64 {
    const FANOUT: usize = 64;
    const ROUNDS: u32 = 16;
    let fanout = FANOUT.min(n - 1);
    let start = Instant::now();
    let out = run::<NullNode, _, _>(&EngineConfig::sync(n), 1, &mut NoAdversary, |id| NullNode {
        id: id.index(),
        rounds_left: ROUNDS,
        fanout,
    });
    let elapsed = start.elapsed();
    let delivered: u64 = (0..n)
        .map(|i| out.metrics.msgs_recv_by(NodeId::from_index(i)))
        .sum();
    assert_eq!(
        delivered,
        (n * fanout) as u64 * u64::from(ROUNDS + 1),
        "the null protocol delivers every message it sends"
    );
    elapsed.as_nanos() as f64 / delivered as f64
}

/// `CalendarQueue::schedule_bulk` + `drain_due` — the bulk lane of the
/// sync workloads — per item.
#[must_use]
pub fn calendar_bulk_ns_per_item() -> f64 {
    const ROUNDS: u64 = 64;
    const BATCHES: usize = 256;
    const BATCH: usize = 128;
    let mut queue: CalendarQueue<u64> = CalendarQueue::new(1);
    let mut items: Vec<u64> = Vec::with_capacity(BATCH);
    let mut due: Vec<u64> = Vec::new();
    let start = Instant::now();
    for step in 0..ROUNDS {
        for b in 0..BATCHES {
            items.extend((0..BATCH).map(|i| (b * BATCH + i) as u64));
            queue.schedule_bulk(step, 1, &mut items);
        }
        queue.drain_due(step + 1, &mut due);
        black_box(due.len());
    }
    ns_per(start, ROUNDS * (BATCHES * BATCH) as u64)
}

/// `CalendarQueue::schedule` with delays `1..=max_delay` and mixed
/// priorities + `drain_due` — the keyed lane of the async workload — per
/// item.
#[must_use]
pub fn calendar_sched_ns_per_item(max_delay: Step) -> f64 {
    const ROUNDS: u64 = 32;
    const PER_ROUND: u64 = 32_768;
    let mut queue: CalendarQueue<u64> = CalendarQueue::new(max_delay);
    let mut due: Vec<u64> = Vec::new();
    let start = Instant::now();
    for step in 0..ROUNDS + max_delay {
        if step < ROUNDS {
            for i in 0..PER_ROUND {
                let delay = 1 + i % max_delay;
                // Three priority classes, as the scheduling adversaries use.
                let priority = (i % 3) as i64 - 1;
                queue.schedule(step, delay, priority, i);
            }
        }
        queue.drain_due(step + 1, &mut due);
        black_box(due.len());
    }
    assert!(queue.is_empty(), "every scheduled item was drained");
    ns_per(start, ROUNDS * PER_ROUND)
}

/// `CheckpointStore::append` + `maybe_snapshot`, as `sync_wal` drives
/// them after every callback: `(append_ns, restore_ns)`.
#[must_use]
pub fn checkpoint_ns(gstring: &GString) -> (f64, f64) {
    const APPENDS: u64 = 1_000_000;
    const RESTORES: u64 = 100_000;
    let mut store = CheckpointStore::new(RecoveryConfig::default());
    let start = Instant::now();
    for i in 0..APPENDS {
        // 64 records per simulated step, so the default cadence compacts
        // every 512 appends.
        let step = i / 64;
        store.append(step, WalRecord::Believe(black_box(*gstring)));
        store.maybe_snapshot(step);
    }
    let append_ns = ns_per(start, APPENDS);
    assert_eq!(store.appends(), APPENDS);

    let start = Instant::now();
    for _ in 0..RESTORES {
        black_box(store.restore());
    }
    (append_ns, ns_per(start, RESTORES))
}
