//! A fixed-horizon calendar queue for bounded-delay event scheduling.
//!
//! The engine's reliability assumption bounds every delivery delay by
//! `max_delay`, so the pending-delivery set never spans more than
//! `max_delay` distinct future steps. That makes a classic calendar ring
//! buffer (one slot per step modulo the horizon) strictly better than an
//! ordered map keyed by step: scheduling is O(1) with no per-event
//! allocation, and draining a step is a slot swap.
//!
//! Two lanes per slot:
//!
//! * **Bulk lane** — [`CalendarQueue::schedule_bulk`] moves a whole
//!   already-ordered batch (uniform delay, priority 0 — the synchronous /
//!   non-scheduling-adversary common case) into the slot by a vector
//!   *swap*: no per-event wrapper, no copy, no sort at drain time. This is
//!   what keeps large-`n` sweeps from doubling their peak memory in the
//!   scheduler.
//! * **Keyed lane** — [`CalendarQueue::schedule`] attaches `(priority,
//!   sequence)` ordering keys for adversarial schedules that reorder
//!   within a step. An item is whatever the caller schedules as one
//!   unit: the engine keys whole deliveries — an envelope, or a batch
//!   whose messages all drew the same `(delay, priority)` — so this lane
//!   carries batches too, and [`CalendarQueue::len`] counts items, not
//!   the messages inside them.
//!
//! Ordering contract (identical to the `BTreeMap<Step, Vec<_>>` queue this
//! replaced): events due at the same step drain sorted by `(priority,
//! insertion order)`; distinct steps drain in step order because the
//! caller advances one step at a time. The bulk lane preserves this
//! because its events all carry priority 0 and *globally earlier*
//! insertion sequences than any keyed event coexisting in the slot (a
//! bulk append refuses slots that already hold keyed events). The
//! randomized test in `tests/calendar_equiv.rs` checks the combined-lane
//! order against the `BTreeMap` reference model.

use crate::ids::Step;

/// One keyed scheduled event.
#[derive(Clone, Debug)]
pub struct Scheduled<T> {
    /// Intra-step processing priority (ascending).
    pub priority: i64,
    /// Global insertion sequence number; ties on `priority` drain in
    /// insertion order.
    pub seq: u64,
    /// The payload.
    pub item: T,
}

#[derive(Clone, Debug)]
struct Slot<T> {
    /// Priority-0 events in insertion order, all sequenced before every
    /// event in `keyed`.
    bulk: Vec<T>,
    /// Events with explicit ordering keys.
    keyed: Vec<Scheduled<T>>,
}

impl<T> Slot<T> {
    fn new() -> Self {
        Slot {
            bulk: Vec::new(),
            keyed: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.bulk.len() + self.keyed.len()
    }
}

/// Ring-buffer event queue over a bounded delay horizon.
///
/// ```
/// use fba_sim::calendar::CalendarQueue;
///
/// let mut q: CalendarQueue<&str> = CalendarQueue::new(3);
/// q.schedule(0, 2, 0, "later");
/// q.schedule(0, 1, 0, "sooner");
/// let mut due = Vec::new();
/// q.drain_due(1, &mut due);
/// assert_eq!(due, ["sooner"]);
/// q.drain_due(2, &mut due);
/// assert_eq!(due, ["later"]);
/// assert!(q.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct CalendarQueue<T> {
    /// `max_delay + 1` slots; an event with delay `d ∈ [1, max_delay]`
    /// scheduled at step `s` lives in slot `(s + d) % slots.len()`, which
    /// cannot collide with the slot currently being drained.
    slots: Vec<Slot<T>>,
    len: usize,
    seq: u64,
}

impl<T> CalendarQueue<T> {
    /// Creates a queue accepting delays in `[1, max_delay]`.
    ///
    /// # Panics
    ///
    /// Panics if `max_delay == 0`.
    #[must_use]
    pub fn new(max_delay: Step) -> Self {
        assert!(max_delay >= 1, "calendar queue requires max_delay >= 1");
        let horizon = usize::try_from(max_delay).expect("max_delay fits usize") + 1;
        CalendarQueue {
            slots: (0..horizon).map(|_| Slot::new()).collect(),
            len: 0,
            seq: 0,
        }
    }

    /// Starts a fresh scheduling epoch: drops every pending event and
    /// rewinds the sequence counter, adjusting the horizon to `max_delay`
    /// while keeping already-allocated slot capacity wherever possible.
    ///
    /// This is the instance boundary of service (chained agreement) runs:
    /// a reset queue is observationally identical to a newly constructed
    /// one — absolute sequence numbers never influence drain order between
    /// epochs because ordering only compares sequences within one slot.
    ///
    /// # Panics
    ///
    /// Panics if `max_delay == 0`.
    pub fn reset(&mut self, max_delay: Step) {
        assert!(max_delay >= 1, "calendar queue requires max_delay >= 1");
        let horizon = usize::try_from(max_delay).expect("max_delay fits usize") + 1;
        for slot in &mut self.slots {
            slot.bulk.clear();
            slot.keyed.clear();
        }
        self.slots.resize_with(horizon, Slot::new);
        self.len = 0;
        self.seq = 0;
    }

    /// Number of pending events — items as scheduled, whatever each one
    /// holds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Largest accepted delay.
    #[must_use]
    pub fn max_delay(&self) -> Step {
        self.slots.len() as Step - 1
    }

    fn slot_index(&self, now: Step, delay: Step) -> usize {
        assert!(
            delay >= 1 && delay <= self.max_delay(),
            "delay {delay} outside [1, {}]",
            self.max_delay()
        );
        ((now + delay) % self.slots.len() as Step) as usize
    }

    /// Schedules `item` for step `now + delay` with an explicit priority.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is outside `[1, max_delay]` — the engine clamps
    /// delays before scheduling, so an out-of-range delay is a bug.
    pub fn schedule(&mut self, now: Step, delay: Step, priority: i64, item: T) {
        let slot = self.slot_index(now, delay);
        self.seq += 1;
        self.slots[slot].keyed.push(Scheduled {
            priority,
            seq: self.seq,
            item,
        });
        self.len += 1;
    }

    /// Moves a whole batch of priority-0 events (already in insertion
    /// order) to step `now + delay`, leaving `items` empty but with its
    /// capacity intact.
    ///
    /// When the target slot is untouched this is a vector swap — no
    /// per-event work at all. Batches land *behind* any bulk events
    /// already in the slot (scheduled at an earlier step, hence earlier
    /// sequences) and refuse slots holding keyed events, falling back to
    /// keyed pushes there so cross-lane ordering stays exact.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is outside `[1, max_delay]`.
    pub fn schedule_bulk(&mut self, now: Step, delay: Step, items: &mut Vec<T>) {
        let slot = self.slot_index(now, delay);
        let slot = &mut self.slots[slot];
        self.len += items.len();
        if slot.keyed.is_empty() {
            self.seq += items.len() as u64;
            if slot.bulk.is_empty() {
                std::mem::swap(&mut slot.bulk, items);
            } else {
                slot.bulk.append(items);
            }
        } else {
            // Keyed events are present with earlier sequences; keep the
            // interleaving explicit.
            for item in items.drain(..) {
                self.seq += 1;
                slot.keyed.push(Scheduled {
                    priority: 0,
                    seq: self.seq,
                    item,
                });
            }
        }
    }

    /// Moves every event due at `step` into `due` (cleared first), in
    /// `(priority, insertion order)` order.
    ///
    /// Bulk-only slots are handed over by a vector swap; mixed slots merge
    /// the two lanes (bulk events sort as priority 0 with
    /// earlier-than-keyed sequence numbers).
    pub fn drain_due(&mut self, step: Step, due: &mut Vec<T>) {
        due.clear();
        let idx = (step % self.slots.len() as Step) as usize;
        let slot = &mut self.slots[idx];
        self.len -= slot.len();
        if slot.keyed.is_empty() {
            std::mem::swap(&mut slot.bulk, due);
            return;
        }
        // Keys are unique (seq strictly increases), so an unstable sort is
        // deterministic here.
        slot.keyed.sort_unstable_by_key(|d| (d.priority, d.seq));
        // Bulk events: priority 0, sequenced before every keyed event in
        // this slot — merge the two ordered lanes.
        due.reserve(slot.len());
        let mut bulk = slot.bulk.drain(..);
        for keyed in slot.keyed.drain(..) {
            if keyed.priority < 0 {
                due.push(keyed.item);
            } else {
                // priority >= 0: all remaining bulk (priority 0, earlier
                // seq) goes first.
                due.extend(&mut bulk);
                due.push(keyed.item);
            }
        }
        due.extend(bulk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(q: &mut CalendarQueue<T>, step: Step) -> Vec<T> {
        let mut buf = Vec::new();
        q.drain_due(step, &mut buf);
        buf
    }

    #[test]
    fn events_come_out_at_their_step() {
        let mut q = CalendarQueue::new(4);
        q.schedule(0, 1, 0, "a");
        q.schedule(0, 3, 0, "b");
        q.schedule(1, 1, 0, "c");
        assert_eq!(q.len(), 3);
        assert_eq!(drain(&mut q, 1), vec!["a"]);
        assert_eq!(drain(&mut q, 2), vec!["c"]);
        assert_eq!(drain(&mut q, 3), vec!["b"]);
        assert!(q.is_empty());
    }

    #[test]
    fn same_step_orders_by_priority_then_insertion() {
        let mut q = CalendarQueue::new(2);
        q.schedule(0, 1, 5, "late-prio");
        q.schedule(0, 1, -1, "first");
        q.schedule(0, 1, 5, "late-prio-2");
        q.schedule(0, 1, 0, "middle");
        assert_eq!(
            drain(&mut q, 1),
            vec!["first", "middle", "late-prio", "late-prio-2"]
        );
    }

    #[test]
    fn bulk_swap_preserves_order_and_capacity() {
        let mut q = CalendarQueue::new(1);
        let mut batch: Vec<u32> = (0..100).collect();
        let cap = batch.capacity();
        q.schedule_bulk(0, 1, &mut batch);
        assert!(batch.is_empty());
        assert_eq!(q.len(), 100);
        let mut out = Vec::new();
        q.drain_due(1, &mut out);
        assert_eq!(out, (0..100).collect::<Vec<u32>>());
        assert!(out.capacity() >= cap);
    }

    #[test]
    fn bulk_after_bulk_appends_in_step_order() {
        let mut q = CalendarQueue::new(3);
        let mut a = vec![1u32, 2];
        let mut b = vec![3u32, 4];
        q.schedule_bulk(0, 2, &mut a); // due at 2
        q.schedule_bulk(1, 1, &mut b); // also due at 2, scheduled later
        assert_eq!(drain(&mut q, 2), vec![1, 2, 3, 4]);
    }

    #[test]
    fn bulk_then_keyed_interleaves_by_priority() {
        let mut q = CalendarQueue::new(2);
        let mut batch = vec![10u32, 11];
        q.schedule_bulk(0, 1, &mut batch); // priority 0, earliest seqs
        q.schedule(0, 1, -1, 1u32); // before the bulk (lower priority)
        q.schedule(0, 1, 0, 12); // priority 0, after the bulk (later seq)
        q.schedule(0, 1, 3, 99); // last
        assert_eq!(drain(&mut q, 1), vec![1, 10, 11, 12, 99]);
    }

    #[test]
    fn keyed_then_bulk_falls_back_to_keyed_lane() {
        let mut q = CalendarQueue::new(2);
        q.schedule(0, 1, 1, 50u32);
        let mut batch = vec![10u32, 11];
        q.schedule_bulk(0, 1, &mut batch); // slot has keyed events already
        assert!(batch.is_empty());
        // Bulk items carry priority 0 < 1, so they still drain first.
        assert_eq!(drain(&mut q, 1), vec![10, 11, 50]);
        assert!(q.is_empty());
    }

    #[test]
    fn horizon_wraps_without_collisions() {
        let mut q = CalendarQueue::new(2);
        for step in 0..100u64 {
            q.schedule(step, 1, 0, step);
            if step >= 1 {
                q.schedule(step - 1, 2, 0, 1000 + step);
            }
            if step >= 1 {
                let due = drain(&mut q, step);
                assert!(due.contains(&(step - 1)));
            }
        }
    }

    #[test]
    fn capacity_is_recycled() {
        let mut q = CalendarQueue::new(1);
        let mut buf = Vec::new();
        for step in 0..50u64 {
            for i in 0..64 {
                q.schedule(step, 1, i, i);
            }
            q.drain_due(step + 1, &mut buf);
            assert_eq!(buf.len(), 64);
            assert!(buf.capacity() >= 64);
        }
    }

    #[test]
    fn reset_clears_pending_and_restarts_the_epoch() {
        let mut q = CalendarQueue::new(3);
        q.schedule(0, 2, 1, 7u32);
        let mut bulk = vec![8u32, 9];
        q.schedule_bulk(0, 1, &mut bulk);
        assert_eq!(q.len(), 3);
        q.reset(3);
        assert!(q.is_empty());
        assert_eq!(q.max_delay(), 3);
        // Post-reset behaviour matches a freshly constructed queue.
        q.schedule(0, 1, 5, 20);
        q.schedule(0, 1, -1, 10);
        assert_eq!(drain(&mut q, 1), vec![10, 20]);
    }

    #[test]
    fn reset_can_change_the_horizon() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new(1);
        q.reset(4);
        assert_eq!(q.max_delay(), 4);
        q.schedule(0, 4, 0, 1);
        assert_eq!(drain(&mut q, 4), vec![1]);
        q.reset(2);
        assert_eq!(q.max_delay(), 2);
    }

    #[test]
    #[should_panic(expected = "max_delay >= 1")]
    fn reset_rejects_zero_horizon() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new(2);
        q.reset(0);
    }

    #[test]
    #[should_panic(expected = "outside [1, 3]")]
    fn rejects_out_of_horizon_delay() {
        let mut q = CalendarQueue::new(3);
        q.schedule(0, 4, 0, ());
    }

    #[test]
    #[should_panic(expected = "outside [1, 3]")]
    fn rejects_zero_delay() {
        let mut q = CalendarQueue::new(3);
        q.schedule(0, 0, 0, ());
    }

    #[test]
    #[should_panic(expected = "max_delay >= 1")]
    fn rejects_zero_horizon() {
        let _: CalendarQueue<()> = CalendarQueue::new(0);
    }
}
