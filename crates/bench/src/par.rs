//! Deterministic parallel sweep execution.
//!
//! Experiment sweeps are embarrassingly parallel: every `(n, seed,
//! adversary)` run is a pure function of its inputs (see the determinism
//! contract in `fba-sim`), so fanning runs across cores cannot change any
//! result — only the wall clock. [`par_map`] provides rayon-style
//! data-parallel mapping built on `std::thread::scope` (the container
//! image carries no external crates): workers pull items off a shared
//! atomic cursor (dynamic load balancing — a sweep mixes `n = 64` and
//! `n = 4096` runs whose costs differ by orders of magnitude) and write
//! results *by input index*, so the output order, and therefore every
//! downstream aggregation, is identical to a serial map.
//!
//! `FBA_THREADS` overrides the worker count (`FBA_THREADS=1` forces
//! serial execution); the equivalence test `tests/par_equiv.rs` asserts
//! parallel output == serial output element for element.
#![expect(clippy::disallowed_types, reason = "D2: the sweep fan-out")]
#![expect(clippy::disallowed_methods, reason = "D2, D6: threads, FBA_THREADS")]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads a sweep should use: `FBA_THREADS` if set and
/// parseable, else the machine's available parallelism, and never zero.
/// The workspace's one thread-count policy and its one environment read.
#[must_use]
pub fn parallelism() -> usize {
    std::env::var("FBA_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
        .max(1)
}

/// Maps `f` over `items`, fanning across [`parallelism`] threads, and
/// returns results in input order — bit-identical to
/// `items.into_iter().map(f).collect()`.
///
/// # Panics
///
/// Propagates a panic from `f` (the first observed one) after all workers
/// stop.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = parallelism().min(items.len().max(1));
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }

    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = slots.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= slots.len() {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("sweep item lock")
                    .take()
                    .expect("each index is claimed exactly once");
                let result = f(item);
                *results[i].lock().expect("sweep result lock") = Some(result);
            });
        }
    });

    results
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .expect("result lock poisoned")
                .unwrap_or_else(|| panic!("sweep item {i} produced no result"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..500).collect();
        let out = par_map(items, |x| x * 3);
        assert_eq!(out, (0..500).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn matches_serial_map_on_uneven_work() {
        let items: Vec<u64> = (0..64).collect();
        let work = |x: u64| {
            // Skewed workloads exercise the dynamic cursor.
            let iters = if x.is_multiple_of(7) { 200_000 } else { 10 };
            (0..iters).fold(x, |acc, i| acc.wrapping_mul(31).wrapping_add(i))
        };
        let serial: Vec<u64> = (0..64).map(work).collect();
        assert_eq!(par_map(items, work), serial);
    }

    #[test]
    fn empty_and_single_item() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(empty, |x: u32| x).is_empty());
        assert_eq!(par_map(vec![9], |x| x + 1), vec![10]);
    }

    #[test]
    fn parallelism_is_at_least_one() {
        assert!(parallelism() >= 1);
    }
}
