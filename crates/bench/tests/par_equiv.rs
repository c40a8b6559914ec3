//! Parallel sweeps must be bit-identical to serial execution: every cell
//! of a sweep is a pure function of `(config, seed)` and aggregation
//! walks results in input order, so the rendered tables cannot depend on
//! the worker count. This test runs the same experiments under
//! `FBA_THREADS=4` and `FBA_THREADS=1` and compares the full rendered
//! output run for run.
//!
//! Everything lives in ONE `#[test]` on purpose: `FBA_THREADS` is
//! process-global, and a second concurrently-running test mutating it
//! could silently turn the "serial" leg multi-threaded, voiding exactly
//! the equivalence this file exists to prove.

use fba_bench::{par_map, run_experiments, Scope};

/// Both reporters of every experiment: each must be worker-count-invariant.
fn render(ids: &[&str]) -> Vec<String> {
    let mut renders = Vec::new();
    run_experiments(ids, Scope::Quick, |_, report| {
        renders.push(format!("{}\n{}", report.table.render(), report.cells_json));
        Ok(())
    })
    .expect("known ids");
    renders
}

#[test]
fn parallel_execution_is_bit_identical_to_serial() {
    // --- par_map preserves input order under real thread contention ---
    std::env::set_var("FBA_THREADS", "8");
    let items: Vec<u64> = (0..256).collect();
    let out = par_map(items, |x| {
        // Uneven per-item work so completion order scrambles.
        let spins = (x % 13) * 1_000;
        let mut acc = x;
        for i in 0..spins {
            acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        (x, acc)
    });
    for (i, (x, _)) in out.iter().enumerate() {
        assert_eq!(*x, i as u64, "result {i} out of order");
    }

    // --- whole experiment sweeps: parallel rendering == serial ---
    let experiments = ["f1a-time", "f1b", "l8", "ablate-d", "ablate-cap"];

    std::env::set_var("FBA_THREADS", "4");
    let parallel = render(&experiments);

    std::env::set_var("FBA_THREADS", "1");
    let serial = render(&experiments);
    std::env::remove_var("FBA_THREADS");

    for (id, (p, s)) in experiments.iter().zip(parallel.iter().zip(&serial)) {
        assert_eq!(p, s, "experiment {id} differs between parallel and serial");
    }
}
