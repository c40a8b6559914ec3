//! Asynchrony showcase: the same AER scenario on the synchronous engine,
//! the adversarially-reordered asynchronous engine, and under the Lemma 6
//! cornering attack — demonstrating the paper's claim that AER "remains
//! correct and efficient under asynchrony", plus the decision-time
//! distribution the overload attack produces.
//!
//! **Paper claim exercised:** the asynchrony theorem (`O(log n /
//! log log n)` time under adversarial delay, unchanged code) and
//! Lemma 6's overload bound under the cornering attack. See the
//! README's example index.
//!
//! The three regimes differ only in the scenario's `network`/`adversary`
//! fields — the timing model is one builder knob, not separate wiring.
//!
//! ```bash
//! cargo run --release --example asynchrony_showcase
//! ```

use std::collections::BTreeMap;

use fba::core::default_faults;
use fba::scenario::{AerRun, Phase, Scenario};
use fba::sim::{AdversarySpec, NetworkSpec, NodeId, Step};

fn histogram(outcome: &AerRun, n: usize) -> BTreeMap<Step, usize> {
    let mut h = BTreeMap::new();
    for i in 0..n {
        if let Some(step) = outcome.run.metrics.decided_at(NodeId::from_index(i)) {
            *h.entry(step).or_insert(0) += 1;
        }
    }
    h
}

fn render(label: &str, outcome: &AerRun, n: usize) {
    println!(
        "\n== {label} ==\n   decided: {}/{} correct nodes, wrong: {}",
        outcome.run.outputs.len(),
        outcome.correct_nodes(),
        outcome.wrong_decisions(),
    );
    let hist = histogram(outcome, n);
    let max = hist.values().copied().max().unwrap_or(1);
    for (step, count) in &hist {
        let bar = "#".repeat((count * 40).div_ceil(max));
        println!("   step {step:>3}: {count:>4} {bar}");
    }
}

fn main() {
    let n = 256;
    let seed = 17;
    let base = || Scenario::new(n).phase(Phase::aer(0.85)).strict();
    let cfg = base().aer_config().expect("valid config");
    let t = default_faults(n);
    println!("n = {n}, d = {}, t = {t}, strict mode (no repair)", cfg.d);

    // 1. Synchronous, non-rushing: the Lemma 8/9 regime.
    let sync = base()
        .faults(t)
        .adversary(AdversarySpec::Silent { t: None })
        .run(seed)
        .expect("valid scenario")
        .into_aer();
    render("synchronous, non-rushing (silent t)", &sync, n);

    // 2. Asynchronous engine, benign: same code, reordered deliveries.
    let async_benign = base()
        .network(NetworkSpec::Async { max_delay: 2 })
        .run(seed)
        .expect("valid scenario")
        .into_aer();
    render("asynchronous (delay ≤ 2), no faults", &async_benign, n);

    // 3. Asynchronous + the cornering attack: the Lemma 6 regime.
    let cornered = base()
        .network(NetworkSpec::Async { max_delay: 1 })
        .adversary(AdversarySpec::Corner { label_scan: 512 })
        .run(seed)
        .expect("valid scenario")
        .into_aer();
    render("asynchronous + cornering attack", &cornered, n);
    let report = cornered.corner.as_ref().expect("corner adversary reports");
    println!(
        "   attack plan: {} victims blocked, {} overload targets, planned chain depth {}",
        report.blocked_victims, report.overload_targets, report.planned_depth
    );
    println!(
        "   coverage: {}/{} overload units placed",
        report.covered_units, report.needed_units
    );

    println!(
        "\nSafety held in every regime (0 wrong decisions); strict mode trades the\n\
         repair liveness extension for fidelity to the paper's single-poll\n\
         algorithm, so a θ-fraction of nodes stays undecided (Lemma 2 Property 1)."
    );
}
