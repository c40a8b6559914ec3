//! The paper's headline protocol end to end: the committee-tree
//! almost-everywhere phase generates a random string known almost
//! everywhere, then AER spreads it to everyone — Byzantine Agreement with
//! poly-logarithmic time and communication.
//!
//! **Paper claim exercised:** Theorem 1 (the main result) — the
//! composition of the almost-everywhere substrate (§2.1's contract) with
//! AER yields full BA, shown fault-free and under the silent-`t` and
//! bad-string adversaries. See the README's example index.
//!
//! Composition is one scenario: `Phase::Composed` with independent
//! adversary specs for each phase.
//!
//! ```bash
//! cargo run --release --example ba_end_to_end
//! ```

use fba::core::default_faults;
use fba::samplers::GString;
use fba::scenario::{Phase, Scenario};
use fba::sim::AdversarySpec;

fn main() {
    let n = 256;
    let seed = 21;

    // --- fault-free ---------------------------------------------------
    let run = Scenario::new(n)
        .phase(Phase::Composed)
        .run(seed)
        .expect("valid scenario")
        .into_composed();
    let (ae, aer) = (&run.ae.config, &run.aer.config);
    println!("== Phase structure for n = {n} ==");
    println!(
        "almost-everywhere: committee size {}, {} tree levels, {} steps",
        ae.committee_size,
        ae.root_level(),
        ae.schedule_len()
    );
    println!(
        "AER: quorum size {}, overload cap {}\n",
        aer.d, aer.overload_cap
    );

    let report = &run.report;
    println!("== Fault-free run ==");
    println!(
        "AE phase: {} rounds, {:.0} bits/node, {:.1}% of correct nodes knowing",
        report.ae_rounds,
        report.ae_bits_per_node,
        report.knowing_fraction_after_ae * 100.0
    );
    println!(
        "AER phase: {} rounds, {:.0} bits/node",
        report.aer_rounds.map_or("-".to_string(), |s| s.to_string()),
        report.aer_bits_per_node
    );
    println!(
        "agreement: {} ({} of {} correct nodes)",
        if report.success() {
            "SUCCESS"
        } else {
            "FAILED"
        },
        report.decided_nodes,
        report.correct_nodes
    );
    println!("gstring: {}\n", run.ae.outcome.gstring);

    // --- under attack ---------------------------------------------------
    // Silent faults corrupt the AE phase; the AER phase fields the full
    // bad-string campaign for the all-zeroes string.
    let t = default_faults(n);
    let zero_len = aer.string_len;
    let attacked = Scenario::new(n)
        .phase(Phase::Composed)
        .faults(t)
        .ae_adversary(AdversarySpec::Silent { t: None })
        .adversary(AdversarySpec::BadString)
        .bad_string(GString::zeroes(zero_len))
        .run(seed + 1)
        .expect("valid scenario")
        .into_composed();
    println!("== Silent faults in phase 1, bad-string campaign in phase 2 (t = {t}) ==");
    println!(
        "AE phase: {:.1}% of correct nodes knowing after faults",
        attacked.report.knowing_fraction_after_ae * 100.0
    );
    let wrong = attacked.aer.wrong_decisions();
    println!(
        "AER phase: {}/{} decided, {wrong} wrong decisions",
        attacked.report.decided_nodes, attacked.report.correct_nodes
    );
    println!(
        "agreement on AE majority string: {}",
        if attacked.report.matches_ae_majority {
            "yes"
        } else {
            "no"
        }
    );
}
