//! Declare a whole experiment as data with the Battery API and print
//! both of its reporters: the Markdown table and the per-cell JSON
//! records.
//!
//! **Paper claim exercised:** Lemma 7's safety census (zero wrong
//! decisions) across a small adversary × size battery — the
//! axes × metrics shape every `paperbench` experiment id (and
//! `paperbench sweep --axis … --metric …`) is built on. Cells where no
//! node reached the decision quantile render `n/a`, never a fake `0` —
//! visible live in the small-n silent rows. See the README's example
//! index.
//!
//! The battery owns the cell product, the deterministic parallel
//! fan-out, the declared seed policy (surfaced in the notes, never a
//! silent `take(n)`), and `Option`-aware aggregation (`n/a`, never a
//! fake `0`).
//!
//! ```bash
//! cargo run --release --example battery_sweep
//! ```

use fba::bench::{product2, AerSummary, Battery, Scope, SeedPolicy};
use fba::scenario::{Phase, Scenario};
use fba::sim::AdversarySpec;

fn main() {
    let adversaries = ["none", "silent", "flood"];
    let report = Battery::new(
        "example-battery",
        "battery_sweep — decision census across adversary × n",
        |&(adversary, n): &(&str, usize), seed| {
            let spec: AdversarySpec = adversary.parse().expect("spec parses");
            let run = Scenario::new(n)
                .adversary(spec)
                .phase(Phase::aer(0.8))
                .run(seed)
                .expect("valid scenario")
                .into_aer();
            AerSummary::of(&run)
        },
    )
    .axes(&["adversary", "n"], |&(adversary, n)| {
        vec![adversary.to_string(), n.to_string()]
    })
    .points(product2(&adversaries, &[48, 96]))
    .point_n(|&(_, n)| n)
    .seeds(SeedPolicy::Capped { max: 2 })
    .metrics(&["decided", "rounds", "wrong"], |o| *o)
    .note("Lemma 7: zero wrong decisions in every cell; n/a marks all-undecided cells.")
    .report(Scope::Quick);

    println!("{}", report.table.render());
    println!("--- per-cell JSON records ---\n{}", report.cells_json);

    for row in &report.table.rows {
        assert_eq!(row[4], "0", "safety must hold in every cell: {row:?}");
    }
}
