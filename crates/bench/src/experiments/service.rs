//! The `service` battery: sustained agreement over one engine session.
//!
//! Drives [`Scenario::run_service`] over system size × adversary ×
//! offered load (arrival interval): every cell chains several agreement
//! instances over one persistent engine session and one shared AER
//! arena, and reports the simulated-time service rate (decisions per
//! kilostep) plus the poll-cache hit rate that proves the arenas were
//! reused. Every column is deterministic; the host-time rate
//! (decisions/sec) is `benchmark/`'s `service_silent_n1024` workload.

use fba_scenario::{Scenario, ServiceRun};
use fba_sim::{AdversarySpec, Step};

use crate::battery::{product3, Agg, Battery, Report, SeedPolicy};
use crate::experiments::common::workload_sizes;
use crate::scope::Scope;

/// The adversary axis: fault-free, a fixed silent coalition, and a
/// composed schedule that goes silent for the push wave then honest
/// (same budget in every corrupting window, as the schedule validator
/// requires).
pub const SERVICE_ADVERSARIES: [&str; 3] = ["none", "silent:9", "sched:[0..5]silent:9;[5..]none"];

/// The offered-load axis: back-to-back saturation and spaced arrivals
/// that leave the engine idle between instances.
pub const SERVICE_INTERVALS: [Step; 2] = [1, 32];

/// Instances chained per cell: enough to amortise first-instance cache
/// misses into a sustained rate, small enough for the scope budget.
#[must_use]
pub fn service_instances(scope: Scope) -> usize {
    match scope {
        Scope::Quick => 3,
        Scope::Default => 6,
        _ => 8,
    }
}

/// The `service` experiment: chained instances per (n, adversary,
/// arrival interval) cell.
#[must_use]
pub fn table(scope: Scope) -> Report {
    let instances = service_instances(scope);
    Battery::new(
        "service",
        "service — chained agreement instances over one engine session",
        move |&(n, adversary, interval): &(usize, &str, Step), seed| {
            let spec: AdversarySpec = adversary.parse().expect("service adversary parses");
            Scenario::new(n)
                .adversary(spec)
                .service(instances, interval)
                .run_service(seed)
                .expect("service scenario")
        },
    )
    .axes(
        &["n", "adversary", "interval"],
        |&(n, adversary, interval)| {
            vec![n.to_string(), adversary.to_string(), interval.to_string()]
        },
    )
    .points(product3(
        &workload_sizes(scope),
        &SERVICE_ADVERSARIES,
        &SERVICE_INTERVALS,
    ))
    .seeds(SeedPolicy::Fixed(vec![1]))
    .col("instances", Agg::Sum, |s: &ServiceRun| {
        Some(s.instances.len() as f64)
    })
    .col("decided instances", Agg::Sum, |s: &ServiceRun| {
        Some(s.decided_instances() as f64)
    })
    .col("min decided", Agg::Min, |s: &ServiceRun| {
        Some(s.min_decided_fraction())
    })
    .col("decisions", Agg::Sum, |s: &ServiceRun| {
        Some(s.decisions() as f64)
    })
    .col("total steps", Agg::Sum, |s: &ServiceRun| {
        Some(s.total_steps as f64)
    })
    .col("decisions/kilostep", Agg::Mean, |s: &ServiceRun| {
        Some(s.decisions_per_kilostep())
    })
    .col("poll-cache hit %", Agg::Mean, |s: &ServiceRun| {
        let (hits, misses) = s.poll_cache_stats;
        (hits + misses > 0).then(|| hits as f64 * 100.0 / (hits + misses) as f64)
    })
    .note("`decisions` counts every correct node that decided, summed over the chain;")
    .note("`total steps` is the service clock from first arrival to last finish. The")
    .note("host-time rate is benchmark/'s service_silent_n1024 `decisions_per_s`.")
    .report(scope)
}
