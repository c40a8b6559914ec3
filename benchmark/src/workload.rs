//! The four workloads, as data.
//!
//! A workload is a deployment described by spec strings (the same
//! grammar `Scenario` and `paperbench` accept) plus the number of
//! distinct op seeds one run cycles through. The timed pass turns it into
//! a [`Scenario`]; the traced pass parses the same strings and wires the
//! deployment by hand, and the digest checks prove the two agree.

use fba_recovery::CrashSpec;
use fba_scenario::Scenario;
use fba_sim::{AdversarySpec, NetworkSpec, Step};

/// One benchmark workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists: which layer it stresses and which it
    /// bypasses.
    pub why: &'static str,
    /// System size.
    pub n: usize,
    /// Network spec string (`sync`, `async:2`).
    pub network: &'static str,
    /// Adversary spec string (`none`, `silent:9`, `bad-string`).
    pub adversary: &'static str,
    /// Crash schedule: dark window `[start..end]` hitting `n / 16` nodes,
    /// or `None` for a crash-free run.
    pub crash_window: Option<(Step, Step)>,
    /// Service chain `(instances, interval)`; `None` runs one instance
    /// per call. One *call* is one `Scenario::run` or one whole chain;
    /// one *op* is one agreement instance.
    pub service: Option<(usize, Step)>,
    /// Distinct call seeds per run, sized so that two laps fit the time
    /// budget. The timed loop cycles through them: every later lap
    /// re-runs a seed already seen (determinism check (a), and a second
    /// timing of the same input to take the quieter of), and the
    /// simulated-cost metrics, taken over the first lap, do not depend on
    /// how many laps the host managed.
    pub distinct_seeds: usize,
}

/// The benchmark's workloads at their committed sizes.
#[must_use]
pub fn catalogue() -> Vec<Workload> {
    vec![
        Workload {
            name: "aer_sync_n4096",
            why: "Scenario defaults at n=4096: bulk batch lane, 54M deliveries, 95% Fw1; set-up and cold sampler caches are a visible share only here",
            n: 4096,
            network: "sync",
            adversary: "none",
            crash_window: None,
            service: None,
            distinct_seeds: 1,
        },
        Workload {
            name: "service_silent_n1024",
            why: "8-instance service chain under silent:9 over one engine session and one persistent arena: continuous load, arena reset and instance sequencing exercised only here",
            n: 1024,
            network: "sync",
            adversary: "silent:9",
            crash_window: None,
            service: Some((8, 1)),
            distinct_seeds: 2,
        },
        Workload {
            name: "async_badstring_n512",
            why: "async:2 under the rushing bad-string adversary: per-envelope lane, priority consult, delayed calendar slots, observe; bulk lane bypassed",
            n: 512,
            network: "async:2",
            adversary: "bad-string",
            crash_window: None,
            service: None,
            distinct_seeds: 24,
        },
        Workload {
            name: "crash_n1024",
            why: "crash:[3..7]64 with fba-recovery on: WAL sync per callback, dark-window drops, restart state-sync; the fault-injected run, gated off elsewhere",
            n: 1024,
            network: "sync",
            adversary: "none",
            crash_window: Some((3, 7)),
            service: None,
            distinct_seeds: 10,
        },
    ]
}

impl Workload {
    /// The same deployment at another system size (the test suite runs
    /// every workload at n = 128).
    #[must_use]
    pub fn at_size(&self, n: usize) -> Workload {
        Workload { n, ..self.clone() }
    }

    /// Agreement instances per call.
    #[must_use]
    pub fn ops_per_call(&self) -> usize {
        self.service.map_or(1, |(instances, _)| instances)
    }

    /// The parsed network spec.
    ///
    /// # Panics
    ///
    /// Panics if the catalogue carries a malformed spec string.
    #[must_use]
    pub fn network_spec(&self) -> NetworkSpec {
        self.network.parse().expect("catalogue network spec parses")
    }

    /// The parsed adversary spec.
    ///
    /// # Panics
    ///
    /// Panics if the catalogue carries a malformed spec string.
    #[must_use]
    pub fn adversary_spec(&self) -> AdversarySpec {
        self.adversary
            .parse()
            .expect("catalogue adversary spec parses")
    }

    /// The crash schedule in the `crash:` grammar: 1/16 of the nodes go
    /// dark over the window (64 at n = 1024).
    ///
    /// # Panics
    ///
    /// Panics if the window is malformed.
    #[must_use]
    pub fn crash_spec(&self) -> Option<CrashSpec> {
        self.crash_window.map(|(start, end)| {
            format!("crash:[{start}..{end}]{}", (self.n / 16).max(1))
                .parse()
                .expect("catalogue crash spec parses")
        })
    }

    /// The workload as a [`Scenario`] — the public entry point the timed
    /// pass drives.
    #[must_use]
    pub fn scenario(&self) -> Scenario {
        let mut scenario = Scenario::new(self.n)
            .network(self.network_spec())
            .adversary(self.adversary_spec());
        if let Some(spec) = self.crash_spec() {
            scenario = scenario.faults_spec(spec);
        }
        if let Some((instances, interval)) = self.service {
            scenario = scenario.service(instances, interval);
        }
        scenario
    }
}

/// Looks a workload up by name.
#[must_use]
pub fn by_name(name: &str) -> Option<Workload> {
    catalogue().into_iter().find(|w| w.name == name)
}
