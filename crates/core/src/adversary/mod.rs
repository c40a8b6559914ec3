//! Byzantine strategies against AER.
//!
//! §2.1 of the paper: the adversary controls up to `t` nodes, knows the
//! whole network, coordinates all corrupt nodes, and may be *rushing*
//! (sees correct messages of the current step before choosing its own).
//! The strategies here exercise the protocol's defences:
//!
//! * [`RandomStringFlood`] — blind push flooding; the sampler filter of
//!   §3.1.1 must discard it entirely.
//! * [`PushFlood`] — coherent pushing of one adversary-chosen string
//!   through the quorum slots the adversary legitimately occupies; the
//!   attack Lemma 4 bounds.
//! * [`Equivocate`] — each corrupt node pushes several different strings
//!   to different victims (no transferable authentication means nothing
//!   stops equivocation except the quorum majorities).
//! * [`PullFlood`] — pull-request spraying; the forward-once filter of
//!   Algorithm 2 must cap the induced routing work at one verification
//!   per corrupt node (§2.3's "pull requests are filtered" claim).
//! * [`BadString`] — the full safety attack of Lemma 7: corrupt nodes
//!   push, route, relay and answer for a coherent bogus string, rushing
//!   their answers so they outrace honest ones.
//! * [`Corner`] — the Lemma 6 attack: overload the poll-list members of
//!   victim requesters with legitimate-looking pull requests for
//!   `gstring`, forcing answer deferral chains; combined with
//!   adversarial intra-step scheduling this is what stretches AER to
//!   `O(log n / log log n)` time.
//!
//! * [`Composed`] — a windowed composition of the above: a
//!   `sched:[0..5]silent:9;[5..12]flood;[12..]corner:512` fault schedule
//!   swaps the active strategy at step-window boundaries while each
//!   window keeps its own state for the whole run (the mixed-adversary
//!   matrix the paper's adaptive adversary implies).
//!
//! All strategies implement [`fba_sim::Adversary`] and are driven by the
//! same engine as the correct nodes. [`fba_sim::NoAdversary`] and
//! [`fba_sim::SilentAdversary`] cover the benign cases.

mod bad_string;
mod composed;
mod corner;
mod equivocate;
mod flood;
mod pull_flood;
mod registry;

pub use bad_string::BadString;
pub use composed::Composed;
pub use corner::{Corner, CornerReport};
pub use equivocate::Equivocate;
pub use flood::{PushFlood, RandomStringFlood};
pub use pull_flood::PullFlood;
pub use registry::AerAdversary;

use std::collections::BTreeSet;

use fba_samplers::{GString, PollSampler, QuorumScheme};
use fba_sim::{choose_corrupt, NodeId};
use rand_chacha::ChaCha12Rng;

use crate::aer::AerHarness;

/// Everything an attack strategy knows about the deployment — the
/// full-information assumption made concrete: configuration, shared
/// samplers, every node's initial candidate, and `gstring` itself.
#[derive(Clone, Debug)]
pub struct AttackContext {
    /// Deployment size.
    pub n: usize,
    /// Fault budget the strategy will use.
    pub t: usize,
    /// Quorum size.
    pub d: usize,
    /// Overload cap of Algorithm 3 (`log² n`).
    pub overload_cap: u64,
    /// The shared push/pull quorum samplers.
    pub scheme: QuorumScheme,
    /// The shared poll-list sampler.
    pub poll: PollSampler,
    /// Initial candidate of every node.
    pub assignments: Vec<GString>,
    /// The global string (full information: the adversary knows it).
    pub gstring: GString,
}

impl AttackContext {
    /// Builds the context from a harness plus the gstring the run is
    /// converging to.
    #[must_use]
    pub fn new(harness: &AerHarness, gstring: GString) -> Self {
        let cfg = harness.config();
        AttackContext {
            n: cfg.n,
            t: cfg.t,
            d: cfg.d,
            overload_cap: cfg.overload_cap,
            scheme: harness.scheme(),
            poll: harness.poll_sampler(),
            assignments: harness.assignments().to_vec(),
            gstring,
        }
    }

    /// A strategy's `corrupt` step: draws the coalition — `t` of `n`
    /// nodes — and leaves it in `members`, in ascending order, for the
    /// strategy to iterate.
    pub(crate) fn coalition(
        &self,
        n: usize,
        rng: &mut ChaCha12Rng,
        members: &mut Vec<NodeId>,
    ) -> BTreeSet<NodeId> {
        let set = choose_corrupt(n, self.t, rng);
        members.clear();
        members.extend(&set);
        set
    }
}
