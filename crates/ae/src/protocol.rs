//! The almost-everywhere agreement protocol: a committee-tree tournament
//! in the style of KSSV06.
//!
//! Phases (synchronous rounds; one phase = two steps so every message is
//! delivered before it is consumed):
//!
//! 1. **Leaf randomness** — each leaf group (contiguous block of
//!    `c = Θ(log n)` nodes) agrees on a *group value*: members broadcast a
//!    private random contribution, echo what they received, and take
//!    per-sender majorities, each echoer voting once per sender (one echo
//!    round suffices for consistency when the group has an honest
//!    majority).
//! 2. **Tournament ascent** — sibling subtrees exchange their group
//!    values: the *representative committee* of each side (sampled from
//!    the side's range, seeded by its own agreed value, hence verifiable
//!    and unpredictable until that value exists) broadcasts the value to
//!    the sibling's range; receivers verify each claimant against the
//!    claimed value and take majorities. Parent values combine both
//!    children's values, accumulating entropy level by level.
//! 3. **Supreme committee** — the root committee (sampled from all of
//!    `[n]`, seeded by the root value) runs the leaf procedure among
//!    itself, keeping only its members' contributions and echoes as a
//!    leaf group does; `gstring` is the concatenation of its members'
//!    contributions, so at least a `1 − t/n ≥ 2/3 + ε` fraction of its
//!    bits are uniformly random — exactly the §2.1 precondition.
//! 4. **Diffusion** — the supreme committee broadcasts `gstring` to every
//!    node; each node verifies claimants against its own root value and
//!    takes a majority. Nodes in subtrees the adversary controlled end up
//!    with a fallback random string — they are the "almost everywhere"
//!    remainder AER repairs.
//!
//! This deliberately simplifies the full KSSV06 construction (notably:
//! claim verification is value-seeded rather than grinding-resistant);
//! README "Deviations from the paper" lists it with the others.

use std::collections::BTreeMap;

use fba_samplers::GString;
use fba_sim::fxhash::FxHashMap;
use fba_sim::rng::{mix, splitmix64};
use fba_sim::{Context, NodeId, Protocol, Step, WireSize};
use rand::Rng;

use crate::tree;

/// Parameters of the almost-everywhere phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AeConfig {
    /// System size.
    pub n: usize,
    /// Committee size `c = Θ(log n)`.
    pub committee_size: usize,
    /// Length of the produced `gstring`, in bits.
    pub string_len: usize,
    /// Public sampler seed shared by all nodes.
    pub sampler_seed: u64,
}

impl AeConfig {
    /// Defaults matching `fba-core`-style deployments: committee size
    /// `⌈3·ln n⌉`, gstring of `4·log₂ n` bits.
    ///
    /// # Panics
    ///
    /// Panics if `n < 8`.
    #[must_use]
    pub fn recommended(n: usize) -> Self {
        assert!(n >= 8, "almost-everywhere phase needs n ≥ 8");
        AeConfig {
            n,
            committee_size: fba_samplers::default_quorum_size(n, 3.0),
            string_len: fba_samplers::gstring_len(n, 4),
            sampler_seed: 0xae5eed,
        }
    }

    /// The root level of the committee tree.
    #[must_use]
    pub fn root_level(&self) -> u32 {
        tree::root_level(self.n, self.committee_size)
    }

    /// Total steps the protocol needs (decision step of non-committee
    /// nodes).
    #[must_use]
    pub fn schedule_len(&self) -> Step {
        10 + 2 * Step::from(self.root_level())
    }
}

/// Almost-everywhere protocol messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AeMsg {
    /// A random contribution within a committee (`root = false`: leaf
    /// group; `root = true`: supreme committee).
    Contribute {
        /// Scope flag.
        root: bool,
        /// The contribution.
        value: u64,
    },
    /// Echo of received contributions for consistency.
    Echo {
        /// Scope flag.
        root: bool,
        /// The (sender, value) pairs the echoer saw.
        pairs: Vec<(NodeId, u64)>,
    },
    /// A representative's claim of its subtree's agreed group value.
    Gv {
        /// Tree level of the claimed subtree.
        level: u32,
        /// Index of the claimed subtree at that level.
        idx: u32,
        /// The claimed group value.
        value: u64,
    },
    /// The supreme committee's final string.
    Diffuse {
        /// The agreed `gstring`.
        value: GString,
    },
}

impl WireSize for AeMsg {
    fn wire_bits(&self) -> u64 {
        const KIND: u64 = 2;
        match self {
            AeMsg::Contribute { .. } => KIND + 1 + 64,
            AeMsg::Echo { pairs, .. } => KIND + 1 + pairs.len() as u64 * (32 + 64),
            AeMsg::Gv { .. } => KIND + 32 + 32 + 64,
            AeMsg::Diffuse { value } => KIND + value.wire_bits(),
        }
    }
}

/// The most frequent of `items` and its count; among tied items the
/// greatest wins. Every tally of the phase goes through here.
pub(crate) fn plurality<T: Ord>(items: impl IntoIterator<Item = T>) -> Option<(T, usize)> {
    let mut counts: BTreeMap<T, usize> = BTreeMap::new();
    for item in items {
        *counts.entry(item).or_default() += 1;
    }
    counts.into_iter().max_by_key(|&(_, count)| count)
}

/// The claim a strict majority of a `len`-member committee makes.
fn majority<T: Ord>(claims: impl IntoIterator<Item = T>, len: usize) -> Option<T> {
    plurality(claims)
        .filter(|&(_, count)| count > len / 2)
        .map(|(claim, _)| claim)
}

/// One contribute–echo–majority round: a leaf group's or the supreme
/// committee's. It holds only messages from the round's members.
#[derive(Clone, Debug, Default)]
struct Round {
    /// Contributions by sender, this node's own included.
    contribs: BTreeMap<NodeId, u64>,
    /// Echoes by echoer: the (sender, value) pairs each one saw.
    echoes: BTreeMap<NodeId, Vec<(NodeId, u64)>>,
}

impl Round {
    /// What this node echoes: every contribution it received.
    fn pairs(&self) -> Vec<(NodeId, u64)> {
        self.contribs.iter().map(|(&s, &v)| (s, v)).collect()
    }

    /// Per-member majority over the echoes, this node's own observation
    /// counted as one more echo (it never echoes to itself): the
    /// consistent contribution set.
    fn consistent(&self, members: &[NodeId]) -> Vec<(NodeId, u64)> {
        let own = self.pairs();
        let heard = self.echoes.values().chain([&own]).flatten();
        members
            .iter()
            .filter_map(|&member| {
                let claims = heard.clone().filter(|(s, _)| *s == member);
                majority(claims.map(|&(_, v)| v), members.len()).map(|v| (member, v))
            })
            .collect()
    }
}

/// One participant of the almost-everywhere phase.
#[derive(Clone, Debug)]
pub struct AeNode {
    cfg: AeConfig,
    id: NodeId,
    /// Rigged randomness: contribute this constant instead of a private
    /// random draw (models corrupt-but-compliant committee members that
    /// bias the bits they control — the reason the paper's precondition
    /// only promises `2/3 + ε` uniformly random bits).
    rigged: Option<u64>,
    /// The leaf group's round and the supreme committee's, indexed by the
    /// `root` flag of their messages. Both contributions are drawn at
    /// start; the root one is used only if sampled into the committee.
    rounds: [Round; 2],
    /// Agreed group values along this node's lineage, by level.
    lineage: Vec<Option<u64>>,
    /// Sibling value claims: (level, idx) → sender → claimed value.
    claims: FxHashMap<(u32, u32), BTreeMap<NodeId, u64>>,
    /// Diffusion claims: sender → gstring.
    diffuse_claims: BTreeMap<NodeId, GString>,
    /// Final output.
    output: Option<GString>,
}

impl AeNode {
    /// Builds the node.
    #[must_use]
    pub fn new(cfg: AeConfig, id: NodeId) -> Self {
        let levels = cfg.root_level() as usize + 1;
        AeNode {
            cfg,
            id,
            rigged: None,
            rounds: Default::default(),
            lineage: vec![None; levels],
            claims: FxHashMap::default(),
            diffuse_claims: BTreeMap::new(),
            output: None,
        }
    }

    /// Builds a node whose contributions are the fixed `value` instead of
    /// private randomness: a semi-honest biasing member. It follows the
    /// protocol otherwise, so agreement is unaffected — only the entropy
    /// of the bits it contributes is.
    #[must_use]
    pub fn new_rigged(cfg: AeConfig, id: NodeId, value: u64) -> Self {
        let mut node = Self::new(cfg, id);
        node.rigged = Some(value);
        node
    }

    /// The bit slice a committee member's contribution `value` expands to
    /// (`per` bits starting at slice offset) — exposed so experiments can
    /// compute which gstring bits a rigged contributor controls.
    #[must_use]
    pub fn contribution_bits(value: u64, per: usize) -> Vec<bool> {
        (0..per)
            .map(|j| {
                let word = splitmix64(value ^ (j as u64 / 64).wrapping_mul(0x9e37));
                (word >> (j % 64)) & 1 == 1
            })
            .collect()
    }

    fn c(&self) -> usize {
        self.cfg.committee_size
    }

    /// This node's subtree index at `level`.
    fn idx_at(&self, level: u32) -> u32 {
        (self.id.index() / (self.c() << level)) as u32
    }

    /// The members of this node's `root` round: its leaf group, or the
    /// supreme committee under its root value (none before that exists).
    fn members(&self, root: bool) -> Vec<NodeId> {
        if root {
            self.supreme_committee().unwrap_or_default()
        } else {
            tree::range(self.cfg.n, self.c(), 0, self.idx_at(0))
                .map(NodeId::from_index)
                .collect()
        }
    }

    /// Sends this node's contribution (`echo = false`) or echo to the rest
    /// of its `root` round, if it is a member.
    fn speak(&self, root: bool, echo: bool, ctx: &mut Context<'_, AeMsg>) {
        let members = self.members(root);
        if !members.contains(&self.id) {
            return;
        }
        let round = &self.rounds[usize::from(root)];
        let msg = if echo {
            AeMsg::Echo {
                root,
                pairs: round.pairs(),
            }
        } else {
            AeMsg::Contribute {
                root,
                value: round.contribs[&self.id],
            }
        };
        ctx.multicast(&self.others(members), msg);
    }

    /// `members` without this node, in order: the recipients of a
    /// multicast to one's own group.
    fn others(&self, members: impl IntoIterator<Item = NodeId>) -> Vec<NodeId> {
        members.into_iter().filter(|&m| m != self.id).collect()
    }

    /// Folds a consistent contribution set into a group value.
    fn fold(&self, pairs: &[(NodeId, u64)]) -> u64 {
        let mut acc = mix(self.cfg.sampler_seed, &[0xf01d]);
        for (sender, value) in pairs {
            acc = mix(acc, &[sender.index() as u64, *value]);
        }
        acc
    }

    /// Majority value among verified sibling claims for `(level, idx)`.
    fn sibling_value(&self, level: u32, idx: u32) -> Option<u64> {
        let (n, c, seed) = (self.cfg.n, self.c(), self.cfg.sampler_seed);
        // Verify each claimant against the value it claims.
        let verified = self.claims.get(&(level, idx))?.iter();
        let verified = verified.filter(|&(&s, &v)| tree::is_rep(n, c, seed, level, idx, v, s));
        let committee = c.min(tree::range(n, c, level, idx).len());
        majority(verified.map(|(_, &v)| v), committee)
    }

    /// This node's agreed value at `level`: the leaf round's fold, or its
    /// child's value combined with the sibling's (`None` on a lineage
    /// broken below).
    fn agree(&self, level: u32) -> Option<u64> {
        let seed = self.cfg.sampler_seed;
        let Some(child) = level.checked_sub(1) else {
            let members = self.members(false);
            return Some(self.fold(&self.rounds[0].consistent(&members)));
        };
        let (mine, sibling) = (self.idx_at(child), self.idx_at(child) ^ 1);
        let own = self.lineage[child as usize]?;
        if sibling >= tree::nodes_at_level(self.cfg.n, self.c(), child) {
            return Some(tree::combine(seed, own, None));
        }
        Some(match self.sibling_value(child, sibling) {
            Some(theirs) if mine < sibling => tree::combine(seed, own, Some(theirs)),
            Some(theirs) => tree::combine(seed, theirs, Some(own)),
            // Missing sibling majority: lineage broken.
            None => tree::combine(seed, own, Some(0xdead)),
        })
    }

    /// The supreme committee under this node's root value (known once the
    /// tournament ascent completed; `None` before that or on a broken
    /// lineage). Exposed for the gstring-entropy experiment.
    #[must_use]
    pub fn supreme_committee(&self) -> Option<Vec<NodeId>> {
        let root = self.cfg.root_level();
        let value = self.lineage[root as usize]?;
        let (n, c, seed) = (self.cfg.n, self.c(), self.cfg.sampler_seed);
        Some(tree::reps(n, c, seed, root, 0, value))
    }

    /// Builds `gstring` from the supreme committee's consistent
    /// contributions: each member's contribution supplies an equal slice
    /// of bits (hash-extended), so corrupt members control at most their
    /// own slices.
    fn build_gstring(&self, pairs: &[(NodeId, u64)], committee: &[NodeId]) -> GString {
        let len = self.cfg.string_len;
        let per = len.div_ceil(committee.len().max(1));
        let by_sender: BTreeMap<NodeId, u64> = pairs.iter().copied().collect();
        let mut bits: Vec<bool> = committee
            .iter()
            .flat_map(|member| {
                let value = by_sender.get(member).copied().unwrap_or(0);
                Self::contribution_bits(value, per)
            })
            .take(len)
            .collect();
        bits.resize(len, false);
        GString::from_bits(&bits)
    }

    fn decide_from_diffusion(&mut self, ctx: &mut Context<'_, AeMsg>) {
        if self.output.is_some() {
            return;
        }
        let committee = self.members(true);
        let claims = self.diffuse_claims.iter();
        let claims = claims.filter(|(sender, _)| committee.contains(sender));
        let decided = majority(claims.map(|(_, &g)| g), committee.len());
        // Fallback: an arbitrary private candidate — this node is part of
        // the "almost everywhere" remainder.
        self.output = Some(decided.unwrap_or_else(|| {
            let bits: Vec<bool> = (0..self.cfg.string_len).map(|_| ctx.rng().gen()).collect();
            GString::from_bits(&bits)
        }));
    }
}

impl Protocol for AeNode {
    type Msg = AeMsg;
    type Output = GString;

    fn on_start(&mut self, ctx: &mut Context<'_, AeMsg>) {
        for round in &mut self.rounds {
            let value = self.rigged.unwrap_or_else(|| ctx.rng().gen());
            round.contribs.insert(self.id, value);
        }
        self.speak(false, false, ctx); // leaf contribution
    }

    fn on_step(&mut self, ctx: &mut Context<'_, AeMsg>) {
        let root = self.cfg.root_level();
        match ctx.step() {
            2 => self.speak(false, true, ctx), // leaf echo
            s if s >= 4 && s % 2 == 0 && (s - 4) / 2 <= Step::from(root) => {
                let level = ((s - 4) / 2) as u32;
                let value = self.agree(level);
                self.lineage[level as usize] = value;
                let Some(value) = value else { return };
                if level == root {
                    // Root reached: the supreme committee runs its own
                    // contribute round.
                    return self.speak(true, false, ctx);
                }
                // A representative sends its subtree's value to the
                // sibling range.
                let (n, c, seed) = (self.cfg.n, self.c(), self.cfg.sampler_seed);
                let (my_idx, sibling) = (self.idx_at(level), self.idx_at(level) ^ 1);
                if sibling < tree::nodes_at_level(n, c, level)
                    && tree::is_rep(n, c, seed, level, my_idx, value, self.id)
                {
                    let range: Vec<NodeId> = tree::range(n, c, level, sibling)
                        .map(NodeId::from_index)
                        .collect();
                    ctx.multicast(
                        &range,
                        AeMsg::Gv {
                            level,
                            idx: my_idx,
                            value,
                        },
                    );
                }
            }
            s if s == 6 + 2 * Step::from(root) => self.speak(true, true, ctx), // supreme echo
            s if s == 8 + 2 * Step::from(root) => {
                // The supreme committee builds gstring and diffuses it.
                let committee = self.members(true);
                if committee.contains(&self.id) {
                    let consistent = self.rounds[1].consistent(&committee);
                    let gstring = self.build_gstring(&consistent, &committee);
                    let everyone = fba_sim::all_nodes(self.cfg.n);
                    ctx.multicast(&self.others(everyone), AeMsg::Diffuse { value: gstring });
                    self.output = Some(gstring);
                }
            }
            s if s == 10 + 2 * Step::from(root) => self.decide_from_diffusion(ctx),
            _ => {}
        }
    }

    fn on_message(&mut self, from: NodeId, msg: AeMsg, _ctx: &mut Context<'_, AeMsg>) {
        match msg {
            // A round keeps only its members' messages, first one wins.
            AeMsg::Contribute { root, value } => {
                if self.members(root).contains(&from) {
                    let round = &mut self.rounds[usize::from(root)];
                    round.contribs.entry(from).or_insert(value);
                }
            }
            AeMsg::Echo { root, pairs } => {
                let members = self.members(root);
                if members.contains(&from) {
                    // An echoer votes once per member: its first pair for
                    // each, however many it lists.
                    let mut kept: Vec<(NodeId, u64)> = Vec::new();
                    for (sender, value) in pairs {
                        if members.contains(&sender) && kept.iter().all(|&(s, _)| s != sender) {
                            kept.push((sender, value));
                        }
                    }
                    let round = &mut self.rounds[usize::from(root)];
                    round.echoes.entry(from).or_insert(kept);
                }
            }
            AeMsg::Gv { level, idx, value } => {
                // Store first claim per sender; verification happens at
                // majority time (it depends on the claimed value).
                if tree::range(self.cfg.n, self.c(), level, idx).contains(&from.index()) {
                    self.claims
                        .entry((level, idx))
                        .or_default()
                        .entry(from)
                        .or_insert(value);
                }
            }
            AeMsg::Diffuse { value } => {
                self.diffuse_claims.entry(from).or_insert(value);
            }
        }
    }

    fn output(&self) -> Option<GString> {
        self.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fba_sim::{run, Driver, EngineConfig, Input, NoAdversary, SilentAdversary, TestStep};

    fn engine(cfg: &AeConfig) -> EngineConfig {
        EngineConfig {
            max_steps: cfg.schedule_len() + 4,
            ..EngineConfig::sync(cfg.n)
        }
    }

    #[test]
    fn fault_free_run_agrees_everywhere() {
        for n in [16, 64, 200] {
            let cfg = AeConfig::recommended(n);
            let out = run::<AeNode, _, _>(&engine(&cfg), 5, &mut NoAdversary, |id| {
                AeNode::new(cfg, id)
            });
            assert!(out.all_decided(), "n={n}");
            let g = *out.unanimous().expect("all nodes agree fault-free");
            assert_eq!(g.len_bits(), cfg.string_len);
        }
    }

    #[test]
    fn fault_free_runs_differ_across_seeds() {
        let cfg = AeConfig::recommended(64);
        let a = run::<AeNode, _, _>(&engine(&cfg), 1, &mut NoAdversary, |id| {
            AeNode::new(cfg, id)
        });
        let b = run::<AeNode, _, _>(&engine(&cfg), 2, &mut NoAdversary, |id| {
            AeNode::new(cfg, id)
        });
        assert_ne!(
            a.unanimous(),
            b.unanimous(),
            "gstring must depend on node randomness"
        );
    }

    #[test]
    fn silent_faults_leave_a_knowing_supermajority() {
        let n = 128;
        let cfg = AeConfig::recommended(n);
        let t = n / 8;
        let mut adv = SilentAdversary::new(t);
        let out = run::<AeNode, _, _>(&engine(&cfg), 9, &mut adv, |id| AeNode::new(cfg, id));
        // Majority gstring among correct outputs:
        let (_, knowing) = plurality(out.outputs.values()).unwrap();
        let correct = n - t;
        assert!(
            knowing as f64 > 0.75 * correct as f64,
            "only {knowing}/{correct} correct nodes share the majority string"
        );
    }

    #[test]
    fn schedule_len_grows_logarithmically() {
        let small = AeConfig::recommended(64).schedule_len();
        let large = AeConfig::recommended(4096).schedule_len();
        assert!(large > small);
        assert!(large < 40, "still polylog at laptop scale: {large}");
    }

    #[test]
    fn msg_wire_sizes() {
        assert_eq!(
            AeMsg::Contribute {
                root: false,
                value: 0
            }
            .wire_bits(),
            67
        );
        let echo = AeMsg::Echo {
            root: true,
            pairs: vec![(NodeId::from_index(0), 1), (NodeId::from_index(1), 2)],
        };
        assert_eq!(echo.wire_bits(), 2 + 1 + 2 * 96);
        assert_eq!(
            AeMsg::Gv {
                level: 0,
                idx: 0,
                value: 0
            }
            .wire_bits(),
            130
        );
        assert_eq!(
            AeMsg::Diffuse {
                value: GString::zeroes(40)
            }
            .wire_bits(),
            42
        );
    }

    /// Node `id` of `cfg`'s system, alone in a driver's node table.
    fn driven(cfg: AeConfig, id: NodeId) -> Driver<AeNode> {
        Driver::new(cfg.n, 1, |i| (i == id).then(|| AeNode::new(cfg, id)))
    }

    /// `msg` from `from`, as a driver input.
    fn hear(from: NodeId, msg: AeMsg) -> Input<AeMsg> {
        Input::Message { from, msg }
    }

    #[test]
    fn contributions_from_outside_the_leaf_group_are_ignored() {
        let cfg = AeConfig::recommended(64);
        let c = cfg.committee_size; // leaf group 0 = [0, c)
        let me = NodeId::from_index(0);
        let mut d = driven(cfg, me);
        let contribute = |value| AeMsg::Contribute { root: false, value };
        // A contribution from a node outside group 0 must be dropped.
        let outsider = NodeId::from_index(c + 1);
        d.at(1).apply(me, hear(outsider, contribute(7)));
        // A contribution from inside must be stored (first one wins).
        let insider = NodeId::from_index(1);
        d.apply(me, hear(insider, contribute(9)));
        d.apply(me, hear(insider, contribute(10)));
        let contribs = &d.node(me).rounds[0].contribs;
        assert_eq!(contribs.get(&outsider), None);
        assert_eq!(contribs.get(&insider), Some(&9), "first claim wins");
    }

    #[test]
    fn gv_claims_from_outside_the_claimed_range_are_ignored() {
        let cfg = AeConfig::recommended(128);
        let c = cfg.committee_size;
        let me = NodeId::from_index(0);
        let mut d = driven(cfg, me);
        let claim = AeMsg::Gv {
            level: 0,
            idx: 1,
            value: 42,
        };
        // Claim about subtree (0, 1) = range [c, 2c) from a node outside
        // that range: dropped.
        d.at(5)
            .apply(me, hear(NodeId::from_index(3 * c), claim.clone()));
        assert!(!d.node(me).claims.contains_key(&(0, 1)));
        // Same claim from inside the range: stored.
        d.apply(me, hear(NodeId::from_index(c + 1), claim));
        assert_eq!(
            d.node(me).claims[&(0, 1)].get(&NodeId::from_index(c + 1)),
            Some(&42)
        );
    }

    /// The leaf round of a six-member group `[0, 6)` at n = 64, as node 0
    /// keeps it: its own contribution is 7, and each row feeds it echoes.
    #[test]
    fn a_leaf_round_counts_each_echoer_once_per_member() {
        let cfg = AeConfig {
            committee_size: 6,
            ..AeConfig::recommended(64)
        };
        let ids = |range: std::ops::Range<usize>| range.map(NodeId::from_index);
        let (me, members): (NodeId, Vec<NodeId>) = (NodeId::from_index(0), ids(0..6).collect());
        let rigged = |id| (id == me).then(|| AeNode::new_rigged(cfg, id, 7));
        let mut d = Driver::new(64, 1, rigged);
        d.apply(me, Input::Start);
        let echo = |from, pairs: Vec<(NodeId, u64)>| hear(from, AeMsg::Echo { root: false, pairs });
        let table = [
            TestStep {
                desc: "§2.1 echo round: four honest echoes of (n0, 7) outvote one echo that \
                       lists (n0, 0xbad) ten times — an echoer votes once per member",
                input: ids(1..5)
                    .map(|m| echo(m, vec![(me, 7)]))
                    .chain([echo(NodeId::from_index(5), vec![(me, 0xbad); 10])])
                    .collect::<Vec<_>>(),
                expected_outputs: vec![(me, 7)],
            },
            TestStep {
                desc: "§2.1 echo round: echoes from outside the leaf group are dropped",
                input: ids(6..16).map(|m| echo(m, vec![(me, 0xbad)])).collect(),
                expected_outputs: vec![(me, 7)],
            },
            TestStep {
                desc: "§2.1 echo round: an echoer's first echo counts, a second is dropped",
                input: ids(1..5).map(|m| echo(m, vec![(me, 0xbad)])).collect(),
                expected_outputs: vec![(me, 7)],
            },
        ];
        for row in table {
            for input in row.input {
                d.at(3).apply(me, input);
            }
            let consistent = d.node(me).rounds[0].consistent(&members);
            assert_eq!(consistent, row.expected_outputs, "{}", row.desc);
        }
    }

    #[test]
    fn a_flooding_echo_is_stored_as_one_pair_per_member() {
        let (cfg, me) = (AeConfig::recommended(64), NodeId::from_index(0));
        let members = AeNode::new(cfg, me).members(false);
        let stored = |pairs: Vec<(NodeId, u64)>| {
            let mut d = driven(cfg, me);
            d.at(3)
                .apply(me, hear(members[1], AeMsg::Echo { root: false, pairs }));
            let echoes = &d.node(me).rounds[0].echoes;
            echoes.values().map(Vec::len).sum::<usize>()
        };
        let honest = stored(members.iter().map(|&m| (m, 1)).collect());
        assert_eq!(honest, members.len());
        let flood = (0..10_000).map(|i| (NodeId::from_index(i % 64), i as u64));
        assert!(stored(flood.collect()) <= honest);
    }

    #[test]
    fn consistent_requires_per_sender_echo_majority() {
        let members: Vec<NodeId> = (0..5).map(NodeId::from_index).collect();
        // This node (member 0) saw node 0 contribute 7 and node 1
        // contribute 5; with its own observation, 3 echoers say node 0
        // contributed 7 and 2 say 8. Node 1 only has 2 echoes (below the
        // 3-of-5 majority).
        let mut round = Round::default();
        round.contribs.insert(members[0], 7);
        round.contribs.insert(members[1], 5);
        round
            .echoes
            .insert(members[1], vec![(members[0], 7), (members[1], 5)]);
        round.echoes.insert(members[2], vec![(members[0], 7)]);
        round.echoes.insert(members[3], vec![(members[0], 8)]);
        round.echoes.insert(members[4], vec![(members[0], 8)]);
        assert_eq!(round.consistent(&members), vec![(members[0], 7)]);
    }

    #[test]
    fn plurality_breaks_ties_to_the_greatest_and_majority_is_strict() {
        assert_eq!(plurality([3, 1, 3, 1, 2]), Some((3, 2)));
        assert_eq!(plurality(Vec::<u64>::new()), None);
        // More than half of the committee, not of the claims.
        assert_eq!(majority([7, 7, 7, 8], 5), Some(7));
        assert_eq!(majority([7, 7, 8], 5), None);
        assert_eq!(majority([7, 7], 4), None, "half is not a majority");
        assert_eq!(majority([7, 7, 8, 8, 8], 4), Some(8));
    }

    /// A member of the supreme committee under root value `v` at n = 256,
    /// past its start, with every other member's root contribution and
    /// echo delivered.
    fn supreme_member() -> (Driver<AeNode>, NodeId, Vec<NodeId>) {
        let (n, v) = (256, 0x5eed_u64);
        let cfg = AeConfig::recommended(n);
        let root = cfg.root_level();
        let committee = tree::reps(n, cfg.committee_size, cfg.sampler_seed, root, 0, v);
        let me = committee[0];
        let mut d = driven(cfg, me);
        d.node_mut(me).lineage[root as usize] = Some(v);
        d.apply(me, Input::Start);
        let value = |m: NodeId| m.index() as u64 * 3 + 1;
        let mut pairs: Vec<(NodeId, u64)> = committee.iter().map(|&m| (m, value(m))).collect();
        pairs[0].1 = d.node(me).rounds[1].contribs[&me];
        for &m in &committee[1..] {
            let contribute = AeMsg::Contribute {
                root: true,
                value: value(m),
            };
            d.at(1).apply(me, hear(m, contribute));
            let echo = AeMsg::Echo {
                root: true,
                pairs: pairs.clone(),
            };
            d.apply(me, hear(m, echo));
        }
        (d, me, committee)
    }

    #[test]
    fn echoes_from_outside_the_supreme_committee_do_not_count() {
        let (mut node, me, committee) = supreme_member();
        let (mut attacked, ..) = supreme_member();
        let cfg = node.node(me).cfg;
        // 2c outsiders echo `0xbad` for every member: twice the members'
        // own echoes, so counted they would outvote every contribution.
        let bad: Vec<(NodeId, u64)> = committee.iter().map(|&m| (m, 0xbad)).collect();
        let outsiders = fba_sim::all_nodes(cfg.n).filter(|m| !committee.contains(m));
        for outsider in outsiders.take(2 * cfg.committee_size) {
            let echo = AeMsg::Echo {
                root: true,
                pairs: bad.clone(),
            };
            attacked.at(7).apply(me, hear(outsider, echo));
        }
        let step = 8 + 2 * Step::from(cfg.root_level());
        let diffused = node.at(step).apply(me, Input::Tick);
        assert!(matches!(diffused[0].msg, AeMsg::Diffuse { .. }));
        assert_eq!(node.outbox().run_count(), 1, "one multicast");
        assert_eq!(attacked.at(step).apply(me, Input::Tick), diffused);
    }

    #[test]
    fn contributions_from_outside_the_supreme_committee_are_not_echoed() {
        let (mut d, me, committee) = supreme_member();
        let cfg = d.node(me).cfg;
        let outsider = fba_sim::all_nodes(cfg.n)
            .find(|m| !committee.contains(m))
            .unwrap();
        let contribute = AeMsg::Contribute {
            root: true,
            value: 0xbad,
        };
        d.at(5).apply(me, hear(outsider, contribute));
        let step = 6 + 2 * Step::from(cfg.root_level());
        let sent = d.at(step).apply(me, Input::Tick);
        let AeMsg::Echo { root: true, pairs } = &sent[0].msg else {
            panic!("a committee member echoes");
        };
        assert_eq!(d.outbox().run_count(), 1, "once");
        let senders: Vec<NodeId> = pairs.iter().map(|&(s, _)| s).collect();
        assert_eq!(senders, committee, "every member and no one else");
    }

    #[test]
    fn contribution_bits_are_deterministic_and_value_dependent() {
        let a = AeNode::contribution_bits(1, 16);
        let b = AeNode::contribution_bits(1, 16);
        let c = AeNode::contribution_bits(2, 16);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn rigged_node_sends_the_fixed_contribution() {
        let (cfg, me) = (AeConfig::recommended(64), NodeId::from_index(0));
        let mut d = Driver::new(64, 1, |id| {
            (id == me).then(|| AeNode::new_rigged(cfg, id, 0xabcd))
        });
        let sent = d.apply(me, Input::Start);
        assert!(!sent.is_empty());
        for e in sent {
            if let AeMsg::Contribute { value, .. } = e.msg {
                assert_eq!(value, 0xabcd);
            }
        }
    }
}
