//! The almost-everywhere agreement protocol: a committee-tree tournament
//! in the style of KSSV06.
//!
//! Phases (synchronous rounds; one phase = two steps so every message is
//! delivered before it is consumed):
//!
//! 1. **Leaf randomness** — each leaf group (contiguous block of
//!    `c = Θ(log n)` nodes) agrees on a *group value*: members broadcast a
//!    private random contribution, echo what they received, and take
//!    per-sender majorities (one echo round suffices for consistency when
//!    the group has an honest majority).
//! 2. **Tournament ascent** — sibling subtrees exchange their group
//!    values: the *representative committee* of each side (sampled from
//!    the side's range, seeded by its own agreed value, hence verifiable
//!    and unpredictable until that value exists) broadcasts the value to
//!    the sibling's range; receivers verify each claimant against the
//!    claimed value and take majorities. Parent values combine both
//!    children's values, accumulating entropy level by level.
//! 3. **Supreme committee** — the root committee (sampled from all of
//!    `[n]`, seeded by the root value) runs the leaf procedure among
//!    itself; `gstring` is the concatenation of its members'
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

/// Strict majority threshold for a committee of `len` members.
fn maj(len: usize) -> usize {
    len / 2 + 1
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
    /// Own leaf contribution (drawn at start).
    contribution: u64,
    /// Own root contribution (drawn at start; used only if sampled into
    /// the supreme committee).
    root_contribution: u64,
    /// Leaf-scope received contributions.
    contribs: BTreeMap<NodeId, u64>,
    /// Leaf-scope echoes.
    echoes: BTreeMap<NodeId, Vec<(NodeId, u64)>>,
    /// Root-scope received contributions.
    root_contribs: BTreeMap<NodeId, u64>,
    /// Root-scope echoes.
    root_echoes: BTreeMap<NodeId, Vec<(NodeId, u64)>>,
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
            contribution: 0,
            root_contribution: 0,
            contribs: BTreeMap::new(),
            echoes: BTreeMap::new(),
            root_contribs: BTreeMap::new(),
            root_echoes: BTreeMap::new(),
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

    /// `members` without this node, in order: the recipients of a
    /// multicast to one's own group.
    fn others(&self, members: impl IntoIterator<Item = NodeId>) -> Vec<NodeId> {
        members.into_iter().filter(|&m| m != self.id).collect()
    }

    fn leaf_members(&self) -> Vec<NodeId> {
        tree::range(self.cfg.n, self.c(), 0, self.idx_at(0))
            .map(NodeId::from_index)
            .collect()
    }

    /// Per-sender majority over echoes: the consistent contribution set.
    fn consistent(
        echoes: &BTreeMap<NodeId, Vec<(NodeId, u64)>>,
        members: &[NodeId],
    ) -> Vec<(NodeId, u64)> {
        let threshold = maj(members.len());
        let mut out = Vec::new();
        for &sender in members {
            let mut votes: BTreeMap<u64, usize> = BTreeMap::new();
            for pairs in echoes.values() {
                for (s, v) in pairs {
                    if *s == sender {
                        *votes.entry(*v).or_default() += 1;
                    }
                }
            }
            if let Some((&value, &count)) = votes.iter().max_by_key(|(_, &c)| c) {
                if count >= threshold {
                    out.push((sender, value));
                }
            }
        }
        out
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
        let claims = self.claims.get(&(level, idx))?;
        let range_len = tree::range(self.cfg.n, self.c(), level, idx).len();
        let committee = self.c().min(range_len);
        let mut votes: BTreeMap<u64, usize> = BTreeMap::new();
        for (&sender, &value) in claims {
            // Verify the claimant against the value it claims.
            if tree::is_rep(
                self.cfg.n,
                self.c(),
                self.cfg.sampler_seed,
                level,
                idx,
                value,
                sender,
            ) {
                *votes.entry(value).or_default() += 1;
            }
        }
        votes
            .into_iter()
            .filter(|&(_, count)| count >= maj(committee))
            .max_by_key(|&(_, count)| count)
            .map(|(value, _)| value)
    }

    /// Whether this node sits in the representative committee of
    /// `(level, idx)` given the agreed value.
    fn i_am_rep(&self, level: u32, value: u64) -> bool {
        tree::is_rep(
            self.cfg.n,
            self.c(),
            self.cfg.sampler_seed,
            level,
            self.idx_at(level),
            value,
            self.id,
        )
    }

    /// The supreme committee under this node's root value (known once the
    /// tournament ascent completed; `None` before that or on a broken
    /// lineage). Exposed for the gstring-entropy experiment.
    #[must_use]
    pub fn supreme_committee(&self) -> Option<Vec<NodeId>> {
        self.root_committee()
    }

    /// The supreme committee under this node's root value.
    fn root_committee(&self) -> Option<Vec<NodeId>> {
        let root = self.cfg.root_level();
        let value = self.lineage[root as usize]?;
        Some(tree::reps(
            self.cfg.n,
            self.c(),
            self.cfg.sampler_seed,
            root,
            0,
            value,
        ))
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
        let decided = self.root_committee().and_then(|committee| {
            let threshold = maj(committee.len());
            let mut votes: BTreeMap<GString, usize> = BTreeMap::new();
            for (sender, value) in &self.diffuse_claims {
                if committee.contains(sender) {
                    *votes.entry(*value).or_default() += 1;
                }
            }
            votes
                .into_iter()
                .filter(|&(_, count)| count >= threshold)
                .max_by_key(|&(_, count)| count)
                .map(|(value, _)| value)
        });
        self.output = Some(match decided {
            Some(g) => g,
            // Fallback: an arbitrary private candidate — this node is part
            // of the "almost everywhere" remainder.
            None => {
                let mut bits = vec![false; self.cfg.string_len];
                for b in &mut bits {
                    *b = ctx.rng().gen();
                }
                GString::from_bits(&bits)
            }
        });
    }
}

impl Protocol for AeNode {
    type Msg = AeMsg;
    type Output = GString;

    fn on_start(&mut self, ctx: &mut Context<'_, AeMsg>) {
        self.contribution = self.rigged.unwrap_or_else(|| ctx.rng().gen());
        self.root_contribution = self.rigged.unwrap_or_else(|| ctx.rng().gen());
        self.contribs.insert(self.id, self.contribution);
        self.root_contribs.insert(self.id, self.root_contribution);
        let contribute = AeMsg::Contribute {
            root: false,
            value: self.contribution,
        };
        ctx.multicast(&self.others(self.leaf_members()), contribute);
    }

    fn on_step(&mut self, ctx: &mut Context<'_, AeMsg>) {
        let step = ctx.step();
        let root = self.cfg.root_level();
        let c = self.c();
        match step {
            2 => {
                // Leaf echo.
                let pairs: Vec<(NodeId, u64)> =
                    self.contribs.iter().map(|(&s, &v)| (s, v)).collect();
                let echo = AeMsg::Echo { root: false, pairs };
                ctx.multicast(&self.others(self.leaf_members()), echo);
            }
            s if s >= 4 && s % 2 == 0 && (s - 4) / 2 <= Step::from(root) => {
                let level = ((s - 4) / 2) as u32;
                // Compute the agreed value at `level`.
                let value = if level == 0 {
                    let members = self.leaf_members();
                    let mut echoes = self.echoes.clone();
                    // Our own observation counts as an echo.
                    echoes.insert(
                        self.id,
                        self.contribs.iter().map(|(&a, &b)| (a, b)).collect(),
                    );
                    let consistent = Self::consistent(&echoes, &members);
                    Some(self.fold(&consistent))
                } else {
                    let child_level = level - 1;
                    let my_child_idx = self.idx_at(child_level);
                    let parent_idx = my_child_idx / 2;
                    let left_idx = parent_idx * 2;
                    let right_idx = left_idx + 1;
                    let own = self.lineage[child_level as usize];
                    let sibling_exists =
                        right_idx < tree::nodes_at_level(self.cfg.n, c, child_level);
                    own.map(|own_value| {
                        if !sibling_exists {
                            tree::combine(self.cfg.sampler_seed, own_value, None)
                        } else {
                            let (left, right) = if my_child_idx == left_idx {
                                (Some(own_value), self.sibling_value(child_level, right_idx))
                            } else {
                                (self.sibling_value(child_level, left_idx), Some(own_value))
                            };
                            match (left, right) {
                                (Some(l), Some(r)) => {
                                    tree::combine(self.cfg.sampler_seed, l, Some(r))
                                }
                                // Missing sibling majority: lineage broken.
                                _ => tree::combine(
                                    self.cfg.sampler_seed,
                                    left.or(right).unwrap_or(0),
                                    Some(0xdead),
                                ),
                            }
                        }
                    })
                };
                self.lineage[level as usize] = value;

                let Some(value) = value else { return };
                if level < root {
                    // Broadcast our subtree's value to the sibling range.
                    let my_idx = self.idx_at(level);
                    let sibling = my_idx ^ 1;
                    if sibling < tree::nodes_at_level(self.cfg.n, c, level)
                        && self.i_am_rep(level, value)
                    {
                        let range = tree::range(self.cfg.n, c, level, sibling);
                        let range: Vec<NodeId> = range.map(NodeId::from_index).collect();
                        let idx = my_idx;
                        ctx.multicast(&range, AeMsg::Gv { level, idx, value });
                    }
                } else {
                    // Root reached: supreme committee runs its own
                    // contribute round.
                    if let Some(committee) = self.root_committee() {
                        if committee.contains(&self.id) {
                            let contribute = AeMsg::Contribute {
                                root: true,
                                value: self.root_contribution,
                            };
                            ctx.multicast(&self.others(committee), contribute);
                        }
                    }
                }
            }
            s if s == 6 + 2 * Step::from(root) => {
                // Supreme committee echo.
                if let Some(committee) = self.root_committee() {
                    if committee.contains(&self.id) {
                        let pairs: Vec<(NodeId, u64)> =
                            self.root_contribs.iter().map(|(&a, &b)| (a, b)).collect();
                        let echo = AeMsg::Echo { root: true, pairs };
                        ctx.multicast(&self.others(committee), echo);
                    }
                }
            }
            s if s == 8 + 2 * Step::from(root) => {
                // Supreme committee builds gstring and diffuses it.
                if let Some(committee) = self.root_committee() {
                    if committee.contains(&self.id) {
                        let mut echoes = self.root_echoes.clone();
                        echoes.insert(
                            self.id,
                            self.root_contribs.iter().map(|(&a, &b)| (a, b)).collect(),
                        );
                        let consistent = Self::consistent(&echoes, &committee);
                        let gstring = self.build_gstring(&consistent, &committee);
                        let everyone = fba_sim::all_nodes(self.cfg.n);
                        ctx.multicast(&self.others(everyone), AeMsg::Diffuse { value: gstring });
                        self.output = Some(gstring);
                    }
                }
            }
            s if s == 10 + 2 * Step::from(root) => {
                self.decide_from_diffusion(ctx);
            }
            _ => {}
        }
    }

    fn on_message(&mut self, from: NodeId, msg: AeMsg, _ctx: &mut Context<'_, AeMsg>) {
        match msg {
            AeMsg::Contribute { root: false, value } => {
                // Only group members may contribute.
                if self.leaf_members().contains(&from) {
                    self.contribs.entry(from).or_insert(value);
                }
            }
            AeMsg::Contribute { root: true, value } => {
                self.root_contribs.entry(from).or_insert(value);
            }
            AeMsg::Echo { root: false, pairs } => {
                if self.leaf_members().contains(&from) {
                    self.echoes.entry(from).or_insert(pairs);
                }
            }
            AeMsg::Echo { root: true, pairs } => {
                self.root_echoes.entry(from).or_insert(pairs);
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
    use fba_sim::{run, EngineConfig, NoAdversary, SilentAdversary};

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
        let mut votes: BTreeMap<GString, usize> = BTreeMap::new();
        for v in out.outputs.values() {
            *votes.entry(*v).or_default() += 1;
        }
        let (_, knowing) = votes.into_iter().max_by_key(|&(_, c)| c).unwrap();
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

    /// Drives a single node by hand to check message filtering.
    fn hand_ctx<'a>(
        id: NodeId,
        n: usize,
        step: fba_sim::Step,
        rng: &'a mut rand_chacha::ChaCha12Rng,
        outbox: &'a mut fba_sim::Runs<AeMsg>,
    ) -> Context<'a, AeMsg> {
        Context::new(id, n, step, rng, outbox)
    }

    #[test]
    fn contributions_from_outside_the_leaf_group_are_ignored() {
        let cfg = AeConfig::recommended(64);
        let c = cfg.committee_size; // leaf group 0 = [0, c)
        let mut node = AeNode::new(cfg, NodeId::from_index(0));
        let mut rng = fba_sim::rng::node_rng(1, 0);
        let mut outbox = fba_sim::Runs::new();
        let mut ctx = hand_ctx(NodeId::from_index(0), 64, 1, &mut rng, &mut outbox);
        // A contribution from a node outside group 0 must be dropped.
        let outsider = NodeId::from_index(c + 1);
        node.on_message(
            outsider,
            AeMsg::Contribute {
                root: false,
                value: 7,
            },
            &mut ctx,
        );
        // A contribution from inside must be stored (first one wins).
        let insider = NodeId::from_index(1);
        node.on_message(
            insider,
            AeMsg::Contribute {
                root: false,
                value: 9,
            },
            &mut ctx,
        );
        node.on_message(
            insider,
            AeMsg::Contribute {
                root: false,
                value: 10,
            },
            &mut ctx,
        );
        assert_eq!(node.contribs.get(&outsider), None);
        assert_eq!(node.contribs.get(&insider), Some(&9), "first claim wins");
    }

    #[test]
    fn gv_claims_from_outside_the_claimed_range_are_ignored() {
        let cfg = AeConfig::recommended(128);
        let c = cfg.committee_size;
        let mut node = AeNode::new(cfg, NodeId::from_index(0));
        let mut rng = fba_sim::rng::node_rng(1, 0);
        let mut outbox = fba_sim::Runs::new();
        let mut ctx = hand_ctx(NodeId::from_index(0), 128, 5, &mut rng, &mut outbox);
        // Claim about subtree (0, 1) = range [c, 2c) from a node outside
        // that range: dropped.
        node.on_message(
            NodeId::from_index(3 * c),
            AeMsg::Gv {
                level: 0,
                idx: 1,
                value: 42,
            },
            &mut ctx,
        );
        assert!(!node.claims.contains_key(&(0, 1)));
        // Same claim from inside the range: stored.
        node.on_message(
            NodeId::from_index(c + 1),
            AeMsg::Gv {
                level: 0,
                idx: 1,
                value: 42,
            },
            &mut ctx,
        );
        assert_eq!(
            node.claims[&(0, 1)].get(&NodeId::from_index(c + 1)),
            Some(&42)
        );
    }

    #[test]
    fn consistent_requires_per_sender_echo_majority() {
        let members: Vec<NodeId> = (0..5).map(NodeId::from_index).collect();
        let mut echoes: BTreeMap<NodeId, Vec<(NodeId, u64)>> = BTreeMap::new();
        // 3 echoers say node 0 contributed 7; 2 say 8. Node 1 only has 2
        // echoes (below the 3-of-5 majority).
        echoes.insert(members[0], vec![(members[0], 7), (members[1], 5)]);
        echoes.insert(members[1], vec![(members[0], 7), (members[1], 5)]);
        echoes.insert(members[2], vec![(members[0], 7)]);
        echoes.insert(members[3], vec![(members[0], 8)]);
        echoes.insert(members[4], vec![(members[0], 8)]);
        let consistent = AeNode::consistent(&echoes, &members);
        assert_eq!(consistent, vec![(members[0], 7)]);
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
        let cfg = AeConfig::recommended(64);
        let mut node = AeNode::new_rigged(cfg, NodeId::from_index(0), 0xabcd);
        let mut rng = fba_sim::rng::node_rng(1, 0);
        let mut outbox = fba_sim::Runs::new();
        let mut ctx = hand_ctx(NodeId::from_index(0), 64, 0, &mut rng, &mut outbox);
        node.on_start(&mut ctx);
        #[allow(clippy::drop_non_drop)] // release the outbox borrow
        drop(ctx);
        assert!(!outbox.is_empty());
        for (_, msg) in outbox.iter() {
            if let AeMsg::Contribute { value, .. } = msg {
                assert_eq!(*value, 0xabcd);
            }
        }
    }
}
