//! The Scoreboard — forward pass (Alg. 1), backward pass (Alg. 2), and the
//! balanced forest (Fig. 5).
//!
//! Given the multiset of TransRow patterns of one sub-tile (dynamic mode)
//! or one tensor (static mode), the Scoreboard builds, in two linear
//! passes over the 2^T Hasse nodes, a forest in which every present node
//! has exactly one prefix whose result it reuses, transit (TR) stops are
//! materialized on distance>1 paths, and trees are spread over `T` lanes
//! by a workload counter.
//!
//! Every pass walks set bits (`while bits != 0`, lowest first), never
//! every bit position, so a node costs time in proportion to its popcount
//! (forward: to its zero bits). A test-only oracle at the end of this file
//! pins the balance pass's candidate order and tie-breaks.

use crate::graph::HasseGraph;
use crate::node::{NodeEntry, DIST_INF, HW_MAX_DISTANCE, MAX_DISTANCE, NO_LANE};

/// How the balancer distributes trees over lanes (Fig. 5 step ⑤).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BalancePolicy {
    /// The paper's workload counter + priority supervision: each node
    /// picks the available prefix whose lane is least loaded.
    #[default]
    WorkloadCounter,
    /// Ablation baseline: always take the first candidate prefix (no
    /// balancing) — quantifies what the workload counter buys.
    FirstCandidate,
}

/// Scoreboard configuration.
///
/// Defaults follow the paper's deployed design point: `T = 8`,
/// `max_distance = 4` (nodes at distance ≥ 4 are outliers, §5.2), one lane
/// per TransRow bit (§2.4's "granularity corresponding to Level 1").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScoreboardConfig {
    /// TransRow width `T` (1..=16).
    pub width: u32,
    /// Distance at which present nodes become outliers. Reuse paths are
    /// built for distances `1..max_distance`. The hardware uses 4
    /// ([`HW_MAX_DISTANCE`]); [`ScoreboardConfig::unbounded`] lifts the cap
    /// above every reachable distance for sparsity-potential studies.
    pub max_distance: u8,
    /// Parallel lanes (trees execute one per lane). 0 means "use `width`".
    pub lanes: u32,
    /// Lane-balancing policy (ablation knob; default = the paper's).
    pub balance: BalancePolicy,
}

impl ScoreboardConfig {
    /// The paper's deployed design point for a given width (cap 4).
    pub fn with_width(width: u32) -> Self {
        Self {
            width,
            max_distance: HW_MAX_DISTANCE,
            lanes: 0,
            balance: BalancePolicy::WorkloadCounter,
        }
    }

    /// Uncapped configuration: every present node reaches a reuse chain
    /// (no outliers) — the setting behind the Fig. 9 sparsity sweeps.
    pub fn unbounded(width: u32) -> Self {
        Self { max_distance: width as u8 + 1, ..Self::with_width(width) }
    }

    /// Effective lane count (`lanes`, or `width` when 0).
    pub fn effective_lanes(&self) -> u32 {
        if self.lanes == 0 {
            self.width
        } else {
            self.lanes
        }
    }

    fn validate(&self) {
        assert!((1..=16).contains(&self.width), "width must be in 1..=16");
        assert!(
            (1..=MAX_DISTANCE as u8).contains(&self.max_distance),
            "max_distance must be in 1..=17"
        );
        assert!(self.effective_lanes() >= 1, "need at least one lane");
        assert!(self.effective_lanes() <= 254, "lane id must fit u8 (< 255)");
    }
}

impl Default for ScoreboardConfig {
    fn default() -> Self {
        Self::with_width(8)
    }
}

/// A fully built Scoreboard for one pattern multiset.
#[derive(Debug, Clone)]
pub struct Scoreboard {
    cfg: ScoreboardConfig,
    graph: HasseGraph,
    nodes: Vec<NodeEntry>,
    outliers: Vec<u16>,
    lane_workload: Vec<u64>,
    rows: usize,
}

impl Scoreboard {
    /// Builds the Scoreboard: record → forward → backward → balance.
    ///
    /// `patterns` is the TransRow multiset (duplicates matter — they drive
    /// FR reuse and load balancing). Patterns must fit `cfg.width`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or a pattern exceeds the
    /// width.
    ///
    /// # Examples
    ///
    /// ```
    /// use ta_hasse::{Scoreboard, ScoreboardConfig};
    ///
    /// // The worked example of Fig. 5: TransRows 14,2,5,1,15,7,2 (T=4).
    /// let sb = Scoreboard::build(
    ///     ScoreboardConfig::with_width(4),
    ///     [14, 2, 5, 1, 15, 7, 2],
    /// );
    /// assert_eq!(sb.node(5).chosen_parent, 1); // 0101 reuses 0001
    /// assert_eq!(sb.node(7).chosen_parent, 5); // 0111 reuses 0101
    /// ```
    pub fn build(cfg: ScoreboardConfig, patterns: impl IntoIterator<Item = u16>) -> Self {
        cfg.validate();
        let graph = HasseGraph::new(cfg.width);
        let mut sb = Self {
            cfg,
            graph,
            nodes: vec![NodeEntry::empty(); graph.node_count()],
            outliers: Vec::new(),
            lane_workload: vec![0; cfg.effective_lanes() as usize],
            rows: 0,
        };
        sb.record(patterns);
        sb.forward();
        sb.backward();
        sb.balance();
        sb
    }

    /// The configuration this Scoreboard was built with.
    pub fn config(&self) -> &ScoreboardConfig {
        &self.cfg
    }

    /// The Hasse graph view.
    pub fn graph(&self) -> HasseGraph {
        self.graph
    }

    /// Number of TransRows recorded (including zero rows and duplicates).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The node entry for `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` exceeds the width.
    pub fn node(&self, pattern: u16) -> &NodeEntry {
        assert!(self.graph.contains(pattern), "pattern {pattern:#b} exceeds width");
        &self.nodes[pattern as usize]
    }

    /// Present patterns that could not be given a reuse path within the
    /// distance cap — "dispatched at the end of other operations" (§5.2).
    pub fn outliers(&self) -> &[u16] {
        &self.outliers
    }

    /// Whether `pattern` is an outlier: a present (not transit) node at
    /// or beyond the distance cap — the condition the balance pass pushes
    /// [`Scoreboard::outliers`] under, read from the node in O(1).
    pub fn is_outlier(&self, pattern: u16) -> bool {
        pattern != 0
            && self
                .nodes
                .get(pattern as usize)
                .is_some_and(|n| n.count > 0 && !n.transit && n.distance >= self.cfg.max_distance)
    }

    /// Whether `pattern` is computed inside the forest: active, not the
    /// empty pattern, and not an outlier. Evaluated without short-circuit
    /// branches, for the plan build's compaction pass.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` exceeds the width.
    #[inline]
    pub(crate) fn in_forest(&self, pattern: u16) -> bool {
        let n = self.node(pattern);
        (pattern != 0) & n.is_active() & (n.transit | (n.distance < self.cfg.max_distance))
    }

    /// Final per-lane workload counters (PPE op counts used for balance).
    pub fn lane_workload(&self) -> &[u64] {
        &self.lane_workload
    }

    /// Iterator over all active node patterns (present or transit),
    /// excluding node 0, in Hamming (execution) order.
    pub fn active_nodes(&self) -> impl Iterator<Item = u16> + '_ {
        self.graph
            .forward_order()
            .iter()
            .copied()
            .filter(move |&p| p != 0 && self.nodes[p as usize].is_active())
    }

    // ---- Step ②: record (Fig. 5) -------------------------------------

    fn record(&mut self, patterns: impl IntoIterator<Item = u16>) {
        for p in patterns {
            assert!(self.graph.contains(p), "pattern {p:#b} exceeds width {}", self.cfg.width);
            self.nodes[p as usize].count += 1;
            self.rows += 1;
        }
    }

    // ---- Step ③: forward pass (Alg. 1) --------------------------------

    fn forward(&mut self) {
        let maxd = self.cfg.max_distance;
        let mask = (self.graph.node_count() - 1) as u16;
        for &i in self.graph.forward_order() {
            let idx = i as usize;
            let mut dis = self.nodes[idx].distance;
            // Alg. 1 line 7: unreachable-or-capped nodes do not propagate
            // (note: this also bars capped *present* nodes from serving as
            // prefixes — they are outliers).
            if i != 0 && dis >= maxd {
                continue;
            }
            // Alg. 1 line 8: present nodes (and the origin) reset the
            // propagated distance — they will be computed and can serve as
            // prefixes.
            if self.nodes[idx].count > 0 || i == 0 {
                dis = 0;
            }
            let d = dis + 1;
            debug_assert!(d as usize <= MAX_DISTANCE);
            // Every immediate suffix `i | bit` is one zero bit of `i`.
            let mut zeros = !i & mask;
            while zeros != 0 {
                let bit = zeros & zeros.wrapping_neg();
                zeros &= zeros - 1;
                let s = &mut self.nodes[(i | bit) as usize];
                s.prefix_bitmaps[dis as usize] |= bit;
                s.distance = s.distance.min(d);
            }
        }
    }

    // ---- Step ④: backward pass (Alg. 2) -------------------------------

    fn backward(&mut self) {
        let maxd = self.cfg.max_distance;
        for &i in self.graph.forward_order().iter().rev() {
            let idx = i as usize;
            let dis = self.nodes[idx].distance;
            // Alg. 2 line 5: present nodes with 1 < distance < cap trace a
            // path to their nearest prefix through transit stops.
            if self.nodes[idx].count > 0 && dis > 1 && dis < maxd {
                let bm = self.nodes[idx].prefix_bitmaps[(dis - 1) as usize];
                debug_assert!(bm != 0, "distance {dis} recorded but bitmap empty");
                // Alg. 2 line 7: only the first prefix, to avoid redundant
                // paths (Fig. 5's node 14 discussion).
                let j = bm.trailing_zeros();
                let parent = i & !(1u16 << j);
                self.nodes[idx].chosen_parent = parent;
                let p = parent as usize;
                self.nodes[p].suffix_bitmap |= 1 << j;
                if self.nodes[p].count == 0 {
                    // Activate the transit (TR) stop; reverse Hamming order
                    // guarantees it is processed after us and continues the
                    // chain if its own distance exceeds 1.
                    self.nodes[p].count = 1;
                    self.nodes[p].transit = true;
                }
            }
            // Alg. 2 line 11: keep only the smallest-distance prefix bitmap.
            // The forward pass never writes the slots at or above the cap.
            if dis != DIST_INF {
                let keep = (dis - 1) as usize;
                let bitmaps = &mut self.nodes[idx].prefix_bitmaps;
                let kept = bitmaps[keep];
                bitmaps[..maxd as usize].fill(0);
                bitmaps[keep] = kept;
            }
        }
    }

    // ---- Step ⑤: balanced forest --------------------------------------

    fn balance(&mut self) {
        let maxd = self.cfg.max_distance;
        let mask = self.graph.node_count() as u32 - 1;
        for &i in self.graph.forward_order() {
            let idx = i as usize;
            if i == 0 || self.nodes[idx].count == 0 {
                continue;
            }
            let dis = self.nodes[idx].distance;
            // Present nodes beyond the cap are outliers — dispatched at the
            // end, assigned lanes after the forest is balanced.
            if !self.nodes[idx].transit && (dis >= maxd || dis == DIST_INF) {
                self.outliers.push(i);
                continue;
            }
            let lane = if i.is_power_of_two() {
                // Roots: open each tree on the least-loaded lane (or, in
                // the unbalanced ablation, simply on the bit's own lane).
                self.nodes[idx].chosen_parent = 0;
                match self.cfg.balance {
                    BalancePolicy::WorkloadCounter => argmin_lane(&self.lane_workload),
                    BalancePolicy::FirstCandidate => {
                        (i.trailing_zeros() % self.cfg.effective_lanes()) as u8
                    }
                }
            } else if self.nodes[idx].has_chosen_parent() {
                // Distance >1 nodes follow the path the backward pass fixed.
                let parent = self.nodes[idx].chosen_parent as usize;
                debug_assert_ne!(self.nodes[parent].lane, NO_LANE, "parent must be laned first");
                self.nodes[parent].lane
            } else {
                // Distance-1 nodes pick an *available* prefix whose lane is
                // least loaded (the workload counter + priority supervision
                // of §2.4 / Fig. 5 step ⑤). Candidates are (a) any already-
                // laned active parent — present or transit, one add either
                // way — and (b) for level-2 nodes, an absent level-1
                // parent, which can be opened as a transit root for one
                // extra add; this is what keeps otherwise-idle lanes busy
                // when a tile lacks some level-1 patterns ("select an
                // available prefix node for each node, thereby evenly
                // distributing workloads among the trees"). Ties break
                // round-robin by node value.
                debug_assert_eq!(dis, 1);
                if self.cfg.balance == BalancePolicy::FirstCandidate {
                    // Unbalanced ablation: lowest-bit active parent, no
                    // idle-lane opening.
                    let mut chosen: Option<(u16, u8)> = None;
                    let mut rest = i;
                    while rest != 0 {
                        let parent = i & !(rest & rest.wrapping_neg());
                        rest &= rest - 1;
                        let pl = self.nodes[parent as usize].lane;
                        if pl != NO_LANE {
                            chosen = Some((parent, pl));
                            break;
                        }
                    }
                    let (parent, lane) =
                        chosen.expect("distance-1 node must have an active parent");
                    self.nodes[idx].chosen_parent = parent;
                    self.nodes[idx].lane = lane;
                    self.lane_workload[lane as usize] += self.nodes[idx].count as u64;
                    continue;
                }
                // Candidates in rotated order: set bits from `i % width` up,
                // then those below. No load changes during the walk, so the
                // idle lane is scanned for at most once.
                let rotation = (i as u32) % self.cfg.width;
                let halves =
                    [i as u32 & mask & (mask << rotation), i as u32 & ((1 << rotation) - 1)];
                let mut idle_lane: Option<u8> = None;
                // (candidate parent, lane, activation cost, score).
                let mut best: Option<(u16, u8, u64, u64)> = None;
                for half in halves {
                    let mut rest = half as u16;
                    while rest != 0 {
                        let parent = i & !(rest & rest.wrapping_neg());
                        rest &= rest - 1;
                        let p = &self.nodes[parent as usize];
                        let (lane, extra) = if p.lane != NO_LANE {
                            // Active, laned parent (present or transit stop).
                            (p.lane, 0)
                        } else if parent.is_power_of_two() && p.count == 0 {
                            // Absent level-1 parent: can open the least-
                            // loaded lane as a fresh transit root. Scored
                            // with a penalty of 2 — the extra transit add
                            // itself plus a net-benefit margin, so idle
                            // lanes only open when they actually shorten
                            // the critical path (Fig. 5's example must keep
                            // its 4+4 two-lane forest).
                            (*idle_lane.get_or_insert_with(|| argmin_lane(&self.lane_workload)), 2)
                        } else {
                            continue;
                        };
                        let score = self.lane_workload[lane as usize] + extra;
                        if best.is_none_or(|(.., best_score)| score < best_score) {
                            best = Some((parent, lane, extra, score));
                        }
                    }
                }
                let (parent, lane, extra, _) =
                    best.expect("distance-1 node must have an available parent");
                if extra > 0 {
                    // Materialize the level-1 transit root.
                    let p = parent as usize;
                    self.nodes[p].count = 1;
                    self.nodes[p].transit = true;
                    self.nodes[p].chosen_parent = 0;
                    self.nodes[p].lane = lane;
                    self.nodes[p].suffix_bitmap |= i ^ parent;
                    self.lane_workload[lane as usize] += 1;
                }
                self.nodes[idx].chosen_parent = parent;
                lane
            };
            self.nodes[idx].lane = lane;
            self.lane_workload[lane as usize] += self.nodes[idx].count as u64;
        }
        // Outliers: computed from scratch (popcount adds for the first
        // occurrence, FR reuse for duplicates), least-loaded lanes.
        for &p in &self.outliers {
            let lane = argmin_lane(&self.lane_workload);
            let node = &mut self.nodes[p as usize];
            node.lane = lane;
            let cost = p.count_ones() as u64 + (node.count as u64 - 1);
            self.lane_workload[lane as usize] += cost;
        }
    }
}

/// The lowest-index least-loaded lane.
fn argmin_lane(lane_workload: &[u64]) -> u8 {
    let mut best = 0usize;
    for (l, &w) in lane_workload.iter().enumerate() {
        if w < lane_workload[best] {
            best = l;
        }
    }
    best as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Workers share Scoreboard by reference across the tile-execution
    /// runtime's scoped threads — lock in the auto-derived thread
    /// safety so a future `Rc`/`RefCell` slip fails to compile.
    #[test]
    fn scoreboard_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Scoreboard>();
    }

    /// The Fig. 5 worked example: TransRows 14,2,5,1,15,7,2 at T=4.
    fn fig5() -> Scoreboard {
        Scoreboard::build(ScoreboardConfig::with_width(4), [14u16, 2, 5, 1, 15, 7, 2])
    }

    #[test]
    fn fig5_counts_recorded() {
        let sb = fig5();
        assert_eq!(sb.rows(), 7);
        assert_eq!(sb.node(2).count, 2);
        assert_eq!(sb.node(14).count, 1);
        assert_eq!(sb.node(0).count, 0);
    }

    #[test]
    fn fig5_forward_distances() {
        let sb = fig5();
        // Present level-1 nodes get distance 1 from node 0.
        assert_eq!(sb.node(1).distance, 1);
        assert_eq!(sb.node(2).distance, 1);
        // 5 = 0101 has present parent 1 → distance 1.
        assert_eq!(sb.node(5).distance, 1);
        // 7 = 0111 has present parent 5 → distance 1.
        assert_eq!(sb.node(7).distance, 1);
        // 14 = 1110: parents 6,10,12 all absent; 6 and 10 sit above present
        // node 2 → distance 2 (the paper's discussion of step ④).
        assert_eq!(sb.node(14).distance, 2);
        // 15 = 1111 has present parents 7 and 14 → distance 1.
        assert_eq!(sb.node(15).distance, 1);
    }

    #[test]
    fn fig5_backward_builds_one_transit_path() {
        let sb = fig5();
        // 14 keeps exactly one path 2 → t → 14 with t ∈ {6, 10} (the paper
        // keeps "the first prefix"; the tie-break within the bitmap is
        // arbitrary but must be unique).
        let t = sb.node(14).chosen_parent;
        assert!(t == 6 || t == 10, "transit must be 6 or 10, got {t}");
        assert!(sb.node(t).transit);
        assert_eq!(sb.node(t).count, 1);
        assert_eq!(sb.node(t).chosen_parent, 2, "transit chains to present node 2");
        // The other candidate stays inactive.
        let other = if t == 6 { 10 } else { 6 };
        assert!(!sb.node(other).is_active());
    }

    #[test]
    fn fig5_balanced_forest_has_4_plus_4_ops() {
        let sb = fig5();
        // Paper's result: Lane A = {1,5,7,15} (4 ops), Lane B = {2,2,6,14}
        // (4 ops). Our tie-breaks may swap lane ids or pick transit 10, but
        // the workload split must be 4/4.
        let mut loads: Vec<u64> = sb.lane_workload().iter().copied().filter(|&w| w > 0).collect();
        loads.sort_unstable();
        assert_eq!(loads, vec![4, 4]);
        // Chain 1 → 5 → 7 → 15 shares one lane.
        let lane1 = sb.node(1).lane;
        for p in [5u16, 7, 15] {
            assert_eq!(sb.node(p).lane, lane1, "node {p}");
        }
        // Chain 2 → transit → 14 shares the other lane.
        let lane2 = sb.node(2).lane;
        assert_ne!(lane1, lane2);
        assert_eq!(sb.node(14).lane, lane2);
        // 15 chose the lighter tree's head as prefix (node 7's lane had 3
        // ops vs node 14's 4 when 15 was placed).
        assert_eq!(sb.node(15).chosen_parent, 7);
    }

    #[test]
    fn fig5_no_outliers() {
        let sb = fig5();
        assert!(sb.outliers().is_empty());
    }

    #[test]
    fn duplicate_only_input_forms_single_node() {
        let sb = Scoreboard::build(ScoreboardConfig::with_width(4), [9u16, 9, 9]);
        assert_eq!(sb.node(9).count, 3);
        // 9 = 1001 at level 2 with no present parents: distance 2 via an
        // absent level-1 node, which becomes transit.
        assert_eq!(sb.node(9).distance, 2);
        let t = sb.node(9).chosen_parent;
        assert!(t == 1 || t == 8);
        assert!(sb.node(t).transit);
        // Ops: 3 rows + 1 transit = 4.
        let total: u64 = sb.lane_workload().iter().sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn zero_rows_cost_nothing() {
        let sb = Scoreboard::build(ScoreboardConfig::with_width(4), [0u16, 0, 0, 1]);
        let total: u64 = sb.lane_workload().iter().sum();
        assert_eq!(total, 1);
        assert_eq!(sb.node(0).count, 3);
        assert_eq!(sb.node(0).lane, NO_LANE);
    }

    #[test]
    fn outlier_detected_beyond_distance_cap() {
        // T=8, a single level-6 pattern: nearest "present" ancestor is node
        // 0 at distance 6 > cap 4 → outlier, cost = popcount = 6.
        let p: u16 = 0b0011_1111;
        let sb = Scoreboard::build(ScoreboardConfig::with_width(8), [p]);
        assert!(sb.is_outlier(p));
        assert_eq!(sb.node(p).lane, 0);
        let total: u64 = sb.lane_workload().iter().sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn outlier_duplicates_reuse_fr() {
        let p: u16 = 0b0011_1111;
        let sb = Scoreboard::build(ScoreboardConfig::with_width(8), [p, p]);
        // First costs popcount (6), duplicate costs 1.
        let total: u64 = sb.lane_workload().iter().sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn capped_present_nodes_do_not_serve_as_prefixes() {
        // Alg. 1 line 7 is checked *before* the present-node reset (line
        // 8): a present node whose own distance hit the cap never
        // propagates, so its superset cannot reuse it — both become
        // outliers. This is the faithful hardware behaviour (§5.2 treats
        // distance ≥ 4 rows as outliers dispatched at the end).
        let lo: u16 = 0b0011_1110; // level 5 → unreachable within cap 4
        let hi: u16 = 0b0011_1111; // level 6, superset of lo
        let sb = Scoreboard::build(ScoreboardConfig::with_width(8), [lo, hi]);
        assert!(sb.is_outlier(lo));
        assert!(sb.is_outlier(hi));
        // Costs: popcount(lo) + popcount(hi) = 5 + 6.
        let total: u64 = sb.lane_workload().iter().sum();
        assert_eq!(total, 11);
    }

    #[test]
    fn mid_level_present_chain_reuses_within_cap() {
        // Level-3 node is reachable at distance 3 (≤ cap) through absent
        // transit stops; a present level-4 superset then reuses it at
        // distance 1.
        let lo: u16 = 0b0000_0111; // level 3, distance 3 from node 0
        let hi: u16 = 0b0000_1111; // level 4, superset
        let sb = Scoreboard::build(ScoreboardConfig::with_width(8), [lo, hi]);
        assert!(!sb.is_outlier(lo));
        assert!(!sb.is_outlier(hi));
        assert_eq!(sb.node(lo).distance, 3);
        assert_eq!(sb.node(hi).distance, 1);
        assert_eq!(sb.node(hi).chosen_parent, lo);
        // Ops: lo's chain costs 3 (two transit + itself), hi costs 1.
        let total: u64 = sb.lane_workload().iter().sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn full_pattern_set_all_distance_one() {
        // Every 4-bit pattern present → every node reuses at distance 1,
        // no transit, no outliers.
        let sb = Scoreboard::build(ScoreboardConfig::with_width(4), 0u16..16);
        for p in 1u16..16 {
            assert_eq!(sb.node(p).distance, 1, "node {p}");
            assert!(!sb.node(p).transit);
        }
        assert!(sb.outliers().is_empty());
        let total: u64 = sb.lane_workload().iter().sum();
        assert_eq!(total, 15); // 15 non-zero rows, 1 op each
    }

    #[test]
    fn chains_are_acyclic_and_single_bit_steps() {
        // Random-ish multiset; verify the one-prefix forest invariants.
        let patterns: Vec<u16> =
            (0..200u32).map(|i| ((i.wrapping_mul(2654435761)) >> 24) as u16 & 0xFF).collect();
        let sb = Scoreboard::build(ScoreboardConfig::with_width(8), patterns);
        for p in sb.active_nodes() {
            if sb.is_outlier(p) {
                continue;
            }
            // Walk to the root, at most `level` steps.
            let mut cur = p;
            let mut steps = 0;
            while cur != 0 {
                let parent = sb.node(cur).chosen_parent;
                assert!(parent != u16::MAX, "active node {cur:#010b} lacks parent");
                // Single-bit, downward step.
                assert_eq!((cur ^ parent).count_ones(), 1, "{cur:#010b}->{parent:#010b}");
                assert!(parent & cur == parent, "parent must be a subset");
                // Same lane all along the chain.
                if parent != 0 {
                    assert_eq!(sb.node(parent).lane, sb.node(p).lane);
                }
                cur = parent;
                steps += 1;
                assert!(steps <= 16, "cycle detected");
            }
        }
    }

    #[test]
    fn lane_override_respected() {
        let cfg = ScoreboardConfig { lanes: 2, ..ScoreboardConfig::with_width(4) };
        let sb = Scoreboard::build(cfg, [1u16, 2, 4, 8, 3, 5]);
        assert_eq!(sb.lane_workload().len(), 2);
        for p in sb.active_nodes() {
            assert!(sb.node(p).lane < 2);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds width")]
    fn oversized_pattern_rejected() {
        let _ = Scoreboard::build(ScoreboardConfig::with_width(4), [16u16]);
    }
}

/// The Scoreboard passes as they stood before the set-bit walks: every bit
/// position visited, a `% width` rotation per candidate, and a lane scan
/// per absent level-1 parent. Kept verbatim as the reference the
/// production passes must match entry for entry.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::{ExecutionPlan, TileStats};
    use ta_core::PatternSource;
    use ta_models::{splitmix64, QuantGaussianSource};

    impl Scoreboard {
        /// [`Scoreboard::build`] through the oracle passes.
        fn build_oracle(cfg: ScoreboardConfig, patterns: impl IntoIterator<Item = u16>) -> Self {
            cfg.validate();
            let graph = HasseGraph::new(cfg.width);
            let mut sb = Self {
                cfg,
                graph,
                nodes: vec![NodeEntry::empty(); graph.node_count()],
                outliers: Vec::new(),
                lane_workload: vec![0; cfg.effective_lanes() as usize],
                rows: 0,
            };
            sb.record(patterns);
            sb.oracle_forward();
            sb.oracle_backward();
            sb.oracle_balance();
            sb
        }

        // ---- Step ③: forward pass (Alg. 1) --------------------------------

        fn oracle_forward(&mut self) {
            let maxd = self.cfg.max_distance;
            let width = self.cfg.width;
            for &i in self.graph.forward_order() {
                let idx = i as usize;
                let mut dis = self.nodes[idx].distance;
                // Alg. 1 line 7: unreachable-or-capped nodes do not propagate
                // (note: this also bars capped *present* nodes from serving as
                // prefixes — they are outliers).
                if i != 0 && dis >= maxd {
                    continue;
                }
                // Alg. 1 line 8: present nodes (and the origin) reset the
                // propagated distance — they will be computed and can serve as
                // prefixes.
                if self.nodes[idx].count > 0 || i == 0 {
                    dis = 0;
                }
                let d = dis + 1;
                debug_assert!(d as usize <= MAX_DISTANCE);
                for j in 0..width {
                    let bit = 1u16 << j;
                    if i & bit == 0 {
                        let s = (i | bit) as usize;
                        self.nodes[s].prefix_bitmaps[(d - 1) as usize] |= bit;
                        if d < self.nodes[s].distance {
                            self.nodes[s].distance = d;
                        }
                    }
                }
            }
        }

        // ---- Step ④: backward pass (Alg. 2) -------------------------------

        fn oracle_backward(&mut self) {
            let maxd = self.cfg.max_distance;
            for &i in self.graph.forward_order().iter().rev() {
                let idx = i as usize;
                let dis = self.nodes[idx].distance;
                // Alg. 2 line 5: present nodes with 1 < distance < cap trace a
                // path to their nearest prefix through transit stops.
                if self.nodes[idx].count > 0 && dis > 1 && dis < maxd {
                    let bm = self.nodes[idx].prefix_bitmaps[(dis - 1) as usize];
                    debug_assert!(bm != 0, "distance {dis} recorded but bitmap empty");
                    // Alg. 2 line 7: only the first prefix, to avoid redundant
                    // paths (Fig. 5's node 14 discussion).
                    let j = bm.trailing_zeros();
                    let parent = i & !(1u16 << j);
                    self.nodes[idx].chosen_parent = parent;
                    let p = parent as usize;
                    self.nodes[p].suffix_bitmap |= 1 << j;
                    if self.nodes[p].count == 0 {
                        // Activate the transit (TR) stop; reverse Hamming order
                        // guarantees it is processed after us and continues the
                        // chain if its own distance exceeds 1.
                        self.nodes[p].count = 1;
                        self.nodes[p].transit = true;
                    }
                }
                // Alg. 2 line 11: keep only the smallest-distance prefix bitmap.
                if dis != DIST_INF {
                    let keep = (dis - 1) as usize;
                    for (d, bm) in self.nodes[idx].prefix_bitmaps.iter_mut().enumerate() {
                        if d != keep {
                            *bm = 0;
                        }
                    }
                }
            }
        }

        // ---- Step ⑤: balanced forest --------------------------------------

        fn oracle_balance(&mut self) {
            let maxd = self.cfg.max_distance;
            let order: Vec<u16> = self.graph.forward_order().to_vec();
            for i in order {
                let idx = i as usize;
                if i == 0 || self.nodes[idx].count == 0 {
                    continue;
                }
                let dis = self.nodes[idx].distance;
                // Present nodes beyond the cap are outliers — dispatched at the
                // end, assigned lanes after the forest is balanced.
                if !self.nodes[idx].transit && (dis >= maxd || dis == DIST_INF) {
                    self.outliers.push(i);
                    continue;
                }
                let lane = if self.graph.level(i) == 1 {
                    // Roots: open each tree on the least-loaded lane (or, in
                    // the unbalanced ablation, simply on the bit's own lane).
                    self.nodes[idx].chosen_parent = 0;
                    match self.cfg.balance {
                        BalancePolicy::WorkloadCounter => self.oracle_argmin_lane(),
                        BalancePolicy::FirstCandidate => {
                            (i.trailing_zeros() % self.cfg.effective_lanes()) as u8
                        }
                    }
                } else if self.nodes[idx].has_chosen_parent() {
                    // Distance >1 nodes follow the path the backward pass fixed.
                    let parent = self.nodes[idx].chosen_parent as usize;
                    debug_assert_ne!(
                        self.nodes[parent].lane, NO_LANE,
                        "parent must be laned first"
                    );
                    self.nodes[parent].lane
                } else {
                    // Distance-1 nodes pick an *available* prefix whose lane is
                    // least loaded (the workload counter + priority supervision
                    // of §2.4 / Fig. 5 step ⑤). Candidates are (a) any already-
                    // laned active parent — present or transit, one add either
                    // way — and (b) for level-2 nodes, an absent level-1
                    // parent, which can be opened as a transit root for one
                    // extra add; this is what keeps otherwise-idle lanes busy
                    // when a tile lacks some level-1 patterns ("select an
                    // available prefix node for each node, thereby evenly
                    // distributing workloads among the trees"). Ties break
                    // round-robin by node value.
                    debug_assert_eq!(dis, 1);
                    let width = self.cfg.width;
                    if self.cfg.balance == BalancePolicy::FirstCandidate {
                        // Unbalanced ablation: lowest-bit active parent, no
                        // idle-lane opening.
                        let mut chosen: Option<(u16, u8)> = None;
                        for j in 0..width {
                            let bit = 1u16 << j;
                            if i & bit == 0 {
                                continue;
                            }
                            let parent = i & !bit;
                            let pl = self.nodes[parent as usize].lane;
                            if pl != NO_LANE {
                                chosen = Some((parent, pl));
                                break;
                            }
                        }
                        let (parent, lane) =
                            chosen.expect("distance-1 node must have an active parent");
                        self.nodes[idx].chosen_parent = parent;
                        self.nodes[idx].lane = lane;
                        self.lane_workload[lane as usize] += self.nodes[idx].count as u64;
                        continue;
                    }
                    let rotation = (i as u32) % width;
                    // (candidate parent, lane, activation cost).
                    let mut best: Option<(u16, u8, u64)> = None;
                    let consider = |parent: u16,
                                    lane: u8,
                                    extra: u64,
                                    best: &mut Option<(u16, u8, u64)>,
                                    workload: &[u64]| {
                        let score = workload[lane as usize] + extra;
                        let better = match best {
                            None => true,
                            Some((_, bl, bextra)) => score < workload[*bl as usize] + *bextra,
                        };
                        if better {
                            *best = Some((parent, lane, extra));
                        }
                    };
                    for step in 0..width {
                        let j = (rotation + step) % width;
                        let bit = 1u16 << j;
                        if i & bit == 0 {
                            continue;
                        }
                        let parent = i & !bit;
                        let pl = self.nodes[parent as usize].lane;
                        if pl != NO_LANE {
                            // Active, laned parent (present or transit stop).
                            consider(parent, pl, 0, &mut best, &self.lane_workload);
                        } else if parent.count_ones() == 1 && self.nodes[parent as usize].count == 0
                        {
                            // Absent level-1 parent: can open the least-loaded
                            // lane as a fresh transit root. Scored with a
                            // penalty of 2 — the extra transit add itself plus
                            // a net-benefit margin, so idle lanes only open
                            // when they actually shorten the critical path
                            // (Fig. 5's example must keep its 4+4 two-lane
                            // forest).
                            let lane = self.oracle_argmin_lane();
                            consider(parent, lane, 2, &mut best, &self.lane_workload);
                        }
                    }
                    let (parent, lane, extra) =
                        best.expect("distance-1 node must have an available parent");
                    if extra > 0 {
                        // Materialize the level-1 transit root.
                        let p = parent as usize;
                        self.nodes[p].count = 1;
                        self.nodes[p].transit = true;
                        self.nodes[p].chosen_parent = 0;
                        self.nodes[p].lane = lane;
                        self.nodes[p].suffix_bitmap |= i ^ parent;
                        self.lane_workload[lane as usize] += 1;
                    }
                    self.nodes[idx].chosen_parent = parent;
                    lane
                };
                self.nodes[idx].lane = lane;
                self.lane_workload[lane as usize] += self.nodes[idx].count as u64;
            }
            // Outliers: computed from scratch (popcount adds for the first
            // occurrence, FR reuse for duplicates), least-loaded lanes.
            let outliers = self.outliers.clone();
            for p in outliers {
                let lane = self.oracle_argmin_lane();
                let idx = p as usize;
                self.nodes[idx].lane = lane;
                let cost = p.count_ones() as u64 + (self.nodes[idx].count as u64 - 1);
                self.lane_workload[lane as usize] += cost;
            }
        }

        fn oracle_argmin_lane(&self) -> u8 {
            let mut best = 0usize;
            for (l, &w) in self.lane_workload.iter().enumerate() {
                if w < self.lane_workload[best] {
                    best = l;
                }
            }
            best as u8
        }
    }

    /// Builds `patterns` with the production and the oracle passes and
    /// asserts every observable agrees; a failure names the seed, the
    /// configuration and the multiset.
    fn assert_matches_oracle(cfg: ScoreboardConfig, patterns: &[u16], seed: u64, kind: &str) {
        let got = Scoreboard::build(cfg, patterns.iter().copied());
        let want = Scoreboard::build_oracle(cfg, patterns.iter().copied());
        let ctx = || format!("seed {seed}, {kind} multiset {patterns:?}, {cfg:?}");
        for p in 0..got.graph().node_count() as u16 {
            assert_eq!(got.node(p), want.node(p), "node {p}; {}", ctx());
        }
        assert_eq!(got.outliers(), want.outliers(), "outliers; {}", ctx());
        let mut listed = vec![false; got.graph().node_count()];
        for &p in want.outliers() {
            listed[p as usize] = true;
        }
        for (p, &listed) in listed.iter().enumerate() {
            assert_eq!(got.is_outlier(p as u16), listed, "is_outlier({p}); {}", ctx());
        }
        assert_eq!(got.lane_workload(), want.lane_workload(), "lane workload; {}", ctx());
        assert_eq!(got.rows(), want.rows(), "rows; {}", ctx());
        assert_eq!(
            TileStats::from_scoreboard(&got),
            TileStats::from_scoreboard(&want),
            "tile stats; {}",
            ctx()
        );
        let (got, want) =
            (ExecutionPlan::from_scoreboard(&got), ExecutionPlan::from_scoreboard(&want));
        assert_eq!(got.lanes(), want.lanes(), "plan lanes; {}", ctx());
        assert_eq!(got.outliers(), want.outliers(), "plan outliers; {}", ctx());
    }

    /// The seeded multisets one width is checked on.
    fn multisets(width: u32, seed: u64) -> Vec<(&'static str, Vec<u16>)> {
        let mask = ((1u32 << width) - 1) as u16;
        let mut state = seed;
        let mut next = move || {
            state = splitmix64(state);
            state
        };
        let duplicate = next() as u16 & mask;
        // Lone high-level patterns: the full mask with up to two bits
        // cleared, far beyond small distance caps.
        let lone = (0..1 + next() % 3)
            .map(|_| mask & !(1 << (next() % 16)) & !(1 << (next() % 16)))
            .collect();
        let uniform_len = (next() % (2 << width)).min(1024) as usize;
        let uniform = (0..uniform_len).map(|_| next() as u16 & mask).collect();
        // Few level-2 rows leave level-1 parents absent: the idle-lane
        // transit roots of the balance pass.
        let pairs = (0..1 + next() % (2 * width as u64))
            .map(|_| (1u16 << (next() % width as u64)) | (1 << (next() % width as u64)))
            .collect();
        let mut source = QuantGaussianSource::new(
            width,
            2 + (next() % 7) as u32,
            1 + (next() % 48) as usize,
            seed,
        );
        let gaussian = source.subtile_patterns((next() % 4) as usize, (next() % 4) as usize);
        vec![
            ("empty", Vec::new()),
            ("all-zero", vec![0; 1 + (next() % 8) as usize]),
            ("duplicates", vec![duplicate; 2 + (next() % 6) as usize]),
            ("full", (0..=mask).collect()),
            ("lone", lone),
            ("uniform", uniform),
            ("level-2", pairs),
            ("gaussian", gaussian),
        ]
    }

    fn check_width(width: u32, seeds: u64, max_distances: &[u8], lanes: &[u32]) {
        for s in 0..seeds {
            let seed = (u64::from(width) << 32) | s;
            for (kind, patterns) in multisets(width, seed) {
                for &max_distance in max_distances {
                    for balance in [BalancePolicy::WorkloadCounter, BalancePolicy::FirstCandidate] {
                        for &lanes in lanes {
                            let cfg = ScoreboardConfig { width, max_distance, lanes, balance };
                            assert_matches_oracle(cfg, &patterns, seed, kind);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn set_bit_walks_match_the_oracle() {
        for width in 1..=12 {
            let max_distances: Vec<u8> = (1..=width as u8 + 1).collect();
            let seeds = if width <= 8 { 4 } else { 1 };
            check_width(width, seeds, &max_distances, &[0, 1, 2, 3, width + 1]);
        }
    }

    #[test]
    fn set_bit_walks_match_the_oracle_at_width_16() {
        // A cap of 1 makes all 65,535 rows of the full set outliers.
        check_width(16, 1, &[1, 2, HW_MAX_DISTANCE, MAX_DISTANCE as u8], &[0, 3]);
    }

    #[test]
    fn is_outlier_reads_the_entry_and_rejects_out_of_range_patterns() {
        // Cap 2 at T = 4: 0111 (distance 3, twice) is the one outlier.
        let cfg = ScoreboardConfig { max_distance: 2, ..ScoreboardConfig::with_width(4) };
        let sb = Scoreboard::build(cfg, [0b0111u16, 0b0111, 0b1000]);
        assert_eq!(sb.outliers(), &[0b0111]);
        assert!(sb.is_outlier(0b0111) && !sb.is_outlier(0b1000) && !sb.is_outlier(0));
        assert!(!sb.is_outlier(16) && !sb.is_outlier(u16::MAX), "beyond the width");
    }

    #[test]
    fn rotation_breaks_a_tie_between_equally_loaded_parents() {
        // T = 4: node 0110 starts its candidate walk at bit 6 % 4 = 2, above
        // its lowest set bit, so it visits parent 0010 before 0100. Both
        // roots sit alone on their own lane with load 1; the strict `<`
        // keeps the first visited. A lowest-bit-first walk would take 0100.
        let cfg = ScoreboardConfig::with_width(4);
        let sb = Scoreboard::build(cfg, [0b0010u16, 0b0100, 0b0110]);
        let (lane2, lane4) = (sb.node(0b0010).lane, sb.node(0b0100).lane);
        assert_ne!(lane2, lane4);
        assert_eq!(sb.node(0b0110).chosen_parent, 0b0010);
        assert_eq!(sb.node(0b0110).lane, lane2);
        assert_eq!(sb.lane_workload()[lane2 as usize], 2);
        assert_eq!(sb.lane_workload()[lane4 as usize], 1);
        assert_matches_oracle(cfg, &[0b0010, 0b0100, 0b0110], 0, "tie");
    }
}
