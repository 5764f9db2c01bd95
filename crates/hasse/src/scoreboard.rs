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
//! every bit position, so a node costs time in proportion to its popcount.
//! The balance pass also tallies the tile's [`TileStats`]. A test-only
//! oracle at the end of this file pins every entry, the balance pass's
//! candidate order and tie-breaks, and the tallies.

use std::hint::select_unpredictable;

use crate::graph::HasseGraph;
use crate::node::{NodeEntry, HW_MAX_DISTANCE, MAX_DISTANCE, NO_LANE};
use crate::stats::TileStats;

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
    /// Tallied by the build as it places each node; `lane_ppe` is the
    /// workload counter itself.
    stats: TileStats,
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
        let mut sb = Self::recorded(cfg, patterns);
        sb.forward();
        sb.backward();
        sb.balance();
        let zero_rows = sb.nodes[0].count as usize;
        sb.stats.close(zero_rows);
        sb
    }

    /// Step ②: a validated, empty Scoreboard with `patterns` counted.
    fn recorded(cfg: ScoreboardConfig, patterns: impl IntoIterator<Item = u16>) -> Self {
        cfg.validate();
        let graph = HasseGraph::new(cfg.width);
        let mut sb = Self {
            cfg,
            graph,
            nodes: vec![NodeEntry::empty(); graph.node_count()],
            outliers: Vec::new(),
            stats: TileStats { width: cfg.width, ..TileStats::default() },
        };
        sb.record(patterns);
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
        self.stats.rows
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
        &self.stats.lane_ppe
    }

    /// The statistics the build tallied (see [`TileStats::from_scoreboard`]).
    pub(crate) fn stats(&self) -> &TileStats {
        &self.stats
    }

    /// The tallied statistics, without copying them out.
    pub(crate) fn into_stats(self) -> TileStats {
        self.stats
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
            self.stats.rows += 1;
        }
    }

    // ---- Step ③: forward pass (Alg. 1) --------------------------------

    /// Alg. 1 pushes each node's distance to its suffixes. This pass pulls
    /// instead: Hamming order settles every prefix of a node before the
    /// node, so each node reads what its prefixes propagate, takes the
    /// minimum as its distance, and writes only the bitmap of the prefixes
    /// that reach it — the one Alg. 2 line 11 keeps. The entries match the
    /// push form after the backward pass, slot for slot.
    fn forward(&mut self) {
        /// A prefix that propagates nothing.
        const NONE: u8 = u8::MAX;
        let maxd = self.cfg.max_distance;
        let order = self.graph.forward_order();
        // What each settled node propagates to its suffixes; the origin
        // propagates 0.
        let mut out = vec![NONE; order.len()];
        out[0] = 0;
        // Node 0 leads the Hamming order and has no prefix.
        for &i in &order[1..] {
            // Every immediate prefix `i & !bit` is one set bit of `i`.
            let (mut best, mut bitmap) = (NONE, 0u16);
            let mut rest = i;
            while rest != 0 {
                let bit = rest & rest.wrapping_neg();
                rest &= rest - 1;
                let d = out[(i ^ bit) as usize];
                bitmap = if d < best {
                    bit
                } else if d == best {
                    bitmap | bit
                } else {
                    bitmap
                };
                best = best.min(d);
            }
            let node = &mut self.nodes[i as usize];
            if best != NONE {
                debug_assert!((best as usize) < MAX_DISTANCE);
                node.distance = best + 1;
                node.prefix_bitmap = bitmap;
            }
            // Alg. 1 line 7: unreachable-or-capped nodes do not propagate
            // (note: this also bars capped *present* nodes from serving as
            // prefixes — they are outliers). Line 8: present nodes reset
            // the propagated distance — they will be computed and can
            // serve as prefixes.
            out[i as usize] = if node.distance >= maxd {
                NONE
            } else if node.count > 0 {
                0
            } else {
                node.distance
            };
        }
    }

    // ---- Step ④: backward pass (Alg. 2) -------------------------------

    /// Alg. 2 lines 5–10. Line 11 (keep only the smallest-distance prefix
    /// bitmap) has nothing left to clear: the forward pass wrote only that
    /// one.
    fn backward(&mut self) {
        let maxd = self.cfg.max_distance;
        for &i in self.graph.forward_order().iter().rev() {
            let idx = i as usize;
            let dis = self.nodes[idx].distance;
            // Alg. 2 line 5: present nodes with 1 < distance < cap trace a
            // path to their nearest prefix through transit stops.
            if self.nodes[idx].count > 0 && dis > 1 && dis < maxd {
                let bm = self.nodes[idx].prefix_bitmap;
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
        }
    }

    // ---- Step ⑤: balanced forest --------------------------------------

    /// Places every active node on a lane and tallies the statistics as it
    /// goes: the pass that settles a node's lane, count, transit and
    /// outlier status also counts them.
    fn balance(&mut self) {
        let maxd = self.cfg.max_distance;
        let width = self.cfg.width;
        let lanes = self.cfg.effective_lanes() as usize;
        let mask = self.graph.node_count() as u32 - 1;
        // `i % width` as a multiply: with `recip` = ⌈2^32 / width⌉ the high
        // word of `i · recip` is `i / width` for every `i` below 2^16.
        let recip = (1u64 << 32).div_ceil(u64::from(width));
        // The workload counters by lane id (the row of lane counters of
        // Fig. 5 step ⑤). Lane ids stay below NO_LANE (validated), and the
        // NO_LANE slot reads u64::MAX: an unlaned candidate parent scores
        // above every laned one, so a strict minimum never takes it.
        let mut wl = [0u64; 256];
        wl[NO_LANE as usize] = u64::MAX;
        // APE rows per lane: every present row, no transit stop.
        let mut ape = [0u64; 256];
        let s = &mut self.stats;
        // Node 0 leads the Hamming order and is never placed.
        for &i in &self.graph.forward_order()[1..] {
            let idx = i as usize;
            let NodeEntry { count, distance: dis, transit, chosen_parent, .. } = self.nodes[idx];
            if count == 0 {
                continue;
            }
            // Present nodes beyond the cap (DIST_INF included: it exceeds
            // every cap) are outliers — dispatched at the end, assigned
            // lanes after the forest is balanced.
            if !transit && dis >= maxd {
                self.outliers.push(i);
                s.fr_rows += count as usize - 1;
                s.outlier_rows += 1;
                s.outlier_extra_ops += u64::from(i.count_ones()) - 1;
                continue;
            }
            let (parent, lane) = if i.is_power_of_two() {
                // Roots: open each tree on the least-loaded lane (or, in
                // the unbalanced ablation, simply on the bit's own lane).
                let lane = match self.cfg.balance {
                    BalancePolicy::WorkloadCounter => argmin_lane(&wl[..lanes]),
                    BalancePolicy::FirstCandidate => (i.trailing_zeros() % lanes as u32) as u8,
                };
                (0, lane)
            } else if chosen_parent != u16::MAX {
                // Distance >1 nodes follow the path the backward pass fixed.
                let lane = self.nodes[chosen_parent as usize].lane;
                debug_assert_ne!(lane, NO_LANE, "parent must be laned first");
                (chosen_parent, lane)
            } else if self.cfg.balance == BalancePolicy::FirstCandidate {
                // Unbalanced ablation: lowest-bit active parent, no
                // idle-lane opening.
                debug_assert_eq!(dis, 1);
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
                chosen.expect("distance-1 node must have an active parent")
            } else {
                // Distance-1 nodes pick an *available* prefix whose lane is
                // least loaded (the workload counter + priority supervision
                // of §2.4 / Fig. 5 step ⑤). Ties break round-robin by node
                // value: candidates are visited from bit `i % width` up,
                // then those below, packed into one word (the low bits in
                // its upper half), and the first strict minimum wins.
                debug_assert_eq!(dis, 1);
                let rotation = i as u32 - ((u64::from(i) * recip) >> 32) as u32 * width;
                debug_assert_eq!(rotation, i as u32 % width);
                let mut rest = (i as u32 & mask & (mask << rotation))
                    | ((i as u32 & ((1 << rotation) - 1)) << 16);
                if i.count_ones() == 2 {
                    // Both parents are level-1. Besides an already-laned
                    // one (present or transit, one add either way), an
                    // absent parent can be opened as a transit root on the
                    // least-loaded lane for one extra add; this is what
                    // keeps otherwise-idle lanes busy when a tile lacks
                    // some level-1 patterns ("select an available prefix
                    // node for each node, thereby evenly distributing
                    // workloads among the trees"). It is scored with a
                    // penalty of 2 — the extra transit add itself plus a
                    // net-benefit margin, so idle lanes only open when they
                    // shorten the critical path (Fig. 5's example must
                    // keep its 4+4 two-lane forest). No load changes during
                    // the walk, so the idle lane is scanned for at most
                    // once.
                    let mut idle_lane: Option<u8> = None;
                    // (score, candidate parent, lane, opens a transit root).
                    let mut best = (u64::MAX, 0u16, NO_LANE, false);
                    while rest != 0 {
                        let parent = i & !(1u16 << (rest.trailing_zeros() & 15));
                        rest &= rest - 1;
                        let p = &self.nodes[parent as usize];
                        let (lane, extra) = if p.lane != NO_LANE {
                            (p.lane, 0)
                        } else if p.count == 0 {
                            (*idle_lane.get_or_insert_with(|| argmin_lane(&wl[..lanes])), 2)
                        } else {
                            continue;
                        };
                        let score = wl[lane as usize] + extra;
                        if score < best.0 {
                            best = (score, parent, lane, extra > 0);
                        }
                    }
                    let (score, parent, lane, opens) = best;
                    assert!(score != u64::MAX, "distance-1 node must have an available parent");
                    if opens {
                        // Materialize the level-1 transit root.
                        let p = &mut self.nodes[parent as usize];
                        p.count = 1;
                        p.transit = true;
                        p.chosen_parent = 0;
                        p.lane = lane;
                        p.suffix_bitmap |= i ^ parent;
                        wl[lane as usize] += 1;
                        s.transit_ops += 1;
                    }
                    (parent, lane)
                } else {
                    // Popcount ≥ 3: every parent has popcount ≥ 2, so none
                    // can open an idle lane, and a candidate is usable iff
                    // it has a lane. Its score is its lane's counter (the
                    // NO_LANE slot's u64::MAX for the unusable).
                    let (mut best_score, mut best_parent) = (u64::MAX, 0u16);
                    while rest != 0 {
                        let parent = i & !(1u16 << (rest.trailing_zeros() & 15));
                        rest &= rest - 1;
                        let score = wl[self.nodes[parent as usize].lane as usize];
                        let better = score < best_score;
                        best_score = select_unpredictable(better, score, best_score);
                        best_parent = select_unpredictable(better, parent, best_parent);
                    }
                    assert!(
                        best_score != u64::MAX,
                        "distance-1 node must have an available parent"
                    );
                    (best_parent, self.nodes[best_parent as usize].lane)
                }
            };
            let node = &mut self.nodes[idx];
            node.chosen_parent = parent;
            node.lane = lane;
            wl[lane as usize] += u64::from(count);
            // A transit stop costs one PPE op (its count is 1) and no row;
            // a present node is one PR row plus `count − 1` FR duplicates.
            let rows = u64::from(count) * u64::from(!transit);
            s.transit_ops += usize::from(transit);
            s.pr_rows += usize::from(!transit);
            s.fr_rows += count as usize - 1;
            s.distance_rows[dis as usize] += rows;
            ape[lane as usize] += rows;
        }
        // Outliers: computed from scratch (popcount adds for the first
        // occurrence, FR reuse for duplicates), least-loaded lanes.
        for &p in &self.outliers {
            let lane = argmin_lane(&wl[..lanes]);
            let node = &mut self.nodes[p as usize];
            node.lane = lane;
            let count = u64::from(node.count);
            wl[lane as usize] += u64::from(p.count_ones()) + (count - 1);
            ape[lane as usize] += count;
        }
        s.lane_ppe = wl[..lanes].to_vec();
        s.lane_ape = ape[..lanes].to_vec();
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
    use crate::node::DIST_INF;
    use crate::{ExecutionPlan, TileStats};
    use ta_core::PatternSource;
    use ta_models::{splitmix64, QuantGaussianSource};

    impl Scoreboard {
        /// [`Scoreboard::build`] through the oracle passes.
        /// The oracle passes keep only the workload counters (in
        /// `stats.lane_ppe`); the statistics come from [`TileStats::walk`],
        /// which derives `lane_ppe` from the node entries on its own.
        fn build_oracle(cfg: ScoreboardConfig, patterns: impl IntoIterator<Item = u16>) -> Self {
            let mut sb = Self::recorded(cfg, patterns);
            sb.stats.lane_ppe = vec![0; cfg.effective_lanes() as usize];
            let prefix_bitmaps = sb.oracle_forward();
            sb.oracle_backward(&prefix_bitmaps);
            sb.oracle_balance();
            let walked = TileStats::walk(&sb);
            assert_eq!(walked.lane_ppe, sb.stats.lane_ppe, "walked lane_ppe != workload counters");
            sb.stats = walked;
            sb
        }

        // ---- Step ③: forward pass (Alg. 1) --------------------------------

        /// Returns every node's prefix bitmaps by distance: Alg. 1 pushes
        /// into the slot of each distance a prefix propagates, and the
        /// backward pass keeps one of them.
        fn oracle_forward(&mut self) -> Vec<[u16; MAX_DISTANCE]> {
            let maxd = self.cfg.max_distance;
            let width = self.cfg.width;
            let mut prefix_bitmaps = vec![[0u16; MAX_DISTANCE]; self.nodes.len()];
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
                        prefix_bitmaps[s][(d - 1) as usize] |= bit;
                        if d < self.nodes[s].distance {
                            self.nodes[s].distance = d;
                        }
                    }
                }
            }
            prefix_bitmaps
        }

        // ---- Step ④: backward pass (Alg. 2) -------------------------------

        fn oracle_backward(&mut self, prefix_bitmaps: &[[u16; MAX_DISTANCE]]) {
            let maxd = self.cfg.max_distance;
            for &i in self.graph.forward_order().iter().rev() {
                let idx = i as usize;
                let dis = self.nodes[idx].distance;
                // Alg. 2 line 5: present nodes with 1 < distance < cap trace a
                // path to their nearest prefix through transit stops.
                if self.nodes[idx].count > 0 && dis > 1 && dis < maxd {
                    let bm = prefix_bitmaps[idx][(dis - 1) as usize];
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
                    self.nodes[idx].prefix_bitmap = prefix_bitmaps[idx][(dis - 1) as usize];
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
                        self.stats.lane_ppe[lane as usize] += self.nodes[idx].count as u64;
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
                            consider(parent, pl, 0, &mut best, &self.stats.lane_ppe);
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
                            consider(parent, lane, 2, &mut best, &self.stats.lane_ppe);
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
                        self.stats.lane_ppe[lane as usize] += 1;
                    }
                    self.nodes[idx].chosen_parent = parent;
                    lane
                };
                self.nodes[idx].lane = lane;
                self.stats.lane_ppe[lane as usize] += self.nodes[idx].count as u64;
            }
            // Outliers: computed from scratch (popcount adds for the first
            // occurrence, FR reuse for duplicates), least-loaded lanes.
            let outliers = self.outliers.clone();
            for p in outliers {
                let lane = self.oracle_argmin_lane();
                let idx = p as usize;
                self.nodes[idx].lane = lane;
                let cost = p.count_ones() as u64 + (self.nodes[idx].count as u64 - 1);
                self.stats.lane_ppe[lane as usize] += cost;
            }
        }

        fn oracle_argmin_lane(&self) -> u8 {
            let mut best = 0usize;
            for (l, &w) in self.stats.lane_ppe.iter().enumerate() {
                if w < self.stats.lane_ppe[best] {
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
        assert_eq!(TileStats::from_scoreboard(&got), TileStats::walk(&got), "tallies; {}", ctx());
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
            // Lanes 17 and 254 put the highest real lane ids (254 is the
            // last below NO_LANE) next to the lane table's sentinel slot.
            check_width(width, seeds, &max_distances, &[0, 1, 2, 3, width + 1, 17, 254]);
        }
    }

    #[test]
    fn set_bit_walks_match_the_oracle_at_width_16() {
        // A cap of 1 makes all 65,535 rows of the full set outliers.
        check_width(16, 1, &[1, 2, HW_MAX_DISTANCE, MAX_DISTANCE as u8], &[0, 3]);
    }

    #[test]
    fn tallied_stats_match_the_walk_at_width_16_under_every_cap() {
        let seed = 16 << 32;
        for (kind, patterns) in multisets(16, seed) {
            for max_distance in 1..=MAX_DISTANCE as u8 {
                for balance in [BalancePolicy::WorkloadCounter, BalancePolicy::FirstCandidate] {
                    for lanes in [0, 3] {
                        let cfg = ScoreboardConfig { width: 16, max_distance, lanes, balance };
                        let sb = Scoreboard::build(cfg, patterns.iter().copied());
                        let walked = TileStats::walk(&sb);
                        assert_eq!(walked.lane_ppe, sb.lane_workload(), "{kind}, {cfg:?}");
                        assert_eq!(TileStats::from_scoreboard(&sb), walked, "{kind}, {cfg:?}");
                    }
                }
            }
        }
    }

    /// The workload counter the balance pass scores by is the per-lane PPE
    /// cycle count: every placed node adds its count (a transit stop 1),
    /// every outlier its popcount plus its duplicates. The walk derives
    /// `lane_ppe` from the node entries alone, so this checks the counter
    /// against the forest it built.
    #[test]
    fn lane_ppe_is_the_workload_counter() {
        for width in 1..=12 {
            let seed = u64::from(width) << 32 | 7;
            for (kind, patterns) in multisets(width, seed) {
                for max_distance in 1..=width as u8 + 1 {
                    for balance in [BalancePolicy::WorkloadCounter, BalancePolicy::FirstCandidate] {
                        for lanes in [0, 1, 3, 17, 254] {
                            let cfg = ScoreboardConfig { width, max_distance, lanes, balance };
                            let sb = Scoreboard::build(cfg, patterns.iter().copied());
                            let stats = TileStats::from_scoreboard(&sb);
                            assert_eq!(stats.lane_ppe, sb.lane_workload(), "{kind}, {cfg:?}");
                            assert_eq!(
                                TileStats::walk(&sb).lane_ppe,
                                sb.lane_workload(),
                                "{kind}, {cfg:?}"
                            );
                        }
                    }
                }
            }
        }
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
