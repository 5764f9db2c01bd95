//! Scoreboard Information (SI) — static and dynamic modes (§3.3, §3.4).
//!
//! The **dynamic** Scoreboard builds a private SI per sub-tile at runtime
//! (just call [`crate::Scoreboard::build`] on the tile's patterns). The
//! **static** Scoreboard computes one SI offline over a whole tensor (or a
//! calibration union) and shares it across every tile — saving the
//! hardware Scoreboard unit (~25% area, §5.8) at the price of *SI misses*:
//! a tile may need a prefix whose result no row of the tile produces, so
//! the chain must be materialized on the fly, costing extra adds.

use crate::exec::{ExecScratch, ResultSink};
use crate::scoreboard::{Scoreboard, ScoreboardConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use ta_bitslice::TileView;

/// Process-wide counter backing [`StaticSi::instance_token`].
static NEXT_SI_TOKEN: AtomicU64 = AtomicU64::new(1);

/// A tensor-level Scoreboard Information table: for every pattern active
/// at calibration time, the single prefix its result chain reuses, plus
/// its lane.
#[derive(Debug, Clone)]
pub struct StaticSi {
    cfg: ScoreboardConfig,
    /// `prefix[p]`: chosen prefix of `p`; `u16::MAX` = not in table;
    /// `SELF` = outlier (computed from scratch).
    prefix: Vec<u16>,
    lane: Vec<u8>,
    entries: usize,
    /// Unique per-construction token (clones share it — their tables are
    /// identical). Keys the plan cache so memoized static-mode tile
    /// reports are never reused across *different* SI tables.
    token: u64,
}

/// Marker for "computed from scratch" entries.
const SELF: u16 = u16::MAX - 1;
const ABSENT: u16 = u16::MAX;

/// Report of executing one tile under a static SI.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StaticTileReport {
    /// Rows in the tile.
    pub rows: usize,
    /// Zero rows (skipped).
    pub zero_rows: usize,
    /// Total accumulate ops (comparable to
    /// [`crate::TileStats::total_ops`]).
    pub total_ops: u64,
    /// Chain steps that had to materialize a pattern no tile row produces
    /// (the *SI miss* events of §3.3).
    pub si_misses: u64,
    /// Tile patterns entirely absent from the calibration table, computed
    /// from scratch.
    pub unknown_patterns: u64,
    /// Dense op count `rows × T`.
    pub dense_bit_ops: u64,
    /// PPE ops per lane (table lane of each pattern; unknown patterns go
    /// to lane 0).
    pub lane_ops: Vec<u64>,
    /// Row accumulations (APE) per lane.
    pub lane_rows: Vec<u64>,
}

impl StaticTileReport {
    /// Ops relative to dense binary GEMM.
    pub fn density(&self) -> f64 {
        if self.dense_bit_ops == 0 {
            0.0
        } else {
            self.total_ops as f64 / self.dense_bit_ops as f64
        }
    }

    /// SI miss rate per non-zero row.
    pub fn miss_rate(&self) -> f64 {
        let nz = (self.rows - self.zero_rows) as f64;
        if nz == 0.0 {
            0.0
        } else {
            self.si_misses as f64 / nz
        }
    }
}

impl StaticSi {
    /// Builds the static SI by running the full Scoreboard over the
    /// tensor-level pattern multiset (offline step, §3.3).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Scoreboard::build`].
    pub fn from_patterns(cfg: ScoreboardConfig, patterns: impl IntoIterator<Item = u16>) -> Self {
        let sb = Scoreboard::build(cfg, patterns);
        Self::from_scoreboard(&sb)
    }

    /// Extracts the SI table from an already-built Scoreboard.
    pub fn from_scoreboard(sb: &Scoreboard) -> Self {
        let cfg = *sb.config();
        let n = 1usize << cfg.width;
        let mut prefix = vec![ABSENT; n];
        let mut lane = vec![u8::MAX; n];
        let mut entries = 0;
        for p in sb.active_nodes() {
            let e = sb.node(p);
            prefix[p as usize] = if sb.is_outlier(p) { SELF } else { e.chosen_parent };
            lane[p as usize] = e.lane;
            entries += 1;
        }
        Self { cfg, prefix, lane, entries, token: NEXT_SI_TOKEN.fetch_add(1, Ordering::Relaxed) }
    }

    /// The configuration the table was built with.
    pub fn config(&self) -> &ScoreboardConfig {
        &self.cfg
    }

    /// A token unique to this table's construction (shared by clones,
    /// which hold identical tables). The plan cache scopes static-mode
    /// entries by it: a memoized tile report is only reused with the SI
    /// whose chains produced it.
    pub fn instance_token(&self) -> u64 {
        self.token
    }

    /// Number of patterns in the table (present + transit at calibration).
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// The table's chosen prefix for `pattern`: `Some(prefix)` for chained
    /// entries, `Some(pattern)` is never returned; `None` when the pattern
    /// is an outlier or absent from the table.
    pub fn prefix_of(&self, pattern: u16) -> Option<u16> {
        match self.prefix[pattern as usize] {
            ABSENT | SELF => None,
            p => Some(p),
        }
    }

    /// Whether the pattern appears in the table at all.
    pub fn contains(&self, pattern: u16) -> bool {
        self.prefix[pattern as usize] != ABSENT
    }

    /// Lane the table assigned to `pattern` (if present).
    pub fn lane_of(&self, pattern: u16) -> Option<u8> {
        if self.contains(pattern) {
            Some(self.lane[pattern as usize])
        } else {
            None
        }
    }

    /// SI storage bits: the paper's `2 × T × 2^T` formula (§3.2 — each
    /// entry stores a TransRow and its prefix at `T` bits each).
    pub fn storage_bits(&self) -> u64 {
        2 * self.cfg.width as u64 * (1u64 << self.cfg.width)
    }

    /// Executes one tile's pattern multiset under this shared SI and
    /// reports ops and misses.
    ///
    /// Semantics: rows execute in Hamming order. A row whose pattern is
    /// already computed in-tile is an FR (1 op). Otherwise its static
    /// chain is walked toward node 0; every not-yet-computed ancestor on
    /// the chain is materialized (1 op each — these are the SI-miss
    /// transit adds when the ancestor has no tile row). Patterns the table
    /// has never seen are computed from scratch (popcount ops).
    pub fn evaluate_tile(&self, patterns: &[u16]) -> StaticTileReport {
        let n = 1usize << self.cfg.width;
        let mut computed = vec![false; n];
        let mut in_tile = vec![false; n];
        for &p in patterns {
            in_tile[p as usize] = true;
        }
        let lanes = self.cfg.effective_lanes() as usize;
        let mut rep = StaticTileReport {
            rows: patterns.len(),
            dense_bit_ops: patterns.len() as u64 * self.cfg.width as u64,
            lane_ops: vec![0; lanes],
            lane_rows: vec![0; lanes],
            ..StaticTileReport::default()
        };
        // Hamming-order row execution (prefixes are lower-level, so
        // processing levels ascending maximizes in-tile reuse, matching
        // the hardware's sorted dispatch).
        let mut sorted: Vec<u16> = patterns.to_vec();
        sorted.sort_unstable_by_key(|p| (p.count_ones(), *p));
        for p in sorted {
            if p == 0 {
                rep.zero_rows += 1;
                continue;
            }
            let lane = self.lane_of(p).map_or(0, |l| (l as usize).min(lanes - 1));
            rep.lane_rows[lane] += 1;
            if computed[p as usize] {
                rep.total_ops += 1; // FR
                rep.lane_ops[lane] += 1;
                continue;
            }
            let ops = self.materialize(p, &mut computed, &in_tile, &mut rep.si_misses);
            rep.total_ops += ops;
            rep.lane_ops[lane] += ops;
            if !self.contains(p) {
                rep.unknown_patterns += 1;
            }
        }
        rep
    }

    /// Test oracle: functionally materializes every tile pattern's result
    /// vector under the static chains and returns `(pattern, accumulated
    /// vector)` pairs in computation order — the static-mode counterpart
    /// of `ExecutionPlan::evaluate`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != width` or the row vectors are ragged.
    #[cfg(test)]
    pub(crate) fn evaluate_tile_functional(
        &self,
        patterns: &[u16],
        inputs: &[Vec<i64>],
    ) -> Vec<(u16, Vec<i64>)> {
        assert_eq!(inputs.len(), self.cfg.width as usize, "need one input row per bit");
        let m = inputs.first().map_or(0, Vec::len);
        assert!(inputs.iter().all(|v| v.len() == m), "ragged input rows");
        let n = 1usize << self.cfg.width;
        let mut results: Vec<Option<Vec<i64>>> = vec![None; n];
        results[0] = Some(vec![0i64; m]);
        let mut order = Vec::new();
        let mut sorted: Vec<u16> = patterns.to_vec();
        sorted.sort_unstable_by_key(|p| (p.count_ones(), *p));
        sorted.dedup();
        for p in sorted {
            if p == 0 {
                continue;
            }
            self.materialize_functional(p, inputs, &mut results, &mut order);
        }
        order
    }

    /// Materializes every tile pattern's result straight into `scratch`'s
    /// slab, emitting each finalized pattern to `sink` in computation
    /// (Hamming) order. Allocation-free once the scratch is warm (the
    /// per-tile Hamming sort reuses a scratch-resident buffer); the
    /// allocating `evaluate_tile_functional` is kept as the test oracle.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.rows() != width`.
    pub fn evaluate_tile_functional_into(
        &self,
        patterns: &[u16],
        inputs: TileView<'_>,
        scratch: &mut ExecScratch,
        sink: &mut (impl ResultSink + ?Sized),
    ) {
        assert_eq!(inputs.rows(), self.cfg.width as usize, "need one input row per bit");
        scratch.begin(self.cfg.width, inputs.cols());
        let mut sorted = std::mem::take(&mut scratch.sort_buf);
        sorted.clear();
        sorted.extend_from_slice(patterns);
        sorted.sort_unstable_by_key(|p| (p.count_ones(), *p));
        sorted.dedup();
        for &p in &sorted {
            if p == 0 || scratch.computed(p) {
                continue;
            }
            self.materialize_into(p, inputs, scratch, sink);
        }
        scratch.sort_buf = sorted;
    }

    /// Walks `p`'s static chain down to the first computed ancestor (or a
    /// from-scratch stop), then replays it upward into the scratch slab —
    /// the iterative, slab-resident form of the oracle's recursion.
    /// Chain depth is bounded by the TransRow width (every prefix drops
    /// at least one bit), so the walk uses a fixed-size stack.
    fn materialize_into(
        &self,
        p: u16,
        inputs: TileView<'_>,
        scratch: &mut ExecScratch,
        sink: &mut (impl ResultSink + ?Sized),
    ) {
        // Chain of not-yet-computed nodes, `p` first, deepest last.
        let mut chain = [0u16; 16];
        let mut len = 0usize;
        let mut cur = p;
        while !scratch.computed(cur) {
            chain[len] = cur;
            len += 1;
            match self.prefix[cur as usize] {
                ABSENT | SELF => break, // from-scratch stop
                parent => cur = parent,
            }
        }
        // Replay deepest-first: one fused prefix-derive per node.
        for &node in chain[..len].iter().rev() {
            let prefix = match self.prefix[node as usize] {
                ABSENT | SELF => 0, // from scratch: all set bits onto the zero slot
                parent => parent,
            };
            scratch.derive(prefix, node, inputs, node ^ prefix);
            scratch.mark(node);
            scratch.emit(node, sink);
        }
    }

    #[cfg(test)]
    fn materialize_functional(
        &self,
        p: u16,
        inputs: &[Vec<i64>],
        results: &mut [Option<Vec<i64>>],
        order: &mut Vec<(u16, Vec<i64>)>,
    ) {
        if results[p as usize].is_some() {
            return;
        }
        let base = match self.prefix[p as usize] {
            ABSENT | SELF => vec![0i64; inputs.first().map_or(0, Vec::len)],
            parent => {
                self.materialize_functional(parent, inputs, results, order);
                results[parent as usize].as_ref().expect("parent computed").clone()
            }
        };
        let diff = match self.prefix[p as usize] {
            ABSENT | SELF => p, // from scratch: all set bits
            parent => p ^ parent,
        };
        let mut acc = base;
        let mut bits = diff;
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            for (a, &x) in acc.iter_mut().zip(&inputs[j]) {
                *a += x;
            }
        }
        results[p as usize] = Some(acc.clone());
        order.push((p, acc));
    }

    /// Materializes `p`'s result, returning the op count charged. Marks
    /// every touched ancestor computed (memoized within the tile).
    fn materialize(
        &self,
        p: u16,
        computed: &mut [bool],
        in_tile: &[bool],
        misses: &mut u64,
    ) -> u64 {
        // Walk the chain down collecting uncomputed ancestors.
        let mut stack = Vec::new();
        let mut cur = p;
        let mut scratch_cost = 0u64;
        loop {
            if cur == 0 || computed[cur as usize] {
                break;
            }
            match self.prefix[cur as usize] {
                ABSENT | SELF => {
                    // From-scratch materialization: popcount adds.
                    scratch_cost = cur.count_ones() as u64;
                    computed[cur as usize] = true;
                    if !in_tile[cur as usize] {
                        *misses += 1;
                    }
                    break;
                }
                parent => {
                    stack.push(cur);
                    cur = parent;
                }
            }
        }
        // Replay upward: one add per chain link.
        let mut ops = scratch_cost;
        while let Some(node) = stack.pop() {
            computed[node as usize] = true;
            if !in_tile[node as usize] {
                *misses += 1;
            }
            ops += 1;
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Workers share StaticSi by reference across the tile-execution
    /// runtime's scoped threads — lock in the auto-derived thread
    /// safety so a future `Rc`/`RefCell` slip fails to compile.
    #[test]
    fn static_si_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StaticSi>();
    }

    fn cfg4() -> ScoreboardConfig {
        ScoreboardConfig::with_width(4)
    }

    #[test]
    fn static_si_matches_dynamic_when_tile_is_tensor() {
        // When the "tile" is the whole calibration set, static SI pays the
        // same ops as the dynamic Scoreboard.
        let patterns = vec![14u16, 2, 5, 1, 15, 7, 2];
        let si = StaticSi::from_patterns(cfg4(), patterns.iter().copied());
        let rep = si.evaluate_tile(&patterns);
        assert_eq!(rep.total_ops, 8); // 7 rows + 1 transit (Fig. 5)
        assert_eq!(rep.si_misses, 1); // the transit stop itself is not a row
        assert_eq!(rep.unknown_patterns, 0);
    }

    #[test]
    fn tile_missing_prefix_pays_misses() {
        // Calibrate on {1, 3, 7, 15}: chain 15→7→3→1.
        let si = StaticSi::from_patterns(cfg4(), [1u16, 3, 7, 15]);
        // A tile containing only {15}: must materialize 1, 3, 7 first.
        let rep = si.evaluate_tile(&[15]);
        assert_eq!(rep.total_ops, 4);
        assert_eq!(rep.si_misses, 3);
        // Dynamic scoreboard on the same tile would pay popcount(15) = 4
        // too (outlier) — static is never *worse* than from-scratch here.
    }

    #[test]
    fn tile_full_chain_present_no_misses() {
        let si = StaticSi::from_patterns(cfg4(), [1u16, 3, 7, 15]);
        let rep = si.evaluate_tile(&[1, 3, 7, 15]);
        assert_eq!(rep.total_ops, 4);
        assert_eq!(rep.si_misses, 0);
    }

    #[test]
    fn unknown_pattern_computed_from_scratch() {
        let si = StaticSi::from_patterns(cfg4(), [1u16, 3]);
        let rep = si.evaluate_tile(&[12]); // never calibrated
        assert_eq!(rep.unknown_patterns, 1);
        assert_eq!(rep.total_ops, 2); // popcount(12)
    }

    #[test]
    fn fr_within_tile_still_one_op() {
        let si = StaticSi::from_patterns(cfg4(), [5u16, 5]);
        let rep = si.evaluate_tile(&[5, 5, 5]);
        // First 5 materializes its chain (5 = 0101: transit level-1 stop +
        // itself = 2 ops), duplicates 1 op each.
        assert_eq!(rep.total_ops, 2 + 2);
    }

    #[test]
    fn zero_rows_skipped() {
        let si = StaticSi::from_patterns(cfg4(), [0u16, 1]);
        let rep = si.evaluate_tile(&[0, 0, 1]);
        assert_eq!(rep.zero_rows, 2);
        assert_eq!(rep.total_ops, 1);
        assert!((rep.density() - 1.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn storage_matches_paper_formula() {
        // §3.2: T=8 → 2·8·256 bits = 512 bytes.
        let si = StaticSi::from_patterns(ScoreboardConfig::with_width(8), [1u16]);
        assert_eq!(si.storage_bits(), 4096);
        assert_eq!(si.storage_bits() / 8, 512);
    }

    #[test]
    fn instance_tokens_unique_per_build_shared_by_clones() {
        let a = StaticSi::from_patterns(cfg4(), [1u16, 3]);
        let b = StaticSi::from_patterns(cfg4(), [1u16, 3]);
        assert_ne!(a.instance_token(), b.instance_token(), "independent builds must not alias");
        let c = a.clone();
        assert_eq!(a.instance_token(), c.instance_token(), "clones hold the same table");
    }

    #[test]
    fn miss_rate_and_lane_lookup() {
        let si = StaticSi::from_patterns(cfg4(), [2u16, 6, 14]);
        assert!(si.lane_of(2).is_some());
        assert!(si.lane_of(9).is_none());
        let rep = si.evaluate_tile(&[14, 14]);
        assert!(rep.miss_rate() > 0.0);
    }
}
