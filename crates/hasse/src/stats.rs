//! Transitive-sparsity statistics — the quantities behind Fig. 9 and the
//! cycle model of §4.6.
//!
//! Classifies TransRows into the paper's four computation patterns
//! (§5.2): **ZR** (zero row — skipped), **TR** (transit reuse — PPE only),
//! **FR** (full result reuse — APE only), **PR** (prefix result reuse —
//! PPE + APE), and derives op counts, density, distance histograms, and
//! per-lane PPE/APE cycle counts.

use crate::scoreboard::Scoreboard;
use ta_bitslice::bitonic_depth;

/// Statistics of one Scoreboard (one sub-tile in dynamic mode).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TileStats {
    /// TransRow width `T`.
    pub width: u32,
    /// Total TransRows recorded (incl. zero rows and duplicates).
    pub rows: usize,
    /// Zero rows (ZR) — skipped entirely.
    pub zero_rows: usize,
    /// Rows that fully reuse an earlier identical row (FR): `count − 1`
    /// summed over present nodes.
    pub fr_rows: usize,
    /// First occurrences with a valid prefix (PR), including distance-1
    /// roots.
    pub pr_rows: usize,
    /// Transit (TR) node activations.
    pub transit_ops: usize,
    /// First occurrences beyond the distance cap, computed from scratch.
    pub outlier_rows: usize,
    /// Extra adds outliers need beyond their 1-op row slot
    /// (`popcount − 1` each).
    pub outlier_extra_ops: u64,
    /// Total accumulate operations (the paper's op count: every non-zero
    /// row costs 1, plus transit ops, plus outlier extras).
    pub total_ops: u64,
    /// Dense binary-GEMM op count, `rows × T`.
    pub dense_bit_ops: u64,
    /// Rows per prefix distance, indexed by distance (1..=17); index 0 is
    /// unused. Outlier rows are *not* bucketed here — see
    /// [`TileStats::outlier_rows`].
    pub distance_rows: [u64; 18],
    /// PPE cycles per lane: rows + transit + outlier extras in that lane.
    /// These are the balance pass's workload counters, equal to
    /// [`Scoreboard::lane_workload`].
    pub lane_ppe: Vec<u64>,
    /// APE cycles per lane: rows accumulated in that lane.
    pub lane_ape: Vec<u64>,
    /// Dynamic Scoreboarding cycles, `⌈min(rows, 2^T)/T⌉` (§4.6).
    pub scoreboard_cycles: u64,
    /// Bitonic sort pipeline-fill depth for this row count.
    pub sort_depth: u32,
}

impl TileStats {
    /// Gathers statistics from a built Scoreboard. The build tallies them
    /// as its balance pass places each node, so this copies O(lanes) data;
    /// `lane_ppe` is [`Scoreboard::lane_workload`].
    pub fn from_scoreboard(sb: &Scoreboard) -> Self {
        sb.stats().clone()
    }

    /// Fills the fields that follow from the row counts once the build
    /// has tallied `rows` and the per-node classification.
    pub(crate) fn close(&mut self, zero_rows: usize) {
        let width = u64::from(self.width);
        self.zero_rows = zero_rows;
        self.dense_bit_ops = self.rows as u64 * width;
        self.scoreboard_cycles = (self.rows.min(1usize << self.width) as u64).div_ceil(width);
        self.sort_depth = bitonic_depth(self.rows);
        let nonzero_rows = (self.rows - zero_rows) as u64;
        self.total_ops = nonzero_rows + self.transit_ops as u64 + self.outlier_extra_ops;
    }

    /// Overall density: accumulate ops relative to dense binary GEMM
    /// (`rows × T` adds). The paper's headline metric (Fig. 9); lower is
    /// better, bounded below by `1/T`.
    pub fn density(&self) -> f64 {
        if self.dense_bit_ops == 0 {
            0.0
        } else {
            self.total_ops as f64 / self.dense_bit_ops as f64
        }
    }

    /// ZR sparsity: fraction of rows skipped entirely.
    pub fn zr_sparsity(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.zero_rows as f64 / self.rows as f64
        }
    }

    /// TR density: transit ops over dense ops (Fig. 9 b/c series).
    pub fn tr_density(&self) -> f64 {
        if self.dense_bit_ops == 0 {
            0.0
        } else {
            self.transit_ops as f64 / self.dense_bit_ops as f64
        }
    }

    /// FR density: full-reuse rows over dense ops.
    pub fn fr_density(&self) -> f64 {
        if self.dense_bit_ops == 0 {
            0.0
        } else {
            self.fr_rows as f64 / self.dense_bit_ops as f64
        }
    }

    /// PR density: prefix-reuse rows (incl. outlier ops) over dense ops.
    pub fn pr_density(&self) -> f64 {
        if self.dense_bit_ops == 0 {
            0.0
        } else {
            (self.pr_rows as u64 + self.outlier_rows as u64 + self.outlier_extra_ops) as f64
                / self.dense_bit_ops as f64
        }
    }

    /// PPE stage cycles: the slowest lane (critical path, §4.6).
    pub fn ppe_cycles(&self) -> u64 {
        self.lane_ppe.iter().copied().max().unwrap_or(0)
    }

    /// APE stage cycles: the slowest lane's row accumulations.
    pub fn ape_cycles(&self) -> u64 {
        self.lane_ape.iter().copied().max().unwrap_or(0)
    }

    /// Steady-state sub-tile cycles under the 3-stage double-buffered
    /// pipeline: `max(Scoreboard, PPE, APE)`.
    pub fn subtile_cycles(&self) -> u64 {
        self.scoreboard_cycles.max(self.ppe_cycles()).max(self.ape_cycles())
    }

    /// Load-balance efficiency: mean lane PPE load over max (1.0 =
    /// perfectly balanced).
    pub fn balance_efficiency(&self) -> f64 {
        let max = self.ppe_cycles();
        if max == 0 {
            return 1.0;
        }
        let sum: u64 = self.lane_ppe.iter().sum();
        sum as f64 / (max as f64 * self.lane_ppe.len() as f64)
    }

    /// Merges another tile's statistics into this one (for tensor-level
    /// aggregation across sub-tiles). Lane vectors are added elementwise;
    /// cycle counts add (sequential tiles).
    ///
    /// # Panics
    ///
    /// Panics if widths or lane counts differ.
    pub fn merge(&mut self, other: &TileStats) {
        assert_eq!(self.width, other.width, "width mismatch");
        assert_eq!(self.lane_ppe.len(), other.lane_ppe.len(), "lane count mismatch");
        self.rows += other.rows;
        self.zero_rows += other.zero_rows;
        self.fr_rows += other.fr_rows;
        self.pr_rows += other.pr_rows;
        self.transit_ops += other.transit_ops;
        self.outlier_rows += other.outlier_rows;
        self.outlier_extra_ops += other.outlier_extra_ops;
        self.total_ops += other.total_ops;
        self.dense_bit_ops += other.dense_bit_ops;
        for (a, b) in self.distance_rows.iter_mut().zip(&other.distance_rows) {
            *a += b;
        }
        for (a, b) in self.lane_ppe.iter_mut().zip(&other.lane_ppe) {
            *a += b;
        }
        for (a, b) in self.lane_ape.iter_mut().zip(&other.lane_ape) {
            *a += b;
        }
        self.scoreboard_cycles += other.scoreboard_cycles;
        self.sort_depth = self.sort_depth.max(other.sort_depth);
    }
}

/// The reference statistics: one walk over the finished node entries in
/// forward order, independent of the build's tallies, which must match it
/// field for field.
#[cfg(test)]
impl TileStats {
    pub(crate) fn walk(sb: &Scoreboard) -> Self {
        let cfg = *sb.config();
        let lanes = cfg.effective_lanes() as usize;
        let mut s = TileStats {
            width: cfg.width,
            rows: sb.rows(),
            zero_rows: sb.node(0).count as usize,
            dense_bit_ops: sb.rows() as u64 * cfg.width as u64,
            lane_ppe: vec![0; lanes],
            lane_ape: vec![0; lanes],
            scoreboard_cycles: {
                let distinct = sb.rows().min(1usize << cfg.width) as u64;
                distinct.div_ceil(cfg.width as u64)
            },
            sort_depth: bitonic_depth(sb.rows()),
            ..TileStats::default()
        };
        for p in sb.active_nodes() {
            let e = sb.node(p);
            let lane = e.lane as usize;
            if e.transit {
                s.transit_ops += 1;
                s.lane_ppe[lane] += 1;
                continue;
            }
            // Present node: first occurrence + (count−1) FR duplicates.
            let count = e.count as u64;
            s.fr_rows += (count - 1) as usize;
            if sb.is_outlier(p) {
                s.outlier_rows += 1;
                let extra = p.count_ones() as u64 - 1;
                s.outlier_extra_ops += extra;
                s.lane_ppe[lane] += count + extra;
            } else {
                s.pr_rows += 1;
                s.lane_ppe[lane] += count;
                let cap = s.distance_rows.len().saturating_sub(1);
                if let Some(bucket) = s.distance_rows.get_mut((e.distance as usize).min(cap)) {
                    *bucket += count;
                }
            }
            s.lane_ape[lane] += count;
        }
        let nonzero_rows = (s.rows - s.zero_rows) as u64;
        s.total_ops = nonzero_rows + s.transit_ops as u64 + s.outlier_extra_ops;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Workers share TileStats by reference across the tile-execution
    /// runtime's scoped threads — lock in the auto-derived thread
    /// safety so a future `Rc`/`RefCell` slip fails to compile.
    #[test]
    fn tile_stats_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TileStats>();
    }
    use crate::scoreboard::{Scoreboard, ScoreboardConfig};

    fn stats_for(patterns: &[u16], width: u32) -> TileStats {
        let sb = Scoreboard::build(ScoreboardConfig::with_width(width), patterns.iter().copied());
        TileStats::from_scoreboard(&sb)
    }

    #[test]
    fn fig1_example_density() {
        // Fig. 1: 4 rows × 4 bits, 4 ops → density 25% (vs 10 ops of bit
        // sparsity = 62.5%).
        let s = stats_for(&[0b1011, 0b1111, 0b0011, 0b0010], 4);
        assert_eq!(s.total_ops, 4);
        assert_eq!(s.dense_bit_ops, 16);
        assert!((s.density() - 0.25).abs() < 1e-12);
        assert_eq!(s.zero_rows, 0);
        assert_eq!(s.pr_rows, 4);
        assert_eq!(s.fr_rows, 0);
        assert_eq!(s.transit_ops, 0);
    }

    #[test]
    fn fig5_example_classification() {
        let s = stats_for(&[14, 2, 5, 1, 15, 7, 2], 4);
        assert_eq!(s.rows, 7);
        assert_eq!(s.zero_rows, 0);
        assert_eq!(s.fr_rows, 1); // the duplicate 2
        assert_eq!(s.pr_rows, 6); // 1,2,5,7,14,15
        assert_eq!(s.transit_ops, 1); // the 2→14 stop
        assert_eq!(s.total_ops, 7 + 1);
        // Lane cycle counts: PPE = 4/4, APE = 4/3 (transit has no APE).
        assert_eq!(s.ppe_cycles(), 4);
        let mut ape: Vec<u64> = s.lane_ape.iter().copied().filter(|&x| x > 0).collect();
        ape.sort_unstable();
        assert_eq!(ape, vec![3, 4]);
    }

    #[test]
    fn all_zero_rows() {
        let s = stats_for(&[0, 0, 0, 0], 4);
        assert_eq!(s.total_ops, 0);
        assert_eq!(s.density(), 0.0);
        assert_eq!(s.zr_sparsity(), 1.0);
        assert_eq!(s.subtile_cycles(), 1); // scoreboard still scans
    }

    #[test]
    fn duplicates_count_as_fr() {
        let s = stats_for(&[5, 5, 5, 5], 4);
        assert_eq!(s.pr_rows, 1);
        assert_eq!(s.fr_rows, 3);
        // 4 row ops + 1 transit (5 = 0101 is level 2 with no present
        // parents → one transit stop).
        assert_eq!(s.total_ops, 5);
    }

    #[test]
    fn distance_histogram_buckets() {
        // Pattern at level 3 → distance 3 (2 transit stops); superset at
        // distance 1.
        let s = stats_for(&[0b0111, 0b1111], 4);
        assert_eq!(s.distance_rows[3], 1);
        assert_eq!(s.distance_rows[1], 1);
        assert_eq!(s.distance_rows[5], 0);
        assert_eq!(s.transit_ops, 2);
    }

    #[test]
    fn degenerate_configs_do_not_break_the_histogram() {
        // Empty tile: nothing bucketed, nothing panics.
        let empty = stats_for(&[], 1);
        assert_eq!(empty.rows, 0);
        assert_eq!(empty.distance_rows.iter().sum::<u64>(), 0);
        // Minimal width with duplicate rows: everything lands in bucket 1.
        let tiny = stats_for(&[1, 1, 0], 1);
        assert_eq!(tiny.distance_rows[1], 2);
        // Unbounded distance cap at full width: the deepest reachable
        // distance (17) still clamps inside the fixed histogram.
        let deep: u16 = u16::MAX; // level 16 at width 16 → distance 16
        let sb = Scoreboard::build(ScoreboardConfig::unbounded(16), [deep]);
        let s = TileStats::from_scoreboard(&sb);
        assert_eq!(s.distance_rows.iter().sum::<u64>(), 1);
        assert_eq!(s.outlier_rows, 0);
    }

    #[test]
    fn outliers_bucketed_separately() {
        let p: u16 = 0b0011_1110; // level 5, width 8 → outlier
        let s = stats_for(&[p, p], 8);
        assert_eq!(s.outlier_rows, 1);
        assert_eq!(s.fr_rows, 1);
        assert_eq!(s.outlier_extra_ops, 4);
        assert_eq!(s.distance_rows.iter().sum::<u64>(), 0, "outliers not bucketed");
        // total = 2 row ops + 4 extras.
        assert_eq!(s.total_ops, 6);
    }

    #[test]
    fn density_lower_bound_one_over_t() {
        // All 256 patterns present twice: every row costs exactly 1 op.
        let patterns: Vec<u16> = (0..256u16).chain(0..256u16).collect();
        let s = stats_for(&patterns, 8);
        assert_eq!(s.total_ops, 510); // 512 rows − 2 zero rows
        let density = s.density();
        assert!((density - 510.0 / 4096.0).abs() < 1e-12);
        assert!(density > 1.0 / 8.0 - 0.01 && density < 1.0 / 8.0 + 0.01);
    }

    #[test]
    fn scoreboard_cycles_bound() {
        // §4.6: SB processes min(n, 2^T)/T per cycle-group — always ≤ n/T.
        let patterns: Vec<u16> = (0..600u32).map(|i| (i % 256) as u16).collect();
        let s = stats_for(&patterns, 8);
        assert_eq!(s.scoreboard_cycles, 256 / 8);
        assert!(s.scoreboard_cycles <= 600 / 8);
    }

    #[test]
    fn merge_accumulates() {
        let a = stats_for(&[1, 2, 3], 4);
        let b = stats_for(&[0, 7, 7], 4);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.rows, 6);
        assert_eq!(m.zero_rows, 1);
        assert_eq!(m.total_ops, a.total_ops + b.total_ops);
        assert_eq!(m.dense_bit_ops, 24);
    }

    #[test]
    fn balance_efficiency_range() {
        let s = stats_for(&[1, 2, 4, 8, 3, 5, 9, 6, 10, 12], 4);
        let e = s.balance_efficiency();
        assert!(e > 0.0 && e <= 1.0, "{e}");
    }
}
