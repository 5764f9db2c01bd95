//! One TransArray unit processing one sub-tile (Fig. 7(b), Fig. 8).
//!
//! Pipeline per sub-tile: PopCount sort → Scoreboard (dynamic) or SI
//! lookup (static) → dispatch (XOR pruning + Benes/crossbar routing) →
//! PPE (prefix adds) → APE (output accumulation). This module produces
//! both the cycle/op report and, on demand, the functional node results.
//!
//! Functional evaluation is slab-resident: every diff-bit add lands in an
//! [`ExecScratch`] whose row accumulation runs through the word-parallel
//! `ta_bitslice::kernels` facade (fused multi-row adds), so no per-bit
//! inner loop survives on the unit's execution path. The tests check it
//! against the definition: each row's result is the sum of the input
//! rows its pattern selects.

use crate::config::{ScoreboardMode, TransArrayConfig};
use std::sync::Arc;
use ta_bitslice::{bitonic_depth, TileView};
use ta_hasse::{
    CachedPlan, ExecScratch, NullSink, PlanKey, SharedPlanCache, StaticSi, StaticTileReport,
    TileStats,
};

/// Per-sub-tile performance report.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SubtileReport {
    /// TransRows processed.
    pub rows: usize,
    /// Accumulate ops (PPE slots incl. transit + outlier extras).
    pub total_ops: u64,
    /// Dense bit-ops baseline (`rows × T`).
    pub dense_bit_ops: u64,
    /// Scoreboard-stage cycles (0 in static mode — prefetched SI).
    pub scoreboard_cycles: u64,
    /// PPE-stage cycles (slowest lane).
    pub ppe_cycles: u64,
    /// APE-stage cycles (slowest lane).
    pub ape_cycles: u64,
    /// Crossbar conflict stall cycles for output-bank writes.
    pub xbar_cycles: u64,
    /// Steady-state cycles this sub-tile occupies the unit.
    pub cycles: u64,
    /// Bitonic sorter fill latency (amortized across the tile stream).
    pub sort_depth: u32,
    /// SI misses (static mode only).
    pub si_misses: u64,
    /// Detailed dynamic-mode statistics (None in static mode). Shared
    /// (`Arc`) so plan-cache hits hand out the memoized statistics
    /// without deep-cloning the lane vectors per sub-tile; equality
    /// still compares the contents.
    pub stats: Option<Arc<TileStats>>,
}

/// Assembles the dynamic-mode [`SubtileReport`] from the tile's (possibly
/// memoized) statistics. The crossbar bound is recomputed per tile — it
/// depends on row *positions*, which the multiset-keyed plan cache
/// deliberately does not capture; everything multiset-determined comes
/// from `stats`, so cached and fresh reports are identical by
/// construction. Takes the shared `Arc` so a cache hit hands out the
/// memoized statistics without deep-cloning them; the fresh path pays
/// one `Arc` allocation.
fn dynamic_report(
    cfg: &TransArrayConfig,
    patterns: &[u16],
    stats: Arc<TileStats>,
) -> SubtileReport {
    let xbar_cycles = xbar_conflict_cycles(cfg, patterns);
    let scoreboard_cycles = stats.scoreboard_cycles;
    let ppe = stats.ppe_cycles();
    let ape = stats.ape_cycles().max(xbar_cycles);
    let cycles = scoreboard_cycles.max(ppe).max(ape).max(1);
    SubtileReport {
        rows: patterns.len(),
        total_ops: stats.total_ops,
        dense_bit_ops: stats.dense_bit_ops,
        scoreboard_cycles,
        ppe_cycles: ppe,
        ape_cycles: ape,
        xbar_cycles,
        cycles,
        sort_depth: stats.sort_depth,
        si_misses: 0,
        stats: Some(stats),
    }
}

/// Assembles the static-mode [`SubtileReport`] from the (possibly
/// memoized) SI replay report; see [`dynamic_report`] for the
/// cached-equals-fresh argument.
fn static_report(
    cfg: &TransArrayConfig,
    patterns: &[u16],
    rep: &StaticTileReport,
) -> SubtileReport {
    let xbar_cycles = xbar_conflict_cycles(cfg, patterns);
    let ppe = rep.lane_ops.iter().copied().max().unwrap_or(0);
    let ape = rep.lane_rows.iter().copied().max().unwrap_or(0).max(xbar_cycles);
    let cycles = ppe.max(ape).max(1);
    SubtileReport {
        rows: patterns.len(),
        total_ops: rep.total_ops,
        dense_bit_ops: rep.dense_bit_ops,
        scoreboard_cycles: 0,
        ppe_cycles: ppe,
        ape_cycles: ape,
        xbar_cycles,
        cycles,
        sort_depth: bitonic_depth(patterns.len()),
        si_misses: rep.si_misses,
        stats: None,
    }
}

/// The canonical plan-cache key for one sub-tile under this accelerator
/// configuration: the pattern multiset plus every Scoreboard knob, scoped
/// to the static SI instance in static mode.
fn plan_key(cfg: &TransArrayConfig, static_si: Option<&StaticSi>, patterns: &[u16]) -> PlanKey {
    let si_token = match cfg.scoreboard_mode {
        ScoreboardMode::Dynamic => None,
        ScoreboardMode::Static => Some(expect_si(static_si).instance_token()),
    };
    PlanKey::new(&cfg.scoreboard_config(), si_token, patterns)
}

fn expect_si(static_si: Option<&StaticSi>) -> &StaticSi {
    static_si.expect("static mode requires a prefetched SI")
}

/// The one plan provider: returns the sub-tile's post-Scoreboard plan.
/// With a cache it keys, probes, and on a miss builds and inserts; the
/// (potentially expensive) Scoreboard construction runs outside the
/// cache's lock, and racing workers may build the same plan twice, which
/// is harmless — the values are identical by construction. Without a
/// cache it only builds (no key is ever constructed). `with_plan`
/// additionally materializes the dynamic op streams on a build (pass it
/// from functional callers so one Scoreboard build serves both
/// products); simulation-only callers leave them lazy.
fn subtile_plan(
    cfg: &TransArrayConfig,
    static_si: Option<&StaticSi>,
    patterns: &[u16],
    cache: Option<&SharedPlanCache>,
    with_plan: bool,
) -> Arc<CachedPlan> {
    let build = || {
        Arc::new(match cfg.scoreboard_mode {
            ScoreboardMode::Dynamic => {
                CachedPlan::build_dynamic(&cfg.scoreboard_config(), patterns, with_plan)
            }
            ScoreboardMode::Static => {
                CachedPlan::Static { report: expect_si(static_si).evaluate_tile(patterns) }
            }
        })
    };
    let Some(cache) = cache else { return build() };
    let key = plan_key(cfg, static_si, patterns);
    if let Some(hit) = cache.get(&key) {
        return hit;
    }
    let plan = build();
    cache.insert(key, Arc::clone(&plan));
    plan
}

/// Assembles a [`SubtileReport`] from a (cached or fresh) plan.
fn report_from_plan(cfg: &TransArrayConfig, patterns: &[u16], plan: &CachedPlan) -> SubtileReport {
    match plan {
        CachedPlan::Dynamic { stats, .. } => dynamic_report(cfg, patterns, Arc::clone(stats)),
        CachedPlan::Static { report } => static_report(cfg, patterns, report),
    }
}

/// Processes one sub-tile in whichever mode the config selects and
/// reports its cycles — the simulate loop's body. The report is
/// bit-identical with and without `cache`; a hit only skips the
/// Scoreboard passes.
pub(crate) fn process_subtile(
    cfg: &TransArrayConfig,
    static_si: Option<&StaticSi>,
    patterns: &[u16],
    cache: Option<&SharedPlanCache>,
) -> SubtileReport {
    report_from_plan(cfg, patterns, &subtile_plan(cfg, static_si, patterns, cache, false))
}

/// Processes **and** functionally evaluates one sub-tile in a single
/// pass — the execute path's inner loop. One plan (a lookup, or one
/// Scoreboard build) serves both the performance report and the node
/// results, and every add lands directly in `scratch`'s pattern-result
/// slab: row `r`'s result is `scratch.result(patterns[r])` afterwards
/// (zero rows have no slab entry — their result is all zeros by
/// definition). Reusing one scratch across many sub-tiles allocates
/// nothing beyond the plan itself once the arena is warm.
///
/// # Panics
///
/// Panics if `inputs.rows()` disagrees with the width, or static mode
/// lacks an SI.
pub(crate) fn execute_subtile(
    cfg: &TransArrayConfig,
    static_si: Option<&StaticSi>,
    patterns: &[u16],
    inputs: TileView<'_, i32>,
    cache: Option<&SharedPlanCache>,
    scratch: &mut ExecScratch<i32>,
) -> SubtileReport {
    let plan = subtile_plan(cfg, static_si, patterns, cache, true);
    match &*plan {
        CachedPlan::Dynamic { .. } => plan
            .dynamic_plan(&cfg.scoreboard_config(), patterns)
            .evaluate_into(inputs, scratch, &mut NullSink),
        CachedPlan::Static { .. } => expect_si(static_si).evaluate_tile_functional_into(
            patterns,
            inputs,
            scratch,
            &mut NullSink,
        ),
    }
    report_from_plan(cfg, patterns, &plan)
}

/// Crossbar throughput bound for the APE→output-bank writes (§4.4): rows
/// are banked by their original row index; the crossbar's conflict queue
/// plus the double buffer *conceal* transient collisions ("we implement a
/// double buffer mechanism so that the partial sum buffer overlaps and
/// conceals the overhead"), so the sustained limit is the most-loaded
/// bank's total row count over the sub-tile — not per-group worst cases.
fn xbar_conflict_cycles(cfg: &TransArrayConfig, patterns: &[u16]) -> u64 {
    // One bank per TransRow bit; the width is validated to 1..=16.
    let banks = cfg.width as usize;
    let mut occupancy = [0u64; 16];
    for group in patterns.chunks(banks) {
        for (bank, &p) in occupancy.iter_mut().zip(group) {
            *bank += u64::from(p != 0);
        }
    }
    occupancy[..banks].iter().copied().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ta_hasse::ScoreboardConfig;

    fn cfg() -> TransArrayConfig {
        TransArrayConfig { width: 4, max_transrows: 8, weight_bits: 4, ..Default::default() }
    }

    /// The definition every mode must meet: row `r`'s result is the sum
    /// of the input rows whose bits `patterns[r]` sets.
    fn subset_sums(patterns: &[u16], inputs: &[Vec<i32>]) -> Vec<Vec<i32>> {
        let m = inputs.first().map_or(0, Vec::len);
        patterns
            .iter()
            .map(|&p| {
                (0..m)
                    .map(|c| {
                        (0..inputs.len()).filter(|j| p >> j & 1 == 1).map(|j| inputs[j][c]).sum()
                    })
                    .collect()
            })
            .collect()
    }

    /// Runs [`execute_subtile`] on a fresh scratch and reads every row's
    /// result back (zero rows have no slab entry and read as zeros).
    fn executed_rows(
        c: &TransArrayConfig,
        si: Option<&StaticSi>,
        patterns: &[u16],
        inputs: &[Vec<i32>],
    ) -> Vec<Vec<i32>> {
        let m = inputs.first().map_or(0, Vec::len);
        let staged: Vec<i32> = inputs.iter().flatten().copied().collect();
        let mut scratch = ExecScratch::new();
        execute_subtile(
            c,
            si,
            patterns,
            TileView::new(&staged, inputs.len(), m, m),
            None,
            &mut scratch,
        );
        patterns.iter().map(|&p| scratch.result(p).map_or(vec![0; m], <[i32]>::to_vec)).collect()
    }

    #[test]
    fn dynamic_report_consistent() {
        let c = cfg();
        let patterns = [0b1011u16, 0b1111, 0b0011, 0b0010];
        let rep = process_subtile(&c, None, &patterns, None);
        assert_eq!(rep.rows, 4);
        assert_eq!(rep.total_ops, 4);
        assert_eq!(rep.dense_bit_ops, 16);
        assert!(rep.cycles >= rep.ppe_cycles);
        assert!(rep.cycles >= rep.scoreboard_cycles);
        assert_eq!(rep.si_misses, 0);
        assert!(rep.stats.is_some());
    }

    #[test]
    fn static_report_has_no_scoreboard_stage() {
        let c = TransArrayConfig { scoreboard_mode: ScoreboardMode::Static, ..cfg() };
        let patterns = vec![0b1011u16, 0b1111, 0b0011, 0b0010];
        let si = StaticSi::from_patterns(ScoreboardConfig::with_width(4), patterns.iter().copied());
        let rep = process_subtile(&c, Some(&si), &patterns, None);
        assert_eq!(rep.scoreboard_cycles, 0);
        assert_eq!(rep.total_ops, 4);
        assert!(rep.stats.is_none());
    }

    #[test]
    fn dynamic_functional_matches_subset_sums() {
        let c = cfg();
        let patterns = [0b1011u16, 0b1111, 0b0011, 0b0010, 0];
        let inputs: Vec<Vec<i32>> = vec![vec![6, 1], vec![-2, 2], vec![-5, 3], vec![4, 4]];
        let rows = executed_rows(&c, None, &patterns, &inputs);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0], vec![6 - 2 + 4, 1 + 2 + 4]);
        assert_eq!(rows[1], vec![6 - 2 - 5 + 4, 1 + 2 + 3 + 4]);
        assert_eq!(rows[2], vec![6 - 2, 1 + 2]);
        assert_eq!(rows[3], vec![-2, 2]);
        assert_eq!(rows[4], vec![0, 0]);
    }

    #[test]
    fn static_functional_matches_dynamic() {
        let dyn_cfg = cfg();
        let sta_cfg = TransArrayConfig { scoreboard_mode: ScoreboardMode::Static, ..cfg() };
        let patterns = [0b0111u16, 0b0101, 0b1111, 0b0001, 0b0101];
        let si = StaticSi::from_patterns(ScoreboardConfig::with_width(4), patterns.iter().copied());
        let inputs: Vec<Vec<i32>> = (0..4).map(|j| vec![j * 3 - 4]).collect();
        let d = executed_rows(&dyn_cfg, None, &patterns, &inputs);
        let s = executed_rows(&sta_cfg, Some(&si), &patterns, &inputs);
        assert_eq!(d, s);
        assert_eq!(d, subset_sums(&patterns, &inputs));
    }

    #[test]
    fn static_functional_handles_unknown_patterns() {
        // Tile contains a pattern the calibration never saw.
        let sta_cfg = TransArrayConfig { scoreboard_mode: ScoreboardMode::Static, ..cfg() };
        let si = StaticSi::from_patterns(ScoreboardConfig::with_width(4), [0b0001u16]);
        let patterns = [0b1010u16];
        let inputs: Vec<Vec<i32>> = (0..4).map(|j| vec![1i32 << j]).collect();
        let rows = executed_rows(&sta_cfg, Some(&si), &patterns, &inputs);
        assert_eq!(rows[0], vec![0b1010]);
    }

    #[test]
    fn cached_process_equals_uncached_in_both_modes() {
        let dyn_cfg = cfg();
        let sta_cfg = TransArrayConfig { scoreboard_mode: ScoreboardMode::Static, ..cfg() };
        let patterns = [0b1011u16, 0b1111, 0b0011, 0b0010, 0, 0b0011];
        let si = StaticSi::from_patterns(ScoreboardConfig::with_width(4), patterns.iter().copied());
        let cache = SharedPlanCache::new(8);
        for (c, si_opt) in [(&dyn_cfg, None), (&sta_cfg, Some(&si))] {
            let fresh = process_subtile(c, si_opt, &patterns, None);
            let miss = process_subtile(c, si_opt, &patterns, Some(&cache));
            let hit = process_subtile(c, si_opt, &patterns, Some(&cache));
            assert_eq!(fresh, miss, "miss path must equal uncached");
            assert_eq!(fresh, hit, "hit path must equal uncached");
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (2, 2));
    }

    #[test]
    fn cached_report_recomputes_positional_xbar_bound() {
        // Same multiset, different row order → same key, same plan, but
        // the bank-occupancy bound must follow the actual positions.
        let c = cfg();
        let cache = SharedPlanCache::new(4);
        let a = [1u16, 1, 0, 0, 0, 0, 0, 0];
        let b = [1u16, 0, 0, 0, 1, 0, 0, 0];
        let ra = process_subtile(&c, None, &a, Some(&cache));
        let rb = process_subtile(&c, None, &b, Some(&cache));
        assert_eq!(cache.stats().hits, 1, "permuted tile must hit");
        assert_eq!(ra.total_ops, rb.total_ops);
        assert_eq!(ra.xbar_cycles, 1, "rows 0,1 land in different banks");
        assert_eq!(rb.xbar_cycles, 2, "rows 0,4 collide in bank 0");
    }

    /// Asserts the scratch holds exactly `want_rows` for `patterns` (zero
    /// rows expect all-zero results and have no slab entry).
    fn assert_scratch_rows(scratch: &ExecScratch<i32>, patterns: &[u16], want_rows: &[Vec<i32>]) {
        assert_eq!(patterns.len(), want_rows.len());
        for (r, (&p, want)) in patterns.iter().zip(want_rows).enumerate() {
            if p == 0 {
                assert!(want.iter().all(|&v| v == 0), "row {r}");
            } else {
                assert_eq!(scratch.result(p), Some(want.as_slice()), "row {r}");
            }
        }
    }

    /// A fixed tile with a zero row and a duplicate, plus seeded random
    /// sub-tiles at several input widths: `(patterns, inputs)` with one
    /// input row per TransRow bit.
    fn fused_cases() -> Vec<(Vec<u16>, Vec<Vec<i32>>)> {
        let mut cases = vec![(
            vec![0b0111u16, 0b0101, 0b1111, 0, 0b0101],
            (0..4).map(|j| vec![j * 5 - 7, j]).collect(),
        )];
        let mut state = 515u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        for (m, rows) in [(1usize, 24usize), (3, 40), (7, 64)] {
            let patterns = (0..rows).map(|_| (next() & 0xF) as u16).collect();
            let inputs = (0..4).map(|_| (0..m).map(|_| (next() % 121) as i32 - 60).collect());
            cases.push((patterns, inputs.collect()));
        }
        cases
    }

    #[test]
    fn fused_process_and_evaluate_matches_split_calls() {
        let dyn_cfg = cfg();
        let sta_cfg = TransArrayConfig { scoreboard_mode: ScoreboardMode::Static, ..cfg() };
        // One dirty scratch shared across every tile, mode and cache
        // state — reuse must never leak a previous sub-tile's results.
        let mut scratch = ExecScratch::new();
        for (patterns, inputs) in fused_cases() {
            let m = inputs[0].len();
            let staged: Vec<i32> = inputs.iter().flatten().copied().collect();
            let view = TileView::new(&staged, 4, m, m);
            let want_rows = subset_sums(&patterns, &inputs);
            let si =
                StaticSi::from_patterns(ScoreboardConfig::with_width(4), patterns.iter().copied());
            for (c, si_opt) in [(&dyn_cfg, None), (&sta_cfg, Some(&si))] {
                let want_rep = process_subtile(c, si_opt, &patterns, None);
                let cache = SharedPlanCache::new(4);
                for (state, cache) in
                    [("off", None), ("cold", Some(&cache)), ("warm", Some(&cache))]
                {
                    let rep = execute_subtile(c, si_opt, &patterns, view, cache, &mut scratch);
                    assert_eq!(rep, want_rep, "{:?} cache {state} m={m}", c.scoreboard_mode);
                    assert_scratch_rows(&scratch, &patterns, &want_rows);
                }
                assert_eq!(
                    cache.stats().hits,
                    1,
                    "{:?}: the warm pass must hit",
                    c.scoreboard_mode
                );
            }
        }
    }

    #[test]
    fn xbar_sustained_limit_is_worst_bank() {
        let c = cfg();
        // 8 non-zero rows over 4 banks → 2 per bank → 2 cycles sustained.
        let patterns = [1u16, 1, 1, 1, 1, 1, 1, 1];
        let rep = process_subtile(&c, None, &patterns, None);
        assert_eq!(rep.xbar_cycles, 2);
        // Zero rows don't occupy banks.
        let rep0 = process_subtile(&c, None, &[0u16, 0, 0, 0, 7, 0, 0, 0], None);
        assert_eq!(rep0.xbar_cycles, 1);
    }

    #[test]
    fn xbar_banks_rows_by_index_modulo_width_at_every_width() {
        // Ragged lengths leave the last group short; bank `i % width`
        // takes row `i`.
        for width in 1..=16u32 {
            let c = TransArrayConfig { width, ..cfg() };
            for len in [0usize, 1, 5, 37, 100] {
                let patterns: Vec<u16> = (0..len)
                    .map(|i| u16::from(!(i * 7 + width as usize).is_multiple_of(3)))
                    .collect();
                let mut want = vec![0u64; width as usize];
                for (i, &p) in patterns.iter().enumerate() {
                    want[i % width as usize] += u64::from(p != 0);
                }
                let want = want.into_iter().max().unwrap_or(0);
                assert_eq!(xbar_conflict_cycles(&c, &patterns), want, "width {width}, len {len}");
            }
        }
    }
}
