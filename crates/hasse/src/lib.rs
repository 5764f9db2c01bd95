//! # ta-hasse — the Hasse-graph Scoreboard of the Transitive Array
//!
//! The algorithmic core of the paper (§2.3–§3.4): transitive sparsity is
//! the subset partial order on TransRow patterns, represented by a Hasse
//! graph. The **Scoreboard** builds, in two linear passes, a balanced
//! forest in which every present pattern reuses exactly one prefix's
//! result:
//!
//! * [`HasseGraph`] — the width-bound graph view (neighbors are single-bit
//!   flips; nothing is materialized);
//! * [`Scoreboard`] — record → forward pass (Alg. 1) → backward pass
//!   (Alg. 2) → balanced forest (Fig. 5);
//! * [`ExecutionPlan`] — per-lane op streams and their arena-backed,
//!   zero-allocation functional evaluator (`evaluate_into` over an
//!   [`ExecScratch`]; the allocating oracle it is tested against is
//!   test-only);
//! * [`TileStats`] — ZR/TR/FR/PR classification, density, distance
//!   histograms, per-lane PPE/APE cycles (the quantities of Fig. 9);
//! * [`StaticSi`] — tensor-level Scoreboard Information with SI-miss
//!   accounting (§3.3, Fig. 13);
//! * [`PlanCache`] / [`SharedPlanCache`] — a bounded LRU memo table over
//!   canonical pattern multisets ([`PlanKey`]) that reuses
//!   post-scoreboard plans **across** tiles (and, through the shared
//!   wrapper, across threads and layers) without changing any result.
//!
//! ## Quick example
//!
//! ```
//! use ta_hasse::{ExecutionPlan, Scoreboard, ScoreboardConfig, TileStats};
//!
//! // Fig. 1's motivating rows: 1011, 1111, 0011, 0010.
//! let sb = Scoreboard::build(
//!     ScoreboardConfig::with_width(4),
//!     [0b1011u16, 0b1111, 0b0011, 0b0010],
//! );
//! let stats = TileStats::from_scoreboard(&sb);
//! assert_eq!(stats.total_ops, 4); // the paper's "4 OPs!" vs 10 for bit sparsity
//! let plan = ExecutionPlan::from_scoreboard(&sb);
//! assert_eq!(plan.node_op_count(), 4);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod exec;
mod graph;
mod node;
mod plan_cache;
mod scoreboard;
mod si;
mod stats;

pub use exec::{ExecScratch, ExecutionPlan, NullSink, OpKind, OutlierOp, PlanOp, ResultSink};
pub use graph::HasseGraph;
pub use node::{NodeEntry, DIST_INF, HW_MAX_DISTANCE, MAX_DISTANCE, NO_LANE};
pub use plan_cache::{CachedPlan, PlanCache, PlanCacheStats, PlanKey, SharedPlanCache};
pub use scoreboard::{BalancePolicy, Scoreboard, ScoreboardConfig};
pub use si::{StaticSi, StaticTileReport};
pub use stats::TileStats;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use ta_bitslice::TileView;

    fn patterns_strategy(width: u32, max_len: usize) -> impl Strategy<Value = Vec<u16>> {
        let hi = (1u32 << width) as u16;
        proptest::collection::vec(0..hi, 0..max_len)
    }

    /// Deterministic nested input rows (`width × m`) plus their flat
    /// staging at the engine's `i32` lane — the two representations the
    /// equivalence tests compare.
    fn staged_inputs(width: u32, m: usize, seed: i64) -> (Vec<Vec<i64>>, Vec<i32>) {
        let nested: Vec<Vec<i64>> = (0..width)
            .map(|j| (0..m).map(|c| (j as i64 * 37 + c as i64 * 13 + seed) % 41 - 20).collect())
            .collect();
        let flat = nested.iter().flatten().map(|&v| v as i32).collect();
        (nested, flat)
    }

    /// An `i32` slab slot widened for comparison with the `i64` oracles.
    fn widen(slot: &[i32]) -> Vec<i64> {
        slot.iter().map(|&v| i64::from(v)).collect()
    }

    proptest! {
        /// Tentpole contract: the arena-backed `evaluate_into` emits the
        /// exact `(pattern, result)` sequence of the oracle `evaluate`,
        /// for random tiles, widths, and vector lengths — and a **dirty**
        /// scratch (already used by a different tile) changes nothing.
        #[test]
        fn evaluate_into_equals_oracle_evaluate(
            width in 2u32..=8,
            raw in patterns_strategy(8, 96),
            dirty_raw in patterns_strategy(8, 48),
            m in 1usize..4,
            seed in 0i64..100,
        ) {
            let mask = ((1u32 << width) - 1) as u16;
            let patterns: Vec<u16> = raw.iter().map(|p| p & mask).collect();
            let dirty_tile: Vec<u16> = dirty_raw.iter().map(|p| p & mask).collect();
            let cfg = ScoreboardConfig::with_width(width);
            let plan = ExecutionPlan::from_scoreboard(
                &Scoreboard::build(cfg, patterns.iter().copied()));
            let (nested, flat) = staged_inputs(width, m, seed);
            let want = plan.evaluate(&nested);

            let view = TileView::new(&flat, width as usize, m, m);
            // Dirty the scratch with an unrelated tile first.
            let mut scratch = ExecScratch::new();
            ExecutionPlan::from_scoreboard(
                &Scoreboard::build(cfg, dirty_tile.iter().copied()))
                .evaluate_into(view, &mut scratch, &mut NullSink);

            let mut got: Vec<(u16, Vec<i64>)> = Vec::new();
            plan.evaluate_into(view, &mut scratch, &mut |p: u16, r: &[i32]| {
                got.push((p, widen(r)));
            });
            prop_assert_eq!(&got, &want);
            for (p, v) in &want {
                prop_assert_eq!(scratch.result(*p).map(widen).as_ref(), Some(v));
            }
        }

        /// Static-mode counterpart: `evaluate_tile_functional_into` over a
        /// (dirty) scratch emits exactly what the allocating oracle does.
        #[test]
        fn static_evaluate_into_equals_oracle(
            calib in patterns_strategy(6, 80),
            tile in patterns_strategy(6, 40),
            dirty_tile in patterns_strategy(6, 24),
            m in 1usize..4,
            seed in 0i64..50,
        ) {
            let cfg = ScoreboardConfig::with_width(6);
            let si = StaticSi::from_patterns(cfg, calib);
            let (nested, flat) = staged_inputs(6, m, seed);
            let want = si.evaluate_tile_functional(&tile, &nested);

            let view = TileView::new(&flat, 6, m, m);
            let mut scratch = ExecScratch::new();
            si.evaluate_tile_functional_into(&dirty_tile, view, &mut scratch, &mut NullSink);
            let mut got: Vec<(u16, Vec<i64>)> = Vec::new();
            si.evaluate_tile_functional_into(&tile, view, &mut scratch,
                &mut |p: u16, r: &[i32]| got.push((p, widen(r))));
            prop_assert_eq!(&got, &want);
            for (p, v) in &want {
                prop_assert_eq!(scratch.result(*p).map(widen).as_ref(), Some(v));
            }
        }

        /// Every computed pattern's functional result equals the direct
        /// subset sum — the paper's losslessness claim at plan level.
        #[test]
        fn plan_results_equal_subset_sums(
            patterns in patterns_strategy(8, 64),
            seed in 0i64..100
        ) {
            let sb = Scoreboard::build(ScoreboardConfig::with_width(8), patterns.clone());
            let plan = ExecutionPlan::from_scoreboard(&sb);
            let inputs: Vec<Vec<i64>> =
                (0..8).map(|j| vec![(j as i64 * 37 + seed) % 19 - 9]).collect();
            for (pattern, result) in plan.evaluate(&inputs) {
                let mut expect = 0i64;
                for (j, input) in inputs.iter().enumerate() {
                    if pattern & (1 << j) != 0 {
                        expect += input[0];
                    }
                }
                prop_assert_eq!(result[0], expect);
            }
        }

        /// Every non-zero pattern of the input multiset gets computed.
        #[test]
        fn all_present_patterns_computed(patterns in patterns_strategy(6, 80)) {
            let sb = Scoreboard::build(ScoreboardConfig::with_width(6), patterns.clone());
            let plan = ExecutionPlan::from_scoreboard(&sb);
            let inputs: Vec<Vec<i64>> = (0..6).map(|j| vec![j as i64]).collect();
            let computed: Vec<u16> = plan.evaluate(&inputs).iter().map(|(p, _)| *p).collect();
            for &p in &patterns {
                if p != 0 {
                    prop_assert!(computed.contains(&p), "pattern {:#08b} missing", p);
                }
            }
        }

        /// Forest invariants: single-bit downward steps, no lane
        /// straddling, acyclicity, and one prefix per node.
        #[test]
        fn forest_invariants(patterns in patterns_strategy(8, 128)) {
            let sb = Scoreboard::build(ScoreboardConfig::with_width(8), patterns);
            for p in sb.active_nodes() {
                if sb.is_outlier(p) { continue; }
                let mut cur = p;
                let mut steps = 0u32;
                while cur != 0 {
                    let parent = sb.node(cur).chosen_parent;
                    prop_assert!(parent != u16::MAX);
                    prop_assert_eq!((cur ^ parent).count_ones(), 1);
                    prop_assert_eq!(parent & cur, parent);
                    if parent != 0 {
                        prop_assert_eq!(sb.node(parent).lane, sb.node(p).lane);
                    }
                    cur = parent;
                    steps += 1;
                    prop_assert!(steps <= 8, "cycle");
                }
            }
        }

        /// Op accounting identity: total = nonzero rows + transit + outlier
        /// extras; per-lane sums agree with the class counts.
        #[test]
        fn ops_accounting(patterns in patterns_strategy(8, 200)) {
            let sb = Scoreboard::build(ScoreboardConfig::with_width(8), patterns.clone());
            let s = TileStats::from_scoreboard(&sb);
            let nonzero = patterns.iter().filter(|&&p| p != 0).count() as u64;
            prop_assert_eq!(
                s.total_ops,
                nonzero + s.transit_ops as u64 + s.outlier_extra_ops
            );
            prop_assert_eq!((s.pr_rows + s.outlier_rows + s.fr_rows) as u64, nonzero);
            let ppe_sum: u64 = s.lane_ppe.iter().sum();
            prop_assert_eq!(ppe_sum, s.total_ops);
            let ape_sum: u64 = s.lane_ape.iter().sum();
            prop_assert_eq!(ape_sum, nonzero);
        }

        /// Static-mode functional evaluation produces exact subset sums
        /// for every tile pattern — even ones absent from calibration.
        #[test]
        fn static_functional_is_exact(
            calib in patterns_strategy(8, 80),
            tile in patterns_strategy(8, 40),
            seed in 0i64..50,
        ) {
            let cfg = ScoreboardConfig::with_width(8);
            let si = StaticSi::from_patterns(cfg, calib);
            let inputs: Vec<Vec<i64>> =
                (0..8).map(|j| vec![(j as i64 * 13 + seed) % 23 - 11]).collect();
            for (pattern, result) in si.evaluate_tile_functional(&tile, &inputs) {
                let mut expect = 0i64;
                for (j, input) in inputs.iter().enumerate() {
                    if pattern & (1 << j) != 0 {
                        expect += input[0];
                    }
                }
                prop_assert_eq!(result[0], expect, "pattern {:#010b}", pattern);
            }
        }

        /// Plan-cache key canonicalization: invariant under any row
        /// permutation of the tile, and the memoized dynamic plan of the
        /// permuted tile is bit-identical (stats and functional results).
        #[test]
        fn plan_key_is_permutation_invariant(
            patterns in patterns_strategy(6, 64),
            seed in 0u64..1024,
        ) {
            let cfg = ScoreboardConfig::with_width(6);
            // Seeded Fisher-Yates permutation of the rows.
            let mut permuted = patterns.clone();
            let mut s = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            for i in (1..permuted.len()).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = ((s >> 33) as usize) % (i + 1);
                permuted.swap(i, j);
            }
            prop_assert_eq!(
                PlanKey::new(&cfg, None, &patterns),
                PlanKey::new(&cfg, None, &permuted)
            );
            let a = CachedPlan::build_dynamic(&cfg, &patterns, true);
            let b = CachedPlan::build_dynamic(&cfg, &permuted, false);
            let (CachedPlan::Dynamic { stats: sa, .. },
                 CachedPlan::Dynamic { stats: sb, .. }) = (&a, &b) else {
                panic!("dynamic plans expected");
            };
            prop_assert_eq!(sa, sb);
            let inputs: Vec<Vec<i64>> =
                (0..6).map(|j| vec![(j as i64 * 31 + seed as i64) % 17 - 8]).collect();
            prop_assert_eq!(
                a.dynamic_plan(&cfg, &patterns).evaluate(&inputs),
                b.dynamic_plan(&cfg, &permuted).evaluate(&inputs)
            );
        }

        /// Plan-cache key sensitivity: changing any multiset count, the
        /// width, or the balance policy changes the key.
        #[test]
        fn plan_key_is_count_and_config_sensitive(
            patterns in patterns_strategy(6, 48),
            extra in 0u16..64,
        ) {
            let cfg = ScoreboardConfig::with_width(6);
            let base = PlanKey::new(&cfg, None, &patterns);
            // One more occurrence of any pattern (present or not) is a
            // different multiset.
            let mut grown = patterns.clone();
            grown.push(extra);
            prop_assert_ne!(base.clone(), PlanKey::new(&cfg, None, &grown));
            // A wider config never shares keys (patterns still fit).
            let wide = ScoreboardConfig::with_width(7);
            prop_assert_ne!(base.clone(), PlanKey::new(&wide, None, &patterns));
            // Nor does the unbalanced ablation policy.
            let unbalanced = ScoreboardConfig {
                balance: BalancePolicy::FirstCandidate,
                ..cfg
            };
            prop_assert_ne!(base, PlanKey::new(&unbalanced, None, &patterns));
        }

        /// The static SI replayed on its own calibration multiset costs
        /// exactly the dynamic ops.
        #[test]
        fn static_equals_dynamic_on_calibration_set(patterns in patterns_strategy(8, 100)) {
            let cfg = ScoreboardConfig::with_width(8);
            let sb = Scoreboard::build(cfg, patterns.clone());
            let dynamic = TileStats::from_scoreboard(&sb).total_ops;
            let si = StaticSi::from_scoreboard(&sb);
            let replay = si.evaluate_tile(&patterns).total_ops;
            prop_assert_eq!(replay, dynamic);
        }

        /// Static SI on a random *sub*-tile stays within sound bounds:
        /// at least 1 op per non-zero row (the 1/T density floor), and at
        /// most the from-scratch cost plus its miss materializations.
        ///
        /// Note there is **no** "static ≥ dynamic" invariant in general:
        /// on pathological tiles the static chain's memoized long paths
        /// can beat the dynamic scoreboard, whose distance cap forces
        /// outlier rows to recompute from scratch. On realistic tiles
        /// (dense pattern coverage) dynamic wins — that is Fig. 13, which
        /// the `fig13` harness reproduces.
        #[test]
        fn static_bounded_below_and_above(
            calib in patterns_strategy(8, 150),
            tile_len in 1usize..40
        ) {
            prop_assume!(!calib.is_empty());
            let cfg = ScoreboardConfig::with_width(8);
            let si = StaticSi::from_patterns(cfg, calib.iter().copied());
            let tile: Vec<u16> =
                calib.iter().cycle().take(tile_len).copied().collect();
            let rep = si.evaluate_tile(&tile);
            let nonzero = tile.iter().filter(|&&p| p != 0).count() as u64;
            let scratch: u64 = {
                // From-scratch with FR dedup: popcount per distinct + 1 per dup.
                let mut seen = std::collections::HashSet::new();
                let mut ops = 0u64;
                for &p in &tile {
                    if p == 0 { continue; }
                    if seen.insert(p) { ops += p.count_ones() as u64; }
                    else { ops += 1; }
                }
                ops
            };
            prop_assert!(rep.total_ops >= nonzero,
                "static {} < row floor {}", rep.total_ops, nonzero);
            prop_assert!(rep.total_ops <= scratch + rep.si_misses,
                "static {} > scratch {} + misses {}", rep.total_ops, scratch, rep.si_misses);
            // The dynamic scoreboard obeys the same floor.
            let dynamic = TileStats::from_scoreboard(
                &Scoreboard::build(cfg, tile.iter().copied())).total_ops;
            prop_assert!(dynamic >= nonzero);
        }
    }
}
