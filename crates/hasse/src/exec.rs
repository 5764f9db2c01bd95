//! Execution plans — the per-lane op streams a TransArray unit consumes.
//!
//! The Scoreboard's balanced forest linearizes into one op stream per
//! lane (Hamming order guarantees every parent precedes its children, and
//! chains never straddle lanes), plus a tail of outlier ops dispatched at
//! the end (§5.2).

use crate::scoreboard::Scoreboard;
use ta_bitslice::kernels::Lane;
use ta_bitslice::TileView;

/// Receives each computed pattern result, in execution order — the fused
/// back end of [`ExecutionPlan::evaluate_into`] and
/// [`crate::StaticSi::evaluate_tile_functional_into`].
///
/// Results also stay resident in the [`ExecScratch`] slab after the walk,
/// so the GEMM engine, which accumulates per *row*, passes [`NullSink`]
/// and reads [`ExecScratch::result`] afterwards. The per-node results
/// never leave the unit (as in the paper's prefix buffer); the sink is a
/// hook for tests that read the emission order and for benchmarks that
/// time the walk alone. `T` is the slab's lane type.
pub trait ResultSink<T> {
    /// Called once per computed pattern, immediately after its slab slice
    /// is finalized.
    fn emit(&mut self, pattern: u16, result: &[T]);
}

/// A [`ResultSink`] that discards everything (results are read back from
/// the scratch slab instead).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl<T> ResultSink<T> for NullSink {
    fn emit(&mut self, _pattern: u16, _result: &[T]) {}
}

impl<T, F: FnMut(u16, &[T])> ResultSink<T> for F {
    fn emit(&mut self, pattern: u16, result: &[T]) {
        self(pattern, result)
    }
}

/// Per-worker evaluation arena: one contiguous `2^T × m` pattern-result
/// slab plus a generation-stamped computed-flag table, reused across
/// every sub-tile a worker touches — the steady state allocates nothing.
///
/// Each evaluation bumps the generation instead of clearing the slab, so
/// "reset" costs `O(m)` (re-zeroing the empty-pattern slot), not
/// `O(2^T × m)`.
///
/// `T` is the slab lane. The engine runs `i32`, which is exact for every
/// configuration `Session` accepts: a slot sums at most 16 inputs of at
/// most 16 bits, so `|v| ≤ 2^19`.
///
/// # Examples
///
/// ```
/// use ta_bitslice::TileView;
/// use ta_hasse::{ExecScratch, ExecutionPlan, NullSink, Scoreboard, ScoreboardConfig};
///
/// let sb = Scoreboard::build(ScoreboardConfig::with_width(4), [0b1011u16, 0b0011]);
/// let plan = ExecutionPlan::from_scoreboard(&sb);
/// let staged = [6i32, -2, -5, 4]; // m = 1: one input element per bit
/// let mut scratch = ExecScratch::new();
/// plan.evaluate_into(TileView::new(&staged, 4, 1, 1), &mut scratch, &mut NullSink);
/// assert_eq!(scratch.result(0b1011), Some(&[6 - 2 + 4][..]));
/// ```
#[derive(Debug, Default)]
pub struct ExecScratch<T> {
    width: u32,
    m: usize,
    /// `2^width × m` result slab; pattern `p` owns `[p·m, (p+1)·m)`.
    slab: Vec<T>,
    /// Generation stamp per pattern; `stamp[p] == generation` marks `p`
    /// computed in the current sub-tile.
    stamp: Vec<u32>,
    generation: u32,
    /// Reusable per-tile sort buffer (static-mode Hamming ordering).
    pub(crate) sort_buf: Vec<u16>,
}

impl<T: Lane> ExecScratch<T> {
    /// Creates an empty arena; buffers grow on first use and are then
    /// reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-arms the arena for one sub-tile of `width` input rows of length
    /// `m`: grows the slab/stamp tables if needed, bumps the generation
    /// (invalidating every previous result without touching the slab),
    /// and marks the empty pattern computed with a zero result.
    pub(crate) fn begin(&mut self, width: u32, m: usize) {
        assert!((1..=16).contains(&width), "width must be in 1..=16");
        let patterns = 1usize << width;
        if self.width != width || self.m != m {
            self.width = width;
            self.m = m;
            self.slab.resize(patterns * m, T::default());
            self.stamp.clear();
            self.stamp.resize(patterns, 0);
            self.generation = 0;
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // u32 wrap: scrub the stale stamps once per 2^32 sub-tiles.
            self.stamp.fill(0);
            self.generation = 1;
        }
        self.slab[..m].fill(T::default());
        self.stamp[0] = self.generation;
    }

    /// Whether `pattern` was computed in the current sub-tile.
    #[inline]
    pub fn computed(&self, pattern: u16) -> bool {
        self.stamp.get(pattern as usize).copied() == Some(self.generation) && self.generation != 0
    }

    /// The current sub-tile's result vector for `pattern` (`None` if the
    /// pattern was not computed — including before any evaluation ran).
    #[inline]
    pub fn result(&self, pattern: u16) -> Option<&[T]> {
        if self.computed(pattern) {
            let off = pattern as usize * self.m;
            Some(&self.slab[off..off + self.m])
        } else {
            None
        }
    }

    /// Marks `pattern` computed in the current generation.
    #[inline]
    pub(crate) fn mark(&mut self, pattern: u16) {
        self.stamp[pattern as usize] = self.generation;
    }

    /// Writes `node`'s slot as `prefix`'s slot plus every input row
    /// selected by `bits`, in one fused pass
    /// ([`ta_bitslice::kernels::derive_slot`]) — the PPE op. An outlier
    /// or from-scratch node derives from the zero slot, `prefix = 0`.
    #[inline]
    pub(crate) fn derive(&mut self, prefix: u16, node: u16, inputs: TileView<'_, T>, bits: u16) {
        ta_bitslice::kernels::derive_slot(
            &mut self.slab,
            self.m,
            prefix as usize,
            node as usize,
            inputs,
            bits,
        );
    }

    /// Emits `pattern`'s finalized slot to the sink.
    #[inline]
    pub(crate) fn emit(&self, pattern: u16, sink: &mut (impl ResultSink<T> + ?Sized)) {
        let off = pattern as usize * self.m;
        sink.emit(pattern, &self.slab[off..off + self.m]);
    }
}

impl ExecScratch<i32> {
    /// Adds one weight row's bit-plane results onto `dst` with the
    /// multiply-free Horner recombination
    /// ([`ta_bitslice::kernels::recombine_planes`]): `planes[s]` is the
    /// pattern of bit plane `s`, the last one the 2's-complement sign
    /// plane. A zero pattern reads the empty-pattern slot, which every
    /// evaluation re-zeroes and no op writes. The accumulator lane `A`
    /// must hold every partial dot product of the row.
    ///
    /// # Panics
    ///
    /// Panics if a plane's pattern was not computed in the current
    /// sub-tile or `dst.len()` differs from the slab's row length.
    pub fn recombine<A: Lane>(&self, dst: &mut [A], planes: &[u16]) {
        assert_eq!(dst.len(), self.m, "output row length must match the slab's");
        assert!(planes.iter().all(|&p| self.computed(p)), "pattern must be computed");
        ta_bitslice::kernels::recombine_planes(dst, &self.slab, planes);
    }
}

/// Why a node occupies a PPE slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// First occurrence of a present pattern with a valid prefix
    /// (Prefix-Result-Reuse in the paper's taxonomy).
    Present,
    /// Absent node materialized only to pass a partial result along
    /// (Transitive-Reuse).
    Transit,
}

/// One node computation: `result[node] = result[prefix] + Σ input[diff bits]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanOp {
    /// Pattern being computed.
    pub node: u16,
    /// Pattern whose buffered result is reused (0 = empty sum).
    pub prefix: u16,
    /// `node ^ prefix` — the TranSparsity bits the dispatcher resolves
    /// with one XOR (§4.3). Always exactly one bit for in-forest ops.
    pub diff: u16,
    /// Lane executing this op.
    pub lane: u8,
    /// Present or transit.
    pub kind: OpKind,
}

/// One outlier computation: the pattern is accumulated from scratch
/// (popcount adds), bypassing the forest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutlierOp {
    /// Pattern computed from scratch.
    pub node: u16,
    /// Lane it was appended to.
    pub lane: u8,
}

/// The complete, ordered execution plan of one Scoreboard.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    width: u32,
    lanes: Vec<Vec<PlanOp>>,
    outliers: Vec<OutlierOp>,
}

impl ExecutionPlan {
    /// Extracts the plan from a built Scoreboard.
    pub fn from_scoreboard(sb: &Scoreboard) -> Self {
        // One pass over the forward order compacts the forest nodes (active,
        // not outliers) and counts each lane's ops, so every lane is sized
        // exactly: no regrowth while filling and no slack held by cached
        // plans. Whether a node is in the forest is close to a coin flip,
        // so the pass selects without a data-dependent branch.
        let order = sb.graph().forward_order();
        let lane_count = sb.config().effective_lanes() as usize;
        let mut forest = vec![0u16; order.len()];
        let mut sizes = vec![0usize; lane_count + 1]; // the last counts nothing
        let mut n = 0;
        for &p in order {
            let (keep, lane) = (sb.in_forest(p), sb.node(p).lane as usize);
            forest[n] = p;
            n += usize::from(keep);
            sizes[if keep { lane } else { lane_count }] += 1;
        }
        let mut lanes: Vec<Vec<PlanOp>> =
            sizes[..lane_count].iter().map(|&c| Vec::with_capacity(c)).collect();
        for &p in &forest[..n] {
            let e = sb.node(p);
            let prefix = e.chosen_parent;
            debug_assert_ne!(prefix, u16::MAX);
            lanes[e.lane as usize].push(PlanOp {
                node: p,
                prefix,
                diff: p ^ prefix,
                lane: e.lane,
                kind: if e.transit { OpKind::Transit } else { OpKind::Present },
            });
        }
        let outliers =
            sb.outliers().iter().map(|&p| OutlierOp { node: p, lane: sb.node(p).lane }).collect();
        Self { width: sb.config().width, lanes, outliers }
    }

    /// TransRow width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Per-lane op streams, parent-before-child within each lane.
    pub fn lanes(&self) -> &[Vec<PlanOp>] {
        &self.lanes
    }

    /// Outlier ops dispatched after the forest.
    pub fn outliers(&self) -> &[OutlierOp] {
        &self.outliers
    }

    /// All in-forest ops across lanes (unspecified inter-lane order).
    pub fn iter_ops(&self) -> impl Iterator<Item = &PlanOp> {
        self.lanes.iter().flatten()
    }

    /// Total PPE node computations (forest ops + outliers).
    pub fn node_op_count(&self) -> usize {
        self.lanes.iter().map(Vec::len).sum::<usize>() + self.outliers.len()
    }

    /// Test oracle: functionally evaluates the plan. Given the `T` input
    /// row-vectors of the sub-tile (each of length `m`), returns the
    /// accumulated result vector for every computed pattern, as
    /// `(pattern, Vec<i64>)` pairs in execution order.
    ///
    /// This is the golden functional model of the PPE array: each op adds
    /// exactly the diff-bit inputs onto its prefix's buffered result.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != width` or the row vectors have unequal
    /// lengths.
    #[cfg(test)]
    pub(crate) fn evaluate(&self, inputs: &[Vec<i64>]) -> Vec<(u16, Vec<i64>)> {
        assert_eq!(inputs.len(), self.width as usize, "need one input row per TransRow bit");
        let m = inputs.first().map_or(0, Vec::len);
        assert!(inputs.iter().all(|v| v.len() == m), "ragged input rows");
        let mut results: Vec<Option<Vec<i64>>> = vec![None; 1usize << self.width];
        results[0] = Some(vec![0i64; m]);
        let mut order = Vec::new();
        // Lanes are independent; evaluate lane by lane (hardware runs them
        // concurrently — results are identical because chains never cross).
        for lane in &self.lanes {
            for op in lane {
                let base = results[op.prefix as usize]
                    .as_ref()
                    .expect("prefix must be computed before its suffix")
                    .clone();
                let mut acc = base;
                let mut bits = op.diff;
                while bits != 0 {
                    let j = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    for (a, &x) in acc.iter_mut().zip(&inputs[j]) {
                        *a += x;
                    }
                }
                results[op.node as usize] = Some(acc.clone());
                order.push((op.node, acc));
            }
        }
        for op in &self.outliers {
            let mut acc = vec![0i64; m];
            let mut bits = op.node;
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                for (a, &x) in acc.iter_mut().zip(&inputs[j]) {
                    *a += x;
                }
            }
            results[op.node as usize] = Some(acc.clone());
            order.push((op.node, acc));
        }
        order
    }

    /// Functionally evaluates the plan: walks it writing every add
    /// directly into `scratch`'s pattern-result slab, emitting each
    /// finalized pattern to `sink` in execution order (lane by lane, then
    /// the outliers). Results stay readable from [`ExecScratch::result`]
    /// until the scratch is reused.
    ///
    /// Allocation-free once the scratch is warm — this is the hot
    /// execute-GEMM path; the allocating `evaluate` is kept as the
    /// independently implemented test oracle.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.rows() != width`.
    pub fn evaluate_into<T: Lane>(
        &self,
        inputs: TileView<'_, T>,
        scratch: &mut ExecScratch<T>,
        sink: &mut (impl ResultSink<T> + ?Sized),
    ) {
        assert_eq!(inputs.rows(), self.width as usize, "need one input row per TransRow bit");
        scratch.begin(self.width, inputs.cols());
        // Lanes are independent; evaluate lane by lane (hardware runs
        // them concurrently — results are identical because chains never
        // cross).
        for lane in &self.lanes {
            for op in lane {
                // Same hard guarantee as the oracle's `expect`: a plan that
                // orders a suffix before its prefix must panic, not copy a
                // stale slot (the stamp compare is O(1)).
                assert!(scratch.computed(op.prefix), "prefix must be computed before its suffix");
                scratch.derive(op.prefix, op.node, inputs, op.diff);
                scratch.mark(op.node);
                scratch.emit(op.node, sink);
            }
        }
        for op in &self.outliers {
            scratch.derive(0, op.node, inputs, op.node);
            scratch.mark(op.node);
            scratch.emit(op.node, sink);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Workers share ExecutionPlan by reference across the tile-execution
    /// runtime's scoped threads — lock in the auto-derived thread
    /// safety so a future `Rc`/`RefCell` slip fails to compile.
    #[test]
    fn execution_plan_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ExecutionPlan>();
    }
    use crate::scoreboard::ScoreboardConfig;

    fn plan_for(patterns: &[u16], width: u32) -> ExecutionPlan {
        let sb = Scoreboard::build(ScoreboardConfig::with_width(width), patterns.iter().copied());
        ExecutionPlan::from_scoreboard(&sb)
    }

    #[test]
    fn fig1_motivating_example() {
        // Fig. 1: binary rows 1011, 1111, 0011, 0010 over input
        // [6, -5, -2, 4] (bit j ↔ input element j; the figure's leftmost
        // matrix column is its bit 3). Expected row results: 8, 3, 2, -2
        // with 4 total ops.
        let patterns = [0b1011u16, 0b1111, 0b0011, 0b0010];
        let plan = plan_for(&patterns, 4);
        assert_eq!(plan.node_op_count(), 4, "transitive GEMM needs 4 ops");
        // Inputs indexed by bit: bit0=6? Map: pattern bit j multiplies
        // input[j]. Row 1011 must produce 6 + (-2) + 4 = 8 with
        // bit0=6? 1011 has bits 0,1,3 → choose inputs so the paper's sums
        // hold: input = [6, -2, 4 at bit3?]. Use bit0=6, bit1=-2, bit2=-5,
        // bit3=4: row 1011 → 6-2+4=8 ✓; 1111 → 6-2-5+4=3 ✓; 0011 → 4 ✓…
        let inputs: Vec<Vec<i64>> = vec![vec![6], vec![-2], vec![-5], vec![4]];
        let results = plan.evaluate(&inputs);
        let get = |p: u16| results.iter().find(|(n, _)| *n == p).map(|(_, v)| v[0]).unwrap();
        assert_eq!(get(0b0010), -2);
        assert_eq!(get(0b0011), 6 + -2);
        assert_eq!(get(0b1011), 6 + -2 + 4);
        assert_eq!(get(0b1111), 6 + -2 + -5 + 4);
    }

    #[test]
    fn in_forest_diffs_are_single_bit() {
        let patterns: Vec<u16> =
            (0..150u32).map(|i| (i.wrapping_mul(0x9E3779B9) >> 20) as u16 & 0xFF).collect();
        let plan = plan_for(&patterns, 8);
        for op in plan.iter_ops() {
            assert_eq!(op.diff.count_ones(), 1, "{:?}", op);
        }
    }

    #[test]
    fn lanes_hold_forest_nodes_in_forward_order_without_slack() {
        for (width, max_distance) in [(4u32, 4u8), (6, 2), (8, 4), (8, 2)] {
            let patterns: Vec<u16> = (0..200u32)
                .map(|i| (i.wrapping_mul(2654435761) >> 13) as u16 & ((1 << width) - 1))
                .collect();
            let cfg = ScoreboardConfig { max_distance, ..ScoreboardConfig::with_width(width) };
            let sb = Scoreboard::build(cfg, patterns.iter().copied());
            let plan = ExecutionPlan::from_scoreboard(&sb);
            assert_eq!(plan.lanes().len(), cfg.effective_lanes() as usize);
            for (l, lane) in plan.lanes().iter().enumerate() {
                let want: Vec<u16> = sb
                    .active_nodes()
                    .filter(|&p| !sb.is_outlier(p) && usize::from(sb.node(p).lane) == l)
                    .collect();
                let got: Vec<u16> = lane.iter().map(|op| op.node).collect();
                assert_eq!(got, want, "width {width} max_distance {max_distance} lane {l}");
                assert_eq!(lane.capacity(), lane.len(), "lane {l} holds slack");
            }
        }
    }

    #[test]
    fn parents_precede_children_within_lane() {
        let patterns: Vec<u16> =
            (0..100u32).map(|i| (i.wrapping_mul(2654435761) >> 18) as u16 & 0x3F).collect();
        let plan = plan_for(&patterns, 6);
        for lane in plan.lanes() {
            let mut seen = [false; 64];
            seen[0] = true;
            for op in lane {
                assert!(seen[op.prefix as usize], "prefix {} not yet computed", op.prefix);
                seen[op.node as usize] = true;
            }
        }
    }

    #[test]
    fn evaluate_matches_direct_popcount_sum() {
        // Every computed pattern's result must equal the direct sum of its
        // set-bit inputs — regardless of the reuse path taken.
        let patterns: Vec<u16> =
            (0..80u32).map(|i| (i.wrapping_mul(40503) >> 10) as u16 & 0xFF).collect();
        let plan = plan_for(&patterns, 8);
        let inputs: Vec<Vec<i64>> =
            (0..8).map(|j| vec![(j as i64 + 1) * 7 - 20, -(j as i64)]).collect();
        for (pattern, result) in plan.evaluate(&inputs) {
            let mut expect = vec![0i64; 2];
            for (j, input) in inputs.iter().enumerate() {
                if pattern & (1 << j) != 0 {
                    expect[0] += input[0];
                    expect[1] += input[1];
                }
            }
            assert_eq!(result, expect, "pattern {pattern:#010b}");
        }
    }

    #[test]
    fn every_present_pattern_is_computed() {
        let patterns = [7u16, 7, 3, 9, 12, 0, 1];
        let plan = plan_for(&patterns, 4);
        let computed: Vec<u16> = plan.evaluate(&vec![vec![1]; 4]).iter().map(|(p, _)| *p).collect();
        for p in [7u16, 3, 9, 12, 1] {
            assert!(computed.contains(&p), "pattern {p} missing");
        }
        // Zero rows are never computed.
        assert!(!computed.contains(&0));
    }

    #[test]
    #[should_panic(expected = "need one input row")]
    fn evaluate_checks_input_arity() {
        let plan = plan_for(&[1u16], 4);
        let _ = plan.evaluate(&[vec![1i64]]);
    }

    /// Stages `inputs` (one row per bit) into a flat buffer and returns
    /// the `TileView` staging the old nested rows used to be.
    fn stage(inputs: &[Vec<i64>]) -> Vec<i64> {
        inputs.iter().flat_map(|r| r.iter().copied()).collect()
    }

    #[test]
    fn evaluate_into_matches_oracle_order_and_values() {
        let patterns: Vec<u16> =
            (0..120u32).map(|i| (i.wrapping_mul(40503) >> 9) as u16 & 0xFF).collect();
        let plan = plan_for(&patterns, 8);
        let inputs: Vec<Vec<i64>> =
            (0..8).map(|j| vec![(j as i64 + 1) * 11 - 31, -(j as i64) * 3, j as i64]).collect();
        let want = plan.evaluate(&inputs);

        let staged = stage(&inputs);
        let view = TileView::new(&staged, 8, 3, 3);
        let mut scratch = ExecScratch::new();
        let mut got: Vec<(u16, Vec<i64>)> = Vec::new();
        plan.evaluate_into(view, &mut scratch, &mut |p: u16, r: &[i64]| {
            got.push((p, r.to_vec()));
        });
        assert_eq!(got, want, "sink must see the oracle's exact emission order");
        // Slab read-back agrees too.
        for (p, v) in &want {
            assert_eq!(scratch.result(*p), Some(v.as_slice()));
        }
        assert!(scratch.result(0).is_some(), "empty pattern is pre-computed");
    }

    #[test]
    fn dirty_scratch_reuse_is_identical_to_fresh() {
        let tile_a: Vec<u16> = (0..90u32).map(|i| (i * 37 % 251) as u16 & 0x3F).collect();
        let tile_b: Vec<u16> = (0..70u32).map(|i| (i * 101 % 241) as u16 & 0x3F).collect();
        let plan_a = plan_for(&tile_a, 6);
        let plan_b = plan_for(&tile_b, 6);
        let inputs: Vec<Vec<i64>> = (0..6).map(|j| vec![j as i64 * 7 - 15, 2 - j as i64]).collect();
        let staged = stage(&inputs);
        let view = TileView::new(&staged, 6, 2, 2);

        let mut fresh = ExecScratch::new();
        plan_b.evaluate_into(view, &mut fresh, &mut NullSink);
        let want: Vec<(u16, Vec<i64>)> = plan_b
            .iter_ops()
            .map(|op| (op.node, fresh.result(op.node).unwrap().to_vec()))
            .collect();

        // Dirty the scratch with a different tile, then replay tile B.
        let mut dirty = ExecScratch::new();
        plan_a.evaluate_into(view, &mut dirty, &mut NullSink);
        plan_b.evaluate_into(view, &mut dirty, &mut NullSink);
        for (p, v) in &want {
            assert_eq!(dirty.result(*p), Some(v.as_slice()), "pattern {p:#b}");
        }
        // Patterns only tile A computed are invalidated by the generation
        // bump, not readable as stale data.
        for op in plan_a.iter_ops() {
            let in_b = plan_b.iter_ops().any(|o| o.node == op.node)
                || plan_b.outliers().iter().any(|o| o.node == op.node);
            if !in_b {
                assert_eq!(dirty.result(op.node), None, "stale pattern {:#b}", op.node);
            }
        }
    }

    #[test]
    fn scratch_resizes_across_width_and_m_changes() {
        let mut scratch = ExecScratch::new();
        for (width, m) in [(4u32, 3usize), (6, 1), (4, 5), (8, 2)] {
            let patterns: Vec<u16> =
                (0..40u32).map(|i| (i * 29) as u16 & ((1 << width) - 1)).collect();
            let plan = plan_for(&patterns, width);
            let inputs: Vec<Vec<i64>> = (0..width)
                .map(|j| (0..m).map(|c| (j as i64 + 1) * (c as i64 - 2)).collect())
                .collect();
            let staged = stage(&inputs);
            let view = TileView::new(&staged, width as usize, m, m);
            plan.evaluate_into(view, &mut scratch, &mut NullSink);
            for (p, v) in plan.evaluate(&inputs) {
                assert_eq!(scratch.result(p), Some(v.as_slice()), "width {width} m {m}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "need one input row")]
    fn evaluate_into_checks_input_arity() {
        let plan = plan_for(&[1u16], 4);
        let staged = [1i64];
        plan.evaluate_into(TileView::new(&staged, 1, 1, 1), &mut ExecScratch::new(), &mut NullSink);
    }
}
