//! The Transitive Array accelerator — multi-unit, tiled, cycle-level
//! simulation (Fig. 7/8) plus the exact functional GEMM engine used to
//! prove losslessness.

use crate::config::{ScoreboardMode, TransArrayConfig};
use crate::error::TaError;
use crate::runtime::Runtime;
use crate::source::{PatternSource, SlicedSource};
use crate::tiling::{dram_traffic, GemmShape, TrafficReport};
use crate::unit::{execute_subtile, process_subtile, SubtileReport};
use std::ops::Range;
use std::sync::Arc;
use ta_bitslice::kernels::Lane;
use ta_bitslice::{BitSlicedMatrix, RowMajor, RowsMut};
use ta_hasse::{ExecScratch, PlanCacheStats, SharedPlanCache, StaticSi};
use ta_quant::MatI32;
use ta_sim::{dram_cycles, transarray_area, EnergyBreakdown, EnergyModel, VpuModel};

/// NoC (Benes + wires) dynamic energy per byte moved (pJ/B) — a 5-stage
/// switch fabric plus the operand wiring at 28 nm.
const NOC_PJ_PER_BYTE: f64 = 0.12;

/// Dynamic Scoreboard energy per TransRow scanned (pJ): bitonic compare
/// network + an 8-way update of the ~34-bit entries of Fig. 6.
///
/// Must stay a dyadic rational (exactly representable in f64): per-shard
/// partial sums of `rows × this` are then exact, which is what keeps
/// parallel reports bit-identical to serial ones (see the `runtime`
/// module's determinism contract).
const SCOREBOARD_PJ_PER_ROW: f64 = 3.0;

/// Result of simulating (or executing) one GEMM on the Transitive Array.
#[derive(Debug, Clone, PartialEq)]
pub struct GemmReport {
    /// The GEMM simulated.
    pub shape: GemmShape,
    /// End-to-end cycles: `max(compute, DRAM)`.
    pub cycles: u64,
    /// Compute-side cycles across the unit array.
    pub compute_cycles: u64,
    /// Memory-channel cycles for the layer's DRAM traffic.
    pub dram_cycles: u64,
    /// Accumulate ops performed (per `m_tile` pass, summed & scaled).
    pub total_ops: u64,
    /// Dense binary-GEMM ops the same tiles would need.
    pub dense_bit_ops: u64,
    /// Transitive density (`total_ops / dense_bit_ops`) — Fig. 9's metric.
    pub density: f64,
    /// DRAM traffic.
    pub traffic: TrafficReport,
    /// Energy breakdown (Fig. 11's slices).
    pub energy: EnergyBreakdown,
    /// Sub-tiles in the full layer.
    pub subtiles_total: u64,
    /// Sub-tiles simulated exactly (== total unless sampling kicked in).
    pub subtiles_simulated: u64,
    /// SI misses (static Scoreboard mode only).
    pub si_misses: u64,
    /// VPU cycles for the group-wise partial-result rescale (§4.5).
    /// Overlapped with GEMM compute by the double buffering — informational
    /// unless it exceeds `compute_cycles` (it never does at group 128).
    pub vpu_cycles: u64,
    /// Wall-clock seconds at the model frequency.
    pub seconds: f64,
}

impl GemmReport {
    /// Total energy in nanojoules (the unit Fig. 10's right axis uses).
    pub fn energy_nj(&self) -> f64 {
        self.energy.total() / 1000.0
    }

    /// Effective MACs per cycle (dense-equivalent throughput).
    pub fn macs_per_cycle(&self) -> f64 {
        self.shape.macs() as f64 / self.cycles.max(1) as f64
    }
}

/// The accelerator: configuration + energy model (+ the optional shared
/// plan cache the `plan_cache` knob enables). It is built and driven
/// only through [`crate::Session`]; the handle [`crate::Session::accelerator`]
/// returns exposes the configuration and the plan-cache counters.
///
/// Clones share the plan cache — intentional: a cloned accelerator
/// simulating the same weights reuses the memoized plans, which is the
/// cross-call reuse the cache exists for. Reports are unaffected either
/// way (cached and fresh plans are bit-identical).
#[derive(Debug, Clone)]
pub struct TransitiveArray {
    cfg: TransArrayConfig,
    energy: EnergyModel,
    plan_cache: Option<Arc<SharedPlanCache>>,
}

/// The sampled sub-tile sequence of one layer: position `pos` visits
/// sub-tile `pos · step` of the row-major `(n_tile, k_chunk)` grid.
#[derive(Debug, Clone, Copy)]
struct Grid {
    k_chunks: usize,
    step: usize,
    sampled: usize,
}

impl Grid {
    fn subtile(&self, pos: usize) -> (usize, usize) {
        let idx = pos * self.step;
        (idx / self.k_chunks, idx % self.k_chunks)
    }
}

/// The one sharded walker: splits the sampled positions `0..sampled` into
/// contiguous shards, forks `source` once per shard, and returns `f`'s
/// per-shard results in shard order (the `runtime` determinism
/// contract). Serial is the one-shard case, and so is a source that
/// cannot [`PatternSource::fork`]: both walk every position over the
/// caller's own source.
fn walk<T: Send>(
    source: &mut dyn PatternSource,
    rt: &Runtime,
    sampled: usize,
    f: impl Fn(&mut dyn PatternSource, Range<usize>) -> T + Sync,
) -> Vec<T> {
    let shards = rt.shards_for(sampled);
    if shards.len() > 1 {
        if let Some(forks) = shards.iter().map(|_| source.fork()).collect::<Option<Vec<_>>>() {
            let jobs = shards.into_iter().zip(forks).collect();
            return rt.run_shards_with(jobs, |_, positions, mut src| f(src.as_mut(), positions));
        }
    }
    vec![f(source, 0..sampled)]
}

/// The read-only operands every execute shard shares.
#[derive(Clone, Copy)]
struct ExecCtx<'a> {
    sliced: &'a BitSlicedMatrix,
    /// The input staged at `i32`, zero-padded to whole k-chunks.
    staged: &'a RowMajor<i32>,
    si: Option<&'a StaticSi>,
    shape: GemmShape,
}

/// Per-worker aggregate over a shard of the sub-tile grid.
///
/// The integer counters are plain sums, so merging shards is
/// order-independent. The one floating-point field (`sb_pj`) folds
/// per-sub-tile contributions that are exact dyadic multiples
/// (`rows × 3.0`), so the sharded regrouping equals the serial fold
/// bit-exactly; the runtime additionally merges shards in **fixed shard
/// order** so every run folds identically (see the `runtime` module's
/// determinism contract).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Agg {
    pub(crate) subtile_cycles: u64,
    pub(crate) total_ops: u64,
    pub(crate) dense_bit_ops: u64,
    pub(crate) ape_ops: u64,
    pub(crate) rows: u64,
    pub(crate) si_misses: u64,
    pub(crate) simulated: u64,
    /// Dynamic-Scoreboard scan energy (pJ), accumulated per sub-tile.
    pub(crate) sb_pj: f64,
}

impl Agg {
    fn add(&mut self, rep: &SubtileReport) {
        self.subtile_cycles += rep.cycles;
        self.total_ops += rep.total_ops;
        self.dense_bit_ops += rep.dense_bit_ops;
        let nonzero = rep
            .stats
            .as_ref()
            .map(|s| (s.rows - s.zero_rows) as u64)
            .unwrap_or(rep.total_ops.min(rep.rows as u64));
        self.ape_ops += nonzero;
        self.rows += rep.rows as u64;
        self.si_misses += rep.si_misses;
        self.simulated += 1;
        // Scoreboard scans only run in dynamic mode (stats present).
        if rep.stats.is_some() {
            self.sb_pj += rep.rows as f64 * SCOREBOARD_PJ_PER_ROW;
        }
    }

    /// Merges another shard's aggregate into this one. Callers merge in
    /// shard order (shard 0 first) so the `f64` fold is reproducible.
    pub(crate) fn merge(&mut self, other: &Agg) {
        self.subtile_cycles += other.subtile_cycles;
        self.total_ops += other.total_ops;
        self.dense_bit_ops += other.dense_bit_ops;
        self.ape_ops += other.ape_ops;
        self.rows += other.rows;
        self.si_misses += other.si_misses;
        self.simulated += other.simulated;
        self.sb_pj += other.sb_pj;
    }

    /// Folds per-shard aggregates in shard order.
    pub(crate) fn merge_shards(shards: &[Agg]) -> Agg {
        let mut out = Agg::default();
        for s in shards {
            out.merge(s);
        }
        out
    }
}

impl TransitiveArray {
    /// Creates the accelerator from an already validated configuration.
    pub(crate) fn new(cfg: TransArrayConfig) -> Self {
        let plan_cache =
            (cfg.plan_cache > 0).then(|| Arc::new(SharedPlanCache::new(cfg.plan_cache)));
        Self { cfg, energy: EnergyModel::paper_28nm(), plan_cache }
    }

    /// The configuration.
    pub fn config(&self) -> &TransArrayConfig {
        &self.cfg
    }

    /// Hit/miss/eviction counters of the plan cache (`None` when the
    /// `plan_cache` knob is 0). Counters accumulate across every layer,
    /// batch job, and worker thread of this accelerator (and its clones).
    pub fn plan_cache_stats(&self) -> Option<PlanCacheStats> {
        self.plan_cache.as_ref().map(|c| c.stats())
    }

    /// Simulates one GEMM at scale: every sampled weight sub-tile is
    /// simulated exactly (Scoreboard, lanes, conflicts); cycle/op/energy
    /// counts are scaled by the sampling fraction and the `M`-tiling
    /// repetition (sub-tile schedules are input-independent, so this is
    /// exact whenever sampling is off). The sampled sequence runs on the
    /// sharded [`walk`], so the report is bit-exact at any thread count.
    ///
    /// # Errors
    ///
    /// [`TaError::PatternOutOfRange`] when the source emits a pattern
    /// wider than the TransRow width.
    pub(crate) fn simulate(
        &self,
        shape: GemmShape,
        source: &mut dyn PatternSource,
        rt: &Runtime,
    ) -> Result<GemmReport, TaError> {
        let n_tiles = shape.n.div_ceil(self.cfg.n_tile());
        let k_chunks = shape.k.div_ceil(self.cfg.width as usize);
        let total = n_tiles * k_chunks;
        let limit = self.cfg.sample_limit;
        let step = if limit > 0 && total > limit { total.div_ceil(limit) } else { 1 };
        let grid = Grid { k_chunks, step, sampled: total.div_ceil(step) };
        let static_si = self.static_si(source, rt, grid)?;
        let (si, cache) = (static_si.as_ref(), self.plan_cache.as_deref());
        let aggs = walk(source, rt, grid.sampled, |src, positions| {
            let mut agg = Agg::default();
            let mut patterns = Vec::new();
            for pos in positions {
                let (nt, kc) = grid.subtile(pos);
                src.subtile_patterns_into(nt, kc, &mut patterns);
                self.check_patterns(&patterns)?;
                agg.add(&process_subtile(&self.cfg, si, &patterns, cache));
            }
            Ok(agg)
        });
        let aggs = aggs.into_iter().collect::<Result<Vec<_>, TaError>>()?;
        Ok(self.finalize(shape, Agg::merge_shards(&aggs), total as u64))
    }

    /// Rejects a sub-tile whose patterns set bits above the TransRow
    /// width: one OR over the sub-tile against the width mask, so the
    /// Scoreboard's width assert is unreachable from a caller's source.
    fn check_patterns(&self, patterns: &[u16]) -> Result<(), TaError> {
        let width = self.cfg.width;
        let outside = !(u16::MAX >> (16 - width));
        if patterns.iter().fold(0, |acc, &p| acc | p) & outside == 0 {
            return Ok(());
        }
        let pattern = *patterns.iter().find(|&&p| p & outside != 0).expect("a wide pattern");
        Err(TaError::PatternOutOfRange { pattern, width })
    }

    /// Validates execute operands against the configuration.
    pub(crate) fn check_gemm_operands(
        &self,
        weights: &MatI32,
        input: &MatI32,
    ) -> Result<(), TaError> {
        if weights.cols() != input.rows() {
            return Err(TaError::ShapeMismatch {
                weight_cols: weights.cols(),
                input_rows: input.rows(),
            });
        }
        if !weights.fits_signed_bits(self.cfg.weight_bits) {
            return Err(TaError::WeightRange { weight_bits: self.cfg.weight_bits });
        }
        if !input.fits_signed_bits(self.cfg.act_bits) {
            return Err(TaError::InputRange { act_bits: self.cfg.act_bits });
        }
        Ok(())
    }

    /// Executes one GEMM **functionally and exactly** (bit-exact against
    /// [`ta_quant::gemm_i32`]) while producing the same performance report
    /// as [`Self::simulate`] without sampling. Operands are assumed
    /// validated. With a multi-worker runtime the weight tiles shard
    /// across the pool; one shard runs inline on the caller's thread.
    ///
    /// The slab is `i32` for every configuration. The output accumulates
    /// in `i32` when [`Self::accumulates_in_i32`] proves every partial
    /// sum fits, and in `i64` otherwise; only the `i64` path can
    /// overflow, and its check is exact.
    ///
    /// # Errors
    ///
    /// [`TaError::AccumulatorOverflow`] when an output element does not
    /// fit `i32`.
    pub(crate) fn execute(
        &self,
        weights: &MatI32,
        input: &MatI32,
        rt: &Runtime,
    ) -> Result<(MatI32, GemmReport), TaError> {
        let shape = GemmShape::new(weights.rows(), weights.cols(), input.cols());
        let sliced = BitSlicedMatrix::slice_parallel(weights, self.cfg.weight_bits, rt.threads());
        let t = self.cfg.width as usize;
        let n_tile = self.cfg.n_tile();
        let n_tiles = shape.n.div_ceil(n_tile);
        let k_chunks = shape.k.div_ceil(t);

        let mut source = SlicedSource::new(&sliced, n_tile, self.cfg.width);
        let grid = Grid { k_chunks, step: 1, sampled: n_tiles * k_chunks };
        let static_si = self.static_si(&mut source, rt, grid)?;

        // Stage the whole input once as a single contiguous row-major
        // buffer (zero-padded past K): sub-tile evaluations borrow `T`
        // consecutive rows as a `TileView` instead of cloning per-chunk
        // row copies.
        let mut staged = RowMajor::<i32>::zeros(k_chunks * t, shape.m);
        for k in 0..shape.k {
            staged.row_mut(k).copy_from_slice(input.row(k));
        }
        let ctx = ExecCtx { sliced: &sliced, staged: &staged, si: static_si.as_ref(), shape };
        let (out, aggs) = if self.accumulates_in_i32(shape.k) {
            let (acc, aggs) = self.accumulate::<i32>(ctx, rt);
            (MatI32::from_vec(shape.n, shape.m, acc.into_vec()), aggs)
        } else {
            let (acc, aggs) = self.accumulate::<i64>(ctx, rt);
            // Exact overflow check on the i64 accumulator: a request
            // fails only when some output element really does not fit
            // `i32`.
            let acc = acc.as_slice();
            if let Some(i) = acc.iter().position(|&v| i32::try_from(v).is_err()) {
                let (row, col) = (i / shape.m, i % shape.m);
                return Err(TaError::AccumulatorOverflow { row, col, value: acc[i] });
            }
            (MatI32::from_vec(shape.n, shape.m, acc.iter().map(|&v| v as i32).collect()), aggs)
        };
        let report = self.finalize(shape, Agg::merge_shards(&aggs), (n_tiles * k_chunks) as u64);
        Ok((out, report))
    }

    /// Whether a `k`-deep product accumulates exactly in `i32`. Every
    /// Horner intermediate and partial output sum is a partial dot
    /// product, so its magnitude is at most `k·2^(S−1)·2^(a−1)` for
    /// `S`-bit weights and `a`-bit activations (computed in `u128`, so no
    /// `k` can overflow the bound itself).
    fn accumulates_in_i32(&self, k: usize) -> bool {
        let shift = self.cfg.weight_bits - 1 + self.cfg.act_bits - 1;
        (k as u128) << shift <= i32::MAX as u128
    }

    /// Shards the weight tiles across the runtime and accumulates every
    /// output row at lane `A`. Each worker owns a disjoint row range of
    /// the flat accumulator, so accumulation needs no synchronization,
    /// and the per-row sum over k-chunks runs in the serial order (exact
    /// integer arithmetic makes it order-independent regardless).
    fn accumulate<A: Lane>(&self, ctx: ExecCtx<'_>, rt: &Runtime) -> (RowMajor<A>, Vec<Agg>) {
        let (n, m) = (ctx.shape.n, ctx.shape.m);
        let n_tile = self.cfg.n_tile();
        let mut acc = RowMajor::<A>::zeros(n, m);
        let shards = rt.shards_for(n.div_ceil(n_tile));
        let mut shard_jobs = Vec::with_capacity(shards.len());
        {
            let mut rest: &mut [A] = acc.as_mut_slice();
            let mut offset = 0usize;
            for tiles in shards {
                let end = (tiles.end * n_tile).min(n);
                let (rows, tail) = rest.split_at_mut((end - offset) * m);
                shard_jobs.push((tiles, RowsMut::new(rows, m)));
                rest = tail;
                offset = end;
            }
        }
        let aggs = rt.run_shards_with(shard_jobs, |_, tiles, acc_rows| {
            self.execute_shard(ctx, tiles, acc_rows)
        });
        (acc, aggs)
    }

    /// One worker's share of the fused execute path: walks `tiles` in
    /// serial order, evaluates every sub-tile into its `i32` scratch
    /// slab, and accumulates the expanded rows into this shard's slice of
    /// the output at lane `A`.
    fn execute_shard<A: Lane>(
        &self,
        ctx: ExecCtx<'_>,
        tiles: Range<usize>,
        mut acc_rows: RowsMut<'_, A>,
    ) -> Agg {
        let t = self.cfg.width as usize;
        let s_bits = self.cfg.weight_bits as usize;
        let n_tile = self.cfg.n_tile();
        let k_chunks = ctx.shape.k.div_ceil(t);
        let cache = self.plan_cache.as_deref();
        let mut src = SlicedSource::new(ctx.sliced, n_tile, self.cfg.width);
        let row_offset = tiles.start * n_tile;
        let mut agg = Agg::default();
        // Per-worker arena + pattern buffer: reused across every
        // sub-tile this worker touches (zero steady-state allocation
        // on the evaluation path).
        let mut scratch = ExecScratch::new();
        let mut patterns: Vec<u16> = Vec::new();
        for nt in tiles {
            for kc in 0..k_chunks {
                src.subtile_patterns_into(nt, kc, &mut patterns);
                let inputs = ctx.staged.view_rows(kc * t, t);
                let rep =
                    execute_subtile(&self.cfg, ctx.si, &patterns, inputs, cache, &mut scratch);
                agg.add(&rep);
                // Fused recombination: each weight row's `s_bits` plane
                // results fold into its output row in one multiply-free
                // Horner pass. Padding rows past `n` are skipped.
                let rows = (ctx.shape.n - nt * n_tile).min(n_tile);
                for (n_local, planes) in patterns.chunks_exact(s_bits).take(rows).enumerate() {
                    let row = acc_rows.row_mut(nt * n_tile + n_local - row_offset);
                    scratch.recombine(row, planes);
                }
            }
        }
        agg
    }

    /// Builds the static SI (offline calibration over the sampled tensor
    /// patterns) when the config asks for static mode. The collection
    /// runs on the sharded [`walk`]; concatenating the per-shard pattern
    /// lists in shard order reproduces the serial sequence exactly.
    ///
    /// # Errors
    ///
    /// [`TaError::PatternOutOfRange`] when the source emits a pattern
    /// wider than the TransRow width.
    fn static_si(
        &self,
        source: &mut dyn PatternSource,
        rt: &Runtime,
        grid: Grid,
    ) -> Result<Option<StaticSi>, TaError> {
        if self.cfg.scoreboard_mode != ScoreboardMode::Static {
            return Ok(None);
        }
        let parts = walk(source, rt, grid.sampled, |src, positions| {
            let (mut all, mut patterns) = (Vec::new(), Vec::new());
            for pos in positions {
                let (nt, kc) = grid.subtile(pos);
                src.subtile_patterns_into(nt, kc, &mut patterns);
                self.check_patterns(&patterns)?;
                all.extend_from_slice(&patterns);
            }
            Ok(all)
        });
        let parts = parts.into_iter().collect::<Result<Vec<_>, TaError>>()?;
        Ok(Some(StaticSi::from_patterns(self.cfg.scoreboard_config(), parts.into_iter().flatten())))
    }

    fn finalize(&self, shape: GemmShape, agg: Agg, subtiles_total: u64) -> GemmReport {
        let scale =
            if agg.simulated == 0 { 0.0 } else { subtiles_total as f64 / agg.simulated as f64 };
        // §4.5: 4-bit activations split each PPE/APE into two halves, so
        // one pass covers `m_tile × act_split` input columns. Each op×m
        // unit then denotes twice the elements at half the per-element
        // adder/buffer cost, so the energy formulas below stay valid.
        let m_reps = shape.m.div_ceil(self.cfg.m_tile * self.cfg.act_split()) as f64;
        let units = self.cfg.units as f64;
        let compute_cycles = (agg.subtile_cycles as f64 * scale * m_reps / units).ceil() as u64;
        let traffic = dram_traffic(
            shape,
            self.cfg.weight_bits,
            self.cfg.act_bits,
            (self.cfg.total_buffer_kb() * 1024.0) as u64,
        );
        let dram_cycles = dram_cycles(traffic.total());
        let cycles = compute_cycles.max(dram_cycles).max(1);

        let ops = agg.total_ops as f64 * scale * m_reps;
        let ape_ops = agg.ape_ops as f64 * scale * m_reps;
        let dense = agg.dense_bit_ops as f64 * scale * m_reps;
        // Scoreboard runs once per weight sub-tile (not per M pass).
        let sb_pj = agg.sb_pj * scale;
        // Group-wise rescale (§4.5, group 128): the VPU applies an integer
        // scale to every output once per 128-wide reduction group.
        let vpu = VpuModel::paper_default();
        let rescale_groups = shape.k.div_ceil(128);
        let vpu_cycles =
            vpu.requant_cycles(shape.n * shape.m, self.cfg.act_bits) * rescale_groups as u64;
        let mut energy = self.energy_breakdown(ops, ape_ops, sb_pj, &traffic, cycles);
        energy.core += vpu.energy_pj(
            (shape.n * shape.m * rescale_groups) as u64,
            2.0,
            self.cfg.act_bits,
            self.energy.mac_pj(16),
        );

        GemmReport {
            shape,
            cycles,
            compute_cycles,
            dram_cycles,
            total_ops: ops.round() as u64,
            dense_bit_ops: dense.round() as u64,
            density: if dense > 0.0 { ops / dense } else { 0.0 },
            traffic,
            energy,
            subtiles_total,
            subtiles_simulated: agg.simulated,
            si_misses: (agg.si_misses as f64 * scale).round() as u64,
            vpu_cycles,
            seconds: self.energy.seconds(cycles),
        }
    }

    /// Per-event energy accounting (see DESIGN.md §2 and the constants at
    /// the top of this module). `ops`/`ape_ops` are already scaled to the
    /// whole layer; each drives an `m_tile`-wide vector. `sb_pj` is the
    /// (already scaled) dynamic-Scoreboard scan energy accumulated per
    /// sub-tile — zero in static mode.
    fn energy_breakdown(
        &self,
        ops: f64,
        ape_ops: f64,
        sb_pj: f64,
        traffic: &TrafficReport,
        cycles: u64,
    ) -> EnergyBreakdown {
        let e = &self.energy;
        let m_t = self.cfg.m_tile as f64;
        let t = self.cfg.width as f64;
        let mut b = EnergyBreakdown::default();

        // Core: PPE adds (12-bit), APE accumulations (24-bit), dynamic
        // Scoreboard, NoC traversals.
        let ppe = ops * m_t * e.add_pj(12);
        let ape = ape_ops * m_t * e.add_pj(24);
        let sb = sb_pj;
        let noc = ops * m_t * NOC_PJ_PER_BYTE;
        b.core = ppe + ape + sb + noc;

        // Buffers: bytes moved × capacity-dependent pJ/B.
        let w_pj = e.sram_pj_per_byte(self.cfg.weight_buf_kb);
        let i_pj = e.sram_pj_per_byte(self.cfg.input_buf_kb);
        let o_pj = e.sram_pj_per_byte(self.cfg.output_buf_kb);
        let p_pj = e.sram_pj_per_byte(self.cfg.prefix_buf_kb);
        let d_pj = e.sram_pj_per_byte(self.cfg.double_buf_kb / 2.0);
        // Weight patterns stream once per sub-tile M-pass: rows×T/8 bytes.
        b.weight_buf = ops * (t / 8.0) * w_pj;
        // Each op fetches one m_tile-wide input row (8-bit activations).
        b.input_buf = ops * m_t * i_pj;
        // Prefix buffer: read prefix + write result per PPE op, and one
        // read per FR/APE accumulation — 12-bit entries (1.5 B).
        b.prefix_buf = (2.0 * ops + ape_ops) * m_t * 1.5 * p_pj;
        // Output psums: one banked 24-bit accumulate-write per APE op
        // (the read side rides the APE accumulator register).
        b.output_buf = ape_ops * m_t * 3.0 * o_pj;
        // Double-buffer staging between crossbar and prefix buffer.
        b.double_buf = ape_ops * m_t * 1.5 * d_pj;

        b.dram_dynamic = e.dram_pj(traffic.total());
        b.dram_static = e.static_pj(e.dram_static_mw, cycles);

        let area = transarray_area(
            self.cfg.units as u64,
            self.cfg.width as u64,
            self.cfg.m_tile as u64,
            self.cfg.total_buffer_kb(),
        );
        let static_mw = e.core_static_mw_per_mm2 * area.core_mm2()
            + e.sram_static_mw_per_kb * self.cfg.total_buffer_kb();
        b.core_static = e.static_pj(static_mw, cycles);
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ta_quant::gemm_i32;

    impl TransitiveArray {
        /// Executes on the `threads` knob's runtime, panicking on error.
        fn run_exec(&self, weights: &MatI32, input: &MatI32) -> (MatI32, GemmReport) {
            self.execute(weights, input, &Runtime::new(self.cfg.threads)).unwrap()
        }

        /// Simulates on the `threads` knob's runtime over a borrowed source.
        fn run_sim(&self, shape: GemmShape, source: &mut dyn PatternSource) -> GemmReport {
            self.simulate(shape, source, &Runtime::new(self.cfg.threads)).unwrap()
        }
    }

    fn small_cfg(weight_bits: u32, mode: ScoreboardMode) -> TransArrayConfig {
        TransArrayConfig {
            width: 4,
            max_transrows: 16,
            weight_bits,
            act_bits: 8,
            units: 2,
            m_tile: 4,
            scoreboard_mode: mode,
            sample_limit: 0,
            ..TransArrayConfig::paper_w8()
        }
    }

    /// The accumulator choice on both sides of `K·2^(S−1)·2^(a−1) ≤
    /// i32::MAX`.
    #[test]
    fn accumulator_is_i32_exactly_up_to_the_bound() {
        let at = |weight_bits, act_bits| {
            TransitiveArray::new(TransArrayConfig {
                weight_bits,
                act_bits,
                max_transrows: 16 * weight_bits as usize,
                ..TransArrayConfig::paper_w8()
            })
        };
        // w16/a8: 511·2^22 = 2,143,289,344 fits; 512·2^22 = 2^31 does not.
        let w16a8 = at(16, 8);
        assert!(w16a8.accumulates_in_i32(511));
        assert!(!w16a8.accumulates_in_i32(512));
        // w8/a8 at exec_prefill's K = 1024: 2^24. The largest K that fits
        // is 2^31 / 2^14 − 1.
        let w8a8 = at(8, 8);
        assert!(w8a8.accumulates_in_i32(1024));
        assert!(w8a8.accumulates_in_i32((1 << 17) - 1));
        assert!(!w8a8.accumulates_in_i32(1 << 17));
        // w16/a16: 2^30 per product, so only K = 1 fits.
        let w16a16 = at(16, 16);
        assert!(w16a16.accumulates_in_i32(1));
        assert!(!w16a16.accumulates_in_i32(2));
        // The bound itself never overflows, whatever K is.
        assert!(!w16a16.accumulates_in_i32(usize::MAX));
        // w2/a2: each product is at most (−2)·(−2) = 4.
        assert!(at(2, 2).accumulates_in_i32(i32::MAX as usize / 4));
        assert!(!at(2, 2).accumulates_in_i32(i32::MAX as usize / 4 + 1));
    }

    fn det_mat(rows: usize, cols: usize, bits: u32, seed: i64) -> MatI32 {
        let hi = (1i64 << (bits - 1)) - 1;
        let lo = -(1i64 << (bits - 1));
        MatI32::from_fn(rows, cols, |r, c| {
            let x = (r as i64 * 2654435761 + c as i64 * 40503 + seed * 9973) % (hi - lo + 1);
            (if x < 0 { x + (hi - lo + 1) } else { x } + lo) as i32
        })
    }

    #[test]
    fn execute_matches_reference_dynamic() {
        let ta = TransitiveArray::new(small_cfg(4, ScoreboardMode::Dynamic));
        let w = det_mat(10, 13, 4, 1);
        let x = det_mat(13, 7, 8, 2);
        let (out, rep) = ta.run_exec(&w, &x);
        assert_eq!(out, gemm_i32(&w, &x), "TransArray must be bit-exact");
        assert!(rep.total_ops > 0);
        assert!(rep.density > 0.0 && rep.density <= 1.0);
        assert_eq!(rep.subtiles_simulated, rep.subtiles_total);
    }

    #[test]
    fn execute_matches_reference_static() {
        let ta = TransitiveArray::new(small_cfg(4, ScoreboardMode::Static));
        let w = det_mat(9, 11, 4, 3);
        let x = det_mat(11, 5, 8, 4);
        let (out, _) = ta.run_exec(&w, &x);
        assert_eq!(out, gemm_i32(&w, &x), "static mode must be bit-exact too");
    }

    #[test]
    fn execute_matches_reference_8bit_weights() {
        let cfg = TransArrayConfig {
            width: 8,
            max_transrows: 32,
            weight_bits: 8,
            units: 2,
            m_tile: 4,
            sample_limit: 0,
            ..TransArrayConfig::paper_w8()
        };
        let ta = TransitiveArray::new(cfg);
        let w = det_mat(8, 20, 8, 5);
        let x = det_mat(20, 6, 8, 6);
        let (out, _) = ta.run_exec(&w, &x);
        assert_eq!(out, gemm_i32(&w, &x));
    }

    #[test]
    fn negative_heavy_weights_are_exact() {
        // All-negative weights exercise the MSB (−2^(S−1)) plane hard.
        let ta = TransitiveArray::new(small_cfg(4, ScoreboardMode::Dynamic));
        let w = MatI32::from_fn(6, 9, |r, c| -(((r * 9 + c) % 8) as i32) - 1);
        let x = det_mat(9, 3, 8, 7);
        let (out, _) = ta.run_exec(&w, &x);
        assert_eq!(out, gemm_i32(&w, &x));
    }

    #[test]
    fn simulate_layer_report_sane() {
        let ta = TransitiveArray::new(TransArrayConfig {
            sample_limit: 64,
            ..TransArrayConfig::paper_w8()
        });
        let w = det_mat(64, 64, 8, 8);
        let sliced = BitSlicedMatrix::slice(&w, 8);
        let mut src = SlicedSource::new(&sliced, ta.config().n_tile(), 8);
        let shape = GemmShape::new(64, 64, 128);
        let rep = ta.run_sim(shape, &mut src);
        assert!(rep.cycles >= rep.compute_cycles.min(rep.dram_cycles));
        assert!(rep.density > 0.05 && rep.density < 1.0, "density {}", rep.density);
        assert!(rep.energy.total() > 0.0);
        assert!(rep.seconds > 0.0);
        assert_eq!(rep.subtiles_total, 2 * 8);
        assert!(rep.energy.buffer_total() > 0.0);
    }

    #[test]
    fn sampling_approximates_full_simulation() {
        let w = det_mat(256, 128, 8, 9);
        let sliced = BitSlicedMatrix::slice(&w, 8);
        let shape = GemmShape::new(256, 128, 64);

        let full_cfg = TransArrayConfig { sample_limit: 0, ..TransArrayConfig::paper_w8() };
        let full_ta = TransitiveArray::new(full_cfg);
        let mut src = SlicedSource::new(&sliced, full_ta.config().n_tile(), 8);
        let full = full_ta.run_sim(shape, &mut src);

        let sampled_cfg = TransArrayConfig { sample_limit: 32, ..TransArrayConfig::paper_w8() };
        let sampled_ta = TransitiveArray::new(sampled_cfg);
        let mut src2 = SlicedSource::new(&sliced, sampled_ta.config().n_tile(), 8);
        let sampled = sampled_ta.run_sim(shape, &mut src2);

        assert!(sampled.subtiles_simulated < full.subtiles_simulated);
        let ratio = sampled.cycles as f64 / full.cycles as f64;
        assert!((0.8..1.25).contains(&ratio), "sampled/full cycle ratio {ratio}");
    }

    #[test]
    fn w4_beats_w8_on_same_layer() {
        // 4-bit weights double the rows per sub-tile and halve weight
        // traffic → fewer cycles (the iso-accuracy win of §5.5).
        let w8 = det_mat(128, 128, 8, 10);
        let w4 = det_mat(128, 128, 4, 10);
        let shape = GemmShape::new(128, 128, 256);

        let ta8 = TransitiveArray::new(TransArrayConfig {
            sample_limit: 0,
            ..TransArrayConfig::paper_w8()
        });
        let s8 = BitSlicedMatrix::slice(&w8, 8);
        let mut src8 = SlicedSource::new(&s8, ta8.config().n_tile(), 8);
        let r8 = ta8.run_sim(shape, &mut src8);

        let ta4 = TransitiveArray::new(TransArrayConfig {
            sample_limit: 0,
            ..TransArrayConfig::paper_w4()
        });
        let s4 = BitSlicedMatrix::slice(&w4, 4);
        let mut src4 = SlicedSource::new(&s4, ta4.config().n_tile(), 8);
        let r4 = ta4.run_sim(shape, &mut src4);

        assert!(
            r4.cycles * 3 < r8.cycles * 2,
            "W4 ({}) should be ≥1.5x faster than W8 ({})",
            r4.cycles,
            r8.cycles
        );
    }

    #[test]
    fn four_bit_activations_double_throughput() {
        // §4.5: splitting the PPE into two 6-bit halves doubles the input
        // columns per cycle — same layer, A4 ≈ half the cycles of A8.
        let w = det_mat(128, 128, 8, 12);
        let sliced = BitSlicedMatrix::slice(&w, 8);
        let shape = GemmShape::new(128, 128, 512);
        let run = |act_bits: u32| {
            let cfg =
                TransArrayConfig { act_bits, sample_limit: 0, ..TransArrayConfig::paper_w8() };
            let ta = TransitiveArray::new(cfg);
            let mut src = SlicedSource::new(&sliced, ta.config().n_tile(), 8);
            ta.run_sim(shape, &mut src)
        };
        let a8 = run(8);
        let a4 = run(4);
        let ratio = a8.compute_cycles as f64 / a4.compute_cycles as f64;
        assert!((1.9..2.1).contains(&ratio), "A8/A4 compute ratio {ratio}");
        // 4-bit activations also halve input DRAM traffic.
        assert!(a4.traffic.input_bytes < a8.traffic.input_bytes);
    }

    #[test]
    fn four_bit_activations_stay_exact() {
        let cfg = TransArrayConfig { act_bits: 4, ..small_cfg(4, ScoreboardMode::Dynamic) };
        let ta = TransitiveArray::new(cfg);
        let w = det_mat(10, 12, 4, 13);
        let x = det_mat(12, 9, 4, 14);
        let (out, _) = ta.run_exec(&w, &x);
        assert_eq!(out, gemm_i32(&w, &x));
    }

    #[test]
    fn vpu_rescale_overlaps_behind_compute() {
        // §4.5: "we can efficiently overlap the overhead" — at group 128
        // the rescale stream is far below the GEMM's compute cycles.
        let ta = TransitiveArray::new(TransArrayConfig {
            sample_limit: 64,
            ..TransArrayConfig::paper_w8()
        });
        let w = det_mat(256, 256, 8, 15);
        let sliced = BitSlicedMatrix::slice(&w, 8);
        let mut src = SlicedSource::new(&sliced, ta.config().n_tile(), 8);
        let rep = ta.run_sim(GemmShape::new(256, 256, 256), &mut src);
        assert!(rep.vpu_cycles > 0);
        assert!(
            rep.vpu_cycles < rep.compute_cycles,
            "vpu {} must hide behind compute {}",
            rep.vpu_cycles,
            rep.compute_cycles
        );
    }

    #[test]
    fn plan_cache_leaves_reports_bit_identical() {
        for mode in [ScoreboardMode::Dynamic, ScoreboardMode::Static] {
            let w = det_mat(128, 96, 8, 21);
            let sliced = BitSlicedMatrix::slice(&w, 8);
            let shape = GemmShape::new(128, 96, 64);
            let base_cfg = TransArrayConfig { sample_limit: 0, ..TransArrayConfig::paper_w8() };
            let base_cfg = TransArrayConfig { scoreboard_mode: mode, ..base_cfg };

            let uncached = TransitiveArray::new(base_cfg.clone());
            let mut src = SlicedSource::new(&sliced, uncached.config().n_tile(), 8);
            let want = uncached.run_sim(shape, &mut src);
            assert!(uncached.plan_cache_stats().is_none());

            let cached =
                TransitiveArray::new(base_cfg.to_builder().plan_cache(256).build().unwrap());
            let mut src = SlicedSource::new(&sliced, cached.config().n_tile(), 8);
            let first = cached.run_sim(shape, &mut src);
            let mut src = SlicedSource::new(&sliced, cached.config().n_tile(), 8);
            let second = cached.run_sim(shape, &mut src);
            assert_eq!(first, want, "{mode:?}: cold cached run must equal uncached");
            assert_eq!(second, want, "{mode:?}: warm cached run must equal uncached");
            let stats = cached.plan_cache_stats().expect("cache enabled");
            assert!(stats.hits > 0, "{mode:?}: replaying the layer must hit: {stats:?}");
            assert!(stats.hit_rate() > 0.0);
        }
    }

    #[test]
    fn plan_cache_execute_gemm_stays_exact() {
        for mode in [ScoreboardMode::Dynamic, ScoreboardMode::Static] {
            let cfg = small_cfg(4, mode).to_builder().plan_cache(64).build().unwrap();
            let ta = TransitiveArray::new(cfg);
            let w = det_mat(10, 13, 4, 31);
            let x = det_mat(13, 7, 8, 32);
            let (out, rep) = ta.run_exec(&w, &x);
            assert_eq!(out, gemm_i32(&w, &x), "{mode:?}: cached GEMM must stay lossless");
            let uncached = TransitiveArray::new(small_cfg(4, mode));
            let (out2, rep2) = uncached.run_exec(&w, &x);
            assert_eq!(out, out2);
            assert_eq!(rep, rep2, "{mode:?}: cached report must equal uncached");
            // Repeat the same GEMM on the same accelerator.
            let before = ta.plan_cache_stats().unwrap();
            let _ = ta.run_exec(&w, &x);
            let after = ta.plan_cache_stats().unwrap();
            match mode {
                ScoreboardMode::Dynamic => {
                    assert!(after.hits > before.hits, "repeat run must hit");
                    assert_eq!(after.misses, before.misses, "repeat run must not miss");
                }
                ScoreboardMode::Static => {
                    // Static mode misses on repeats by design: each run
                    // builds a fresh SI table and the cache is scoped to
                    // the SI instance whose chains produced each entry.
                    assert!(after.misses > before.misses, "fresh SI must re-plan");
                }
            }
        }
    }

    #[test]
    fn plan_cache_eviction_under_tiny_capacity_stays_exact() {
        // Capacity 1 forces constant eviction; results must not change.
        let cfg = small_cfg(4, ScoreboardMode::Dynamic).to_builder().plan_cache(1).build().unwrap();
        let ta = TransitiveArray::new(cfg);
        let w = det_mat(12, 17, 4, 33);
        let x = det_mat(17, 5, 8, 34);
        let (out, _) = ta.run_exec(&w, &x);
        assert_eq!(out, gemm_i32(&w, &x));
        let stats = ta.plan_cache_stats().unwrap();
        assert!(stats.evictions > 0, "capacity 1 must evict: {stats:?}");
    }

    #[test]
    fn zero_weights_are_nearly_free() {
        let ta = TransitiveArray::new(small_cfg(4, ScoreboardMode::Dynamic));
        let w = MatI32::zeros(8, 8);
        let x = det_mat(8, 4, 8, 11);
        let (out, rep) = ta.run_exec(&w, &x);
        assert!(out.as_slice().iter().all(|&v| v == 0));
        assert_eq!(rep.total_ops, 0);
        assert_eq!(rep.density, 0.0);
    }
}
