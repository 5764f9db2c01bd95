//! The request–response front door: [`Session`], [`GemmRequest`],
//! [`GemmResponse`].
//!
//! A `Session` is the only way to run work: it wraps one accelerator
//! behind a single validated surface:
//!
//! * construction goes through [`TransArrayConfig::try_validate`] (or
//!   the [`crate::ConfigBuilder`]) and returns `Result`, never panics;
//! * work arrives as [`GemmRequest`] values — either an *execute*
//!   request carrying real matrices (functionally exact, bit-identical
//!   to [`ta_quant::gemm_i32`]) or a *simulate* request carrying a shape
//!   plus a [`PatternSource`] (performance-only, LLM-scale);
//! * results come back as [`GemmResponse`] values: the output matrix
//!   (execute requests) and the performance report.
//!
//! The serving frontend (`ta-serve`), the examples, and the bench suite all
//! speak this API. Under it there is one engine path per request kind:
//! every `run_*` flavor differs only in the runtime it hands the engine
//! (the `threads` knob, or one serial worker).
//!
//! # Examples
//!
//! ```
//! use ta_core::{GemmRequest, Session, TransArrayConfig};
//! use ta_quant::{gemm_i32, MatI32};
//!
//! let cfg = TransArrayConfig::builder()
//!     .width(4)
//!     .max_transrows(16)
//!     .weight_bits(4)
//!     .m_tile(4)
//!     .sample_limit(0)
//!     .build()
//!     .unwrap();
//! let session = Session::new(cfg).unwrap();
//! let w = MatI32::from_rows(&[&[3, -5, 7, 1], &[-8, 2, 0, 6]]);
//! let x = MatI32::from_rows(&[&[1, 2], &[3, 4], &[5, 6], &[7, 8]]);
//! let resp = session.run(GemmRequest::execute(w.clone(), x.clone())).unwrap();
//! assert_eq!(resp.output.unwrap(), gemm_i32(&w, &x));
//! ```

use crate::accelerator::{GemmReport, TransitiveArray};
use crate::config::TransArrayConfig;
use crate::error::TaError;
use crate::runtime::Runtime;
use crate::source::PatternSource;
use crate::tiling::GemmShape;
use ta_quant::MatI32;

/// One unit of work for a [`Session`]: an exact GEMM execution or a
/// performance-only layer simulation.
pub struct GemmRequest {
    kind: RequestKind,
}

enum RequestKind {
    Execute { weights: MatI32, input: MatI32 },
    Simulate { shape: GemmShape, source: Box<dyn PatternSource + Send> },
}

impl std::fmt::Debug for GemmRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            RequestKind::Execute { .. } => {
                f.debug_struct("GemmRequest::Execute").field("shape", &self.shape()).finish()
            }
            RequestKind::Simulate { .. } => {
                f.debug_struct("GemmRequest::Simulate").field("shape", &self.shape()).finish()
            }
        }
    }
}

impl GemmRequest {
    /// An exact functional GEMM: `weights × input`, bit-identical to
    /// [`ta_quant::gemm_i32`]. The response carries the output matrix.
    pub fn execute(weights: MatI32, input: MatI32) -> Self {
        Self { kind: RequestKind::Execute { weights, input } }
    }

    /// A performance-only layer simulation from a pattern source (the
    /// LLM-scale path — no output matrix, just the report).
    pub fn simulate(shape: GemmShape, source: impl PatternSource + Send + 'static) -> Self {
        Self { kind: RequestKind::Simulate { shape, source: Box::new(source) } }
    }

    /// The GEMM shape this request covers.
    pub fn shape(&self) -> GemmShape {
        match &self.kind {
            // A struct literal, not `GemmShape::new`: an empty operand
            // must reach `Session::validate` as an error, not a panic.
            RequestKind::Execute { weights, input } => {
                GemmShape { n: weights.rows(), k: weights.cols(), m: input.cols() }
            }
            RequestKind::Simulate { shape, .. } => *shape,
        }
    }

    /// Whether this is an execute (vs. simulate) request.
    pub fn is_execute(&self) -> bool {
        matches!(self.kind, RequestKind::Execute { .. })
    }

    /// Zero-pads an execute request's input along the column (token)
    /// dimension up to `m` columns, so a shape-bucketing batcher can run
    /// every request in a bucket at one uniform shape. The extra output
    /// columns are exactly zero (the batcher slices them back off), so
    /// padding never changes a single output bit. A no-op for simulate
    /// requests and when the input already has at least `m` columns.
    #[must_use]
    pub fn padded_to(self, m: usize) -> Self {
        match self.kind {
            RequestKind::Execute { weights, input } if input.cols() < m => {
                let padded = MatI32::from_fn(input.rows(), m, |r, c| {
                    if c < input.cols() {
                        input.get(r, c)
                    } else {
                        0
                    }
                });
                Self { kind: RequestKind::Execute { weights, input: padded } }
            }
            other => Self { kind: other },
        }
    }
}

/// The result of one [`GemmRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct GemmResponse {
    /// The exact output matrix — `Some` for execute requests, `None`
    /// for simulate requests.
    pub output: Option<MatI32>,
    /// The performance report (always present, bit-identical across
    /// every `run_*` flavor and thread count).
    pub report: GemmReport,
}

/// A validated handle on one accelerator: the request–response API.
///
/// Clones share the accelerator's plan cache; a `Session` is
/// `Send + Sync`, so a serving frontend shares one behind an `Arc`
/// across workers.
#[derive(Debug, Clone)]
pub struct Session {
    ta: TransitiveArray,
}

impl Session {
    /// Validates the configuration and opens a session on it.
    ///
    /// # Errors
    ///
    /// [`TaError::Config`] when the configuration is inconsistent.
    pub fn new(cfg: TransArrayConfig) -> Result<Self, TaError> {
        cfg.try_validate()?;
        Ok(Self { ta: TransitiveArray::new(cfg) })
    }

    /// The configuration this session runs.
    pub fn config(&self) -> &TransArrayConfig {
        self.ta.config()
    }

    /// The underlying accelerator (configuration and plan-cache
    /// statistics; it runs no work of its own).
    pub fn accelerator(&self) -> &TransitiveArray {
        &self.ta
    }

    /// Runs one request on the session's runtime (the `threads` knob).
    ///
    /// # Errors
    ///
    /// Everything [`Self::validate`] rejects, plus
    /// [`TaError::AccumulatorOverflow`] when an execute request's exact
    /// result does not fit `i32`, and [`TaError::PatternOutOfRange`] when
    /// a simulate source emits a pattern wider than the TransRow width
    /// (sources are lazy, so only the run can see their patterns).
    pub fn run(&self, request: GemmRequest) -> Result<GemmResponse, TaError> {
        self.validate(&request)?;
        self.run_validated(request, &Runtime::new(self.config().threads))
    }

    /// [`Self::run`] pinned to one worker: the whole request executes
    /// serially on the calling thread. Reports are bit-identical to
    /// [`Self::run`] (the runtime's determinism contract); a serving
    /// scheduler uses this to run many requests concurrently without
    /// oversubscribing the host.
    ///
    /// # Errors
    ///
    /// Same as [`Self::run`].
    pub fn run_serial(&self, request: GemmRequest) -> Result<GemmResponse, TaError> {
        self.validate(&request)?;
        self.run_validated(request, &Runtime::serial())
    }

    /// Runs many requests concurrently on the session's worker pool and
    /// returns responses in submission order. Every request is validated
    /// *before* any executes (all-or-nothing); each request then runs
    /// serially within one worker (no nested parallelism, so a batch
    /// never oversubscribes the pool), so every response is
    /// bit-identical to a lone [`Self::run_serial`] call. Requests that
    /// share the session share its plan cache.
    ///
    /// # Errors
    ///
    /// The first invalid request's error, in which case no work runs;
    /// otherwise the first request's run error in submission order.
    pub fn run_batch(&self, requests: Vec<GemmRequest>) -> Result<Vec<GemmResponse>, TaError> {
        for request in &requests {
            self.validate(request)?;
        }
        let rt = Runtime::new(self.config().threads);
        rt.run_jobs(requests, |_, request| self.run_validated(request, &Runtime::serial()))
            .into_iter()
            .collect()
    }

    /// Validates a request against the configuration without running it.
    /// A request this accepts runs without panicking.
    ///
    /// # Errors
    ///
    /// [`TaError::EmptyOperand`] when any GEMM dimension is zero,
    /// [`TaError::ShapeMismatch`] / [`TaError::WeightRange`] /
    /// [`TaError::InputRange`] for invalid execute operands,
    /// [`TaError::SourceWidthMismatch`] for a simulate source at the
    /// wrong TransRow width.
    pub fn validate(&self, request: &GemmRequest) -> Result<(), TaError> {
        let GemmShape { n, k, m } = request.shape();
        if n == 0 || k == 0 || m == 0 {
            return Err(TaError::EmptyOperand { n, k, m });
        }
        match &request.kind {
            RequestKind::Execute { weights, input } => self.ta.check_gemm_operands(weights, input),
            RequestKind::Simulate { source, .. } => {
                let (sw, aw) = (source.width(), self.config().width);
                if sw != aw {
                    return Err(TaError::SourceWidthMismatch { source: sw, accelerator: aw });
                }
                Ok(())
            }
        }
    }

    /// The post-validation dispatch shared by every `run_*` flavor.
    fn run_validated(&self, request: GemmRequest, rt: &Runtime) -> Result<GemmResponse, TaError> {
        Ok(match request.kind {
            RequestKind::Execute { weights, input } => {
                let (output, report) = self.ta.execute(&weights, &input, rt)?;
                GemmResponse { output: Some(output), report }
            }
            RequestKind::Simulate { shape, mut source } => {
                let report = self.ta.simulate(shape, source.as_mut(), rt)?;
                GemmResponse { output: None, report }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScoreboardMode;
    use crate::error::ConfigError;
    use crate::source::SlicedSource;
    use ta_bitslice::BitSlicedMatrix;
    use ta_quant::gemm_i32;

    fn small_cfg() -> TransArrayConfig {
        TransArrayConfig::builder()
            .width(4)
            .max_transrows(16)
            .weight_bits(4)
            .units(2)
            .m_tile(4)
            .sample_limit(0)
            .build()
            .unwrap()
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
    fn session_rejects_invalid_config() {
        let cfg = TransArrayConfig { units: 0, ..TransArrayConfig::paper_w8() };
        let err = Session::new(cfg).unwrap_err();
        assert_eq!(err, TaError::Config(ConfigError::ZeroUnits));
    }

    #[test]
    fn session_rejects_out_of_range_max_distance() {
        for mode in [ScoreboardMode::Dynamic, ScoreboardMode::Static] {
            for max_distance in [0, 18, 200] {
                let cfg = TransArrayConfig { max_distance, scoreboard_mode: mode, ..small_cfg() };
                assert_eq!(
                    Session::new(cfg).unwrap_err(),
                    TaError::Config(ConfigError::MaxDistanceOutOfRange { max_distance }),
                    "{mode:?}"
                );
            }
        }
    }

    #[test]
    fn every_accepted_max_distance_runs_a_simulate_request() {
        let w = det_mat(16, 16, 4, 3);
        let sliced = BitSlicedMatrix::slice(&w, 4);
        for mode in [ScoreboardMode::Dynamic, ScoreboardMode::Static] {
            for max_distance in 1..=ta_hasse::MAX_DISTANCE as u8 {
                let cfg = TransArrayConfig { max_distance, scoreboard_mode: mode, ..small_cfg() };
                let n_tile = cfg.n_tile();
                let session = Session::new(cfg).unwrap();
                let source = OwnedSource { sliced: sliced.clone(), n_tile, width: 4 };
                session.run(GemmRequest::simulate(GemmShape::new(16, 16, 8), source)).unwrap();
            }
        }
    }

    #[test]
    fn execute_request_is_exact_and_unsampled() {
        let session = Session::new(small_cfg()).unwrap();
        let w = det_mat(10, 13, 4, 1);
        let x = det_mat(13, 7, 8, 2);
        let resp = session.run(GemmRequest::execute(w.clone(), x.clone())).unwrap();
        assert_eq!(resp.output.unwrap(), gemm_i32(&w, &x));
        assert_eq!(resp.report.subtiles_simulated, resp.report.subtiles_total);
    }

    #[test]
    fn empty_operands_are_errors_not_panics() {
        let session = Session::new(small_cfg()).unwrap();
        let cases = [
            (MatI32::zeros(4, 8), MatI32::zeros(8, 0), (4, 8, 0)),
            (MatI32::zeros(0, 8), MatI32::zeros(8, 2), (0, 8, 2)),
            (MatI32::zeros(4, 0), MatI32::zeros(0, 2), (4, 0, 2)),
        ];
        for (w, x, (n, k, m)) in cases {
            let req = GemmRequest::execute(w, x);
            assert_eq!(req.shape(), GemmShape { n, k, m });
            let err = session.run(req).unwrap_err();
            assert_eq!(err, TaError::EmptyOperand { n, k, m });
            assert_eq!(err.kind(), "empty_operand");
        }
    }

    #[test]
    fn i32_overflow_is_an_error_not_a_panic() {
        // 140,000 × (−128 · −128) = 2,293,760,000 > i32::MAX. A one-row
        // sub-tile (max_transrows = weight_bits) keeps the run cheap.
        let cfg = TransArrayConfig::builder().max_transrows(8).build().unwrap();
        let session = Session::new(cfg).unwrap();
        let k = 140_000;
        let w = MatI32::from_fn(1, k, |_, _| -128);
        let x = MatI32::from_fn(k, 1, |_, _| -128);
        let err = session.run(GemmRequest::execute(w, x)).unwrap_err();
        assert_eq!(err, TaError::AccumulatorOverflow { row: 0, col: 0, value: 2_293_760_000 });
        assert_eq!(err.kind(), "accumulator_overflow");
        // The exact check admits the largest result that still fits.
        let k = 131_071; // 131,071 × 16,384 = 2,147,467,264 ≤ i32::MAX
        let w = MatI32::from_fn(1, k, |_, _| -128);
        let x = MatI32::from_fn(k, 1, |_, _| -128);
        let out = session.run(GemmRequest::execute(w, x)).unwrap().output.unwrap();
        assert_eq!(out.get(0, 0), 2_147_467_264);
    }

    #[test]
    fn shape_mismatch_is_an_error_not_a_panic() {
        let session = Session::new(small_cfg()).unwrap();
        let w = det_mat(4, 5, 4, 3);
        let x = det_mat(6, 2, 8, 4);
        let err = session.run(GemmRequest::execute(w, x)).unwrap_err();
        assert_eq!(err, TaError::ShapeMismatch { weight_cols: 5, input_rows: 6 });
    }

    #[test]
    fn out_of_range_operands_are_errors() {
        let session = Session::new(small_cfg()).unwrap();
        // 4-bit weights cannot hold 100.
        let w = MatI32::from_fn(4, 4, |_, _| 100);
        let x = det_mat(4, 2, 8, 5);
        assert_eq!(
            session.run(GemmRequest::execute(w, x)).unwrap_err(),
            TaError::WeightRange { weight_bits: 4 }
        );
        let w = det_mat(4, 4, 4, 6);
        let x = MatI32::from_fn(4, 2, |_, _| 1 << 20);
        assert_eq!(
            session.run(GemmRequest::execute(w, x)).unwrap_err(),
            TaError::InputRange { act_bits: 8 }
        );
    }

    #[test]
    fn simulate_request_matches_engine_over_borrowed_source() {
        let session = Session::new(small_cfg()).unwrap();
        let w = det_mat(16, 16, 4, 7);
        let sliced = BitSlicedMatrix::slice(&w, 4);
        let n_tile = session.config().n_tile();
        let shape = GemmShape::new(16, 16, 8);
        let resp = session
            .run(GemmRequest::simulate(
                shape,
                OwnedSource { sliced: sliced.clone(), n_tile, width: 4 },
            ))
            .unwrap();
        assert!(resp.output.is_none());
        let mut src = SlicedSource::new(&sliced, n_tile, 4);
        let want = session.accelerator().simulate(shape, &mut src, &Runtime::serial()).unwrap();
        assert_eq!(resp.report, want);
    }

    /// A tiny owning source so simulate requests can be `'static`.
    struct OwnedSource {
        sliced: BitSlicedMatrix,
        n_tile: usize,
        width: u32,
    }

    impl PatternSource for OwnedSource {
        fn width(&self) -> u32 {
            self.width
        }
        fn subtile_patterns(&mut self, nt: usize, kc: usize) -> Vec<u16> {
            SlicedSource::new(&self.sliced, self.n_tile, self.width).subtile_patterns(nt, kc)
        }
        fn rows_per_subtile(&self) -> usize {
            SlicedSource::new(&self.sliced, self.n_tile, self.width).rows_per_subtile()
        }
    }

    #[test]
    fn simulate_request_rejects_width_mismatch() {
        let session = Session::new(small_cfg()).unwrap();
        let w = det_mat(8, 8, 4, 8);
        let sliced = BitSlicedMatrix::slice(&w, 4);
        let err = session
            .run(GemmRequest::simulate(
                GemmShape::new(8, 8, 4),
                OwnedSource { sliced, n_tile: 4, width: 8 },
            ))
            .unwrap_err();
        assert_eq!(err, TaError::SourceWidthMismatch { source: 8, accelerator: 4 });
    }

    /// A forkable width-8 source whose every sub-tile carries one
    /// pattern with bits above the width.
    #[derive(Clone)]
    struct WideSource {
        rows: usize,
    }

    impl PatternSource for WideSource {
        fn width(&self) -> u32 {
            8
        }
        fn subtile_patterns(&mut self, _: usize, _: usize) -> Vec<u16> {
            let mut patterns = vec![0b1011; self.rows];
            patterns[self.rows / 2] = 0xFFFF;
            patterns
        }
        fn rows_per_subtile(&self) -> usize {
            self.rows
        }
        fn fork(&self) -> Option<Box<dyn PatternSource + Send + '_>> {
            Some(Box::new(self.clone()))
        }
    }

    #[test]
    fn wide_pattern_is_a_typed_error_not_a_panic() {
        for mode in [ScoreboardMode::Dynamic, ScoreboardMode::Static] {
            for threads in [1, 2] {
                let cfg = TransArrayConfig {
                    scoreboard_mode: mode,
                    threads,
                    ..TransArrayConfig::paper_w8()
                };
                let rows = cfg.n_tile() * cfg.weight_bits as usize;
                let session = Session::new(cfg).unwrap();
                let request =
                    GemmRequest::simulate(GemmShape::new(64, 64, 64), WideSource { rows });
                assert_eq!(
                    session.validate(&request),
                    Ok(()),
                    "patterns are lazy: validate passes"
                );
                assert_eq!(
                    session.run(request).unwrap_err(),
                    TaError::PatternOutOfRange { pattern: 0xFFFF, width: 8 },
                    "{mode:?} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn serial_and_parallel_runs_are_bit_identical() {
        let parallel = Session::new(TransArrayConfig { threads: 4, ..small_cfg() }).unwrap();
        let w = det_mat(24, 21, 4, 9);
        let x = det_mat(21, 11, 8, 10);
        let a = parallel.run(GemmRequest::execute(w.clone(), x.clone())).unwrap();
        let b = parallel.run_serial(GemmRequest::execute(w, x)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn run_batch_matches_individual_runs_in_order() {
        let session = Session::new(TransArrayConfig { threads: 4, ..small_cfg() }).unwrap();
        let reqs: Vec<(MatI32, MatI32)> = (0..6)
            .map(|i| (det_mat(8 + i, 12, 4, 20 + i as i64), det_mat(12, 3 + i, 8, 30 + i as i64)))
            .collect();
        let batch: Vec<GemmRequest> =
            reqs.iter().map(|(w, x)| GemmRequest::execute(w.clone(), x.clone())).collect();
        let got = session.run_batch(batch).unwrap();
        assert_eq!(got.len(), reqs.len());
        for (resp, (w, x)) in got.iter().zip(&reqs) {
            let want = session.run_serial(GemmRequest::execute(w.clone(), x.clone())).unwrap();
            assert_eq!(resp, &want);
        }
    }

    #[test]
    fn run_batch_is_all_or_nothing() {
        let session = Session::new(small_cfg()).unwrap();
        let good = GemmRequest::execute(det_mat(4, 4, 4, 1), det_mat(4, 2, 8, 2));
        let bad = GemmRequest::execute(det_mat(4, 5, 4, 3), det_mat(6, 2, 8, 4));
        let err = session.run_batch(vec![good, bad]).unwrap_err();
        assert!(matches!(err, TaError::ShapeMismatch { .. }));
    }

    #[test]
    fn warm_plan_cache_replay_is_bit_identical() {
        let cfg = small_cfg().to_builder().plan_cache(64).build().unwrap();
        let session = Session::new(cfg).unwrap();
        let w = det_mat(12, 17, 4, 13);
        let x = det_mat(17, 5, 8, 14);
        let cold = session.run_serial(GemmRequest::execute(w.clone(), x.clone())).unwrap();
        let warm = session.run_serial(GemmRequest::execute(w, x)).unwrap();
        assert_eq!(cold, warm, "warm replay must be bit-identical");
        assert!(session.accelerator().plan_cache_stats().unwrap().hits > 0);
    }

    #[test]
    fn padding_never_changes_output_bits() {
        let session = Session::new(small_cfg()).unwrap();
        let w = det_mat(9, 12, 4, 15);
        let x = det_mat(12, 5, 8, 16);
        let padded = GemmRequest::execute(w.clone(), x.clone()).padded_to(8);
        assert_eq!(padded.shape(), GemmShape::new(9, 12, 8));
        let resp = session.run_serial(padded).unwrap();
        let out = resp.output.unwrap();
        let want = gemm_i32(&w, &x);
        for r in 0..9 {
            for c in 0..8 {
                let expect = if c < 5 { want.get(r, c) } else { 0 };
                assert_eq!(out.get(r, c), expect, "row {r} col {c}");
            }
        }
        // No-op cases: already wide enough, or a simulate request.
        let req = GemmRequest::execute(w, x).padded_to(3);
        assert_eq!(req.shape().m, 5, "padded_to never shrinks");
    }
}
