//! The LLaMA-7B `q_proj` workload family — the bench suite's centerpiece
//! GEMM, defined once here and consumed by `ta-bench`'s `perf` suite and
//! the registry oracle.

use crate::Scale;
use ta_core::{GemmShape, TransArrayConfig};
use ta_models::{llm_activation_matrix_int, llm_weight_matrix_int, QuantGaussianSource};
use ta_quant::MatI32;

/// Seed of the layer's quant-Gaussian pattern stream (shared by the
/// serial, parallel, cached, and warm-replay runs — determinism across
/// those four is a gated contract).
pub const PATTERN_SEED: u64 = 1234;

/// Seed of the functional-execution weight matrix.
pub const EXEC_WEIGHT_SEED: u64 = 2024;

/// Seed of the functional-execution activation matrix.
pub const EXEC_ACT_SEED: u64 = 2025;

/// Seed of the allocation-audit weight matrix.
pub const AUDIT_SEED: u64 = 99;

/// Default plan-cache capacity for the cached LLaMA-7B workload — must
/// exceed the layer's sampled sub-tile count at every scale, or LRU
/// thrashing would zero the warm-replay hit rate.
pub const DEFAULT_PLAN_CACHE_ENTRIES: usize = 4096;

/// The full-scale LLaMA-7B `q_proj` GEMM (hidden 4096, prefill 2048).
pub fn qproj_shape() -> GemmShape {
    GemmShape::new(4096, 4096, 2048)
}

/// The layer's accelerator config: paper W8 design point, sub-tile
/// sampling from `scale`, worker count from `threads`.
pub fn layer_config(scale: Scale, threads: usize) -> TransArrayConfig {
    TransArrayConfig { sample_limit: scale.sample_limit, threads, ..TransArrayConfig::paper_w8() }
}

/// The layer's weight-pattern stream (one fresh stream per simulation —
/// the source is stateful).
pub fn pattern_source(n_tile: usize) -> QuantGaussianSource {
    pattern_source_seeded(n_tile, PATTERN_SEED)
}

/// The layer's pattern stream at an explicit seed — the perf suite
/// replays the layer without re-stating the stream's precisions.
pub fn pattern_source_seeded(n_tile: usize, seed: u64) -> QuantGaussianSource {
    QuantGaussianSource::new(8, 8, n_tile, seed)
}

/// Integer operands of the functional-execution workload
/// (`l7b_qproj_exec`): an LLM-like weight × activation pair at the
/// scale's [`Scale::exec_shape`].
pub fn exec_operands(scale: Scale) -> (MatI32, MatI32) {
    let (n, k, m) = scale.exec_shape();
    (
        llm_weight_matrix_int(n, k, 8, EXEC_WEIGHT_SEED),
        llm_activation_matrix_int(k, m, 8, EXEC_ACT_SEED),
    )
}

/// Weight matrix of the steady-state allocation audit: two tiles' worth
/// of rows, eight width-chunks of columns, on `cfg`'s geometry.
pub fn audit_weights(cfg: &TransArrayConfig) -> MatI32 {
    llm_weight_matrix_int(2 * cfg.n_tile(), 8 * cfg.width as usize, 8, AUDIT_SEED)
}

/// Operands of the dense-GEMM calibration loop the perf suite normalizes
/// wall times against (not a workload itself — the denominator).
pub fn calibration_operands() -> (MatI32, MatI32) {
    let w = MatI32::from_fn(96, 96, |r, c| (((r * 96 + c) as i64 * 40503 % 255) - 127) as i32);
    let x = MatI32::from_fn(96, 96, |r, c| (((r * 96 + c) as i64 * 9973 % 255) - 127) as i32);
    (w, x)
}
