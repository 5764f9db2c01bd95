//! Whole-network batch simulation helpers: feed every GEMM of a model
//! block to [`Session::run_batch`] so layers run concurrently across the
//! worker pool, with reports identical to simulating each layer alone
//! (see `ta_core::runtime`'s determinism contract).
//!
//! When the session's `plan_cache` knob is on, every request of a batch
//! shares the session's one plan cache: a pattern multiset planned for
//! one layer is reused by every other layer (and by later batches on the
//! same session) — reports are bit-identical either way.

use crate::llama::{LlamaConfig, NamedGemm};
use crate::synth::QuantGaussianSource;
use ta_core::{GemmReport, GemmRequest, Session, TaError};

/// Simulates a list of named GEMM workloads concurrently on `session`,
/// drawing each layer's weight patterns from a [`QuantGaussianSource`]
/// seeded per layer (the DESIGN.md §3 stand-in for real traces).
/// Reports come back in workload order.
///
/// # Errors
///
/// The first layer [`Session::validate`] rejects (e.g. a zero dimension).
pub fn simulate_gemms(
    session: &Session,
    layers: &[NamedGemm],
    seed: u64,
) -> Result<Vec<GemmReport>, TaError> {
    let cfg = session.config();
    let requests = layers
        .iter()
        .enumerate()
        .map(|(i, layer)| {
            let layer_seed = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let source =
                QuantGaussianSource::new(cfg.width, cfg.weight_bits, cfg.n_tile(), layer_seed);
            GemmRequest::simulate(layer.shape, source)
        })
        .collect();
    Ok(session.run_batch(requests)?.into_iter().map(|r| r.report).collect())
}

/// Simulates all seven FC GEMMs of one Transformer block (Q, K, V, O,
/// Gate, Up, Down) of `model` at prefill length `seq` concurrently.
///
/// # Errors
///
/// Same as [`simulate_gemms`].
pub fn simulate_llama_block(
    session: &Session,
    model: &LlamaConfig,
    seq: usize,
    seed: u64,
) -> Result<Vec<(NamedGemm, GemmReport)>, TaError> {
    let layers = model.fc_layers(seq);
    let reports = simulate_gemms(session, &layers, seed)?;
    Ok(layers.into_iter().zip(reports).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ta_core::{GemmShape, TransArrayConfig};

    fn tiny_session(threads: usize) -> Session {
        Session::new(TransArrayConfig { sample_limit: 12, threads, ..TransArrayConfig::paper_w8() })
            .unwrap()
    }

    fn tiny_model() -> LlamaConfig {
        // A down-scaled block so the test stays fast; the helper only
        // cares about shapes, not the real 7B dimensions.
        LlamaConfig {
            name: "tiny",
            hidden: 128,
            intermediate: 256,
            heads: 4,
            kv_heads: 4,
            layers: 2,
        }
    }

    #[test]
    fn block_batch_matches_layerwise_serial_simulation() {
        let parallel = tiny_session(4);
        let serial = tiny_session(1);
        let got = simulate_llama_block(&parallel, &tiny_model(), 32, 99).unwrap();
        assert_eq!(got.len(), 7);
        for (i, (layer, report)) in got.iter().enumerate() {
            let cfg = serial.config();
            let layer_seed = 99 ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let src =
                QuantGaussianSource::new(cfg.width, cfg.weight_bits, cfg.n_tile(), layer_seed);
            let want = serial.run(GemmRequest::simulate(layer.shape, src)).unwrap().report;
            assert_eq!(report, &want, "layer {} ({})", i, layer.name);
        }
    }

    #[test]
    fn batch_jobs_share_one_plan_cache() {
        let cached = Session::new(TransArrayConfig {
            sample_limit: 12,
            threads: 2,
            plan_cache: 1024,
            ..TransArrayConfig::paper_w8()
        })
        .unwrap();
        let uncached = tiny_session(1);
        let model = tiny_model();
        let stats = || cached.accelerator().plan_cache_stats().expect("cache enabled");

        let first = simulate_llama_block(&cached, &model, 32, 123).unwrap();
        let after_first = stats();
        assert!(after_first.insertions > 0);

        // Replaying the identical block must hit across batch jobs (same
        // per-layer seeds → same pattern multisets) without adding a
        // single miss, and reports must match the uncached runs exactly.
        let second = simulate_llama_block(&cached, &model, 32, 123).unwrap();
        let after_second = stats();
        assert!(after_second.hits > after_first.hits, "replayed block must hit");
        assert_eq!(after_second.misses, after_first.misses, "replayed block must not miss");
        let want = simulate_llama_block(&uncached, &model, 32, 123).unwrap();
        for (i, ((_, f), ((_, s), (_, w)))) in
            first.iter().zip(second.iter().zip(want.iter())).enumerate()
        {
            assert_eq!(f, w, "layer {i}: cold cached batch must equal uncached");
            assert_eq!(s, w, "layer {i}: warm cached batch must equal uncached");
        }
    }

    #[test]
    fn batch_reports_cover_all_layers_in_order() {
        let layers = vec![
            NamedGemm::new("a", GemmShape::new(64, 64, 16)),
            NamedGemm::new("b", GemmShape::new(64, 128, 16)),
        ];
        let reports = simulate_gemms(&tiny_session(2), &layers, 7).unwrap();
        assert_eq!(reports.len(), 2);
        for (layer, report) in layers.iter().zip(&reports) {
            assert_eq!(report.shape, layer.shape);
            assert!(report.cycles > 0 && report.energy.total() > 0.0);
        }
    }

    #[test]
    fn empty_layer_is_an_error() {
        let layers = [NamedGemm::new("empty", GemmShape { n: 64, k: 64, m: 0 })];
        let err = simulate_gemms(&tiny_session(1), &layers, 7).unwrap_err();
        assert_eq!(err, TaError::EmptyOperand { n: 64, k: 64, m: 0 });
    }
}
