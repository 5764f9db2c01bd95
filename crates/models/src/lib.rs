//! # ta-models — workloads for the Transitive Array evaluation
//!
//! The paper's benchmark zoo (§5.1):
//!
//! * [`LlamaConfig`] — LLaMA-1 {7,13,30,65}B, LLaMA-2 {7,13}B, LLaMA-3-8B
//!   block shapes: FC GEMMs and attention GEMMs at prefill length 2048;
//! * [`resnet18_layers`] — the 21 weighted ResNet-18 layers of Fig. 14,
//!   lowered to GEMMs via im2col;
//! * synthetic pattern sources ([`UniformBitSource`],
//!   [`QuantGaussianSource`]) and LLM-like tensor generators — the
//!   documented substitutions for proprietary traces (DESIGN.md §3);
//! * batch helpers ([`simulate_llama_block`], [`simulate_gemms`]) that
//!   run a whole block's GEMMs concurrently on the tile-execution
//!   runtime.
//!
//! ## Quick example
//!
//! ```
//! use ta_models::{LlamaConfig, PAPER_SEQ_LEN};
//!
//! let l7b = LlamaConfig::l1_7b();
//! let fc = l7b.fc_layers(PAPER_SEQ_LEN);
//! assert_eq!(fc[0].shape.n, 4096); // q_proj
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod batch;
mod llama;
mod resnet;
mod rng;
mod synth;

pub use batch::{simulate_gemms, simulate_llama_block};
pub use llama::{LlamaConfig, NamedGemm, PAPER_SEQ_LEN};
pub use resnet::{resnet18_layers, resnet18_total_macs, ResnetLayer};
pub use rng::{mix, splitmix64, StreamRng};
pub use synth::{
    llm_activation_matrix, llm_activation_matrix_int, llm_weight_matrix, llm_weight_matrix_int,
    seeded_span_matrix, QuantGaussianSource, UniformBitSource,
};

#[cfg(test)]
mod integration {
    use super::*;
    use ta_core::{GemmReport, GemmRequest, GemmShape, PatternSource, Session, TransArrayConfig};

    fn simulate(
        cfg: TransArrayConfig,
        shape: GemmShape,
        src: impl PatternSource + Send + 'static,
    ) -> GemmReport {
        let session = Session::new(cfg).unwrap();
        session.run(GemmRequest::simulate(shape, src)).unwrap().report
    }

    #[test]
    fn simulate_small_llama_slice_with_synthetic_source() {
        // End-to-end smoke: a down-scaled q_proj simulated from the
        // Gaussian-quantized source.
        let cfg = TransArrayConfig { sample_limit: 64, ..TransArrayConfig::paper_w8() };
        let src = QuantGaussianSource::new(8, 8, cfg.n_tile(), 42);
        let rep = simulate(cfg, GemmShape::new(256, 256, 128), src);
        assert!(rep.density > 0.10 && rep.density < 0.30, "density {}", rep.density);
        assert!(rep.cycles > 0);
    }

    #[test]
    fn uniform_source_density_matches_fig9_anchor() {
        // 8-bit TranSparsity on uniform bits at 256 rows → ≈12.6% density.
        let cfg = TransArrayConfig { sample_limit: 128, ..TransArrayConfig::paper_w8() };
        let src = UniformBitSource::new(8, 256, 7);
        let rep = simulate(cfg, GemmShape::new(1024, 1024, 64), src);
        assert!((rep.density - 0.126).abs() < 0.012, "density {} vs Fig. 9's 12.57%", rep.density);
    }

    #[test]
    fn pattern_source_trait_object_usable() {
        let mut src: Box<dyn PatternSource> = Box::new(UniformBitSource::new(8, 16, 1));
        assert_eq!(src.width(), 8);
        assert_eq!(src.subtile_patterns(0, 0).len(), 16);
    }
}
