//! Cross-crate integration: the comparative claims of the evaluation
//! must hold when the TransArray simulator and the baseline models run
//! the same workloads.

use transitive_array::baselines::{bit_sparsity_density, Baseline};
use transitive_array::core::{
    GemmReport, GemmRequest, GemmShape, PatternSource, Session, TransArrayConfig,
};
use transitive_array::models::{LlamaConfig, QuantGaussianSource, UniformBitSource, PAPER_SEQ_LEN};
use transitive_array::sim::EnergyModel;

fn ta(cfg: TransArrayConfig, sample: usize) -> Session {
    Session::new(TransArrayConfig { sample_limit: sample, ..cfg }).unwrap()
}

fn simulate(
    accel: &Session,
    shape: GemmShape,
    src: impl PatternSource + Send + 'static,
) -> GemmReport {
    accel.run(GemmRequest::simulate(shape, src)).unwrap().report
}

#[test]
fn ta8_beats_every_baseline_on_llama_fc() {
    let em = EnergyModel::paper_28nm();
    let layer = LlamaConfig::l1_7b().fc_layers(PAPER_SEQ_LEN)[0];
    let shape = GemmShape::new(layer.shape.n, layer.shape.k, layer.shape.m);

    let accel = ta(TransArrayConfig::paper_w8(), 256);
    let src = QuantGaussianSource::new(8, 8, accel.config().n_tile(), 3);
    let ta_rep = simulate(&accel, shape, src);

    for b in Baseline::roster() {
        // Iso-precision (8-bit weights; Tender shown at its 4-bit config
        // elsewhere).
        let rep = b.simulate_gemm(shape, 8, 8, &em);
        assert!(
            ta_rep.cycles < rep.cycles,
            "TA-8bit ({}) must beat {} ({})",
            ta_rep.cycles,
            b.name(),
            rep.cycles
        );
    }
}

#[test]
fn ta4_speedup_over_olive_in_paper_band() {
    // Paper: 7.46× over Olive at iso-accuracy (W4 vs Olive's W8).
    let em = EnergyModel::paper_28nm();
    let layer = LlamaConfig::l1_7b().fc_layers(PAPER_SEQ_LEN)[0];
    let shape = GemmShape::new(layer.shape.n, layer.shape.k, layer.shape.m);
    let accel = ta(TransArrayConfig::paper_w4(), 256);
    let src = QuantGaussianSource::new(8, 4, accel.config().n_tile(), 5);
    let ta_rep = simulate(&accel, shape, src);
    let olive = Baseline::olive().simulate_gemm(shape, 8, 8, &em);
    let speedup = olive.cycles as f64 / ta_rep.cycles as f64;
    assert!((5.0..9.5).contains(&speedup), "TA-4bit vs Olive speedup {speedup} (paper: 7.46)");
}

#[test]
fn transitive_density_beats_bit_sparsity_by_about_4x() {
    // §5.5: 8× over dense and 4× over bit sparsity at 8-bit.
    let accel = ta(TransArrayConfig::paper_w8(), 128);
    let rep = simulate(&accel, GemmShape::new(1024, 1024, 64), UniformBitSource::new(8, 256, 17));
    let mut src2 = UniformBitSource::new(8, 256, 17);
    let mut bit_density = 0.0;
    for t in 0..32 {
        bit_density += bit_sparsity_density(&src2.subtile_patterns(t, 0), 8);
    }
    bit_density /= 32.0;
    let ratio = bit_density / rep.density;
    assert!((3.0..5.0).contains(&ratio), "bit/transitive density ratio {ratio} (paper: ~4x)");
}

#[test]
fn attention_unsupported_baselines_are_flagged() {
    // §5.7: Olive, Tender and BitVert cannot run attention.
    for b in Baseline::roster() {
        let expected = matches!(b.name(), "BitFusion" | "ANT");
        assert_eq!(b.supports_attention(), expected, "{}", b.name());
    }
}

#[test]
fn memory_bound_layers_converge_across_accelerators() {
    // A GEMV-like decode shape (M=1) streams the whole weight matrix per
    // output element: DRAM-bound for everyone, so cycles differ by
    // bandwidth, not PEs — the ratio must collapse toward 1.
    let em = EnergyModel::paper_28nm();
    let shape = GemmShape::new(8192, 16384, 1);
    let ant = Baseline::ant().simulate_gemm(shape, 8, 8, &em);
    let olive = Baseline::olive().simulate_gemm(shape, 8, 8, &em);
    let ratio = olive.cycles as f64 / ant.cycles as f64;
    assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
    assert!(ant.dram_cycles >= ant.compute_cycles);
}
