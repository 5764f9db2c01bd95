//! End-to-end latency budget of one full LLaMA-1-7B Transformer block on
//! the Transitive Array (W4A8 FC layers, W8A8 attention with the dynamic
//! Scoreboard, softmax on the VPU) — the workload Fig. 10 + Fig. 12
//! decompose.
//!
//! Run with: `cargo run --release --example transformer_block`

use transitive_array::models::{LlamaConfig, PAPER_SEQ_LEN};
use transitive_array::prelude::*;
use transitive_array::sim::VpuModel;
use transitive_array::workloads::sources::{block_attention_source, block_fc_source};

fn main() -> Result<(), TaError> {
    let model = LlamaConfig::l1_7b();
    let seq = PAPER_SEQ_LEN;
    println!(
        "LLaMA-1-7B block @ seq {seq}: hidden {}, ffn {}, {} heads\n",
        model.hidden, model.intermediate, model.heads
    );

    let mut total_cycles = 0u64;
    let mut total_energy_uj = 0.0f64;
    println!("{:<12} {:>22} {:>12} {:>10} {:>12}", "stage", "GEMM", "cycles", "ms", "energy(uJ)");

    // FC layers at W4A8 (the iso-accuracy QServe configuration).
    let fc = Session::new(TransArrayConfig::paper_w4().to_builder().sample_limit(512).build()?)?;
    for (i, layer) in model.fc_layers(seq).iter().enumerate() {
        let src = block_fc_source(fc.config().n_tile(), i);
        let rep = fc.run(GemmRequest::simulate(layer.shape, src))?.report;
        println!(
            "{:<12} {:>8}x{:>5}x{:>5} {:>12} {:>10.3} {:>12.1}",
            layer.name,
            layer.shape.n,
            layer.shape.k,
            layer.shape.m,
            rep.cycles,
            rep.seconds * 1e3,
            rep.energy.total() / 1e6
        );
        total_cycles += rep.cycles;
        total_energy_uj += rep.energy.total() / 1e6;
    }

    // Attention at W8A8 (K/V caches quantized on the fly).
    let att = Session::new(TransArrayConfig::builder().sample_limit(512).build()?)?;
    let vpu = VpuModel::paper_default();
    for (i, (gemm, count)) in model.attention_gemms(seq).iter().enumerate() {
        let src = block_attention_source(att.config().n_tile(), i);
        let rep = att.run(GemmRequest::simulate(gemm.shape, src))?.report;
        let cycles = rep.cycles * *count as u64;
        let energy = rep.energy.total() * *count as f64 / 1e6;
        println!(
            "{:<12} {:>5}x({:>4}x{:>4}x{:>4}) {:>11} {:>10.3} {:>12.1}",
            gemm.name,
            count,
            gemm.shape.n,
            gemm.shape.k,
            gemm.shape.m,
            cycles,
            (cycles as f64 / 500.0e6) * 1e3,
            energy
        );
        total_cycles += cycles;
        total_energy_uj += energy;
    }
    let softmax = vpu.softmax_cycles(seq, seq, 8) * model.heads as u64;
    println!(
        "{:<12} {:>22} {:>12} {:>10.3} {:>12}",
        "softmax",
        format!("{}x({}x{})", model.heads, seq, seq),
        softmax,
        (softmax as f64 / 500.0e6) * 1e3,
        "-"
    );
    total_cycles += softmax;

    println!(
        "\nblock total: {} cycles = {:.2} ms @500MHz, {:.1} uJ GEMM energy",
        total_cycles,
        total_cycles as f64 / 500.0e6 * 1e3,
        total_energy_uj
    );
    println!(
        "model total ({} blocks): {:.1} ms prefill",
        model.layers,
        model.layers as f64 * total_cycles as f64 / 500.0e6 * 1e3
    );
    Ok(())
}
