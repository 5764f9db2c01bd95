//! Fig. 12 — attention-layer speedups on LLaMA-1-7B / LLaMA-2-7B /
//! LLaMA-3-8B, sequence length 2048: BitFusion-16bit (baseline),
//! ANT/BitFusion-8bit, TransArray-8bit.
//!
//! Attention interleaves per-head `QKᵀ` and `PV` GEMMs with softmax on
//! the shared VPU; only accelerators with on-the-fly quantization can run
//! it at all (§5.7) — Olive/Tender/BitVert are absent by design. The K/V
//! caches are treated as weight tensors; the TransArray's dynamic
//! Scoreboard builds their SI at runtime.

use super::{session, simulate_layer_on};
use crate::report::{fmt3, geomean, Table};
use crate::scale::Scale;
use ta_baselines::Baseline;
use ta_core::{GemmShape, TransArrayConfig};
use ta_models::{LlamaConfig, PAPER_SEQ_LEN};
use ta_sim::{EnergyModel, VpuModel};
use ta_workloads::sources::fig12_attention_source;

/// One attention-stack simulation result.
#[derive(Debug, Clone, PartialEq)]
pub struct AttnResult {
    /// Accelerator label.
    pub accel: String,
    /// Model label.
    pub model: String,
    /// Total cycles (all heads' GEMMs + softmax on the VPU).
    pub cycles: u64,
}

/// The Fig. 12 model roster.
pub fn models() -> Vec<LlamaConfig> {
    vec![LlamaConfig::l1_7b(), LlamaConfig::l2_7b(), LlamaConfig::l3_8b()]
}

/// Simulates the attention stack of one model on every accelerator.
pub fn simulate(scale: Scale) -> Vec<AttnResult> {
    let em = EnergyModel::paper_28nm();
    let vpu = VpuModel::paper_default();
    let seq = PAPER_SEQ_LEN;
    let mut out = Vec::new();
    for model in models() {
        let gemms = model.attention_gemms(seq);
        let softmax_per_head_8 = vpu.softmax_cycles(seq, seq, 8);
        let softmax_per_head_16 = vpu.softmax_cycles(seq, seq, 16);
        let heads = model.heads as u64;

        // BitFusion at 16-bit (the paper keeps attention FP16-ish there).
        let bf = Baseline::bitfusion();
        let mut c = heads * softmax_per_head_16;
        for (g, count) in &gemms {
            c += bf.simulate_gemm(g.shape, 16, 16, &em).cycles * *count as u64;
        }
        out.push(AttnResult {
            accel: "BitFusion-16bit".into(),
            model: model.name.into(),
            cycles: c,
        });

        // ANT at 8-bit group-wise.
        let ant = Baseline::ant();
        let mut c = heads * softmax_per_head_8;
        for (g, count) in &gemms {
            c += ant.simulate_gemm(g.shape, 8, 8, &em).cycles * *count as u64;
        }
        out.push(AttnResult { accel: "ANT-8bit".into(), model: model.name.into(), cycles: c });

        // TransArray at 8-bit with the dynamic Scoreboard (the K/V caches
        // are dynamic activations — no offline pass is possible).
        let s = session(TransArrayConfig {
            sample_limit: scale.sample_limit,
            ..TransArrayConfig::paper_w8()
        });
        let n_tile = s.config().n_tile();
        let mut c = heads * softmax_per_head_8;
        for (i, (g, count)) in gemms.iter().enumerate() {
            let src = fig12_attention_source(n_tile, i);
            let rep = simulate_layer_on(&s, GemmShape::new(g.shape.n, g.shape.k, g.shape.m), src);
            c += rep.cycles * *count as u64;
        }
        out.push(AttnResult {
            accel: "TransArray-8bit".into(),
            model: model.name.into(),
            cycles: c,
        });
    }
    out
}

/// Builds the speedup table (BitFusion-16bit = 1.0) with a Geomean row.
pub fn run(scale: Scale) -> Vec<Table> {
    let results = simulate(scale);
    let accels = ["BitFusion-16bit", "ANT-8bit", "TransArray-8bit"];
    let mut headers = vec!["model".to_string()];
    headers.extend(accels.iter().map(|s| s.to_string()));
    let hs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new("Fig 12 attention speedup over BitFusion-16bit", &hs);
    let mut per_accel: Vec<Vec<f64>> = vec![Vec::new(); accels.len()];
    for model in models() {
        let base = results
            .iter()
            .find(|r| r.model == model.name && r.accel == "BitFusion-16bit")
            .unwrap()
            .cycles as f64;
        let mut row = vec![model.name.to_string()];
        for (ai, accel) in accels.iter().enumerate() {
            let r = results.iter().find(|r| r.model == model.name && r.accel == *accel).unwrap();
            let sp = base / r.cycles as f64;
            row.push(fmt3(sp));
            per_accel[ai].push(sp);
        }
        t.push_row(row);
    }
    let mut geo = vec!["Geomean".to_string()];
    for v in &per_accel {
        geo.push(fmt3(geomean(v)));
    }
    t.push_row(geo);
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_speedup_structure() {
        // Paper geomeans: ANT-8bit ≈ 2.58×, TransArray-8bit ≈ 3.97× over
        // BitFusion-16bit; TA/ANT ≈ 1.54×, compressed by the shared
        // softmax VPU time.
        let rs = simulate(Scale::quick());
        let gm = |accel: &str| {
            let mut v = Vec::new();
            for m in models() {
                let base = rs
                    .iter()
                    .find(|r| r.model == m.name && r.accel == "BitFusion-16bit")
                    .unwrap()
                    .cycles as f64;
                let c = rs.iter().find(|r| r.model == m.name && r.accel == accel).unwrap().cycles
                    as f64;
                v.push(base / c);
            }
            geomean(&v)
        };
        let ant = gm("ANT-8bit");
        let ta = gm("TransArray-8bit");
        assert!((1.8..3.6).contains(&ant), "ANT geomean {ant}");
        assert!((2.6..5.2).contains(&ta), "TA geomean {ta}");
        let ratio = ta / ant;
        assert!(
            (1.2..2.2).contains(&ratio),
            "TA/ANT on attention should compress toward ~1.5, got {ratio}"
        );
    }

    #[test]
    fn table_has_geomean() {
        let t = &run(Scale::quick())[0];
        assert_eq!(t.rows.last().unwrap()[0], "Geomean");
        assert_eq!(t.rows.len(), models().len() + 1);
    }
}
