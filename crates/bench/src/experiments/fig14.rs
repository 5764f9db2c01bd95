//! Fig. 14 — per-layer speedups on ResNet-18 (ImageNet, im2col-lowered):
//! BitFusion, ANT, TransArray. TransArray runs 4-bit weights except the
//! first conv and the FC (8-bit), per §5.10.

use super::{session, simulate_layer_on};
use crate::report::{fmt3, Table};
use crate::scale::Scale;
use ta_baselines::Baseline;
use ta_core::{GemmShape, TransArrayConfig};
use ta_models::resnet18_layers;
use ta_sim::EnergyModel;
use ta_workloads::sources::fig14_layer_source;

/// Per-layer cycles for the three accelerators.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerCycles {
    /// Layer index (1..=21).
    pub index: usize,
    /// Layer name.
    pub name: String,
    /// BitFusion cycles (8-bit path, its accuracy-safe CNN config).
    pub bitfusion: u64,
    /// ANT cycles (mixed 4/8-bit weights as the layer allows).
    pub ant: u64,
    /// TransArray cycles (4-bit weights, 8-bit first/last).
    pub transarray: u64,
}

/// Simulates every ResNet-18 layer.
pub fn simulate(scale: Scale) -> Vec<LayerCycles> {
    let em = EnergyModel::paper_28nm();
    let bf = Baseline::bitfusion();
    let ant = Baseline::ant();
    let mut out = Vec::new();
    for layer in resnet18_layers() {
        let shape = layer.gemm;
        // BitFusion runs the 8-bit path (its 4-bit PTQ accuracy is not
        // viable on ImageNet without QAT); ANT's adaptive types allow the
        // layer's mixed precision.
        let bf_cycles = bf.simulate_gemm(shape, 8, 8, &em).cycles;
        let ant_cycles = ant.simulate_gemm(shape, layer.weight_bits, 8, &em).cycles;
        let cfg = if layer.weight_bits == 4 {
            TransArrayConfig::paper_w4()
        } else {
            TransArrayConfig::paper_w8()
        };
        let s = session(TransArrayConfig { sample_limit: scale.sample_limit, ..cfg });
        let src = fig14_layer_source(layer.weight_bits, s.config().n_tile(), layer.index);
        let ta_cycles =
            simulate_layer_on(&s, GemmShape::new(shape.n, shape.k, shape.m), src).cycles;
        out.push(LayerCycles {
            index: layer.index,
            name: layer.name.to_string(),
            bitfusion: bf_cycles,
            ant: ant_cycles,
            transarray: ta_cycles,
        });
    }
    out
}

/// Builds the per-layer speedup table (normalized to BitFusion) plus the
/// Total row the figure annotates.
pub fn run(scale: Scale) -> Vec<Table> {
    let layers = simulate(scale);
    let mut t = Table::new(
        "Fig 14 ResNet-18 speedup over BitFusion",
        &["layer", "name", "BitFusion", "ANT", "TransArray"],
    );
    for l in &layers {
        t.push_row(vec![
            l.index.to_string(),
            l.name.clone(),
            "1.000".to_string(),
            fmt3(l.bitfusion as f64 / l.ant as f64),
            fmt3(l.bitfusion as f64 / l.transarray as f64),
        ]);
    }
    let total_bf: u64 = layers.iter().map(|l| l.bitfusion).sum();
    let total_ant: u64 = layers.iter().map(|l| l.ant).sum();
    let total_ta: u64 = layers.iter().map(|l| l.transarray).sum();
    t.push_row(vec![
        "Total".to_string(),
        "resnet18".to_string(),
        "1.000".to_string(),
        fmt3(total_bf as f64 / total_ant as f64),
        fmt3(total_bf as f64 / total_ta as f64),
    ]);
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transarray_fastest_overall() {
        // Paper: TA = 4.26× BitFusion, 2.21× ANT on the network total.
        let layers = simulate(Scale::quick());
        let bf: u64 = layers.iter().map(|l| l.bitfusion).sum();
        let ant: u64 = layers.iter().map(|l| l.ant).sum();
        let ta: u64 = layers.iter().map(|l| l.transarray).sum();
        let vs_bf = bf as f64 / ta as f64;
        let vs_ant = ant as f64 / ta as f64;
        assert!((2.0..6.5).contains(&vs_bf), "TA vs BitFusion {vs_bf}");
        assert!((1.3..3.5).contains(&vs_ant), "TA vs ANT {vs_ant}");
    }

    #[test]
    fn every_layer_reported() {
        let layers = simulate(Scale::quick());
        assert_eq!(layers.len(), 21);
        assert!(layers.iter().all(|l| l.transarray > 0));
    }

    #[test]
    fn table_ends_with_total() {
        let t = &run(Scale::quick())[0];
        assert_eq!(t.rows.len(), 22);
        assert_eq!(t.rows.last().unwrap()[0], "Total");
    }
}
