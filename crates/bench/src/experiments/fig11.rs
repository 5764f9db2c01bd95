//! Fig. 11 — TransArray energy breakdown on the first FC layer of
//! LLaMA-1-7B (q_proj, 4096×4096×2048).

use super::{session, simulate_layer_on};
use crate::report::{fmt3, Table};
use crate::scale::Scale;
use ta_core::{GemmShape, TransArrayConfig};
use ta_models::{LlamaConfig, PAPER_SEQ_LEN};
use ta_sim::EnergyBreakdown;
use ta_workloads::sources::fig11_source;

/// Simulates the first FC layer and returns the breakdown.
pub fn breakdown(scale: Scale) -> EnergyBreakdown {
    let s = session(TransArrayConfig {
        sample_limit: scale.sample_limit,
        ..TransArrayConfig::paper_w8()
    });
    let layer = LlamaConfig::l1_7b().fc_layers(PAPER_SEQ_LEN)[0];
    let src = fig11_source(s.config().n_tile());
    simulate_layer_on(&s, GemmShape::new(layer.shape.n, layer.shape.k, layer.shape.m), src).energy
}

/// Renders the breakdown as Fig. 11's slices (percent of total).
pub fn run(scale: Scale) -> Vec<Table> {
    let b = breakdown(scale);
    let total = b.total();
    let pct = |x: f64| fmt3(100.0 * x / total);
    let mut t = Table::new(
        "Fig 11 TransArray energy breakdown (LLaMA-1-7B first FC)",
        &["slice", "percent", "paper_percent"],
    );
    // Paper slice values from Fig. 11 for side-by-side comparison.
    t.push_row(vec!["DRAM dynamic".into(), pct(b.dram_dynamic), "21.1".into()]);
    t.push_row(vec!["DRAM static".into(), pct(b.dram_static), "9.9".into()]);
    t.push_row(vec!["Core (+leak)".into(), pct(b.core + b.core_static), "12.7".into()]);
    t.push_row(vec!["Weight buffer".into(), pct(b.weight_buf), "5.1".into()]);
    t.push_row(vec!["Input buffer".into(), pct(b.input_buf), "5.1".into()]);
    t.push_row(vec!["Prefix buffer".into(), pct(b.prefix_buf), "29.0".into()]);
    t.push_row(vec![
        "Output (+double) buffer".into(),
        pct(b.output_buf + b.double_buf),
        "17.2".into(),
    ]);
    t.push_row(vec!["Buffer total".into(), pct(b.buffer_total()), "56.4".into()]);
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_dominates_breakdown() {
        // The paper's headline observation (§5.6): buffers take the
        // majority of the energy, dominated by the prefix buffer.
        let b = breakdown(Scale::quick());
        let total = b.total();
        assert!(b.buffer_total() / total > 0.35, "buffer {}", b.buffer_total() / total);
        assert!(
            b.prefix_buf >= b.weight_buf && b.prefix_buf >= b.input_buf,
            "prefix buffer must be the biggest buffer slice"
        );
        // DRAM dynamic is significant but not dominant.
        let dd = b.dram_dynamic / total;
        assert!((0.05..0.50).contains(&dd), "DRAM-D {dd}");
    }

    #[test]
    fn table_slices_sum_near_100() {
        let tables = run(Scale::quick());
        let t = &tables[0];
        // All slices except the "Buffer total" summary row.
        let sum: f64 =
            t.rows[..t.rows.len() - 1].iter().map(|r| r[1].parse::<f64>().unwrap()).sum();
        assert!((sum - 100.0).abs() < 1.0, "sum {sum}");
    }
}
