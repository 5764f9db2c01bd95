//! The quantization × sparsity sweep grid: the eight ta-quant methods ×
//! three TransArray precisions (W4A4, W4A8, W8A8) × three weight
//! densities (dense, 0.75 unstructured, 0.5 structured 2:4), each row
//! carrying accuracy metrics, TA cycles, and the STA-style 2:4
//! structured-sparsity baseline column. The `sweep` binary in `ta-bench`
//! renders the grid as figure-style JSON/CSV artifacts.

use crate::Scale;
use ta_baselines::{sparse24, Baseline};
use ta_core::{GemmRequest, GemmShape, Session, TransArrayConfig};
use ta_models::{llm_activation_matrix, llm_weight_matrix};
use ta_quant::{evaluate_method, table3_roster, MatF32, MatI32, QuantMethod};
use ta_sim::EnergyModel;

/// The TransArray precision axis (label, weight bits, activation bits).
pub const PRECISIONS: [(&str, u32, u32); 3] = [("W4A4", 4, 4), ("W4A8", 4, 8), ("W8A8", 8, 8)];

/// The weight-density axis. `0.5` is realized as structured 2:4 pruning
/// (two survivors per group of four along k); `0.75` is unstructured
/// magnitude pruning; `1.0` is dense.
pub const DENSITIES: [f64; 3] = [1.0, 0.75, 0.5];

/// Seed base of the sweep's synthetic LLM tensor pairs.
pub const SWEEP_SEED: u64 = 0x5EED;

/// One sweep-grid row.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Quantization method (paper Table 3 column name).
    pub method: String,
    /// TransArray precision label (`W4A4`/`W4A8`/`W8A8`).
    pub precision: &'static str,
    /// Weight bits of the precision point.
    pub weight_bits: u32,
    /// Activation bits of the precision point.
    pub act_bits: u32,
    /// Target weight density of the row's pruning.
    pub density_target: f64,
    /// How the target was reached (`dense`/`unstructured`/`2:4`).
    pub structure: &'static str,
    /// Measured weight density after pruning.
    pub weight_density: f64,
    /// Normalized MSE of the method's quantized GEMM output on the
    /// pruned weights.
    pub output_nmse: f64,
    /// SQNR (dB) of the same output.
    pub output_sqnr_db: f64,
    /// TransArray cycles executing the pruned, quantized GEMM exactly.
    pub ta_cycles: u64,
    /// Transitive density of that execution.
    pub ta_density: f64,
    /// The STA-style 2:4 baseline's cycles on the same GEMM (it always
    /// deploys weights 2:4-pruned — the structured-sparsity comparison
    /// column).
    pub sta24_cycles: u64,
    /// `sta24_cycles / ta_cycles`.
    pub ta_speedup_vs_sta24: f64,
}

/// The eight quantized methods of the paper's accuracy study (Table 3's
/// roster minus the FP16 reference).
pub fn sweep_methods() -> Vec<Box<dyn QuantMethod>> {
    let methods: Vec<_> = table3_roster().into_iter().filter(|m| m.name() != "FP16").collect();
    assert_eq!(methods.len(), 8, "the sweep is defined over the eight quantized methods");
    methods
}

/// Symmetric absmax integer quantization of a float tensor — the bridge
/// from the accuracy tensors to the bit-exact execution engine.
fn to_int(m: &MatF32, bits: u32) -> MatI32 {
    let amax = m.abs_max().max(1e-12);
    let q = ((1i64 << (bits - 1)) - 1) as f32;
    MatI32::from_fn(m.rows(), m.cols(), |r, c| (m.get(r, c) / amax * q).round() as i32)
}

/// Prunes `w` to `density` on the sweep's structure policy.
fn prune(w: &MatF32, density: f64) -> (MatF32, &'static str) {
    if density >= 1.0 {
        (w.clone(), "dense")
    } else if (density - 0.5).abs() < 1e-9 {
        (sparse24::prune_2to4(w), "2:4")
    } else {
        (sparse24::prune_to_density(w, density), "unstructured")
    }
}

/// Runs the grid at `scale`. `reduced` cuts the grid for CI smoke runs
/// (half the methods, dense + 2:4 only); the full grid is
/// 8 methods × 3 precisions × 3 densities = 72 rows.
pub fn grid(scale: Scale, reduced: bool) -> Vec<SweepPoint> {
    let em = EnergyModel::paper_28nm();
    let sta24 = Baseline::sta_2to4();
    let densities: &[f64] = if reduced { &[1.0, 0.5] } else { &DENSITIES };
    let dim = scale.accuracy_dim;
    let (n, k, m) = (dim, dim, dim / 2);
    let shape = GemmShape::new(n, k, m);
    let mut rows = Vec::new();
    for (pi, &(precision, wbits, abits)) in PRECISIONS.iter().enumerate() {
        let w = llm_weight_matrix(n, k, SWEEP_SEED + pi as u64);
        let a = llm_activation_matrix(k, m, SWEEP_SEED + 100 + pi as u64);
        let sta24_cycles = sta24.simulate_gemm(shape, wbits, abits, &em).cycles;
        let cfg = if wbits <= 4 {
            TransArrayConfig { sample_limit: 0, ..TransArrayConfig::paper_w4() }
        } else {
            TransArrayConfig { sample_limit: 0, ..TransArrayConfig::paper_w8() }
        };
        let session = Session::new(cfg).expect("paper design points are valid");
        for &density in densities {
            let (wp, structure) = prune(&w, density);
            let weight_density = sparse24::density(&wp);
            // The cycle columns depend on the pruned tensor, not the
            // quant method: execute once per cell, share across rows.
            let request = GemmRequest::execute(to_int(&wp, wbits), to_int(&a, abits));
            let rep = session.run(request).expect("quantized operands fit the design point").report;
            let mut methods = sweep_methods();
            if reduced {
                methods.truncate(4);
            }
            for method in &methods {
                let acc = evaluate_method(method.as_ref(), &wp, &a);
                rows.push(SweepPoint {
                    method: acc.name.clone(),
                    precision,
                    weight_bits: wbits,
                    act_bits: abits,
                    density_target: density,
                    structure,
                    weight_density,
                    output_nmse: acc.output_nmse,
                    output_sqnr_db: acc.output_sqnr_db,
                    ta_cycles: rep.cycles,
                    ta_density: rep.density,
                    sta24_cycles,
                    ta_speedup_vs_sta24: if rep.cycles > 0 {
                        sta24_cycles as f64 / rep.cycles as f64
                    } else {
                        0.0
                    },
                });
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_methods_are_the_eight_quantized_ones() {
        let names: Vec<String> = sweep_methods().iter().map(|m| m.name().to_string()).collect();
        assert_eq!(names.len(), 8);
        assert!(!names.contains(&"FP16".to_string()));
        // Stable, unique column names.
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "method names must be unique: {names:?}");
    }

    #[test]
    fn tiny_grid_covers_every_cell_with_a_2to4_column() {
        let scale = Scale { tiles: 2, sample_limit: 4, accuracy_dim: 16 };
        let rows = grid(scale, false);
        assert_eq!(rows.len(), 8 * 3 * 3);
        assert!(rows.iter().all(|r| r.sta24_cycles > 0), "2:4 baseline column present");
        let structured: Vec<_> = rows.iter().filter(|r| r.structure == "2:4").collect();
        assert_eq!(structured.len(), 8 * 3);
        for r in &structured {
            assert!(
                (r.weight_density - 0.5).abs() < 0.26,
                "2:4 pruning halves density, got {} for {}",
                r.weight_density,
                r.method
            );
        }
        // Every row carries usable accuracy and cycle columns.
        for r in &rows {
            assert!(r.output_nmse.is_finite() && r.output_nmse >= 0.0, "{r:?}");
            assert!(r.output_sqnr_db.is_finite(), "{r:?}");
            assert!(r.ta_cycles > 0 && r.ta_speedup_vs_sta24 > 0.0, "{r:?}");
        }
    }

    #[test]
    fn reduced_grid_is_a_strict_subset_shape() {
        let scale = Scale { tiles: 2, sample_limit: 4, accuracy_dim: 16 };
        let rows = grid(scale, true);
        assert_eq!(rows.len(), 4 * 3 * 2);
        assert!(rows.iter().all(|r| r.structure != "unstructured"));
    }
}
