//! Fig. 10 — runtime (cycles) and energy on the FC layers of the LLaMA
//! family, across the full accelerator roster: BitFusion*, ANT, Olive,
//! Tender*, BitVert, TA-8bit, TA-4bit (* = reference only, broken PPL).

use super::{session, simulate_layer_on};
use crate::report::{fmt3, geomean, Table};
use crate::scale::Scale;
use ta_baselines::Baseline;
use ta_core::{GemmShape, TransArrayConfig};
use ta_models::{LlamaConfig, PAPER_SEQ_LEN};
use ta_sim::EnergyModel;
use ta_workloads::sources::fig10_fc_source;

/// One accelerator's totals over a model's FC layers.
#[derive(Debug, Clone, PartialEq)]
pub struct FcResult {
    /// Accelerator label (paper's legend).
    pub accel: String,
    /// Model label.
    pub model: String,
    /// Total cycles over the block's 7 FC GEMMs.
    pub cycles: u64,
    /// Total energy (nJ).
    pub energy_nj: f64,
}

/// Simulates every (model, accelerator) pair of Fig. 10.
pub fn simulate(scale: Scale) -> Vec<FcResult> {
    let em = EnergyModel::paper_28nm();
    let mut out = Vec::new();
    for model in LlamaConfig::roster() {
        let layers = model.fc_layers(PAPER_SEQ_LEN);

        // Baselines at their Fig. 10 precisions: BitFusion 8-bit (ref),
        // ANT 8, Olive 8, Tender 4 (ref), BitVert 8.
        let roster: [(Baseline, u32); 5] = [
            (Baseline::bitfusion(), 8),
            (Baseline::ant(), 8),
            (Baseline::olive(), 8),
            (Baseline::tender(), 4),
            (Baseline::bitvert(), 8),
        ];
        for (b, wbits) in roster {
            let mut cycles = 0u64;
            let mut energy = 0.0f64;
            for l in &layers {
                let rep = b.simulate_gemm(l.shape, wbits, 8, &em);
                cycles += rep.cycles;
                energy += rep.energy_nj();
            }
            out.push(FcResult {
                accel: format!("{}-{}bit", b.name(), wbits),
                model: model.name.to_string(),
                cycles,
                energy_nj: energy,
            });
        }

        // TransArray at 8-bit and 4-bit weights.
        for (label, cfg, wbits) in [
            ("TA-8bit", TransArrayConfig::paper_w8(), 8u32),
            ("TA-4bit", TransArrayConfig::paper_w4(), 4u32),
        ] {
            let s = session(TransArrayConfig { sample_limit: scale.sample_limit, ..cfg });
            let n_tile = s.config().n_tile();
            let mut cycles = 0u64;
            let mut energy = 0.0f64;
            for (i, l) in layers.iter().enumerate() {
                let src = fig10_fc_source(wbits, n_tile, i);
                let rep =
                    simulate_layer_on(&s, GemmShape::new(l.shape.n, l.shape.k, l.shape.m), src);
                cycles += rep.cycles;
                energy += rep.energy_nj();
            }
            out.push(FcResult {
                accel: label.to_string(),
                model: model.name.to_string(),
                cycles,
                energy_nj: energy,
            });
        }
    }
    out
}

/// The accelerator labels in plotting order.
pub fn accel_order() -> Vec<&'static str> {
    vec![
        "BitFusion-8bit",
        "ANT-8bit",
        "Olive-8bit",
        "Tender-4bit",
        "BitVert-8bit",
        "TA-8bit",
        "TA-4bit",
    ]
}

/// Builds the cycles table, the normalized-speedup table (vs Olive-8bit,
/// with a GeoMean row), and the energy tables.
pub fn run(scale: Scale) -> Vec<Table> {
    let results = simulate(scale);
    let models: Vec<String> = LlamaConfig::roster().iter().map(|m| m.name.to_string()).collect();
    let accels = accel_order();
    let get = |model: &str, accel: &str| -> &FcResult {
        results.iter().find(|r| r.model == model && r.accel == accel).expect("result present")
    };

    let mut headers = vec!["model".to_string()];
    headers.extend(accels.iter().map(|s| s.to_string()));
    let hs: Vec<&str> = headers.iter().map(String::as_str).collect();

    let mut cycles = Table::new("Fig 10 cycles on LLaMA FC layers", &hs);
    let mut speedup = Table::new("Fig 10 speedup (normalized to Olive-8bit)", &hs);
    let mut energy = Table::new("Fig 10 energy (nJ) on LLaMA FC layers", &hs);
    let mut eff = Table::new("Fig 10 energy efficiency (normalized to Olive-8bit)", &hs);

    let mut per_accel_speedups: Vec<Vec<f64>> = vec![Vec::new(); accels.len()];
    let mut per_accel_effs: Vec<Vec<f64>> = vec![Vec::new(); accels.len()];
    for model in &models {
        let base = get(model, "Olive-8bit");
        let (bc, be) = (base.cycles as f64, base.energy_nj);
        let mut c_row = vec![model.clone()];
        let mut s_row = vec![model.clone()];
        let mut e_row = vec![model.clone()];
        let mut f_row = vec![model.clone()];
        for (ai, accel) in accels.iter().enumerate() {
            let r = get(model, accel);
            c_row.push(r.cycles.to_string());
            e_row.push(fmt3(r.energy_nj));
            let sp = bc / r.cycles as f64;
            let ef = be / r.energy_nj;
            s_row.push(fmt3(sp));
            f_row.push(fmt3(ef));
            per_accel_speedups[ai].push(sp);
            per_accel_effs[ai].push(ef);
        }
        cycles.push_row(c_row);
        speedup.push_row(s_row);
        energy.push_row(e_row);
        eff.push_row(f_row);
    }
    let mut geo_s = vec!["GeoMean".to_string()];
    let mut geo_f = vec!["GeoMean".to_string()];
    for ai in 0..accels.len() {
        geo_s.push(fmt3(geomean(&per_accel_speedups[ai])));
        geo_f.push(fmt3(geomean(&per_accel_effs[ai])));
    }
    speedup.push_row(geo_s);
    eff.push_row(geo_f);

    vec![cycles, speedup, energy, eff]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results() -> Vec<FcResult> {
        simulate(Scale::quick())
    }

    #[test]
    fn fig10_headline_ratios() {
        // Paper §5.5: TA-4bit ≈ 4.91× ANT, 7.46× Olive, 3.97× BitVert;
        // TA-8bit ≈ 2.47× ANT, 3.75× Olive, 1.99× BitVert. Check the
        // 7B geomeans stay in generous bands around those factors.
        let rs = results();
        let cycles = |accel: &str| -> f64 {
            let v: Vec<f64> =
                rs.iter().filter(|r| r.accel == accel).map(|r| r.cycles as f64).collect();
            geomean(&v)
        };
        let ta4 = cycles("TA-4bit");
        let ta8 = cycles("TA-8bit");
        let ant = cycles("ANT-8bit");
        let olive = cycles("Olive-8bit");
        let bv = cycles("BitVert-8bit");
        assert!((3.2..7.0).contains(&(ant / ta4)), "TA4/ANT {}", ant / ta4);
        assert!((5.0..10.0).contains(&(olive / ta4)), "TA4/Olive {}", olive / ta4);
        assert!((2.5..5.5).contains(&(bv / ta4)), "TA4/BV {}", bv / ta4);
        assert!((1.7..3.3).contains(&(ant / ta8)), "TA8/ANT {}", ant / ta8);
        assert!((2.6..4.8).contains(&(olive / ta8)), "TA8/Olive {}", olive / ta8);
    }

    #[test]
    fn ta4_energy_beats_olive() {
        // Paper: 2.31× energy reduction vs Olive, 1.65× vs ANT.
        let rs = results();
        let energy = |accel: &str| -> f64 {
            let v: Vec<f64> = rs.iter().filter(|r| r.accel == accel).map(|r| r.energy_nj).collect();
            geomean(&v)
        };
        let ratio_olive = energy("Olive-8bit") / energy("TA-4bit");
        let ratio_ant = energy("ANT-8bit") / energy("TA-4bit");
        assert!(ratio_olive > 1.3, "Olive/TA4 energy {ratio_olive}");
        assert!(ratio_ant > 1.1, "ANT/TA4 energy {ratio_ant}");
    }

    #[test]
    fn tables_have_geomean_row() {
        let tables = run(Scale::quick());
        assert_eq!(tables.len(), 4);
        let speedup = &tables[1];
        assert_eq!(speedup.rows.last().unwrap()[0], "GeoMean");
        assert_eq!(speedup.rows.len(), LlamaConfig::roster().len() + 1);
    }
}
