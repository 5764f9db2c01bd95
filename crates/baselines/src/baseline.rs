//! Analytic baseline accelerator models (§5.1).
//!
//! Every baseline is a precision-composable PE array with the geometry the
//! paper synthesized for Table 2, running over the *same* DRAM/tiling
//! model as the TransArray. Cycle counts derive from first principles
//! (array geometry × precision-dependent PEs-per-MAC × utilization);
//! energies from PE area × activity plus the shared buffer/DRAM/static
//! accounting.

use ta_core::{dram_traffic, GemmShape, TrafficReport};
use ta_sim::{baseline_area, dram_cycles, table2, EnergyBreakdown, EnergyModel};

/// Dynamic energy per µm² of toggling PE logic per operation (pJ/µm²) —
/// calibrated so a BitFusion 8-bit MAC lands near the published ~0.27 pJ
/// at 28 nm.
const AREA_TO_PJ: f64 = 0.0005;

/// Result of one baseline GEMM simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineReport {
    /// Accelerator name.
    pub name: String,
    /// The GEMM simulated.
    pub shape: GemmShape,
    /// End-to-end cycles (`max(compute, DRAM)`).
    pub cycles: u64,
    /// Compute-side cycles.
    pub compute_cycles: u64,
    /// Memory-channel cycles.
    pub dram_cycles: u64,
    /// DRAM traffic.
    pub traffic: TrafficReport,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Wall-clock seconds.
    pub seconds: f64,
}

impl BaselineReport {
    /// Total energy in nanojoules.
    pub fn energy_nj(&self) -> f64 {
        self.energy.total() / 1000.0
    }
}

/// A precision-composable PE-array baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    name: String,
    /// Area of one *listed* PE (Table 2).
    pe_um2: f64,
    /// Listed PE array geometry (rows, cols).
    array: (u64, u64),
    /// Composable sub-unit precision (BitFusion: 2-bit bricks; ANT/Olive/
    /// Tender: 4-bit PEs; BitVert: 8-bit PEs).
    compose_bits: u32,
    /// Sub-units per listed PE.
    subunits_per_pe: u64,
    /// Fixed utilization factor (load imbalance, drain).
    utilization: f64,
    /// Sparsity speedup factor (BitVert's bit-sparsity skipping).
    sparsity_speedup: f64,
    /// On-chip buffer (KB).
    buffer_kb: f64,
    /// Whether the design can quantize attention on the fly (§5.7: only
    /// BitFusion and ANT among the baselines).
    supports_attention: bool,
}

impl Baseline {
    /// BitFusion (ISCA'18): 28×32 fusion units of 16 2-bit BitBricks.
    pub fn bitfusion() -> Self {
        Self {
            name: "BitFusion".into(),
            pe_um2: table2::BITFUSION_PE_UM2,
            array: (28, 32),
            compose_bits: 2,
            subunits_per_pe: 16,
            utilization: 1.0,
            sparsity_speedup: 1.0,
            buffer_kb: 512.0,
            supports_attention: true,
        }
    }

    /// ANT (MICRO'22): 36×64 4-bit adaptive-type PEs.
    pub fn ant() -> Self {
        Self {
            name: "ANT".into(),
            pe_um2: table2::ANT_PE_UM2,
            array: (36, 64),
            compose_bits: 4,
            subunits_per_pe: 1,
            utilization: 1.0,
            sparsity_speedup: 1.0,
            buffer_kb: 512.0,
            supports_attention: true,
        }
    }

    /// OliVe (ISCA'23): 32×48 4-bit outlier-victim PEs.
    pub fn olive() -> Self {
        Self {
            name: "Olive".into(),
            pe_um2: table2::OLIVE_PE_UM2,
            array: (32, 48),
            compose_bits: 4,
            subunits_per_pe: 1,
            utilization: 1.0,
            sparsity_speedup: 1.0,
            buffer_kb: 512.0,
            supports_attention: false,
        }
    }

    /// Tender (ISCA'24): 30×48 4-bit PEs with pow-2 rescale.
    pub fn tender() -> Self {
        Self {
            name: "Tender".into(),
            pe_um2: table2::TENDER_PE_UM2,
            array: (30, 48),
            compose_bits: 4,
            subunits_per_pe: 1,
            utilization: 1.0,
            sparsity_speedup: 1.0,
            buffer_kb: 608.0,
            supports_attention: false,
        }
    }

    /// BitVert (BBS, 2024): 16×30 8-bit PEs exploiting ≥50% bit sparsity
    /// (2× ideal skip, ~0.8 utilization from bit-column imbalance).
    pub fn bitvert() -> Self {
        Self {
            name: "BitVert".into(),
            pe_um2: table2::BITVERT_PE_UM2,
            array: (16, 30),
            compose_bits: 8,
            subunits_per_pe: 1,
            utilization: 0.8,
            sparsity_speedup: 2.0,
            buffer_kb: 512.0,
            supports_attention: false,
        }
    }

    /// STA-style 2:4 structured-sparsity baseline: a 16×32 dense 8-bit
    /// systolic array whose PEs skip the zero half of 2:4-pruned weight
    /// groups (2× ideal skip at full utilization — the weights are
    /// pruned offline, so no imbalance penalty). The sweep's
    /// structured-sparsity comparison column; deliberately **not** part
    /// of [`Baseline::roster`], which stays the Fig. 10 five.
    pub fn sta_2to4() -> Self {
        Self {
            name: "STA-2:4".into(),
            pe_um2: table2::BITVERT_PE_UM2,
            array: (16, 32),
            compose_bits: 8,
            subunits_per_pe: 1,
            utilization: 1.0,
            sparsity_speedup: 2.0,
            buffer_kb: 512.0,
            supports_attention: false,
        }
    }

    /// The full Fig. 10 roster in the paper's plotting order.
    pub fn roster() -> Vec<Baseline> {
        vec![Self::bitfusion(), Self::ant(), Self::olive(), Self::tender(), Self::bitvert()]
    }

    /// Accelerator name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether attention layers are supported (§5.7).
    pub fn supports_attention(&self) -> bool {
        self.supports_attention
    }

    /// On-chip buffer budget (KB).
    pub fn buffer_kb(&self) -> f64 {
        self.buffer_kb
    }

    /// Total composable sub-units.
    fn total_subunits(&self) -> u64 {
        self.array.0 * self.array.1 * self.subunits_per_pe
    }

    /// Sub-units one `wbits × abits` MAC occupies.
    fn subunits_per_mac(&self, wbits: u32, abits: u32) -> u64 {
        let c = self.compose_bits;
        (wbits.div_ceil(c) as u64) * (abits.div_ceil(c) as u64)
    }

    /// Effective MACs per cycle at the given precisions.
    pub fn macs_per_cycle(&self, wbits: u32, abits: u32) -> f64 {
        self.total_subunits() as f64 / self.subunits_per_mac(wbits, abits) as f64
            * self.utilization
            * self.sparsity_speedup
    }

    /// Core area (mm²) from the Table 2 geometry.
    pub fn core_mm2(&self) -> f64 {
        baseline_area(&self.name, self.pe_um2, self.array.0, self.array.1, self.buffer_kb)
            .core_mm2()
    }

    /// Simulates one GEMM at `wbits × abits`.
    pub fn simulate_gemm(
        &self,
        shape: GemmShape,
        wbits: u32,
        abits: u32,
        em: &EnergyModel,
    ) -> BaselineReport {
        let macs = shape.macs() as f64;
        let compute_cycles = (macs / self.macs_per_cycle(wbits, abits)).ceil() as u64;
        let traffic = dram_traffic(shape, wbits, abits, (self.buffer_kb * 1024.0) as u64);
        let dram_cycles = dram_cycles(traffic.total());
        let cycles = compute_cycles.max(dram_cycles).max(1);

        let mut b = EnergyBreakdown::default();
        // Core: each MAC toggles its composed sub-units; energy tracks the
        // listed PE's area share.
        let pe_pj = self.pe_um2 * AREA_TO_PJ / self.subunits_per_pe as f64;
        let effective_macs = macs / self.sparsity_speedup;
        b.core = effective_macs * self.subunits_per_mac(wbits, abits) as f64 * pe_pj;

        // Buffers: weights stream once per output-column pass of the
        // array; inputs once per output-row pass; outputs read-modify-
        // write 32-bit psums.
        let sram_pj = em.sram_pj_per_byte(64.0); // banked 64 KB macro
        let w_bytes = shape.weight_bytes(wbits) as f64;
        let i_bytes = shape.input_bytes(abits) as f64;
        let col_passes = (shape.m as f64 / self.array.1 as f64).ceil();
        let row_passes = (shape.n as f64 / self.array.0 as f64).ceil();
        b.weight_buf = w_bytes * col_passes * sram_pj / self.sparsity_speedup;
        b.input_buf = i_bytes * row_passes * sram_pj;
        b.output_buf = shape.output_bytes() as f64 * 4.0 * 2.0 * sram_pj;

        b.dram_dynamic = em.dram_pj(traffic.total());
        b.dram_static = em.static_pj(em.dram_static_mw, cycles);
        let static_mw =
            em.core_static_mw_per_mm2 * self.core_mm2() + em.sram_static_mw_per_kb * self.buffer_kb;
        b.core_static = em.static_pj(static_mw, cycles);

        BaselineReport {
            name: self.name.clone(),
            shape,
            cycles,
            compute_cycles,
            dram_cycles,
            traffic,
            energy: b,
            seconds: em.seconds(cycles),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_table_matches_geometry() {
        // 8×8-bit MACs/cycle from the Table 2 arrays.
        assert_eq!(Baseline::bitfusion().macs_per_cycle(8, 8), 896.0);
        assert_eq!(Baseline::ant().macs_per_cycle(8, 8), 576.0);
        assert_eq!(Baseline::olive().macs_per_cycle(8, 8), 384.0);
        assert_eq!(Baseline::tender().macs_per_cycle(8, 8), 360.0);
        // BitVert: 480 PEs × 2 (bit sparsity) × 0.8 (imbalance) = 768.
        assert_eq!(Baseline::bitvert().macs_per_cycle(8, 8), 768.0);
    }

    #[test]
    fn precision_composition() {
        let bf = Baseline::bitfusion();
        // 16-bit needs 4× the bricks of 8-bit.
        assert_eq!(bf.macs_per_cycle(16, 16), 224.0);
        // W4A8 doubles over W8A8 on 2-bit bricks.
        assert_eq!(bf.macs_per_cycle(4, 8), 1792.0);
        let ant = Baseline::ant();
        assert_eq!(ant.macs_per_cycle(4, 4), 2304.0);
        assert_eq!(ant.macs_per_cycle(4, 8), 1152.0);
    }

    #[test]
    fn paper_iso_precision_ordering() {
        // §5.5: at 8-bit, ANT and Olive are *slower* than BitFusion;
        // BitVert roughly 2× Olive.
        let bf = Baseline::bitfusion().macs_per_cycle(8, 8);
        let ant = Baseline::ant().macs_per_cycle(8, 8);
        let ol = Baseline::olive().macs_per_cycle(8, 8);
        let bv = Baseline::bitvert().macs_per_cycle(8, 8);
        assert!(bf > ant && ant > ol);
        assert!((bv / ol - 2.0).abs() < 0.2);
    }

    #[test]
    fn simulate_gemm_report_sane() {
        let em = EnergyModel::paper_28nm();
        let shape = GemmShape::new(512, 512, 256);
        let rep = Baseline::olive().simulate_gemm(shape, 8, 8, &em);
        assert!(rep.cycles >= rep.compute_cycles.min(rep.dram_cycles));
        assert!(rep.energy.total() > 0.0);
        assert!(rep.energy.core > 0.0);
        assert!(rep.seconds > 0.0);
        assert_eq!(rep.name, "Olive");
    }

    #[test]
    fn compute_bound_on_large_gemm() {
        let em = EnergyModel::paper_28nm();
        let shape = GemmShape::new(4096, 4096, 2048);
        for b in Baseline::roster() {
            let rep = b.simulate_gemm(shape, 8, 8, &em);
            assert!(
                rep.compute_cycles >= rep.dram_cycles,
                "{} should be compute-bound on a big FC layer",
                b.name()
            );
        }
    }

    #[test]
    fn sta_2to4_doubles_dense_throughput_without_joining_the_roster() {
        let sta = Baseline::sta_2to4();
        // 512 PEs × 2 (structured skip) at full utilization.
        assert_eq!(sta.macs_per_cycle(8, 8), 1024.0);
        assert_eq!(Baseline::roster().len(), 5, "roster stays the Fig. 10 five");
        assert!(Baseline::roster().iter().all(|b| b.name() != sta.name()));
    }

    #[test]
    fn attention_support_flags() {
        assert!(Baseline::bitfusion().supports_attention());
        assert!(Baseline::ant().supports_attention());
        assert!(!Baseline::olive().supports_attention());
        assert!(!Baseline::tender().supports_attention());
        assert!(!Baseline::bitvert().supports_attention());
    }

    #[test]
    fn core_areas_match_table2() {
        assert!((Baseline::bitfusion().core_mm2() - 0.491).abs() < 0.01);
        assert!((Baseline::bitvert().core_mm2() - 0.473).abs() < 0.01);
    }
}
