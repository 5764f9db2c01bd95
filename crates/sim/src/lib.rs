//! # ta-sim — hardware-modeling substrate for the Transitive Array
//!
//! The constants and formulas the cycle-level simulator (`ta-core`) and
//! the baseline models (`ta-baselines`) are assembled from:
//!
//! * [`DRAM_BYTES_PER_CYCLE`] / [`dram_cycles`] — the one off-chip
//!   bandwidth both sides are timed with, and [`DramModel`], a
//!   burst-granularity request counter;
//! * [`EnergyModel`] / [`EnergyBreakdown`] — per-event pJ constants at the
//!   28 nm / 500 MHz operating point and Fig. 11's breakdown slices;
//! * [`AreaModel`] + the published Table 2 component areas;
//! * [`pipeline_cycles`] — the 3-stage double-buffered schedule math of
//!   §4.6.
//!
//! The dispatcher's Benes network (§4.4) and the on-chip buffers (§4.5)
//! have no structural model: they enter the reports through area and
//! energy constants and the buffer traffic terms of `ta-core`.
//!
//! ## Quick example
//!
//! ```
//! use ta_sim::{dram_cycles, EnergyModel};
//!
//! let e = EnergyModel::paper_28nm();
//! assert!(e.mac_pj(8) > e.add_pj(12)); // why multiplication-free wins
//! assert!(e.dram_pj(1) > e.sram_pj_per_byte(64.0)); // why reuse on chip pays
//! assert_eq!(dram_cycles(1024), 4); // 256 B per cycle
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod area;
mod dram;
mod energy;
mod pipeline;
mod vpu;

pub use area::{baseline_area, table2, transarray_area, AreaModel, Component, SRAM_MM2_PER_KB};
pub use dram::{dram_cycles, DramModel, DRAM_BYTES_PER_CYCLE};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use pipeline::{fill_overhead, pipeline_cycles, steady_state_cycles};
pub use vpu::VpuModel;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Pipeline latency is bounded below by both the slowest stage's
        /// total and any single tile's stage sum.
        #[test]
        fn pipeline_bounds(
            tiles in proptest::collection::vec(
                proptest::collection::vec(0u64..50, 3), 1..20)
        ) {
            let total = pipeline_cycles(&tiles);
            for s in 0..3 {
                let stage_sum: u64 = tiles.iter().map(|t| t[s]).sum();
                prop_assert!(total >= stage_sum);
            }
            let first_sum: u64 = tiles[0].iter().sum();
            prop_assert!(total >= first_sum);
            // And above by the fully serialized schedule.
            let serial: u64 = tiles.iter().flatten().sum();
            prop_assert!(total <= serial);
        }
    }
}
