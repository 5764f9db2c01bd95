//! # ta-sim — hardware-modeling substrate for the Transitive Array
//!
//! The building blocks the cycle-level simulator (`ta-core`) and the
//! baseline models (`ta-baselines`) are assembled from:
//!
//! * [`BenesNetwork`] — the non-blocking distribution network of the
//!   dispatcher (§4.4), with a real looping-algorithm router;
//! * [`SramBuffer`] / [`DoubleBuffer`] — on-chip buffers with access
//!   counting;
//! * [`DramModel`] — shared off-chip bandwidth/energy model;
//! * [`EnergyModel`] / [`EnergyBreakdown`] — per-event pJ constants at the
//!   28 nm / 500 MHz operating point and Fig. 11's breakdown slices;
//! * [`AreaModel`] + the published Table 2 component areas;
//! * [`pipeline_cycles`] — the 3-stage double-buffered schedule math of
//!   §4.6.
//!
//! ## Quick example
//!
//! ```
//! use ta_sim::{BenesNetwork, EnergyModel};
//!
//! let net = BenesNetwork::new(8); // Table 1's "8-way Benes net"
//! let perm = [7usize, 6, 5, 4, 3, 2, 1, 0];
//! let routing = net.route(&perm);
//! let out = net.apply(&routing, &[0usize, 1, 2, 3, 4, 5, 6, 7]);
//! assert_eq!(out, vec![7, 6, 5, 4, 3, 2, 1, 0]);
//!
//! let e = EnergyModel::paper_28nm();
//! assert!(e.mac_pj(8) > e.add_pj(12)); // why multiplication-free wins
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod area;
mod benes;
mod dram;
mod energy;
mod pipeline;
mod sram;
mod vpu;

pub use area::{baseline_area, table2, transarray_area, AreaModel, Component, SRAM_MM2_PER_KB};
pub use benes::{BenesNetwork, BenesRouting};
pub use dram::DramModel;
pub use energy::{EnergyBreakdown, EnergyModel};
pub use pipeline::{fill_overhead, pipeline_cycles, steady_state_cycles};
pub use sram::{DoubleBuffer, SramBuffer};
pub use vpu::VpuModel;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn perm_strategy(n: usize) -> impl Strategy<Value = Vec<usize>> {
        Just((0..n).collect::<Vec<usize>>()).prop_shuffle()
    }

    proptest! {
        /// The Benes router realizes every permutation exactly.
        #[test]
        fn benes_routes_any_permutation(perm in perm_strategy(16)) {
            let net = BenesNetwork::new(16);
            let routing = net.route(&perm);
            let inputs: Vec<usize> = (0..16).collect();
            let out = net.apply(&routing, &inputs);
            for (o, &i) in perm.iter().enumerate() {
                prop_assert_eq!(out[o], i);
            }
        }

        /// Benes output is always a permutation of the input payloads.
        #[test]
        fn benes_preserves_payloads(perm in perm_strategy(8), base in 0u32..1000) {
            let net = BenesNetwork::new(8);
            let routing = net.route(&perm);
            let inputs: Vec<u32> = (0..8).map(|i| base + i).collect();
            let mut out = net.apply(&routing, &inputs);
            out.sort_unstable();
            prop_assert_eq!(out, inputs);
        }

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
