//! # transitive-array — facade crate
//!
//! Full-system Rust reproduction of **"Transitive Array: An Efficient GEMM
//! Accelerator with Result Reuse"** (ISCA 2025). This crate re-exports the
//! workspace's sub-crates under one roof so applications can depend on a
//! single package:
//!
//! * [`quant`] — quantization schemes, calibration, Table 3 method roster;
//! * [`bitslice`] — 2's-complement bit-slicing, TransRows, im2col;
//! * [`hasse`] — the Hasse-graph Scoreboard (forward/backward passes,
//!   balanced forest, static & dynamic SI);
//! * [`sim`] — hardware constants and formulas (DRAM bandwidth, pipeline,
//!   energy/area);
//! * [`core`] — the Transitive Array accelerator itself;
//! * [`baselines`] — BitFusion / ANT / Olive / Tender / BitVert models;
//! * [`models`] — LLaMA & ResNet-18 workloads and synthetic tensors;
//! * [`serve`] — the multi-tenant continuous-batching serving frontend;
//! * [`workloads`] — the workload registry and model zoo (every named
//!   benchmark/figure/example workload, with oracles and seeds);
//! * [`mod@bench`] — the benchmark/report toolkit (scale presets, perf gates).
//!
//! Most applications only need the [`prelude`]:
//!
//! ```
//! use transitive_array::prelude::*;
//!
//! let session = Session::new(TransArrayConfig::builder().build()?)?;
//! # Ok::<(), TaError>(())
//! ```
//!
//! See `examples/quickstart.rs` for the 60-second tour and DESIGN.md for
//! the system inventory.

#![forbid(unsafe_code)]

pub use ta_baselines as baselines;
pub use ta_bench as bench;
pub use ta_bitslice as bitslice;
pub use ta_core as core;
pub use ta_hasse as hasse;
pub use ta_models as models;
pub use ta_quant as quant;
pub use ta_serve as serve;
pub use ta_sim as sim;
pub use ta_workloads as workloads;

/// The one-import surface for applications: the request API
/// ([`Session`](prelude::Session) and friends), its error types, the
/// serving frontend, the word-parallel [`kernels`](prelude::kernels)
/// facade, and the handful of support types they mention.
pub mod prelude {
    pub use ta_bench::Scale;
    pub use ta_bitslice::kernels;
    pub use ta_core::error::{ConfigError, TaError};
    pub use ta_core::{
        ConfigBuilder, GemmReport, GemmRequest, GemmResponse, GemmShape, ScoreboardMode, Session,
        TransArrayConfig, TransitiveArray,
    };
    pub use ta_quant::{gemm_i32, MatI32};
    pub use ta_serve::{
        BatchPolicy, ClockMode, FaultConfig, FaultSite, FaultStats, RejectReason, ServeError,
        ServeResponse, Server, ServerConfig, ServerStats, SloPolicy, Ticket,
    };
}

/// The workspace version, shared by all sub-crates.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_set() {
        assert!(!super::VERSION.is_empty());
    }
}
