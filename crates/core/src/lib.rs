//! # ta-core — the Transitive Array accelerator
//!
//! The paper's primary contribution (§4): a multiplication-free GEMM
//! accelerator exploiting transitive sparsity. This crate assembles the
//! Scoreboard (`ta-hasse`), the bit-slicing engine (`ta-bitslice`), and
//! the hardware substrates (`ta-sim`) into:
//!
//! * [`TransArrayConfig`] — Table 1's design point (T=8, 256 TransRows,
//!   6 units, 80 KB/unit buffers) with every knob the DSE sweeps, behind
//!   the validating [`ConfigBuilder`];
//! * [`Session`] / [`GemmRequest`] / [`GemmResponse`] — the one front
//!   door: an *execute* request runs the exact functional engine that
//!   proves the architecture lossless against [`ta_quant::gemm_i32`]; a
//!   *simulate* request runs tiled layer simulation with deterministic
//!   sampling for LLM-scale layers. Both return a [`GemmReport`] (cycles,
//!   DRAM traffic, energy) or a typed [`TaError`], and `ta-serve` runs a
//!   multi-tenant serving frontend behind them. Only the output leaves
//!   the array: the per-node prefix results stay inside the engine, as
//!   they stay in the unit's prefix buffer (Fig. 7(b));
//! * [`runtime`] — the std-only scoped-thread worker pool behind the
//!   `threads` knob, with a bit-exact determinism contract.
//!
//! Under the front door there is one engine path per Scoreboard mode: one
//! plan provider per sub-tile (plan cache on or off), one unit routine
//! that processes and evaluates a sub-tile (Fig. 8), and one sharded
//! walker per request (serial is the one-shard case).
//!
//! ## Quick example
//!
//! ```
//! use ta_core::{GemmRequest, Session, TransArrayConfig};
//! use ta_quant::{gemm_i32, MatI32};
//!
//! let cfg = TransArrayConfig {
//!     width: 4, max_transrows: 16, weight_bits: 4, m_tile: 4,
//!     sample_limit: 0, ..TransArrayConfig::paper_w8()
//! };
//! let session = Session::new(cfg).unwrap();
//! let w = MatI32::from_rows(&[&[3, -5, 7, 1], &[-8, 2, 0, 6]]);
//! let x = MatI32::from_rows(&[&[1, 2], &[3, 4], &[5, 6], &[7, 8]]);
//! let resp = session.run(GemmRequest::execute(w.clone(), x.clone())).unwrap();
//! assert_eq!(resp.output.unwrap(), gemm_i32(&w, &x)); // lossless
//! assert!(resp.report.density < 1.0);                 // and sparse
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod accelerator;
mod config;
pub mod error;
pub mod runtime;
mod session;
mod source;
mod tiling;
mod unit;

pub use accelerator::{GemmReport, TransitiveArray};
pub use config::{ConfigBuilder, ScoreboardMode, TransArrayConfig};
pub use error::{ConfigError, TaError};
pub use runtime::Runtime;
pub use session::{GemmRequest, GemmResponse, Session};
pub use source::{PatternSource, SlicedSource};
pub use tiling::{dram_traffic, GemmShape, TrafficReport};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use ta_quant::{gemm_i32, MatI32};

    fn mat(bits: u32, rows: usize, cols: usize) -> impl Strategy<Value = MatI32> {
        let hi = (1i32 << (bits - 1)) - 1;
        let lo = -(1i32 << (bits - 1));
        proptest::collection::vec(lo..=hi, rows * cols)
            .prop_map(move |v| MatI32::from_vec(rows, cols, v))
    }

    fn run(cfg: TransArrayConfig, w: &MatI32, x: &MatI32) -> (MatI32, GemmReport) {
        let resp = Session::new(cfg).unwrap().run(GemmRequest::execute(w.clone(), x.clone()));
        let resp = resp.unwrap();
        (resp.output.unwrap(), resp.report)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The headline invariant: TransArray GEMM ≡ dense integer GEMM,
        /// bit-exactly, for arbitrary matrices in both Scoreboard modes
        /// and both weight precisions.
        #[test]
        fn transitive_gemm_is_lossless(
            dims in (1usize..8, 1usize..12, 1usize..5),
            static_mode in proptest::bool::ANY,
            weight_bits in prop_oneof![Just(4u32), Just(8u32)],
            seed in 0i64..100_000,
        ) {
            let (n, k, m) = dims;
            let hi = (1i64 << (weight_bits - 1)) - 1;
            let span = 2 * hi + 1;
            let w = MatI32::from_fn(n, k, |r, c| {
                let x = (r as i64 * 2654435761 + c as i64 * 40503 + seed * 7919) % span;
                (x - hi) as i32
            });
            let x = MatI32::from_fn(k, m, |r, c| {
                let v = (r as i64 * 104729 + c as i64 * 1299709 + seed) % 255;
                (v - 127) as i32
            });
            let cfg = TransArrayConfig {
                width: 4,
                max_transrows: weight_bits as usize * 2,
                weight_bits,
                m_tile: 4,
                units: 2,
                sample_limit: 0,
                scoreboard_mode: if static_mode {
                    ScoreboardMode::Static
                } else {
                    ScoreboardMode::Dynamic
                },
                ..TransArrayConfig::paper_w8()
            };
            let (out, rep) = run(cfg, &w, &x);
            prop_assert_eq!(out, gemm_i32(&w, &x));
            prop_assert!(rep.density <= 1.0 + 1e-9);
        }

        /// Random-valued matrices drawn directly by proptest are exact too
        /// (deeper value coverage than the seeded variant).
        #[test]
        fn lossless_on_proptest_values(
            w in mat(4, 4, 6),
            x in mat(8, 6, 3),
        ) {
            let cfg = TransArrayConfig {
                width: 4, max_transrows: 8, weight_bits: 4, m_tile: 2,
                units: 1, sample_limit: 0,
                ..TransArrayConfig::paper_w8()
            };
            let (out, _) = run(cfg, &w, &x);
            prop_assert_eq!(out, gemm_i32(&w, &x));
        }

        /// Density never exceeds 1 and ops respect the dense bound.
        #[test]
        fn density_bounds(w in mat(4, 8, 8)) {
            let x = MatI32::from_fn(8, 2, |r, c| (r as i32 - c as i32) * 3);
            let cfg = TransArrayConfig {
                width: 4, max_transrows: 8, weight_bits: 4, m_tile: 2,
                units: 1, sample_limit: 0,
                ..TransArrayConfig::paper_w8()
            };
            let (_, rep) = run(cfg, &w, &x);
            prop_assert!(rep.density <= 1.0 + 1e-9, "density {}", rep.density);
            prop_assert!(rep.total_ops <= rep.dense_bit_ops);
        }
    }
}
