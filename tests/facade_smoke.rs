//! Workspace smoke test: every `transitive_array` facade re-export resolves
//! and the cross-crate pipeline the README advertises actually runs.
//!
//! This is deliberately shallow — deep behaviour is covered by each crate's
//! own tests and the other integration suites. What this guards is the
//! facade wiring itself: a sub-crate dropped from `src/lib.rs` (or a renamed
//! re-export) fails here even if the sub-crate's tests still pass.

use transitive_array::baselines::Baseline;
use transitive_array::bitslice::BitSlicedMatrix;
use transitive_array::core::{GemmRequest, GemmShape, Session, TransArrayConfig};
use transitive_array::hasse::{Scoreboard, ScoreboardConfig};
use transitive_array::models::resnet18_layers;
use transitive_array::quant::{gemm_i32, MatI32};
use transitive_array::sim::{transarray_area, EnergyModel};

#[test]
fn version_constant_resolves() {
    assert!(!transitive_array::VERSION.is_empty());
}

#[test]
fn every_subcrate_is_reachable_through_the_facade() {
    // quant: dense integer reference GEMM.
    let w = MatI32::from_fn(4, 8, |r, c| (r as i32 * 3 + c as i32) % 7 - 3);
    let x = MatI32::from_fn(8, 2, |r, c| (r as i32 - c as i32) * 2);
    let dense = gemm_i32(&w, &x);
    assert_eq!(dense.rows(), 4);
    assert_eq!(dense.cols(), 2);

    // bitslice: slice/reconstruct round-trip.
    let sliced = BitSlicedMatrix::slice(&w, 4);
    assert_eq!(sliced.reconstruct(), w);

    // hasse: a Scoreboard builds from a handful of patterns.
    let sb = Scoreboard::build(ScoreboardConfig::with_width(4), [0b1010u16, 0b0110, 0b1111]);
    assert!(sb.active_nodes().count() > 0);

    // sim: the area model prices a TransArray core.
    assert!(transarray_area(8, 8, 8, 64.0).total_mm2() > 0.0);

    // core: the accelerator agrees with the dense reference.
    let cfg = TransArrayConfig {
        width: 4,
        max_transrows: 8,
        weight_bits: 4,
        m_tile: 2,
        sample_limit: 0,
        ..TransArrayConfig::paper_w8()
    };
    let resp = Session::new(cfg).unwrap().run(GemmRequest::execute(w, x)).unwrap();
    assert_eq!(resp.output.unwrap(), dense);
    assert!(resp.report.density <= 1.0 + 1e-9);

    // baselines: a named baseline simulates a small shape.
    let shape = GemmShape { n: 16, k: 16, m: 16 };
    let rep = Baseline::bitfusion().simulate_gemm(shape, 8, 8, &EnergyModel::paper_28nm());
    assert!(rep.cycles > 0);

    // models: the ResNet-18 roster is non-empty.
    assert!(!resnet18_layers().is_empty());
}
