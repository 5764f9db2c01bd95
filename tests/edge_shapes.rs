//! Edge-shape integration tests: the tiling engine must stay exact when
//! dimensions don't divide the tile sizes — skinny K, tall N, single
//! columns, and the paper's full 8-bit width on tiny matrices.

use transitive_array::core::{GemmReport, GemmRequest, ScoreboardMode, Session, TransArrayConfig};
use transitive_array::models::StreamRng;
use transitive_array::quant::{gemm_i32, MatI32};

fn gauss_mat(rows: usize, cols: usize, bits: u32, seed: u64) -> MatI32 {
    let qmax = (1i32 << (bits - 1)) - 1;
    let mut rng = StreamRng::new(seed);
    MatI32::from_fn(rows, cols, |_, _| {
        ((rng.next_gaussian() * qmax as f32 / 3.0).round() as i32).clamp(-qmax - 1, qmax)
    })
}

fn execute(cfg: TransArrayConfig, w: &MatI32, x: &MatI32) -> (MatI32, GemmReport) {
    let session = Session::new(cfg).unwrap();
    let resp = session.run(GemmRequest::execute(w.clone(), x.clone())).unwrap();
    (resp.output.unwrap(), resp.report)
}

fn paper_cfg(weight_bits: u32, mode: ScoreboardMode) -> TransArrayConfig {
    // The real T=8 design point, small unit count for test speed.
    TransArrayConfig {
        weight_bits,
        units: 2,
        sample_limit: 0,
        scoreboard_mode: mode,
        ..if weight_bits == 4 { TransArrayConfig::paper_w4() } else { TransArrayConfig::paper_w8() }
    }
}

#[test]
fn k_smaller_than_transrow_width() {
    // K = 3 < T = 8: every sub-tile is column-padded.
    let w = gauss_mat(5, 3, 8, 1);
    let x = gauss_mat(3, 4, 8, 2);
    let (out, _) = execute(paper_cfg(8, ScoreboardMode::Dynamic), &w, &x);
    assert_eq!(out, gemm_i32(&w, &x));
}

#[test]
fn n_smaller_than_weight_tile() {
    // N = 3 < n_tile = 32: row padding.
    let w = gauss_mat(3, 20, 8, 3);
    let x = gauss_mat(20, 5, 8, 4);
    let (out, _) = execute(paper_cfg(8, ScoreboardMode::Dynamic), &w, &x);
    assert_eq!(out, gemm_i32(&w, &x));
}

#[test]
fn single_column_gemv() {
    // M = 1 (decode-style GEMV).
    let w = gauss_mat(40, 24, 4, 5);
    let x = gauss_mat(24, 1, 8, 6);
    let (out, _) = execute(paper_cfg(4, ScoreboardMode::Dynamic), &w, &x);
    assert_eq!(out, gemm_i32(&w, &x));
}

#[test]
fn one_by_one_matrix() {
    let w = MatI32::from_rows(&[&[-8]]);
    let x = MatI32::from_rows(&[&[127]]);
    let (out, _) = execute(paper_cfg(4, ScoreboardMode::Dynamic), &w, &x);
    assert_eq!(out.get(0, 0), -8 * 127);
}

#[test]
fn full_width_static_mode_with_ragged_dims() {
    // Static SI at T=8 with dimensions that divide nothing.
    let w = gauss_mat(37, 53, 8, 7);
    let x = gauss_mat(53, 11, 8, 8);
    let (out, rep) = execute(paper_cfg(8, ScoreboardMode::Static), &w, &x);
    assert_eq!(out, gemm_i32(&w, &x));
    assert!(rep.si_misses > 0 || rep.total_ops > 0);
}

#[test]
fn extreme_values_saturate_without_overflow() {
    // All-extreme int8 weights × all-extreme int8 inputs at K large
    // enough to stress the accumulators but not i32.
    let w = MatI32::from_fn(4, 64, |_, c| if c % 2 == 0 { -128 } else { 127 });
    let x = MatI32::from_fn(64, 3, |r, _| if r % 2 == 0 { 127 } else { -128 });
    let (out, _) = execute(paper_cfg(8, ScoreboardMode::Dynamic), &w, &x);
    assert_eq!(out, gemm_i32(&w, &x));
}

#[test]
fn all_same_pattern_tile_hits_the_density_floor() {
    // A rank-deficient weight (identical rows) turns almost every row
    // into an FR after the first — but FR rows still cost one accumulate
    // each, so density sits exactly at the paper's 1/T floor ("we must
    // perform at least one accumulation operation for every T-bit
    // element", §5.2) instead of below it.
    let row: Vec<i32> = (0..32).map(|c| ((c * 7) % 255) - 127).collect();
    let w = MatI32::from_fn(32, 32, |_, c| row[c]);
    let x = gauss_mat(32, 8, 8, 9);
    let (out, rep) = execute(paper_cfg(8, ScoreboardMode::Dynamic), &w, &x);
    assert_eq!(out, gemm_i32(&w, &x));
    assert!(
        (0.120..0.132).contains(&rep.density),
        "density {} should pin to 1/T = 0.125",
        rep.density
    );
}
