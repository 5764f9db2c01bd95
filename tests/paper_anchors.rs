//! Integration tests pinning the reproduction to the paper's *printed
//! numbers* — the quantitative anchors of the evaluation section.

use transitive_array::bitslice::{bitonic_depth, BitSlicedMatrix};
use transitive_array::core::PatternSource;
use transitive_array::hasse::{Scoreboard, ScoreboardConfig, StaticSi, TileStats};
use transitive_array::models::UniformBitSource;
use transitive_array::quant::MatI32;
use transitive_array::sim::{transarray_area, EnergyModel};

#[test]
fn fig1_motivating_example_op_counts() {
    // Fig. 1: rows 1011, 1111, 0011, 0010 — dense GEMM 16 ops, bit
    // sparsity 10 ops, transitive sparsity 4 ops.
    let patterns = [0b1011u16, 0b1111, 0b0011, 0b0010];
    let dense: u64 = 4 * 4;
    let bits: u64 = patterns.iter().map(|p| p.count_ones() as u64).sum();
    let sb = Scoreboard::build(ScoreboardConfig::with_width(4), patterns);
    let trans = TileStats::from_scoreboard(&sb).total_ops;
    assert_eq!(dense, 16);
    assert_eq!(bits, 10);
    assert_eq!(trans, 4);
}

#[test]
fn abstract_speedup_claim_8x_over_dense() {
    // "transitive sparsity theoretically reduces overall computations by
    // 8× (i.e., 87.5% sparsity)" for 8-bit at the paper's tile size.
    let mut src = UniformBitSource::new(8, 256, 9);
    let mut total: Option<TileStats> = None;
    for t in 0..16 {
        let sb = Scoreboard::build(ScoreboardConfig::with_width(8), src.subtile_patterns(t, 0));
        let s = TileStats::from_scoreboard(&sb);
        match &mut total {
            None => total = Some(s),
            Some(acc) => acc.merge(&s),
        }
    }
    let density = total.unwrap().density();
    assert!(
        (0.118..0.135).contains(&density),
        "density {density} should be ≈ 1/8 (87.5% sparsity)"
    );
}

#[test]
fn si_storage_is_512_bytes_at_8bit() {
    // §3.2: "When T = 8, the SI needs only 512 Bytes of memory."
    let si = StaticSi::from_patterns(ScoreboardConfig::with_width(8), [1u16, 2, 3]);
    assert_eq!(si.storage_bits() / 8, 512);
}

#[test]
fn parallelism_levels_match_section_2_4() {
    // §2.4: level S/2 parallelism is C(4,2)=6 for 4-bit, C(8,4)=70 for
    // 8-bit; the chosen granularity is level 1: 4 and 8 lanes.
    use transitive_array::bitslice::binomial;
    assert_eq!(binomial(4, 2), 6);
    assert_eq!(binomial(8, 4), 70);
    let sb4 = ScoreboardConfig::with_width(4);
    let sb8 = ScoreboardConfig::with_width(8);
    assert_eq!(sb4.effective_lanes(), 4);
    assert_eq!(sb8.effective_lanes(), 8);
}

#[test]
fn table2_core_areas() {
    // TransArray core 0.443 mm² (6 units), smallest in the roster.
    let a = transarray_area(6, 8, 32, 480.0);
    assert!((a.core_mm2() - 0.443).abs() < 0.015, "{}", a.core_mm2());
}

#[test]
fn scoreboard_throughput_bound_section_4_6() {
    // min(n, 2^T)/T < n/T for n > 2^T: with 512 rows at T=8 the
    // Scoreboard needs 32 cycle-groups, half of the 64 PPE/APE would use.
    let patterns: Vec<u16> = (0..512u32).map(|i| (i % 256) as u16).collect();
    let sb = Scoreboard::build(ScoreboardConfig::with_width(8), patterns);
    let stats = TileStats::from_scoreboard(&sb);
    assert_eq!(stats.scoreboard_cycles, 32);
    assert!(stats.scoreboard_cycles <= stats.ape_cycles());
    // And the sorter depth for 256-row tiles is 36 stages.
    assert_eq!(bitonic_depth(256), 36);
}

#[test]
fn distance_gt1_rows_are_rare_at_design_point() {
    // §4.6: "only approximately 1.67% of TransRows in our design have
    // distances greater than 1" (8-bit, 256-row tiles).
    let mut src = UniformBitSource::new(8, 256, 31);
    let mut gt1 = 0u64;
    let mut rows = 0u64;
    for t in 0..32 {
        let sb = Scoreboard::build(ScoreboardConfig::with_width(8), src.subtile_patterns(t, 0));
        let s = TileStats::from_scoreboard(&sb);
        gt1 += s.distance_rows[2..].iter().sum::<u64>() + s.outlier_rows as u64;
        rows += s.rows as u64;
    }
    let frac = gt1 as f64 / rows as f64;
    assert!(frac < 0.05, "distance>1 fraction {frac} (paper: ~1.67%)");
}

#[test]
fn energy_model_motivates_multiplication_free() {
    // The architectural pitch: a 12-bit adder is far cheaper than the
    // baselines' multipliers.
    let e = EnergyModel::paper_28nm();
    assert!(e.mult_pj(8) / e.add_pj(12) > 4.0);
}

#[test]
fn quantized_llama_like_matrix_round_trips_at_scale() {
    // A bigger slice-reconstruct at int8 (the Fig. 2 pipeline).
    let w = MatI32::from_fn(64, 96, |r, c| (((r * 96 + c) as i64 * 2654435761 % 255) - 127) as i32);
    let sliced = BitSlicedMatrix::slice(&w, 8);
    assert_eq!(sliced.reconstruct(), w);
    assert_eq!(sliced.binary_rows(), 512);
}
