//! Fig. 9 — design-space exploration of TranSparsity on a uniform random
//! 0-1 matrix: (a) density vs tiling row size across bit widths, (b)
//! node-type percentages vs bit width at row size 256, (c) node-type
//! percentages vs row size at 8-bit, (d) distance histograms vs row size
//! at 8-bit.

use crate::report::{fmt3, Table};
use crate::scale::Scale;
// The design point itself (sweep axes + Scoreboard aggregation) is a
// workload definition and lives in `ta-workloads`; these re-exports
// keep `crate::experiments::fig9::design_point` resolving while this
// module owns only the table rendering.
pub use ta_workloads::fig9::{design_point, BIT_WIDTHS, ROW_SIZES};

/// Runs all four panels.
pub fn run(scale: Scale) -> Vec<Table> {
    vec![panel_a(scale), panel_b(scale), panel_c(scale), panel_d(scale)]
}

/// Panel (a): overall density (%) vs tiling row size for every bit width.
pub fn panel_a(scale: Scale) -> Table {
    let mut headers = vec!["row_size".to_string()];
    headers.extend(BIT_WIDTHS.iter().map(|t| format!("{t}-bit")));
    let mut table = Table::new(
        "Fig 9(a) overall density % vs tiling row size (uniform random)",
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for &rows in &ROW_SIZES {
        let mut cells = vec![rows.to_string()];
        for &t in &BIT_WIDTHS {
            let s = design_point(t, rows, scale.tiles, 42 + t as u64);
            cells.push(fmt3(100.0 * s.density()));
        }
        table.push_row(cells);
    }
    table
}

/// Panel (b): node-type percentages vs bit width at row size 256.
pub fn panel_b(scale: Scale) -> Table {
    let mut table = Table::new(
        "Fig 9(b) node type % vs TranSparsity bit-width (row size 256)",
        &["bit_width", "ZR_sparsity", "TR_density", "FR_density", "PR_density", "total_density"],
    );
    for &t in &BIT_WIDTHS {
        let s = design_point(t, 256, scale.tiles, 7 + t as u64);
        table.push_row(vec![
            t.to_string(),
            fmt3(100.0 * s.zr_sparsity()),
            fmt3(100.0 * s.tr_density()),
            fmt3(100.0 * s.fr_density()),
            fmt3(100.0 * s.pr_density()),
            fmt3(100.0 * s.density()),
        ]);
    }
    table
}

/// Panel (c): node-type percentages vs row size at 8-bit TranSparsity.
pub fn panel_c(scale: Scale) -> Table {
    let mut table = Table::new(
        "Fig 9(c) node type % vs tiling row size (8-bit TranSparsity)",
        &["row_size", "ZR_sparsity", "TR_density", "FR_density", "PR_density", "total_density"],
    );
    for &rows in &ROW_SIZES {
        let s = design_point(8, rows, scale.tiles, 11);
        table.push_row(vec![
            rows.to_string(),
            fmt3(100.0 * s.zr_sparsity()),
            fmt3(100.0 * s.tr_density()),
            fmt3(100.0 * s.fr_density()),
            fmt3(100.0 * s.pr_density()),
            fmt3(100.0 * s.density()),
        ]);
    }
    table
}

/// Panel (d): rows per prefix distance vs row size at 8-bit (Dis-1…Dis-5;
/// distances ≥ 5 bucketed into Dis-5, matching the figure's legend).
pub fn panel_d(scale: Scale) -> Table {
    let mut table = Table::new(
        "Fig 9(d) rows per distance vs tiling row size (8-bit)",
        &["row_size", "Dis-1", "Dis-2", "Dis-3", "Dis-4", "Dis-5+"],
    );
    for &rows in &ROW_SIZES {
        let s = design_point(8, rows, scale.tiles, 23);
        let d5plus: u64 = s.distance_rows[5..].iter().sum();
        table.push_row(vec![
            rows.to_string(),
            s.distance_rows[1].to_string(),
            s.distance_rows[2].to_string(),
            s.distance_rows[3].to_string(),
            s.distance_rows[4].to_string(),
            d5plus.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_a_reproduces_paper_anchors() {
        // Fig. 9(a) prints 23.43 (T=4), 12.57 (T=8) at row size 256.
        let s4 = design_point(4, 256, 4, 46);
        let s8 = design_point(8, 256, 4, 50);
        assert!((100.0 * s4.density() - 23.43).abs() < 1.2, "{}", 100.0 * s4.density());
        assert!((100.0 * s8.density() - 12.57).abs() < 0.8, "{}", 100.0 * s8.density());
    }

    #[test]
    fn density_u_shape_over_bit_width() {
        // Density falls to the 8/10-bit Pareto point then rises again.
        let d: Vec<f64> =
            [2u32, 8, 16].iter().map(|&t| design_point(t, 256, 3, 9).density()).collect();
        assert!(d[0] > d[1], "2-bit {} vs 8-bit {}", d[0], d[1]);
        assert!(d[2] > d[1], "16-bit {} vs 8-bit {}", d[2], d[1]);
    }

    #[test]
    fn density_stabilizes_beyond_256_rows() {
        // §5.2: beyond 256 rows the 8-bit density stabilizes.
        let d256 = design_point(8, 256, 3, 1).density();
        let d1024 = design_point(8, 1024, 3, 1).density();
        assert!((d256 - d1024).abs() < 0.01, "{d256} vs {d1024}");
    }

    #[test]
    fn fig9d_distance_structure() {
        // At row size 256 nearly every pattern is present → distances
        // overwhelmingly 1, no Dis-4.
        let s = design_point(8, 256, 3, 2);
        assert!(s.distance_rows[1] > 50 * s.distance_rows[3].max(1));
        assert_eq!(s.distance_rows[4], 0);
    }

    #[test]
    fn run_produces_four_tables() {
        let tables = run(Scale::quick());
        assert_eq!(tables.len(), 4);
        assert_eq!(tables[0].rows.len(), ROW_SIZES.len());
        assert_eq!(tables[1].rows.len(), BIT_WIDTHS.len());
    }
}
