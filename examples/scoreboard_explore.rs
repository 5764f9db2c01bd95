//! Explore the Scoreboard on the paper's own worked example (Fig. 5):
//! TransRows 14, 2, 5, 1, 15, 7, 2 at T=4 — printing the Hasse forest,
//! lane assignment, and op classification the figure walks through.
//!
//! Run with: `cargo run --release --example scoreboard_explore`

use transitive_array::bitslice::TileView;
use transitive_array::hasse::{
    ExecScratch, ExecutionPlan, OpKind, Scoreboard, ScoreboardConfig, TileStats,
};

fn main() {
    let transrows: Vec<u16> = vec![14, 2, 5, 1, 15, 7, 2];
    println!("TransRows (Fig. 5 input): {transrows:?}\n");

    let sb = Scoreboard::build(ScoreboardConfig::with_width(4), transrows.iter().copied());

    println!("node  pattern  count  dist  parent  lane  kind");
    println!("-----------------------------------------------");
    for p in sb.active_nodes() {
        let e = sb.node(p);
        let kind = if e.transit {
            "TR (transit)"
        } else if sb.is_outlier(p) {
            "outlier"
        } else {
            "present"
        };
        println!(
            "{:>4}  {:04b}    {:>5}  {:>4}  {:>6}  {:>4}  {kind}",
            p,
            p,
            e.count,
            e.distance,
            if e.chosen_parent == u16::MAX { "-".to_string() } else { e.chosen_parent.to_string() },
            e.lane,
        );
    }

    let stats = TileStats::from_scoreboard(&sb);
    println!(
        "\nclassification: ZR={} FR={} PR={} TR={} (total ops {})",
        stats.zero_rows, stats.fr_rows, stats.pr_rows, stats.transit_ops, stats.total_ops
    );
    println!("density {:.1}% vs dense {} bit-ops", 100.0 * stats.density(), stats.dense_bit_ops);
    println!("lane PPE loads: {:?} (the figure's 4 + 4 OPs)", stats.lane_ppe);

    let plan = ExecutionPlan::from_scoreboard(&sb);
    println!("\nexecution plan (per lane, TranSparsity = node XOR prefix):");
    for (l, lane) in plan.lanes().iter().enumerate() {
        if lane.is_empty() {
            continue;
        }
        print!("  lane {l}: ");
        for op in lane {
            let tag = match op.kind {
                OpKind::Present => "",
                OpKind::Transit => "*",
            };
            print!("{:04b}{}<-{:04b}(^{:04b})  ", op.node, tag, op.prefix, op.diff);
        }
        println!();
    }
    println!("  (* = transit stop materialized by the backward pass)");

    // Evaluate with the paper's Fig. 1 input column [6, -2, -5, 4]: one
    // input row per TransRow bit, one column. The closure sink sees each
    // result in execution order.
    let inputs = [6i64, -2, -5, 4];
    println!("\nresults with input (bit0..bit3) = [6, -2, -5, 4]:");
    let mut print = |pattern: u16, v: &[i64]| println!("  result[{pattern:04b}] = {}", v[0]);
    plan.evaluate_into(TileView::new(&inputs, 4, 1, 1), &mut ExecScratch::new(), &mut print);
}
