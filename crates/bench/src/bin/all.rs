//! Regenerates the paper's tables and figures, writing each as CSV and
//! JSON under `target/experiments/`.
//!
//! ```text
//! all [--smoke|--quick] [<artifact>...]
//! ```
//!
//! With no artifact names it runs the whole battery; with names it runs
//! only those, in battery order. Scale follows `--smoke`/`--quick` or
//! `TA_SCALE` (default full). An unknown flag or artifact exits 2.
use ta_bench::{emit, experiments, Scale, Table};

type Runner = fn(Scale) -> Vec<Table>;

/// The battery in run order: artifact name, banner, runner.
const BATTERY: [(&str, &str, Runner); 10] = [
    ("table1", "Table 1", |_| experiments::tables::table1()),
    ("table2", "Table 2", |_| experiments::tables::table2()),
    ("table3", "Table 3 (proxy)", experiments::tables::table3),
    ("fig9", "Fig 9", experiments::fig9::run),
    ("fig10", "Fig 10", experiments::fig10::run),
    ("fig11", "Fig 11", experiments::fig11::run),
    ("fig12", "Fig 12", experiments::fig12::run),
    ("fig13", "Fig 13", experiments::fig13::run),
    ("fig14", "Fig 14", experiments::fig14::run),
    ("ablation", "Ablations", experiments::ablation::run),
];

fn main() {
    let (flags, names): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a.starts_with('-'));
    let valid: Vec<&str> = BATTERY.iter().map(|(name, ..)| *name).collect();
    if let Some(bad) = names.iter().find(|n| !valid.contains(&n.as_str())) {
        eprintln!("error: unknown artifact '{bad}' (expected one of: {})", valid.join(" "));
        std::process::exit(2);
    }
    let scale = Scale::resolve(flags, std::env::var("TA_SCALE")).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    println!("=== Transitive Array reproduction — full evaluation ===\n");
    for (name, banner, run) in BATTERY {
        if names.is_empty() || names.iter().any(|n| n == name) {
            println!("--- {banner} ---");
            emit(&run(scale));
        }
    }
    println!("Done. CSVs under target/experiments/.");
}
