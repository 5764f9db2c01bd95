//! # ta-bench — the experiment harness
//!
//! Regenerates **every table and figure** of the paper's evaluation
//! (§5). Each artifact has a library entry point under [`experiments`]
//! and a name for the `all` binary, which runs the complete battery —
//! or only the named artifacts, in battery order (`cargo run -p ta-bench
//! --release --bin all -- fig9 table2`) — and writes CSVs to
//! `target/experiments/`.
//!
//! | Name    | Paper artifact |
//! |---------|----------------|
//! | `table1`| Table 1 — TransArray unit spec |
//! | `table2`| Table 2 — area comparison |
//! | `table3`| Table 3 — model accuracy (quantization-quality proxy) |
//! | `fig9`  | Fig. 9 — design-space exploration (4 panels) |
//! | `fig10` | Fig. 10 — FC-layer runtime & energy |
//! | `fig11` | Fig. 11 — energy breakdown |
//! | `fig12` | Fig. 12 — attention-layer speedups |
//! | `fig13` | Fig. 13 — static vs dynamic Scoreboard |
//! | `fig14` | Fig. 14 — ResNet-18 per-layer speedups |
//! | `ablation` | Ablation studies |
//!
//! Pass `--smoke` or set `TA_SCALE=quick` for smoke-scale runs.
//!
//! The `bench_smoke` binary additionally runs the [`perf`] suite, writes
//! a machine-readable `BENCH_<sha>.json` of metric rows, and gates each
//! row against the committed `BENCH_baseline.json` by its class.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alloc_count;
pub mod experiments;
pub mod perf;
mod report;

pub use report::{experiments_dir, fmt3, geomean, Table};
// The run-size policy moved to `ta-workloads` with the rest of the
// workload definitions; re-export it so `ta_bench::Scale` and
// `crate::scale::Scale` keep resolving.
pub use ta_workloads::scale;
pub use ta_workloads::Scale;

/// Prints a set of tables and writes each as CSV **and** JSON under
/// `target/experiments/`, reporting any I/O problem to stderr without
/// failing the run.
pub fn emit(tables: &[Table]) {
    let dir = experiments_dir();
    for t in tables {
        t.print();
        match t.write_csv(&dir) {
            Ok(path) => println!("[csv] {}", path.display()),
            Err(e) => eprintln!("[csv] failed to write {}: {e}", t.title),
        }
        match t.write_json(&dir) {
            Ok(path) => println!("[json] {}\n", path.display()),
            Err(e) => eprintln!("[json] failed to write {}: {e}", t.title),
        }
    }
}
