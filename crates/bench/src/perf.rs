//! Machine-readable performance records and the CI regression gate.
//!
//! The `bench_smoke` binary runs [`run_suite`] — a fixed workload roster
//! (a Fig. 9 design point, a full-scale LLaMA-7B `q_proj` layer simulated
//! serially, in parallel and plan-cached, the exact execution engine, the
//! serving frontend and the word-parallel kernels) — and writes the
//! result as `BENCH_<sha>.json`. CI compares that against the committed
//! `BENCH_baseline.json` with [`compare`].
//!
//! A report is a short header plus one flat list of [`MetricRow`]s
//! `{workload, metric, value, better, class}`. Each row's [`GateClass`]
//! is fixed by the suite, and it alone decides how [`compare`] gates the
//! row:
//!
//! | Class | Gate |
//! |---|---|
//! | `Exact` | equal to the baseline (deterministic counters) |
//! | `Model` | within [`GATE_TOLERANCE`] (deterministic model ratios) |
//! | `SerialWall` | within `GATE_TOLERANCE ×` [`WALL_TOLERANCE_FACTOR`], on every host |
//! | `ParallelWall` | as `SerialWall`, armed only when baseline and run saw the same `host_cores` ≥ 4 |
//! | `Info` | recorded, never gated |
//!
//! Wall rows named `wall_norm` are divided by an in-process dense-GEMM
//! calibration loop timed the same way, so "this runner is 2× slower
//! than the baseline machine" cancels out while "this commit made the
//! simulator 2× slower" does not.
//!
//! `suite` measures (timing machinery and roster assembly — the workload
//! *definitions* live in `ta-workloads`), `gate` compares runs against
//! baselines, and `json` is the purpose-built micro-codec (serde is
//! unavailable offline) for the schema-8 format.

mod gate;
mod json;
mod suite;

pub use gate::{compare, disabled_summary, inject_slowdown, GateOutcome, WALL_TOLERANCE_FACTOR};
pub(crate) use json::json_str;
pub use suite::run_suite;

/// Default plan-cache capacity for the cached LLaMA-7B workload (see
/// [`ta_workloads::l7b`]).
pub use ta_workloads::l7b::DEFAULT_PLAN_CACHE_ENTRIES;

/// Relative regression tolerance of the CI gate (>20% fails).
pub const GATE_TOLERANCE: f64 = 0.20;

/// The only report schema the codec reads and writes.
pub const SCHEMA: u64 = 8;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (cycles, wall time, latency).
    Lower,
    /// Larger values are better (throughput, speedup, hit rate).
    Higher,
}

/// How [`compare`] gates a row; see the module docs for the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateClass {
    /// Deterministic counter: must equal the baseline.
    Exact,
    /// Deterministic model ratio: within [`GATE_TOLERANCE`].
    Model,
    /// Single-threaded wall metric, stable enough to gate on any host.
    SerialWall,
    /// Wall metric that depends on the host's shape (worker threads, or
    /// an iteration too short to time reliably on a shared host).
    ParallelWall,
    /// Recorded, never gated.
    Info,
}

impl GateClass {
    /// Whether the row is a wall-clock metric.
    pub fn is_wall(self) -> bool {
        matches!(self, Self::SerialWall | Self::ParallelWall)
    }
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRow {
    /// Workload name (stable across runs; the gate joins on it).
    pub workload: String,
    /// Metric name within the workload.
    pub metric: String,
    /// The measured value.
    pub value: f64,
    /// Which direction is an improvement.
    pub better: Better,
    /// How the gate treats the row.
    pub class: GateClass,
}

impl MetricRow {
    /// Builds a row.
    pub fn new(workload: &str, metric: &str, value: f64, better: Better, class: GateClass) -> Self {
        Self { workload: workload.into(), metric: metric.into(), value, better, class }
    }

    /// `workload/metric`, the row's name in gate messages.
    pub fn id(&self) -> String {
        format!("{}/{}", self.workload, self.metric)
    }
}

/// One full bench-smoke run.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Commit the run measured.
    pub sha: String,
    /// Scale name (`quick`/`full`) — baselines only compare at equal scale.
    pub scale: String,
    /// Resolved parallel worker count used by the `*_parallel` workloads.
    pub threads: usize,
    /// Available host cores; `ParallelWall` rows gate only when the
    /// baseline and the run agree on it and it is at least 4.
    pub host_cores: usize,
    /// Wall seconds of the dense-GEMM calibration loop.
    pub calibration_wall_s: f64,
    /// Every measured value, in roster order.
    pub rows: Vec<MetricRow>,
}

impl PerfReport {
    /// The row for `workload`/`metric`, if the run measured it.
    pub fn row(&self, workload: &str, metric: &str) -> Option<&MetricRow> {
        self.rows.iter().find(|r| r.workload == workload && r.metric == metric)
    }

    /// The value of `workload`/`metric`, if the run measured it.
    pub fn value(&self, workload: &str, metric: &str) -> Option<f64> {
        self.row(workload, metric).map(|r| r.value)
    }
}

/// Shared report fixture of the gate and codec tests.
#[cfg(test)]
pub(crate) mod test_fixture {
    use super::{Better::*, GateClass::*, *};

    pub(crate) fn sample_report() -> PerfReport {
        let row = MetricRow::new;
        PerfReport {
            sha: "abc123".into(),
            scale: "quick".into(),
            threads: 4,
            host_cores: 8,
            calibration_wall_s: 0.00125,
            rows: vec![
                row("l7b_qproj_serial", "cycles", 123_456_789.0, Lower, Exact),
                row("l7b_qproj_serial", "density", 0.126, Lower, Model),
                row("l7b_qproj_serial", "macs_per_cycle", 512.5, Higher, Model),
                row("l7b_qproj_serial", "wall_norm", 1200.0, Lower, SerialWall),
                row("l7b_qproj_parallel", "wall_norm", 480.0, Lower, ParallelWall),
                row("l7b_qproj_parallel", "speedup_parallel", 2.5, Higher, ParallelWall),
                row("plan_cache_contention_t8", "lookups", 160_000.0, Lower, Exact),
                row("plan_cache_contention_t8", "mlookups_per_s", 40.0, Higher, ParallelWall),
                row("serve_open_loop", "batches", 12.0, Lower, Info),
                row("serve_open_loop", "p99_latency_ns", 900_000.0, Lower, ParallelWall),
                row("kernel_micro_popcount", "total_ops", 2_600_000.0, Lower, Exact),
                row("kernel_micro_popcount", "wall_norm", 0.8, Lower, ParallelWall),
            ],
        }
    }
}
