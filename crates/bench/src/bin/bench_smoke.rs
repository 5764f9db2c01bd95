//! CI bench-smoke driver: runs the perf suite (serial + parallel +
//! plan-cached tile execution on a full-scale LLaMA-7B layer, a Fig. 9
//! design point, the exact functional-execution engine on a scaled
//! `q_proj` GEMM, the serving frontend and the word-parallel kernels),
//! writes `BENCH_<sha>.json`, and gates every metric row against a
//! committed baseline by its class (see `ta_bench::perf`) — and fails
//! outright on a plan-cache hit rate that collapsed to zero (the cache
//! must not silently disengage) or on a flat exec engine that allocates
//! per sub-tile in steady state (this binary installs a counting global
//! allocator to audit that).
//!
//! ```text
//! bench_smoke [--smoke|--quick] [--list] [--only <workload>]...
//!             [--baseline <path>] [--output <path>]
//!             [--write-baseline <path>] [--require-baseline]
//! ```
//!
//! * `--list` prints the workload registry (every `ta-workloads` entry,
//!   gated or not) and exits;
//! * `--only <workload>` (repeatable) restricts the run to the named
//!   gated workloads; a filtered run skips the baseline gate — its
//!   summary metrics are deliberately unmeasured;
//! * scale: `--smoke`/`--quick` or `TA_SCALE=quick|full` (default full;
//!   unknown values are rejected);
//! * threads: `TA_THREADS` (default `0` = one worker per core);
//! * plan cache: `TA_PLAN_CACHE` overrides the cached workload's
//!   capacity (default 4096 entries; `0` is rejected — the suite gates
//!   the cache, so it cannot run without one);
//! * `TA_BENCH_INJECT_SLOWDOWN=<factor>` worsens every wall-clock row by
//!   `factor` — a self-test hook that lets CI (or a developer) confirm the
//!   gate actually trips; never set it in a real run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::Command;
use ta_bench::perf::{self, PerfReport, GATE_TOLERANCE};
use ta_bench::Scale;
use ta_core::runtime;

/// Counting global allocator: forwards every call to `System`, recording
/// alloc/realloc events in `ta_bench::alloc_count` so the perf suite can
/// audit the flat execution engine's steady-state allocation rate
/// (`exec_allocs_per_subtile`). Installed only in this binary — the
/// library stays `forbid(unsafe_code)`.
struct CountingAllocator;

// SAFETY: pure forwarding to `System` (same layout contract); the
// counter update is a relaxed atomic add with no allocator interaction.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ta_bench::alloc_count::record_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ta_bench::alloc_count::record_alloc();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ta_bench::alloc_count::record_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING_ALLOCATOR: CountingAllocator = CountingAllocator;

fn resolve_sha() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha.chars().take(12).collect();
        }
    }
    if let Ok(out) = Command::new("git").args(["rev-parse", "--short=12", "HEAD"]).output() {
        if out.status.success() {
            let sha = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if !sha.is_empty() {
                return sha;
            }
        }
    }
    "local".to_string()
}

/// Integers print whole; everything else with six significant digits.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.5e}")
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

struct Args {
    scale: Scale,
    list: bool,
    only: Vec<String>,
    baseline: Option<String>,
    output: Option<String>,
    write_baseline: Option<String>,
    require_baseline: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: match std::env::var("TA_SCALE") {
            Err(_) => Scale::full(),
            Ok(v) => Scale::parse(&v).unwrap_or_else(|e| fail(&e)),
        },
        list: false,
        only: Vec::new(),
        baseline: None,
        output: None,
        write_baseline: None,
        require_baseline: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().unwrap_or_else(|| fail(&format!("{name} requires an argument")));
        match arg.as_str() {
            "--smoke" | "--quick" => args.scale = Scale::quick(),
            "--list" => args.list = true,
            "--only" => args.only.push(value("--only")),
            "--baseline" => args.baseline = Some(value("--baseline")),
            "--output" => args.output = Some(value("--output")),
            "--write-baseline" => args.write_baseline = Some(value("--write-baseline")),
            "--require-baseline" => args.require_baseline = true,
            other => fail(&format!(
                "unrecognized argument '{other}' (expected --smoke, --list, --only, --baseline, --output, --write-baseline, or --require-baseline)"
            )),
        }
    }
    for name in &args.only {
        match ta_workloads::find(name) {
            None => fail(&format!(
                "--only {name}: unknown workload (try --list; registered: {})",
                ta_workloads::names().join(", ")
            )),
            Some(w) if !w.gated() => fail(&format!(
                "--only {name}: not part of the gated bench roster (it runs via the registry conformance suite and the zoo drivers, not bench_smoke)"
            )),
            Some(_) => {}
        }
    }
    args
}

/// `--list`: the registry dump, one row per workload.
fn list_workloads(scale: Scale) {
    println!("{:<24} {:>5} {:>11} {:>6}  description", "workload", "gated", "cycle_model", "gemms");
    for w in ta_workloads::registry() {
        println!(
            "{:<24} {:>5} {:>11} {:>6}  {}",
            w.name(),
            if w.gated() { "yes" } else { "no" },
            if w.has_cycle_model() { "yes" } else { "no" },
            w.shapes(scale).len(),
            w.description()
        );
    }
}

fn main() {
    // Let the perf suite know the counting allocator above is live (the
    // allocation audit self-disables in processes without one).
    ta_bench::alloc_count::mark_installed();
    let args = parse_args();
    if args.list {
        list_workloads(args.scale);
        return;
    }
    let threads = match runtime::threads_from_env() {
        Ok(t) => t.unwrap_or(0),
        Err(e) => fail(&e),
    };
    let plan_cache = match runtime::plan_cache_from_env() {
        Ok(Some(0)) => fail(
            "TA_PLAN_CACHE=0 would disable the gated cached workload; unset it or pass a positive capacity",
        ),
        Ok(Some(n)) => n,
        Ok(None) => perf::DEFAULT_PLAN_CACHE_ENTRIES,
        Err(e) => fail(&e),
    };

    println!(
        "bench_smoke: scale={} threads={} cores={} plan_cache={}",
        args.scale.name(),
        threads,
        runtime::available_cores(),
        plan_cache
    );
    let only = if args.only.is_empty() { None } else { Some(args.only.as_slice()) };
    if let Some(filter) = only {
        println!("  running only: {}", filter.join(", "));
    }
    let mut report = perf::run_suite(args.scale, threads, plan_cache, only);
    report.sha = resolve_sha();

    // Gate self-test hook: worsen the wall rows so a developer can watch
    // the gate trip without slowing the simulator down.
    if let Ok(v) = std::env::var("TA_BENCH_INJECT_SLOWDOWN") {
        match v.trim().parse::<f64>() {
            Ok(factor) if factor.is_finite() && factor > 0.0 => {
                if args.write_baseline.is_some() {
                    fail("refusing --write-baseline while TA_BENCH_INJECT_SLOWDOWN is set: a self-test run must not become the baseline");
                }
                eprintln!("warning: TA_BENCH_INJECT_SLOWDOWN={factor} is worsening wall rows — this run is a gate self-test, not a measurement");
                perf::inject_slowdown(&mut report.rows, factor);
            }
            _ => {
                fail(&format!("invalid TA_BENCH_INJECT_SLOWDOWN '{v}': expected a positive number"))
            }
        }
    }

    println!(
        "  calibration {:.6}s  threads {}  host_cores {}",
        report.calibration_wall_s, report.threads, report.host_cores
    );
    for r in &report.rows {
        println!("  {:<26} {:<24} {:>18}  {:?}", r.workload, r.metric, fmt_value(r.value), r.class);
    }

    // The run's own JSON is written first so a failing run still leaves
    // a debuggable artifact.
    let output = args.output.unwrap_or_else(|| format!("BENCH_{}.json", report.sha));
    if let Err(e) = std::fs::write(&output, report.to_json()) {
        fail(&format!("failed to write {output}: {e}"));
    }
    println!("[json] {output}");

    // Baseline-independent health checks, run *before* any baseline
    // refresh so a broken run never becomes the baseline:
    // * the cached workload ran with a capacity sized to hold the layer's
    //   sampled sub-tiles, so a warm replay that misses everything means
    //   the plan cache is broken, not cold;
    // * the flat execution engine must not allocate in steady state —
    //   this binary installs the counting allocator, so the audit always
    //   runs, and exactly 0 per sub-tile is the healthy value.
    let selected = |name: &str| only.is_none_or(|filter| filter.iter().any(|n| n == name));
    let mut broken = Vec::new();
    let hit_rate = report.value("l7b_qproj_cached", "plan_cache_hit_rate").unwrap_or(0.0);
    if selected("l7b_qproj_cached") && hit_rate <= 0.0 {
        broken.push(format!("plan-cache warm-replay hit rate collapsed to {hit_rate}"));
    }
    match report.value("l7b_qproj_exec", "exec_allocs_per_subtile") {
        None if selected("l7b_qproj_exec") => broken
            .push("exec allocation audit did not run despite the counting allocator".to_string()),
        Some(allocs) if allocs > 0.0 => broken.push(format!(
            "flat exec engine allocates {allocs:.4} times per sub-tile in steady state (must be 0)"
        )),
        _ => {}
    }
    if !broken.is_empty() {
        broken.iter().for_each(|b| eprintln!("gate FAILURE: {b}"));
        std::process::exit(1);
    }

    if let Some(path) = &args.write_baseline {
        if only.is_some() {
            fail("refusing --write-baseline with --only: a filtered run's summary metrics are unmeasured and must not become the baseline");
        }
        if let Err(e) = std::fs::write(path, report.to_json()) {
            fail(&format!("failed to write {path}: {e}"));
        }
        println!("[json] {path} (baseline refreshed)");
    }

    if let Some(filter) = only {
        println!(
            "gate: skipped — --only restricted the run to {} of the gated roster; the baseline compares whole suites only",
            filter.join(", ")
        );
        return;
    }

    let baseline_path = args.baseline.unwrap_or_else(|| "BENCH_baseline.json".to_string());
    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => text,
        Err(e) if args.require_baseline => {
            fail(&format!("baseline {baseline_path} unreadable: {e}"))
        }
        Err(_) => {
            println!("no baseline at {baseline_path}; skipping the regression gate");
            return;
        }
    };
    let baseline = PerfReport::from_json(&baseline_text)
        .unwrap_or_else(|e| fail(&format!("malformed baseline {baseline_path}: {e}")));
    let outcome = perf::compare(&baseline, &report, GATE_TOLERANCE);
    for note in &outcome.notes {
        println!("note: {note}");
    }
    println!("armed wall gates: {}", outcome.armed_wall.join(", "));
    // One-line honesty summary: which rows the host shape disarmed.
    if let Some(summary) = perf::disabled_summary(&outcome) {
        println!("{summary}");
    }
    if outcome.passed() {
        println!(
            "gate: PASS vs {} ({} rows, {:.0}% tolerance, wall rows x{})",
            baseline_path,
            baseline.rows.len(),
            GATE_TOLERANCE * 100.0,
            perf::WALL_TOLERANCE_FACTOR
        );
    } else {
        for failure in &outcome.failures {
            eprintln!("gate FAILURE: {failure}");
        }
        eprintln!("gate: FAIL vs {} — {} failing row(s)", baseline_path, outcome.failures.len());
        std::process::exit(1);
    }
}
