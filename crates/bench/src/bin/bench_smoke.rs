//! CI bench-smoke driver: runs the perf suite (serial + parallel +
//! plan-cached tile execution on a full-scale LLaMA-7B layer, a Fig. 9
//! design point, plus the exact functional-execution engine on a scaled
//! `q_proj` GEMM), writes `BENCH_<sha>.json`, and fails on >20%
//! regression against a committed baseline — or on a plan-cache hit
//! rate that collapsed to zero (the cache must not silently disengage),
//! or on a flat exec engine that allocates per sub-tile in steady state
//! (this binary installs a counting global allocator to audit that).
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
//! * `TA_BENCH_INJECT_SLOWDOWN=<factor>` multiplies the measured wall
//!   times — a self-test hook that lets CI (or a reviewer) confirm the
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
    let mut report = perf::run_suite_filtered(args.scale, threads, plan_cache, only);
    report.sha = resolve_sha();

    // Gate self-test hook: scale the measured wall times so a reviewer
    // can watch the gate trip without slowing the simulator down.
    match std::env::var("TA_BENCH_INJECT_SLOWDOWN") {
        Err(_) => {}
        Ok(v) => match v.trim().parse::<f64>() {
            Ok(factor) if factor.is_finite() && factor > 0.0 => {
                if args.write_baseline.is_some() {
                    fail("refusing --write-baseline while TA_BENCH_INJECT_SLOWDOWN is set: a self-test run must not become the baseline");
                }
                eprintln!("warning: TA_BENCH_INJECT_SLOWDOWN={factor} is scaling wall times — this run is a gate self-test, not a measurement");
                for w in &mut report.workloads {
                    w.wall_s *= factor;
                    w.wall_norm *= factor;
                }
                report.speedup_parallel /= factor.max(f64::MIN_POSITIVE);
                if let Some(serve) = &mut report.serve {
                    serve.throughput_rps /= factor.max(f64::MIN_POSITIVE);
                    serve.p50_latency_ns *= factor;
                    serve.p99_latency_ns *= factor;
                }
            }
            _ => {
                fail(&format!("invalid TA_BENCH_INJECT_SLOWDOWN '{v}': expected a positive number"))
            }
        },
    }

    for w in &report.workloads {
        println!(
            "  {:<24} cycles {:>14}  macs/cycle {:>10.1}  wall {:>9.4}s  norm {:>9.1}",
            w.name, w.cycles, w.macs_per_cycle, w.wall_s, w.wall_norm
        );
    }
    println!(
        "  serial/parallel speedup: {:.2}x at {} threads ({} cores)",
        report.speedup_parallel, report.threads, report.host_cores
    );
    println!(
        "  plan cache: warm-replay hit rate {:.3}, cached-vs-uncached speedup {:.2}x",
        report.plan_cache_hit_rate, report.speedup_cached
    );
    println!(
        "  dram traffic: {} requests over {} bursts (64 B)",
        report.dram_requests, report.dram_bursts
    );
    println!(
        "  exec engine: {:.4} steady-state allocs/sub-tile (0 healthy)",
        report.exec_allocs_per_subtile
    );
    for p in &report.contention {
        println!(
            "  plan-cache contention: {:>2} threads  {:>8} lookups  {:>8.1} ns/lookup  {:>8.2} Mlookups/s",
            p.threads, p.lookups, p.ns_per_lookup, p.mlookups_per_s
        );
    }
    if let Some(s) = &report.serve {
        println!(
            "  serving: {} requests / {} batches / {} padded on {} workers  {:>8.0} req/s  p50 {:.1} us  p99 {:.1} us",
            s.requests,
            s.batches,
            s.padded,
            s.workers,
            s.throughput_rps,
            s.p50_latency_ns / 1e3,
            s.p99_latency_ns / 1e3
        );
    }
    // Every overload counter is scripted on the virtual clock — no wall
    // fields here, so TA_BENCH_INJECT_SLOWDOWN deliberately leaves it
    // alone (only `serve_overload`'s PerfRecord wall columns scale).
    if let Some(o) = &report.overload {
        println!(
            "  overload: {} submitted -> {} rejected / {} shed / {} lost / {} completed on {} workers ({} respawns)  goodput {:.3}",
            o.submitted,
            o.rejected,
            o.shed,
            o.worker_lost,
            o.completed,
            o.workers,
            o.respawned,
            o.goodput
        );
    }

    // The run's own JSON is written first so a failing run still leaves
    // a debuggable artifact.
    let output = args.output.unwrap_or_else(|| format!("BENCH_{}.json", report.sha));
    if let Err(e) = std::fs::write(&output, report.to_json()) {
        fail(&format!("failed to write {output}: {e}"));
    }
    println!("[json] {output}");

    // The plan cache silently disengaging is a hard failure regardless
    // of any baseline: the cached workload ran with a capacity sized to
    // hold the layer's sampled sub-tiles, so a warm replay that misses
    // everything means the cache is broken, not cold. Checked *before*
    // any baseline refresh — a broken-cache run must never become the
    // baseline (a zero-hit-rate baseline would disable this gate's
    // compare() arm forever).
    let selected = |name: &str| match only {
        None => true,
        Some(filter) => filter.iter().any(|n| n == name),
    };
    if selected("l7b_qproj_cached") && report.plan_cache_hit_rate <= 0.0 {
        eprintln!(
            "gate FAILURE: plan-cache warm-replay hit rate collapsed to {} on l7b_qproj_cached",
            report.plan_cache_hit_rate
        );
        std::process::exit(1);
    }

    // The flat execution engine must not allocate in steady state — this
    // binary installs the counting allocator, so the audit always runs,
    // and any nonzero per-sub-tile rate is a design regression regardless
    // of the baseline. (±0 exactly is the healthy value; the audit warms
    // every buffer before measuring.)
    if selected("l7b_qproj_exec") {
        if report.exec_allocs_per_subtile < 0.0 {
            eprintln!(
                "gate FAILURE: exec allocation audit did not run despite the counting allocator"
            );
            std::process::exit(1);
        }
        if report.exec_allocs_per_subtile > 0.0 {
            eprintln!(
                "gate FAILURE: flat exec engine allocates {:.4} times per sub-tile in steady state (must be 0)",
                report.exec_allocs_per_subtile
            );
            std::process::exit(1);
        }
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
    // One-line honesty summary: which gates quietly disarmed themselves
    // this run, and why (stale baseline schema, host shape, …).
    if let Some(summary) = perf::disabled_summary(&outcome) {
        println!("{summary}");
    }
    if outcome.passed() {
        println!(
            "gate: PASS vs {} ({} workloads, {:.0}% tolerance)",
            baseline_path,
            baseline.workloads.len(),
            GATE_TOLERANCE * 100.0
        );
    } else {
        for failure in &outcome.failures {
            eprintln!("gate FAILURE: {failure}");
        }
        eprintln!(
            "gate: FAIL vs {} — {} regression(s) past the {:.0}% tolerance",
            baseline_path,
            outcome.failures.len(),
            GATE_TOLERANCE * 100.0
        );
        std::process::exit(1);
    }
}
