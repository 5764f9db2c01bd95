//! Criterion benchmark: the transitive GEMM engine vs the dense integer
//! reference, plus serial vs parallel tile execution (functional
//! throughput of the simulator, not the modeled hardware cycles).
//!
//! Besides the criterion smoke timings, the serial/parallel pair is
//! measured directly and written as machine-readable JSON under
//! `target/experiments/transitive_gemm_bench.json` (the same record
//! format the `bench_smoke` CI gate consumes).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Instant;
use ta_bench::perf::{PerfRecord, PerfReport};
use ta_bench::{experiments_dir, Scale};
use ta_core::{runtime, GemmRequest, Session, TransArrayConfig};
use ta_quant::{gemm_i32, MatI32};
use ta_workloads::l7b;

fn mats() -> (MatI32, MatI32) {
    let w = MatI32::from_fn(64, 64, |r, c| (((r * 64 + c) as i64 * 40503 % 15) - 7) as i32);
    let x = MatI32::from_fn(64, 32, |r, c| (((r * 32 + c) as i64 * 9973 % 255) - 127) as i32);
    (w, x)
}

fn small_session(threads: usize) -> Session {
    Session::new(TransArrayConfig {
        width: 4,
        max_transrows: 16,
        weight_bits: 4,
        m_tile: 32,
        units: 2,
        sample_limit: 0,
        threads,
        ..TransArrayConfig::paper_w8()
    })
    .expect("valid bench config")
}

fn bench_engines(c: &mut Criterion) {
    let (w, x) = mats();
    c.bench_function("dense_gemm_i32_64x64x32", |b| {
        b.iter(|| gemm_i32(black_box(&w), black_box(&x)))
    });
    let w4 = MatI32::from_fn(64, 64, |r, c| (((r * 64 + c) as i64 * 40503 % 15) - 7) as i32);
    let execute = |session: &Session| {
        let request = GemmRequest::execute(black_box(w4.clone()), black_box(x.clone()));
        session.run(request).expect("valid operands")
    };
    let serial = small_session(1);
    c.bench_function("transitive_gemm_64x64x32_w4_serial", |b| b.iter(|| execute(&serial)));
    let parallel = small_session(0);
    c.bench_function("transitive_gemm_64x64x32_w4_parallel", |b| b.iter(|| execute(&parallel)));
}

/// Serial vs parallel vs plan-cached layer simulation of the full-scale
/// LLaMA-7B `q_proj` GEMM, timed directly so the speedups land in JSON.
fn bench_l7b_layer(c: &mut Criterion) {
    let scale = Scale::quick();
    let shape = l7b::qproj_shape();
    let make_session = |threads: usize, plan_cache: usize| {
        Session::new(TransArrayConfig {
            sample_limit: scale.sample_limit,
            threads,
            plan_cache,
            ..TransArrayConfig::paper_w8()
        })
        .expect("valid bench config")
    };
    let run_on = |session: &Session| {
        let start = Instant::now();
        let src = l7b::pattern_source_seeded(session.config().n_tile(), 1234);
        let rep = session.run(GemmRequest::simulate(shape, src)).expect("valid layer").report;
        (rep, start.elapsed().as_secs_f64())
    };
    let run = |threads: usize| run_on(&make_session(threads, 0));
    let (serial_rep, serial_wall) = run(1);
    let (parallel_rep, parallel_wall) = run(0);
    assert_eq!(serial_rep, parallel_rep, "parallel layer simulation must be bit-exact");
    // The cached accelerator outlives its timing loop so the warm-cache
    // replay cost is what criterion sees; the one-shot wall below is the
    // warm second run.
    let cached = make_session(1, ta_bench::perf::DEFAULT_PLAN_CACHE_ENTRIES);
    let (cached_cold, _, _) = ta_bench::perf::cached_replay(&cached, shape, 1234);
    assert_eq!(serial_rep, cached_cold, "plan-cached simulation must be bit-exact");
    // Second call = warm replay: its hit rate is 1.0 when healthy (the
    // cold call's compulsory misses are excluded by the counter deltas).
    let (cached_rep, cached_wall, hit_rate) = ta_bench::perf::cached_replay(&cached, shape, 1234);
    assert_eq!(serial_rep, cached_rep, "warm plan-cached simulation must be bit-exact");

    let mut g = c.benchmark_group("l7b_qproj_quick");
    g.sample_size(10);
    g.bench_function("serial", |b| b.iter(|| run(1)));
    g.bench_function("parallel", |b| b.iter(|| run(0)));
    g.bench_function("plan_cached", |b| b.iter(|| run_on(&cached)));
    g.finish();

    let record = |name: &str, wall: f64| PerfRecord {
        name: name.to_string(),
        cycles: serial_rep.cycles,
        total_ops: serial_rep.total_ops,
        density: serial_rep.density,
        macs_per_cycle: serial_rep.macs_per_cycle(),
        wall_s: wall,
        wall_norm: 0.0,
    };
    let report = PerfReport {
        schema: 5,
        sha: "bench".to_string(),
        scale: scale.name().to_string(),
        threads: runtime::Runtime::new(0).threads(),
        host_cores: runtime::available_cores(),
        calibration_wall_s: 0.0,
        speedup_parallel: if parallel_wall > 0.0 { serial_wall / parallel_wall } else { 0.0 },
        plan_cache_hit_rate: hit_rate,
        speedup_cached: if cached_wall > 0.0 { serial_wall / cached_wall } else { 0.0 },
        dram_requests: 0,
        dram_bursts: 0,
        exec_allocs_per_subtile: -1.0,
        contention: Vec::new(),
        serve: None,
        overload: None,
        workloads: vec![
            record("l7b_qproj_serial", serial_wall),
            record("l7b_qproj_parallel", parallel_wall),
            record("l7b_qproj_cached", cached_wall),
        ],
    };
    let dir = experiments_dir();
    let path = dir.join("transitive_gemm_bench.json");
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, report.to_json())) {
        Ok(()) => println!("[json] {}", path.display()),
        Err(e) => eprintln!("[json] failed to write {}: {e}", path.display()),
    }
    println!(
        "l7b_qproj serial {serial_wall:.3}s vs parallel {parallel_wall:.3}s -> {:.2}x at {} threads",
        report.speedup_parallel, report.threads
    );
    println!(
        "l7b_qproj plan-cached {cached_wall:.3}s -> {:.2}x vs serial (hit rate {hit_rate:.3})",
        report.speedup_cached
    );
}

criterion_group!(benches, bench_engines, bench_l7b_layer);
criterion_main!(benches);
