//! The measurement half of the perf suite: pilot-sized best-of-N
//! timing, the calibration loop, and the workload-roster runner. The
//! workload *definitions* (shapes, configs, pattern sources, traces,
//! contention cache) live in `ta-workloads`; this module owns only how
//! they are timed and assembled into a [`PerfReport`].

use crate::alloc_count;
use crate::perf::{ContentionPoint, OverloadStats, PerfRecord, PerfReport, ServeStats};
use std::hint::black_box;
use std::time::Instant;
use ta_bitslice::{BitSlicedMatrix, RowMajor, TileView};
use ta_core::{
    runtime, GemmReport, GemmRequest, GemmShape, PatternSource, Session, SlicedSource,
    TransArrayConfig,
};
use ta_hasse::{ExecScratch, ExecutionPlan, NullSink, Scoreboard, StaticSi};
use ta_quant::gemm_i32;
use ta_serve::{ServeError, Server, ServerConfig};
use ta_sim::DramModel;
use ta_workloads::{contention, fig9, kernel, l7b, serve, Scale};

/// Minimum wall time one timing sample must span. Sub-millisecond
/// workloads are repeated until a sample reaches this floor — a single
/// 100 µs run carries far more than the gate's 20% tolerance in timer
/// and scheduler noise.
const MIN_SAMPLE_S: f64 = 0.05;

/// Timing samples per workload (the minimum is reported). Shared CI
/// hosts show contention windows longer than one batch; best-of-7 keeps
/// a slow outlier batch from ever being the reported time.
const SAMPLES: usize = 7;

/// Times `f`: a pilot run sizes an iteration batch spanning at least
/// [`MIN_SAMPLE_S`], then the best per-iteration time over [`SAMPLES`]
/// batches is returned along with `f`'s (deterministic) result.
fn measure<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let start = Instant::now();
    let mut out = f();
    let pilot = start.elapsed().as_secs_f64();
    let iters = if pilot >= MIN_SAMPLE_S {
        1
    } else {
        ((MIN_SAMPLE_S / pilot.max(1e-9)).ceil() as usize).min(100_000)
    };
    // A single run cannot measure faster than the true cost, so the
    // pilot participates in the minimum.
    let mut best = pilot;
    for _ in 0..SAMPLES.saturating_sub(1) {
        let start = Instant::now();
        for _ in 0..iters {
            out = f();
        }
        let per_iter = start.elapsed().as_secs_f64() / iters as f64;
        if per_iter < best {
            best = per_iter;
        }
    }
    (out, best)
}

/// One simulation of `shape` on `session` (plan cache required), returning
/// the report, the run's wall seconds, and the run's cache hit rate
/// from counter deltas — the single definition of the warm-replay
/// protocol shared by [`run_suite`] and the criterion benches. Call it
/// once to warm the cache, then again for the warm-replay numbers (1.0
/// hit rate when healthy).
///
/// # Panics
///
/// Panics if `session` has no plan cache.
pub fn cached_replay(session: &Session, shape: GemmShape, seed: u64) -> (GemmReport, f64, f64) {
    let stats =
        || session.accelerator().plan_cache_stats().expect("cached_replay requires a plan cache");
    let before = stats();
    let start = Instant::now();
    let rep = simulate_l7b(session, shape, seed);
    let wall = start.elapsed().as_secs_f64();
    (rep, wall, stats().delta(&before).hit_rate())
}

/// Simulates `shape` on `session` over the seeded LLaMA-7B pattern stream.
fn simulate_l7b(session: &Session, shape: GemmShape, seed: u64) -> GemmReport {
    let source = l7b::pattern_source_seeded(session.config().n_tile(), seed);
    session.run(GemmRequest::simulate(shape, source)).expect("the l7b layer is valid").report
}

/// Times the dense integer reference GEMM the suite normalizes against.
fn calibration_loop() -> f64 {
    let (w, x) = l7b::calibration_operands();
    let (_, wall) = measure(|| gemm_i32(&w, &x));
    wall
}

/// Hammers the pre-warmed [`contention`] cache from 1/2/8/16 threads at
/// a forced 1.0 hit rate and reports per-point throughput — the pure
/// hit-path cost (key hash + shard read lock + referenced-bit store +
/// `Arc` clone), with key construction hoisted out of the loop. On a
/// multi-core host the sharded cache's throughput scales with threads;
/// the old global-mutex design flatlined here.
///
/// `shards` is the swept cache's shard count (`0` = auto); cache sizing
/// and the residency contract live in [`contention::prewarmed_cache`].
///
/// # Panics
///
/// Panics if pre-warm evicts (capacity sizing broke) or if any sweep
/// point records a miss — the workload exists to measure the hit path,
/// and a miss means the cache or routing broke.
pub fn contention_workload(shards: usize) -> Vec<ContentionPoint> {
    let (cache, keys) = contention::prewarmed_cache(shards);
    contention::THREADS
        .iter()
        .map(|&threads| {
            let before = cache.stats();
            let start = Instant::now();
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let (cache, keys) = (&cache, &keys);
                    scope.spawn(move || {
                        for i in 0..contention::LOOKUPS_PER_THREAD {
                            let k = &keys[(i as usize + t) % keys.len()];
                            assert!(cache.get(k).is_some(), "contention workload must never miss");
                        }
                    });
                }
            });
            let wall_s = start.elapsed().as_secs_f64();
            let delta = cache.stats().delta(&before);
            let lookups = threads as u64 * contention::LOOKUPS_PER_THREAD;
            assert_eq!(delta.misses, 0, "forced hit-rate 1.0 violated: {delta}");
            assert_eq!(delta.lookups(), lookups, "lookup counter conservation violated");
            ContentionPoint {
                threads,
                lookups,
                wall_s,
                ns_per_lookup: if lookups > 0 {
                    wall_s * 1e9 * threads as f64 / lookups as f64
                } else {
                    0.0
                },
                mlookups_per_s: if wall_s > 0.0 { lookups as f64 / wall_s / 1e6 } else { 0.0 },
            }
        })
        .collect()
}

/// The `serve_open_loop` workload: replays the seeded Poisson arrival
/// trace through a full `ta-serve` frontend (2 workers, width-quantized
/// buckets so padding is actually exercised), then checks every served
/// output bit-for-bit against a direct serial run. The PerfRecord's
/// `cycles`/`total_ops` are the deterministic sums over all served
/// responses — any drift is a behavior change in the serving stack or
/// the simulator, and gates at full strength; the wall-clock
/// throughput/latency figures ride in [`ServeStats`] under the widened
/// wall tolerance.
///
/// # Panics
///
/// Panics if any served output differs from the direct run — the
/// serving determinism contract is part of what this workload guards.
fn serve_open_loop(scale: Scale) -> (PerfRecord, ServeStats) {
    let count = serve::request_count(scale);
    let trace = serve::trace(scale);
    let ((responses, stats), wall) = measure(|| {
        let server = Server::start(
            serve::session(),
            ServerConfig {
                workers: serve::WORKERS,
                policy: serve::policy(),
                ..ServerConfig::default()
            },
        );
        let tickets: Vec<_> = trace
            .iter()
            .map(|a| server.submit(a.tenant, serve::request(a)).expect("trace requests are valid"))
            .collect();
        let responses: Vec<_> =
            tickets.into_iter().map(|t| t.wait().expect("server answers every request")).collect();
        let stats = server.shutdown();
        (responses, stats)
    });
    assert_eq!(stats.completed as usize, count, "open loop must serve the whole trace");

    // Bit-equality through the whole stack, outside the timed region.
    // Outputs must match exactly; the *report* of a padded request
    // legitimately differs (the modelled GEMM is wider), so the
    // deterministic cycle/op sums below are taken from the served
    // responses themselves.
    let direct = serve::session();
    let (mut served_cycles, mut served_ops) = (0u64, 0u64);
    let mut latencies: Vec<u64> = Vec::with_capacity(responses.len());
    for (resp, arrival) in responses.iter().zip(&trace) {
        let want = direct.run_serial(serve::request(arrival)).expect("direct run succeeds");
        assert_eq!(
            resp.response.output, want.output,
            "serving determinism violation: served output differs from direct at {arrival:?}"
        );
        served_cycles += resp.response.report.cycles;
        served_ops += resp.response.report.total_ops;
        latencies.push(resp.latency_ns());
    }
    latencies.sort_unstable();
    let record = PerfRecord {
        name: "serve_open_loop".into(),
        cycles: served_cycles,
        total_ops: served_ops,
        density: 0.0,
        macs_per_cycle: 0.0,
        wall_s: wall,
        wall_norm: 0.0, // assigned after the final calibration
    };
    let serve_stats = ServeStats {
        requests: stats.completed,
        batches: stats.batches,
        padded: stats.padded,
        workers: serve::WORKERS,
        throughput_rps: if wall > 0.0 { count as f64 / wall } else { 0.0 },
        p50_latency_ns: latencies[latencies.len() / 2] as f64,
        p99_latency_ns: latencies[latencies.len() * 99 / 100] as f64,
    };
    (record, serve_stats)
}

/// Spins until the server's batcher has absorbed `target` admitted
/// requests — the virtual-clock sync point: once a request is counted
/// absorbed, its batch bucket (and deadline) exists, so advancing the
/// clock afterwards is race-free.
fn spin_until_absorbed(server: &Server, target: u64) {
    while server.stats().absorbed < target {
        std::thread::yield_now();
    }
}

/// The `serve_overload` workload (schema 7): the serving stack's
/// overload and fault-tolerance behavior, scripted on the **virtual
/// clock** so every counter is deterministic (see
/// [`ta_workloads::serve::overload_config`] for the design point):
///
/// 1. **Storm** — the seeded storm trace is submitted with the clock
///    frozen, so nothing flushes and nothing releases queue depth;
///    per-tenant rejections are a pure function of the trace's tenant
///    sequence.
/// 2. **Shed** — one clock jump past the latency budget expires every
///    admitted storm request at the batcher; all of them resolve as
///    typed `Shed` errors without ever reaching a worker (so the
///    fault-injection stream is untouched).
/// 3. **Recovery** — waves of identical tenant-0 requests are served
///    under seeded worker-panic injection: one shape bucket per wave →
///    one batch job → one worker, so panic decisions land on a fixed
///    request order. Losses resolve as typed `WorkerLost`, the pool
///    respawns, and every completed response is bit-checked against a
///    direct serial run.
///
/// The PerfRecord's `cycles`/`total_ops` are the deterministic sums
/// over completed responses; the whole protocol is timed as a single
/// pass (repeating it would replay the fault stream from a different
/// offset).
///
/// # Panics
///
/// Panics if any counter disagrees with the server's own accounting,
/// if a storm request resolves as anything but `Shed`, if a recovery
/// request resolves as anything but a bit-identical response or
/// `WorkerLost`, or if the whole recovery phase completes zero
/// requests.
fn serve_overload(scale: Scale) -> (PerfRecord, OverloadStats) {
    ta_serve::faultpoint::quiet_injected_panics();
    let arrivals = serve::overload_arrivals(scale);
    let waves = serve::overload_waves(scale);
    let start = Instant::now();
    let server = Server::start(serve::session(), serve::overload_config());

    // Phase 1: storm at frozen clock — deterministic rejections.
    let mut rejected = 0u64;
    let mut storm_tickets = Vec::new();
    for a in &arrivals {
        match server.submit(a.tenant, serve::request(a)) {
            Ok(t) => storm_tickets.push(t),
            Err(ServeError::Rejected(_)) => rejected += 1,
            Err(e) => panic!("storm submission failed unexpectedly: {e}"),
        }
    }
    let admitted = storm_tickets.len() as u64;

    // Phase 2: one clock jump sheds every admitted storm request.
    spin_until_absorbed(&server, admitted);
    server.advance_clock(2 * serve::OVERLOAD_BUDGET_NS);
    let mut shed = 0u64;
    for t in storm_tickets {
        match t.wait() {
            Err(ServeError::Shed { .. }) => shed += 1,
            other => panic!("storm request must shed, resolved as {other:?}"),
        }
    }

    // Phase 3: recovery waves under worker-panic injection. Waiting
    // each wave's tickets before the next submits keeps the panic
    // decision order (and the per-tenant depth) deterministic.
    let direct = serve::session();
    let want = direct.run_serial(serve::overload_request()).expect("wave request is valid");
    let (mut completed, mut worker_lost) = (0u64, 0u64);
    let (mut served_cycles, mut served_ops) = (0u64, 0u64);
    for _ in 0..waves {
        let base = server.stats().absorbed;
        let tickets: Vec<_> = (0..serve::OVERLOAD_WAVE)
            .map(|_| {
                server
                    .submit(0, serve::overload_request())
                    .expect("recovery waves fit the depth limit")
            })
            .collect();
        spin_until_absorbed(&server, base + serve::OVERLOAD_WAVE as u64);
        server.advance_clock(serve::overload_config().policy.max_delay_ns);
        for t in tickets {
            match t.wait() {
                Ok(resp) => {
                    assert_eq!(
                        resp.response.output, want.output,
                        "serving determinism violation: recovery output differs from direct"
                    );
                    served_cycles += resp.response.report.cycles;
                    served_ops += resp.response.report.total_ops;
                    completed += 1;
                }
                Err(ServeError::WorkerLost) => worker_lost += 1,
                Err(e) => panic!("recovery request failed unexpectedly: {e}"),
            }
        }
    }
    let stats = server.shutdown();
    let wall = start.elapsed().as_secs_f64();

    // The driver's books and the server's must agree exactly.
    assert_eq!(stats.rejected, rejected, "admission rejection accounting drifted");
    assert_eq!(stats.shed, shed, "shed accounting drifted");
    assert_eq!(stats.worker_lost, worker_lost, "worker-loss accounting drifted");
    assert_eq!(stats.completed, completed, "completion accounting drifted");
    assert!(completed > 0, "recovery must complete at least one wave request");

    let submitted = arrivals.len() as u64 + (waves * serve::OVERLOAD_WAVE) as u64;
    let record = PerfRecord {
        name: "serve_overload".into(),
        cycles: served_cycles,
        total_ops: served_ops,
        density: 0.0,
        macs_per_cycle: 0.0,
        wall_s: wall,
        wall_norm: 0.0, // assigned after the final calibration
    };
    let overload = OverloadStats {
        submitted,
        rejected,
        shed,
        worker_lost,
        completed,
        goodput: completed as f64 / submitted as f64,
        workers: serve::WORKERS,
        respawned: stats.respawned,
    };
    (record, overload)
}

/// The `kernel_micro_*` workloads (schema 6): the three word-parallel
/// primitive families the `ta_bitslice::kernels` facade owns — row-word
/// popcount/XOR-popcount sweeps, sub-tile TransRow pattern extraction,
/// and im2col lowering — measured in isolation, so a per-bit loop
/// creeping back into any of them shows up as a standalone wall
/// regression instead of being diluted into a full-layer run. Every
/// matrix has a non-word-multiple column count, keeping the kernels'
/// masked-tail paths inside the timed region.
///
/// `total_ops` is a deterministic kernel *output* (set bits counted /
/// extracted-pattern bits / nonzero lowered elements), not a wall
/// metric — so the full-strength 20% gate arms on kernel correctness
/// drift while `wall_norm` rides the widened wall gate like every other
/// workload. `want` filters which of the three are measured.
fn kernel_micro(scale: Scale, want: &dyn Fn(&str) -> bool) -> Vec<PerfRecord> {
    let record = |name: &str, total_ops: u64, wall: f64| PerfRecord {
        name: name.into(),
        cycles: 0,
        total_ops,
        density: 0.0,
        macs_per_cycle: 0.0,
        wall_s: wall,
        wall_norm: 0.0, // assigned after the final calibration
    };
    let mut records = Vec::new();

    if want("kernel_micro_popcount") || want("kernel_micro_extract") {
        let planes = kernel::plane_matrix(scale);
        if want("kernel_micro_popcount") {
            let (pop_bits, pop_wall) = measure(|| black_box(kernel::popcount_total(&planes)));
            records.push(record("kernel_micro_popcount", pop_bits, pop_wall));
        }
        if want("kernel_micro_extract") {
            let mut patterns: Vec<u16> = Vec::new();
            let (ext_bits, ext_wall) =
                measure(|| black_box(kernel::extract_total(&planes, &mut patterns)));
            records.push(record("kernel_micro_extract", ext_bits, ext_wall));
        }
    }

    if want("kernel_micro_im2col") {
        let (shape, input) = kernel::conv_case(scale);
        let (im_nonzero, im_wall) = measure(|| black_box(kernel::im2col_nonzeros(&shape, &input)));
        records.push(record("kernel_micro_im2col", im_nonzero, im_wall));
    }
    records
}

/// Runs the full bench-smoke workload roster at `scale` — see
/// [`run_suite_filtered`] for the parameters and panics.
pub fn run_suite(scale: Scale, threads: usize, plan_cache: usize) -> PerfReport {
    run_suite_filtered(scale, threads, plan_cache, None)
}

/// Runs the bench-smoke workload roster at `scale` with `threads`
/// parallel workers (`0` = one per core), a plan cache of `plan_cache`
/// entries for the cached LLaMA-7B workload, and returns the report
/// (`sha` is left empty for the caller to fill in).
///
/// `only` restricts the roster to the named workloads (`bench_smoke
/// --only`); `None` runs everything. The serial LLaMA-7B run is the
/// family's bit-equality reference and the DRAM-traffic source, so it
/// runs whenever any of `l7b_qproj_{serial,parallel,cached}` is
/// selected (its record is only emitted when selected itself). Summary
/// metrics whose workload was filtered out take their "unmeasured"
/// value: `0.0` ratios, `-1.0` allocation audit, empty contention,
/// `None` serve stats.
///
/// # Panics
///
/// Panics if the parallel **or plan-cached** LLaMA-7B run is not
/// bit-identical to the serial run — that is a determinism-contract
/// violation, which the CI gate must surface loudly. Also panics if
/// `plan_cache` is zero (the suite exists to keep the cache measured; a
/// run without it cannot produce the gated hit rate).
pub fn run_suite_filtered(
    scale: Scale,
    threads: usize,
    plan_cache: usize,
    only: Option<&[String]>,
) -> PerfReport {
    assert!(plan_cache > 0, "run_suite requires a non-zero plan-cache capacity");
    let want = |name: &str| match only {
        None => true,
        Some(filter) => filter.iter().any(|n| n == name),
    };
    let host_cores = runtime::available_cores();
    let resolved_threads = runtime::Runtime::new(threads).threads();
    // Calibrate at suite start AND end, taking the min: host load drifts
    // at minute scale, and a calibration sample that caught a slow window
    // deflates every norm, so the best (fastest) estimate of machine
    // speed is the stable denominator. Norms are filled in at the end.
    let calibration_start = calibration_loop();
    let mut workloads = Vec::new();

    // Fig. 9 design point: Scoreboard-only, the DSE hot path.
    if want("fig9_dse_t8_r256") {
        let (stats, wall) = measure(|| fig9::suite_point(scale.tiles));
        workloads.push(PerfRecord {
            name: "fig9_dse_t8_r256".into(),
            cycles: 0,
            total_ops: stats.total_ops,
            density: stats.density(),
            macs_per_cycle: 0.0,
            wall_s: wall,
            wall_norm: 0.0, // assigned after the final calibration below
        });
    }

    // Full-scale LLaMA-7B q_proj, serial then parallel (same config
    // except the threads knob); the pair must agree bit-exactly.
    let shape = l7b::qproj_shape();
    let run_layer = |threads: usize| {
        let session = Session::new(l7b::layer_config(scale, threads)).expect("valid l7b config");
        measure(move || simulate_l7b(&session, shape, l7b::PATTERN_SEED))
    };
    let family = ["l7b_qproj_serial", "l7b_qproj_parallel", "l7b_qproj_cached"];
    let serial: Option<(GemmReport, f64)> =
        if family.iter().any(|n| want(n)) { Some(run_layer(1)) } else { None };
    let push_layer = |workloads: &mut Vec<PerfRecord>, name: &str, rep: &GemmReport, wall: f64| {
        workloads.push(PerfRecord {
            name: name.into(),
            cycles: rep.cycles,
            total_ops: rep.total_ops,
            density: rep.density,
            macs_per_cycle: rep.macs_per_cycle(),
            wall_s: wall,
            wall_norm: 0.0, // assigned after the final calibration below
        });
    };
    if let Some((serial_rep, serial_wall)) = &serial {
        if want("l7b_qproj_serial") {
            push_layer(&mut workloads, "l7b_qproj_serial", serial_rep, *serial_wall);
        }
    }
    let mut speedup_parallel = 0.0;
    if want("l7b_qproj_parallel") {
        let (serial_rep, serial_wall) = serial.as_ref().expect("serial reference ran");
        let (parallel_rep, parallel_wall) = run_layer(resolved_threads);
        assert_eq!(
            *serial_rep, parallel_rep,
            "determinism violation: parallel LLaMA-7B q_proj report differs from serial"
        );
        speedup_parallel = if parallel_wall > 0.0 { serial_wall / parallel_wall } else { 0.0 };
        push_layer(&mut workloads, "l7b_qproj_parallel", &parallel_rep, parallel_wall);
    }
    let mut plan_cache_hit_rate = 0.0;
    let mut speedup_cached = 0.0;
    if want("l7b_qproj_cached") {
        let (serial_rep, serial_wall) = serial.as_ref().expect("serial reference ran");
        // Plan-cached run: one accelerator constructed outside the
        // timing loop, so its shared cache persists across the
        // measurement repeats — modeling repeated inference over the
        // same static weights, which is exactly the cross-call reuse the
        // cache exists for. The best sample is therefore a warm-cache
        // time; the uncached serial wall is the denominator of
        // `speedup_cached`.
        let cached = Session::new(TransArrayConfig { plan_cache, ..l7b::layer_config(scale, 1) })
            .expect("valid l7b config");
        let (cached_rep, cached_wall) = measure(|| simulate_l7b(&cached, shape, l7b::PATTERN_SEED));
        assert_eq!(
            *serial_rep, cached_rep,
            "determinism violation: plan-cached LLaMA-7B q_proj report differs from uncached"
        );
        // Deterministic warm-replay hit rate: one more simulation of the
        // same layer, measured by counter deltas ([`cached_replay`]).
        // (The timing loop's aggregate rate would depend on how many
        // iterations the pilot sized — a machine-speed artifact the gate
        // must not see.)
        let (replay_rep, _, hit_rate) = cached_replay(&cached, shape, l7b::PATTERN_SEED);
        assert_eq!(*serial_rep, replay_rep, "warm plan-cached replay must stay bit-identical");
        plan_cache_hit_rate = hit_rate;
        speedup_cached = if cached_wall > 0.0 { serial_wall / cached_wall } else { 0.0 };
        push_layer(&mut workloads, "l7b_qproj_cached", &cached_rep, cached_wall);
    }
    // Functional-path workload: the exact bit-level execution engine on
    // an LLM-like integer GEMM (scaled `q_proj` shape). Guards both the
    // engine's wall time and its losslessness.
    let mut exec_ran = false;
    if want("l7b_qproj_exec") {
        let (exec_w, exec_x) = l7b::exec_operands(scale);
        let exec_reference = gemm_i32(&exec_w, &exec_x);
        let exec = Session::new(l7b::layer_config(scale, 1)).expect("valid l7b config");
        let (exec_resp, exec_wall) = measure(|| {
            let request = GemmRequest::execute(exec_w.clone(), exec_x.clone());
            exec.run(request).expect("l7b operands are valid")
        });
        let (exec_out, exec_rep) = (exec_resp.output.expect("execute output"), exec_resp.report);
        assert_eq!(exec_out, exec_reference, "functional execution engine must stay bit-exact");
        exec_ran = true;
        push_layer(&mut workloads, "l7b_qproj_exec", &exec_rep, exec_wall);
    }

    // Serving frontend: the full ta-serve stack under a seeded
    // open-loop trace, bit-checked against direct execution.
    let mut serve_stats = None;
    if want("serve_open_loop") {
        let (serve_record, stats) = serve_open_loop(scale);
        workloads.push(serve_record);
        serve_stats = Some(stats);
    }

    // Scripted overload: admission control, shedding, and worker fault
    // isolation on the virtual clock (schema-7 workload).
    let mut overload_stats = None;
    if want("serve_overload") {
        let (overload_record, stats) = serve_overload(scale);
        workloads.push(overload_record);
        overload_stats = Some(stats);
    }

    // Word-parallel kernel microbenchmarks (schema-6 workloads).
    workloads.extend(kernel_micro(scale, &want));

    // Surface the layer's DRAM traffic as requests vs bursts (one
    // request per weight/input/output stream of the shared tiling
    // policy, 64 B bursts).
    let (mut dram_requests, mut dram_bursts) = (0u64, 0u64);
    if let Some((serial_rep, _)) = &serial {
        let mut dram = DramModel::paper_default();
        dram.transfer(serial_rep.traffic.weight_bytes);
        dram.transfer(serial_rep.traffic.input_bytes);
        dram.transfer(serial_rep.traffic.output_bytes);
        dram_requests = dram.requests();
        dram_bursts = dram.bursts();
    }

    let calibration = calibration_start.min(calibration_loop());
    for w in &mut workloads {
        w.wall_norm = if calibration > 0.0 { w.wall_s / calibration } else { 0.0 };
    }

    PerfReport {
        schema: 7,
        sha: String::new(),
        scale: scale.name().to_string(),
        threads: resolved_threads,
        host_cores,
        calibration_wall_s: calibration,
        speedup_parallel,
        plan_cache_hit_rate,
        speedup_cached,
        dram_requests,
        dram_bursts,
        exec_allocs_per_subtile: if exec_ran { measure_exec_allocs() } else { -1.0 },
        contention: if want("plan_cache_contention") { contention_workload(0) } else { Vec::new() },
        serve: serve_stats,
        overload: overload_stats,
        workloads,
    }
}

/// Steady-state allocation audit of the flat execution engine: builds the
/// plans, staged inputs, arena, and accumulator for a batch of
/// representative sub-tiles **outside** the measured region, warms every
/// buffer with one full pass, then counts heap allocations across many
/// replay passes of the engine's per-sub-tile work: pattern staging
/// (`subtile_patterns_into` into a reused buffer, as the execute path's
/// worker loop does) + `evaluate_into` (dynamic) +
/// `evaluate_tile_functional_into` (static) + the fused per-row
/// accumulation. A healthy engine measures exactly `0.0` allocations per
/// sub-tile evaluation.
///
/// Deliberately **excluded**: Scoreboard/plan construction and plan-cache
/// key building — those allocate by design (a fresh plan is built once
/// per distinct pattern multiset and amortized by the plan cache); the
/// zero-allocation contract this audit enforces is scoped to the
/// *execution* path that runs for every sub-tile.
///
/// Returns `-1.0` when no counting global allocator is installed (see
/// [`crate::alloc_count`]) — the figure binaries and library tests run on
/// the plain system allocator.
fn measure_exec_allocs() -> f64 {
    if !alloc_count::counting_enabled() {
        return -1.0;
    }
    const M: usize = 32;
    const REPLAYS: u64 = 8;
    let cfg = TransArrayConfig { sample_limit: 0, ..TransArrayConfig::paper_w8() };
    let t = cfg.width as usize;
    let w = l7b::audit_weights(&cfg);
    let sliced = BitSlicedMatrix::slice(&w, 8);
    let mut src = SlicedSource::new(&sliced, cfg.n_tile(), cfg.width);
    let (n_tiles, k_chunks) = (2usize, 8usize);

    // Pre-built dynamic plans (the post-Scoreboard product the plan
    // cache would hand a warm worker), one per (n_tile, k_chunk).
    let mut plans: Vec<ExecutionPlan> = Vec::new();
    let mut all_patterns: Vec<u16> = Vec::new();
    for nt in 0..n_tiles {
        for kc in 0..k_chunks {
            let patterns = src.subtile_patterns(nt, kc);
            let sb = Scoreboard::build(cfg.scoreboard_config(), patterns.iter().copied());
            all_patterns.extend_from_slice(&patterns);
            plans.push(ExecutionPlan::from_scoreboard(&sb));
        }
    }
    let rows_per_tile = src.rows_per_subtile();
    let si = StaticSi::from_patterns(cfg.scoreboard_config(), all_patterns);

    let mut staged = RowMajor::<i64>::zeros(k_chunks * t, M);
    for r in 0..k_chunks * t {
        for (c, v) in staged.row_mut(r).iter_mut().enumerate() {
            *v = (r as i64 * 31 + c as i64 * 7) % 41 - 20;
        }
    }
    let mut acc = RowMajor::<i64>::zeros(rows_per_tile, M);
    let mut scratch = ExecScratch::new();
    let mut patterns: Vec<u16> = Vec::new();

    // One pass = the execute path's per-worker steady state: re-stage each
    // sub-tile's patterns through the production source path, then run
    // both engines with the fused accumulation.
    let mut pass = |scratch: &mut ExecScratch, acc: &mut RowMajor<i64>, patterns: &mut Vec<u16>| {
        for (i, plan) in plans.iter().enumerate() {
            let (nt, kc) = (i / k_chunks, i % k_chunks);
            src.subtile_patterns_into(nt, kc, patterns);
            let inputs: TileView<'_> = staged.view_rows(kc * t, t);
            // Dynamic engine + fused accumulate.
            plan.evaluate_into(inputs, scratch, &mut NullSink);
            for (r, &p) in patterns.iter().enumerate() {
                if p == 0 {
                    continue;
                }
                let result = scratch.result(p).expect("pattern computed");
                for (a, &v) in acc.row_mut(r).iter_mut().zip(result) {
                    *a += v;
                }
            }
            // Static engine (chain materialization path).
            si.evaluate_tile_functional_into(patterns, inputs, scratch, &mut NullSink);
        }
    };
    // Warm the arena, sort buffer, pattern buffer, and accumulator.
    pass(&mut scratch, &mut acc, &mut patterns);
    let before = alloc_count::allocations();
    for _ in 0..REPLAYS {
        pass(&mut scratch, &mut acc, &mut patterns);
    }
    let delta = alloc_count::allocations() - before;
    // Two engine evaluations (dynamic + static) per tile per replay.
    delta as f64 / (REPLAYS * 2 * plans.len() as u64) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::{CONTENTION_THREADS, DEFAULT_PLAN_CACHE_ENTRIES};

    #[test]
    fn contention_workload_forces_full_hit_rate() {
        // Small direct run of the sweep itself: every point must record
        // the exact lookup count and a positive throughput.
        let points = contention_workload(4);
        assert_eq!(points.len(), CONTENTION_THREADS.len());
        for (p, &threads) in points.iter().zip(CONTENTION_THREADS.iter()) {
            assert_eq!(p.threads, threads);
            assert_eq!(p.lookups, threads as u64 * 20_000);
            assert!(p.wall_s > 0.0 && p.mlookups_per_s > 0.0 && p.ns_per_lookup > 0.0);
        }
    }

    #[test]
    fn contention_workload_survives_many_shards() {
        // Regression test for the shard-count/capacity interaction: 256
        // shards is the auto count of a 64-core host. With a fixed total
        // capacity that meant 1-entry shards, where pre-warm hash
        // collisions evicted warm keys and the sweep's never-miss assert
        // panicked — nondeterministically by host shape. Capacity now
        // scales with the shard count, so this must hold on any host.
        for p in contention_workload(256) {
            assert!(p.mlookups_per_s > 0.0);
        }
    }

    #[test]
    fn suite_runs_at_tiny_scale_and_is_deterministic() {
        let tiny = Scale { tiles: 2, sample_limit: 4, accuracy_dim: 16 };
        let report = run_suite(tiny, 2, DEFAULT_PLAN_CACHE_ENTRIES);
        assert_eq!(report.workloads.len(), 10);
        assert_eq!(report.schema, 7);
        assert_eq!(report.contention.len(), CONTENTION_THREADS.len());
        for p in &report.contention {
            assert!(p.mlookups_per_s > 0.0, "contention sweep must measure real throughput");
        }
        assert!(report.host_cores >= 1);
        let serial = report.workloads.iter().find(|w| w.name == "l7b_qproj_serial").unwrap();
        let parallel = report.workloads.iter().find(|w| w.name == "l7b_qproj_parallel").unwrap();
        let cached = report.workloads.iter().find(|w| w.name == "l7b_qproj_cached").unwrap();
        let exec = report.workloads.iter().find(|w| w.name == "l7b_qproj_exec").unwrap();
        assert_eq!(serial.cycles, parallel.cycles, "parallel must be bit-exact");
        assert_eq!(serial.total_ops, parallel.total_ops);
        assert_eq!(serial.cycles, cached.cycles, "plan cache must be bit-exact");
        assert_eq!(serial.total_ops, cached.total_ops);
        assert!(serial.cycles > 0);
        assert!(exec.cycles > 0 && exec.total_ops > 0, "exec workload reports a real run");
        assert!(exec.density > 0.0 && exec.density < 1.0);
        assert!(report.speedup_parallel > 0.0);
        assert_eq!(
            report.plan_cache_hit_rate, 1.0,
            "a warm replay under an adequate capacity must hit every sub-tile"
        );
        assert!(report.speedup_cached > 0.0);
        assert_eq!(report.dram_requests, 3, "one request per W/I/O stream");
        assert!(report.dram_bursts > report.dram_requests, "bursts decompose requests");
        assert_eq!(
            report.exec_allocs_per_subtile, -1.0,
            "library tests run without the counting allocator"
        );
        let served = report.workloads.iter().find(|w| w.name == "serve_open_loop").unwrap();
        assert!(served.cycles > 0 && served.total_ops > 0, "serve workload sums real runs");
        let serve = report.serve.as_ref().expect("schema-5 suite always measures serving");
        assert_eq!(serve.requests, 32, "tiny scale serves tiles.max(2) * 16 requests");
        assert!(serve.padded > 0, "width-quantized buckets must pad the off-quantum shapes");
        assert!(serve.batches > 0 && serve.batches <= serve.requests);
        assert!(serve.throughput_rps > 0.0);
        assert!(serve.p50_latency_ns > 0.0 && serve.p99_latency_ns >= serve.p50_latency_ns);
        let overloaded = report.workloads.iter().find(|w| w.name == "serve_overload").unwrap();
        assert!(overloaded.cycles > 0 && overloaded.total_ops > 0, "recovery sums real runs");
        let ov = report.overload.as_ref().expect("schema-7 suite always scripts overload");
        assert!(ov.rejected > 0, "the storm must blow at least one tenant's queue depth");
        assert!(ov.shed > 0, "every admitted storm request must shed");
        assert!(ov.worker_lost > 0, "a 25% panic rate must hit some recovery request");
        assert!(ov.respawned > 0 && ov.respawned <= ov.worker_lost);
        assert_eq!(ov.submitted, ov.rejected + ov.shed + ov.worker_lost + ov.completed);
        assert!(ov.goodput > 0.0 && ov.goodput < 1.0);
        assert_eq!(ov.workers, 2);
        for name in ["kernel_micro_popcount", "kernel_micro_extract", "kernel_micro_im2col"] {
            let k = report.workloads.iter().find(|w| w.name == name).unwrap();
            assert!(k.total_ops > 0, "{name} must report a deterministic kernel output");
            assert!(k.wall_s > 0.0 && k.wall_norm > 0.0, "{name} must be timed");
        }
    }

    #[test]
    fn filtered_suite_runs_only_selected_workloads() {
        let tiny = Scale { tiles: 2, sample_limit: 4, accuracy_dim: 16 };
        let only = vec!["l7b_qproj_parallel".to_string(), "kernel_micro_popcount".to_string()];
        let report = run_suite_filtered(tiny, 2, DEFAULT_PLAN_CACHE_ENTRIES, Some(&only));
        let names: Vec<&str> = report.workloads.iter().map(|w| w.name.as_str()).collect();
        // The serial reference ran (speedup + DRAM prove it) but its
        // record is not emitted — only the selected workloads are.
        assert_eq!(names, ["l7b_qproj_parallel", "kernel_micro_popcount"]);
        assert!(report.speedup_parallel > 0.0);
        assert_eq!(report.dram_requests, 3);
        // Everything filtered out reports its "unmeasured" value.
        assert!(report.serve.is_none());
        assert!(report.overload.is_none());
        assert!(report.contention.is_empty());
        assert_eq!(report.plan_cache_hit_rate, 0.0);
        assert_eq!(report.speedup_cached, 0.0);
        assert_eq!(report.exec_allocs_per_subtile, -1.0);
    }

    #[test]
    fn kernel_micro_total_ops_are_deterministic() {
        // The gate treats kernel_micro `total_ops` as a full-strength
        // deterministic metric, so two runs at the same scale must agree
        // exactly (only the wall columns may differ).
        let tiny = Scale { tiles: 2, sample_limit: 4, accuracy_dim: 16 };
        let a = kernel_micro(tiny, &|_| true);
        let b = kernel_micro(tiny, &|_| true);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.total_ops, y.total_ops, "{} total_ops drifted across runs", x.name);
        }
    }

    #[test]
    fn serve_overload_counters_are_deterministic() {
        // The gate requires exact matches on every overload counter
        // (goodput included), so two runs at the same scale must agree
        // bit-for-bit — only the wall columns may differ.
        let tiny = Scale { tiles: 2, sample_limit: 4, accuracy_dim: 16 };
        let (rec_a, ov_a) = serve_overload(tiny);
        let (rec_b, ov_b) = serve_overload(tiny);
        assert_eq!(ov_a, ov_b, "overload counters drifted across runs");
        assert_eq!(rec_a.cycles, rec_b.cycles, "recovery cycle sums drifted across runs");
        assert_eq!(rec_a.total_ops, rec_b.total_ops);
    }

    #[test]
    #[should_panic(expected = "non-zero plan-cache capacity")]
    fn suite_rejects_zero_plan_cache() {
        let tiny = Scale { tiles: 2, sample_limit: 4, accuracy_dim: 16 };
        let _ = run_suite(tiny, 1, 0);
    }
}
