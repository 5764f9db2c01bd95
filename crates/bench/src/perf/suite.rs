//! The measurement half of the perf suite: pilot-sized best-of-N
//! timing, the calibration loop, and the workload-roster runner. The
//! workload *definitions* (shapes, configs, pattern sources, traces,
//! contention cache) live in `ta-workloads`; this module owns only how
//! they are timed and assembled into a [`PerfReport`]'s metric rows —
//! and which [`GateClass`] each row gets.

use crate::alloc_count;
use crate::perf::Better::{self, Higher, Lower};
use crate::perf::GateClass::{self, *};
use crate::perf::{MetricRow, PerfReport};
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

/// Appends a row to `rows`.
fn push(
    rows: &mut Vec<MetricRow>,
    workload: &str,
    metric: &str,
    value: f64,
    better: Better,
    class: GateClass,
) {
    rows.push(MetricRow::new(workload, metric, value, better, class));
}

/// Appends `workload`'s `wall_norm` row. It carries raw wall seconds
/// until [`run_suite_filtered`] divides every such row by the final
/// calibration.
fn push_wall(rows: &mut Vec<MetricRow>, workload: &str, wall_s: f64, class: GateClass) {
    push(rows, workload, "wall_norm", wall_s, Lower, class);
}

/// Appends the deterministic counter rows of `workload`, all `Exact`.
fn push_exact(rows: &mut Vec<MetricRow>, workload: &str, counters: &[(&str, f64)]) {
    for &(metric, value) in counters {
        push(rows, workload, metric, value, Lower, Exact);
    }
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
/// a forced 1.0 hit rate and reports, per point, the exact lookup count
/// and the aggregate hit throughput (million lookups per wall second) as
/// `plan_cache_contention_t<threads>` rows — the pure
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
fn contention_workload(shards: usize, rows: &mut Vec<MetricRow>) {
    let (cache, keys) = contention::prewarmed_cache(shards);
    for threads in contention::THREADS {
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
        let workload = format!("plan_cache_contention_t{threads}");
        let mlookups_per_s = if wall_s > 0.0 { lookups as f64 / wall_s / 1e6 } else { 0.0 };
        push_exact(rows, &workload, &[("lookups", lookups as f64)]);
        push(rows, &workload, "mlookups_per_s", mlookups_per_s, Higher, ParallelWall);
    }
}

/// The `serve_open_loop` workload: replays the seeded Poisson arrival
/// trace through a full `ta-serve` frontend (2 workers, width-quantized
/// buckets so padding is actually exercised), then checks every served
/// output bit-for-bit against a direct serial run. `cycles`/`total_ops`
/// are the deterministic sums over all served responses, and the trace
/// is seeded, so they, the request count and the padded count are
/// `Exact` rows; the batch count depends on scheduler timing (`Info`);
/// throughput and latency are `ParallelWall` rows (two workers).
///
/// # Panics
///
/// Panics if any served output differs from the direct run — the
/// serving determinism contract is part of what this workload guards.
fn serve_open_loop(scale: Scale, rows: &mut Vec<MetricRow>) {
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
    let name = "serve_open_loop";
    push_exact(
        rows,
        name,
        &[
            ("cycles", served_cycles as f64),
            ("total_ops", served_ops as f64),
            ("requests", stats.completed as f64),
            ("padded", stats.padded as f64),
            ("workers", serve::WORKERS as f64),
        ],
    );
    push(rows, name, "batches", stats.batches as f64, Lower, Info);
    push_wall(rows, name, wall, ParallelWall);
    let throughput = if wall > 0.0 { count as f64 / wall } else { 0.0 };
    push(rows, name, "throughput_rps", throughput, Higher, ParallelWall);
    let p50 = latencies[latencies.len() / 2] as f64;
    push(rows, name, "p50_latency_ns", p50, Lower, ParallelWall);
    let p99 = latencies[latencies.len() * 99 / 100] as f64;
    push(rows, name, "p99_latency_ns", p99, Lower, ParallelWall);
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

/// The `serve_overload` workload: the serving stack's
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
/// Every counter, and the `cycles`/`total_ops` sums over completed
/// responses, is an `Exact` row; the whole protocol is timed as a single
/// pass (repeating it would replay the fault stream from a different
/// offset) into a `ParallelWall` row.
///
/// # Panics
///
/// Panics if any counter disagrees with the server's own accounting,
/// if a storm request resolves as anything but `Shed`, if a recovery
/// request resolves as anything but a bit-identical response or
/// `WorkerLost`, or if the whole recovery phase completes zero
/// requests.
fn serve_overload(scale: Scale, rows: &mut Vec<MetricRow>) {
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
    let name = "serve_overload";
    push_exact(
        rows,
        name,
        &[
            ("cycles", served_cycles as f64),
            ("total_ops", served_ops as f64),
            ("submitted", submitted as f64),
            ("rejected", rejected as f64),
            ("shed", shed as f64),
            ("worker_lost", worker_lost as f64),
            ("completed", completed as f64),
            ("workers", serve::WORKERS as f64),
            ("respawned", stats.respawned as f64),
        ],
    );
    push(rows, name, "goodput", completed as f64 / submitted as f64, Higher, Exact);
    push_wall(rows, name, wall, ParallelWall);
}

/// The `kernel_micro_*` workloads: the four word-parallel primitive
/// families the `ta_bitslice::kernels` facade owns — row-word
/// popcount/XOR-popcount sweeps, sub-tile TransRow pattern extraction,
/// int8 bit-plane slicing, and im2col lowering — plus the simulator's
/// Gaussian weight pattern source, measured in isolation,
/// so a per-bit loop creeping back into any of them shows up as a
/// standalone wall regression instead of being diluted into a full-layer
/// run. Every matrix has a non-word-multiple column count, keeping the
/// kernels' masked-tail paths inside the timed region.
///
/// `total_ops` is a deterministic kernel *output* (set bits counted /
/// extracted-pattern bits / set plane bits / source pattern bits / nonzero
/// lowered elements), an `Exact` row that catches kernel correctness
/// drift. The µs-scale iterations swing too far on a shared host to gate
/// on every host, so `wall_norm` is `ParallelWall`. `want` filters which
/// of the five are measured.
fn kernel_micro(scale: Scale, want: &dyn Fn(&str) -> bool, rows: &mut Vec<MetricRow>) {
    let mut record = |name: &str, total_ops: u64, wall: f64| {
        push_exact(rows, name, &[("total_ops", total_ops as f64)]);
        push_wall(rows, name, wall, ParallelWall);
    };

    if want("kernel_micro_popcount") || want("kernel_micro_extract") {
        let planes = kernel::plane_matrix(scale);
        if want("kernel_micro_popcount") {
            let (pop_bits, pop_wall) = measure(|| black_box(kernel::popcount_total(&planes)));
            record("kernel_micro_popcount", pop_bits, pop_wall);
        }
        if want("kernel_micro_extract") {
            let mut patterns: Vec<u16> = Vec::new();
            let (ext_bits, ext_wall) =
                measure(|| black_box(kernel::extract_total(&planes, &mut patterns)));
            record("kernel_micro_extract", ext_bits, ext_wall);
        }
    }

    if want("kernel_micro_slice") {
        let m = kernel::slice_matrix(scale);
        let (set_bits, slice_wall) = measure(|| black_box(kernel::slice_set_bits(&m)));
        record("kernel_micro_slice", set_bits, slice_wall);
    }

    if want("kernel_micro_source") {
        let mut patterns: Vec<u16> = Vec::new();
        let (set_bits, source_wall) =
            measure(|| black_box(kernel::source_set_bits(scale, &mut patterns)));
        record("kernel_micro_source", set_bits, source_wall);
    }

    if want("kernel_micro_im2col") {
        let (shape, input) = kernel::conv_case(scale);
        let (im_nonzero, im_wall) = measure(|| black_box(kernel::im2col_nonzeros(&shape, &input)));
        record("kernel_micro_im2col", im_nonzero, im_wall);
    }
}

/// Appends one simulated layer's rows: cycles and ops are `Exact`, the
/// model ratios `Model`, and the wall row takes `wall`'s class.
fn push_layer(
    rows: &mut Vec<MetricRow>,
    name: &str,
    rep: &GemmReport,
    wall_s: f64,
    wall: GateClass,
) {
    push_exact(rows, name, &[("cycles", rep.cycles as f64), ("total_ops", rep.total_ops as f64)]);
    push(rows, name, "density", rep.density, Lower, Model);
    push(rows, name, "macs_per_cycle", rep.macs_per_cycle(), Higher, Model);
    push_wall(rows, name, wall_s, wall);
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
/// selected (its rows are only emitted when selected itself). A
/// filtered-out workload emits no rows.
///
/// The single-threaded, millisecond-scale LLaMA-7B walls
/// (`l7b_qproj_{serial,cached,exec}`) are the `SerialWall` rows; every
/// other wall row runs worker threads or a µs-scale iteration and is
/// `ParallelWall`.
///
/// # Panics
///
/// Panics if the parallel **or plan-cached** LLaMA-7B run is not
/// bit-identical to the serial run — that is a determinism-contract
/// violation, which the CI gate must surface loudly. Also panics if
/// `plan_cache` is zero (the suite exists to keep the cache measured; a
/// run without it cannot produce the gated hit rate).
pub fn run_suite(
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
    let mut rows = Vec::new();

    // Fig. 9 design point: Scoreboard-only, the DSE hot path.
    if want("fig9_dse_t8_r256") {
        let (stats, wall) = measure(|| fig9::suite_point(scale.tiles));
        let name = "fig9_dse_t8_r256";
        push_exact(&mut rows, name, &[("total_ops", stats.total_ops as f64)]);
        push(&mut rows, name, "density", stats.density(), Lower, Model);
        push_wall(&mut rows, name, wall, ParallelWall);
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
    if let Some((serial_rep, serial_wall)) = &serial {
        if want("l7b_qproj_serial") {
            push_layer(&mut rows, "l7b_qproj_serial", serial_rep, *serial_wall, SerialWall);
        }
    }
    if want("l7b_qproj_parallel") {
        let (serial_rep, serial_wall) = serial.as_ref().expect("serial reference ran");
        let (parallel_rep, parallel_wall) = run_layer(resolved_threads);
        assert_eq!(
            *serial_rep, parallel_rep,
            "determinism violation: parallel LLaMA-7B q_proj report differs from serial"
        );
        let name = "l7b_qproj_parallel";
        push_layer(&mut rows, name, &parallel_rep, parallel_wall, ParallelWall);
        let speedup = if parallel_wall > 0.0 { serial_wall / parallel_wall } else { 0.0 };
        push(&mut rows, name, "speedup_parallel", speedup, Higher, ParallelWall);
    }
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
        // same layer, measured by counter deltas. (The timing loop's
        // aggregate rate would depend on how many iterations the pilot
        // sized — a machine-speed artifact the gate must not see.)
        let stats = || cached.accelerator().plan_cache_stats().expect("cached session");
        let before = stats();
        let replay_rep = simulate_l7b(&cached, shape, l7b::PATTERN_SEED);
        let hit_rate = stats().delta(&before).hit_rate();
        assert_eq!(*serial_rep, replay_rep, "warm plan-cached replay must stay bit-identical");
        let name = "l7b_qproj_cached";
        push_layer(&mut rows, name, &cached_rep, cached_wall, SerialWall);
        push(&mut rows, name, "plan_cache_hit_rate", hit_rate, Higher, Exact);
        let speedup = if cached_wall > 0.0 { serial_wall / cached_wall } else { 0.0 };
        push(&mut rows, name, "speedup_cached", speedup, Higher, Info);
    }
    // Functional-path workload: the exact bit-level execution engine on
    // an LLM-like integer GEMM (scaled `q_proj` shape). Guards both the
    // engine's wall time and its losslessness.
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
        push_layer(&mut rows, "l7b_qproj_exec", &exec_rep, exec_wall, SerialWall);
    }

    // Serving frontend: the full ta-serve stack under a seeded
    // open-loop trace, bit-checked against direct execution.
    if want("serve_open_loop") {
        serve_open_loop(scale, &mut rows);
    }

    // Scripted overload: admission control, shedding, and worker fault
    // isolation on the virtual clock.
    if want("serve_overload") {
        serve_overload(scale, &mut rows);
    }

    // Word-parallel kernel microbenchmarks.
    kernel_micro(scale, &want, &mut rows);

    // Surface the layer's DRAM traffic as requests vs bursts (one
    // request per weight/input/output stream of the shared tiling
    // policy, 64 B bursts).
    if let Some((serial_rep, _)) = &serial {
        let mut dram = DramModel::paper_default();
        dram.transfer(serial_rep.traffic.weight_bytes);
        dram.transfer(serial_rep.traffic.input_bytes);
        dram.transfer(serial_rep.traffic.output_bytes);
        let traffic =
            [("dram_requests", dram.requests() as f64), ("dram_bursts", dram.bursts() as f64)];
        push_exact(&mut rows, "l7b_qproj", &traffic);
    }

    let calibration = calibration_start.min(calibration_loop());
    for row in rows.iter_mut().filter(|r| r.metric == "wall_norm") {
        row.value = if calibration > 0.0 { row.value / calibration } else { 0.0 };
    }

    // Steady-state allocation audit, only where a counting allocator is
    // installed (the `bench_smoke` binary; library tests run without).
    if want("l7b_qproj_exec") && alloc_count::counting_enabled() {
        let allocs = measure_exec_allocs();
        push_exact(&mut rows, "l7b_qproj_exec", &[("exec_allocs_per_subtile", allocs)]);
    }
    if want("plan_cache_contention") {
        contention_workload(0, &mut rows);
    }

    PerfReport {
        sha: String::new(),
        scale: scale.name().to_string(),
        threads: resolved_threads,
        host_cores,
        calibration_wall_s: calibration,
        rows,
    }
}

/// Steady-state allocation audit of the flat execution engine: builds the
/// plans, staged inputs, arena, and accumulator for a batch of
/// representative sub-tiles **outside** the measured region, warms every
/// buffer with one full pass, then counts heap allocations across many
/// replay passes of the engine's per-sub-tile work: pattern staging
/// (`subtile_patterns_into` into a reused buffer, as the execute path's
/// worker loop does) + `evaluate_into` (dynamic) +
/// `evaluate_tile_functional_into` (static) + the engine's per-weight-row
/// recombination (`ExecScratch::recombine`). A healthy engine measures
/// exactly `0.0` allocations per sub-tile evaluation.
///
/// Deliberately **excluded**: Scoreboard/plan construction and plan-cache
/// key building — those allocate by design (a fresh plan is built once
/// per distinct pattern multiset and amortized by the plan cache); the
/// zero-allocation contract this audit enforces is scoped to the
/// *execution* path that runs for every sub-tile.
///
/// Needs a counting global allocator (see [`crate::alloc_count`]); the
/// figure binaries and library tests run on the plain system allocator.
fn measure_exec_allocs() -> f64 {
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
    let si = StaticSi::from_patterns(cfg.scoreboard_config(), all_patterns);

    let mut staged = RowMajor::<i32>::zeros(k_chunks * t, M);
    for r in 0..k_chunks * t {
        for (c, v) in staged.row_mut(r).iter_mut().enumerate() {
            *v = (r as i32 * 31 + c as i32 * 7) % 41 - 20;
        }
    }
    let s_bits = cfg.weight_bits as usize;
    let mut acc = RowMajor::<i32>::zeros(cfg.n_tile(), M);
    let mut scratch = ExecScratch::new();
    let mut patterns: Vec<u16> = Vec::new();

    // One pass = the execute path's per-worker steady state: re-stage each
    // sub-tile's patterns through the production source path, then run
    // both engines with the engine's recombination.
    let mut pass =
        |scratch: &mut ExecScratch<i32>, acc: &mut RowMajor<i32>, patterns: &mut Vec<u16>| {
            for (i, plan) in plans.iter().enumerate() {
                let (nt, kc) = (i / k_chunks, i % k_chunks);
                src.subtile_patterns_into(nt, kc, patterns);
                let inputs: TileView<'_, i32> = staged.view_rows(kc * t, t);
                // Dynamic engine + recombination.
                plan.evaluate_into(inputs, scratch, &mut NullSink);
                for (n, planes) in patterns.chunks_exact(s_bits).enumerate() {
                    scratch.recombine(acc.row_mut(n), planes);
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
    use crate::perf::DEFAULT_PLAN_CACHE_ENTRIES;

    const TINY: Scale = Scale { tiles: 2, sample_limit: 4, accuracy_dim: 16 };

    /// The rows of `workload`, wall rows dropped (only they may differ
    /// between two runs).
    fn deterministic(rows: &[MetricRow]) -> Vec<&MetricRow> {
        rows.iter().filter(|r| !r.class.is_wall() && r.class != Info).collect()
    }

    #[test]
    fn contention_workload_forces_full_hit_rate() {
        // Small direct run of the sweep itself: every point must record
        // the exact lookup count and a positive throughput. 256 shards
        // is the auto count of a 64-core host, where fixed-capacity
        // 1-entry shards once evicted warm keys and panicked the sweep's
        // never-miss assert; capacity now scales with the shard count.
        for shards in [4, 256] {
            let mut rows = Vec::new();
            contention_workload(shards, &mut rows);
            assert_eq!(rows.len(), 2 * contention::THREADS.len());
            for (pair, threads) in rows.chunks(2).zip(contention::THREADS) {
                assert_eq!(pair[0].workload, format!("plan_cache_contention_t{threads}"));
                assert_eq!(pair[0].value, threads as f64 * 20_000.0);
                assert!(pair[1].value > 0.0, "contention sweep must measure real throughput");
            }
        }
    }

    #[test]
    fn suite_runs_at_tiny_scale_and_is_deterministic() {
        let report = run_suite(TINY, 2, DEFAULT_PLAN_CACHE_ENTRIES, None);
        let v = |workload: &str, metric: &str| {
            report.value(workload, metric).unwrap_or_else(|| panic!("{workload}/{metric} missing"))
        };
        assert!(report.host_cores >= 1);
        for metric in ["cycles", "total_ops"] {
            let serial = v("l7b_qproj_serial", metric);
            assert!(serial > 0.0);
            assert_eq!(serial, v("l7b_qproj_parallel", metric), "parallel must be bit-exact");
            assert_eq!(serial, v("l7b_qproj_cached", metric), "plan cache must be bit-exact");
            assert!(v("l7b_qproj_exec", metric) > 0.0, "exec workload reports a real run");
            assert!(v("serve_open_loop", metric) > 0.0, "serve workload sums real runs");
            assert!(v("serve_overload", metric) > 0.0, "recovery sums real runs");
        }
        assert!(v("l7b_qproj_exec", "density") > 0.0 && v("l7b_qproj_exec", "density") < 1.0);
        assert!(v("l7b_qproj_parallel", "speedup_parallel") > 0.0);
        assert_eq!(
            v("l7b_qproj_cached", "plan_cache_hit_rate"),
            1.0,
            "a warm replay under an adequate capacity must hit every sub-tile"
        );
        assert!(v("l7b_qproj_cached", "speedup_cached") > 0.0);
        assert_eq!(v("l7b_qproj", "dram_requests"), 3.0, "one request per W/I/O stream");
        assert!(v("l7b_qproj", "dram_bursts") > 3.0, "bursts decompose requests");
        assert!(
            report.row("l7b_qproj_exec", "exec_allocs_per_subtile").is_none(),
            "library tests run without the counting allocator"
        );
        assert_eq!(v("serve_open_loop", "requests"), 32.0, "tiny scale serves tiles.max(2) * 16");
        assert!(v("serve_open_loop", "padded") > 0.0, "quantized buckets pad off-quantum shapes");
        let batches = v("serve_open_loop", "batches");
        assert!(batches > 0.0 && batches <= 32.0);
        assert!(v("serve_open_loop", "throughput_rps") > 0.0);
        let p50 = v("serve_open_loop", "p50_latency_ns");
        assert!(p50 > 0.0 && v("serve_open_loop", "p99_latency_ns") >= p50);
        assert!(v("serve_overload", "rejected") > 0.0, "the storm must blow a queue depth");
        assert!(v("serve_overload", "shed") > 0.0, "every admitted storm request must shed");
        let lost = v("serve_overload", "worker_lost");
        assert!(lost > 0.0, "a 25% panic rate must hit some recovery request");
        let respawned = v("serve_overload", "respawned");
        assert!(respawned > 0.0 && respawned <= lost);
        let accounted = ["rejected", "shed", "worker_lost", "completed"];
        let sum: f64 = accounted.iter().map(|m| v("serve_overload", m)).sum();
        assert_eq!(v("serve_overload", "submitted"), sum);
        let goodput = v("serve_overload", "goodput");
        assert!(goodput > 0.0 && goodput < 1.0);
        let micros = ["popcount", "extract", "slice", "source", "im2col"]
            .map(|k| format!("kernel_micro_{k}"));
        for name in &micros {
            assert!(v(name, "total_ops") > 0.0, "{name} must report a deterministic kernel output");
            assert!(v(name, "wall_norm") > 0.0, "{name} must be timed");
        }
        assert_eq!(report.rows.iter().filter(|r| r.workload.contains("contention")).count(), 8);
        // The wall classes are fixed by the suite: only the serial
        // millisecond-scale layer walls gate on every host.
        let serial_wall: Vec<String> =
            report.rows.iter().filter(|r| r.class == SerialWall).map(MetricRow::id).collect();
        assert_eq!(
            serial_wall,
            [
                "l7b_qproj_serial/wall_norm",
                "l7b_qproj_cached/wall_norm",
                "l7b_qproj_exec/wall_norm"
            ]
        );
        let again = run_suite(TINY, 2, DEFAULT_PLAN_CACHE_ENTRIES, None);
        assert_eq!(deterministic(&report.rows), deterministic(&again.rows));
    }

    #[test]
    fn filtered_suite_runs_only_selected_workloads() {
        let only = vec!["l7b_qproj_parallel".to_string(), "kernel_micro_popcount".to_string()];
        let report = run_suite(TINY, 2, DEFAULT_PLAN_CACHE_ENTRIES, Some(&only));
        let mut workloads: Vec<&str> = report.rows.iter().map(|r| r.workload.as_str()).collect();
        workloads.dedup();
        // The serial reference ran (speedup + DRAM prove it) but its
        // rows are not emitted — only the selected workloads' are.
        assert_eq!(workloads, ["l7b_qproj_parallel", "kernel_micro_popcount", "l7b_qproj"]);
        assert!(report.value("l7b_qproj_parallel", "speedup_parallel").unwrap() > 0.0);
        assert_eq!(report.value("l7b_qproj", "dram_requests"), Some(3.0));
    }

    #[test]
    fn serve_overload_counters_are_deterministic() {
        // Every overload counter is an exact row (goodput included), so
        // two runs at the same scale must agree bit-for-bit — only the
        // wall row may differ.
        let (mut a, mut b) = (Vec::new(), Vec::new());
        serve_overload(TINY, &mut a);
        serve_overload(TINY, &mut b);
        assert_eq!(deterministic(&a), deterministic(&b), "overload counters drifted across runs");
    }

    #[test]
    #[should_panic(expected = "non-zero plan-cache capacity")]
    fn suite_rejects_zero_plan_cache() {
        let _ = run_suite(TINY, 1, 0, None);
    }
}
