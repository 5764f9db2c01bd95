//! `exec_prefill`: exact `GemmRequest::execute` of LLM-like int8 operands,
//! and the exact-execution replay shared with `serve_decode`.

use std::time::Instant;

use ta_bitslice::{BitSlicedMatrix, RowMajor};
use ta_core::TransArrayConfig;
use ta_core::{GemmReport, GemmRequest, GemmShape, PatternSource, Session, SlicedSource};
use ta_hasse::{ExecScratch, ExecutionPlan, NullSink, Scoreboard, TileStats};
use ta_models::{llm_activation_matrix_int, llm_weight_matrix_int, splitmix64};
use ta_quant::{gemm_i32, MatI32};

use crate::sim::scaled_ops;
use crate::trace::{stage, Counters, Tracer};
use crate::{
    alternate, measure_setup, min_requests, nproc, Args, Budget, ClosedLoop, Outcome, SETUP_REPS,
};

/// The shape (n, k, m) of every pooled request: a scaled LLaMA `q_proj`.
/// One shape keeps the latency distribution unimodal, so its p50 and p90
/// do not jump between shapes.
const SHAPE: (usize, usize, usize) = (256, 1024, 256);

/// Distinct requests (operand seeds). The run cycles through them; with
/// the plan cache off a repeat costs what a first run does.
const POOL: u64 = 4;

/// One pooled request with its `gemm_i32` reference.
pub struct Entry {
    pub weights: MatI32,
    pub input: MatI32,
    pub want: MatI32,
}

impl Entry {
    pub fn request(&self) -> GemmRequest {
        GemmRequest::execute(self.weights.clone(), self.input.clone())
    }

    pub fn shape(&self) -> GemmShape {
        GemmShape::new(self.weights.rows(), self.weights.cols(), self.input.cols())
    }
}

fn pool(run_seed: u64) -> Vec<Entry> {
    let (n, k, m) = SHAPE;
    (0..POOL)
        .map(|i| {
            let seed = splitmix64(run_seed ^ (0xE8EC << 8 | i));
            let weights = llm_weight_matrix_int(n, k, 8, seed);
            let input = llm_activation_matrix_int(k, m, 8, seed ^ 1);
            let want = gemm_i32(&weights, &input);
            Entry { weights, input, want }
        })
        .collect()
}

fn correct(cfg: &TransArrayConfig, entry: &Entry, output: Option<&MatI32>, r: &GemmReport) -> bool {
    let shape = entry.shape();
    let subtiles = shape.n.div_ceil(cfg.n_tile()) * shape.k.div_ceil(cfg.width as usize);
    output == Some(&entry.want) && r.subtiles_simulated == subtiles as u64
}

/// Runs an execute request the traced way: parallel untraced and traced,
/// then serially and as a replay of its stages, both under the request's
/// root span.
pub fn run_traced(
    session: &Session,
    entry: &Entry,
    tracer: &mut Tracer,
    counters: &mut Counters,
    request: u64,
) -> bool {
    let cfg = session.config();
    // Nothing of the exact path is timed in place, so the traced parallel
    // run differs from the untraced one only by run-to-run noise.
    let run = || session.run(entry.request());
    let (par, par_traced) = alternate(request, counters, run, run);
    let par = par.expect("pooled requests are valid");
    let root = tracer.open("request", None, request);
    let start = tracer.now();
    let serial = session.run_serial(entry.request()).expect("pooled requests are valid");
    let end = tracer.now();
    counters.serial_ns += end - start;
    tracer.record("core.session.run_serial", start, end, root, request);
    let replay_span = tracer.open("replay", root, request);
    let (n, ops) = replay(cfg, entry, tracer, counters, replay_span, request);
    tracer.close(replay_span);
    tracer.close(root);
    let par_traced = par_traced.expect("pooled requests are valid");
    [&par_traced, &serial].iter().all(|r| **r == par)
        && correct(cfg, entry, par.output.as_ref(), &par.report)
        && n == par.report.subtiles_simulated
        && scaled_ops(cfg, entry.shape(), ops, n) == par.report.total_ops
}

/// Replays the exact path's stages: slicing, sub-tile extraction,
/// Scoreboard, statistics, plan build and slab evaluation. Staging the
/// input and accumulating outputs stay in `core.self_s`. Returns
/// (sub-tiles, summed ops).
fn replay(
    cfg: &TransArrayConfig,
    entry: &Entry,
    t: &mut Tracer,
    counters: &mut Counters,
    parent: Option<usize>,
    req: u64,
) -> (u64, u64) {
    let shape = entry.shape();
    let width = cfg.width as usize;
    let k_chunks = shape.k.div_ceil(width);
    let sliced = t.time(stage::SLICE, parent, req, || {
        BitSlicedMatrix::slice(&entry.weights, cfg.weight_bits)
    });
    let mut staged = RowMajor::<i64>::zeros(k_chunks * width, shape.m);
    for k in 0..shape.k {
        for (s, &v) in staged.row_mut(k).iter_mut().zip(entry.input.row(k)) {
            *s = i64::from(v);
        }
    }
    let sb_cfg = cfg.scoreboard_config();
    let mut src = SlicedSource::new(&sliced, cfg.n_tile(), cfg.width);
    let (mut scratch, mut patterns) = (ExecScratch::new(), Vec::new());
    let (mut n, mut ops) = (0, 0);
    for nt in 0..shape.n.div_ceil(cfg.n_tile()) {
        for kc in 0..k_chunks {
            t.time(stage::EXTRACT, parent, req, || {
                src.subtile_patterns_into(nt, kc, &mut patterns)
            });
            let sb = t.time(stage::SCOREBOARD, parent, req, || {
                Scoreboard::build(sb_cfg, patterns.iter().copied())
            });
            let stats = t.time(stage::TILE_STATS, parent, req, || TileStats::from_scoreboard(&sb));
            let plan =
                t.time(stage::PLAN_BUILD, parent, req, || ExecutionPlan::from_scoreboard(&sb));
            let inputs = staged.view_rows(kc * width, width);
            t.time(stage::EVAL, parent, req, || {
                plan.evaluate_into(inputs, &mut scratch, &mut NullSink)
            });
            counters.node_ops += plan.node_op_count() as u64;
            n += 1;
            ops += stats.total_ops;
        }
    }
    (n, ops)
}

/// `exec_prefill`: a closed loop of exact executions over the pool.
pub fn prefill(args: &Args) -> Outcome {
    let (entries, session, setup_s) = measure_setup(SETUP_REPS, || {
        let cfg = TransArrayConfig { threads: nproc(), ..TransArrayConfig::paper_w8() };
        (pool(args.seed), Session::new(cfg).expect("the paper-W8 design point is valid"))
    });
    let cfg = session.config().clone();
    let mut out = Outcome::new(setup_s, true);
    let budget = Budget::new(args, min_requests(1));
    if args.trace {
        let (mut tracer, mut counters) = (Tracer::default(), Counters::default());
        let mut i = 0;
        while budget.more(i) {
            let ok = run_traced(
                &session,
                &entries[i % entries.len()],
                &mut tracer,
                &mut counters,
                i as u64,
            );
            out.check(ok);
            i += 1;
        }
        return out.traced(args, &tracer, &counters, &Default::default());
    }
    let mut run = ClosedLoop::default();
    let mut i = 0;
    while budget.more(i) {
        let entry = &entries[i % entries.len()];
        let request = entry.request();
        let started = Instant::now();
        let resp = session.run(request);
        let elapsed = started.elapsed();
        let resp = resp.expect("pooled requests are valid");
        run.record(elapsed, &resp.report, correct(&cfg, entry, resp.output.as_ref(), &resp.report));
        i += 1;
    }
    out.closed_loop(run, 1)
}
