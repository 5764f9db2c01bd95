//! The two simulation workloads: `sim_prefill` (plan cache off) and
//! `sim_seq_sweep_cached` (plan cache on), both over the FC GEMMs of
//! LLaMA-7B blocks with paper-W8 weights.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use ta_core::{GemmReport, GemmRequest, GemmShape, PatternSource, Session, TransArrayConfig};
use ta_hasse::{CachedPlan, PlanCacheStats, PlanKey, Scoreboard, SharedPlanCache, TileStats};
use ta_models::{splitmix64, LlamaConfig, QuantGaussianSource};

use crate::stats::Digest;
use crate::trace::{stage, Counters, SourceClock, TimedSource, Tracer};
use crate::{
    alternate, measure_setup, min_requests, nproc, Args, Budget, ClosedLoop, Outcome, SETUP_REPS,
};

/// Prefill length of `sim_prefill` and of the sweep's cold pass.
const PREFILL_SEQ: usize = 2048;

/// The sweep's sequence lengths: the first pass fills the plan cache, the
/// later ones hit it (the key ignores `m`).
const SWEEP_SEQS: [usize; 4] = [PREFILL_SEQ, 512, 128, 1];

/// Plan-cache entries per sweep session: one block's 7 × 2,048 sampled
/// sub-tiles fit with no eviction.
const SWEEP_CACHE_ENTRIES: usize = 16_384;

/// Pattern seed of the anchor request (LLaMA-7B `q_proj` at seq 2048).
const ANCHOR_SEED: u64 = 1234;

/// Digest of the anchor's simulated statistics (cycles, ops, dense ops,
/// energy bits, sub-tiles). A change that only speeds the simulator up
/// must leave it as it is.
const ANCHOR_DIGEST: u64 = 0x9f09_4405_ea0f_9e65;

/// Every `SERIAL_CHECK_EVERY`-th `sim_prefill` request is re-run serially
/// (untimed) and must report bit-identically.
const SERIAL_CHECK_EVERY: usize = 8;

fn config(plan_cache: usize) -> TransArrayConfig {
    TransArrayConfig { threads: nproc(), plan_cache, ..TransArrayConfig::paper_w8() }
}

fn session(plan_cache: usize) -> Session {
    Session::new(config(plan_cache)).expect("the paper-W8 design point is valid")
}

/// The seven FC GEMMs of one LLaMA-7B block at `seq`.
fn block(seq: usize) -> Vec<GemmShape> {
    LlamaConfig::l1_7b().fc_layers(seq).into_iter().map(|g| g.shape).collect()
}

/// The pattern seed of the `index`-th layer a run simulates.
fn layer_seed(run_seed: u64, index: usize) -> u64 {
    splitmix64(splitmix64(run_seed) ^ index as u64)
}

fn source(cfg: &TransArrayConfig, seed: u64) -> QuantGaussianSource {
    QuantGaussianSource::new(cfg.width, cfg.weight_bits, cfg.n_tile(), seed)
}

/// The sub-tiles `simulate_layer` visits: every `step`-th of the grid,
/// with `step` set by `sample_limit`.
fn sampled_subtiles(cfg: &TransArrayConfig, shape: GemmShape) -> Vec<(usize, usize)> {
    let k_chunks = shape.k.div_ceil(cfg.width as usize);
    let total = shape.n.div_ceil(cfg.n_tile()) * k_chunks;
    let limit = cfg.sample_limit;
    let step = if limit > 0 && total > limit { total.div_ceil(limit) } else { 1 };
    (0..total).step_by(step).map(|i| (i / k_chunks, i % k_chunks)).collect()
}

/// `finalize`'s op count from the summed per-sub-tile ops of a replay.
pub fn scaled_ops(cfg: &TransArrayConfig, shape: GemmShape, ops: u64, simulated: u64) -> u64 {
    let total = (shape.n.div_ceil(cfg.n_tile()) * shape.k.div_ceil(cfg.width as usize)) as f64;
    let scale = if simulated == 0 { 0.0 } else { total / simulated as f64 };
    let m_reps = shape.m.div_ceil(cfg.m_tile * cfg.act_split()) as f64;
    (ops as f64 * scale * m_reps).round() as u64
}

/// Runs the anchor on `s` and checks its digest against the recorded one.
fn anchor_matches(s: &Session) -> bool {
    let cfg = s.config();
    let req = GemmRequest::simulate(block(PREFILL_SEQ)[0], source(cfg, ANCHOR_SEED));
    let report = s.run(req).expect("the anchor request is valid").report;
    let got = Digest::of(&report).0;
    if got != ANCHOR_DIGEST {
        eprintln!("anchor digest {got:#018x} != recorded {ANCHOR_DIGEST:#018x}");
    }
    got == ANCHOR_DIGEST
}

/// Cheap per-report invariants of a simulate request.
fn plausible(cfg: &TransArrayConfig, shape: GemmShape, r: &GemmReport) -> bool {
    r.shape == shape
        && r.subtiles_simulated == sampled_subtiles(cfg, shape).len() as u64
        && r.cycles > 0
        && r.total_ops <= r.dense_bit_ops
}

/// The four ways a traced run runs one simulate request: untraced
/// parallel, traced parallel (source timed in place, forks included),
/// traced serial, and the replay of its sub-tiles. The request's root span
/// holds the serial run and the replay.
struct TracedSim<'a> {
    tracer: &'a mut Tracer,
    counters: &'a mut Counters,
    request: u64,
    root: Option<usize>,
}

impl<'a> TracedSim<'a> {
    fn new(tracer: &'a mut Tracer, counters: &'a mut Counters, request: u64) -> Self {
        let root = tracer.open("request", None, request);
        Self { tracer, counters, request, root }
    }

    /// Runs the request three ways on `sessions` (parallel untraced,
    /// parallel traced, serial traced) and returns the three reports and
    /// the serial session's cache delta.
    fn run(
        &mut self,
        sessions: [&Session; 3],
        shape: GemmShape,
        seed: u64,
    ) -> ([GemmReport; 3], Option<PlanCacheStats>) {
        let cfg = sessions[0].config().clone();
        let (par, par_traced) = alternate(
            self.request,
            self.counters,
            || sessions[0].run(GemmRequest::simulate(shape, source(&cfg, seed))),
            || {
                let traced = TimedSource::new(Box::new(source(&cfg, seed)), Arc::default());
                sessions[1].run(GemmRequest::simulate(shape, traced))
            },
        );

        let clock = Arc::new(SourceClock::default());
        let traced = TimedSource::new(Box::new(source(&cfg, seed)), Arc::clone(&clock));
        let before = sessions[2].accelerator().plan_cache_stats();
        let start = self.tracer.now();
        let serial = sessions[2].run_serial(GemmRequest::simulate(shape, traced));
        let end = self.tracer.now();
        self.tracer.record("core.session.run_serial", start, end, self.root, self.request);
        self.counters.serial_ns += end - start;
        let delta =
            sessions[2].accelerator().plan_cache_stats().zip(before).map(|(a, b)| a.delta(&b));
        let src = clock.stage();
        self.tracer.add(stage::SOURCE, src.calls, src.busy_ns);
        let reports =
            [par, par_traced, serial].map(|r| r.expect("simulate requests are valid").report);
        (reports, delta)
    }

    /// Opens the replay's span under the request's root.
    fn open_replay(&mut self) -> Option<usize> {
        self.tracer.open("replay", self.root, self.request)
    }

    /// Closes the replay's span and the request's root.
    fn close_replay(&mut self, replay: Option<usize>) {
        self.tracer.close(replay);
        self.tracer.close(self.root);
    }

    /// Replays the uncached path: Scoreboard build and tile statistics per
    /// sampled sub-tile. Returns (sub-tiles, summed ops).
    fn replay_uncached(
        &mut self,
        cfg: &TransArrayConfig,
        shape: GemmShape,
        seed: u64,
    ) -> (u64, u64) {
        let parent = self.open_replay();
        let mut src = source(cfg, seed);
        let sb_cfg = cfg.scoreboard_config();
        let (mut n, mut ops) = (0, 0);
        for (nt, kc) in sampled_subtiles(cfg, shape) {
            let patterns = src.subtile_patterns(nt, kc);
            let sb = self.tracer.time(stage::SCOREBOARD, parent, self.request, || {
                Scoreboard::build(sb_cfg, patterns.iter().copied())
            });
            let stats = self
                .tracer
                .time(stage::TILE_STATS, parent, self.request, || TileStats::from_scoreboard(&sb));
            n += 1;
            ops += stats.total_ops;
        }
        self.close_replay(parent);
        (n, ops)
    }

    /// Replays the cached path into `cache`: key, probe, and on a miss
    /// Scoreboard build, statistics and insert. Returns (sub-tiles, ops).
    fn replay_cached(
        &mut self,
        cfg: &TransArrayConfig,
        shape: GemmShape,
        seed: u64,
        cache: &SharedPlanCache,
    ) -> (u64, u64) {
        let parent = self.open_replay();
        let mut src = source(cfg, seed);
        let sb_cfg = cfg.scoreboard_config();
        let req = self.request;
        let (mut n, mut ops) = (0, 0);
        for (nt, kc) in sampled_subtiles(cfg, shape) {
            let patterns = src.subtile_patterns(nt, kc);
            let t = &mut *self.tracer;
            let key =
                t.time(stage::PLAN_KEY, parent, req, || PlanKey::new(&sb_cfg, None, &patterns));
            let plan = match t.time(stage::PROBE, parent, req, || cache.get(&key)) {
                Some(hit) => hit,
                None => {
                    let sb = t.time(stage::SCOREBOARD, parent, req, || {
                        Scoreboard::build(sb_cfg, patterns.iter().copied())
                    });
                    let stats =
                        t.time(stage::TILE_STATS, parent, req, || TileStats::from_scoreboard(&sb));
                    let plan = Arc::new(CachedPlan::Dynamic {
                        stats: Arc::new(stats),
                        plan: OnceLock::new(),
                    });
                    t.time(stage::INSERT, parent, req, || cache.insert(key, Arc::clone(&plan)));
                    plan
                }
            };
            let CachedPlan::Dynamic { stats, .. } = &*plan else {
                unreachable!("dynamic mode caches dynamic plans")
            };
            n += 1;
            ops += stats.total_ops;
        }
        self.close_replay(parent);
        (n, ops)
    }
}

/// Whether a replay covered the same work as the measured request.
fn replay_matches(
    cfg: &TransArrayConfig,
    shape: GemmShape,
    report: &GemmReport,
    n: u64,
    ops: u64,
) -> bool {
    let ok = n == report.subtiles_simulated && scaled_ops(cfg, shape, ops, n) == report.total_ops;
    if !ok {
        eprintln!("replay of {shape:?} covered {n} sub-tiles / {ops} ops, report says {report:?}");
    }
    ok
}

/// `sim_prefill`: successive LLaMA-7B blocks' FC layers at seq 2048, one
/// pattern seed per layer, plan cache off.
pub fn prefill(args: &Args) -> Outcome {
    let (anchor_ok, session, setup_s) = measure_setup(SETUP_REPS, || {
        let s = session(0);
        (anchor_matches(&s), s)
    });
    let cfg = session.config().clone();
    let shapes = block(PREFILL_SEQ);
    let mut out = Outcome::new(setup_s, anchor_ok);
    let budget = Budget::new(args, min_requests(1));
    if args.trace {
        let (mut tracer, mut counters) = (Tracer::default(), Counters::default());
        let mut j = 0;
        while budget.more(j) {
            let (shape, seed) = (shapes[j % shapes.len()], layer_seed(args.seed, j));
            let mut t = TracedSim::new(&mut tracer, &mut counters, j as u64);
            let (reports, _) = t.run([&session, &session, &session], shape, seed);
            let (n, ops) = t.replay_uncached(&cfg, shape, seed);
            let ok = reports.iter().all(|r| r == &reports[0] && plausible(&cfg, shape, r))
                && replay_matches(&cfg, shape, &reports[0], n, ops);
            out.check(ok);
            j += 1;
        }
        return out.traced(args, &tracer, &counters, &Default::default());
    }
    let mut run = ClosedLoop::default();
    let mut digest = Digest::default();
    let mut j = 0;
    while budget.more(j) {
        let (shape, seed) = (shapes[j % shapes.len()], layer_seed(args.seed, j));
        let started = Instant::now();
        let resp = session.run(GemmRequest::simulate(shape, source(&cfg, seed)));
        let elapsed = started.elapsed();
        let report = resp.expect("simulate requests are valid").report;
        let mut ok = plausible(&cfg, shape, &report);
        if j % SERIAL_CHECK_EVERY == 0 {
            let serial = session.run_serial(GemmRequest::simulate(shape, source(&cfg, seed)));
            ok &= serial.is_ok_and(|s| s.report == report);
        }
        digest.report(&report);
        run.record(elapsed, &report, ok);
        j += 1;
    }
    out.note(format!("run digest {:#018x} over {j} layers", digest.0));
    out.closed_loop(run, 1)
}

/// Uncached reference reports of one block, indexed `[seq][layer]`.
fn sweep_references(run_seed: u64) -> Vec<Vec<GemmReport>> {
    let s = session(0);
    let cfg = s.config().clone();
    SWEEP_SEQS
        .iter()
        .map(|&seq| {
            block(seq)
                .into_iter()
                .enumerate()
                .map(|(l, shape)| {
                    let req = GemmRequest::simulate(shape, source(&cfg, layer_seed(run_seed, l)));
                    s.run(req).expect("simulate requests are valid").report
                })
                .collect()
        })
        .collect()
}

/// The anchor through a fresh cache: the cold and the warm report must
/// both carry the recorded digest.
fn cached_anchor_matches() -> bool {
    let s = session(SWEEP_CACHE_ENTRIES);
    anchor_matches(&s) && anchor_matches(&s)
}

/// `sim_seq_sweep_cached`: one block's weights at seq 2048, 512, 128 and
/// 1 through a fresh plan cache per visit. Seq 2048 is the cold pass.
pub fn seq_sweep_cached(args: &Args) -> Outcome {
    let (anchor_ok, refs, setup_s) =
        measure_setup(1, || (cached_anchor_matches(), sweep_references(args.seed)));
    let cfg = config(SWEEP_CACHE_ENTRIES);
    let mut out = Outcome::new(setup_s, anchor_ok);
    let per_visit = SWEEP_SEQS.len() * refs[0].len();
    let budget = Budget::new(args, min_requests(per_visit));
    if args.trace {
        let (mut tracer, mut counters) = (Tracer::default(), Counters::default());
        let mut visits = 0;
        while budget.more(visits * per_visit) {
            let sessions = [(); 3].map(|_| session(SWEEP_CACHE_ENTRIES));
            let replay_cache = SharedPlanCache::new(SWEEP_CACHE_ENTRIES);
            for (p, &seq) in SWEEP_SEQS.iter().enumerate() {
                for (l, shape) in block(seq).into_iter().enumerate() {
                    let seed = layer_seed(args.seed, l);
                    let request = (visits * per_visit + p * refs[0].len() + l) as u64;
                    let mut t = TracedSim::new(&mut tracer, &mut counters, request);
                    let (reports, serial_delta) =
                        t.run([&sessions[0], &sessions[1], &sessions[2]], shape, seed);
                    let before = replay_cache.stats();
                    let (n, ops) = t.replay_cached(&cfg, shape, seed, &replay_cache);
                    let delta = replay_cache.stats().delta(&before);
                    counters.hits += delta.hits;
                    counters.insertions += delta.insertions;
                    counters.evictions += delta.evictions;
                    let warm = p > 0;
                    if warm {
                        counters.warm_lookups += delta.lookups();
                        counters.warm_hits += delta.hits;
                    }
                    let ok = reports.iter().all(|r| r == &refs[p][l])
                        && replay_matches(&cfg, shape, &reports[0], n, ops)
                        && serial_delta == Some(delta)
                        && (!warm || (delta.hits == n && delta.evictions == 0));
                    out.check(ok);
                }
            }
            visits += 1;
        }
        return out.traced(args, &tracer, &counters, &Default::default());
    }
    let (mut run, mut cold, mut warm) =
        (ClosedLoop::default(), ClosedLoop::default(), ClosedLoop::default());
    let mut visits = 0;
    while budget.more(visits * per_visit) {
        let s = session(SWEEP_CACHE_ENTRIES);
        let warm_before = warm.subtiles();
        for (p, &seq) in SWEEP_SEQS.iter().enumerate() {
            for (l, shape) in block(seq).into_iter().enumerate() {
                let req = GemmRequest::simulate(shape, source(&cfg, layer_seed(args.seed, l)));
                let started = Instant::now();
                let resp = s.run(req);
                let elapsed = started.elapsed();
                let report = resp.expect("simulate requests are valid").report;
                let ok = report == refs[p][l];
                run.record(elapsed, &report, ok);
                if p == 0 { &mut cold } else { &mut warm }.record(elapsed, &report, ok);
            }
        }
        let stats = s.accelerator().plan_cache_stats().expect("the sweep caches plans");
        out.check(stats.evictions == 0 && stats.hits == warm.subtiles() - warm_before);
        visits += 1;
    }
    out.note(format!(
        "cold {:.0} sub-tiles/s, warm {:.0} sub-tiles/s over {visits} visits",
        cold.subtiles_per_s(),
        warm.subtiles_per_s()
    ));
    out.closed_loop(run, per_visit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(threads: usize, plan_cache: usize, shape: GemmShape, seed: u64) -> Digest {
        let cfg = TransArrayConfig { threads, plan_cache, ..TransArrayConfig::paper_w8() };
        let s = Session::new(cfg.clone()).expect("valid design point");
        Digest::of(&s.run(GemmRequest::simulate(shape, source(&cfg, seed))).expect("valid").report)
    }

    #[test]
    fn report_digests_are_stable_across_runs_threads_and_the_cache() {
        let shape = GemmShape::new(256, 512, 64);
        let want = digest(1, 0, shape, 9);
        assert_eq!(digest(1, 0, shape, 9), want, "same request, same digest");
        assert_eq!(digest(2, 0, shape, 9), want, "parallel runs report bit-identically");
        assert_eq!(digest(2, 1024, shape, 9), want, "the plan cache changes no statistic");
        assert_ne!(digest(1, 0, shape, 10), want, "another pattern seed simulates other weights");
    }

    #[test]
    fn anchor_carries_the_recorded_digest() {
        assert!(anchor_matches(&session(0)));
    }

    #[test]
    fn replays_visit_the_sub_tiles_the_simulator_samples() {
        let cfg = config(0);
        for shape in block(PREFILL_SEQ) {
            let report = session(0)
                .run(GemmRequest::simulate(shape, source(&cfg, 3)))
                .expect("valid")
                .report;
            assert_eq!(sampled_subtiles(&cfg, shape).len() as u64, report.subtiles_simulated);
        }
    }
}
