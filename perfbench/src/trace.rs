//! Traced mode: spans around the calls into each layer, per-stage busy
//! time, and the per-layer metric set.
//!
//! Spans live in memory and are written out once, when the run ends. The
//! pattern source is timed in place (its forks included); every other
//! simulator stage is timed by replaying a request's sub-tiles through the
//! stage's public function.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ta_core::PatternSource;

use crate::Metric;

/// Spans kept per run; later spans still count towards busy time.
const MAX_SPANS: usize = 100_000;

/// One timed call: what ran, when, inside which span, for which request.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Calls made and nanoseconds spent in one stage.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stage {
    pub calls: u64,
    pub busy_ns: u64,
}

impl Stage {
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 * 1e-9
    }
}

/// The in-memory span log plus per-stage totals.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
    stages: BTreeMap<&'static str, Stage>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new(), dropped: 0, stages: BTreeMap::new() }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer started.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the tracer's start to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Logs a finished span; returns its index for children to name.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span { name, start_ns, end_ns, parent, request });
        Some(self.spans.len() - 1)
    }

    /// Opens a span that [`Self::close`] ends; returns its index.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        let now = self.now();
        self.record(name, now, now, parent, request)
    }

    /// Ends a span [`Self::open`] started.
    pub fn close(&mut self, span: Option<usize>) {
        let now = self.now();
        if let Some(s) = span.and_then(|i| self.spans.get_mut(i)) {
            s.end_ns = now;
        }
    }

    /// Times `f` as one call of stage `name` and logs its span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.add(name, 1, end - start);
        self.record(name, start, end, parent, request);
        out
    }

    /// Adds calls and busy time to a stage without logging a span.
    pub fn add(&mut self, name: &'static str, calls: u64, busy_ns: u64) {
        let stage = self.stages.entry(name).or_default();
        stage.calls += calls;
        stage.busy_ns += busy_ns;
    }

    pub fn stage(&self, name: &str) -> Stage {
        self.stages.get(name).copied().unwrap_or_default()
    }

    /// Writes every kept span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        if self.dropped > 0 {
            writeln!(out, "{{\"dropped_spans\":{}}}", self.dropped)?;
        }
        out.flush()
    }
}

/// Shared call counter and busy clock of a timed pattern source.
#[derive(Debug, Default)]
pub struct SourceClock {
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl SourceClock {
    pub fn stage(&self) -> Stage {
        Stage {
            calls: self.calls.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }

    fn add(&self, started: Instant) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// A pattern source that times every call of the source it wraps. Forks
/// wrap the inner source's forks and share the clock, so a sharded
/// `Session::run` is timed on every worker.
pub struct TimedSource<'a> {
    inner: Box<dyn PatternSource + Send + 'a>,
    clock: Arc<SourceClock>,
}

impl<'a> TimedSource<'a> {
    pub fn new(inner: Box<dyn PatternSource + Send + 'a>, clock: Arc<SourceClock>) -> Self {
        Self { inner, clock }
    }
}

impl PatternSource for TimedSource<'_> {
    fn width(&self) -> u32 {
        self.inner.width()
    }

    fn subtile_patterns(&mut self, n_tile: usize, k_chunk: usize) -> Vec<u16> {
        let started = Instant::now();
        let out = self.inner.subtile_patterns(n_tile, k_chunk);
        self.clock.add(started);
        out
    }

    fn subtile_patterns_into(&mut self, n_tile: usize, k_chunk: usize, out: &mut Vec<u16>) {
        let started = Instant::now();
        self.inner.subtile_patterns_into(n_tile, k_chunk, out);
        self.clock.add(started);
    }

    fn rows_per_subtile(&self) -> usize {
        self.inner.rows_per_subtile()
    }

    fn fork(&self) -> Option<Box<dyn PatternSource + Send + '_>> {
        let inner = self.inner.fork()?;
        Some(Box::new(TimedSource { inner, clock: Arc::clone(&self.clock) }))
    }
}

/// Stage names: the span names and the per-layer metric prefixes.
pub mod stage {
    pub const SOURCE: &str = "models.source";
    pub const SCOREBOARD: &str = "hasse.scoreboard";
    pub const TILE_STATS: &str = "hasse.tile_stats";
    pub const PLAN_KEY: &str = "hasse.plan_key";
    pub const PROBE: &str = "hasse.plan_cache.probe";
    pub const INSERT: &str = "hasse.plan_cache.insert";
    pub const PLAN_BUILD: &str = "hasse.exec.plan_build";
    pub const EVAL: &str = "hasse.exec.eval";
    pub const SLICE: &str = "bitslice.slice";
    pub const EXTRACT: &str = "bitslice.extract";
    pub const SUBMIT: &str = "serve.submit";
    /// Every stage a replay or an in-place clock times, in `core.self_s`'s
    /// subtraction (serving's submit is not part of a `Session::run`).
    pub const REPLAYED: [&str; 10] =
        [SOURCE, SCOREBOARD, TILE_STATS, PLAN_KEY, PROBE, INSERT, PLAN_BUILD, EVAL, SLICE, EXTRACT];
}

/// Everything a traced run accumulates besides the stage clocks.
#[derive(Debug, Default)]
pub struct Counters {
    pub hits: u64,
    pub insertions: u64,
    pub evictions: u64,
    pub warm_lookups: u64,
    pub warm_hits: u64,
    pub node_ops: u64,
    /// Summed traced serial `Session::run` time.
    pub serial_ns: u64,
    /// Summed untraced and traced parallel `Session::run` times.
    pub parallel_ns: u64,
    pub parallel_traced_ns: u64,
}

/// Serving figures a traced `serve_decode` run adds.
#[derive(Debug, Default)]
pub struct ServeLayer {
    pub service_ms_p50: f64,
    pub queue_wait_ms_p50: f64,
    pub queue_wait_ms_p99: f64,
    pub batches: u64,
    pub mean_batch: f64,
    pub padded: u64,
    pub rejected: u64,
    pub shed: u64,
    pub worker_lost: u64,
    pub lo_p50_ms: f64,
    pub lo_p99_ms: f64,
    pub max_rps_p99: f64,
    pub late_ms_p99: f64,
}

/// Assembles the per-layer metric set. Every metric is present on every
/// workload; a layer a workload never calls reads 0.
pub fn per_layer_metrics(t: &Tracer, c: &Counters, serve: &ServeLayer) -> Vec<Metric> {
    use stage::*;
    let count = |name, v: u64| Metric::new(name, v as f64, "count");
    let secs = |name, s: Stage| Metric::new(name, s.busy_s(), "s");
    let ms = |name, v: f64| Metric::new(name, v, "ms");
    let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    let probe = t.stage(PROBE);
    let children_ns: u64 = REPLAYED.iter().map(|name| t.stage(name).busy_ns).sum();
    let self_ns = c.serial_ns as f64 - children_ns as f64;
    vec![
        count("models.source.calls", t.stage(SOURCE).calls),
        secs("models.source.busy_s", t.stage(SOURCE)),
        count("hasse.scoreboard.calls", t.stage(SCOREBOARD).calls),
        secs("hasse.scoreboard.busy_s", t.stage(SCOREBOARD)),
        secs("hasse.tile_stats.busy_s", t.stage(TILE_STATS)),
        secs("hasse.plan_key.busy_s", t.stage(PLAN_KEY)),
        count("hasse.plan_cache.lookups", probe.calls),
        count("hasse.plan_cache.hits", c.hits),
        Metric::new("hasse.plan_cache.hit_ratio", ratio(c.hits, probe.calls), "ratio"),
        Metric::new("hasse.plan_cache.warm_hit_ratio", ratio(c.warm_hits, c.warm_lookups), "ratio"),
        count("hasse.plan_cache.insertions", c.insertions),
        count("hasse.plan_cache.evictions", c.evictions),
        secs("hasse.plan_cache.probe_busy_s", probe),
        secs("hasse.plan_cache.insert_busy_s", t.stage(INSERT)),
        secs("hasse.exec.plan_build_busy_s", t.stage(PLAN_BUILD)),
        count("hasse.exec.eval.calls", t.stage(EVAL).calls),
        secs("hasse.exec.eval.busy_s", t.stage(EVAL)),
        count("hasse.exec.node_ops", c.node_ops),
        count("bitslice.slice.calls", t.stage(SLICE).calls),
        secs("bitslice.slice.busy_s", t.stage(SLICE)),
        secs("bitslice.extract.busy_s", t.stage(EXTRACT)),
        Metric::new("core.self_s", self_ns * 1e-9, "s"),
        Metric::new("core.runtime.speedup", ratio(c.serial_ns, c.parallel_ns), "x"),
        secs("serve.submit.busy_s", t.stage(SUBMIT)),
        ms("serve.service_ms_p50", serve.service_ms_p50),
        ms("serve.queue_wait_ms_p50", serve.queue_wait_ms_p50),
        ms("serve.queue_wait_ms_p99", serve.queue_wait_ms_p99),
        count("serve.batches", serve.batches),
        Metric::new("serve.mean_batch", serve.mean_batch, "requests"),
        count("serve.padded", serve.padded),
        count("serve.rejected", serve.rejected),
        count("serve.shed", serve.shed),
        count("serve.worker_lost", serve.worker_lost),
        ms("serve.lo_p50_ms", serve.lo_p50_ms),
        ms("serve.lo_p99_ms", serve.lo_p99_ms),
        Metric::new("serve.max_rps_p99", serve.max_rps_p99, "1/s"),
        ms("loadgen.late_ms_p99", serve.late_ms_p99),
        Metric::new(
            "trace.overhead_frac",
            (c.parallel_traced_ns as f64 - c.parallel_ns as f64) / c.parallel_ns as f64,
            "ratio",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ta_models::QuantGaussianSource;

    #[test]
    fn timed_source_and_its_forks_share_one_clock() {
        let clock = Arc::new(SourceClock::default());
        let plain = QuantGaussianSource::new(8, 8, 4, 7);
        let mut timed = TimedSource::new(Box::new(plain), Arc::clone(&clock));
        let mut reference = plain;
        assert_eq!(timed.subtile_patterns(1, 2), reference.subtile_patterns(1, 2));
        let mut fork = timed.fork().expect("quant-Gaussian sources fork");
        let mut buf = Vec::new();
        fork.subtile_patterns_into(3, 0, &mut buf);
        assert_eq!(buf, reference.subtile_patterns(3, 0));
        assert_eq!(clock.stage().calls, 2);
    }

    #[test]
    fn spans_past_the_cap_still_count_busy_time() {
        let mut t = Tracer::default();
        t.spans.reserve(MAX_SPANS);
        for _ in 0..MAX_SPANS + 3 {
            t.time("x", None, 0, || ());
        }
        assert_eq!(t.spans.len(), MAX_SPANS);
        assert_eq!(t.dropped, 3);
        assert_eq!(t.stage("x").calls, MAX_SPANS as u64 + 3);
    }
}
