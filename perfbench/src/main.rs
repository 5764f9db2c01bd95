//! Host-time benchmark of the Transitive Array reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every number is host time; the simulated statistics (cycles, ops,
//! energy) are outputs the benchmark checks, not metrics. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end set untraced, the per-layer set traced).
//! A readable summary goes to standard error.

mod exec;
mod serve;
mod sim;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ta_core::GemmReport;

use crate::stats::{highest_supported_percentile, median, peak_rss_mib, Sample};
use crate::trace::{Counters, ServeLayer, Tracer};

type Workload = fn(&Args) -> Outcome;

/// Workloads by name.
const WORKLOADS: [(&str, Workload); 4] = [
    ("sim_prefill", sim::prefill),
    ("sim_seq_sweep_cached", sim::seq_sweep_cached),
    ("exec_prefill", exec::prefill),
    ("serve_decode", serve::decode),
];

/// A closed-loop run keeps going past `--seconds` until it has its minimum
/// request count, but never past `OVERRUN` times `--seconds`.
const OVERRUN: f64 = 3.0;

/// A closed loop reports the medians over this many consecutive segments of
/// its requests, so a host stall that spoils one segment does not move them.
const SEGMENTS: usize = 3;

/// Requests a closed loop of whole `group`s needs: a p90 with ten samples
/// beyond it in every segment.
pub fn min_requests(group: usize) -> usize {
    SEGMENTS * 100usize.div_ceil(group) * group
}

/// Set-ups per run; `setup_s` is their median. The sweep's set-up (28
/// reference simulations) runs once.
pub const SETUP_REPS: usize = 5;

/// Where a traced run writes its spans, relative to the working directory.
const SPAN_DIR: &str = ".perfbench_out";

pub struct Args {
    workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err(bad(&"expected 0 or 1")),
                },
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 60.0) {
            return Err(format!("--seconds {seconds} is outside (0, 60]"));
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Worker threads: one per host core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs a set-up `reps` times and returns the last result with the median
/// set-up time in seconds.
pub fn measure_setup<A, B>(reps: usize, mut setup: impl FnMut() -> (A, B)) -> (A, B, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let started = Instant::now();
        last = Some(setup());
        times.push(started.elapsed().as_secs_f64());
    }
    let (a, b) = last.expect("at least one set-up");
    (a, b, median(&times))
}

/// When a run stops: after `--seconds`, once it has its minimum request
/// count, and in any case after `OVERRUN` times `--seconds`.
pub struct Budget {
    start: Instant,
    seconds: f64,
    min_requests: usize,
}

impl Budget {
    /// Traced runs need no minimum: they report sums, not tails.
    pub fn new(args: &Args, min_requests: usize) -> Self {
        let min_requests = if args.trace { 1 } else { min_requests };
        Self { start: Instant::now(), seconds: args.seconds, min_requests }
    }

    pub fn more(&self, done: usize) -> bool {
        let e = self.start.elapsed().as_secs_f64();
        e < OVERRUN * self.seconds && (e < self.seconds || done < self.min_requests)
    }
}

/// Runs `untraced` and `traced` one after the other, in an order that
/// alternates with `request` so neither always runs first, and adds their
/// times to the parallel counters.
pub fn alternate<T>(
    request: u64,
    c: &mut Counters,
    untraced: impl FnOnce() -> T,
    traced: impl FnOnce() -> T,
) -> (T, T) {
    fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let started = Instant::now();
        let out = f();
        (out, started.elapsed().as_nanos() as u64)
    }
    let ((u, u_ns), (t, t_ns)) = if request.is_multiple_of(2) {
        let u = timed(untraced);
        (u, timed(traced))
    } else {
        let t = timed(traced);
        (timed(untraced), t)
    };
    c.parallel_ns += u_ns;
    c.parallel_traced_ns += t_ns;
    (u, t)
}

/// One request of a closed loop: its latency and the work it did.
struct Request {
    seconds: f64,
    subtiles: u64,
    macs: u64,
}

/// The requests of a closed loop with one caller, in order.
#[derive(Default)]
pub struct ClosedLoop {
    requests: Vec<Request>,
    failed: u64,
}

impl ClosedLoop {
    pub fn record(&mut self, elapsed: Duration, report: &GemmReport, ok: bool) {
        self.requests.push(Request {
            seconds: elapsed.as_secs_f64(),
            subtiles: report.subtiles_simulated,
            macs: report.shape.macs(),
        });
        self.failed += u64::from(!ok);
    }

    pub fn subtiles(&self) -> u64 {
        self.requests.iter().map(|r| r.subtiles).sum()
    }

    pub fn subtiles_per_s(&self) -> f64 {
        self.subtiles() as f64 / self.requests.iter().map(|r| r.seconds).sum::<f64>()
    }
}

/// The end-to-end figures of one segment of a closed loop.
fn segment_figures(requests: &[Request]) -> EndToEnd {
    if requests.is_empty() {
        let nan = f64::NAN;
        return EndToEnd { subtiles_per_s: nan, gmacs_per_s: nan, p50_ms: nan, tail_ms: nan };
    }
    let busy_s: f64 = requests.iter().map(|r| r.seconds).sum();
    let lat = Sample::new(requests.iter().map(|r| r.seconds * 1e3).collect());
    EndToEnd {
        subtiles_per_s: requests.iter().map(|r| r.subtiles).sum::<u64>() as f64 / busy_s,
        gmacs_per_s: requests.iter().map(|r| r.macs).sum::<u64>() as f64 * 1e-9 / busy_s,
        p50_ms: lat.median(),
        tail_ms: lat.tail(90.0).unwrap_or(f64::NAN),
    }
}

pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// The workload-specific values of the end-to-end set.
pub struct EndToEnd {
    /// Sub-tiles simulated or executed per host second.
    pub subtiles_per_s: f64,
    /// Dense-equivalent MACs per host second, in billions.
    pub gmacs_per_s: f64,
    /// Median request latency.
    pub p50_ms: f64,
    /// Tail request latency: p90.
    pub tail_ms: f64,
}

/// What a run reports: operations attempted and failed, metrics, notes.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    setup_s: f64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Outcome {
    /// Starts an outcome whose set-up took `setup_s` and passed its own
    /// check (the set-up check counts as one operation).
    pub fn new(setup_s: f64, setup_ok: bool) -> Self {
        Self {
            attempted: 1,
            failed: u64::from(!setup_ok),
            setup_s,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// The end-to-end metric set: the same names on every workload.
    pub fn end_to_end(mut self, e: EndToEnd) -> Self {
        self.metrics = vec![
            Metric::new("setup_s", self.setup_s, "s"),
            Metric::new("peak_rss_mib", peak_rss_mib().unwrap_or(f64::NAN), "MiB"),
            Metric::new("subtiles_per_s", e.subtiles_per_s, "1/s"),
            Metric::new("gmacs_per_s", e.gmacs_per_s, "GMAC/s"),
            Metric::new("req_ms_p50", e.p50_ms, "ms"),
            Metric::new("req_ms_tail", e.tail_ms, "ms"),
        ];
        self
    }

    /// The end-to-end set of a closed loop: the medians over `SEGMENTS`
    /// consecutive segments of its requests, each a whole number of
    /// `group`s (the sweep's segments hold whole visits). The tail is each
    /// segment's p90 of request latency.
    pub fn closed_loop(mut self, run: ClosedLoop, group: usize) -> Self {
        let n = run.requests.len();
        self.attempted += n as u64;
        self.failed += run.failed;
        let groups = n / group;
        let bounds: Vec<usize> = (0..=SEGMENTS).map(|i| groups * i / SEGMENTS * group).collect();
        let segments: Vec<EndToEnd> =
            bounds.windows(2).map(|w| segment_figures(&run.requests[w[0]..w[1]])).collect();
        let shortest = bounds.windows(2).map(|w| w[1] - w[0]).min().unwrap_or(0);
        let highest = highest_supported_percentile(shortest).unwrap_or(0.0);
        self.note(format!(
            "{n} requests; medians over {SEGMENTS} segments of at least {shortest}: p90 tail, highest supported p{highest}"
        ));
        let med = |f: fn(&EndToEnd) -> f64| median(&segments.iter().map(f).collect::<Vec<_>>());
        let figures = EndToEnd {
            subtiles_per_s: med(|e| e.subtiles_per_s),
            gmacs_per_s: med(|e| e.gmacs_per_s),
            p50_ms: med(|e| e.p50_ms),
            tail_ms: med(|e| e.tail_ms),
        };
        self.end_to_end(figures)
    }

    /// The per-layer set of a traced run, after writing its spans.
    pub fn traced(
        mut self,
        args: &Args,
        tracer: &Tracer,
        counters: &Counters,
        serve: &ServeLayer,
    ) -> Self {
        let path =
            PathBuf::from(SPAN_DIR).join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => self.note(format!("spans written to {}", path.display())),
            Err(e) => {
                eprintln!("writing {}: {e}", path.display());
                self.failed += 1;
            }
        }
        self.metrics = trace::per_layer_metrics(tracer, counters, serve);
        self
    }

    /// The result line; a non-finite metric fails the run.
    fn json(&mut self) -> String {
        let mut fields = Vec::new();
        for m in &mut self.metrics {
            if !m.value.is_finite() {
                eprintln!("metric {} is {}", m.name, m.value);
                self.failed += 1;
                m.value = 0.0;
            }
            fields.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some((_, run)) = WORKLOADS.iter().find(|(name, _)| *name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        eprintln!("perfbench: unknown workload {} (one of {})", args.workload, names.join(", "));
        return ExitCode::from(2);
    };
    eprintln!(
        "perfbench: {} seed {} for {} s, {} threads",
        args.workload,
        args.seed,
        args.seconds,
        nproc()
    );
    let mut outcome = run(&args);
    let line = outcome.json();
    for note in &outcome.notes {
        eprintln!("  {note}");
    }
    for m in &outcome.metrics {
        eprintln!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "  fail_frac {} ({} of {} operations)",
        outcome.failed as f64 / outcome.attempted as f64,
        outcome.failed,
        outcome.attempted
    );
    println!("{line}");
    ExitCode::SUCCESS
}
