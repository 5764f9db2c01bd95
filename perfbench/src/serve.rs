//! `serve_decode`: open-loop Poisson traffic of small decode-shaped execute
//! requests through `ta_serve::Server`. An untraced run offers the `hi` rate
//! for all of `--seconds`; a traced run offers the `lo` rate, a shorter `hi`
//! phase and a rate ladder.
//!
//! Every phase of a run shares one server. The generator (the main thread) sleeps
//! until each request's due time, never spinning, and submits; one
//! collector thread waits on the tickets. Latency runs from the due time
//! to the server's completion stamp, so a stall that delays later submits
//! counts against them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use ta_core::{GemmResponse, GemmShape, Session, TransArrayConfig};
use ta_models::{seeded_span_matrix, splitmix64};
use ta_quant::gemm_i32;
use ta_serve::loadgen::{poisson_trace, Arrival};
use ta_serve::{BatchPolicy, FaultConfig, Server, ServerConfig, ServerStats, SloPolicy};

use crate::exec::{run_traced, Entry};
use crate::stats::{lower_quartile, median, Sample};
use crate::trace::{stage, Counters, ServeLayer, Tracer};
use crate::{measure_setup, nproc, Args, EndToEnd, Outcome, SETUP_REPS};

/// The `lo` offered rate (requests per second).
pub const LO_RPS: f64 = 300.0;
/// The `hi` offered rate (requests per second).
pub const HI_RPS: f64 = 600.0;
/// The p99 latency limit a rate must meet (milliseconds from due time).
pub const P99_LIMIT_MS: f64 = 25.0;
/// Ladder steps: `LADDER_BASE_RPS × LADDER_RATIO^i` for `i < LADDER_STEPS`.
pub const LADDER_BASE_RPS: f64 = 400.0;
pub const LADDER_RATIO: f64 = 1.05;
pub const LADDER_STEPS: usize = 31;
/// Arrivals per phase at least: enough for a p99 with ten beyond.
const MIN_ARRIVALS: usize = 1_200;
/// Shares of `--seconds` a traced run offers at `lo`, at `hi` and to each
/// ladder probe.
const LO_SHARE: f64 = 0.15;
const HI_SHARE: f64 = 0.45;
const PROBE_SHARE: f64 = 0.08;
/// An untraced run's `hi` phase is read as this many consecutive segments
/// of at least `SEGMENT_ARRIVALS` arrivals (one second each at `hi`). Its
/// p50 and p90 are the lower quartiles of the segments' own: contention
/// from other work on the host only ever adds latency, so the quartile
/// follows the program and moves only when a stall spoils more than three
/// quarters of the run. Its p99 is only reported: on a 2-vCPU host shared
/// with other machines, host stalls set it, and it spread 75 % between runs.
const HI_SEGMENTS: usize = 20;
const SEGMENT_ARRIVALS: usize = 600;
/// A run whose generator's p99 lateness at `lo` or `hi` exceeds this is
/// rejected; a ladder probe this late does not count as meeting the limit.
pub const LATE_BOUND_MS: f64 = P99_LIMIT_MS;
/// Tenants the arrivals are spread over.
const TENANTS: u32 = 4;
/// Decode shapes: n and k in {32, 64, 96, 128}, m in 2..=8.
const SHAPES: usize = 4 * 4 * 7;
/// Distinct requests, each shape twice; arrival `i` sends request
/// `i % POOL`. Every seed offers the same shape mix.
const POOL: usize = 2 * SHAPES;
/// Head start between starting the server and the first due time.
const LEAD: Duration = Duration::from_millis(5);
/// A ladder probe stops offering load once a request takes this long: its
/// backlog is growing, and what is still queued would only inflate memory.
const PROBE_ABORT_MS: f64 = 4.0 * P99_LIMIT_MS;
/// A ticket unresolved after this long counts as a failure.
const WAIT: Duration = Duration::from_secs(30);

/// Rate of ladder step `i`.
pub fn ladder_rps(i: usize) -> f64 {
    LADDER_BASE_RPS * LADDER_RATIO.powi(i as i32)
}

/// The decode shape of pooled request `i`.
fn decode_shape(i: usize) -> GemmShape {
    let s = i % SHAPES;
    GemmShape::new(32 * (1 + s % 4), 32 * (1 + s / 4 % 4), 2 + s / 16)
}

/// The open-loop schedule of one phase, `count` arrivals at `rps`: a pure
/// function of the seed. Arrival `i` carries the shape of pooled request
/// `i % POOL`.
pub fn schedule(seed: u64, rps: f64, count: usize) -> Vec<Arrival> {
    let shapes: Vec<GemmShape> = (0..POOL).map(decode_shape).collect();
    poisson_trace(seed, count, (1e9 / rps).round() as u64, TENANTS, &shapes)
}

/// Arrivals in `seconds` at `rps`, at least `MIN_ARRIVALS`.
fn arrivals(rps: f64, seconds: f64) -> usize {
    ((rps * seconds).round() as usize).max(MIN_ARRIVALS)
}

/// One pooled request (with its `gemm_i32` reference), the direct
/// `run_serial` response a served one must equal, and how long that direct
/// run took.
struct Pooled {
    entry: Entry,
    want: GemmResponse,
    service_ns: u64,
}

fn pool(session: &Session, seed: u64) -> Vec<Pooled> {
    (0..POOL)
        .map(|i| {
            let GemmShape { n, k, m } = decode_shape(i);
            let s = splitmix64(seed ^ (0x5E77_0000 + i as u64));
            let weights = seeded_span_matrix(n, k, 8, s);
            let input = seeded_span_matrix(k, m, 8, s ^ 1);
            let entry = Entry { want: gemm_i32(&weights, &input), weights, input };
            let started = Instant::now();
            let want = session.run_serial(entry.request()).expect("pooled requests are valid");
            let service_ns = started.elapsed().as_nanos() as u64;
            Pooled { entry, want, service_ns }
        })
        .collect()
}

/// What the generator hands the collector for one arrival.
struct Sent {
    index: usize,
    due: Instant,
    sent: Instant,
    submitted: Instant,
    ticket: Result<ta_serve::Ticket, ta_serve::ServeError>,
}

/// One arrival's outcome.
struct Served {
    index: usize,
    due: Instant,
    sent: Instant,
    submitted: Instant,
    /// Due time to completion; `None` when refused, shed, lost, timed out
    /// or wrong.
    latency_ns: Option<u64>,
}

/// The outcome of one phase at one offered rate.
struct Phase {
    served: Vec<Served>,
    stats: ServerStats,
    /// Whether a ladder probe stopped offering load early.
    aborted: bool,
}

impl Phase {
    fn latencies_ms(&self) -> Vec<f64> {
        self.served
            .iter()
            .map(|s| s.latency_ns.map_or(f64::INFINITY, |ns| ns as f64 * 1e-6))
            .collect()
    }

    fn failed(&self) -> u64 {
        self.served.iter().filter(|s| s.latency_ns.is_none()).count() as u64
    }

    fn late_ms_p99(&self) -> f64 {
        let late = self.served.iter().map(|s| (s.sent - s.due).as_secs_f64() * 1e3).collect();
        Sample::new(late).tail(99.0).unwrap_or(f64::INFINITY)
    }

    /// (p50, p99) latency in ms; p99 is infinite without ten samples past it.
    fn latency_ms(&self) -> (f64, f64) {
        latency_ms(self.latencies_ms())
    }

    /// The lower quartiles over `segments` consecutive runs of arrivals of
    /// each run's (p50, p90) latency in ms; a p90 is infinite without ten
    /// samples past it.
    fn segmented_latency_ms(&self, segments: usize) -> (f64, f64) {
        let lat = self.latencies_ms();
        let (p50s, p90s): (Vec<f64>, Vec<f64>) = lat
            .chunks(lat.len().div_ceil(segments))
            .map(|c| {
                let s = Sample::new(c.to_vec());
                (s.median(), s.tail(90.0).unwrap_or(f64::INFINITY))
            })
            .unzip();
        (lower_quartile(&p50s), lower_quartile(&p90s))
    }

    /// Sub-tiles and dense MACs served per second, from the first due time
    /// to the last completion.
    fn goodput(&self, pool: &[Pooled]) -> (f64, f64) {
        let first = self.served.iter().map(|s| s.due).min().expect("a phase offers requests");
        let (mut subtiles, mut macs, mut last) = (0, 0, first);
        for s in &self.served {
            if let Some(ns) = s.latency_ns {
                let p = &pool[s.index % pool.len()];
                subtiles += p.want.report.subtiles_simulated;
                macs += p.entry.shape().macs();
                last = last.max(s.due + Duration::from_nanos(ns));
            }
        }
        let secs = (last - first).as_secs_f64();
        (subtiles as f64 / secs, macs as f64 / secs)
    }

    /// Whether the backlog grew: the last quarter's median latency exceeds
    /// the first quarter's by more than half the latency limit.
    fn backlog_grew(&self) -> bool {
        let lat = self.latencies_ms();
        let q = lat.len() / 4;
        q > 0 && median(&lat[lat.len() - q..]) > median(&lat[..q]) + P99_LIMIT_MS / 2.0
    }

    /// Whether this rate meets the p99 limit without a growing backlog.
    fn meets_limit(&self) -> bool {
        !self.aborted
            && self.failed() == 0
            && self.latency_ms().1 <= P99_LIMIT_MS
            && !self.backlog_grew()
            && self.late_ms_p99() <= LATE_BOUND_MS
    }
}

/// Starts the server every phase of a run shares.
fn start_server(session: &Session) -> Server {
    let config = ServerConfig {
        workers: nproc(),
        policy: BatchPolicy::default(),
        slo: SloPolicy::default(),
        // No fault sites: injection stays off whatever `TA_FAULTS` says.
        faults: Some(FaultConfig::new(0, 0)),
        ..Default::default()
    };
    Server::start(session.clone(), config)
}

/// Counter growth between two snapshots.
fn stats_delta(after: ServerStats, before: ServerStats) -> ServerStats {
    ServerStats {
        submitted: after.submitted - before.submitted,
        completed: after.completed - before.completed,
        batches: after.batches - before.batches,
        padded: after.padded - before.padded,
        rejected: after.rejected - before.rejected,
        shed: after.shed - before.shed,
        worker_lost: after.worker_lost - before.worker_lost,
        respawned: after.respawned - before.respawned,
        absorbed: after.absorbed - before.absorbed,
    }
}

/// (p50, p99) of latencies in ms; p99 is infinite without ten samples
/// past it.
fn latency_ms(latencies: Vec<f64>) -> (f64, f64) {
    let s = Sample::new(latencies);
    (s.median(), s.tail(99.0).unwrap_or(f64::INFINITY))
}

/// Offers `arrivals` to the idle `server` and waits for every outcome.
/// The calling thread is the generator; one scoped thread collects. With
/// `abortable`, offering stops once a request exceeds `PROBE_ABORT_MS`.
fn run_phase(server: &Server, pool: &[Pooled], arrivals: &[Arrival], abortable: bool) -> Phase {
    let before = server.stats();
    let overloaded = AtomicBool::new(false);
    let overloaded = &overloaded;
    let (anchor, anchor_ns) = (Instant::now(), server.now_ns());
    let origin = anchor + LEAD;
    let (tx, rx) = mpsc::channel::<Sent>();
    let served = thread::scope(|s| {
        let collector = s.spawn(move || {
            rx.into_iter()
                .map(|sent| {
                    let p = &pool[sent.index % pool.len()];
                    let latency_ns =
                        sent.ticket.and_then(|mut t| t.wait_timeout(WAIT)).ok().and_then(|r| {
                            let due_ns = anchor_ns + (sent.due - anchor).as_nanos() as u64;
                            (r.response == p.want).then(|| r.completed_at_ns.saturating_sub(due_ns))
                        });
                    if latency_ns.is_some_and(|ns| ns as f64 * 1e-6 > PROBE_ABORT_MS) {
                        overloaded.store(true, Ordering::Relaxed);
                    }
                    let Sent { index, due, sent, submitted, .. } = sent;
                    Served { index, due, sent, submitted, latency_ns }
                })
                .collect::<Vec<_>>()
        });
        for (index, a) in arrivals.iter().enumerate() {
            if abortable && overloaded.load(Ordering::Relaxed) {
                break;
            }
            let request = pool[index % pool.len()].entry.request();
            let due = origin + Duration::from_nanos(a.at_ns);
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            let sent = Instant::now();
            let ticket = server.submit(a.tenant, request);
            let submitted = Instant::now();
            tx.send(Sent { index, due, sent, submitted, ticket })
                .expect("the collector outlives the generator");
        }
        drop(tx);
        collector.join().expect("the collector thread does not panic")
    });
    let aborted = abortable && served.len() < arrivals.len();
    Phase { served, stats: stats_delta(server.stats(), before), aborted }
}

/// Binary search of the ladder for the highest step meeting the limit.
/// Returns that step's rate (the base rate over the ratio when none
/// does) and the probes run.
fn ladder(server: &Server, pool: &[Pooled], seed: u64, probe_s: f64) -> (f64, Vec<Phase>) {
    let (mut left, mut right) = (0, LADDER_STEPS);
    let mut probes = Vec::new();
    while left < right {
        let mid = (left + right) / 2;
        let rps = ladder_rps(mid);
        let phase = run_phase(
            server,
            pool,
            &schedule(seed ^ mid as u64, rps, arrivals(rps, probe_s)),
            true,
        );
        if phase.meets_limit() {
            left = mid + 1;
        } else {
            right = mid;
        }
        probes.push(phase);
    }
    let best = if left == 0 { LADDER_BASE_RPS / LADDER_RATIO } else { ladder_rps(left - 1) };
    (best, probes)
}

/// Counts the fixed-rate phases' requests, which must all be served, and
/// checks the generator's lateness over them. Returns that lateness (p99).
fn check_fixed(out: &mut Outcome, phases: &[&Phase]) -> f64 {
    for p in phases {
        out.attempted += p.served.len() as u64;
        out.failed += p.failed();
    }
    let late_ms_p99 = phases.iter().map(|p| p.late_ms_p99()).fold(0.0, f64::max);
    out.check(late_ms_p99 <= LATE_BOUND_MS);
    late_ms_p99
}

/// `serve_decode`: untraced, the `hi` rate for the whole run; traced,
/// phases at `lo` and `hi`, then the ladder.
pub fn decode(args: &Args) -> Outcome {
    let (pool, session, setup_s) = measure_setup(SETUP_REPS, || {
        let cfg = TransArrayConfig { threads: nproc(), ..TransArrayConfig::paper_w8() };
        let session = Session::new(cfg).expect("the paper-W8 design point is valid");
        (pool(&session, args.seed), session)
    });
    let direct_exact = pool.iter().all(|p| p.want.output.as_ref() == Some(&p.entry.want));
    let mut out = Outcome::new(setup_s, direct_exact);
    let s = args.seconds;
    let hi_schedule = |count| schedule(args.seed ^ 0x4849, HI_RPS, count);
    let server = start_server(&session);
    if !args.trace {
        let count = arrivals(HI_RPS, s).max(HI_SEGMENTS * SEGMENT_ARRIVALS);
        let hi = run_phase(&server, &pool, &hi_schedule(count), false);
        server.shutdown();
        let late_ms_p99 = check_fixed(&mut out, &[&hi]);
        let (p50, p90) = hi.segmented_latency_ms(HI_SEGMENTS);
        let (subtiles_per_s, macs_per_s) = hi.goodput(&pool);
        out.note(format!(
            "hi {HI_RPS} rps: p50 {p50:.3} ms, p90 {p90:.3} ms (lower quartiles over {HI_SEGMENTS} segments of {} samples), p99 {:.3} ms; generator p99 lateness {late_ms_p99:.3} ms (bound {LATE_BOUND_MS} ms)",
            hi.served.len() / HI_SEGMENTS,
            hi.latency_ms().1
        ));
        return out.end_to_end(EndToEnd {
            subtiles_per_s,
            gmacs_per_s: macs_per_s * 1e-9,
            p50_ms: p50,
            tail_ms: p90,
        });
    }
    let lo = run_phase(
        &server,
        &pool,
        &schedule(args.seed, LO_RPS, arrivals(LO_RPS, LO_SHARE * s)),
        false,
    );
    let hi = run_phase(&server, &pool, &hi_schedule(arrivals(HI_RPS, HI_SHARE * s)), false);
    let (max_rps, probes) = ladder(&server, &pool, args.seed ^ 0x1ADD, PROBE_SHARE * s);
    server.shutdown();
    // The fixed-rate phases must serve everything. Overloaded ladder probes
    // may fail requests by design; they only decide the search.
    let late_ms_p99 = check_fixed(&mut out, &[&lo, &hi]);
    let (lo_p50, lo_p99) = lo.latency_ms();
    let (hi_p50, hi_p99) = hi.latency_ms();
    out.note(format!(
        "lo {LO_RPS} rps: p50 {lo_p50:.3} ms, p99 {lo_p99:.3} ms ({} samples); hi {HI_RPS} rps: p50 {hi_p50:.3} ms, p99 {hi_p99:.3} ms ({} samples)",
        lo.served.len(),
        hi.served.len(),
    ));
    out.note(format!(
        "max rate meeting p99 <= {P99_LIMIT_MS} ms: {max_rps:.0} rps after {} probes; generator p99 lateness {late_ms_p99:.3} ms (bound {LATE_BOUND_MS} ms)",
        probes.len()
    ));
    let (mut tracer, mut counters) = (Tracer::default(), Counters::default());
    for (i, p) in pool.iter().enumerate() {
        let ok = run_traced(&session, &p.entry, &mut tracer, &mut counters, i as u64);
        out.check(ok);
    }
    let request_base = pool.len() as u64;
    for (i, s) in hi.served.iter().enumerate() {
        let request = request_base + i as u64;
        let end = s.latency_ns.map_or(tracer.at(s.submitted), |ns| tracer.at(s.due) + ns);
        let root = tracer.record("serve.request", tracer.at(s.due), end, None, request);
        tracer.record(stage::SUBMIT, tracer.at(s.sent), tracer.at(s.submitted), root, request);
    }
    for p in [&lo, &hi].into_iter().chain(&probes) {
        let busy: u64 = p.served.iter().map(|s| (s.submitted - s.sent).as_nanos() as u64).sum();
        tracer.add(stage::SUBMIT, p.served.len() as u64, busy);
    }
    let waits = Sample::new(
        hi.served
            .iter()
            .filter_map(|s| {
                s.latency_ns.map(|ns| (ns as f64 - pool[s.index % POOL].service_ns as f64) * 1e-6)
            })
            .collect(),
    );
    let fixed = [&lo, &hi];
    let sum = |f: fn(&ServerStats) -> u64| fixed.iter().map(|p| f(&p.stats)).sum::<u64>();
    let serve = ServeLayer {
        service_ms_p50: median(
            &pool.iter().map(|p| p.service_ns as f64 * 1e-6).collect::<Vec<_>>(),
        ),
        queue_wait_ms_p50: waits.median(),
        queue_wait_ms_p99: waits.tail(99.0).unwrap_or(f64::INFINITY),
        batches: hi.stats.batches,
        mean_batch: (hi.served.len() as u64 - hi.failed()) as f64 / hi.stats.batches.max(1) as f64,
        padded: sum(|s| s.padded),
        rejected: sum(|s| s.rejected),
        shed: sum(|s| s.shed),
        worker_lost: sum(|s| s.worker_lost),
        lo_p50_ms: lo_p50,
        lo_p99_ms: lo_p99,
        max_rps_p99: max_rps,
        late_ms_p99,
    };
    out.traced(args, &tracer, &counters, &serve)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = schedule(7, 2_000.0, 1_000);
        assert_eq!(a, schedule(7, 2_000.0, 1_000));
        assert_ne!(a, schedule(8, 2_000.0, 1_000));
        assert_eq!(a.len(), 1_000);
        assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        let span_s = a.last().expect("non-empty").at_ns as f64 * 1e-9;
        assert!((0.4..0.6).contains(&span_s), "1,000 arrivals at 2,000 rps span {span_s} s");
        for (i, arrival) in a.iter().enumerate() {
            let GemmShape { n, k, m } = arrival.shape;
            assert_eq!(arrival.shape, decode_shape(i % POOL));
            assert!((32..=128).contains(&n) && (32..=128).contains(&k) && (2..=8).contains(&m));
            assert!(arrival.tenant < TENANTS);
        }
    }

    #[test]
    fn ladder_brackets_the_fixed_rates() {
        assert_eq!(ladder_rps(0), LADDER_BASE_RPS);
        assert!(ladder_rps(0) < HI_RPS && ladder_rps(LADDER_STEPS - 1) > 2.0 * HI_RPS);
        assert_eq!(
            LADDER_STEPS + 1,
            1 << 5,
            "a binary search over the ladder takes exactly 5 probes"
        );
    }
}
