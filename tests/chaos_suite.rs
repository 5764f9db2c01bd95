//! Chaos suite: the serving stack under deterministic fault injection.
//!
//! Every round arms **all** fault sites (`worker_panic`, `queue_stall`,
//! `batcher_delay`) from a seeded [`FaultConfig`] and replays a seeded
//! trace, then proves the liveness-and-typed-errors contract:
//!
//! * **no hangs** — every ticket is waited with a hard
//!   [`Ticket::wait_timeout`]; a `Timeout` here is a test failure, not
//!   an accepted outcome;
//! * **typed errors only** — a faulted request resolves as
//!   `ServeError::WorkerLost`, never a panic escaping the server and
//!   never a silently dropped reply;
//! * **bit-exactness for survivors** — every `Ok` response matches a
//!   direct serial run bit-for-bit, even when the worker that served it
//!   was respawned mid-trace.
//!
//! Fault decisions come from counter-mode splitmix64 streams (no
//! wall-clock randomness), so a failing round is replayable from the
//! seed line this suite appends to `target/chaos/chaos_seeds.log` (or
//! `$TA_CHAOS_LOG`) — the file CI uploads as an artifact.

use std::io::Write as _;
use std::time::Duration;

use transitive_array::prelude::*;
use transitive_array::serve::faultpoint::quiet_injected_panics;
use transitive_array::serve::loadgen::{poisson_trace, request_for};

const WEIGHT_BITS: u32 = 4;
const ACT_BITS: u32 = 8;

/// Hard upper bound on any single wait. A healthy round resolves in
/// milliseconds; hitting this means a request hung, which is exactly
/// the bug class this suite exists to catch.
const NO_HANG: Duration = Duration::from_secs(30);

fn session(threads: usize) -> Session {
    let cfg = TransArrayConfig::builder()
        .width(4)
        .max_transrows(16)
        .weight_bits(WEIGHT_BITS)
        .units(2)
        .m_tile(4)
        .threads(threads)
        .sample_limit(0)
        .build()
        .expect("valid chaos configuration");
    Session::new(cfg).expect("session opens")
}

fn shapes() -> Vec<GemmShape> {
    vec![GemmShape::new(8, 16, 3), GemmShape::new(8, 16, 4), GemmShape::new(12, 16, 5)]
}

/// Appends one replay line per round to the chaos seed log (uploaded
/// as a CI artifact), so any failure names the exact `(seed, rate,
/// workers)` triple that reproduces it.
fn log_round(label: &str, seed: u64, rate_ppm: u32, workers: usize) {
    let path = std::env::var("TA_CHAOS_LOG")
        .unwrap_or_else(|_| "target/chaos/chaos_seeds.log".to_string());
    let path = std::path::PathBuf::from(path);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(&path) {
        let _ = writeln!(
            f,
            "{label}: TA_FAULTS=seed={seed},rate_ppm={rate_ppm},sites=all workers={workers}"
        );
    }
}

/// One chaos round: all fault sites armed at `rate_ppm`, a seeded
/// trace of `count` requests on `workers` workers. Returns
/// `(completed, worker_lost)`.
fn chaos_round(label: &str, seed: u64, rate_ppm: u32, workers: usize, count: usize) -> (u64, u64) {
    quiet_injected_panics();
    log_round(label, seed, rate_ppm, workers);
    let faults = FaultConfig::new(seed, rate_ppm).all_sites();
    let config = ServerConfig {
        workers,
        policy: BatchPolicy { max_batch: 4, max_delay_ns: 50_000, quantum_m: 4 },
        faults: Some(faults),
        ..ServerConfig::default()
    };
    let server = Server::start(session(workers), config);
    let direct = session(1);
    let trace = poisson_trace(seed, count, 200, 3, &shapes());

    let tickets: Vec<_> = trace
        .iter()
        .map(|a| {
            let request = request_for(a, WEIGHT_BITS, ACT_BITS);
            (a, server.submit(a.tenant, request).expect("valid request"))
        })
        .collect();

    let (mut completed, mut worker_lost) = (0u64, 0u64);
    for (arrival, mut ticket) in tickets {
        match ticket.wait_timeout(NO_HANG) {
            Ok(resp) => {
                let want = direct
                    .run_serial(request_for(arrival, WEIGHT_BITS, ACT_BITS))
                    .expect("direct run succeeds");
                assert_eq!(
                    resp.response.output, want.output,
                    "{label}: surviving response must stay bit-identical at {arrival:?}"
                );
                completed += 1;
            }
            Err(ServeError::WorkerLost) => worker_lost += 1,
            Err(ServeError::Timeout { waited_ns }) => {
                panic!("{label}: request hung for {waited_ns} ns — liveness violated")
            }
            Err(e) => panic!("{label}: untyped/unexpected outcome {e}"),
        }
    }

    let fault_stats = server.fault_stats();
    assert_eq!(
        fault_stats.decisions(FaultSite::WorkerPanic),
        count as u64,
        "{label}: one worker-panic decision per executed request"
    );
    assert_eq!(
        fault_stats.fired(FaultSite::WorkerPanic),
        worker_lost,
        "{label}: every fired worker panic is a typed WorkerLost"
    );
    let stats = server.shutdown();
    assert_eq!(stats.completed, completed, "{label}: completion accounting");
    assert_eq!(stats.worker_lost, worker_lost, "{label}: loss accounting");
    assert_eq!(completed + worker_lost, count as u64, "{label}: every request resolves");
    assert!(stats.respawned <= worker_lost, "{label}: at most one respawn per lost request");
    assert!(worker_lost == 0 || stats.respawned >= 1, "{label}: losses must respawn workers");
    (completed, worker_lost)
}

#[test]
fn chaos_all_sites_one_worker() {
    let (completed, lost) = chaos_round("chaos_w1", 0xC4A0_5001, 250_000, 1, 24);
    assert!(completed > 0 && lost > 0, "25% must mix outcomes (completed={completed} lost={lost})");
}

#[test]
fn chaos_all_sites_two_workers() {
    let (completed, lost) = chaos_round("chaos_w2", 0xC4A0_5002, 250_000, 2, 24);
    assert!(completed > 0 && lost > 0, "25% must mix outcomes (completed={completed} lost={lost})");
}

#[test]
fn chaos_all_sites_eight_workers() {
    let (completed, lost) = chaos_round("chaos_w8", 0xC4A0_5008, 250_000, 8, 32);
    assert!(completed > 0 && lost > 0, "25% must mix outcomes (completed={completed} lost={lost})");
}

#[test]
fn chaos_full_rate_loses_everything_yet_never_hangs() {
    // Every decision fires: every request is a WorkerLost, the pool
    // respawns continuously, and nothing hangs or escapes untyped.
    let (completed, lost) = chaos_round("chaos_full_rate", 0xC4A0_50FF, 1_000_000, 2, 16);
    assert_eq!((completed, lost), (0, 16));
}

#[test]
fn chaos_shutdown_mid_storm_resolves_every_ticket() {
    // Shutdown while faulted requests are still in flight: stop() must
    // drain the queue and every ticket must still resolve as a typed
    // outcome (served or WorkerLost), never a hang or dropped reply.
    quiet_injected_panics();
    log_round("chaos_shutdown", 0xC4A0_5D0D, 500_000, 2);
    let faults = FaultConfig::new(0xC4A0_5D0D, 500_000).all_sites();
    let config = ServerConfig {
        workers: 2,
        policy: BatchPolicy { max_batch: 2, max_delay_ns: 20_000, quantum_m: 1 },
        faults: Some(faults),
        ..ServerConfig::default()
    };
    let server = Server::start(session(2), config);
    let direct = session(1);
    let trace = poisson_trace(0xC4A0_5D0D, 16, 100, 2, &shapes());
    let tickets: Vec<_> = trace
        .iter()
        .map(|a| (a, server.submit(a.tenant, request_for(a, WEIGHT_BITS, ACT_BITS)).unwrap()))
        .collect();
    let stats = server.shutdown();
    assert_eq!(stats.completed + stats.worker_lost, 16, "shutdown must drain the storm");
    for (arrival, mut ticket) in tickets {
        match ticket.wait_timeout(NO_HANG) {
            Ok(resp) => {
                let want = direct.run_serial(request_for(arrival, WEIGHT_BITS, ACT_BITS)).unwrap();
                assert_eq!(resp.response.output, want.output, "drained response diverged");
            }
            Err(ServeError::WorkerLost) => {}
            Err(e) => panic!("untyped outcome after shutdown: {e}"),
        }
    }
}

#[test]
fn chaos_rounds_replay_identically_from_their_seed() {
    // The whole point of seeded injection: the same (seed, rate,
    // workers, trace) round lands the same worker-panic fault count.
    let a = chaos_round("chaos_replay_a", 0xC4A0_5EED, 250_000, 1, 24);
    let b = chaos_round("chaos_replay_b", 0xC4A0_5EED, 250_000, 1, 24);
    assert_eq!(a, b, "same seed must produce identical (completed, lost) counts");
}
