//! The serving frontend's headline guarantee, tested end to end: a
//! request served through the full stack (admission queue → tenant
//! round-robin → shape-bucketing batcher → continuous-batching worker
//! pool) returns the **same bits** as calling the session directly —
//! output matrix and full `GemmReport` — across every combination of
//! Scoreboard mode, worker count and batching budget.
//!
//! Arrival traces are seeded (`ta_serve::loadgen`), so every run
//! replays the identical workload; nothing here depends on timing.

use transitive_array::prelude::*;
use transitive_array::serve::loadgen::{bursty_trace, poisson_trace, request_for};

const WEIGHT_BITS: u32 = 4;
const ACT_BITS: u32 = 8;

fn session(threads: usize) -> Session {
    session_in(ScoreboardMode::Dynamic, threads)
}

fn session_in(mode: ScoreboardMode, threads: usize) -> Session {
    let cfg = TransArrayConfig::builder()
        .width(4)
        .max_transrows(16)
        .weight_bits(WEIGHT_BITS)
        .units(2)
        .m_tile(4)
        .threads(threads)
        .scoreboard_mode(mode)
        .sample_limit(0)
        .build()
        .expect("valid test configuration");
    Session::new(cfg).expect("session opens")
}

fn shapes() -> Vec<GemmShape> {
    vec![
        GemmShape::new(8, 16, 3),
        GemmShape::new(8, 16, 4),
        GemmShape::new(12, 16, 5),
        GemmShape::new(16, 32, 2),
    ]
}

/// Served responses must equal direct execution bit-for-bit — output
/// *and* full report — for every (Scoreboard mode, worker count, batch
/// budget) combo, and under the default policy, which dispatches
/// without a hold.
#[test]
fn served_equals_direct_across_threads_and_batch_budgets() {
    let shapes = shapes();
    let held = |max_batch| BatchPolicy { max_batch, max_delay_ns: 50_000, quantum_m: 1 };
    let policies = [held(1), held(2), held(8), BatchPolicy::default()];
    for mode in [ScoreboardMode::Dynamic, ScoreboardMode::Static] {
        let direct = session_in(mode, 1);
        for threads in [1usize, 2, 8] {
            for policy in policies {
                let server = Server::start(
                    session_in(mode, threads),
                    ServerConfig { workers: threads, policy, ..ServerConfig::default() },
                );
                let trace = poisson_trace(0xD5 + policy.max_batch as u64, 20, 200, 3, &shapes);
                let tickets: Vec<_> = trace
                    .iter()
                    .map(|a| {
                        server
                            .submit(a.tenant, request_for(a, WEIGHT_BITS, ACT_BITS))
                            .expect("trace requests are valid")
                    })
                    .collect();
                for (ticket, arrival) in tickets.into_iter().zip(&trace) {
                    let served = ticket.wait().expect("server answers every request");
                    let want = direct
                        .run_serial(request_for(arrival, WEIGHT_BITS, ACT_BITS))
                        .expect("direct run succeeds");
                    assert_eq!(
                        served.response, want,
                        "{mode:?} threads={threads} policy={policy:?} arrival={arrival:?}"
                    );
                }
                let stats = server.shutdown();
                assert_eq!(stats.completed, 20);
                assert_eq!(stats.padded, 0, "quantum 1 must never pad");
            }
        }
    }
}

/// Same guarantee under a bursty arrival pattern with width-quantized
/// buckets: outputs still match the direct run exactly (padding is
/// sliced back off), and at least one request was actually padded so
/// the exactness claim is exercised, not vacuous.
#[test]
fn bursty_padded_serving_stays_exact() {
    let direct = session(1);
    let shapes = shapes();
    let policy = BatchPolicy { max_batch: 4, max_delay_ns: 20_000, quantum_m: 4 };
    let server =
        Server::start(session(2), ServerConfig { workers: 2, policy, ..ServerConfig::default() });
    let trace = bursty_trace(0xB0B, 24, 500, 6, 2, &shapes);
    let tickets: Vec<_> = trace
        .iter()
        .map(|a| server.submit(a.tenant, request_for(a, WEIGHT_BITS, ACT_BITS)).unwrap())
        .collect();
    for (ticket, arrival) in tickets.into_iter().zip(&trace) {
        let served = ticket.wait().unwrap();
        let want = direct.run_serial(request_for(arrival, WEIGHT_BITS, ACT_BITS)).unwrap();
        assert_eq!(
            served.response.output, want.output,
            "padded serving changed output bits for {arrival:?}"
        );
        assert_eq!(served.response.output.as_ref().unwrap().cols(), arrival.shape.m);
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, 24);
    assert!(stats.padded > 0, "m=3/m=5 shapes under quantum 4 must pad");
}
