//! # ta-serve — multi-tenant continuous-batching serving frontend
//!
//! A std-only (threads + channels, no async runtime) serving layer over
//! the redesigned `ta-core` request API:
//!
//! * [`Server`] — admission queue → shape-bucketing batcher →
//!   continuous-batching worker pool, all behind [`Server::submit`],
//!   which returns a [`Ticket`] that resolves to the whole response;
//! * tenant fairness — per-tenant FIFOs drained round-robin, so a
//!   flooding tenant cannot starve a light one;
//! * [`BatchPolicy`] — bucket compatible shapes, flush on budget
//!   (`max_batch`) or deadline (`max_delay_ns`; the default 0
//!   dispatches a request on the scheduler pass that absorbs it),
//!   optional width quantization (`quantum_m`) with exact
//!   zero-padding;
//! * [`SloPolicy`] — per-tenant admission control (reject over-depth
//!   tenants at submit with [`RejectReason::QueueFull`]) and deadline
//!   shedding (drop over-budget requests at the batcher with
//!   [`ServeError::Shed`] before any worker time is spent);
//! * fault isolation — worker panics are caught, the victim ticket
//!   resolves [`ServeError::WorkerLost`], the worker respawns, and
//!   every other lane stays bit-exact; [`Ticket::wait_timeout`]
//!   bounds any wait on the caller side;
//! * [`faultpoint`] — deterministic seeded fault injection at named
//!   sites (worker panic, queue stall, batcher delay), enabled via
//!   [`ServerConfig::faults`] or the `TA_FAULTS` environment variable,
//!   with no wall-clock randomness anywhere;
//! * [`loadgen`] — seeded Poisson, bursty, and overload open-loop
//!   traces (pure functions of the seed; no wall-clock randomness).
//!
//! The headline guarantee is inherited from the accelerator runtime:
//! **serving never changes a bit**. Each request executes serially
//! inside one worker, so its output matrix and `GemmReport` are
//! identical to a direct `Session::run_serial` call whatever the
//! worker count, batch size, or arrival order. The fault-tolerance
//! layer adds a liveness guarantee on top: every admitted request
//! resolves — to that bit-exact response or to a typed [`ServeError`]
//! — never a silent hang.
//!
//! ```
//! use ta_core::{GemmRequest, Session, TransArrayConfig};
//! use ta_quant::MatI32;
//! use ta_serve::{Server, ServerConfig};
//!
//! let cfg = TransArrayConfig::builder()
//!     .width(4)
//!     .max_transrows(16)
//!     .weight_bits(4)
//!     .m_tile(4)
//!     .sample_limit(0)
//!     .build()
//!     .unwrap();
//! let server = Server::start(Session::new(cfg).unwrap(), ServerConfig::default());
//! let w = MatI32::from_rows(&[&[3, -5, 7, 1], &[-8, 2, 0, 6]]);
//! let x = MatI32::from_rows(&[&[1, 2], &[3, 4], &[5, 6], &[7, 8]]);
//! let ticket = server.submit(0, GemmRequest::execute(w, x)).unwrap();
//! let resp = ticket.wait().unwrap();
//! assert_eq!(resp.response.output.unwrap().get(0, 0), 3 - 15 + 35 + 7);
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod batcher;
pub mod faultpoint;
pub mod loadgen;
mod queue;
mod request;
mod server;

pub use batcher::BatchPolicy;
pub use faultpoint::{FaultConfig, FaultSite, FaultStats};
pub use request::{RejectReason, RequestId, ServeError, ServeResponse, TenantId, Ticket};
pub use server::{ClockMode, Server, ServerConfig, ServerStats, SloPolicy};

#[cfg(test)]
mod tests {
    use super::*;
    use loadgen::{poisson_trace, request_for};
    use std::time::Duration;
    use ta_core::error::TaError;
    use ta_core::{GemmRequest, GemmShape, PatternSource, Session, TransArrayConfig};
    use ta_quant::MatI32;

    use faultpoint::quiet_injected_panics;

    fn small_session(threads: usize) -> Session {
        let cfg = TransArrayConfig::builder()
            .width(4)
            .max_transrows(16)
            .weight_bits(4)
            .units(2)
            .m_tile(4)
            .threads(threads)
            .sample_limit(0)
            .build()
            .unwrap();
        Session::new(cfg).unwrap()
    }

    fn server_with(threads: usize, policy: BatchPolicy) -> Server {
        Server::start(
            small_session(threads),
            ServerConfig { workers: threads, policy, ..Default::default() },
        )
    }

    /// A policy that parks requests in the batcher indefinitely (huge
    /// batch budget, effectively infinite delay) — used to hold
    /// requests in a known place while a test pokes at the server.
    fn parking_policy() -> BatchPolicy {
        BatchPolicy { max_batch: 1 << 20, max_delay_ns: u64::MAX / 4, quantum_m: 1 }
    }

    const SHAPES: &[GemmShape] = &[
        GemmShape { n: 8, k: 16, m: 3 },
        GemmShape { n: 8, k: 16, m: 4 },
        GemmShape { n: 12, k: 16, m: 5 },
    ];

    fn small_request() -> GemmRequest {
        let w = MatI32::from_fn(8, 16, |r, c| ((r * 5 + c * 3) % 15) as i32 - 7);
        let x = MatI32::from_fn(16, 4, |r, c| ((r * 7 + c) % 255) as i32 - 127);
        GemmRequest::execute(w, x)
    }

    #[test]
    fn served_responses_match_direct_execution_bit_for_bit() {
        let direct = small_session(1);
        let trace = poisson_trace(17, 24, 100, 3, SHAPES);
        let server = server_with(2, BatchPolicy::default());
        let tickets: Vec<_> =
            trace.iter().map(|a| server.submit(a.tenant, request_for(a, 4, 8)).unwrap()).collect();
        for (ticket, arrival) in tickets.into_iter().zip(&trace) {
            let served = ticket.wait().unwrap();
            let want = direct.run_serial(request_for(arrival, 4, 8)).unwrap();
            assert_eq!(served.response, want, "arrival {arrival:?}");
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 24);
        assert_eq!(stats.padded, 0, "quantum 1 never pads");
        assert_eq!(stats.absorbed, 24, "every admitted request is absorbed");
        assert_eq!(stats.rejected + stats.shed + stats.worker_lost + stats.respawned, 0);
    }

    #[test]
    fn padded_buckets_still_return_exact_outputs() {
        let policy = BatchPolicy { max_batch: 4, max_delay_ns: 0, quantum_m: 4 };
        let server = server_with(2, policy);
        let trace = poisson_trace(23, 16, 50, 2, SHAPES);
        let tickets: Vec<_> =
            trace.iter().map(|a| server.submit(a.tenant, request_for(a, 4, 8)).unwrap()).collect();
        let direct = small_session(1);
        for (ticket, arrival) in tickets.into_iter().zip(&trace) {
            let served = ticket.wait().unwrap();
            let shape = request_for(arrival, 4, 8).shape();
            let out = served.response.output.expect("execute requests carry output");
            assert_eq!(out.cols(), shape.m, "padding must be sliced back off");
            let want = direct.run_serial(request_for(arrival, 4, 8)).unwrap();
            assert_eq!(out, want.output.unwrap(), "padded serving changed bits for {arrival:?}");
        }
        let stats = server.shutdown();
        assert!(stats.padded > 0, "m=3 and m=5 shapes must have been padded");
    }

    #[test]
    fn invalid_requests_are_rejected_at_admission() {
        let server = server_with(1, BatchPolicy::default());
        let err = server
            .submit(0, GemmRequest::execute(MatI32::zeros(4, 5), MatI32::zeros(6, 2)))
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::Rejected(RejectReason::Invalid(TaError::ShapeMismatch { .. }))
        ));
        let stats = server.shutdown();
        assert_eq!(stats.submitted, 0, "rejected requests are never admitted");
        assert_eq!(stats.rejected, 0, "validation failures are not SLO rejections");
    }

    #[test]
    fn empty_operand_is_rejected_not_a_worker_loss() {
        let server = server_with(1, BatchPolicy::default());
        let request = GemmRequest::execute(MatI32::zeros(4, 8), MatI32::zeros(8, 0));
        let err = server.submit(0, request).unwrap_err();
        let want = TaError::EmptyOperand { n: 4, k: 8, m: 0 };
        assert_eq!(err, ServeError::Rejected(RejectReason::Invalid(want)));
        let stats = server.shutdown();
        assert_eq!(stats.worker_lost + stats.respawned, 0);
    }

    #[test]
    fn accumulator_overflow_is_rejected_not_a_worker_loss() {
        // One-row sub-tiles keep the 140,000-deep GEMM cheap; its exact
        // result, 140,000 × (−128 · −128), does not fit i32.
        let cfg = TransArrayConfig::builder().max_transrows(8).build().unwrap();
        let config = ServerConfig { workers: 1, ..Default::default() };
        let server = Server::start(Session::new(cfg).unwrap(), config);
        let k = 140_000;
        let w = MatI32::from_fn(1, k, |_, _| -128);
        let x = MatI32::from_fn(k, 1, |_, _| -128);
        let err = server.submit(0, GemmRequest::execute(w, x)).unwrap().wait().unwrap_err();
        let want = TaError::AccumulatorOverflow { row: 0, col: 0, value: 2_293_760_000 };
        assert_eq!(err, ServeError::Rejected(RejectReason::Invalid(want)));
        let stats = server.shutdown();
        assert_eq!(stats.worker_lost + stats.respawned, 0);
    }

    /// A width-8 source whose first sub-tile row is wider than 8 bits.
    struct WideSource {
        rows: usize,
    }

    impl PatternSource for WideSource {
        fn width(&self) -> u32 {
            8
        }
        fn subtile_patterns(&mut self, _: usize, _: usize) -> Vec<u16> {
            let mut patterns = vec![0b1011; self.rows];
            patterns[0] = 0xFFFF;
            patterns
        }
        fn rows_per_subtile(&self) -> usize {
            self.rows
        }
    }

    #[test]
    fn wide_pattern_is_rejected_not_a_worker_loss() {
        let cfg = TransArrayConfig::paper_w8();
        let rows = cfg.n_tile() * cfg.weight_bits as usize;
        let config = ServerConfig { workers: 1, ..Default::default() };
        let server = Server::start(Session::new(cfg).unwrap(), config);
        let request = GemmRequest::simulate(GemmShape::new(64, 64, 64), WideSource { rows });
        let err = server.submit(0, request).unwrap().wait().unwrap_err();
        let want = TaError::PatternOutOfRange { pattern: 0xFFFF, width: 8 };
        assert_eq!(err, ServeError::Rejected(RejectReason::Invalid(want)));
        let stats = server.shutdown();
        assert_eq!(stats.worker_lost + stats.respawned, 0);
    }

    #[test]
    fn shutdown_drains_all_in_flight_requests() {
        // The parking policy holds requests in the batcher; shutdown
        // must still flush and answer every ticket.
        let server = server_with(2, parking_policy());
        let trace = poisson_trace(31, 12, 10, 4, SHAPES);
        let tickets: Vec<_> =
            trace.iter().map(|a| server.submit(a.tenant, request_for(a, 4, 8)).unwrap()).collect();
        let stats = server.shutdown();
        assert_eq!(stats.completed, 12);
        for ticket in tickets {
            ticket.wait().expect("shutdown resolves every outstanding ticket");
        }
    }

    #[test]
    fn shutdown_resolves_a_parked_request_on_one_worker() {
        let server = server_with(1, parking_policy());
        let ticket = server.submit(3, small_request()).unwrap();
        let stats = server.shutdown();
        assert_eq!(stats.completed, 1, "shutdown drains the parked request");
        let want = small_session(1).run_serial(small_request()).unwrap();
        assert_eq!(ticket.wait().expect("the parked request resolves").response, want);
    }

    #[test]
    fn simulate_requests_are_served_too() {
        let server = server_with(1, BatchPolicy::default());
        let shape = GemmShape::new(16, 16, 8);
        let src = ta_models::UniformBitSource::new(4, 4, 5);
        let ticket = server.submit(2, GemmRequest::simulate(shape, src)).unwrap();
        let resp = ticket.wait().unwrap();
        assert!(resp.response.output.is_none());
        assert!(resp.response.report.cycles > 0);
        server.shutdown();
    }

    #[test]
    fn over_depth_tenants_are_rejected_and_depth_releases_on_completion() {
        let config = ServerConfig {
            workers: 1,
            policy: parking_policy(),
            slo: SloPolicy { max_queue_depth: 2, latency_budget_ns: 0 },
            ..Default::default()
        };
        let server = Server::start(small_session(1), config);
        let t0 = server.submit(5, small_request()).unwrap();
        let t1 = server.submit(5, small_request()).unwrap();
        // Third submit for the same tenant: over depth, typed reject.
        match server.submit(5, small_request()) {
            Err(ServeError::Rejected(RejectReason::QueueFull { tenant, depth, limit })) => {
                assert_eq!((tenant, depth, limit), (5, 2, 2));
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        // Other tenants are unaffected by tenant 5's full lane.
        let t2 = server.submit(6, small_request()).unwrap();
        assert_eq!(server.stats().rejected, 1);
        let stats = server.shutdown();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.completed, 3);
        for t in [t0, t1, t2] {
            t.wait().expect("admitted requests all complete");
        }

        // Depth releases at resolution: with a flush-immediately
        // policy, sequential submits never see a stale full lane.
        let config = ServerConfig {
            workers: 1,
            slo: SloPolicy { max_queue_depth: 1, latency_budget_ns: 0 },
            ..Default::default()
        };
        let server = Server::start(small_session(1), config);
        for _ in 0..4 {
            let ticket = server.submit(9, small_request()).unwrap();
            ticket.wait().expect("depth released by the previous completion");
        }
        let stats = server.shutdown();
        assert_eq!(stats.rejected, 0, "sequential load never trips a depth-1 limit");
        assert_eq!(stats.completed, 4);
    }

    #[test]
    fn blown_latency_budgets_shed_at_the_batcher_on_the_virtual_clock() {
        let config = ServerConfig {
            workers: 2,
            policy: BatchPolicy { max_batch: 1 << 20, max_delay_ns: 500, quantum_m: 1 },
            slo: SloPolicy { max_queue_depth: 0, latency_budget_ns: 1_000 },
            clock: ClockMode::Virtual,
            ..Default::default()
        };
        let server = Server::start(small_session(1), config);
        assert_eq!(server.now_ns(), 0, "virtual clock starts frozen at zero");
        let t0 = server.submit(0, small_request()).unwrap();
        let t1 = server.submit(1, small_request()).unwrap();
        while server.stats().absorbed < 2 {
            std::thread::yield_now();
        }
        // Clock jumps past everyone's budget: the batcher flush sheds
        // both requests without spending any worker time.
        server.advance_clock(2_000);
        let expect_shed = |r: Result<ServeResponse, ServeError>| match r {
            Err(ServeError::Shed { waited_ns, budget_ns }) => {
                assert_eq!((waited_ns, budget_ns), (2_000, 1_000));
            }
            other => panic!("expected Shed, got {other:?}"),
        };
        expect_shed(t0.wait());
        expect_shed(t1.wait());
        let stats = server.shutdown();
        assert_eq!(stats.shed, 2);
        assert_eq!(stats.completed, 0, "no worker time was spent on blown deadlines");
    }

    #[test]
    fn default_policy_dispatches_with_the_clock_frozen() {
        // The virtual clock never moves here, so a request that waited
        // for a batch deadline would never leave the batcher.
        let config = ServerConfig { workers: 1, clock: ClockMode::Virtual, ..Default::default() };
        let server = Server::start(small_session(1), config);
        let mut ticket = server.submit(0, small_request()).unwrap();
        let served = ticket
            .wait_timeout(Duration::from_secs(30))
            .expect("the default policy dispatches without a clock advance");
        let want = small_session(1).run_serial(small_request()).unwrap();
        assert_eq!(served.response, want);
        assert_eq!(server.now_ns(), 0, "the clock never moved");
        let stats = server.shutdown();
        assert_eq!((stats.completed, stats.batches), (1, 1));
    }

    #[test]
    fn injected_worker_panics_resolve_worker_lost_and_respawn() {
        quiet_injected_panics();
        // Panic on every 1st-of-4 decisions: deterministic mixture of
        // lost and served requests through one worker.
        let faults = FaultConfig::new(0xFA_17, 250_000).with_site(FaultSite::WorkerPanic);
        let config = ServerConfig { workers: 1, faults: Some(faults), ..Default::default() };
        let server = Server::start(small_session(1), config);
        let direct = small_session(1);
        let want = direct.run_serial(small_request()).unwrap();
        let mut lost = 0u64;
        let mut completed = 0u64;
        for _ in 0..24 {
            let ticket = server.submit(0, small_request()).unwrap();
            match ticket.wait() {
                Ok(resp) => {
                    completed += 1;
                    assert_eq!(resp.response, want, "surviving lanes stay bit-exact");
                }
                Err(ServeError::WorkerLost) => lost += 1,
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        let fired = server.fault_stats().fired(FaultSite::WorkerPanic);
        assert_eq!(fired, lost, "every fired worker-panic fault is a WorkerLost ticket");
        assert!(lost > 0 && completed > 0, "25% rate over 24 must mix (lost={lost})");
        let stats = server.shutdown();
        assert_eq!(stats.worker_lost, lost);
        assert_eq!(stats.completed, completed);
        assert!(stats.respawned >= 1, "a panicked worker must respawn");
        assert!(stats.respawned <= stats.worker_lost);
    }

    #[test]
    fn certain_injected_panic_resolves_worker_lost_and_respawns_once() {
        quiet_injected_panics();
        let faults = FaultConfig::new(1, 1_000_000).with_site(FaultSite::WorkerPanic);
        let config = ServerConfig { workers: 1, faults: Some(faults), ..Default::default() };
        let server = Server::start(small_session(1), config);
        let ticket = server.submit(2, small_request()).unwrap();
        assert_eq!(ticket.wait(), Err(ServeError::WorkerLost));
        let stats = server.shutdown();
        assert_eq!((stats.worker_lost, stats.completed), (1, 0));
        assert_eq!(stats.respawned, 1);
    }

    #[test]
    fn wait_timeout_bounds_a_parked_request_without_losing_it() {
        let server = server_with(1, parking_policy());
        let mut ticket = server.submit(0, small_request()).unwrap();
        match ticket.wait_timeout(Duration::from_millis(20)) {
            Err(ServeError::Timeout { waited_ns }) => assert!(waited_ns >= 20_000_000),
            other => panic!("expected Timeout for a parked request, got {other:?}"),
        }
        // The request is still live; shutdown flushes and resolves it,
        // and the same ticket delivers the response.
        let stats = server.shutdown();
        assert_eq!(stats.completed, 1);
        ticket.wait_timeout(Duration::from_secs(30)).expect("parked request resolves");
    }

    #[test]
    fn scheduler_fault_sites_delay_but_never_drop_requests() {
        quiet_injected_panics();
        // 100% queue-stall + batcher-delay rates: every scheduler
        // iteration stalls and skips a flush pass, yet liveness and
        // bit-exactness must hold (flushes ride on later iterations —
        // shutdown's flush_all is unconditional).
        let faults = FaultConfig::new(3, 1_000_000)
            .with_site(FaultSite::QueueStall)
            .with_site(FaultSite::BatcherDelay);
        let config = ServerConfig {
            workers: 2,
            policy: BatchPolicy { max_batch: 4, max_delay_ns: 1_000, quantum_m: 1 },
            faults: Some(faults),
            ..Default::default()
        };
        let server = Server::start(small_session(1), config);
        let direct = small_session(1);
        let want = direct.run_serial(small_request()).unwrap();
        let tickets: Vec<_> =
            (0..8).map(|i| server.submit(i % 3, small_request()).unwrap()).collect();
        for mut ticket in tickets {
            let resp = ticket
                .wait_timeout(Duration::from_secs(60))
                .expect("stalled scheduler still serves");
            assert_eq!(resp.response, want);
        }
        let fault_stats = server.fault_stats();
        assert!(fault_stats.fired(FaultSite::QueueStall) > 0);
        assert!(fault_stats.fired(FaultSite::BatcherDelay) > 0);
        let stats = server.shutdown();
        assert_eq!(stats.completed, 8);
    }
}
