//! Request and response envelopes for the serving frontend.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use ta_core::error::TaError;
use ta_core::{GemmRequest, GemmResponse};

/// Monotonically increasing identifier assigned at admission.
pub type RequestId = u64;

/// Tenant identifier. Tenants share the accelerator but are scheduled
/// fairly against each other by the admission queue.
pub type TenantId = u32;

/// A completed request: the [`GemmResponse`] plus serving metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResponse {
    /// The admission-order id [`crate::Server::submit`] returned.
    pub id: RequestId,
    /// The submitting tenant.
    pub tenant: TenantId,
    /// The accelerator's answer — bit-identical to running the same
    /// [`GemmRequest`] directly on the session.
    pub response: GemmResponse,
    /// Server-clock nanoseconds at which the request was admitted.
    pub submitted_at_ns: u64,
    /// Server-clock nanoseconds at which the response was finalized.
    pub completed_at_ns: u64,
    /// How many requests shared the batch this one was dispatched in.
    pub batch_size: usize,
}

impl ServeResponse {
    /// End-to-end latency (admission to completion) in nanoseconds.
    pub fn latency_ns(&self) -> u64 {
        self.completed_at_ns.saturating_sub(self.submitted_at_ns)
    }
}

/// Why [`crate::Server::submit`] refused a request outright.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RejectReason {
    /// The request failed accelerator-side validation at submit, or its
    /// run failed with a typed error such as
    /// [`TaError::AccumulatorOverflow`]; it would fail identically on a
    /// direct `Session` call.
    Invalid(TaError),
    /// The tenant's admission-queue depth hit the
    /// [`crate::SloPolicy::max_queue_depth`] limit. Back off and retry;
    /// other tenants' lanes are unaffected.
    QueueFull {
        /// The over-limit tenant.
        tenant: TenantId,
        /// In-flight requests the tenant had at the time.
        depth: u64,
        /// The configured per-tenant limit.
        limit: u64,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Invalid(e) => write!(f, "invalid request: {e}"),
            Self::QueueFull { tenant, depth, limit } => {
                write!(f, "tenant {tenant} queue full ({depth} in flight, limit {limit})")
            }
        }
    }
}

/// Why a served request failed. Every ticket resolves to exactly one
/// of a bit-exact [`ServeResponse`] or one of these — the server never
/// leaves a caller hanging (see [`Ticket::wait`] / `wait_timeout`).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// Refused at submit time; the request was never admitted.
    Rejected(RejectReason),
    /// Admitted, but shed before execution because its latency budget
    /// ([`crate::SloPolicy::latency_budget_ns`]) was already blown.
    Shed {
        /// Server-clock nanoseconds the request had waited when shed.
        waited_ns: u64,
        /// The budget it exceeded.
        budget_ns: u64,
    },
    /// [`Ticket::wait_timeout`] gave up before the request resolved.
    /// The request is still in flight; the caller may wait again.
    Timeout {
        /// Wall nanoseconds the caller waited.
        waited_ns: u64,
    },
    /// The worker executing the request died (panicked) or the server
    /// dropped the reply path before resolving it. The server respawns
    /// panicked workers; other requests are unaffected.
    WorkerLost,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Rejected(reason) => write!(f, "request rejected: {reason}"),
            Self::Shed { waited_ns, budget_ns } => {
                write!(f, "request shed after {waited_ns} ns (latency budget {budget_ns} ns)")
            }
            Self::Timeout { waited_ns } => {
                write!(f, "gave up waiting after {waited_ns} ns; request still in flight")
            }
            Self::WorkerLost => write!(f, "worker lost before the response was produced"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Rejected(RejectReason::Invalid(e)) => Some(e),
            _ => None,
        }
    }
}

impl From<TaError> for ServeError {
    fn from(e: TaError) -> Self {
        Self::Rejected(RejectReason::Invalid(e))
    }
}

/// A handle on one in-flight request; resolves to its [`ServeResponse`].
#[derive(Debug)]
pub struct Ticket {
    pub(crate) id: RequestId,
    pub(crate) reply: mpsc::Receiver<Result<ServeResponse, ServeError>>,
}

impl Ticket {
    /// The id the server assigned this request at admission.
    pub fn id(&self) -> RequestId {
        self.id
    }

    /// Blocks until the request resolves.
    ///
    /// # Errors
    ///
    /// The typed [`ServeError`] the server resolved the request with.
    /// A reply channel whose sender disappeared without an explicit
    /// resolution (a bug, or a hard server teardown) maps to
    /// [`ServeError::WorkerLost`] instead of blocking forever.
    pub fn wait(self) -> Result<ServeResponse, ServeError> {
        self.reply.recv().unwrap_or(Err(ServeError::WorkerLost))
    }

    /// Blocks until the request resolves or `timeout` elapses.
    ///
    /// # Errors
    ///
    /// [`ServeError::Timeout`] when the deadline passes first — the
    /// request is still in flight and the ticket remains usable (call
    /// again, or [`Self::wait`]). Other errors as [`Self::wait`].
    pub fn wait_timeout(&mut self, timeout: Duration) -> Result<ServeResponse, ServeError> {
        let started = Instant::now();
        match self.reply.recv_timeout(timeout) {
            Ok(outcome) => outcome,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                Err(ServeError::Timeout { waited_ns: started.elapsed().as_nanos() as u64 })
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServeError::WorkerLost),
        }
    }

    /// Non-blocking poll; `None` while the request is still in flight.
    pub fn try_wait(&mut self) -> Option<Result<ServeResponse, ServeError>> {
        match self.reply.try_recv() {
            Ok(r) => Some(r),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::WorkerLost)),
        }
    }
}

/// The internal unit the queue, batcher, and workers pass around: the
/// tenant's request plus its reply channel.
pub(crate) struct Envelope {
    pub(crate) id: RequestId,
    pub(crate) tenant: TenantId,
    pub(crate) request: GemmRequest,
    pub(crate) submitted_at_ns: u64,
    pub(crate) reply: mpsc::Sender<Result<ServeResponse, ServeError>>,
}

impl Envelope {
    /// The GEMM shape, used for bucket keying.
    pub(crate) fn shape(&self) -> ta_core::GemmShape {
        self.request.shape()
    }

    /// Resolves this request with a typed error on its ticket. An
    /// abandoned ticket is not an error.
    pub(crate) fn resolve_err(self, err: ServeError) {
        let _ = self.reply.send(Err(err));
    }
}

#[cfg(test)]
pub(crate) fn test_envelope(id: RequestId, tenant: TenantId, request: GemmRequest) -> Envelope {
    // Queue/batcher tests never execute the envelope, so the dropped
    // receiver is harmless (workers ignore send errors anyway).
    let (reply, _) = mpsc::channel();
    Envelope { id, tenant, request, submitted_at_ns: 0, reply }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn orphan_ticket() -> Ticket {
        let (tx, reply) = mpsc::channel::<Result<ServeResponse, ServeError>>();
        drop(tx);
        Ticket { id: 0, reply }
    }

    #[test]
    fn dropped_reply_sender_resolves_worker_lost_not_hang() {
        // Regression: `wait` used to block forever (then report a
        // generic closure) when a worker died holding the only sender.
        assert_eq!(orphan_ticket().wait().unwrap_err(), ServeError::WorkerLost);
        let mut t = orphan_ticket();
        assert_eq!(t.try_wait(), Some(Err(ServeError::WorkerLost)));
        assert_eq!(t.wait_timeout(Duration::from_secs(5)).unwrap_err(), ServeError::WorkerLost);
    }

    #[test]
    fn wait_timeout_reports_timeout_and_keeps_the_ticket_usable() {
        let (tx, reply) = mpsc::channel();
        let mut t = Ticket { id: 1, reply };
        match t.wait_timeout(Duration::from_millis(10)) {
            Err(ServeError::Timeout { waited_ns }) => {
                assert!(waited_ns >= 10_000_000, "waited {waited_ns} ns < the 10 ms deadline");
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        // The request resolves later; the same ticket picks it up.
        tx.send(Err(ServeError::WorkerLost)).unwrap();
        assert_eq!(t.wait_timeout(Duration::from_secs(5)), Err(ServeError::WorkerLost));
    }

    #[test]
    fn resolve_err_sends_the_error_to_the_ticket() {
        let (reply, reply_rx) = mpsc::channel();
        let request =
            GemmRequest::execute(ta_quant::MatI32::zeros(2, 4), ta_quant::MatI32::zeros(4, 1));
        let env = Envelope { id: 3, tenant: 0, request, submitted_at_ns: 0, reply };
        env.resolve_err(ServeError::Shed { waited_ns: 9, budget_ns: 4 });
        let mut ticket = Ticket { id: 3, reply: reply_rx };
        assert_eq!(ticket.try_wait(), Some(Err(ServeError::Shed { waited_ns: 9, budget_ns: 4 })));
    }

    #[test]
    fn error_display_is_informative() {
        let msgs = [
            ServeError::Rejected(RejectReason::QueueFull { tenant: 7, depth: 8, limit: 8 })
                .to_string(),
            ServeError::Shed { waited_ns: 2_000, budget_ns: 1_000 }.to_string(),
            ServeError::Timeout { waited_ns: 55 }.to_string(),
            ServeError::WorkerLost.to_string(),
        ];
        assert!(msgs[0].contains("tenant 7") && msgs[0].contains("limit 8"));
        assert!(msgs[1].contains("2000 ns") && msgs[1].contains("1000 ns"));
        assert!(msgs[2].contains("still in flight"));
        assert!(msgs[3].contains("worker lost"));
    }
}
