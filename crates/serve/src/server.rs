//! The continuous-batching server: admission → batcher → worker pool.
//!
//! ```text
//!  submit() ──mpsc──▶ scheduler thread ──mpsc──▶ worker 0..W
//!   │ SLO admission    │  AdmissionQueue           │ run each request
//!   │ (per-tenant      │  (tenant round-robin)     │ serially under
//!   │  depth limit)    │  Batcher (shape buckets,  │ catch_unwind,
//!   │                  │  budget/deadline flush,   │ reply on ticket
//!   │                  │  deadline shedding)       │
//! ```
//!
//! Determinism contract: every request executes as its own GEMM,
//! serially, inside one worker (`Session::run_serial`). The runtime's
//! parallel-equals-serial guarantee then makes each response —
//! output matrix *and* full `GemmReport` — bit-identical to calling
//! the session directly, regardless of worker count, batching policy,
//! or arrival order. Padding (`quantum_m > 1`) widens a request's
//! input with zero columns that are sliced back off, so outputs still
//! match bit-for-bit; only then does the report describe the padded
//! shape.
//!
//! Fault-tolerance contract: every admitted request resolves — to the
//! bit-exact response or to a typed [`ServeError`] — no matter what.
//! Worker panics are isolated with `catch_unwind`: the victim ticket
//! resolves [`ServeError::WorkerLost`], the worker finishes the rest
//! of its batch (each request individually guarded) and respawns
//! itself, and every other lane stays bit-exact. Deadline pressure is
//! handled by [`SloPolicy`]: over-depth tenants are rejected at
//! submit, over-budget requests are shed at the batcher before any
//! worker time is spent on them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ta_core::{GemmRequest, Session};
use ta_quant::MatI32;

use crate::batcher::{BatchJob, BatchPolicy, Batcher};
use crate::faultpoint::{FaultConfig, FaultPlan, FaultSite, FaultStats};
use crate::queue::AdmissionQueue;
use crate::request::{
    Envelope, RejectReason, RequestId, ServeError, ServeResponse, TenantId, Ticket,
};

/// How long the scheduler stalls when a [`FaultSite::QueueStall`]
/// decision fires (wall time; the fault simulates a descheduled
/// scheduler, not a logical-clock event).
const QUEUE_STALL: Duration = Duration::from_micros(500);

/// Poll interval of the scheduler under [`ClockMode::Virtual`]: with
/// no wall deadlines to sleep toward, the scheduler wakes at this wall
/// cadence to re-read the virtual clock.
const VIRTUAL_POLL: Duration = Duration::from_micros(200);

/// Per-tenant service-level objectives enforced by the server.
/// `0` disables the corresponding limit (the default: admit and keep
/// everything, exactly the pre-SLO behavior).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SloPolicy {
    /// Maximum in-flight (admitted, unresolved) requests per tenant.
    /// Submits beyond it fail fast with
    /// [`RejectReason::QueueFull`] instead of growing the queue.
    pub max_queue_depth: u64,
    /// Maximum server-clock nanoseconds a request may wait before
    /// dispatch. Requests over budget at flush time are shed at the
    /// batcher with [`ServeError::Shed`] — no worker time is spent on
    /// an answer whose deadline is already blown.
    pub latency_budget_ns: u64,
}

/// Which clock drives `submitted_at_ns`, batcher deadlines, and
/// latency budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// Wall time since server start (the default).
    #[default]
    Wall,
    /// A logical clock that only moves when [`Server::advance_clock`]
    /// is called. Benchmarks and tests use it to script overload
    /// scenarios — "now everyone's deadline is blown" — with
    /// deterministic outcomes on any host.
    Virtual,
}

/// Server construction knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerConfig {
    /// Worker threads executing batches; `0` means one per host core.
    /// Each request runs serially inside its worker, so this is the
    /// server's total parallelism.
    pub workers: usize,
    /// Shape-bucketing policy (see [`BatchPolicy`]).
    pub policy: BatchPolicy,
    /// Per-tenant SLOs (see [`SloPolicy`]; default: unlimited).
    pub slo: SloPolicy,
    /// Fault injection. `None` (the default) falls back to the
    /// `TA_FAULTS` environment variable ([`FaultConfig::from_env`]);
    /// injection is off when that is unset too.
    pub faults: Option<FaultConfig>,
    /// Clock driving all serving timestamps (see [`ClockMode`]).
    pub clock: ClockMode,
}

/// A monotonic snapshot of the server's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Requests admitted by [`Server::submit`].
    pub submitted: u64,
    /// Responses delivered (successfully executed requests).
    pub completed: u64,
    /// Batches dispatched to workers.
    pub batches: u64,
    /// Execute requests that were zero-padded to their bucket width.
    pub padded: u64,
    /// Submits refused by SLO admission control ([`RejectReason::QueueFull`]).
    /// Validation failures are not counted — they were never load.
    pub rejected: u64,
    /// Admitted requests shed at the batcher over a blown latency
    /// budget ([`ServeError::Shed`]).
    pub shed: u64,
    /// Requests resolved [`ServeError::WorkerLost`] (worker panic, or
    /// dispatch to an already-dead pool).
    pub worker_lost: u64,
    /// Replacement workers spawned after a panic.
    pub respawned: u64,
    /// Admitted requests the scheduler has absorbed into the batcher
    /// (counted whether they later complete, shed, or fail). Virtual-
    /// clock drivers spin on this to know their submits are batched
    /// before advancing the clock.
    pub absorbed: u64,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    batches: AtomicU64,
    padded: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    worker_lost: AtomicU64,
    respawned: AtomicU64,
    absorbed: AtomicU64,
}

struct Clock {
    mode: ClockMode,
    epoch: Instant,
    virtual_ns: AtomicU64,
}

impl Clock {
    fn new(mode: ClockMode) -> Self {
        Self { mode, epoch: Instant::now(), virtual_ns: AtomicU64::new(0) }
    }

    fn now_ns(&self) -> u64 {
        match self.mode {
            ClockMode::Wall => self.epoch.elapsed().as_nanos() as u64,
            ClockMode::Virtual => self.virtual_ns.load(Ordering::SeqCst),
        }
    }
}

/// State shared by the handle, the scheduler, and every worker
/// (including respawned ones).
struct Inner {
    counters: Counters,
    clock: Clock,
    faults: FaultPlan,
    slo: SloPolicy,
    /// In-flight request count per tenant; entries are removed at zero
    /// so an idle tenant costs nothing.
    depths: Mutex<BTreeMap<TenantId, u64>>,
}

impl Inner {
    fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Releases one unit of the tenant's queue depth. Called on every
    /// resolution path — completion, shed, worker loss — so admission
    /// control tracks true in-flight load. Without a depth limit
    /// admission never inserts an entry, so there is nothing to lock.
    fn release(&self, tenant: TenantId) {
        if self.slo.max_queue_depth == 0 {
            return;
        }
        let mut depths = self.depths.lock().expect("depth map lock");
        if let Some(depth) = depths.get_mut(&tenant) {
            *depth -= 1;
            if *depth == 0 {
                depths.remove(&tenant);
            }
        }
    }

    /// Resolves an envelope with a typed error, maintaining depth
    /// accounting and the given failure counter. Depth is released
    /// *before* the ticket resolves: a caller that observed its
    /// ticket's resolution must never race a stale depth entry into a
    /// spurious `QueueFull`.
    fn fail(&self, env: Envelope, err: ServeError, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
        self.release(env.tenant);
        env.resolve_err(err);
    }
}

/// The serving frontend. See the module docs for the architecture,
/// the determinism contract, and the fault-tolerance contract.
pub struct Server {
    session: Session,
    cmd_tx: Option<mpsc::Sender<Envelope>>,
    scheduler: Option<JoinHandle<()>>,
    /// Live worker handles. Respawned workers push their replacement's
    /// handle *before* exiting, so draining this to empty (while
    /// joining each popped handle) joins every worker ever spawned.
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    inner: Arc<Inner>,
    next_id: AtomicU64,
}

impl Server {
    /// Starts the scheduler and worker threads over a session.
    ///
    /// # Panics
    ///
    /// Panics if `config.faults` is `None` and the `TA_FAULTS`
    /// environment variable holds a malformed spec (a silently
    /// ignored fault spec would make a chaos run vacuously green).
    pub fn start(session: Session, config: ServerConfig) -> Self {
        let worker_count = if config.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            config.workers
        };
        let faults = config.faults.or_else(FaultConfig::from_env);
        let inner = Arc::new(Inner {
            counters: Counters::default(),
            clock: Clock::new(config.clock),
            faults: FaultPlan::new(faults),
            slo: config.slo,
            depths: Mutex::new(BTreeMap::new()),
        });
        let (cmd_tx, cmd_rx) = mpsc::channel::<Envelope>();
        let (job_tx, job_rx) = mpsc::channel::<BatchJob>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let workers = Arc::new(Mutex::new(Vec::with_capacity(worker_count)));

        let sched_inner = Arc::clone(&inner);
        let policy = config.policy;
        let scheduler = std::thread::Builder::new()
            .name("ta-serve-sched".into())
            .spawn(move || scheduler_loop(cmd_rx, job_tx, policy, &sched_inner))
            .expect("spawn scheduler thread");

        {
            let mut registry = workers.lock().expect("worker handle registry");
            for index in 0..worker_count {
                let ctx = WorkerCtx {
                    session: session.clone(),
                    job_rx: Arc::clone(&job_rx),
                    inner: Arc::clone(&inner),
                    handles: Arc::clone(&workers),
                    index,
                    generation: 0,
                };
                registry.push(spawn_worker(ctx));
            }
        }

        Self {
            session,
            cmd_tx: Some(cmd_tx),
            scheduler: Some(scheduler),
            workers,
            inner,
            next_id: AtomicU64::new(0),
        }
    }

    /// The session this server runs (shared plan cache and all).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Validates and admits a request; returns a [`Ticket`] resolving
    /// to its response.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] — the request failed validation
    /// ([`RejectReason::Invalid`]) or the tenant is at its
    /// [`SloPolicy::max_queue_depth`] ([`RejectReason::QueueFull`]).
    /// Rejected requests are never admitted.
    pub fn submit(&self, tenant: TenantId, request: GemmRequest) -> Result<Ticket, ServeError> {
        self.session
            .validate(&request)
            .map_err(|e| ServeError::Rejected(RejectReason::Invalid(e)))?;
        let limit = self.inner.slo.max_queue_depth;
        if limit > 0 {
            let mut depths = self.inner.depths.lock().expect("depth map lock");
            let depth = depths.entry(tenant).or_insert(0);
            if *depth >= limit {
                let depth = *depth;
                drop(depths);
                self.inner.counters.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Rejected(RejectReason::QueueFull { tenant, depth, limit }));
            }
            *depth += 1;
        }
        let id: RequestId = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = mpsc::channel();
        let env =
            Envelope { id, tenant, request, submitted_at_ns: self.inner.now_ns(), reply: reply_tx };
        self.inner.counters.submitted.fetch_add(1, Ordering::Relaxed);
        self.cmd_tx
            .as_ref()
            .expect("server is running")
            .send(env)
            .expect("scheduler outlives the server handle");
        Ok(Ticket { id, reply: reply_rx })
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> ServerStats {
        let c = &self.inner.counters;
        ServerStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            padded: c.padded.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            worker_lost: c.worker_lost.load(Ordering::Relaxed),
            respawned: c.respawned.load(Ordering::Relaxed),
            absorbed: c.absorbed.load(Ordering::Relaxed),
        }
    }

    /// Decision/fired tallies of the fault-injection plan (all zero
    /// when injection is off).
    pub fn fault_stats(&self) -> FaultStats {
        self.inner.faults.stats()
    }

    /// Nanoseconds on the server's clock (the clock every
    /// [`ServeResponse`] timestamp uses; see [`ClockMode`]).
    pub fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }

    /// Advances the virtual clock by `delta_ns`.
    ///
    /// # Panics
    ///
    /// Panics under [`ClockMode::Wall`] — wall time cannot be scripted.
    pub fn advance_clock(&self, delta_ns: u64) {
        assert!(
            self.inner.clock.mode == ClockMode::Virtual,
            "advance_clock requires ClockMode::Virtual"
        );
        self.inner.clock.virtual_ns.fetch_add(delta_ns, Ordering::SeqCst);
    }

    /// Stops admissions, drains every in-flight request, and joins all
    /// threads. Outstanding tickets resolve before this returns.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        // Closing the command channel makes the scheduler drain its
        // queue, flush the batcher, and close the job channel; workers
        // then finish their remaining jobs and exit. Respawned workers
        // register their handle before their predecessor exits, so the
        // drain loop below observes every worker ever spawned.
        drop(self.cmd_tx.take());
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
        loop {
            let handle = self.workers.lock().expect("worker handle registry").pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn scheduler_loop(
    cmd_rx: mpsc::Receiver<Envelope>,
    job_tx: mpsc::Sender<BatchJob>,
    policy: BatchPolicy,
    inner: &Inner,
) {
    let mut queue = AdmissionQueue::new();
    let mut batcher = Batcher::new(policy);
    let mut open = true;
    // Set once dispatch fails (all workers gone — possible only during
    // teardown races); everything afterwards resolves WorkerLost
    // instead of being silently dropped.
    let mut workers_gone = false;
    // Consecutive flush passes skipped by `batcher_delay` fires. A
    // fault may *delay* a flush, never starve it: even at a 100% fire
    // rate the bound below forces a real flush pass, keeping the
    // liveness contract (every request resolves) fault-rate-independent.
    let mut delayed_passes = 0u32;
    const MAX_DELAYED_PASSES: u32 = 8;
    while open || !queue.is_empty() || batcher.pending() > 0 {
        if inner.faults.decide(FaultSite::QueueStall) {
            std::thread::sleep(QUEUE_STALL);
        }
        if open {
            // Sleep until the next bucket deadline or for new work. The
            // virtual clock never wakes a sleeper, so under it the
            // scheduler polls at a short wall cadence instead.
            let wait = match inner.clock.mode {
                ClockMode::Virtual => Some(VIRTUAL_POLL),
                ClockMode::Wall => batcher
                    .next_deadline_ns()
                    .map(|deadline| Duration::from_nanos(deadline.saturating_sub(inner.now_ns()))),
            };
            let first = match wait {
                Some(wait) => match cmd_rx.recv_timeout(wait) {
                    Ok(env) => Some(env),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => {
                        open = false;
                        None
                    }
                },
                None => match cmd_rx.recv() {
                    Ok(env) => Some(env),
                    Err(_) => {
                        open = false;
                        None
                    }
                },
            };
            if let Some(env) = first {
                queue.push(env);
            }
            // Batch up everything else that has already arrived.
            loop {
                match cmd_rx.try_recv() {
                    Ok(env) => queue.push(env),
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        open = false;
                        break;
                    }
                }
            }
        }
        let now_ns = inner.now_ns();
        let mut jobs = Vec::new();
        // Tenant-fair drain into the batcher; full buckets flush here.
        while let Some(env) = queue.pop() {
            jobs.extend(batcher.offer(env, now_ns));
            // Counted *after* the offer: once `absorbed` covers a
            // request, its bucket deadline is set and a virtual-clock
            // advance is guaranteed to reach it.
            inner.counters.absorbed.fetch_add(1, Ordering::Relaxed);
        }
        if open {
            if inner.faults.decide(FaultSite::BatcherDelay) && delayed_passes < MAX_DELAYED_PASSES {
                delayed_passes += 1;
            } else {
                delayed_passes = 0;
                jobs.extend(batcher.flush_due(now_ns));
            }
        } else {
            jobs.extend(batcher.flush_all());
        }
        for mut job in jobs {
            // Deadline shedding at the batcher: drop whatever is
            // already over budget before spending worker time on it.
            for env in job.take_expired(now_ns, inner.slo.latency_budget_ns) {
                let waited_ns = now_ns.saturating_sub(env.submitted_at_ns);
                let err = ServeError::Shed { waited_ns, budget_ns: inner.slo.latency_budget_ns };
                inner.fail(env, err, &inner.counters.shed);
            }
            if job.requests.is_empty() {
                continue;
            }
            if workers_gone {
                for env in job.requests {
                    inner.fail(env, ServeError::WorkerLost, &inner.counters.worker_lost);
                }
                continue;
            }
            match job_tx.send(job) {
                Ok(()) => {
                    inner.counters.batches.fetch_add(1, Ordering::Relaxed);
                }
                Err(mpsc::SendError(job)) => {
                    workers_gone = true;
                    for env in job.requests {
                        inner.fail(env, ServeError::WorkerLost, &inner.counters.worker_lost);
                    }
                }
            }
        }
    }
}

/// Everything a worker thread needs — including what it takes to
/// respawn itself after an isolated panic.
struct WorkerCtx {
    session: Session,
    job_rx: Arc<Mutex<mpsc::Receiver<BatchJob>>>,
    inner: Arc<Inner>,
    handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
    index: usize,
    generation: u64,
}

fn spawn_worker(ctx: WorkerCtx) -> JoinHandle<()> {
    let name = if ctx.generation == 0 {
        format!("ta-serve-worker-{}", ctx.index)
    } else {
        format!("ta-serve-worker-{}g{}", ctx.index, ctx.generation)
    };
    std::thread::Builder::new()
        .name(name)
        .spawn(move || worker_loop(ctx))
        .expect("spawn worker thread")
}

fn worker_loop(ctx: WorkerCtx) {
    loop {
        // Holding the lock across recv() briefly serializes job pickup,
        // which is fine: execution dominates and handoff still rotates
        // through the pool.
        let job = {
            let rx = ctx.job_rx.lock().expect("job channel lock");
            rx.recv()
        };
        let Ok(mut job) = job else { break };
        let batch_size = job.requests.len();
        let mut panicked = false;
        for env in job.requests.drain(..) {
            // Each request is individually guarded, so one panic never
            // takes down its batchmates: the rest of the job completes
            // (bit-exactly) on this same thread before it retires.
            panicked |= run_one(&ctx, env, job.padded_m, batch_size);
        }
        if panicked {
            // This thread's unwind-poisoned frame retires; an
            // identical replacement takes over the pool slot. The
            // handle is registered before this thread exits, so
            // `Server::stop`'s drain-join cannot miss it.
            let next = WorkerCtx {
                session: ctx.session.clone(),
                job_rx: Arc::clone(&ctx.job_rx),
                inner: Arc::clone(&ctx.inner),
                handles: Arc::clone(&ctx.handles),
                index: ctx.index,
                generation: ctx.generation + 1,
            };
            let handle = spawn_worker(next);
            ctx.inner.counters.respawned.fetch_add(1, Ordering::Relaxed);
            ctx.handles.lock().expect("worker handle registry").push(handle);
            return;
        }
    }
}

/// Executes one envelope; returns whether execution panicked (real or
/// injected). The reply sender lives *outside* the unwind guard, so a
/// panic mid-execution still leaves this worker able to actively
/// resolve the ticket with [`ServeError::WorkerLost`].
fn run_one(ctx: &WorkerCtx, env: Envelope, padded_m: usize, batch_size: usize) -> bool {
    let inner = &ctx.inner;
    // Worker-side shedding: the budget can blow while a job sits in
    // the dispatch channel behind slow batches.
    let budget_ns = inner.slo.latency_budget_ns;
    let waited_ns = inner.now_ns().saturating_sub(env.submitted_at_ns);
    if budget_ns > 0 && waited_ns > budget_ns {
        inner.fail(env, ServeError::Shed { waited_ns, budget_ns }, &inner.counters.shed);
        return false;
    }
    let Envelope { id, tenant, request, submitted_at_ns, reply } = env;
    let original_m = request.shape().m;
    let request = if request.is_execute() && original_m < padded_m {
        inner.counters.padded.fetch_add(1, Ordering::Relaxed);
        request.padded_to(padded_m)
    } else {
        request
    };
    let session = &ctx.session;
    let faults = &inner.faults;
    let executed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        if faults.decide(FaultSite::WorkerPanic) {
            panic!("injected worker panic (site worker_panic)");
        }
        session.run_serial(request)
    }));
    match executed {
        Ok(result) => {
            let outcome = result
                .map(|mut response| {
                    if let Some(out) = response.output.take() {
                        response.output = Some(slice_cols(out, original_m));
                    }
                    inner.counters.completed.fetch_add(1, Ordering::Relaxed);
                    ServeResponse {
                        id,
                        tenant,
                        response,
                        submitted_at_ns,
                        completed_at_ns: inner.now_ns(),
                        batch_size,
                    }
                })
                .map_err(|e| ServeError::Rejected(RejectReason::Invalid(e)));
            inner.release(tenant);
            let _ = reply.send(outcome); // an abandoned ticket is not an error
            false
        }
        Err(_panic) => {
            inner.counters.worker_lost.fetch_add(1, Ordering::Relaxed);
            inner.release(tenant);
            let _ = reply.send(Err(ServeError::WorkerLost));
            true
        }
    }
}

/// Drops the zero-padded output columns added by bucket padding.
fn slice_cols(out: MatI32, m: usize) -> MatI32 {
    if out.cols() == m {
        return out;
    }
    MatI32::from_fn(out.rows(), m, |r, c| out.get(r, c))
}
