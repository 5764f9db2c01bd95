//! Shape-bucketing batcher.
//!
//! Compatible requests coalesce into one [`BatchJob`] so a worker
//! dispatches them back-to-back at a uniform shape (one plan-cache
//! working set, one scheduling decision). Compatibility is by bucket
//! key:
//!
//! * execute requests bucket on `(n, k, ceil(m / quantum_m))` — same
//!   weights shape, input width rounded up to the bucket's quantum.
//!   Requests narrower than the bucket width are zero-padded (exact:
//!   the padded output columns are identically zero and are sliced back
//!   off before the response is sent);
//! * simulate requests bucket on their exact shape and are never
//!   padded (there is no functional input to pad).
//!
//! Requests **never** pad across buckets: a request's padded width is
//! always within `quantum_m - 1` columns of its own width.
//!
//! A bucket flushes when it reaches `max_batch` requests (inside
//! [`Batcher::offer`]) or when its oldest request has waited
//! `max_delay_ns` (inside [`Batcher::flush_due`]). The default
//! `max_delay_ns` is 0: every bucket is due on the scheduler pass that
//! absorbed it, so only requests that arrive in the same pass and land
//! in the same bucket coalesce (up to `max_batch`). A batch's requests
//! run one after another on one worker and share no work, so holding a
//! request for batchmates would only add queue wait. The batcher is
//! driven by caller-supplied logical timestamps, so every policy
//! decision is unit-testable without wall-clock time.

use std::collections::BTreeMap;

use crate::request::Envelope;

/// Batching policy knobs.
///
/// The default dispatches each request on the scheduler pass that
/// absorbs it:
///
/// ```
/// use ta_serve::BatchPolicy;
///
/// let policy = BatchPolicy::default();
/// assert_eq!(policy, BatchPolicy { max_batch: 8, max_delay_ns: 0, quantum_m: 1 });
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Flush a bucket as soon as it holds this many requests (at least
    /// 1; default 8).
    pub max_batch: usize,
    /// Flush a bucket once its oldest request has waited this long
    /// (server-clock nanoseconds). `0` (the default) makes every
    /// bucket due on the scheduler pass that absorbed it.
    pub max_delay_ns: u64,
    /// Execute-request input widths are rounded up to a multiple of
    /// this quantum for bucketing; `1` (the default) means exact-shape
    /// bucketing and no padding ever.
    pub quantum_m: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self { max_batch: 8, max_delay_ns: 0, quantum_m: 1 }
    }
}

impl BatchPolicy {
    fn validated(self) -> Self {
        assert!(self.max_batch > 0, "max_batch must be at least 1");
        assert!(self.quantum_m > 0, "quantum_m must be at least 1");
        self
    }
}

/// What makes two requests batchable together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct BucketKey {
    execute: bool,
    n: usize,
    k: usize,
    /// `ceil(m / quantum_m)` for execute requests, exact `m` otherwise.
    m_bucket: usize,
}

/// A flushed bucket: the scheduling unit handed to one worker.
pub(crate) struct BatchJob {
    /// Uniform input width every execute request is padded to.
    pub(crate) padded_m: usize,
    pub(crate) requests: Vec<Envelope>,
}

impl BatchJob {
    /// Splits off every request whose latency budget is already blown
    /// at logical time `now_ns` (strictly over `budget_ns` since
    /// admission), preserving the relative order of both halves. The
    /// scheduler sheds the returned envelopes with a typed error
    /// instead of spending worker time on answers nobody is waiting
    /// for. A zero budget means "no deadline" and sheds nothing.
    pub(crate) fn take_expired(&mut self, now_ns: u64, budget_ns: u64) -> Vec<Envelope> {
        if budget_ns == 0 {
            return Vec::new();
        }
        let (expired, kept) = std::mem::take(&mut self.requests)
            .into_iter()
            .partition(|env| now_ns.saturating_sub(env.submitted_at_ns) > budget_ns);
        self.requests = kept;
        expired
    }
}

struct Bucket {
    requests: Vec<Envelope>,
    /// Logical time the current oldest request entered the bucket.
    opened_at_ns: u64,
}

/// See the module docs.
pub(crate) struct Batcher {
    policy: BatchPolicy,
    buckets: BTreeMap<BucketKey, Bucket>,
}

impl Batcher {
    pub(crate) fn new(policy: BatchPolicy) -> Self {
        Self { policy: policy.validated(), buckets: BTreeMap::new() }
    }

    fn key_for(&self, env: &Envelope) -> BucketKey {
        let shape = env.shape();
        let execute = env.request.is_execute();
        let m_bucket = if execute { shape.m.div_ceil(self.policy.quantum_m) } else { shape.m };
        BucketKey { execute, n: shape.n, k: shape.k, m_bucket }
    }

    fn job(&self, key: BucketKey, requests: Vec<Envelope>) -> BatchJob {
        let padded_m =
            if key.execute { key.m_bucket * self.policy.quantum_m } else { key.m_bucket };
        BatchJob { padded_m, requests }
    }

    /// Admits one request at logical time `now_ns`; returns the bucket
    /// as a job if this request filled it to `max_batch`.
    pub(crate) fn offer(&mut self, env: Envelope, now_ns: u64) -> Option<BatchJob> {
        let key = self.key_for(&env);
        let bucket = self
            .buckets
            .entry(key)
            .or_insert_with(|| Bucket { requests: Vec::new(), opened_at_ns: now_ns });
        bucket.requests.push(env);
        if bucket.requests.len() >= self.policy.max_batch {
            let bucket = self.buckets.remove(&key).expect("bucket just touched");
            return Some(self.job(key, bucket.requests));
        }
        None
    }

    /// Flushes every bucket whose oldest request has waited
    /// `max_delay_ns` by `now_ns`, in deterministic key order.
    pub(crate) fn flush_due(&mut self, now_ns: u64) -> Vec<BatchJob> {
        let due: Vec<BucketKey> = self
            .buckets
            .iter()
            .filter(|(_, b)| now_ns.saturating_sub(b.opened_at_ns) >= self.policy.max_delay_ns)
            .map(|(k, _)| *k)
            .collect();
        due.into_iter()
            .map(|key| {
                let bucket = self.buckets.remove(&key).expect("key collected above");
                self.job(key, bucket.requests)
            })
            .collect()
    }

    /// Flushes everything (shutdown path), in deterministic key order.
    pub(crate) fn flush_all(&mut self) -> Vec<BatchJob> {
        let buckets = std::mem::take(&mut self.buckets);
        buckets.into_iter().map(|(key, b)| self.job(key, b.requests)).collect()
    }

    /// The earliest logical time at which a bucket becomes due, if any
    /// bucket is open — what the scheduler sleeps until.
    pub(crate) fn next_deadline_ns(&self) -> Option<u64> {
        self.buckets.values().map(|b| b.opened_at_ns + self.policy.max_delay_ns).min()
    }

    /// Requests currently waiting in open buckets.
    pub(crate) fn pending(&self) -> usize {
        self.buckets.values().map(|b| b.requests.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::test_envelope;
    use ta_core::{GemmRequest, GemmShape};
    use ta_models::UniformBitSource;
    use ta_quant::MatI32;

    fn exec(id: u64, n: usize, k: usize, m: usize) -> Envelope {
        test_envelope(id, 0, GemmRequest::execute(MatI32::zeros(n, k), MatI32::zeros(k, m)))
    }

    fn policy(max_batch: usize, max_delay_ns: u64, quantum_m: usize) -> BatchPolicy {
        BatchPolicy { max_batch, max_delay_ns, quantum_m }
    }

    #[test]
    fn same_quantum_bucket_coalesces_and_pads_to_quantum() {
        let mut b = Batcher::new(policy(2, 1_000, 4));
        assert!(b.offer(exec(0, 8, 16, 3), 0).is_none());
        let job = b.offer(exec(1, 8, 16, 4), 10).expect("bucket reached max_batch");
        assert_eq!(job.padded_m, 4);
        assert_eq!(job.requests.len(), 2);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn no_cross_bucket_padding() {
        // m=1 and m=5 straddle a quantum boundary: they must never
        // share a bucket, so the m=1 request pads to 4, never to 8.
        let mut b = Batcher::new(policy(2, 1_000, 4));
        assert!(b.offer(exec(0, 8, 16, 1), 0).is_none());
        assert!(b.offer(exec(1, 8, 16, 5), 0).is_none(), "different buckets must not merge");
        assert_eq!(b.pending(), 2);
        let jobs = b.flush_all();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].padded_m, 4, "m=1 pads only to its own bucket quantum");
        assert_eq!(jobs[1].padded_m, 8);
        // Different weight shapes never merge either.
        let mut b = Batcher::new(policy(2, 1_000, 4));
        assert!(b.offer(exec(0, 8, 16, 2), 0).is_none());
        assert!(b.offer(exec(1, 8, 32, 2), 0).is_none());
        assert_eq!(b.flush_all().len(), 2);
    }

    #[test]
    fn quantum_one_never_pads() {
        let mut b = Batcher::new(policy(4, 1_000, 1));
        assert!(b.offer(exec(0, 8, 16, 3), 0).is_none());
        assert!(b.offer(exec(1, 8, 16, 5), 0).is_none(), "m=3 and m=5 are distinct buckets");
        for job in b.flush_all() {
            let m = job.requests[0].shape().m;
            assert_eq!(job.padded_m, m, "quantum 1 is exact-shape bucketing");
        }
    }

    #[test]
    fn deadline_flushes_partial_bucket() {
        let mut b = Batcher::new(policy(8, 100, 1));
        assert!(b.offer(exec(0, 8, 16, 2), 0).is_none());
        assert_eq!(b.next_deadline_ns(), Some(100));
        assert!(b.flush_due(99).is_empty(), "not due yet");
        let jobs = b.flush_due(100);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].requests.len(), 1);
        assert_eq!(b.next_deadline_ns(), None);
    }

    #[test]
    fn zero_delay_flushes_on_the_absorbing_pass() {
        let mut b = Batcher::new(policy(3, 0, 1));
        // Two same-bucket offers at one timestamp leave in one job.
        assert!(b.offer(exec(0, 8, 16, 2), 50).is_none());
        assert!(b.offer(exec(1, 8, 16, 2), 50).is_none());
        assert_eq!(b.next_deadline_ns(), Some(50), "due at once");
        let jobs = b.flush_due(50);
        assert_eq!(jobs.len(), 1);
        let ids: Vec<u64> = jobs[0].requests.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(b.next_deadline_ns(), None);
        assert_eq!(b.pending(), 0);
        // Reaching max_batch still flushes from offer.
        assert!(b.offer(exec(2, 8, 16, 2), 60).is_none());
        assert!(b.offer(exec(3, 8, 16, 2), 60).is_none());
        let job = b.offer(exec(4, 8, 16, 2), 60).expect("bucket reached max_batch");
        assert_eq!(job.requests.len(), 3);
        assert_eq!(b.next_deadline_ns(), None);
    }

    #[test]
    fn deadline_tracks_oldest_request_in_bucket() {
        let mut b = Batcher::new(policy(8, 100, 1));
        assert!(b.offer(exec(0, 8, 16, 2), 0).is_none());
        // A later arrival into the same bucket must not extend the
        // oldest request's deadline.
        assert!(b.offer(exec(1, 8, 16, 2), 90).is_none());
        let jobs = b.flush_due(100);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].requests.len(), 2, "both flush with the oldest");
    }

    #[test]
    fn take_expired_sheds_only_over_budget_requests_in_order() {
        let mut b = Batcher::new(policy(8, 100, 1));
        let at = |id: u64, submitted_at_ns: u64| {
            let mut env = exec(id, 8, 16, 2);
            env.submitted_at_ns = submitted_at_ns;
            env
        };
        for (id, t) in [(0, 0), (1, 500), (2, 100), (3, 900)] {
            assert!(b.offer(at(id, t), t).is_none());
        }
        let mut job = b.flush_all().pop().expect("one bucket");
        // Budget 600 at now=1000: waited 1000/500/900/100 → ids 0 and 2
        // are strictly over budget; 1 and 3 survive, order intact.
        let expired: Vec<u64> = job.take_expired(1_000, 600).iter().map(|e| e.id).collect();
        assert_eq!(expired, vec![0, 2]);
        let kept: Vec<u64> = job.requests.iter().map(|e| e.id).collect();
        assert_eq!(kept, vec![1, 3]);
        // Exactly-at-budget is not over budget.
        assert!(job.take_expired(1_100, 600).is_empty(), "waited == budget must not shed");
        // Budget 0 disables deadline shedding entirely.
        assert!(job.take_expired(u64::MAX, 0).is_empty());
        assert_eq!(job.requests.len(), 2);
    }

    #[test]
    fn simulate_requests_bucket_exactly_and_never_pad() {
        let mut b = Batcher::new(policy(2, 1_000, 4));
        let sim = |id: u64, m: usize| {
            test_envelope(
                id,
                0,
                GemmRequest::simulate(GemmShape::new(8, 16, m), UniformBitSource::new(4, 4, 1)),
            )
        };
        assert!(b.offer(sim(0, 3), 0).is_none());
        // Same quantum bucket as m=3 for executes, but simulates key on
        // exact m: these must not merge.
        assert!(b.offer(sim(1, 4), 0).is_none());
        // And an execute with the same shape never joins a simulate.
        assert!(b.offer(exec(2, 8, 16, 3), 0).is_none());
        let jobs = b.flush_all();
        assert_eq!(jobs.len(), 3);
        for job in &jobs {
            if !job.requests[0].request.is_execute() {
                assert_eq!(job.padded_m, job.requests[0].shape().m);
            }
        }
    }
}
