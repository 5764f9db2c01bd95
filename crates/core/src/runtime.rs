//! The tile-execution runtime: a std-only scoped-thread worker pool.
//! Within one request the accelerator's sharded walker splits the
//! sub-tile grid across host cores ([`Runtime::run_shards_with`]);
//! across requests `Session::run_batch` hands whole requests to workers
//! ([`Runtime::run_jobs`]).
//!
//! ## Determinism contract
//!
//! Parallel execution is **bit-exact** against the serial path:
//!
//! * the sampled sub-tile sequence is split into *contiguous* shards, so
//!   every worker walks its sub-tiles in the serial order;
//! * per-worker aggregates are merged in **fixed shard order** (shard 0
//!   first, regardless of which worker finishes first) — see
//!   [`merge_in_shard_order`]. Integer counters are order-independent
//!   anyway; the pinned order makes every run of a given shard count
//!   fold the floating-point energy fields identically;
//! * any `f64` accumulated per sub-tile must be an **exactly
//!   representable** value whose running sums stay below 2⁵³ (today:
//!   `sb_pj` adds `rows × 3.0`, a dyadic-rational multiple). That is
//!   what makes the sharded regrouping `(Σ shard 0) + (Σ shard 1) + …`
//!   equal the serial left-to-right fold *bit-for-bit* — pinning the
//!   merge order alone would not; do not add a non-dyadic per-sub-tile
//!   energy constant without revisiting this (the determinism suite in
//!   `tests/lossless_pipeline.rs` will catch it);
//! * sources are [`PatternSource::fork`]ed per worker and must return the
//!   same patterns per index pair, which the trait already requires.
//!
//! Serial execution is simply the one-shard case of the same walk. A
//! source that cannot fork, or a grid too small to shard, also runs as
//! one shard over the caller's own source — the report is identical
//! either way.
//!
//! [`PatternSource::fork`]: crate::PatternSource::fork

use std::ops::Range;

/// A worker pool configuration for sharded tile execution.
///
/// `Runtime` carries no OS state: threads are spawned scoped per parallel
/// region (`std::thread::scope`), so borrows of the tile grid, the static
/// SI, and the output accumulator flow into workers without `'static`
/// gymnastics or reference counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Runtime {
    threads: usize,
}

impl Runtime {
    /// Creates a runtime with `threads` workers. `0` resolves to one
    /// worker per available core.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 { available_cores() } else { threads };
        Self { threads }
    }

    /// The single-threaded runtime (identical to the historical serial
    /// execution loop).
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// Resolved worker count (≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Splits `0..total` into at most [`Self::threads`] contiguous,
    /// near-equal ranges (never empty; fewer shards when `total` is
    /// small). Concatenating the ranges in order reproduces `0..total`.
    pub fn shards_for(&self, total: usize) -> Vec<Range<usize>> {
        shard_ranges(total, self.threads)
    }

    /// Runs one closure per `(range, state)` shard on the pool and
    /// returns the results **in shard order**. The per-shard `state`
    /// carries owned worker context (a forked pattern source, a mutable
    /// slice of the output accumulator, …) into its thread.
    pub fn run_shards_with<S, T>(
        &self,
        shards: Vec<(Range<usize>, S)>,
        f: impl Fn(usize, Range<usize>, S) -> T + Sync,
    ) -> Vec<T>
    where
        S: Send,
        T: Send,
    {
        if shards.len() <= 1 {
            return shards.into_iter().enumerate().map(|(i, (r, s))| f(i, r, s)).collect();
        }
        let parts = std::thread::scope(|scope| {
            let f = &f;
            let handles: Vec<_> = shards
                .into_iter()
                .enumerate()
                .map(|(i, (r, s))| scope.spawn(move || (i, f(i, r, s))))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("tile-execution worker panicked"))
                .collect::<Vec<_>>()
        });
        merge_in_shard_order(parts)
    }

    /// Runs independent owned jobs on the pool and returns the results
    /// **in submission order**.
    ///
    /// Workers **claim** jobs dynamically through one shared atomic
    /// counter instead of receiving a pre-assigned round-robin bucket:
    /// a worker that draws cheap jobs keeps claiming while its peers
    /// chew on expensive ones, so a skewed batch never idles most of
    /// the pool behind a static assignment. Each job slot is taken
    /// exactly once (the slot mutex is locked by exactly one claimant,
    /// so it is never contended); results carry their submission index
    /// and are restored to submission order at the end — `f` being
    /// deterministic per `(index, job)`, the claim order cannot leak
    /// into the output.
    pub fn run_jobs<J, T>(&self, jobs: Vec<J>, f: impl Fn(usize, J) -> T + Sync) -> Vec<T>
    where
        J: Send,
        T: Send,
    {
        let workers = self.threads.min(jobs.len());
        if workers <= 1 {
            return jobs.into_iter().enumerate().map(|(i, j)| f(i, j)).collect();
        }
        let slots: Vec<std::sync::Mutex<Option<J>>> =
            jobs.into_iter().map(|j| std::sync::Mutex::new(Some(j))).collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        let parts = std::thread::scope(|scope| {
            let (f, slots, next) = (&f, &slots, &next);
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            let Some(slot) = slots.get(i) else { break };
                            let job = slot
                                .lock()
                                .expect("job slot lock")
                                .take()
                                .expect("job claimed exactly once");
                            out.push((i, f(i, job)));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("batch worker panicked"))
                .collect::<Vec<_>>()
        });
        merge_in_shard_order(parts)
    }
}

impl Default for Runtime {
    fn default() -> Self {
        Self::serial()
    }
}

/// Available host cores (≥ 1 even when detection fails).
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Reads the `TA_THREADS` override: `Ok(None)` when unset, the parsed
/// worker count otherwise (`0` = one per core).
///
/// # Errors
///
/// Returns a descriptive error for anything that is not a non-negative
/// integer instead of silently defaulting.
pub fn threads_from_env() -> Result<Option<usize>, String> {
    match std::env::var("TA_THREADS") {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => {
            Err("invalid TA_THREADS: not valid unicode".to_string())
        }
        Ok(s) => s.trim().parse::<usize>().map(Some).map_err(|_| {
            format!("invalid TA_THREADS '{s}': expected a non-negative integer (0 = one per core)")
        }),
    }
}

/// Reads the `TA_PLAN_CACHE` override: `Ok(None)` when unset, the parsed
/// plan-cache capacity otherwise (`0` = cache off).
///
/// # Errors
///
/// Returns a descriptive error for anything that is not a non-negative
/// integer instead of silently defaulting.
pub fn plan_cache_from_env() -> Result<Option<usize>, String> {
    match std::env::var("TA_PLAN_CACHE") {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => {
            Err("invalid TA_PLAN_CACHE: not valid unicode".to_string())
        }
        Ok(s) => s.trim().parse::<usize>().map(Some).map_err(|_| {
            format!(
                "invalid TA_PLAN_CACHE '{s}': expected a non-negative entry count (0 = cache off)"
            )
        }),
    }
}

/// Splits `0..total` into at most `shards` contiguous near-equal ranges.
/// Never returns an empty range; returns no ranges for `total == 0`.
pub fn shard_ranges(total: usize, shards: usize) -> Vec<Range<usize>> {
    if total == 0 {
        return Vec::new();
    }
    let shards = shards.clamp(1, total);
    let base = total / shards;
    let extra = total % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, total);
    out
}

/// Reorders `(shard_index, value)` pairs by shard index and strips the
/// index — the **pinned reduction order** that makes floating-point
/// merges reproducible no matter which worker finished first. Integer
/// counters don't need it (addition commutes exactly); the `f64` energy
/// fields do.
pub fn merge_in_shard_order<T>(mut parts: Vec<(usize, T)>) -> Vec<T> {
    parts.sort_by_key(|(i, _)| *i);
    parts.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::accelerator::Agg;
    use proptest::prelude::*;

    /// Builds a plausible per-worker aggregate from raw generated ints.
    /// `sb_pj` mirrors the production invariant: an exact small-integer
    /// multiple of the per-row scan energy (3.0 pJ).
    fn agg_from(t: (u64, u64, u64, u64)) -> Agg {
        let (a, b, c, d) = t;
        Agg {
            subtile_cycles: a,
            total_ops: b,
            dense_bit_ops: b.saturating_mul(8),
            ape_ops: c,
            rows: d,
            si_misses: a % 97,
            simulated: 1 + (c % 7),
            sb_pj: d as f64 * 3.0,
        }
    }

    proptest! {
        /// The u64 counters commute: merging any permutation of the
        /// per-worker aggregates yields identical counter values.
        #[test]
        fn counter_merge_is_order_independent(
            raw in proptest::collection::vec(
                (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 20), 0..16),
        ) {
            let parts: Vec<Agg> = raw.iter().copied().map(agg_from).collect();
            let in_order = Agg::merge_shards(&parts);
            let mut reversed: Vec<Agg> = parts.clone();
            reversed.reverse();
            // Reversal plus a deterministic rotation cover distinct
            // permutations without needing a shuffle of a non-Clone type.
            let rotated: Vec<Agg> = if parts.is_empty() {
                Vec::new()
            } else {
                let mid = parts.len() / 2;
                parts[mid..].iter().chain(parts[..mid].iter()).cloned().collect()
            };
            for other in [Agg::merge_shards(&reversed), Agg::merge_shards(&rotated)] {
                prop_assert_eq!(other.subtile_cycles, in_order.subtile_cycles);
                prop_assert_eq!(other.total_ops, in_order.total_ops);
                prop_assert_eq!(other.dense_bit_ops, in_order.dense_bit_ops);
                prop_assert_eq!(other.ape_ops, in_order.ape_ops);
                prop_assert_eq!(other.rows, in_order.rows);
                prop_assert_eq!(other.si_misses, in_order.si_misses);
                prop_assert_eq!(other.simulated, in_order.simulated);
            }
        }

        /// The float energy field is folded in **pinned shard order**:
        /// whatever arrival order the workers finish in,
        /// [`merge_in_shard_order`] restores shard order first, so the
        /// f64 fold is bit-identical to the serial fold.
        #[test]
        fn float_merge_is_pinned_to_shard_order(
            raw in proptest::collection::vec(
                (0u64..1 << 30, 0u64..1 << 30, 0u64..1 << 30, 0u64..1 << 20), 1..16),
            seed in 0u64..1024,
        ) {
            let parts: Vec<Agg> = raw.iter().copied().map(agg_from).collect();
            let serial_fold = Agg::merge_shards(&parts);

            // Simulate out-of-order worker completion with a seeded
            // Fisher-Yates permutation of (shard_index, agg) pairs.
            let mut indexed: Vec<(usize, Agg)> =
                parts.iter().cloned().enumerate().collect();
            let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            for i in (1..indexed.len()).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = ((s >> 33) as usize) % (i + 1);
                indexed.swap(i, j);
            }
            let restored = merge_in_shard_order(indexed);
            let merged = Agg::merge_shards(&restored);
            prop_assert_eq!(
                merged.sb_pj.to_bits(),
                serial_fold.sb_pj.to_bits(),
                "pinned-order f64 fold must be bit-identical: {} vs {}",
                merged.sb_pj,
                serial_fold.sb_pj
            );
            prop_assert_eq!(merged.rows, serial_fold.rows);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_partition_exactly() {
        for total in [0usize, 1, 2, 7, 8, 9, 64, 1000] {
            for shards in [1usize, 2, 3, 8, 64] {
                let ranges = shard_ranges(total, shards);
                let mut next = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, next, "gap at {total}/{shards}");
                    assert!(!r.is_empty(), "empty shard at {total}/{shards}");
                    next = r.end;
                }
                assert_eq!(next, total, "coverage at {total}/{shards}");
                assert!(ranges.len() <= shards.max(1));
                if total > 0 {
                    let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                    let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                    assert!(max - min <= 1, "imbalance at {total}/{shards}: {lens:?}");
                }
            }
        }
    }

    #[test]
    fn run_shards_with_returns_shard_order() {
        let rt = Runtime::new(4);
        let shards = rt.shards_for(13).into_iter().map(|r| (r, ())).collect();
        let out = rt.run_shards_with(shards, |i, r, ()| (i, r.start, r.end));
        for (pos, (i, _, _)) in out.iter().enumerate() {
            assert_eq!(pos, *i);
        }
        let covered: usize = out.iter().map(|(_, s, e)| e - s).sum();
        assert_eq!(covered, 13);
    }

    #[test]
    fn run_jobs_returns_submission_order() {
        let rt = Runtime::new(3);
        let jobs: Vec<usize> = (0..10).collect();
        let out = rt.run_jobs(jobs, |_, j| j * 2);
        assert_eq!(out, (0..10).map(|j| j * 2).collect::<Vec<_>>());
    }

    #[test]
    fn run_jobs_with_skewed_costs_preserves_order() {
        // Dynamic claiming must still hand back submission order even
        // when job costs are wildly uneven and workers finish out of
        // order.
        let rt = Runtime::new(4);
        let jobs: Vec<usize> = (0..32).collect();
        let out = rt.run_jobs(jobs, |_, j| {
            if j % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            j * j
        });
        assert_eq!(out, (0..32).map(|j| j * j).collect::<Vec<_>>());
    }

    #[test]
    fn merge_pins_order() {
        let parts = vec![(2usize, "c"), (0, "a"), (1, "b")];
        assert_eq!(merge_in_shard_order(parts), vec!["a", "b", "c"]);
    }

    #[test]
    fn zero_threads_resolves_to_cores() {
        assert_eq!(Runtime::new(0).threads(), available_cores());
        assert_eq!(Runtime::serial().threads(), 1);
    }
}
