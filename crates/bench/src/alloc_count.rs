//! Heap-allocation counting for the execution-engine bench.
//!
//! The library side is just an atomic event counter — `unsafe` is banned
//! here, so the actual `GlobalAlloc` wrapper lives in the `bench_smoke`
//! **binary**, which installs a `#[global_allocator]` forwarding to
//! `System`, calls [`mark_installed`] at the top of `main`, and calls
//! [`record_alloc`] on every `alloc`/`realloc`. [`allocations`] then
//! reads the process-wide count, and [`counting_enabled`] reports
//! whether a counting allocator was declared — library tests and figure
//! binaries run on the plain system allocator, where the perf suite
//! records the allocation metric as "unmeasured" instead of a fake
//! zero.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Process-wide allocation-event count (alloc + realloc calls).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Whether a counting global allocator declared itself installed.
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// Records one allocation event. Called by the counting global allocator
/// installed in `bench_smoke`; a no-op burden of one relaxed atomic add.
#[inline]
pub fn record_alloc() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
}

/// Declares that a counting global allocator is installed in this
/// process. Call once from the installing binary's `main`, next to the
/// `#[global_allocator]` item.
pub fn mark_installed() {
    INSTALLED.store(true, Ordering::Relaxed);
}

/// Total allocation events recorded so far (0 forever when no counting
/// allocator is installed). Measure a region by differencing.
#[inline]
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Whether a counting global allocator declared itself installed via
/// [`mark_installed`].
pub fn counting_enabled() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_records_and_reads() {
        let before = allocations();
        record_alloc();
        record_alloc();
        assert!(allocations() >= before + 2);
    }

    // `counting_enabled` flips only via `mark_installed`, which only the
    // installing binary calls — asserting it false here would couple this
    // test to process-wide state other tests could legitimately change,
    // so the flag's effect is exercised end-to-end in `bench_smoke`
    // (the exec_allocs_per_subtile row is measured there and absent
    // everywhere else, asserted by the perf-suite test).
}
