//! The memoized plan cache — cross-tile result reuse for the Scoreboard
//! itself.
//!
//! A sub-tile's balanced forest, execution plan, and ZR/TR/FR/PR
//! statistics are fully determined by its TransRow pattern **multiset**
//! and the Scoreboard configuration: `record` only counts occurrences,
//! and the forward/backward/balance passes walk the 2^T Hasse nodes in a
//! fixed order. Two tiles presenting the same multiset — in any row
//! order — therefore produce bit-identical plans, so re-running Alg. 1–2
//! for every sub-tile of a layer wastes the work the paper's whole
//! premise is about reusing. [`PlanCache`] memoizes the post-scoreboard
//! products behind a canonical, permutation-invariant [`PlanKey`];
//! [`SharedPlanCache`] is the thread-safe wrapper the tile-execution
//! runtime's workers share.
//!
//! ## Concurrency design
//!
//! [`SharedPlanCache`] is **sharded**: the key space is partitioned by
//! key hash across a power-of-two number of independently locked
//! [`PlanCache`] shards, so concurrent lookups of different keys only
//! contend when they land in the same shard. Within a shard, recency is
//! **CLOCK** (second-chance), not LRU: a hit sets an atomic referenced
//! bit instead of relinking a recency list, so the hit path needs only a
//! shard **read** lock plus a relaxed atomic store when the bit is clear
//! (none for an entry already referenced) — warm replay never takes a
//! write path, and readers of the same shard proceed in parallel. Only misses (which insert) and evictions take a shard write
//! lock. Aggregate counters ([`SharedPlanCache::stats`]) are folded
//! across shards, so callers see the same hit/miss/eviction/insertion
//! totals a single-table cache would report.
//!
//! Position-dependent per-tile quantities (crossbar bank occupancy, which
//! depends on each row's original index) are deliberately **not** cached
//! — callers recompute them per tile, which is what keeps a cache hit
//! bit-identical to a fresh plan (the determinism contract of
//! `ta_core::runtime`).

use crate::exec::ExecutionPlan;
use crate::scoreboard::{BalancePolicy, Scoreboard, ScoreboardConfig};
use crate::si::StaticTileReport;
use crate::stats::TileStats;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Canonical, permutation-invariant cache key for one sub-tile plan.
///
/// Two pattern slices map to the same key iff they are permutations of
/// one another **and** were planned under the same TransRow width,
/// distance cap, lane count, balance policy, and (for static mode) the
/// same SI table instance. Zero rows participate: they change row counts,
/// Scoreboard scan cycles, and densities.
///
/// The key is hashed once, when it is built, and carries that hash as its
/// first field: [`Hash`] writes only it, shard routing masks it, and
/// equality compares it before anything else, so a lookup never re-walks
/// the multiset to hash it and a mismatch usually fails on one `u64`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanKey {
    /// Hash of every other field, computed once by [`PlanKey::new`].
    hash: u64,
    width: u32,
    max_distance: u8,
    lanes: u32,
    balance: BalancePolicy,
    /// Static-SI instance token ([`crate::StaticSi::instance_token`]);
    /// `None` for dynamic-mode plans.
    si_token: Option<u64>,
    /// Sorted `(pattern, count)` pairs — the multiset, canonicalized.
    entries: Box<[(u16, u32)]>,
}

impl PlanKey {
    /// Builds the canonical key for `patterns` under `cfg`.
    ///
    /// `si_token` must be `Some` with the static SI's
    /// [`crate::StaticSi::instance_token`] when the plan will be
    /// evaluated against a shared static table (its chains change the
    /// result), `None` for dynamic-mode plans.
    ///
    /// The multiset is sorted by an LSD radix sort (one 256-bucket
    /// counting pass per byte of the width), then run-length encoded and
    /// hashed in the same walk.
    ///
    /// # Panics
    ///
    /// Panics if a pattern exceeds `cfg.width`.
    pub fn new(cfg: &ScoreboardConfig, si_token: Option<u64>, patterns: &[u16]) -> Self {
        if let Some(max) = patterns.iter().copied().max() {
            assert!(
                (max as u32) < (1u32 << cfg.width),
                "pattern {max:#b} exceeds width {}",
                cfg.width
            );
        }
        let lanes = cfg.effective_lanes();
        let mut hash = fold(
            0,
            u64::from(cfg.width)
                | u64::from(cfg.max_distance) << 32
                | (cfg.balance as u64) << 40
                | u64::from(si_token.is_some()) << 48,
        );
        hash = fold(fold(hash, u64::from(lanes)), si_token.unwrap_or(0));
        let sorted = radix_sorted(patterns, cfg.width);
        let mut entries: Vec<(u16, u32)> =
            Vec::with_capacity(sorted.len().min(1 << cfg.width.min(16)));
        let mut rest = &sorted[..];
        while let Some(&p) = rest.first() {
            let run = rest.iter().take_while(|&&q| q == p).count();
            entries.push((p, run as u32));
            hash = fold(hash, u64::from(p) | (run as u64) << 16);
            rest = &rest[run..];
        }
        Self {
            hash: avalanche(hash),
            width: cfg.width,
            max_distance: cfg.max_distance,
            lanes,
            balance: cfg.balance,
            si_token,
            entries: entries.into_boxed_slice(),
        }
    }

    /// Total rows the key covers (zero rows included).
    pub fn rows(&self) -> usize {
        self.entries.iter().map(|&(_, c)| c as usize).sum()
    }
}

impl Hash for PlanKey {
    /// Writes only the carried hash: equal keys carry equal hashes, since
    /// it is a function of the fields equality compares.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// One step of the key hash: an invertible mix of `word` into `h`, so two
/// equally long sequences differing in one word never collide (the final
/// [`avalanche`] is invertible too).
fn fold(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Final mix (MurmurHash3's `fmix64`) so the low bits that route shards
/// depend on every input bit.
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// `patterns` in ascending order, by a stable LSD radix sort over the
/// bytes the width covers: one 256-bucket counting pass per byte (one at
/// T ≤ 8, two at T ≤ 16). Patterns must fit `width`.
fn radix_sorted(patterns: &[u16], width: u32) -> Vec<u16> {
    let mut sorted = patterns.to_vec();
    let mut spare = vec![0u16; patterns.len()];
    let bytes = width.min(16).div_ceil(8);
    for shift in (0..bytes).map(|byte| 8 * byte) {
        let digit = |p: u16| usize::from((p >> shift) as u8);
        let mut starts = [0usize; 256];
        for &p in &sorted {
            starts[digit(p)] += 1;
        }
        let mut next = 0;
        for start in &mut starts {
            (*start, next) = (next, next + *start);
        }
        for &p in &sorted {
            let slot = &mut starts[digit(p)];
            spare[*slot] = p;
            *slot += 1;
        }
        std::mem::swap(&mut sorted, &mut spare);
    }
    sorted
}

/// A memoized post-scoreboard plan — everything about a sub-tile that
/// depends only on its pattern multiset (never on row order).
// Values live exclusively behind `Arc<CachedPlan>` in the cache, so the
// variant size asymmetry never inflates a by-value container.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum CachedPlan {
    /// Dynamic mode: the tile's statistics plus the per-lane op streams
    /// (the functional evaluator of execute requests replays).
    Dynamic {
        /// ZR/TR/FR/PR statistics and cycle counts of the tile, shared
        /// so cache hits hand them out without deep-cloning the lane
        /// vectors.
        stats: Arc<TileStats>,
        /// The balanced forest linearized into per-lane op streams —
        /// built lazily via [`CachedPlan::dynamic_plan`], so
        /// simulation-only workloads (which never evaluate functionally)
        /// pay neither the linearization nor its resident memory.
        plan: OnceLock<ExecutionPlan>,
    },
    /// Static mode: the tile replay report under one shared SI table.
    Static {
        /// Op/miss accounting of the tile under the static SI.
        report: StaticTileReport,
    },
}

impl CachedPlan {
    /// Builds the dynamic-mode plan for `patterns` from scratch (the
    /// cache-miss path): statistics eagerly, op streams lazily.
    ///
    /// Pass `with_plan = true` from functional callers that are about to
    /// evaluate — the one Scoreboard build then serves both products.
    pub fn build_dynamic(cfg: &ScoreboardConfig, patterns: &[u16], with_plan: bool) -> Self {
        let sb = Scoreboard::build(*cfg, patterns.iter().copied());
        let plan = OnceLock::new();
        if with_plan {
            let _ = plan.set(ExecutionPlan::from_scoreboard(&sb));
        }
        CachedPlan::Dynamic { stats: Arc::new(sb.into_stats()), plan }
    }

    /// The dynamic entry's op streams, building them on first use. A
    /// rebuild from any permutation of the entry's multiset yields the
    /// identical plan (the Scoreboard is multiset-determined), so
    /// callers pass whatever tile produced the cache hit.
    ///
    /// # Panics
    ///
    /// Panics on a `Static` entry.
    pub fn dynamic_plan(&self, cfg: &ScoreboardConfig, patterns: &[u16]) -> &ExecutionPlan {
        match self {
            CachedPlan::Dynamic { plan, .. } => plan.get_or_init(|| {
                ExecutionPlan::from_scoreboard(&Scoreboard::build(*cfg, patterns.iter().copied()))
            }),
            CachedPlan::Static { .. } => panic!("static entries hold no dynamic plan"),
        }
    }
}

/// Hit/miss/eviction counters of a [`PlanCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups that found a memoized plan.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries inserted (fresh keys only; re-inserting a cached key
    /// refreshes recency without counting again).
    pub insertions: u64,
}

impl PlanCacheStats {
    /// Total lookups (hits plus misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit fraction over all lookups (0.0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Counter deltas since an earlier snapshot — e.g. the warm-replay
    /// hit rate is `after.delta(&before).hit_rate()`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `before` is not an earlier snapshot of
    /// the same monotonically-growing counters.
    pub fn delta(&self, before: &PlanCacheStats) -> PlanCacheStats {
        debug_assert!(
            self.hits >= before.hits
                && self.misses >= before.misses
                && self.evictions >= before.evictions
                && self.insertions >= before.insertions,
            "delta baseline must be an earlier snapshot"
        );
        PlanCacheStats {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            insertions: self.insertions - before.insertions,
        }
    }

    /// Folds another counter snapshot into this one (used to aggregate
    /// per-shard counters into a cache-wide total).
    pub fn merge(&mut self, other: &PlanCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.insertions += other.insertions;
    }
}

impl fmt::Display for PlanCacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} lookups ({:.1}% hit rate), {} insertions, {} evictions",
            self.hits,
            self.lookups(),
            self.hit_rate() * 100.0,
            self.insertions,
            self.evictions
        )
    }
}

/// One occupied CLOCK slot.
#[derive(Debug)]
struct Slot {
    key: PlanKey,
    value: Arc<CachedPlan>,
    /// CLOCK referenced bit: set by [`PlanCache::get`] under a shared
    /// borrow (relaxed — it is a recency heuristic, not a happens-before
    /// edge), cleared by the eviction sweep.
    referenced: AtomicBool,
}

/// A bounded memo table from canonical pattern multisets to their
/// post-scoreboard plans, with CLOCK (second-chance) eviction.
///
/// CLOCK keeps the hit path **touch-free**: [`PlanCache::get`] takes
/// `&self` and mutates nothing but relaxed atomics (the hit counter, and
/// the slot's referenced bit when it is clear), so a shared wrapper can
/// serve hits under a read lock. Eviction sweeps a clock hand over the slot slab:
/// a referenced slot gets its bit cleared and a second chance; the first
/// unreferenced slot is the victim (the sweep terminates within two
/// laps). An entry that was hit since the last sweep therefore survives
/// an entry that was not — the LRU-like property the warm-replay
/// workloads rely on — without hits ever rewriting list links.
///
/// Single-threaded building block; [`SharedPlanCache`] wraps one
/// `PlanCache` per shard for the tile-execution runtime's workers.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    map: HashMap<PlanKey, usize>,
    slots: Vec<Slot>,
    /// Next slot the eviction sweep inspects.
    hand: usize,
    /// Hit/miss counters are atomic so `get(&self)` can count under a
    /// shared borrow; insertion/eviction counters only move under
    /// `&mut self` and stay plain.
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: u64,
    insertions: u64,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-capacity cache is "cache
    /// off", which callers express by not constructing one.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "plan cache capacity must be non-zero");
        Self {
            capacity,
            map: HashMap::new(),
            slots: Vec::new(),
            hand: 0,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: 0,
            insertions: 0,
        }
    }

    /// Maximum entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions,
            insertions: self.insertions,
        }
    }

    /// Looks up `key`, setting the entry's referenced bit on a hit.
    ///
    /// Takes `&self`: the hit path performs no structural mutation, so
    /// concurrent readers (behind a shard read lock) proceed in parallel.
    /// The referenced bit is stored only when it is clear, so repeated
    /// hits on a hot entry read its slot without writing it.
    pub fn get(&self, key: &PlanKey) -> Option<Arc<CachedPlan>> {
        match self.map.get(key) {
            Some(&slot) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                let slot = &self.slots[slot];
                if !slot.referenced.load(Ordering::Relaxed) {
                    slot.referenced.store(true, Ordering::Relaxed);
                }
                Some(Arc::clone(&slot.value))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or refreshes) `key → value`, evicting via the CLOCK
    /// sweep when full. The map is probed once for `key`, and the key is
    /// cloned once, into its slot, only when it is fresh.
    ///
    /// Fresh entries start with the referenced bit **clear**: an entry
    /// earns its second chance by being hit, so a burst of one-shot keys
    /// cycles through without displacing the warm working set.
    pub fn insert(&mut self, key: PlanKey, value: Arc<CachedPlan>) {
        let vacant = match self.map.entry(key) {
            Entry::Occupied(cached) => {
                // Concurrent workers can race a miss: both compute, both
                // insert. Results are identical by construction; keep the
                // newer value and refresh recency.
                let s = &mut self.slots[*cached.get()];
                s.value = value;
                *s.referenced.get_mut() = true;
                return;
            }
            Entry::Vacant(vacant) => vacant,
        };
        let slot = Slot { key: vacant.key().clone(), value, referenced: AtomicBool::new(false) };
        self.insertions += 1;
        if self.slots.len() < self.capacity {
            vacant.insert(self.slots.len());
            self.slots.push(slot);
            return;
        }
        // CLOCK sweep: clear-and-skip referenced slots; the first
        // unreferenced slot is the victim. Terminates within two laps —
        // a first lap over all-referenced slots clears every bit.
        let victim = loop {
            let hand = self.hand;
            self.hand = (self.hand + 1) % self.capacity;
            if !std::mem::take(self.slots[hand].referenced.get_mut()) {
                break hand;
            }
        };
        vacant.insert(victim);
        let evicted = std::mem::replace(&mut self.slots[victim], slot);
        self.map.remove(&evicted.key);
        self.evictions += 1;
    }
}

/// Thread-safe, **sharded** [`PlanCache`] the tile-execution runtime's
/// workers (and `Session::run_batch` requests) share.
///
/// Keys are routed to a power-of-two number of shards by the hash the
/// canonical [`PlanKey`] carries (so every permutation of a multiset
/// routes identically, and routing hashes nothing). Each shard is an
/// independent `RwLock<PlanCache>`:
///
/// * a **hit** takes one shard *read* lock and sets the CLOCK referenced
///   bit if it is clear — concurrent hits, even on the same shard, never
///   serialize against each other;
/// * a **miss** still builds the plan **outside** any lock, then takes
///   one shard *write* lock to insert; two workers may race the same
///   miss and insert identical values (harmless by construction);
/// * counters, lengths, and capacity are folded across shards, so
///   [`SharedPlanCache::stats`] reports the same aggregate totals a
///   single-table cache would.
///
/// The per-shard capacities sum to exactly the requested capacity; the
/// shard count is clamped so no shard is ever empty.
#[derive(Debug)]
pub struct SharedPlanCache {
    shards: Box<[RwLock<PlanCache>]>,
}

impl SharedPlanCache {
    /// Minimum per-shard capacity the **auto** shard count preserves.
    /// Below this, CLOCK degenerates toward a direct-mapped cache: a
    /// skewed key distribution evicts from a full shard while total
    /// occupancy is far below the requested capacity. Explicit shard
    /// counts ([`Self::with_shards`]) are honored past this floor.
    pub const MIN_AUTO_SHARD_CAPACITY: usize = 8;

    /// Creates a shared cache holding at most `capacity` plans, sharded
    /// [`Self::default_shard_count`] ways — halved as needed so each
    /// shard keeps at least [`Self::MIN_AUTO_SHARD_CAPACITY`] entries
    /// (a small cache degenerates to a single shard, i.e. the old
    /// single-table behavior, rather than to per-shard slots of 1).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        let mut count = Self::default_shard_count();
        while count > 1 && count * Self::MIN_AUTO_SHARD_CAPACITY > capacity {
            count /= 2;
        }
        Self::with_shards(capacity, count)
    }

    /// Creates a shared cache holding at most `capacity` plans across
    /// `shards` shards. The shard count is rounded up to a power of two
    /// and clamped to at most `capacity` (each shard holds ≥ 1 entry);
    /// per-shard capacities sum to exactly `capacity`. The explicit
    /// count is otherwise honored — callers pairing a small capacity
    /// with many shards get shards of very few entries, which evict
    /// under skewed keys well below total capacity; prefer [`Self::new`]
    /// (which keeps per-shard capacity ≥
    /// [`Self::MIN_AUTO_SHARD_CAPACITY`]) unless the count is the point.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "plan cache capacity must be non-zero");
        let mut count = shards.max(1).next_power_of_two();
        while count > capacity {
            count /= 2;
        }
        let base = capacity / count;
        let extra = capacity % count;
        let shards = (0..count)
            .map(|i| RwLock::new(PlanCache::new(base + usize::from(i < extra))))
            .collect();
        Self { shards }
    }

    /// Default shard count: ~4× the host cores, rounded up to a power of
    /// two — enough shards that workers rarely collide even under a
    /// skewed key distribution. Capacity-independent; [`Self::new`]
    /// additionally halves it until per-shard capacity reaches
    /// [`Self::MIN_AUTO_SHARD_CAPACITY`].
    pub fn default_shard_count() -> usize {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        (4 * cores).next_power_of_two()
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `key` routes to: the low bits of the hash the
    /// key carries — deterministic per key, and identical for every
    /// permutation of a multiset (the canonical [`PlanKey`] is hashed,
    /// not the raw pattern slice).
    pub fn shard_for(&self, key: &PlanKey) -> usize {
        (key.hash as usize) & (self.shards.len() - 1)
    }

    // A worker that panicked mid-insert cannot leave a shard in a state
    // that corrupts *values* (they are immutable Arcs), so recover from
    // poisoning instead of failing every later simulation.
    fn read_shard(&self, i: usize) -> RwLockReadGuard<'_, PlanCache> {
        self.shards[i].read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_shard(&self, i: usize) -> RwLockWriteGuard<'_, PlanCache> {
        self.shards[i].write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `key` under its shard's read lock (see
    /// [`PlanCache::get`]).
    pub fn get(&self, key: &PlanKey) -> Option<Arc<CachedPlan>> {
        self.read_shard(self.shard_for(key)).get(key)
    }

    /// Inserts `key → value` under its shard's write lock (see
    /// [`PlanCache::insert`]).
    pub fn insert(&self, key: PlanKey, value: Arc<CachedPlan>) {
        self.write_shard(self.shard_for(&key)).insert(key, value);
    }

    /// Counter snapshot folded across shards. Each shard's counters are
    /// read consistently; the fold itself is not one atomic snapshot
    /// across shards (quiescent reads — after workers joined — are
    /// exact, which is how every gate and test uses it).
    pub fn stats(&self) -> PlanCacheStats {
        let mut total = PlanCacheStats::default();
        for i in 0..self.shards.len() {
            total.merge(&self.read_shard(i).stats());
        }
        total
    }

    /// Current entries across all shards.
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|i| self.read_shard(i).len()).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        (0..self.shards.len()).all(|i| self.read_shard(i).is_empty())
    }

    /// Maximum entries across all shards (exactly the constructor's
    /// `capacity`).
    pub fn capacity(&self) -> usize {
        (0..self.shards.len()).map(|i| self.read_shard(i).capacity()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(patterns: &[u16]) -> PlanKey {
        PlanKey::new(&ScoreboardConfig::with_width(4), None, patterns)
    }

    fn plan(patterns: &[u16]) -> Arc<CachedPlan> {
        Arc::new(CachedPlan::build_dynamic(&ScoreboardConfig::with_width(4), patterns, false))
    }

    #[test]
    fn shared_cache_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedPlanCache>();
        assert_send_sync::<PlanKey>();
        assert_send_sync::<CachedPlan>();
    }

    #[test]
    fn key_is_permutation_invariant() {
        assert_eq!(key(&[14, 2, 5, 1, 15, 7, 2]), key(&[2, 2, 1, 5, 7, 14, 15]));
        assert_eq!(key(&[0, 3, 0]), key(&[3, 0, 0]));
        assert_eq!(key(&[]), key(&[]));
    }

    #[test]
    fn key_is_count_sensitive() {
        assert_ne!(key(&[2, 5]), key(&[2, 2, 5]));
        assert_ne!(key(&[2]), key(&[2, 0]), "zero rows count");
        assert_ne!(key(&[]), key(&[0]));
    }

    #[test]
    fn key_is_config_sensitive() {
        for width in [1u32, 4, 8, 9, 16] {
            let base = ScoreboardConfig::with_width(width);
            let patterns: Vec<u16> = (0..40u16).map(|i| i & ((1u32 << width) - 1) as u16).collect();
            let k = PlanKey::new(&base, None, &patterns);
            let variants = [
                PlanKey::new(&ScoreboardConfig { width: width + 1, ..base }, None, &patterns),
                PlanKey::new(&ScoreboardConfig { max_distance: 2, ..base }, None, &patterns),
                PlanKey::new(&ScoreboardConfig { lanes: width + 1, ..base }, None, &patterns),
                PlanKey::new(
                    &ScoreboardConfig { balance: BalancePolicy::FirstCandidate, ..base },
                    None,
                    &patterns,
                ),
                PlanKey::new(&base, Some(0), &patterns),
                PlanKey::new(&base, Some(1), &patterns),
            ];
            for (i, v) in variants.iter().enumerate() {
                assert_eq!(v.entries, k.entries, "width {width}: variant {i} shares the multiset");
                assert_ne!(*v, k, "width {width}: variant {i} must not equal the base key");
                for w in &variants[i + 1..] {
                    assert_ne!(v, w, "width {width}: variants must differ pairwise");
                }
            }
        }
    }

    #[test]
    fn key_rows_counts_duplicates_and_zeros() {
        assert_eq!(key(&[0, 1, 1, 9]).rows(), 4);
        assert_eq!(key(&[]).rows(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds width")]
    fn key_rejects_oversized_patterns() {
        let _ = key(&[16]);
    }

    /// The key builder before the radix sort: a comparison sort, then a
    /// run-length encoding into a growing vector.
    fn sorted_rle(patterns: &[u16]) -> Vec<(u16, u32)> {
        let mut sorted = patterns.to_vec();
        sorted.sort_unstable();
        let mut entries: Vec<(u16, u32)> = Vec::new();
        for p in sorted {
            match entries.last_mut() {
                Some((last, count)) if *last == p => *count += 1,
                _ => entries.push((p, 1)),
            }
        }
        entries
    }

    /// Seeded multisets at `width`: the edge shapes plus random ones.
    fn seeded_multisets(width: u32, seed: u64) -> Vec<Vec<u16>> {
        let mask = ((1u32 << width) - 1) as u16;
        let mut state = seed;
        let mut next = move || {
            state = ta_models::splitmix64(state);
            state
        };
        let identical = next() as u16 & mask;
        let mut sets = vec![
            Vec::new(),
            vec![0; 1 + (next() % 300) as usize],
            vec![identical; 1 + (next() % 300) as usize],
            vec![mask; 3],
            (0..=mask.min(4095)).rev().collect(),
        ];
        for _ in 0..4 {
            let len = (next() % 700) as usize;
            // A narrow value range forces long runs; a full one, short.
            let range = if next() % 2 == 0 { mask } else { mask.min(7) };
            sets.push((0..len).map(|_| next() as u16 & range).collect());
        }
        sets
    }

    /// Seeded Fisher-Yates, so a failing permutation is reproducible.
    fn shuffled(patterns: &[u16], seed: u64) -> Vec<u16> {
        let mut out = patterns.to_vec();
        let mut state = seed;
        for i in (1..out.len()).rev() {
            state = ta_models::splitmix64(state);
            out.swap(i, (state % (i as u64 + 1)) as usize);
        }
        out
    }

    #[test]
    fn radix_key_entries_match_the_sorted_run_length_encoding() {
        for width in 1..=16 {
            let cfg = ScoreboardConfig::with_width(width);
            for seed in 0..4 {
                for patterns in seeded_multisets(width, (u64::from(width) << 8) | seed) {
                    let key = PlanKey::new(&cfg, None, &patterns);
                    assert_eq!(
                        &key.entries[..],
                        &sorted_rle(&patterns)[..],
                        "width {width}, seed {seed}, multiset {patterns:?}"
                    );
                    assert_eq!(key.rows(), patterns.len());
                }
            }
        }
        // The second pass carries the high byte: 0xFFFF sorts last.
        let wide = [0xFFFFu16, 0x00FF, 0xFF00, 0, 0xFFFF, 0x0100];
        assert_eq!(
            &PlanKey::new(&ScoreboardConfig::with_width(16), None, &wide).entries[..],
            &[(0, 1), (0x00FF, 1), (0x0100, 1), (0xFF00, 1), (0xFFFF, 2)]
        );
    }

    #[test]
    fn equal_keys_hash_and_route_alike_under_row_permutations() {
        use std::hash::BuildHasher;
        let state = std::collections::hash_map::RandomState::new();
        let caches: Vec<SharedPlanCache> =
            [1, 2, 8, 64].iter().map(|&n| SharedPlanCache::with_shards(1024, n)).collect();
        for width in 1..=16 {
            let cfg = ScoreboardConfig::with_width(width);
            for patterns in seeded_multisets(width, u64::from(width)) {
                let original = PlanKey::new(&cfg, Some(9), &patterns);
                let permuted = PlanKey::new(&cfg, Some(9), &shuffled(&patterns, width.into()));
                assert_eq!(original, permuted, "width {width}, multiset {patterns:?}");
                assert_eq!(state.hash_one(&original), state.hash_one(&permuted));
                for cache in &caches {
                    assert_eq!(cache.shard_for(&original), cache.shard_for(&permuted));
                }
            }
        }
    }

    #[test]
    fn cache_hits_after_insert() {
        let mut cache = PlanCache::new(4);
        let k = key(&[1, 2, 3]);
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), plan(&[1, 2, 3]));
        assert!(cache.get(&k).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.evictions), (1, 1, 1, 0));
    }

    #[test]
    fn clock_grants_hit_entries_a_second_chance() {
        let mut cache = PlanCache::new(2);
        let (a, b, c) = (key(&[1]), key(&[2]), key(&[3]));
        cache.insert(a.clone(), plan(&[1]));
        cache.insert(b.clone(), plan(&[2]));
        // Touch `a` so its referenced bit protects it from the sweep;
        // `b` (never hit) becomes the victim.
        assert!(cache.get(&a).is_some());
        cache.insert(c.clone(), plan(&[3]));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&a).is_some(), "referenced entry survives the sweep");
        assert!(cache.get(&b).is_none(), "unreferenced entry evicted");
        assert!(cache.get(&c).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn clock_sweep_terminates_when_everything_is_referenced() {
        let mut cache = PlanCache::new(2);
        let (a, b, c) = (key(&[1]), key(&[2]), key(&[3]));
        cache.insert(a.clone(), plan(&[1]));
        cache.insert(b.clone(), plan(&[2]));
        assert!(cache.get(&a).is_some());
        assert!(cache.get(&b).is_some());
        // Both referenced: the first lap clears both bits, the second
        // evicts the slot the hand started at.
        cache.insert(c.clone(), plan(&[3]));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(&c).is_some(), "new entry must be present");
    }

    #[test]
    fn eviction_cycle_reuses_slots() {
        let mut cache = PlanCache::new(2);
        for i in 0..10u16 {
            cache.insert(key(&[i % 16]), plan(&[i % 16]));
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 8);
        // The slab never grows past capacity.
        assert!(cache.slots.len() <= 2);
    }

    #[test]
    fn reinsert_refreshes_without_double_count() {
        let mut cache = PlanCache::new(2);
        let k = key(&[5, 5]);
        cache.insert(k.clone(), plan(&[5, 5]));
        cache.insert(k.clone(), plan(&[5, 5]));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().insertions, 1);
    }

    #[test]
    fn capacity_one_cache_works() {
        let mut cache = PlanCache::new(1);
        let (a, b) = (key(&[1]), key(&[2]));
        cache.insert(a.clone(), plan(&[1]));
        cache.insert(b.clone(), plan(&[2]));
        assert!(cache.get(&a).is_none());
        assert!(cache.get(&b).is_some());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = PlanCache::new(0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_shared_rejected() {
        let _ = SharedPlanCache::new(0);
    }

    #[test]
    fn hit_rate_math() {
        let mut s = PlanCacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.lookups(), 0);
        s.hits = 3;
        s.misses = 1;
        assert_eq!(s.lookups(), 4);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn stats_display_is_human_readable() {
        let s = PlanCacheStats { hits: 3, misses: 1, evictions: 0, insertions: 1 };
        assert_eq!(s.to_string(), "3 hits / 4 lookups (75.0% hit rate), 1 insertions, 0 evictions");
        assert_eq!(
            PlanCacheStats::default().to_string(),
            "0 hits / 0 lookups (0.0% hit rate), 0 insertions, 0 evictions"
        );
    }

    #[test]
    fn delta_isolates_a_window() {
        let before = PlanCacheStats { hits: 10, misses: 5, evictions: 1, insertions: 5 };
        let after = PlanCacheStats { hits: 18, misses: 5, evictions: 1, insertions: 5 };
        let d = after.delta(&before);
        assert_eq!(d, PlanCacheStats { hits: 8, misses: 0, evictions: 0, insertions: 0 });
        assert_eq!(d.hit_rate(), 1.0);
        assert_eq!(before.delta(&before).hit_rate(), 0.0, "empty window");
    }

    #[test]
    fn stats_merge_folds_counters() {
        let mut total = PlanCacheStats { hits: 1, misses: 2, evictions: 3, insertions: 4 };
        total.merge(&PlanCacheStats { hits: 10, misses: 20, evictions: 30, insertions: 40 });
        assert_eq!(total, PlanCacheStats { hits: 11, misses: 22, evictions: 33, insertions: 44 });
    }

    #[test]
    fn cached_dynamic_plan_matches_fresh_build_under_permutation() {
        // The memoization soundness argument in one test: a permuted
        // multiset must yield the same stats and plan evaluation —
        // whether the op streams were built eagerly or lazily.
        let cfg = ScoreboardConfig::with_width(4);
        let original = [14u16, 2, 5, 1, 15, 7, 2, 0];
        let permuted = [0u16, 15, 2, 7, 1, 5, 2, 14];
        assert_eq!(
            PlanKey::new(&cfg, None, &original),
            PlanKey::new(&cfg, None, &permuted),
            "same multiset must share a key"
        );
        let a = CachedPlan::build_dynamic(&cfg, &original, true);
        let b = CachedPlan::build_dynamic(&cfg, &permuted, false);
        let (CachedPlan::Dynamic { stats: sa, .. }, CachedPlan::Dynamic { stats: sb, .. }) =
            (&a, &b)
        else {
            panic!("dynamic plans expected");
        };
        assert_eq!(sa, sb, "stats must be permutation-invariant");
        let inputs: Vec<Vec<i64>> = (0..4).map(|j| vec![j as i64 * 3 - 4]).collect();
        assert_eq!(
            a.dynamic_plan(&cfg, &original).evaluate(&inputs),
            b.dynamic_plan(&cfg, &permuted).evaluate(&inputs),
            "eager and lazily-rebuilt plans must evaluate identically"
        );
    }

    #[test]
    fn shard_count_rounds_to_power_of_two_and_clamps() {
        assert_eq!(SharedPlanCache::with_shards(100, 3).shard_count(), 4);
        assert_eq!(SharedPlanCache::with_shards(100, 8).shard_count(), 8);
        // Clamped: never more shards than capacity.
        assert_eq!(SharedPlanCache::with_shards(2, 64).shard_count(), 2);
        assert_eq!(SharedPlanCache::with_shards(1, 64).shard_count(), 1);
        assert_eq!(SharedPlanCache::with_shards(3, 64).shard_count(), 2);
        // 0 is treated as 1.
        assert_eq!(SharedPlanCache::with_shards(8, 0).shard_count(), 1);
        assert!(SharedPlanCache::new(4096).shard_count().is_power_of_two());
    }

    #[test]
    fn sharded_capacity_sums_exactly() {
        for (cap, shards) in [(4096usize, 16usize), (100, 8), (7, 4), (1, 1), (13, 64)] {
            let cache = SharedPlanCache::with_shards(cap, shards);
            assert_eq!(cache.capacity(), cap, "capacity must be exact for {cap}/{shards}");
            assert!(cache.is_empty());
            assert_eq!(cache.len(), 0);
        }
    }

    #[test]
    fn default_shard_count_is_power_of_two() {
        let n = SharedPlanCache::default_shard_count();
        assert!(n.is_power_of_two());
        assert!(n >= 4, "at least 4 shards even on one core, got {n}");
    }

    #[test]
    fn auto_sharding_preserves_min_per_shard_capacity() {
        // `new` (the automatic shard-count path) must never hand out
        // shards smaller than MIN_AUTO_SHARD_CAPACITY on any host shape:
        // an 8-entry cache gets one shard (the old single-table
        // behavior), never 8 direct-mapped slots.
        for cap in [1usize, 2, 7, 8, 9, 31, 32, 64, 256, 4096] {
            let cache = SharedPlanCache::new(cap);
            let count = cache.shard_count();
            assert!(count.is_power_of_two());
            assert!(
                count == 1 || cap / count >= SharedPlanCache::MIN_AUTO_SHARD_CAPACITY,
                "capacity {cap} auto-sharded {count} ways leaves {}-entry shards",
                cap / count
            );
        }
        assert_eq!(SharedPlanCache::new(8).shard_count(), 1);
        assert_eq!(SharedPlanCache::new(1).shard_count(), 1);
    }

    #[test]
    fn shard_routing_spreads_distinct_keys() {
        // Not a distribution-quality test — just that routing actually
        // uses more than one shard for a varied key population.
        let cache = SharedPlanCache::with_shards(1024, 8);
        let used: std::collections::HashSet<usize> =
            (0..64u16).map(|i| cache.shard_for(&key(&[i % 16, (i / 16) % 16]))).collect();
        assert!(used.len() > 1, "64 distinct keys all routed to one shard");
        for &s in &used {
            assert!(s < cache.shard_count());
        }
    }

    #[test]
    fn shared_cache_concurrent_access() {
        let cache = std::sync::Arc::new(SharedPlanCache::new(64));
        std::thread::scope(|scope| {
            for t in 0..4u16 {
                let cache = std::sync::Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..32u16 {
                        let p = [(i % 8) | (t & 1) << 3];
                        let k = key(&p);
                        if cache.get(&k).is_none() {
                            cache.insert(k, plan(&p));
                        }
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.lookups(), 4 * 32);
        assert!(s.hits > 0, "repeat lookups must hit: {s:?}");
        assert!(cache.len() <= 16);
    }

    #[test]
    fn spawn_storm_conserves_counters_and_loses_no_entry() {
        // N threads hammer a small key set with interleaved get/insert.
        // Afterwards the aggregate counters must balance exactly:
        // every lookup is a hit or a miss, and the entry count is the
        // insertions that were not later evicted.
        const THREADS: u16 = 8;
        const ROUNDS: u16 = 200;
        let keys: Vec<Vec<u16>> = (0..6u16).map(|i| vec![i, i, (i + 1) % 16]).collect();
        let cache = std::sync::Arc::new(SharedPlanCache::with_shards(64, 8));
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let cache = std::sync::Arc::clone(&cache);
                let keys = &keys;
                scope.spawn(move || {
                    for i in 0..ROUNDS {
                        let p = &keys[((i + t) % keys.len() as u16) as usize];
                        let k = key(p);
                        if cache.get(&k).is_none() {
                            cache.insert(k, plan(p));
                        }
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.lookups(), u64::from(THREADS) * u64::from(ROUNDS), "lookup conservation");
        assert_eq!(s.insertions - s.evictions, cache.len() as u64, "entry conservation");
        assert_eq!(s.evictions, 0, "6 keys fit in 64 entries");
        // No lost entries: every key of the working set is resident.
        for p in &keys {
            assert!(cache.get(&key(p)).is_some(), "key {p:?} lost");
        }
    }

    #[test]
    fn spawn_storm_under_eviction_pressure_stays_consistent() {
        // Same storm, but the key population exceeds capacity so every
        // shard evicts continuously; conservation must still hold.
        const THREADS: u16 = 8;
        const ROUNDS: u16 = 150;
        let cache = std::sync::Arc::new(SharedPlanCache::with_shards(8, 4));
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let cache = std::sync::Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..ROUNDS {
                        let p = [(i.wrapping_mul(7) + t) % 16, t % 16];
                        let k = key(&p);
                        if cache.get(&k).is_none() {
                            cache.insert(k, plan(&p));
                        }
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.lookups(), u64::from(THREADS) * u64::from(ROUNDS));
        assert_eq!(s.insertions - s.evictions, cache.len() as u64);
        assert!(s.evictions > 0, "population of ~16×8 keys must overflow 8 entries");
        assert!(cache.len() <= cache.capacity());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Shard routing is permutation-invariant: any shuffle of a
        /// pattern multiset canonicalizes to the same key and therefore
        /// routes to the same shard.
        #[test]
        fn shard_routing_is_stable_under_permutation(
            mut patterns in proptest::collection::vec(0u16..16, 0..64),
            seed in 0u64..1024,
            shards in 1usize..64,
        ) {
            let cfg = ScoreboardConfig::with_width(4);
            let cache = SharedPlanCache::with_shards(256, shards);
            let original = PlanKey::new(&cfg, None, &patterns);
            let home = cache.shard_for(&original);
            // Seeded Fisher-Yates so the permutation is reproducible.
            let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            for i in (1..patterns.len()).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = ((s >> 33) as usize) % (i + 1);
                patterns.swap(i, j);
            }
            let permuted = PlanKey::new(&cfg, None, &patterns);
            prop_assert_eq!(&original, &permuted, "canonical keys must match");
            prop_assert_eq!(home, cache.shard_for(&permuted), "shard routing must match");
            prop_assert!(home < cache.shard_count());
        }
    }
}
