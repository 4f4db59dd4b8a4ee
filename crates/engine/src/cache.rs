//! The engine's artifact cache: a two-level **artifact graph**.
//!
//! Solving a model at several horizons/tolerances/measures keeps recomputing
//! the same expensive intermediates — and a sensitivity sweep re-solving one
//! model over a grid of rate parameters recomputes intermediates that the
//! rate grid never even changes. The cache therefore keys artifacts at two
//! levels (see [`crate::fingerprint::ModelFps`]): a **structural**
//! fingerprint (sparsity pattern, rate/reward/initial support) and the full
//! **value** fingerprint (the actual numbers). Pure-topology artifacts key
//! structurally and are shared by every rate variant; value-dependent
//! artifacts key by value but can be **derived** from a structural sibling
//! far cheaper than from scratch:
//!
//! * **structure facts** — Tarjan SCC analysis plus the maximum exit rate
//!   (what `Auto` dispatch consults per horizon, and what the RR/RRL
//!   constructors consume through `with_uniformized_facts`). Keyed by the
//!   *structural* fingerprint: the analysis is pure topology, so RR/RRL on
//!   a rate variant is a cache hit — a *derived* hit
//!   ([`CacheStats::derived_hits`]) that re-scans only the diagonal for the
//!   new maximum exit rate,
//! * **uniformizations** — `Pᵀ = (I + Q/Λ)ᵀ`, the one matrix every solver
//!   steps, keyed by the generator's value fingerprint and the safety
//!   factor `θ` (shared by SR, RSD, adaptive, RR and RRL through the
//!   solvers' `with_uniformized` constructors). A miss whose generator
//!   *structure* has a live sibling in the pool rebuilds by
//!   [`Uniformized::rebind_values`] — the sibling donates its `Pᵀ` pattern
//!   and the lineage's slot map, and only the numbers are refilled
//!   ([`CacheStats::rebinds`]); the rebuilt artifact shares the sibling's
//!   pattern, and with it the chunk plans already computed over it, and
//!   the pool charges that pattern once, however many variants hold it,
//! * **regenerative parameters** — the killed-chain sequences
//!   (`a(k)`, …) consumed by RR *and* RRL, keyed by
//!   `(regenerative state, ε, θ)`. The two methods construct identical
//!   sequences for identical keys (only the solve stage differs — inner SR
//!   vs Laplace inversion), so they share pool entries: an RR request warms
//!   the cache for a later RRL request and vice versa. The truncation bound
//!   is monotone in `t`, so parameters computed at some horizon serve every
//!   smaller one by prefix truncation ([`RegenParams::truncated`]); the
//!   cache transparently *widens* the stored entry when a larger horizon
//!   arrives.
//!
//! This generalizes the one-off chain cache of `regenr-bench`'s `Workload`
//! (which memoizes only built RAID chains, for exactly four keys).
//!
//! ## Lifecycle
//!
//! By default every pool is unbounded — right for a one-shot sweep, wrong
//! for a long-running service that sees an open-ended stream of models. A
//! [`CacheConfig`] (via [`ArtifactCache::with_config`] or
//! `Engine::with_cache_config`) puts per-pool caps on entry count and
//! approximate byte footprint; on overflow, eviction is **cost-aware with
//! GreedyDual aging** (Cao & Irani, USENIX 1997). Each pool keeps an
//! inflation value `L`; an entry's weight is `L` at its last use plus
//! `rebuild cost × (1 + dependents)`, the entry with the minimum `(weight,
//! LRU stamp)` is evicted, and evicting it raises `L` to its weight. A
//! uniformization that regenerative parameters hang off is weighted by
//! what losing it would cost, not just its bytes, and evicting it anyway
//! counts the dependents as [`CacheStats::orphaned`]. A small entry that
//! keeps being used is no longer the first to go whenever a larger one
//! arrives, and a large entry that is not used again ages out. Among equal
//! weights the policy degrades to exact LRU.
//! Eviction only drops the cache's reference
//! — in-flight solvers holding an `Arc` to an evicted artifact keep it
//! alive until they finish. Per-pool counters ([`PoolStats`]: hits, misses,
//! evictions, plus the live entry/byte/rebuild-cost gauges) are embedded in
//! sweep reports.
//!
//! ## Concurrency
//!
//! Each pool is a mutex-guarded LRU map whose values are per-key slots:
//! a first-time build happens exactly once even when parallel sweep jobs
//! race on the same key (racers block on the slot, not the whole pool, and
//! count as hits). Float key components are bit-normalized so `-0.0`/`0.0`
//! share an entry and NaNs cannot create unreachable ones. All locks
//! tolerate poisoning: a panicking solver job must not take the cache down
//! with it.

use crate::fingerprint::ModelFps;
use regenr_core::{ParamSource, RegenOptions, RegenParams};
use regenr_ctmc::{analyze, Ctmc, CtmcError, Uniformized};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Capacity limits for an [`ArtifactCache`], applied to each pool
/// independently. The default is unbounded (a pure memo).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum live entries per pool (`None` = unbounded). On overflow the
    /// entry with the lowest eviction weight goes (see the module docs).
    pub max_entries: Option<usize>,
    /// Maximum approximate bytes per pool (`None` = unbounded). Accounting
    /// uses the artifacts' `approx_bytes` estimates, not allocator truth; a
    /// part several entries share (a `Pᵀ` pattern and the rebind map of
    /// its rate variants) is charged once.
    pub max_bytes: Option<usize>,
}

impl CacheConfig {
    /// No limits (the default).
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Caps every pool's entry count.
    pub fn with_max_entries(max_entries: usize) -> Self {
        CacheConfig {
            max_entries: Some(max_entries),
            max_bytes: None,
        }
    }
}

/// The artifact cache as a regenerative solver's [`ParamSource`]: the
/// parameters of the model fingerprinted by `fps` come from (and widen) the
/// cache through [`ArtifactCache::regen_params_linked`]; `hit` records
/// whether the last lookup was served from it.
pub(crate) struct CachedParams<'c> {
    pub(crate) cache: &'c ArtifactCache,
    pub(crate) fps: ModelFps,
    pub(crate) hit: bool,
}

impl ParamSource for CachedParams<'_> {
    fn params(
        &mut self,
        regen: &RegenOptions,
        r: usize,
        t: f64,
        build: &mut dyn FnMut(f64) -> Result<RegenParams, CtmcError>,
    ) -> Result<Arc<RegenParams>, CtmcError> {
        let (params, hit) =
            self.cache
                .regen_params_linked(self.fps.full, self.fps.unif, regen, r, t, build)?;
        self.hit = hit;
        Ok(params)
    }
}

/// Cached structural facts about one chain.
#[derive(Clone, Debug)]
pub struct ChainFacts {
    /// The full fingerprint ([`ModelFps::full`]) of the chain the facts
    /// were computed for.
    pub fingerprint: u64,
    /// State count.
    pub n_states: usize,
    /// Absorbing state indices (ascending).
    pub absorbing: Vec<usize>,
    /// Whether the chain is irreducible in the paper's sense (`A = 0`,
    /// single SCC).
    pub irreducible: bool,
    /// Maximum exit rate `max_i |q_ii|` — `Λ` at `θ = 0`.
    pub max_rate: f64,
}

impl ChainFacts {
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.absorbing.len() * std::mem::size_of::<usize>()
    }
}

/// Counters and gauges for one artifact pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served from the pool.
    pub hits: u64,
    /// Requests that had to build the artifact.
    pub misses: u64,
    /// Entries dropped by the capacity limits.
    pub evictions: u64,
    /// Live entries right now.
    pub entries: usize,
    /// Approximate live bytes right now.
    pub bytes: usize,
    /// Approximate total rebuild cost of the live entries, in the cache's
    /// work units (roughly "array elements touched to rebuild from
    /// scratch"). This is the quantity cost-aware eviction weighs (scaled
    /// by each entry's dependent count) — surfaced so the eviction policy
    /// is observable, not magic.
    pub cost: u64,
}

/// A snapshot of all cache counters, embedded in sweep reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Structure-analysis pool.
    pub structure: PoolStats,
    /// Uniformized-chain pool.
    pub uniformized: PoolStats,
    /// Regenerative-parameter pool.
    pub regen_params: PoolStats,
    /// Requests answered by *deriving* from a structurally identical
    /// artifact built for different rate/reward numbers: structure facts
    /// assembled from a rate variant's Tarjan analysis (the analysis
    /// itself never re-ran). Counted inside the structure pool's `hits`
    /// too — this splits out how many of those hits crossed a value
    /// fingerprint.
    pub derived_hits: u64,
    /// Uniformizations rebuilt for new rates by filling a structural
    /// donor's `Pᵀ` pattern instead of building it from scratch
    /// ([`Uniformized::rebind_values`]). Counted inside the uniformized
    /// pool's `misses` too (a rebind still builds a matrix).
    pub rebinds: u64,
    /// Dependent artifacts orphaned by evicting their parent: when
    /// eviction drops a uniformization that regenerative parameters were
    /// registered against, those dependents lose the artifact their
    /// rebuild would have been cheap next to. Cumulative, like
    /// `evictions`.
    pub orphaned: u64,
}

#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Counters {
    fn record(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Normalized key bits for a float key component: both zeros collapse to
/// `+0.0` and every NaN to one canonical pattern, so `-0.0` cannot key a
/// duplicate artifact and a NaN cannot poison lookups with an entry no
/// equal-comparing value will ever find again. Non-finite `θ`/`ε` are
/// rejected upstream (request planning, spec parsing); this is defense in
/// depth for direct cache callers.
fn norm_key_bits(x: f64) -> u64 {
    if x == 0.0 {
        0
    } else if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

/// Poison-tolerant lock: a panicking solver job on another worker must not
/// wedge the cache (or the sweep executor, which shares this helper) for
/// the rest of the sweep. One policy, one copy — the execution layer's
/// helper, re-exported for the engine's call sites.
pub(crate) use regenr_sparse::pool::lock;

/// What an entry costs its pool's byte gauge: its own bytes, and
/// optionally a part it shares with other entries, as `(id, bytes)`. A
/// uniformization's shared part is its lineage's (`Pᵀ`'s pattern and
/// rebind map, [`Uniformized::shared_bytes`]), identified by the pattern's
/// address, which no other pattern can take while an entry holding it is
/// live. A shared part is charged once, however many live entries hold it.
#[derive(Clone, Copy, Debug, Default)]
struct Charge {
    own: usize,
    shared: Option<(usize, usize)>,
}

impl Charge {
    /// An artifact that shares nothing.
    fn own(bytes: usize) -> Self {
        Charge {
            own: bytes,
            shared: None,
        }
    }
}

struct PoolEntry<V> {
    value: V,
    charge: Charge,
    /// Estimated cost to rebuild this artifact from scratch, in work
    /// units (charged alongside bytes when the artifact materializes).
    /// Zero until filled.
    cost: u64,
    /// Derived artifacts registered against this entry (regenerative
    /// parameters hanging off a uniformization). Evicting an entry with
    /// dependents orphans them — eviction weighs that in, and counts it.
    dependents: u64,
    /// Whether an artifact has materialized in this entry's slot
    /// ([`LruPool::set_bytes`] ran). Only filled entries count toward — and
    /// may be evicted for — the capacity limits: an empty in-flight build
    /// slot must never cost a live artifact its place.
    filled: bool,
    /// The pool's inflation value when this entry was last used
    /// (inserted, filled or looked up) — its GreedyDual age credit.
    inflation: u64,
    /// LRU stamp from the pool clock; smallest is evicted first among
    /// equal eviction weights.
    stamp: u64,
}

impl<V> PoolEntry<V> {
    /// GreedyDual weight: the inflation value at last use plus the rebuild
    /// cost scaled by what evicting the entry would orphan.
    fn weight(&self) -> u64 {
        self.inflation
            .saturating_add(self.cost.saturating_mul(1 + self.dependents))
    }
}

/// A mutex-free cost-aware map with GreedyDual aging (Cao & Irani, USENIX
/// 1997; callers wrap it in a `Mutex`). Eviction scans for the minimum
/// `(weight, LRU stamp)` — `O(entries)`, fine at the capacities this cache
/// is configured with (the artifacts themselves dwarf the scan) — and
/// raises the pool's inflation value to the evicted weight, so an entry
/// that is used again outranks one of equal cost that is not, and a large
/// entry that is never used again ages out. Entries with equal weights
/// degrade to exact least-recently-used order.
struct LruPool<K, V> {
    map: HashMap<K, PoolEntry<V>>,
    clock: u64,
    /// GreedyDual inflation value `L`: the weight of the last eviction.
    inflation: u64,
    bytes: usize,
    /// Live shared parts (see [`Charge`]): id → (entries holding it, bytes
    /// charged for it).
    shared: HashMap<usize, (usize, usize)>,
    evictions: u64,
    /// Dependents orphaned by evictions (cumulative).
    orphaned: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> LruPool<K, V> {
    fn new() -> Self {
        LruPool {
            map: HashMap::new(),
            clock: 0,
            inflation: 0,
            bytes: 0,
            shared: HashMap::new(),
            evictions: 0,
            orphaned: 0,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Looks up `key`, refreshing its LRU stamp and age credit.
    fn get(&mut self, key: &K) -> Option<V> {
        let stamp = self.tick();
        let inflation = self.inflation;
        self.map.get_mut(key).map(|e| {
            e.stamp = stamp;
            e.inflation = inflation;
            e.value.clone()
        })
    }

    /// Looks up `key` without counting a use: a structural donor lent to a
    /// rebind. Refreshing the donor there would let it outrank, and evict
    /// at insertion, the artifact the request actually asked for.
    fn peek(&self, key: &K) -> Option<V> {
        self.map.get(key).map(|e| e.value.clone())
    }

    /// Returns the slot for `key`, inserting `make()` (unfilled, zero
    /// bytes — see [`LruPool::set_bytes`]) if absent.
    ///
    /// Capacity is deliberately **not** enforced here: an empty build slot
    /// must never evict a live artifact on behalf of a build that may still
    /// fail. Enforcement happens in [`LruPool::set_bytes`], when an
    /// artifact actually materializes, and ignores unfilled slots entirely;
    /// until then concurrent first builds may transiently push the entry
    /// gauge past `max_entries` by at most the number of in-flight builders
    /// (each such slot is either filled — and the cap re-enforced — or
    /// removed by its [`SlotCleanup`]).
    fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> V {
        if let Some(v) = self.get(&key) {
            return v;
        }
        let stamp = self.tick();
        let value = make();
        self.map.insert(
            key,
            PoolEntry {
                value: value.clone(),
                charge: Charge::default(),
                cost: 0,
                dependents: 0,
                filled: false,
                inflation: self.inflation,
                stamp,
            },
        );
        value
    }

    /// Re-points `key`'s byte accounting at a freshly built/replaced
    /// artifact (marking the entry filled), then enforces capacity. `same`
    /// must identify the builder's own slot: if the entry was evicted —
    /// even if another caller has already re-inserted a fresh slot under
    /// the same key — this is a no-op, so a stale builder can never charge
    /// its artifact's size against an entry that does not hold it. For
    /// pools whose slots are *replaced* after filling (params widening),
    /// slot identity alone does not pin down the contents — callers there
    /// must compute `bytes` from the slot's current contents while holding
    /// the slot lock, so store and accounting are one atomic step.
    fn set_bytes(
        &mut self,
        key: &K,
        same: impl FnOnce(&V) -> bool,
        charge: Charge,
        cost: u64,
        cfg: &CacheConfig,
    ) {
        if let Some(e) = self.map.get_mut(key) {
            if same(&e.value) {
                let old = std::mem::replace(&mut e.charge, charge);
                e.cost = cost;
                e.filled = true;
                e.inflation = self.inflation;
                self.charge(charge);
                self.discharge(old);
                self.enforce(cfg);
            }
        }
    }

    /// Adds `c` to the byte gauge: its own bytes, and its shared part
    /// unless a live entry already holds it. A holder that reports a larger
    /// shared part than the one charged (a lineage whose rebind map was
    /// built since) raises the part's charge to it.
    fn charge(&mut self, c: Charge) {
        self.bytes += c.own;
        if let Some((id, bytes)) = c.shared {
            let part = self.shared.entry(id).or_insert((0, 0));
            part.0 += 1;
            if bytes > part.1 {
                self.bytes += bytes - part.1;
                part.1 = bytes;
            }
        }
    }

    /// Removes `c` from the byte gauge; a shared part goes with the last
    /// entry holding it.
    fn discharge(&mut self, c: Charge) {
        self.bytes -= c.own;
        if let Some((id, _)) = c.shared {
            if let Some(part) = self.shared.get_mut(&id) {
                part.0 -= 1;
                if part.0 == 0 {
                    self.bytes -= part.1;
                    self.shared.remove(&id);
                }
            }
        }
    }

    /// Registers one more derived artifact hanging off `key` (best-effort:
    /// a parent already evicted is silently skipped). Does **not** refresh
    /// the LRU stamp — registration is bookkeeping, not a use. Dependents
    /// are registered-lifetime counts: they are not decremented when the
    /// derived artifact is itself evicted (the weight answers "how much
    /// has been built against this parent", a monotone proxy that keeps
    /// the two pools free of back-edges and lock-order coupling).
    fn bump_dependents(&mut self, key: &K) {
        if let Some(e) = self.map.get_mut(key) {
            e.dependents += 1;
        }
    }

    /// Removes `key` if its current value still is the caller's slot
    /// (identity via `same`): a builder whose build *failed* discards the
    /// empty slot it inserted, so the pool does not accumulate — or, under
    /// capacity pressure, evict live artifacts in favour of — keys that
    /// hold nothing. Not counted as an eviction.
    fn remove_if(&mut self, key: &K, same: impl FnOnce(&V) -> bool) {
        if self.map.get(key).is_some_and(|e| same(&e.value)) {
            if let Some(e) = self.map.remove(key) {
                self.discharge(e.charge);
            }
        }
    }

    /// Evicts the cheapest-to-lose **filled** entries until both caps
    /// hold. "Cheapest to lose" is the minimum of `(weight, LRU stamp)`,
    /// where the weight is the inflation value at the entry's last use
    /// plus `rebuild cost × (1 + dependents)`: an artifact that derived
    /// artifacts hang off is weighted by what evicting it would orphan,
    /// not just its own rebuild, and each eviction raises the inflation
    /// value to the evicted weight, so recency counts in whole rebuild
    /// costs rather than only breaking ties. Among equal weights the
    /// least-recently-used entry goes first (pools whose entries all cost
    /// the same — e.g. variants of one model family — behave exactly like
    /// plain LRU). Evicting a parent with registered dependents counts
    /// them as `orphaned`.
    ///
    /// Unfilled in-flight build slots neither count toward `max_entries`
    /// nor get evicted — they resolve through their own `set_bytes` or
    /// [`SlotCleanup`]. A single artifact larger than `max_bytes` ends up
    /// evicting itself — the build still succeeds, it is just not retained.
    fn enforce(&mut self, cfg: &CacheConfig) {
        loop {
            let filled = self.map.values().filter(|e| e.filled).count();
            let over_entries = cfg.max_entries.is_some_and(|cap| filled > cap);
            let over_bytes = cfg.max_bytes.is_some_and(|cap| self.bytes > cap);
            if !over_entries && !over_bytes {
                return;
            }
            let Some(cheapest) = self
                .map
                .iter()
                .filter(|(_, e)| e.filled)
                .min_by_key(|(_, e)| (e.weight(), e.stamp))
                .map(|(k, _)| k.clone())
            else {
                return;
            };
            if let Some(e) = self.map.remove(&cheapest) {
                self.inflation = self.inflation.max(e.weight());
                self.discharge(e.charge);
                self.evictions += 1;
                self.orphaned += e.dependents;
            }
        }
    }

    fn stats(&self, counters: &Counters) -> PoolStats {
        PoolStats {
            hits: counters.hits.load(Ordering::Relaxed),
            misses: counters.misses.load(Ordering::Relaxed),
            evictions: self.evictions,
            entries: self.map.len(),
            bytes: self.bytes,
            cost: self.map.values().map(|e| e.cost).sum(),
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.inflation = 0;
        self.bytes = 0;
        self.shared.clear();
    }
}

/// Key for the uniformization pool: fingerprint plus normalized `θ` bits.
type UnifKey = (u64, u64);
/// Key for the parameter pool: fingerprint, regenerative state, normalized
/// `ε` bits, normalized `θ` bits.
type ParamsKey = (u64, usize, u64, u64);

struct ParamsEntry {
    /// Largest horizon the stored sequences cover.
    t_max: f64,
    params: Arc<RegenParams>,
}

/// Per-key build slot: `None` until the first builder fills it. First
/// builders hold the slot lock across the build, so racers on the *same*
/// key block (then hit) while other keys proceed concurrently. A first
/// build that does not complete — error or panic — removes its empty slot
/// from the pool ([`SlotCleanup`]) so a key that never produced an artifact
/// cannot occupy, or under caps displace, a live entry.
type Slot<T> = Arc<Mutex<Option<T>>>;

/// Drop guard for a first build in progress: until [`SlotCleanup::disarm`],
/// dropping it (on `?` return or unwind) removes the builder's still-empty
/// slot from the pool. Identity-checked, so a slot re-inserted by a later
/// caller after an eviction is never touched.
struct SlotCleanup<'a, K: Eq + Hash + Clone, V> {
    pool: &'a Mutex<LruPool<K, Slot<V>>>,
    key: K,
    slot: Slot<V>,
    armed: bool,
}

impl<'a, K: Eq + Hash + Clone, V> SlotCleanup<'a, K, V> {
    fn new(pool: &'a Mutex<LruPool<K, Slot<V>>>, key: K, slot: Slot<V>) -> Self {
        SlotCleanup {
            pool,
            key,
            slot,
            armed: true,
        }
    }

    /// The build completed; keep the pool entry.
    fn disarm(mut self) {
        self.armed = false;
    }
}

impl<K: Eq + Hash + Clone, V> Drop for SlotCleanup<'_, K, V> {
    fn drop(&mut self) {
        if self.armed {
            lock(self.pool).remove_if(&self.key, |v| Arc::ptr_eq(v, &self.slot));
        }
    }
}

/// Shared artifact cache; see the module docs.
pub struct ArtifactCache {
    cfg: CacheConfig,
    /// Keyed by the **structural** fingerprint: Tarjan facts are pure
    /// topology, so every rate/reward variant of one structure shares the
    /// entry (value-dependent fields are fixed up per request — see
    /// [`ArtifactCache::facts_for`]).
    structure: Mutex<LruPool<u64, Slot<Arc<ChainFacts>>>>,
    uniformized: Mutex<LruPool<UnifKey, Slot<Arc<Uniformized>>>>,
    /// Structural donor index for the uniformized pool: `(generator
    /// structure fingerprint, θ bits) → pool key` of the latest artifact
    /// with that structure. A miss whose structure has a live donor
    /// rebuilds by [`Uniformized::rebind_values`] — reusing the donor's
    /// `Pᵀ` pattern and slot map — instead of building from scratch.
    /// Entries are three words each; stale ones (donor
    /// evicted) fail the pool lookup harmlessly and are overwritten by
    /// the next fresh build.
    unif_donors: Mutex<HashMap<(u64, u64), UnifKey>>,
    params: Mutex<LruPool<ParamsKey, Slot<ParamsEntry>>>,
    structure_counters: Counters,
    uniformized_counters: Counters,
    params_counters: Counters,
    derived_hits: AtomicU64,
    rebinds: AtomicU64,
}

impl Default for ArtifactCache {
    fn default() -> Self {
        Self::with_config(CacheConfig::unbounded())
    }
}

impl ArtifactCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache with capacity limits.
    pub fn with_config(cfg: CacheConfig) -> Self {
        ArtifactCache {
            cfg,
            structure: Mutex::new(LruPool::new()),
            uniformized: Mutex::new(LruPool::new()),
            unif_donors: Mutex::new(HashMap::new()),
            params: Mutex::new(LruPool::new()),
            structure_counters: Counters::default(),
            uniformized_counters: Counters::default(),
            params_counters: Counters::default(),
            derived_hits: AtomicU64::new(0),
            rebinds: AtomicU64::new(0),
        }
    }

    /// The capacity limits in effect.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Structure facts for `ctmc`, keyed **structurally**: Tarjan SCC
    /// analysis depends only on the sparsity pattern and rate support, so
    /// every rate/reward variant of one structure shares the pool entry,
    /// and the analysis runs exactly once per live structure (racers block
    /// on the per-key slot and count as hits). A request whose *value*
    /// fingerprint differs from the stored entry's is a **derived hit**
    /// ([`CacheStats::derived_hits`]): the topology facts are reused and
    /// only the value-dependent fields — the full fingerprint and the
    /// maximum exit rate, an `O(n)` diagonal scan — are recomputed.
    /// Analysis errors are returned, not cached (soundly so: analysis
    /// accepts or rejects on topology plus initial-distribution support,
    /// both part of the structural key).
    pub fn facts_for(&self, fps: &ModelFps, ctmc: &Ctmc) -> Result<Arc<ChainFacts>, CtmcError> {
        let skey = fps.structure;
        let slot = lock(&self.structure).get_or_insert_with(skey, Slot::default);
        let mut guard = lock(&slot);
        if let Some(facts) = guard.as_ref() {
            self.structure_counters.record(true);
            if facts.fingerprint == fps.full {
                return Ok(facts.clone());
            }
            // Derived hit: same topology, different numbers. Clone the
            // topology facts, then recompute the value-dependent fields
            // outside the slot lock.
            let derived = ChainFacts {
                fingerprint: fps.full,
                n_states: facts.n_states,
                absorbing: facts.absorbing.clone(),
                irreducible: facts.irreducible,
                max_rate: 0.0,
            };
            drop(guard);
            self.derived_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::new(ChainFacts {
                max_rate: ctmc.generator().max_abs_diag(),
                ..derived
            }));
        }
        let cleanup = SlotCleanup::new(&self.structure, skey, slot.clone());
        regenr_failpoint::failpoint!("cache-build-facts");
        let info = analyze(ctmc)?;
        let facts = Arc::new(ChainFacts {
            fingerprint: fps.full,
            n_states: ctmc.n_states(),
            irreducible: info.is_irreducible(),
            absorbing: info.absorbing,
            max_rate: ctmc.generator().max_abs_diag(),
        });
        self.structure_counters.record(false);
        *guard = Some(facts.clone());
        cleanup.disarm();
        drop(guard);
        // Rebuild cost: Tarjan + the reachability transpose both walk the
        // full pattern — a few passes over n + nnz elements.
        let cost = (ctmc.n_states() + ctmc.generator().nnz()) as u64;
        lock(&self.structure).set_bytes(
            &skey,
            |v| Arc::ptr_eq(v, &slot),
            Charge::own(facts.approx_bytes()),
            cost,
            &self.cfg,
        );
        Ok(facts)
    }

    /// The uniformized view of `ctmc` at safety factor `theta`, built
    /// exactly once per live `(fp, θ)` entry, where `fp` is the generator's
    /// fingerprint and `structure_fp` its **structural** one. Returns the
    /// artifact and whether it was a cache hit. A miss first consults the
    /// structural donor index: if a live artifact with the same generator
    /// structure (at the same `θ`) exists, the new artifact is built by
    /// [`Uniformized::rebind_values`] — the donor's `Pᵀ` pattern filled
    /// with the new values in one pass over `Q` — and counted in
    /// [`CacheStats::rebinds`]. The result is bitwise identical to a cold
    /// build; only the build cost differs. The entry is charged the
    /// artifact's [`Uniformized::approx_bytes`] when it materializes, less
    /// its lineage's part ([`Uniformized::shared_bytes`]: `Pᵀ`'s pattern
    /// and rebind map), which the pool charges once per live pattern;
    /// chunk plans hold no matrix copy and add nothing.
    pub fn uniformized_delta(
        &self,
        fp: u64,
        structure_fp: u64,
        ctmc: &Ctmc,
        theta: f64,
    ) -> (Arc<Uniformized>, bool) {
        let key = (fp, norm_key_bits(theta));
        let slot = lock(&self.uniformized).get_or_insert_with(key, Slot::default);
        let mut guard = lock(&slot);
        if let Some(unif) = guard.as_ref() {
            self.uniformized_counters.record(true);
            return (unif.clone(), true);
        }
        let cleanup = SlotCleanup::new(&self.uniformized, key, slot.clone());
        regenr_failpoint::failpoint!("cache-build-unif");
        // Structural-donor path: a live artifact with this generator
        // structure donates its `Pᵀ` pattern. Lock order: our (still
        // unfilled) slot → donor index → pool → donor slot; donor slots
        // are always *filled* (registered at materialization), and filled
        // slots are only ever locked briefly by hit readers or rebinders,
        // never while waiting on another slot — no cycle.
        let donor_key = (structure_fp, norm_key_bits(theta));
        let dkey = lock(&self.unif_donors).get(&donor_key).copied();
        let donor_slot = dkey
            .filter(|&dkey| dkey != key)
            .and_then(|dkey| lock(&self.uniformized).peek(&dkey));
        let donor = donor_slot.and_then(|slot| lock(&slot).clone());
        let rebound = donor.is_some();
        let unif = Arc::new(match donor {
            Some(donor) => donor.rebind_values(ctmc, theta),
            None => Uniformized::new(ctmc, theta),
        });
        self.uniformized_counters.record(false);
        if rebound {
            self.rebinds.fetch_add(1, Ordering::Relaxed);
        }
        *guard = Some(unif.clone());
        cleanup.disarm();
        drop(guard);
        // Cold-rebuild cost of `Pᵀ`: the count pass with its prefix sum
        // (nnz + n), the fill pass with its scatter (2·nnz), and the
        // diagonal scan (n). A rebound entry is charged the same: evicting
        // it may cost a cold build.
        let cost = (3 * ctmc.generator().nnz() + 2 * ctmc.n_states()) as u64;
        // The lineage's part is charged once per live `Pᵀ` pattern.
        let shared = unif.shared_bytes();
        let charge = Charge {
            own: unif.approx_bytes() - shared,
            shared: Some((Arc::as_ptr(unif.p_t.pattern()) as usize, shared)),
        };
        lock(&self.uniformized).set_bytes(&key, |v| Arc::ptr_eq(v, &slot), charge, cost, &self.cfg);
        // Latest artifact wins the donor role for its structure; a stale
        // entry (evicted donor) is just a failed lookup later.
        lock(&self.unif_donors).insert(donor_key, key);
        (unif, false)
    }

    /// Regenerative parameters for `(chain, r, ε, θ)` covering horizon `t`,
    /// reusing (or widening) a cached computation. `build(horizon)` performs
    /// the construction on a miss — pass the owning solver's
    /// `parameters`/`parameters_with` so the key always describes the solver
    /// that consumes the result. RR and RRL construct identical sequences
    /// for identical keys, so both methods share this pool. The returned
    /// parameters cover **at least** `t`; slice them with
    /// [`RegenParams::depth_for_horizon`] + [`RegenParams::truncated`].
    ///
    /// The built parameters are registered as a **dependent** of the
    /// uniformization they were constructed on (keyed by `parent_unif_fp`
    /// at `θ = regen.theta`, the key the solver's uniformization was cached
    /// under): cost-aware eviction then weighs that parent by the artifacts
    /// hanging off it, and evicting it anyway counts the dependents as
    /// [`CacheStats::orphaned`]. Registration happens once per first
    /// build — widening an entry does not re-register.
    ///
    /// A *first* build runs under the per-key slot lock, so two threads
    /// missing on the same key no longer both pay the full `parameters(t)`
    /// computation with one result dropped: the second blocks, then reads
    /// (or widens) the first's entry. A *widening* rebuild releases the
    /// lock while stepping — readers covered by the existing entry must not
    /// wait behind it (racing wideners may duplicate work; the widest
    /// result wins).
    pub fn regen_params_linked(
        &self,
        fp: u64,
        parent_unif_fp: u64,
        regen: &RegenOptions,
        r: usize,
        t: f64,
        mut build: impl FnMut(f64) -> Result<RegenParams, CtmcError>,
    ) -> Result<(Arc<RegenParams>, bool), CtmcError> {
        let key = (
            fp,
            r,
            norm_key_bits(regen.epsilon),
            norm_key_bits(regen.theta),
        );
        let slot = lock(&self.params).get_or_insert_with(key, Slot::default);
        let guard = lock(&slot);
        if let Some(entry) = guard.as_ref() {
            if entry.t_max >= t {
                self.params_counters.record(true);
                return Ok((entry.params.clone(), true));
            }
            // Widening: the current entry keeps serving covered horizons
            // while we rebuild, so step without the slot lock.
            drop(guard);
            regenr_failpoint::failpoint!("cache-build-params");
            let params = Arc::new(build(t)?);
            self.params_counters.record(false);
            let guard = lock(&slot);
            let superseded = guard.as_ref().is_some_and(|e| e.t_max >= t);
            if !superseded {
                // Store + accounting are one atomic step under the slot
                // lock (see LruPool::set_bytes): a racing widener must not
                // interleave and leave the pool charging the wrong size.
                self.store_params(guard, &slot, key, t, &params);
            }
            return Ok((params, false));
        }
        let cleanup = SlotCleanup::new(&self.params, key, slot.clone());
        regenr_failpoint::failpoint!("cache-build-params");
        let params = Arc::new(build(t)?);
        self.params_counters.record(false);
        self.store_params(guard, &slot, key, t, &params);
        cleanup.disarm();
        // First build: hang this entry off its uniformization. Params pool
        // locks are all released here, so the established lock order
        // (never hold two pools at once) is kept.
        lock(&self.uniformized).bump_dependents(&(parent_unif_fp, norm_key_bits(regen.theta)));
        Ok((params, false))
    }

    /// Installs a params entry and updates the pool's byte accounting while
    /// *holding* the slot lock, so the recorded size always matches the
    /// stored entry (slot identity alone cannot guarantee that: widening
    /// replaces slot contents).
    fn store_params(
        &self,
        mut guard: MutexGuard<'_, Option<ParamsEntry>>,
        slot: &Slot<ParamsEntry>,
        key: ParamsKey,
        t: f64,
        params: &Arc<RegenParams>,
    ) {
        *guard = Some(ParamsEntry {
            t_max: t,
            params: params.clone(),
        });
        // Slot lock then pool lock — the established order (set_bytes is
        // never called by a pool-lock holder).
        //
        // Rebuild cost: the killed-chain construction steps the truncated
        // chain once per stored depth level — the sequences' element count
        // (≈ bytes/8) is the per-level footprint, and each level cost a
        // matrix pass to produce.
        lock(&self.params).set_bytes(
            &key,
            |v| Arc::ptr_eq(v, slot),
            Charge::own(params.approx_bytes()),
            (params.approx_bytes() / 8) as u64,
            &self.cfg,
        );
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let structure = lock(&self.structure).stats(&self.structure_counters);
        let uniformized = lock(&self.uniformized).stats(&self.uniformized_counters);
        let regen_params = lock(&self.params).stats(&self.params_counters);
        CacheStats {
            structure,
            uniformized,
            regen_params,
            derived_hits: self.derived_hits.load(Ordering::Relaxed),
            rebinds: self.rebinds.load(Ordering::Relaxed),
            orphaned: lock(&self.structure).orphaned
                + lock(&self.uniformized).orphaned
                + lock(&self.params).orphaned,
        }
    }

    /// Drops every cached artifact (counters are kept; eviction counts are
    /// not incremented — clearing is not capacity pressure). The donor
    /// index goes too: a cleared cache must behave exactly like a fresh
    /// one, cold rebuilds included.
    pub fn clear(&self) {
        lock(&self.structure).clear();
        lock(&self.uniformized).clear();
        lock(&self.unif_donors).clear();
        lock(&self.params).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::model_fps;
    use regenr_core::{RrlOptions, RrlSolver};

    /// `c`'s uniformization through the engine's entry point, keyed by its
    /// own generator fingerprints.
    fn unif(cache: &ArtifactCache, c: &Ctmc, theta: f64) -> (Arc<Uniformized>, bool) {
        let fps = model_fps(c);
        cache.uniformized_delta(fps.unif, fps.unif_structure, c, theta)
    }

    fn facts(cache: &ArtifactCache, c: &Ctmc) -> Result<Arc<ChainFacts>, CtmcError> {
        cache.facts_for(&model_fps(c), c)
    }

    /// An RRL solver on `c`'s cached uniformization and structure facts,
    /// as the engine builds one (no duplicate Tarjan pass).
    fn rrl_on_cache<'a>(cache: &ArtifactCache, c: &'a Ctmc, opts: RrlOptions) -> RrlSolver<'a> {
        let facts = facts(cache, c).unwrap();
        let (u, _) = unif(cache, c, opts.regen.theta);
        RrlSolver::with_uniformized_facts(c, 0, u, facts.absorbing.clone(), opts).unwrap()
    }

    /// Regenerative parameters for `c` at regenerative state 0, hung off
    /// the uniformization keyed `parent` (at `opts.regen.theta`).
    fn linked_params(
        cache: &ArtifactCache,
        c: &Ctmc,
        parent: u64,
        solver: &RrlSolver<'_>,
        t: f64,
    ) -> (Arc<RegenParams>, bool) {
        let regen = solver.options().regen;
        cache
            .regen_params_linked(model_fps(c).full, parent, &regen, 0, t, |h| {
                solver.parameters(h)
            })
            .unwrap()
    }

    fn chain() -> Ctmc {
        Ctmc::from_rates(
            2,
            &[(0, 1, 1e-3), (1, 0, 1.0)],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
        )
        .unwrap()
    }

    /// A family of rate variants of one structure (distinct fingerprints,
    /// one structural fingerprint).
    fn chain_with_rate(lambda: f64) -> Ctmc {
        Ctmc::from_rates(
            2,
            &[(0, 1, lambda), (1, 0, 1.0)],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
        )
        .unwrap()
    }

    #[test]
    fn uniformized_hits_on_second_request() {
        let cache = ArtifactCache::new();
        let c = chain();
        let (a, hit_a) = unif(&cache, &c, 0.0);
        let (b, hit_b) = unif(&cache, &c, 0.0);
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        // Different θ is a different artifact.
        let (_, hit_theta) = unif(&cache, &c, 0.1);
        assert!(!hit_theta);
        let stats = cache.stats().uniformized;
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes > 0, "uniformizations must be byte-accounted");
    }

    #[test]
    fn negative_zero_theta_shares_the_entry() {
        let cache = ArtifactCache::new();
        let c = chain();
        let (a, _) = unif(&cache, &c, 0.0);
        let (b, hit) = unif(&cache, &c, -0.0);
        assert!(hit, "-0.0 and 0.0 must key the same artifact");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().uniformized.entries, 1);
    }

    #[test]
    fn facts_cached_and_correct() {
        let cache = ArtifactCache::new();
        let c = chain();
        let f1 = facts(&cache, &c).unwrap();
        let f2 = facts(&cache, &c).unwrap();
        assert!(Arc::ptr_eq(&f1, &f2));
        assert!(f1.irreducible);
        assert_eq!(f1.max_rate, 1.0);
        let stats = cache.stats().structure;
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn regen_params_widen_with_horizon() {
        let cache = ArtifactCache::new();
        let c = chain();
        let parent = model_fps(&c).unif;
        let solver = rrl_on_cache(&cache, &c, RrlOptions::default());
        let (_, hit1) = linked_params(&cache, &c, parent, &solver, 10.0);
        assert!(!hit1);
        let (_, hit2) = linked_params(&cache, &c, parent, &solver, 5.0);
        assert!(hit2, "smaller horizon must reuse the wider computation");
        let (_, hit3) = linked_params(&cache, &c, parent, &solver, 100.0);
        assert!(!hit3, "larger horizon must recompute (and widen the entry)");
        let (_, hit4) = linked_params(&cache, &c, parent, &solver, 50.0);
        assert!(hit4);
        assert_eq!(cache.stats().regen_params.entries, 1, "widening replaces");
    }

    /// Regression (PR 2): two threads missing on the same params key must
    /// not both run the full `parameters(t)` computation. The build happens
    /// under the per-key slot lock, so exactly one thread misses and every
    /// racer scores a hit.
    #[test]
    fn regen_params_contention_builds_once() {
        let cache = Arc::new(ArtifactCache::new());
        let c = Arc::new(chain());
        let parent = model_fps(&c).unif;
        let opts = RrlOptions::default();
        let n_threads = 8;
        let barrier = Arc::new(std::sync::Barrier::new(n_threads));
        std::thread::scope(|scope| {
            for _ in 0..n_threads {
                let cache = cache.clone();
                let c = c.clone();
                let barrier = barrier.clone();
                scope.spawn(move || {
                    let solver = rrl_on_cache(&cache, &c, opts);
                    barrier.wait();
                    let (params, _) = linked_params(&cache, &c, parent, &solver, 1_000.0);
                    assert!(params
                        .depth_for_horizon(1_000.0, opts.regen.epsilon)
                        .is_some());
                });
            }
        });
        let stats = cache.stats().regen_params;
        assert_eq!(
            stats.misses, 1,
            "exactly one thread may build; got {stats:?}"
        );
        assert_eq!(stats.hits, (n_threads - 1) as u64);
    }

    /// A failed structure analysis must not leave its empty build slot in
    /// the pool — a stream of invalid models would otherwise grow the map
    /// without bound (or, under caps, displace live artifacts).
    #[test]
    fn failed_analysis_does_not_leak_a_pool_entry() {
        let cache = ArtifactCache::new();
        // Two separate transient SCCs: analyze() rejects this chain.
        let bad = Ctmc::from_rates(
            3,
            &[(0, 2, 1.0), (1, 2, 1.0)],
            vec![0.5, 0.5, 0.0],
            vec![0.0; 3],
        )
        .unwrap();
        for _ in 0..3 {
            assert!(facts(&cache, &bad).is_err());
        }
        let stats = cache.stats().structure;
        assert_eq!(stats.entries, 0, "failed builds must not occupy entries");
        assert_eq!(stats.bytes, 0);
        // A valid chain still caches normally afterwards.
        assert!(facts(&cache, &chain()).is_ok());
        assert_eq!(cache.stats().structure.entries, 1);
    }

    /// A birth–death chain over `n` states: structurally distinct per `n`.
    fn chain_with_states(n: usize) -> Ctmc {
        let mut rates = Vec::new();
        for i in 0..n - 1 {
            rates.push((i, i + 1, 1.0));
            rates.push((i + 1, i, 0.5));
        }
        let mut init = vec![0.0; n];
        init[0] = 1.0;
        Ctmc::from_rates(n, &rates, init, vec![1.0; n]).unwrap()
    }

    /// Capacity is enforced when an artifact materializes, never when an
    /// empty build slot is inserted: a stream of invalid models at a full
    /// cap must not flush the live artifacts it can never replace.
    #[test]
    fn failing_builds_do_not_evict_live_artifacts() {
        let cache = ArtifactCache::with_config(CacheConfig::with_max_entries(2));
        // Structurally distinct (the structure pool keys by topology, so
        // mere rate variants would share one entry).
        let a = chain_with_states(2);
        let b = chain_with_states(3);
        facts(&cache, &a).unwrap();
        facts(&cache, &b).unwrap();

        let bad = Ctmc::from_rates(
            3,
            &[(0, 2, 1.0), (1, 2, 1.0)],
            vec![0.5, 0.5, 0.0],
            vec![0.0; 3],
        )
        .unwrap();
        for _ in 0..4 {
            assert!(facts(&cache, &bad).is_err());
        }

        let stats = cache.stats().structure;
        assert_eq!(stats.evictions, 0, "no live artifact may be displaced");
        assert_eq!(stats.entries, 2);
        // Both live artifacts are still served from the pool.
        facts(&cache, &a).unwrap();
        facts(&cache, &b).unwrap();
        assert_eq!(cache.stats().structure.hits, 2);
    }

    /// A *panicking* build must clean up like a failing one: the empty slot
    /// leaves the pool (no cap-occupying ghost entry) and the key stays
    /// buildable afterwards.
    #[test]
    fn panicking_build_does_not_leak_a_pool_entry() {
        let cache = ArtifactCache::with_config(CacheConfig::with_max_entries(2));
        let c = chain();
        // θ < 0 panics inside Uniformized::new (the engine validates θ
        // upstream; the cache API is public).
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unif(&cache, &c, -1.0)));
        assert!(result.is_err(), "negative θ must panic");
        assert_eq!(cache.stats().uniformized.entries, 0);
        // The pool still serves fresh builds afterwards.
        let (_, hit) = unif(&cache, &c, 0.0);
        assert!(!hit);
        assert_eq!(cache.stats().uniformized.entries, 1);
    }

    /// Nothing the pool or a stepper attaches to a cached uniformization
    /// may hold it in a reference cycle: once the cache and every holder
    /// are gone, the artifact (the largest object in the system) is freed.
    #[test]
    fn dropping_cache_and_holders_frees_the_artifact() {
        use regenr_sparse::ParallelConfig;
        let c = chain();
        let weak;
        {
            let cache = ArtifactCache::new();
            let (u, _) = unif(&cache, &c, 0.0);
            // Cache a plan on it, as a solver's stepper does.
            let _ = u.stepper(&ParallelConfig {
                min_nnz: 0,
                threads: 1,
            });
            weak = Arc::downgrade(&u);
            drop(u);
            assert!(weak.upgrade().is_some(), "cache keeps the artifact alive");
        }
        assert!(
            weak.upgrade().is_none(),
            "dropping the cache and all holders must free the artifact (Arc cycle?)"
        );
    }

    /// The three chains are rate variants of one structure, so every miss
    /// after the first rebinds the latest resident variant.
    #[test]
    fn max_entries_evicts_least_recently_used() {
        let cache = ArtifactCache::with_config(CacheConfig::with_max_entries(2));
        let chains: Vec<Ctmc> = [1e-3, 2e-3, 3e-3]
            .iter()
            .map(|&l| chain_with_rate(l))
            .collect();
        let fps: Vec<u64> = chains.iter().map(|c| model_fps(c).unif).collect();
        assert_eq!(
            fps.iter().collect::<std::collections::HashSet<_>>().len(),
            3
        );

        unif(&cache, &chains[0], 0.0);
        unif(&cache, &chains[1], 0.0);
        // Touch 0 so 1 becomes the LRU entry, then overflow with 2.
        let (_, hit0) = unif(&cache, &chains[0], 0.0);
        assert!(hit0);
        unif(&cache, &chains[2], 0.0);

        let stats = cache.stats();
        assert_eq!(stats.uniformized.entries, 2, "cap must hold");
        assert_eq!(stats.uniformized.evictions, 1);
        assert_eq!(stats.rebinds, 2, "1 and 2 rebind their predecessor");
        // 1 was evicted (LRU); 0 and 2 survive.
        let (_, hit0) = unif(&cache, &chains[0], 0.0);
        let (_, hit1) = unif(&cache, &chains[1], 0.0);
        assert!(hit0, "recently used entry must survive");
        assert!(!hit1, "LRU entry must have been evicted");
        assert_eq!(cache.stats().rebinds, 3, "1 is rebuilt by a rebind");
    }

    #[test]
    fn max_bytes_evicts_and_oversized_artifact_is_not_retained() {
        let c = chain();
        let one = Uniformized::new(&c, 0.0).approx_bytes();

        // Budget for one artifact: inserting a second evicts the first.
        let cache = ArtifactCache::with_config(CacheConfig {
            max_entries: None,
            max_bytes: Some(one + one / 2),
        });
        unif(&cache, &c, 0.0);
        unif(&cache, &c, 0.5);
        let stats = cache.stats().uniformized;
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 1);
        assert!(stats.bytes <= one + one / 2);

        // Budget below a single artifact: the build succeeds but nothing
        // is retained.
        let tiny = ArtifactCache::with_config(CacheConfig {
            max_entries: None,
            max_bytes: Some(1),
        });
        let (u, hit) = unif(&tiny, &c, 0.0);
        assert!(!hit);
        assert_eq!(u.n_states(), 2, "caller still gets the artifact");
        let stats = tiny.stats().uniformized;
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.bytes, 0);
    }

    /// Rate variants of one structure share a single structure-pool entry:
    /// the second request is a *derived* hit — the Tarjan facts are reused,
    /// only the value-dependent fields are recomputed.
    #[test]
    fn rate_variants_share_structure_facts_as_derived_hits() {
        let cache = ArtifactCache::new();
        let a = chain_with_rate(1e-3);
        let b = chain_with_rate(2.0);
        let fa = model_fps(&a);
        let fb = model_fps(&b);
        assert_eq!(fa.structure, fb.structure, "rate variants share structure");
        assert_ne!(fa.full, fb.full);
        let f1 = cache.facts_for(&fa, &a).unwrap();
        let f2 = cache.facts_for(&fb, &b).unwrap();
        // Topology facts identical; value-dependent fields are the
        // variant's own.
        assert_eq!(f1.irreducible, f2.irreducible);
        assert_eq!(f1.absorbing, f2.absorbing);
        assert_eq!(f1.max_rate, 1.0);
        assert_eq!(f2.max_rate, 2.0, "derived facts recompute the exit rate");
        assert_eq!(f2.fingerprint, fb.full);
        let stats = cache.stats();
        assert_eq!(stats.structure.entries, 1, "one entry per structure");
        assert_eq!((stats.structure.hits, stats.structure.misses), (1, 1));
        assert_eq!(stats.derived_hits, 1);
        assert!(stats.structure.cost > 0, "rebuild cost must be charged");
    }

    /// A birth–death rate variant: same structure as [`chain_with_states`]
    /// of the same size, different numbers.
    fn scaled_chain(n: usize, scale: f64) -> Ctmc {
        let mut rates = Vec::new();
        for i in 0..n - 1 {
            rates.push((i, i + 1, 1.0 * scale));
            rates.push((i + 1, i, 0.5 * scale));
        }
        let mut init = vec![0.0; n];
        init[0] = 1.0;
        Ctmc::from_rates(n, &rates, init, vec![1.0; n]).unwrap()
    }

    /// The delta-aware lookup rebuilds a rate variant's uniformization by
    /// re-binding the structural donor's `Pᵀ` pattern — bitwise identical
    /// to a cold build, stepped products included — and the rebound
    /// artifact shares the donor's pattern and chunk plans, which the pool
    /// charges once.
    #[test]
    fn uniformized_rebind_reuses_donor_plans_bitwise() {
        use regenr_sparse::ParallelConfig;
        let a = scaled_chain(64, 1.0);
        let b = scaled_chain(64, 1.75);
        let fa = model_fps(&a);
        let fb = model_fps(&b);
        assert_eq!(fa.unif_structure, fb.unif_structure);
        assert_ne!(fa.unif, fb.unif);
        let cache = ArtifactCache::new();
        let (ua, _) = cache.uniformized_delta(fa.unif, fa.unif_structure, &a, 0.0);
        // Cache a plan on the donor.
        let cfg = ParallelConfig {
            min_nnz: 0,
            threads: 1,
        };
        let _ = ua.stepper(&cfg);

        let (ub, hit) = cache.uniformized_delta(fb.unif, fb.unif_structure, &b, 0.0);
        assert!(!hit, "a rebind is still a miss (the artifact was built)");
        let stats = cache.stats();
        assert_eq!(stats.rebinds, 1);
        assert_eq!(stats.uniformized.entries, 2);
        // Each entry is charged its values; the pattern and rebind map
        // they share, once.
        assert!(Arc::ptr_eq(ua.p_t.pattern(), ub.p_t.pattern()));
        assert!(Arc::ptr_eq(&ua.p_t.chunk_plan(1), &ub.p_t.chunk_plan(1)));
        assert_eq!(ua.shared_bytes(), ub.shared_bytes());
        assert_eq!(
            stats.uniformized.bytes,
            ua.approx_bytes() + ub.approx_bytes() - ub.shared_bytes()
        );
        // Bitwise identity with a cold build, through the stepped product.
        let cold = Uniformized::new(&b, 0.0);
        assert_eq!(ub.lambda.to_bits(), cold.lambda.to_bits());
        let n = b.n_states();
        let pi: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let mut got = vec![0.0; n];
        let mut want = vec![0.0; n];
        ub.stepper(&cfg).step(&pi, &mut got);
        cold.stepper(&cfg).step(&pi, &mut want);
        for (x, y) in got.iter().zip(&want) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // A repeat of the same variant is a plain hit, not another rebind.
        let (_, hit) = cache.uniformized_delta(fb.unif, fb.unif_structure, &b, 0.0);
        assert!(hit);
        assert_eq!(cache.stats().rebinds, 1);
    }

    /// A lineage's pattern and rebind map are charged once while any of
    /// its artifacts is live: evicting the donor releases its values alone,
    /// and evicting the last variant releases the shared part too.
    #[test]
    fn shared_pattern_is_charged_once_across_evictions() {
        let cache = ArtifactCache::with_config(CacheConfig::with_max_entries(3));
        let lineage = |n: usize| -> Vec<Arc<Uniformized>> {
            [1.0, 1.5, 2.0, 2.5]
                .iter()
                .map(|&scale| unif(&cache, &scaled_chain(n, scale), 0.0).0)
                .collect()
        };
        let charged = |live: &[Arc<Uniformized>]| {
            let values: usize = live
                .iter()
                .map(|u| u.approx_bytes() - u.shared_bytes())
                .sum();
            values + live[live.len() - 1].shared_bytes()
        };
        let first = lineage(64);
        let stats = cache.stats();
        assert_eq!((stats.rebinds, stats.uniformized.evictions), (3, 1));
        assert!(!unif_resident(
            &cache,
            model_fps(&scaled_chain(64, 1.0)).unif,
            0.0
        ));
        assert_eq!(stats.uniformized.bytes, charged(&first[1..]));
        // Another structure's lineage displaces every artifact of the
        // first, and with the last of them its pattern.
        let second = lineage(32);
        let stats = cache.stats();
        assert_eq!(stats.uniformized.evictions, 5);
        assert_eq!(stats.uniformized.bytes, charged(&second[1..]));
        assert_eq!(lock(&cache.uniformized).shared.len(), 1);
    }

    /// Whether the uniformization keyed `(fp, θ)` is resident — unlike
    /// [`ArtifactCache::uniformized_delta`], a probe that never inserts, so
    /// it cannot evict anything itself.
    fn unif_resident(cache: &ArtifactCache, fp: u64, theta: f64) -> bool {
        lock(&cache.uniformized)
            .map
            .get(&(fp, norm_key_bits(theta)))
            .is_some_and(|e| e.filled)
    }

    /// GreedyDual aging: a small chain looked up every round keeps hitting
    /// in most rounds through a stream of larger one-off chains under an
    /// entry cap. Without aging the small chain is the cheapest entry on
    /// every insertion: once the pool is full it evicts itself and never
    /// hits again. The one-offs are rate variants of one structure: each
    /// after the first rebinds its predecessor, which its own insertion
    /// never evicts.
    #[test]
    fn aging_keeps_a_hot_small_entry_over_large_one_offs() {
        let cap = 4;
        let cache = ArtifactCache::with_config(CacheConfig::with_max_entries(cap));
        let hot = chain_with_states(32);
        let rounds = 40;
        let mut hits = 0;
        for r in 0..rounds {
            let (_, hit) = unif(&cache, &hot, 0.0);
            if r >= cap && hit {
                hits += 1;
            }
            // A distinct, larger chain each round, never requested again.
            let one_off = scaled_chain(48, 1.0 + r as f64 / 64.0);
            unif(&cache, &one_off, 0.0);
        }
        assert_eq!(cache.stats().rebinds, rounds as u64 - 1);
        let stats = cache.stats().uniformized;
        assert_eq!(stats.entries, cap, "the cap holds");
        assert!(
            2 * hits >= rounds - cap,
            "the hot chain hit in only {hits} of {} rounds",
            rounds - cap
        );
    }

    /// Acceptance: under a byte cap, a leaf artifact with no dependents is
    /// evicted before a cheaper-by-bytes uniformization that regenerative
    /// parameters hang off — and without the dependent edge, the same
    /// pressure evicts the parent instead.
    #[test]
    fn cost_aware_eviction_keeps_parent_with_dependents() {
        let parent = chain_with_states(48);
        let leaf = chain_with_states(64);
        let (fps_p, fp_l) = (model_fps(&parent), model_fps(&leaf).unif);
        let fp_p = fps_p.unif;
        let opts = RrlOptions::default();

        // Dry run (unbounded) to size the cap: parent's footprint plus the
        // leaf's, minus one byte — the leaf's insertion overflows.
        let dry = ArtifactCache::new();
        let solver = rrl_on_cache(&dry, &parent, opts);
        linked_params(&dry, &parent, fp_p, &solver, 10.0);
        let parent_bytes = dry.stats().uniformized.bytes;
        let leaf_bytes = Uniformized::new(&leaf, 0.0).approx_bytes();

        let run = |linked: bool| -> CacheStats {
            let cache = ArtifactCache::with_config(CacheConfig {
                max_entries: None,
                max_bytes: Some(parent_bytes + leaf_bytes - 1),
            });
            let solver = rrl_on_cache(&cache, &parent, opts);
            // Unlinked, the same parameters hang off a key no
            // uniformization is cached under.
            let link = if linked { fp_p } else { fps_p.full };
            linked_params(&cache, &parent, link, &solver, 10.0);
            unif(&cache, &leaf, opts.regen.theta);
            // Who survived? Probed without inserting: a missing lookup
            // would rebuild, and its insertion would evict again.
            let parent_resident = unif_resident(&cache, fp_p, opts.regen.theta);
            let leaf_resident = unif_resident(&cache, fp_l, opts.regen.theta);
            if linked {
                assert!(
                    parent_resident,
                    "the parent with dependents must survive byte pressure"
                );
                assert!(
                    !leaf_resident,
                    "the dependent-free leaf must be evicted first"
                );
            } else {
                assert!(
                    !parent_resident,
                    "without the dependent edge the cheaper parent goes"
                );
                assert!(leaf_resident);
            }
            cache.stats()
        };

        let with_edge = run(true);
        assert!(with_edge.uniformized.evictions >= 1);
        assert_eq!(
            with_edge.orphaned, 0,
            "evicting the dependent-free leaf orphans nothing"
        );
        let without_edge = run(false);
        assert!(without_edge.uniformized.evictions >= 1);
    }

    /// Evicting a parent that dependents were registered against counts
    /// them as orphaned — capacity pressure can still claim it when every
    /// alternative is heavier, but the loss is observable.
    #[test]
    fn orphaned_counts_dependents_of_evicted_parents() {
        let parent = chain_with_states(16);
        let opts = RrlOptions::default();
        let cache = ArtifactCache::with_config(CacheConfig {
            max_entries: Some(1),
            max_bytes: None,
        });
        let solver = rrl_on_cache(&cache, &parent, opts);
        linked_params(&cache, &parent, model_fps(&parent).unif, &solver, 10.0);
        // Displace the parent with an artifact heavy enough that even the
        // dependent-weighted parent is the cheaper loss.
        let other = chain_with_states(128);
        unif(&cache, &other, opts.regen.theta);
        let stats = cache.stats();
        assert_eq!(stats.uniformized.entries, 1, "cap must hold");
        assert_eq!(
            stats.orphaned, 1,
            "evicting the params' parent must count the orphan"
        );
    }

    /// `a` and `b` are rate variants of one structure, so each rebuild
    /// after the first rebinds the one resident variant.
    #[test]
    fn eviction_then_reinsert_rebuilds() {
        let cache = ArtifactCache::with_config(CacheConfig::with_max_entries(1));
        let a = chain_with_rate(1e-3);
        let b = chain_with_rate(2e-3);
        assert!(!unif(&cache, &a, 0.0).1);
        assert!(!unif(&cache, &b, 0.0).1); // evicts a
        assert!(!unif(&cache, &a, 0.0).1); // rebuild, evicts b
        assert!(!unif(&cache, &b, 0.0).1);
        let stats = cache.stats();
        assert_eq!(stats.uniformized.entries, 1);
        assert_eq!(stats.uniformized.evictions, 3);
        assert_eq!(stats.uniformized.misses, 4);
        assert_eq!(stats.rebinds, 3);
    }
}
