//! The concurrent serving runtime: a [`QueryEngine`] admitting rr / irr
//! / auto queries from many client threads against one shared
//! [`Arc<KbtimIndex>`].
//!
//! The paper's headline claim is *real-time* targeted IM — millisecond
//! keyword queries served to many concurrent advertisers — and this
//! module is the piece that turns the batch query paths into a server:
//!
//! * **Shared index**: [`KbtimIndex`] is `Send + Sync` (asserted below),
//!   so one open index serves every client thread through an `Arc`. Its
//!   scratch pool leases per-query buffers across threads (concurrent
//!   queries take distinct blocks; the pool grows to the high-water
//!   concurrency and then stops allocating) and its persistent
//!   [`kbtim_exec::ExecPool`] is built once, not per query.
//! * **One execution entry**: [`QueryEngine::query_window`] answers a
//!   caller-assembled *window* of requests in one shared execution; a
//!   single request ([`QueryEngine::query`]) is a window of one. Who
//!   rides in a window is the transport's business — `kbtim serve`
//!   forms them in its fair queue — the engine never waits for company.
//! * **Sharing inside a window**: identical requests (same keywords,
//!   same `k`, same algorithm) execute once and share the `Arc`'d
//!   outcome; each *distinct* keyword's inverted lists are decoded
//!   **at most once** into a shared [`KeywordArena`], so N different
//!   same-keyword queries pay the expensive per-keyword decode once
//!   per window, not once per request. Requests over the same keyword
//!   set additionally share one greedy run: seeds are selected
//!   sequentially and `k` only bounds the loop, so one max-`k` run
//!   prefix-slices into every member's answer.
//! * **Sharing across windows**: with a capacity configured
//!   ([`QueryEngine::set_merge_cache`]) the engine keeps two units,
//!   each in a capacity-bounded LRU keyed on the index's segment
//!   generation ([`KbtimIndex::segment_fingerprint`]). *Decoded
//!   keywords* are leased: a window's arena holds an `Arc` of the lists
//!   of every keyword the cache has and decodes — then publishes — only
//!   the rest, so each keyword's `il` is decoded once per index
//!   generation, not once per window. *Keyword sets* that recur get a
//!   prepared instance: a set's first miss only records the key and is
//!   served in place off the window's arena; its second miss builds and
//!   publishes the merged instance; from then on a window hitting it
//!   skips that set's lists *and* merge entirely, and one-shot sets
//!   never pay for an instance nobody reads again.
//! * **Determinism**: queries are read-only and scratch contents never
//!   influence answers, so any interleaving of concurrent callers —
//!   and any grouping of requests into windows — produces outcomes
//!   bit-identical to running the same requests serially, the contract
//!   `tests/concurrent_equiv.rs` enforces across every serving backend.
//!
//! The line-protocol front end (`kbtim serve`) in the facade crate is a
//! thin wrapper over this engine.

use crate::delta::{self, DeltaIndex, DeltaSnapshot};
use crate::rr_query::{self, MergedQuery};
use crate::scratch::{self, KeywordArena, KeywordLists};
use crate::{IndexError, KbtimIndex, QueryCtx, QueryOutcome};
use kbtim_topics::{Query, TopicId};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Lock a serving-tier mutex, recovering from poisoning: a client
/// thread that panicked mid-request (a contained query panic) must not
/// wedge every later request on the shared engine state. All guarded
/// state here is kept consistent between lock operations, so the
/// recovered guard is always safe to use.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Which query algorithm a request runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algo {
    /// Algorithm 2 over the RR prefix (works on both index variants).
    Rr,
    /// Algorithm 4's answer (requires the IRR variant). Served by the
    /// same keyword scan as [`Algo::Rr`] — bit-identical by Theorem 3;
    /// [`KbtimIndex::query_irr`] is the incremental NRA itself.
    Irr,
    /// No preference: the keyword scan, on either variant.
    #[default]
    Auto,
}

impl Algo {
    /// Parse the CLI/protocol spelling (`rr` / `irr` / `auto`).
    pub fn parse(s: &str) -> Option<Algo> {
        match s {
            "rr" => Some(Algo::Rr),
            "irr" => Some(Algo::Irr),
            "auto" => Some(Algo::Auto),
            _ => None,
        }
    }

    /// Stable lowercase name (the CLI/protocol spelling).
    pub fn name(&self) -> &'static str {
        match self {
            Algo::Rr => "rr",
            Algo::Irr => "irr",
            Algo::Auto => "auto",
        }
    }
}

impl std::fmt::Display for Algo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A serving-tier error: shareable (cloned to every duplicate of a
/// failed request) and convertible from the index error it wraps.
#[derive(Debug, Clone)]
pub struct EngineError(Arc<IndexError>);

impl EngineError {
    /// The underlying index error.
    pub fn index_error(&self) -> &IndexError {
        &self.0
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl std::error::Error for EngineError {}

impl From<IndexError> for EngineError {
    fn from(e: IndexError) -> EngineError {
        EngineError(Arc::new(e))
    }
}

/// One serving request: which keywords, how many seeds, which algorithm.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EngineRequest {
    /// Query keywords (topic ids) in canonical form — ascending, no
    /// duplicates, as [`EngineRequest::new`] leaves them — so that one
    /// keyword set is one coalescing identity however a client spelled
    /// it.
    pub topics: Vec<TopicId>,
    /// Number of seeds to select.
    pub k: u32,
    /// Query algorithm.
    pub algo: Algo,
}

impl EngineRequest {
    /// A request over the keyword *set* `topics` (sorted and deduped
    /// here, exactly as [`Query::new`] does) with the default
    /// ([`Algo::Auto`]) algorithm.
    pub fn new(topics: impl IntoIterator<Item = TopicId>, k: u32) -> EngineRequest {
        let mut topics: Vec<TopicId> = topics.into_iter().collect();
        topics.sort_unstable();
        topics.dedup();
        EngineRequest { topics, k, algo: Algo::Auto }
    }

    /// Builder-style algorithm override.
    pub fn with_algo(mut self, algo: Algo) -> EngineRequest {
        self.algo = algo;
        self
    }
}

/// Result type of [`QueryEngine::query`]: the outcome is `Arc`'d because
/// a window's duplicate requests share one execution's answer.
pub type EngineResult = Result<Arc<QueryOutcome>, EngineError>;

/// One kind of cached unit: a map kept in least-recently-used order by
/// the cache's shared clock, with the bytes its values keep resident.
struct Lru<K, V> {
    entries: HashMap<K, LruEntry<V>>,
    /// Σ `bytes` over live entries.
    bytes: u64,
}

struct LruEntry<V> {
    value: V,
    /// Bytes this entry keeps resident (snapshotted when stored so the
    /// books stay consistent on eviction).
    bytes: u64,
    /// Logical timestamp of the last read (or the store).
    last_used: u64,
}

impl<K: std::hash::Hash + Eq + Clone, V> Lru<K, V> {
    fn new() -> Lru<K, V> {
        Lru { entries: HashMap::new(), bytes: 0 }
    }

    /// The value under `key`, its recency bumped to `tick`.
    fn touch(&mut self, key: &K, tick: u64) -> Option<&V> {
        self.entries.get_mut(key).map(|entry| {
            entry.last_used = tick;
            &entry.value
        })
    }

    /// Drop every entry whose key fails `keep`.
    fn retain(&mut self, keep: impl Fn(&K) -> bool) {
        let bytes = &mut self.bytes;
        self.entries.retain(|key, entry| {
            let kept = keep(key);
            if !kept {
                *bytes -= entry.bytes;
            }
            kept
        });
    }

    /// Store `value` at `tick` (replacing what `key` held), then evict
    /// least-recently-used entries down to `capacity`; returns how many
    /// went.
    fn put(&mut self, key: K, value: V, bytes: u64, tick: u64, capacity: usize) -> u64 {
        if let Some(old) = self.entries.insert(key, LruEntry { value, bytes, last_used: tick }) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        let mut evicted = 0;
        while self.entries.len() > capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(key, _)| key.clone())
                .expect("len > capacity ≥ 1 implies an entry");
            self.bytes -= self.entries.remove(&victim).expect("victim just found").bytes;
            evicted += 1;
        }
        evicted
    }
}

/// What [`MergeCache::probe`] found for a keyword set.
enum Probe {
    /// A built instance: skip the decode and the merge.
    Hit(Arc<MergedQuery>),
    /// The set missed before: build the instance and publish it.
    Recurred,
    /// Never seen (now recorded): serve in place, build nothing.
    First,
}

/// The engine's cross-window cache. Two units, each a capacity-bounded
/// LRU, under one lock, one logical clock and the one `--merge-cache N`
/// number — **applied per kind**: at most `N` keyword sets *and* at
/// most `N` decoded keywords, so a scan of one-shot sets can never push
/// out the few lists every request reads.
///
/// * **Decoded keywords**, keyed by (base segment generation, keyword):
///   the lists [`KbtimIndex::decode_keywords`] produced, leased to every
///   later window as the `Arc` it holds. What is decoded is a pure
///   function of the segment bytes — never of a request's shares — so a
///   lease serves any request over that keyword for as long as the
///   fingerprint matches. This is the unit that recurs: a workload has
///   few keywords and many keyword sets.
/// * **Keyword sets**, keyed by (segment generation ⊕ mutation
///   generation, sorted keyword set): a set's first miss records the
///   key alone and is served in place; its second builds the shared
///   [`MergedQuery`] and upgrades the entry — seen and built keys in
///   the one map, so one-shot sets cost a key each and no instance. A
///   hit starts its greedy from a ready instance where in place
///   re-counts every list per request (measured: 0.39× the throughput
///   on a workload of hits, docs/ARCHITECTURE.md), which is why the
///   instance stays beside the leases.
///
/// The fingerprint in the keys ties invalidation to segment identity
/// exactly as the storage [`kbtim_storage::PageCache`] ties loaded
/// pages to it. Values are `Arc`'d: eviction drops the cache's
/// reference while in-flight windows keep theirs, so capacity changes
/// are always safe.
struct MergeCache {
    /// Maximum number of entries of each kind (≥ 1; 0 disables the
    /// cache entirely, represented as `QueryEngine::merge_cache == None`).
    capacity: usize,
    state: Mutex<MergeCacheState>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

struct MergeCacheState {
    /// Keyword sets, seen (`None`) and built.
    sets: Lru<(u64, Vec<TopicId>), Option<Arc<MergedQuery>>>,
    /// Decoded keywords.
    keywords: Lru<(u64, TopicId), KeywordLists>,
    /// Monotone logical clock backing both LRU orders.
    tick: u64,
}

impl MergeCache {
    fn new(capacity: usize) -> MergeCache {
        MergeCache {
            capacity,
            state: Mutex::new(MergeCacheState { sets: Lru::new(), keywords: Lru::new(), tick: 0 }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look up a keyword set under a segment generation, bumping its
    /// recency; a set never seen is recorded. Books every probe as a
    /// hit or a miss.
    fn probe(&self, fingerprint: u64, topics: &[TopicId]) -> Probe {
        let mut state = lock_recover(&self.state);
        state.tick += 1;
        let tick = state.tick;
        let key = (fingerprint, topics.to_vec());
        let found = state.sets.touch(&key, tick).cloned();
        if let Some(Some(merged)) = found {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Probe::Hit(merged);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if found.is_some() {
            return Probe::Recurred;
        }
        self.put_set(&mut state, key, None);
        Probe::First
    }

    /// Publish a freshly merged instance over its "seen" entry.
    /// Replacing a built one (two batches racing the same second miss)
    /// keeps the newer instance — both are bit-identical by
    /// construction.
    fn publish(&self, fingerprint: u64, topics: Vec<TopicId>, merged: Arc<MergedQuery>) {
        let mut state = lock_recover(&self.state);
        state.tick += 1;
        self.put_set(&mut state, (fingerprint, topics), Some(merged));
    }

    /// Store a keyword set at the current tick; evictions — seen and
    /// built alike, in one LRU order — are booked.
    fn put_set(
        &self,
        state: &mut MergeCacheState,
        key: (u64, Vec<TopicId>),
        merged: Option<Arc<MergedQuery>>,
    ) {
        let bytes = merged.as_ref().map_or(0, |m| m.resident_bytes());
        let evicted = state.sets.put(key, merged, bytes, state.tick, self.capacity);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Fill every empty slot of `held` (parallel to `wants`) whose
    /// keyword is resident under a base segment generation, recency
    /// bumped — one lock for a window's whole union.
    fn lease(&self, fingerprint: u64, wants: &[(TopicId, u64)], held: &mut [Option<KeywordLists>]) {
        let mut state = lock_recover(&self.state);
        state.tick += 1;
        let tick = state.tick;
        for (&(topic, _), slot) in wants.iter().zip(held) {
            if slot.is_none() {
                *slot = state.keywords.touch(&(fingerprint, topic), tick).cloned();
            }
        }
    }

    /// Keep the lists a window just decoded, trimmed to their contents,
    /// for every later window. Lists of any *other* segment generation
    /// go: after a flush nothing can read them again, and waiting for
    /// LRU to push them out would hold a dead generation resident. Two
    /// windows that missed the same keyword both arrive here; the
    /// later `Arc` wins, both being bit-identical decodes.
    fn publish_keywords(&self, fingerprint: u64, decoded: &mut KeywordArena) {
        if decoded.is_empty() {
            return;
        }
        // Before the cache's clone: trimming needs the lists unshared.
        decoded.entries.iter_mut().for_each(|(_, lists)| scratch::trim(lists));
        let mut state = lock_recover(&self.state);
        state.tick += 1;
        let tick = state.tick;
        state.keywords.retain(|&(held, _)| held == fingerprint);
        for (topic, lists) in &decoded.entries {
            let bytes = scratch::resident_bytes(lists);
            state.keywords.put(
                (fingerprint, *topic),
                Arc::clone(lists),
                bytes,
                tick,
                self.capacity,
            );
        }
    }
}

/// A concurrent query engine over one shared index (see the module
/// docs).
///
/// All methods take `&self`; wrap the engine in an `Arc` and hand clones
/// to every client thread.
pub struct QueryEngine {
    index: Arc<KbtimIndex>,
    delta: Option<Arc<DeltaIndex>>,
    /// The `--batch` setting, stored for the transport's window former
    /// (see [`QueryEngine::set_batch_window`]).
    batch_window: Option<Duration>,
    merge_cache: Option<MergeCache>,
    executed: AtomicU64,
    coalesced: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    merged_groups: AtomicU64,
    keywords_decoded: AtomicU64,
    keyword_decodes_shared: AtomicU64,
    greedy_shared: AtomicU64,
}

impl QueryEngine {
    /// An engine serving the disk paths (`rr` / `irr` / `auto`) of
    /// `index`.
    pub fn new(index: Arc<KbtimIndex>) -> QueryEngine {
        QueryEngine {
            index,
            delta: None,
            batch_window: None,
            merge_cache: None,
            executed: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            merged_groups: AtomicU64::new(0),
            keywords_decoded: AtomicU64::new(0),
            keyword_decodes_shared: AtomicU64::new(0),
            greedy_shared: AtomicU64::new(0),
        }
    }

    /// Attach a mutable delta tier (builder-style). With a delta
    /// attached, **every** request — all three algorithms — routes
    /// through the tier's union snapshot: answers reflect base ∪ delta
    /// at a pinned generation, never a stale base handle left behind by
    /// a flush. Bit-identical-across-algos invariants carry over because
    /// all algorithms serve from one union decode.
    pub fn with_delta(mut self, delta: Arc<DeltaIndex>) -> QueryEngine {
        self.delta = Some(delta);
        self
    }

    /// The attached mutable tier, if any.
    pub fn delta(&self) -> Option<&Arc<DeltaIndex>> {
        self.delta.as_ref()
    }

    /// The tier's current mutation generation (None without a delta
    /// tier). A query response is labelled with the generation that
    /// *answered* it — [`QueryStats::generation`](crate::QueryStats) —
    /// which this value may already have passed.
    pub fn generation(&self) -> Option<u64> {
        self.delta.as_ref().map(|d| d.generation())
    }

    /// The shared index this engine serves. With a delta tier attached,
    /// this is the base handle the engine was *built* over — a flush
    /// republishes a fresh base inside the tier's snapshots, so live
    /// serving state should come from
    /// [`DeltaIndex::snapshot`](crate::DeltaIndex::snapshot) instead.
    pub fn index(&self) -> &Arc<KbtimIndex> {
        &self.index
    }

    /// Requests this engine actually executed (excluding coalesced
    /// ones).
    pub fn executed(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }

    /// Requests answered by another's execution: duplicates of a request
    /// in the same window.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Store the window setting a transport reads back
    /// ([`QueryEngine::batch_window`]). The engine itself never waits:
    /// it executes the windows it is handed. `kbtim serve`'s dispatcher
    /// reads only whether one is set — `None` pins its windows to one
    /// request, any duration lets them grow with the queue.
    pub fn set_batch_window(&mut self, window: Option<Duration>) {
        self.batch_window = window;
    }

    /// Builder-style [`QueryEngine::set_batch_window`].
    pub fn with_batch_window(mut self, window: Option<Duration>) -> QueryEngine {
        self.set_batch_window(window);
        self
    }

    /// The stored window setting ([`QueryEngine::set_batch_window`]).
    pub fn batch_window(&self) -> Option<Duration> {
        self.batch_window
    }

    /// Enable (or disable, with 0) the engine's cross-window cache, of
    /// at most `entries` keyword sets **and** at most `entries` decoded
    /// keywords — one number, applied to each kind.
    ///
    /// *Decoded keywords* are keyed by the keyword and the base index's
    /// segment generation ([`KbtimIndex::segment_fingerprint`]): a
    /// window leases the lists of every keyword the cache holds, decodes
    /// the rest once and publishes them, so with room for the workload's
    /// keywords each `il` is decoded once per index generation, not once
    /// per window. A delta tier's mutations leave the leases of clean
    /// keywords in use (their bytes did not change; a dirty keyword is
    /// read from the overlay the snapshot owns); a flush opens a new
    /// base, whose keywords start from a miss.
    ///
    /// *Keyword sets* are keyed by the sorted set and the segment
    /// generation folded with the mutation generation: the planner
    /// probes before building its decode union — a set's first miss
    /// records the key and serves in place, its second builds and
    /// publishes the merged instance, and a hit skips that set's lists
    /// and merge entirely, so a recurring set pays for its instance
    /// once and a one-shot set never does.
    ///
    /// Cached values are shared read-only; answers stay bit-identical
    /// to uncached serving. [`QueryEngine::execute`] never reads or
    /// fills the cache.
    pub fn set_merge_cache(&mut self, entries: usize) {
        self.merge_cache = (entries > 0).then(|| MergeCache::new(entries));
    }

    /// Builder-style [`QueryEngine::set_merge_cache`].
    pub fn with_merge_cache(mut self, entries: usize) -> QueryEngine {
        self.set_merge_cache(entries);
        self
    }

    /// The cache's entry capacity per kind (0 = cache off).
    pub fn merge_cache_capacity(&self) -> usize {
        self.merge_cache.as_ref().map_or(0, |c| c.capacity)
    }

    /// Keyword sets the prepared-query cache holds, seen and built.
    pub fn merge_cache_len(&self) -> usize {
        self.merge_cache.as_ref().map_or(0, |c| lock_recover(&c.state).sets.entries.len())
    }

    /// Arena bytes held resident by cached prepared queries (built
    /// entries; a seen key holds none).
    pub fn merge_cache_bytes(&self) -> u64 {
        self.merge_cache.as_ref().map_or(0, |c| lock_recover(&c.state).sets.bytes)
    }

    /// Decoded keywords the cache holds for lease.
    pub fn keyword_cache_len(&self) -> usize {
        self.merge_cache.as_ref().map_or(0, |c| lock_recover(&c.state).keywords.entries.len())
    }

    /// Heap bytes the leased keyword lists keep resident (by capacity
    /// of their arenas, trimmed to the contents when published).
    pub fn keyword_cache_bytes(&self) -> u64 {
        self.merge_cache.as_ref().map_or(0, |c| lock_recover(&c.state).keywords.bytes)
    }

    /// Prepared-query cache probes that found a live entry.
    pub fn merge_cache_hits(&self) -> u64 {
        self.merge_cache.as_ref().map_or(0, |c| c.hits.load(Ordering::Relaxed))
    }

    /// Prepared-query cache probes that missed.
    pub fn merge_cache_misses(&self) -> u64 {
        self.merge_cache.as_ref().map_or(0, |c| c.misses.load(Ordering::Relaxed))
    }

    /// Entries evicted from the prepared-query cache to stay within
    /// capacity.
    pub fn merge_cache_evictions(&self) -> u64 {
        self.merge_cache.as_ref().map_or(0, |c| c.evictions.load(Ordering::Relaxed))
    }

    /// Batches the planner has executed.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Requests that went through the batch planner (across all
    /// batches, duplicates included).
    pub fn batched_requests(&self) -> u64 {
        self.batched_requests.load(Ordering::Relaxed)
    }

    /// Keyword-set coverage instances the planner resolved from a batch
    /// arena (one per distinct keyword set per batch that missed the
    /// cache — requests over the same set share it): materialized and
    /// published on a set's second miss, served in place otherwise.
    pub fn merged_groups(&self) -> u64 {
        self.merged_groups.load(Ordering::Relaxed)
    }

    /// Keyword decodes the planner actually performed: once per distinct
    /// keyword per window without a cache; with one, only for keywords
    /// it could not lease — flat once the workload's lists are resident.
    /// A dirty keyword read from a delta overlay is not a decode.
    pub fn keywords_decoded(&self) -> u64 {
        self.keywords_decoded.load(Ordering::Relaxed)
    }

    /// Keyword reads *avoided* by sharing a window: Σ over batched
    /// requests of their budgeted keyword count, minus the window's
    /// distinct keywords (leased or decoded alike). The books behind
    /// the batching claim — with batching off this stays 0.
    /// (Cache-served keyword sets count in neither side: their sharing
    /// is booked by the cache's own hit/miss counters.)
    pub fn keyword_decodes_shared(&self) -> u64 {
        self.keyword_decodes_shared.load(Ordering::Relaxed)
    }

    /// Batched requests answered by prefix-slicing a same-keyword-set
    /// group's single max-`k` greedy run instead of running their own
    /// (the first member of each group runs; the rest are counted
    /// here).
    pub fn greedy_shared(&self) -> u64 {
        self.greedy_shared.load(Ordering::Relaxed)
    }

    /// Answer `req`: a window of one through
    /// [`QueryEngine::query_window`].
    ///
    /// Safe to call from any number of threads; the answer is
    /// bit-identical to running the same request alone.
    pub fn query(&self, req: &EngineRequest) -> EngineResult {
        self.query_deadline(req, None)
    }

    /// [`QueryEngine::query`] with a per-request absolute deadline: the
    /// request aborts with [`IndexError::DeadlineExceeded`] at the next
    /// stage boundary once `deadline` passes, never returning partial
    /// seeds.
    pub fn query_deadline(&self, req: &EngineRequest, deadline: Option<Instant>) -> EngineResult {
        self.query_window(&[(req.clone(), deadline)]).remove(0)
    }

    /// Answer a caller-assembled window of requests in one shared
    /// execution — the engine's one serving entry. Results come back in
    /// request order, one per input.
    ///
    /// Duplicates execute once under the *widest* member deadline
    /// (unbounded if any duplicate is unbounded) and share that
    /// execution's fate; same-keyword-set requests share one
    /// budget/decode/greedy, whose run stops at the group's widest
    /// member deadline — if that fires, every member has expired. Every
    /// answer is bit-identical to running its request alone.
    ///
    /// Nothing here waits on another thread, so a panic inside a window
    /// simply unwinds to the caller: the transport that submitted the
    /// window contains it (`kbtim serve` answers every member
    /// `internal_error`).
    pub fn query_window(&self, requests: &[(EngineRequest, Option<Instant>)]) -> Vec<EngineResult> {
        self.run_batch(requests)
    }

    /// Execute one window: dedupe identical requests, decode the union
    /// of distinct keywords once, serve every request from the shared
    /// arena.
    fn run_batch(&self, batch: &[(EngineRequest, Option<Instant>)]) -> Vec<EngineResult> {
        // Every answer's `elapsed` counts from here: the budget, the
        // cache probe and the shared decode are part of what a request
        // waited for, as they are in `KbtimIndex::query_rr_ctx`.
        let started = Instant::now();
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests.fetch_add(batch.len() as u64, Ordering::Relaxed);

        // With a delta tier attached, pin ONE union snapshot for the
        // whole batch: every member sees the same generation, concurrent
        // writers notwithstanding, and `serving` is the snapshot's live
        // base (the engine's own handle goes stale across flushes).
        let snap: Option<Arc<DeltaSnapshot>> = self.delta.as_ref().map(|d| d.snapshot());
        let serving: &KbtimIndex = snap.as_ref().map(|s| s.base().as_ref()).unwrap_or(&self.index);

        // Identical requests in one window execute once; order of first
        // arrival is kept, though answers are order-independent anyway.
        // Duplicates share one execution, governed by the widest member
        // deadline (unbounded if any duplicate is unbounded) — every
        // duplicate shares that execution's fate.
        let mut unique: Vec<&EngineRequest> = Vec::with_capacity(batch.len());
        let mut deadlines: Vec<Option<Instant>> = Vec::with_capacity(batch.len());
        let mut slot: HashMap<&EngineRequest, usize> = HashMap::with_capacity(batch.len());
        for (req, deadline) in batch {
            match slot.get(req) {
                Some(&at) => {
                    deadlines[at] = match (deadlines[at], *deadline) {
                        (None, _) | (_, None) => None,
                        (Some(a), Some(b)) => Some(a.max(b)),
                    };
                }
                None => {
                    slot.insert(req, unique.len());
                    unique.push(req);
                    deadlines.push(*deadline);
                }
            }
        }

        // Group every request by keyword set: the Eqn-11 budget and the
        // merged coverage instance depend on the topics alone, so
        // same-keyword-set requests (different `k`, different
        // algorithm) share one budget, one merge, and differ only in
        // their greedy. The budget is computed once per group, right
        // here, and threaded through to the merge.
        struct Group {
            members: Vec<usize>,
            phi_q: f64,
            budget: Vec<(TopicId, u64)>,
            /// Canonical (sorted, deduped) keyword set — what requests
            /// group on, and the prepared-query cache key.
            key: Vec<TopicId>,
            /// Cache-resolved merged instance, probed before the union
            /// decode: a hit removes the group from the decode *and*
            /// the merge.
            cached: Option<Arc<MergedQuery>>,
            /// The cache has seen this set miss before: build its
            /// instance from the batch arena and publish it. Otherwise
            /// (first miss, or no cache) the group is served in place.
            publish: bool,
            /// Widest member deadline (unbounded if any member is):
            /// the stop hook of the group's shared greedy run — if it
            /// fires, every member has expired.
            deadline: Option<Instant>,
        }
        let variant = snap.as_ref().map_or(self.index.meta().variant, |s| s.meta().variant);
        let irr_available = matches!(variant, crate::format::IndexVariant::Irr { .. });
        let mut results: Vec<Option<EngineResult>> = vec![None; unique.len()];
        let mut groups: Vec<Group> = Vec::new();
        for (at, req) in unique.iter().enumerate() {
            // `Irr` keeps its variant check, made where `execute_ctx`
            // makes it: before any work is done on the request's behalf.
            if req.algo == Algo::Irr && !irr_available {
                self.executed.fetch_add(1, Ordering::Relaxed);
                results[at] = Some(Err(EngineError::from(IndexError::NotAnIrrIndex)));
                continue;
            }
            let query = Query::new(req.topics.iter().copied(), req.k);
            match groups.iter_mut().find(|g| g.key == query.topics()) {
                Some(group) => {
                    group.deadline = match (group.deadline, deadlines[at]) {
                        (None, _) | (_, None) => None,
                        (Some(a), Some(b)) => Some(a.max(b)),
                    };
                    group.members.push(at);
                }
                None => {
                    let (phi_q, budget) = match &snap {
                        Some(s) => s.query_budget(&query),
                        None => self.index.query_budget(&query),
                    };
                    groups.push(Group {
                        members: vec![at],
                        phi_q,
                        budget,
                        key: query.topics().to_vec(),
                        cached: None,
                        publish: false,
                        deadline: deadlines[at],
                    });
                }
            }
        }
        // Cache identity: the base segment generation XOR the (mixed)
        // delta generation — bumped by every applied batch and every
        // flush, so no prepared instance survives a mutation.
        let fingerprint = match &snap {
            Some(s) => s.base().segment_fingerprint() ^ delta::splitmix64(s.generation()),
            None => self.index.segment_fingerprint(),
        };
        if let Some(cache) = &self.merge_cache {
            for group in &mut groups {
                match cache.probe(fingerprint, &group.key) {
                    Probe::Hit(merged) => group.cached = Some(merged),
                    Probe::Recurred => group.publish = true,
                    Probe::First => {}
                }
            }
        }

        // Union of budgeted keywords across all groups, each at the
        // widest per-request share, decoded once for the whole batch.
        // Every member of a group would have needed its group's whole
        // keyword set — the `requested` side of the sharing books.
        // Cache-served groups need no decode at all, so they join
        // neither side of the union.
        let mut wants: BTreeMap<TopicId, u64> = BTreeMap::new();
        let mut requested = 0u64;
        for group in groups.iter().filter(|g| g.cached.is_none()) {
            requested += (group.budget.len() * group.members.len()) as u64;
            for &(topic, share) in &group.budget {
                let widest = wants.entry(topic).or_insert(0);
                *widest = (*widest).max(share);
            }
        }
        let wants: Vec<(TopicId, u64)> = wants.into_iter().collect();

        // Execute each keyword-set group over one shared instance. All
        // three algorithms serve from it (Theorem 3).
        let run_group = |group: &Group, arena: &KeywordArena| -> Vec<(usize, EngineResult)> {
            let fail = |e: IndexError| -> Vec<(usize, EngineResult)> {
                let err = EngineError::from(e);
                self.executed.fetch_add(group.members.len() as u64, Ordering::Relaxed);
                group.members.iter().map(|&at| (at, Err(err.clone()))).collect()
            };
            // The union's |V| (base plus ingested users) sizes the
            // instance when a delta is pinned.
            let num_users = match &snap {
                Some(s) => s.meta().num_users,
                None => serving.meta().num_users,
            };
            // A materialized instance is worth building only where it is
            // used again: a cache hit reuses the shared one, a keyword
            // set's second miss builds one from the batch arena and
            // publishes it for later batches. Everything else — a first
            // miss, or no cache — is served in place off the arena.
            if group.cached.is_none() {
                self.merged_groups.fetch_add(1, Ordering::Relaxed);
            }
            let merged: Option<Arc<MergedQuery>> = match (&group.cached, &self.merge_cache) {
                (Some(hit), _) => Some(Arc::clone(hit)),
                (None, Some(cache)) if group.publish => {
                    match serving.merge_budgeted_over(num_users, group.phi_q, &group.budget, arena)
                    {
                        Ok(merged) => {
                            let merged = Arc::new(merged);
                            cache.publish(fingerprint, group.key.clone(), Arc::clone(&merged));
                            Some(merged)
                        }
                        Err(e) => return fail(e),
                    }
                }
                (None, _) => None,
            };
            // One greedy run at the group's deepest `k` serves every
            // member: seeds are selected sequentially, so each member's
            // answer is exactly the `k`-prefix of the deep run (see
            // [`MergedQuery::prefix_outcome`]). The run stops at the
            // group's widest member deadline; a stop means every member
            // expired, so the whole group fails with the deadline error
            // (no partial seeds escape).
            let k_max = group.members.iter().map(|&at| unique[at].k).max().unwrap_or(0);
            let group_ctx = QueryCtx { deadline: group.deadline };
            let full = match &merged {
                Some(merged) => serving.query_merged_ctx(merged, k_max, &group_ctx),
                None => serving.query_arena_ctx(
                    num_users,
                    group.phi_q,
                    &group.budget,
                    arena,
                    k_max,
                    &group_ctx,
                ),
            };
            // Sole owner (the entry was already evicted and nobody else
            // holds it) → the arenas recycle; otherwise the cache keeps
            // the instance alive for the next hit and the Arc simply
            // drops.
            if let Some(Ok(sole)) = merged.map(Arc::try_unwrap) {
                serving.recycle_merged(sole);
            }
            let full = match full {
                Ok(mut full) => {
                    full.stats.generation = snap.as_ref().map(|s| s.generation());
                    full.stats.elapsed = started.elapsed();
                    Arc::new(full)
                }
                Err(e) => return fail(e),
            };
            if group.members.len() > 1 {
                self.greedy_shared.fetch_add(group.members.len() as u64 - 1, Ordering::Relaxed);
            }
            group
                .members
                .iter()
                .map(|&at| {
                    self.executed.fetch_add(1, Ordering::Relaxed);
                    let outcome = if group.members.len() == 1 {
                        Arc::clone(&full)
                    } else {
                        Arc::new(rr_query::prefix_outcome(&full, unique[at].k, group.phi_q))
                    };
                    (at, Ok(outcome))
                })
                .collect()
        };

        let union_arena = if wants.is_empty() {
            Ok(KeywordArena::default())
        } else {
            self.lease_or_decode(serving, snap.as_deref(), &wants)
        };
        match union_arena {
            Ok(arena) => {
                self.keyword_decodes_shared
                    .fetch_add(requested.saturating_sub(wants.len() as u64), Ordering::Relaxed);
                // Group answers are independent, so groups fan out on
                // the index's persistent exec pool: a window of G
                // disjoint keyword sets would otherwise serialize on
                // the one thread that submitted it. Nested parallel
                // recounts inside `query_merged` degrade to inline
                // execution on the occupied pool, so the fan-out can
                // never deadlock; answers are unaffected either way —
                // only wall-clock.
                if groups.len() <= 1 {
                    for group in &groups {
                        for (at, result) in run_group(group, &arena) {
                            results[at] = Some(result);
                        }
                    }
                } else {
                    let per_group =
                        serving.pool().map_shards(groups.len(), |i| run_group(&groups[i], &arena));
                    for group_results in per_group {
                        for (at, result) in group_results {
                            results[at] = Some(result);
                        }
                    }
                }
                serving.recycle_keywords(arena);
            }
            Err(union_err) => {
                // The union decode hit an unreadable keyword. Answers
                // must not depend on which unrelated requests share a
                // window, so retry *per group*: groups whose own
                // keywords are healthy still get their serial answers;
                // only groups referencing the failed keyword(s) see the
                // error — exactly the per-request semantics.
                // (Cache-served groups never needed the decode, so they
                // are served straight from their cached instance.) A
                // lone decoding group *was* the union: its error is the
                // answer, with no second attempt.
                let decoding = groups.iter().filter(|g| g.cached.is_none()).count();
                let mut lone_err = (decoding == 1).then_some(union_err);
                for group in &groups {
                    if group.cached.is_some() {
                        for (at, result) in run_group(group, &KeywordArena::default()) {
                            results[at] = Some(result);
                        }
                        continue;
                    }
                    let retried = match lone_err.take() {
                        Some(e) => Err(e),
                        None => self.lease_or_decode(serving, snap.as_deref(), &group.budget),
                    };
                    match retried {
                        Ok(arena) => {
                            for (at, result) in run_group(group, &arena) {
                                results[at] = Some(result);
                            }
                            serving.recycle_keywords(arena);
                        }
                        Err(e) => {
                            let err = EngineError::from(e);
                            self.executed.fetch_add(group.members.len() as u64, Ordering::Relaxed);
                            for &at in &group.members {
                                results[at] = Some(Err(err.clone()));
                            }
                        }
                    }
                }
            }
        }
        self.coalesced.fetch_add((batch.len() - unique.len()) as u64, Ordering::Relaxed);
        batch
            .iter()
            .map(|(req, _)| results[slot[req]].clone().expect("every unique request executed"))
            .collect()
    }

    /// The lists a window — or one retried group of it — reads, as one
    /// arena: lease or decode, then publish. A dirty keyword comes from
    /// the pinned snapshot's overlay and a resident one from the cache,
    /// both as the `Arc` their owner holds; the rest are decoded from
    /// `serving` in one call and, only once that call returned `Ok`,
    /// published for later windows — a decode that failed or met
    /// hostile bytes leaves nothing behind. Leases are taken under the
    /// *base* fingerprint: a mutation bumps the delta generation, not
    /// the bytes of a clean keyword. Without a cache (and without a
    /// delta) this is the plain decode. `wants` is ascending.
    fn lease_or_decode(
        &self,
        serving: &KbtimIndex,
        snap: Option<&DeltaSnapshot>,
        wants: &[(TopicId, u64)],
    ) -> Result<KeywordArena, IndexError> {
        let fingerprint = serving.segment_fingerprint();
        let mut held: Vec<Option<KeywordLists>> =
            wants.iter().map(|&(topic, _)| snap.and_then(|s| s.overlay_lists(topic))).collect();
        if let Some(cache) = &self.merge_cache {
            cache.lease(fingerprint, wants, &mut held);
        }
        let missing: Vec<(TopicId, u64)> = wants
            .iter()
            .zip(&held)
            .filter_map(|(want, lists)| lists.is_none().then_some(*want))
            .collect();
        // Called even with nothing missing: the decode stage — and its
        // failpoint — is entered once per window either way.
        let mut arena = serving.decode_keywords(&missing)?;
        self.keywords_decoded.fetch_add(missing.len() as u64, Ordering::Relaxed);
        if let Some(cache) = &self.merge_cache {
            cache.publish_keywords(fingerprint, &mut arena);
        }
        for (&(topic, _), lists) in wants.iter().zip(held) {
            if let Some(lists) = lists {
                arena.insert(topic, lists);
            }
        }
        Ok(arena)
    }

    /// Run the request directly and alone — **off the serving path**:
    /// the serial per-request reference the gates and benches compare
    /// windows against (a window of one compared with itself would
    /// prove nothing). Counts in no book.
    pub fn execute(&self, req: &EngineRequest) -> EngineResult {
        self.execute_ctx(req, &QueryCtx::default())
    }

    /// [`QueryEngine::execute`] under an execution context (see
    /// [`QueryCtx`]): the deadline is enforced at the index's stage
    /// boundaries.
    pub fn execute_ctx(&self, req: &EngineRequest, ctx: &QueryCtx) -> EngineResult {
        let query = Query::new(req.topics.iter().copied(), req.k);
        // A delta tier routes every algorithm through one pinned union
        // snapshot: the base handle captured at engine build goes stale
        // the moment a flush lands, and the per-algo bit-identity
        // invariants survive because all three serve from the same
        // union decode.
        let snap = self.delta.as_ref().map(|delta| delta.snapshot());
        // `Irr` keeps its variant check and gets Theorem 3's answer
        // from the keyword scan (the NRA itself is
        // `KbtimIndex::query_irr`): decode → count → tiered CELF in
        // place is the one disk pipeline, as in `run_batch`.
        let variant = snap.as_ref().map_or(self.index.meta().variant, |s| s.meta().variant);
        if req.algo == Algo::Irr && !matches!(variant, crate::format::IndexVariant::Irr { .. }) {
            return Err(EngineError::from(IndexError::NotAnIrrIndex));
        }
        if let Some(snap) = snap {
            return Ok(Arc::new(snap.query_ctx(&query, ctx)?));
        }
        Ok(Arc::new(self.index.query_rr_ctx(&query, ctx)?))
    }
}

// The serving runtime's foundation: one index, one engine, any number of
// client threads. A compile error here means a field regressed to a
// non-thread-safe type.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<KbtimIndex>();
    assert_send_sync::<QueryEngine>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{IndexBuildConfig, IndexBuilder};
    use crate::format::IndexVariant;
    use kbtim_core::theta::SamplingConfig;
    use kbtim_datagen::{Dataset, DatasetConfig, DatasetFamily};
    use kbtim_propagation::model::IcModel;
    use kbtim_storage::{IoStats, TempDir};

    fn build_index(dir: &std::path::Path) -> (Dataset, IndexBuildConfig, Arc<KbtimIndex>) {
        build_index_as(dir, IndexVariant::Irr { partition_size: 20 })
    }

    fn build_index_as(
        dir: &std::path::Path,
        variant: IndexVariant,
    ) -> (Dataset, IndexBuildConfig, Arc<KbtimIndex>) {
        let data = DatasetConfig::family(DatasetFamily::News)
            .num_users(400)
            .num_topics(6)
            .seed(91)
            .build();
        let model = IcModel::weighted_cascade(&data.graph);
        let config = IndexBuildConfig {
            sampling: SamplingConfig {
                theta_cap: Some(1_000),
                opt_initial_samples: 64,
                opt_max_rounds: 5,
                ..SamplingConfig::fast()
            },
            variant,
            ..IndexBuildConfig::default()
        };
        IndexBuilder::new(&model, &data.profiles, config).build(dir).unwrap();
        let index = Arc::new(KbtimIndex::open(dir, IoStats::new()).unwrap());
        (data, config, index)
    }

    fn build_engine(dir: &std::path::Path) -> QueryEngine {
        QueryEngine::new(build_index(dir).2)
    }

    /// Instances `merge_csrs` built on this thread (a window of one
    /// keyword set runs its group on the caller).
    fn materialized() -> u64 {
        rr_query::MATERIALIZED.with(|n| n.get())
    }

    fn assert_same_answer(got: &QueryOutcome, want: &QueryOutcome, what: &str) {
        assert_eq!(got.seeds, want.seeds, "{what}");
        assert_eq!(got.marginal_gains, want.marginal_gains, "{what}");
        assert_eq!(got.coverage, want.coverage, "{what}");
        assert_eq!(got.estimated_influence.to_bits(), want.estimated_influence.to_bits(), "{what}");
    }

    #[test]
    fn engine_matches_direct_queries() {
        let dir = TempDir::new("engine-direct").unwrap();
        let engine = build_engine(dir.path());
        let query = Query::new([0u32, 1], 8);
        let direct_rr = engine.index().query_rr(&query).unwrap();
        let direct_irr = engine.index().query_irr(&query).unwrap();
        for (algo, want) in [(Algo::Rr, &direct_rr), (Algo::Irr, &direct_irr)] {
            let got = engine.query(&EngineRequest::new([0, 1], 8).with_algo(algo)).unwrap();
            assert_eq!(got.seeds, want.seeds, "{algo}");
            assert_eq!(got.coverage, want.coverage, "{algo}");
        }
    }

    #[test]
    fn identical_requests_in_a_window_share_one_answer() {
        let dir = TempDir::new("engine-coalesce").unwrap();
        let engine = build_engine(dir.path());
        let req = EngineRequest::new([0, 1, 2], 10).with_algo(Algo::Rr);
        let serial = engine.execute(&req).unwrap();
        let issued = 16;

        let window: Vec<_> = (0..issued).map(|_| (req.clone(), None)).collect();
        for got in engine.query_window(&window) {
            let got = got.unwrap();
            assert_eq!(got.seeds, serial.seeds);
            assert_eq!(got.marginal_gains, serial.marginal_gains);
        }
        // One execution, every other member coalesced onto it (the
        // serial oracle went through `execute`, which never counts).
        assert_eq!((engine.executed(), engine.coalesced()), (1, issued as u64 - 1));
    }

    #[test]
    fn batched_engine_matches_serial_execution() {
        let dir = TempDir::new("engine-batch").unwrap();
        let engine = build_engine(dir.path()).with_batch_window(Some(Duration::from_micros(200)));
        let reqs = [
            EngineRequest::new([0, 1], 4).with_algo(Algo::Rr),
            EngineRequest::new([0, 1], 9).with_algo(Algo::Irr),
            EngineRequest::new([1, 2], 6).with_algo(Algo::Auto),
            EngineRequest::new([4], 3).with_algo(Algo::Rr),
        ];
        for req in &reqs {
            let serial = engine.execute(req).unwrap();
            let batched = engine.query(req).unwrap();
            assert_eq!(batched.seeds, serial.seeds, "{req:?}");
            assert_eq!(batched.marginal_gains, serial.marginal_gains, "{req:?}");
            assert_eq!(batched.coverage, serial.coverage, "{req:?}");
            assert_eq!(batched.stats.theta_q, serial.stats.theta_q, "{req:?}");
            assert!(
                (batched.estimated_influence - serial.estimated_influence).abs() < 1e-12,
                "{req:?}"
            );
        }
        // Each query() above formed its own (singleton) batch; the books
        // must say so, and sharing never triggers with one request.
        assert_eq!(engine.batches(), reqs.len() as u64);
        assert_eq!(engine.batched_requests(), reqs.len() as u64);
        assert!(engine.batch_window().is_some());
    }

    #[test]
    fn batched_requests_fail_only_groups_touching_corrupt_keywords() {
        let dir = TempDir::new("engine-batch-partial-corrupt").unwrap();
        let engine = build_engine(dir.path());
        let healthy = EngineRequest::new([0, 1], 5).with_algo(Algo::Rr);
        let doomed = EngineRequest::new([3], 4).with_algo(Algo::Rr);
        let healthy_serial = engine.execute(&healthy).unwrap();

        // Corrupt only keyword 3's segment; [0, 1] stay readable.
        std::fs::write(dir.path().join(crate::format::keyword_file_name(3)), b"x").unwrap();

        // Both in one window: the union decode fails on keyword 3, but
        // the healthy group's answer must not depend on its
        // window-mates — it gets its serial result, only the group
        // referencing the corrupt keyword errors.
        let mut results = engine.query_window(&[(healthy, None), (doomed, None)]).into_iter();
        let got = results.next().unwrap().expect("healthy group must survive the window");
        assert_eq!(got.seeds, healthy_serial.seeds);
        assert_eq!(got.marginal_gains, healthy_serial.marginal_gains);
        assert!(results.next().unwrap().is_err(), "corrupt-keyword group must error");
        assert_eq!(engine.executed() + engine.coalesced(), 2);
    }

    #[test]
    fn decode_keywords_normalizes_unsorted_wants() {
        let dir = TempDir::new("engine-unsorted-wants").unwrap();
        let engine = build_engine(dir.path());
        let index = engine.index();
        let query = Query::new([0u32, 1, 2], 6);
        let oracle = index.query_rr(&query).unwrap();
        // Reversed and with a duplicate at a smaller share: the arena
        // must still come out strictly ascending with the widest share.
        let sorted: Vec<(u32, u64)> = index.query_budget(&query).1;
        let mut scrambled: Vec<(u32, u64)> = sorted.iter().rev().copied().collect();
        scrambled.push((sorted[0].0, 1));
        let arena = index.decode_keywords(&scrambled).unwrap();
        assert_eq!(arena.len(), sorted.len());
        let merged = index.merge_keywords(&query, &arena).unwrap();
        let got = index.query_merged(&merged, query.k());
        assert_eq!(got.seeds, oracle.seeds);
        assert_eq!(got.coverage, oracle.coverage);
        index.recycle_merged(merged);
        index.recycle_keywords(arena);
    }

    #[test]
    fn a_window_shares_keyword_decodes() {
        let dir = TempDir::new("engine-batch-share").unwrap();
        let engine = build_engine(dir.path());
        // Six *distinct* requests over the same two keywords: identical
        // coalescing can't help, only the planner's shared decode can.
        let reqs: Vec<EngineRequest> =
            (0..6).map(|i| EngineRequest::new([0, 1], 3 + i as u32).with_algo(Algo::Rr)).collect();
        let serial: Vec<_> = reqs.iter().map(|r| engine.execute(r).unwrap()).collect();

        // One window: the six, plus a duplicate of reqs[0] that
        // coalesces onto it.
        let window: Vec<_> = reqs.iter().chain([&reqs[0]]).map(|req| (req.clone(), None)).collect();
        let got = engine.query_window(&window);
        for (got, want) in got.iter().zip(serial.iter().chain([&serial[0]])) {
            let got = got.as_ref().unwrap();
            assert_eq!(got.seeds, want.seeds);
            assert_eq!(got.marginal_gains, want.marginal_gains);
        }
        // One window of 7 requests, 6 unique, one keyword-set group:
        // every unique request would have decoded 2 keywords (12
        // requested) but the planner decoded each distinct keyword
        // once.
        assert_eq!((engine.batches(), engine.batched_requests()), (1, reqs.len() as u64 + 1));
        assert_eq!((engine.keywords_decoded(), engine.keyword_decodes_shared()), (2, 10));
        // The group's six members shared one max-k greedy run.
        assert_eq!(engine.greedy_shared(), reqs.len() as u64 - 1);
        assert_eq!((engine.executed(), engine.coalesced()), (reqs.len() as u64, 1));
    }

    #[test]
    fn elapsed_counts_from_the_start_of_the_window() {
        // Arms a failpoint: the registry is process-global.
        let _lease = kbtim_fault::exclusive();
        let dir = TempDir::new("engine-elapsed").unwrap();
        let engine = build_engine(dir.path());
        let req = EngineRequest::new([0, 1], 5).with_algo(Algo::Rr);
        // The shared decode is the largest stage of a cold request; a
        // response's `elapsed_us` must include it, as the per-request
        // reference's does.
        kbtim_fault::arm("engine.decode", "delay(20000)").unwrap();
        let delay = Duration::from_millis(20);
        assert!(engine.execute(&req).unwrap().stats.elapsed >= delay);
        let got = engine.query_window(&[(req, None)]).remove(0).unwrap();
        assert!(got.stats.elapsed >= delay, "elapsed {:?} omits the decode", got.stats.elapsed);
    }

    #[test]
    fn a_window_refuses_irr_on_an_rr_index_before_any_work() {
        let dir = TempDir::new("engine-irr-on-rr").unwrap();
        let engine = QueryEngine::new(build_index_as(dir.path(), IndexVariant::Rr).2);
        let irr = |k| (EngineRequest::new([0, 1], k).with_algo(Algo::Irr), None);
        for got in engine.query_window(&[irr(4), irr(7)]) {
            let err = got.unwrap_err();
            assert!(matches!(err.index_error(), IndexError::NotAnIrrIndex), "{err}");
        }
        assert_eq!((engine.keywords_decoded(), engine.merged_groups()), (0, 0));
        assert_eq!(engine.executed(), 2);

        // A mixed window still answers its `rr` / `auto` members bit
        // for bit, and only they are decoded for.
        let rr = EngineRequest::new([0, 1], 5).with_algo(Algo::Rr);
        let auto = EngineRequest::new([0, 1], 9);
        let want = [engine.execute(&rr).unwrap(), engine.execute(&auto).unwrap()];
        let mut got = engine.query_window(&[irr(6), (rr, None), (auto, None)]).into_iter();
        assert!(got.next().unwrap().is_err());
        for want in &want {
            assert_same_answer(&got.next().unwrap().unwrap(), want, "mixed window");
        }
        assert_eq!((engine.keywords_decoded(), engine.merged_groups()), (2, 1));
    }

    #[test]
    fn merge_cache_builds_on_the_second_miss_and_hits_from_the_third() {
        let dir = TempDir::new("engine-merge-cache").unwrap();
        let engine = build_engine(dir.path())
            .with_batch_window(Some(Duration::from_micros(100)))
            .with_merge_cache(4);
        assert_eq!(engine.merge_cache_capacity(), 4);
        let reqs = [EngineRequest::new([0, 1], 6).with_algo(Algo::Rr), EngineRequest::new([2], 4)];
        let built_before = materialized();

        // Round 0, first miss: the key is recorded, the group is served
        // in place, nothing is built. Round 1, second miss: the lists
        // leased, built, published. Rounds 2..: hits — the decode books
        // stay flat. `k` varies (the cached instance is k-independent)
        // and every answer matches the uncached serial oracle bit for
        // bit.
        let mut decoded = [0u64; 6];
        for round in 0..6u32 {
            for req in &reqs {
                let hot = EngineRequest { k: req.k + round, ..req.clone() };
                let want = engine.execute(&hot).unwrap();
                assert_same_answer(&engine.query(&hot).unwrap(), &want, &format!("{hot:?}"));
            }
            decoded[round as usize] = engine.keywords_decoded();
            let (len, bytes, built) =
                (engine.merge_cache_len(), engine.merge_cache_bytes(), materialized());
            match round {
                0 => {
                    assert_eq!((len, bytes, built), (2, 0, built_before), "first miss built");
                    assert_eq!((engine.merge_cache_hits(), engine.merge_cache_misses()), (0, 2));
                }
                1 => {
                    assert_eq!((len, built), (2, built_before + 2), "second miss publishes");
                    assert!(bytes > 0);
                    assert_eq!((engine.merge_cache_hits(), engine.merge_cache_misses()), (0, 4));
                }
                _ => assert_eq!(built, built_before + 2, "a hit rebuilt its instance"),
            }
        }
        assert_eq!(decoded[1], decoded[0], "the second miss leases what the first decoded");
        assert_eq!(decoded[5], decoded[1], "cache hits must not decode keywords");
        assert_eq!(engine.merge_cache_hits(), 8);
        assert_eq!(engine.merge_cache_misses(), 4);
        assert_eq!(engine.merge_cache_evictions(), 0);
    }

    #[test]
    fn keyword_sets_sharing_a_keyword_decode_it_once_across_windows() {
        let dir = TempDir::new("engine-keyword-lease").unwrap();
        let engine = build_engine(dir.path()).with_merge_cache(8);
        // Answers one window against the serial oracle; returns the
        // block reads the window made (the oracle reads for itself,
        // outside the bracket — `build_index` opens the `file` backend).
        let ask = |topics: &[TopicId], k| -> u64 {
            let req = EngineRequest::new(topics.iter().copied(), k).with_algo(Algo::Rr);
            let want = engine.execute(&req).unwrap();
            let before = engine.index().io_stats().read_ops();
            let got = engine.query(&req).unwrap();
            assert_same_answer(&got, &want, &format!("{req:?}"));
            assert_eq!(got.stats.io.read_ops, 0, "a window's answer books no read of its own");
            engine.index().io_stats().read_ops() - before
        };
        // Three windows, three different keyword sets — every probe of
        // the set map is a first miss — over three keywords.
        assert_eq!(ask(&[0, 1], 5), 2, "one `il` read per decoded keyword");
        assert_eq!((engine.keywords_decoded(), engine.keyword_cache_len()), (2, 2));
        assert_eq!(ask(&[1, 2], 7), 1, "1 was leased");
        assert_eq!((engine.keywords_decoded(), engine.keyword_cache_len()), (3, 3), "1 was leased");
        assert_eq!(ask(&[0, 2], 4) + ask(&[0, 1, 2], 9), 0, "a leased keyword reads no block");
        assert_eq!(engine.keywords_decoded(), 3, "a window over leased keywords decodes nothing");
        assert_eq!((engine.merge_cache_hits(), engine.merge_cache_misses()), (0, 4));
        assert_eq!(engine.merge_cache_bytes(), 0, "no set recurred: no instance was built");
        // Resident bytes are the lists' own, trimmed to their contents.
        let (_, budget) = engine.index().query_budget(&Query::new([0u32, 1, 2], 1));
        let arena = engine.index().decode_keywords(&budget).unwrap();
        let exact: u64 =
            arena.entries.iter().flat_map(|(_, l)| l.iter()).map(|c| c.arena_bytes()).sum();
        engine.index().recycle_keywords(arena);
        assert_eq!(engine.keyword_cache_bytes(), exact);
    }

    #[test]
    fn without_a_cache_no_list_is_retained() {
        let dir = TempDir::new("engine-keyword-nocache").unwrap();
        let engine = build_engine(dir.path());
        for round in 0..3u64 {
            let window: Vec<_> =
                [[0, 1], [1, 2]].iter().map(|t| (EngineRequest::new(*t, 5), None)).collect();
            engine.query_window(&window).into_iter().for_each(|got| drop(got.unwrap()));
            assert_eq!(engine.keywords_decoded(), 3 * (round + 1), "every window decodes");
            assert_eq!((engine.keyword_cache_len(), engine.keyword_cache_bytes()), (0, 0));
        }
        // The lists went back to the scratch pool instead: 3 keywords
        // × 1 shard.
        assert_eq!(engine.index().scratch.spare_csr_capacities().len(), 3);
    }

    #[test]
    fn a_capacity_of_one_keeps_one_keyword_and_a_lease_outlives_its_eviction() {
        let dir = TempDir::new("engine-keyword-evict").unwrap();
        let engine = build_engine(dir.path()).with_merge_cache(1);
        let a = EngineRequest::new([0], 6).with_algo(Algo::Rr);
        let b = EngineRequest::new([3], 6).with_algo(Algo::Rr);
        let want = [engine.execute(&a).unwrap(), engine.execute(&b).unwrap()];
        for round in 0..3u64 {
            for (i, req) in [&a, &b].into_iter().enumerate() {
                assert_same_answer(&engine.query(req).unwrap(), &want[i], "alternating");
                assert_eq!(engine.keyword_cache_len(), 1);
                assert_eq!(
                    engine.keywords_decoded(),
                    2 * round + i as u64 + 1,
                    "evicted: decoded again"
                );
            }
        }

        // A window's arena holds {3}'s lists (resident: `b` ran last);
        // another window then evicts them from the cache; the first
        // window still finishes on the lists it leased.
        let index = engine.index();
        let (phi_q, budget) = index.query_budget(&Query::new(b.topics.iter().copied(), b.k));
        let decoded = engine.keywords_decoded();
        let arena = engine.lease_or_decode(index, None, &budget).unwrap();
        assert_eq!(engine.keywords_decoded(), decoded, "a lease, not a decode");
        engine.query(&a).unwrap();
        assert_eq!(engine.keywords_decoded(), decoded + 1);
        let users = index.meta().num_users;
        let ctx = QueryCtx::default();
        let got = index.query_arena_ctx(users, phi_q, &budget, &arena, b.k, &ctx).unwrap();
        assert_same_answer(&got, &want[1], "finished on an evicted lease");
        // The window was the lists' last holder: they go to the pool.
        let spare = index.scratch.spare_csr_capacities().len();
        index.recycle_keywords(arena);
        assert_eq!(index.scratch.spare_csr_capacities().len(), spare + 1);
    }

    #[test]
    fn a_failed_decode_publishes_nothing() {
        // Arms a failpoint: the registry is process-global.
        let _lease = kbtim_fault::exclusive();
        let dir = TempDir::new("engine-keyword-fault").unwrap();
        let engine = build_engine(dir.path()).with_merge_cache(4);
        let req = EngineRequest::new([0, 1], 5).with_algo(Algo::Rr);
        let want = engine.execute(&req).unwrap();

        kbtim_fault::arm("engine.decode", "1*err").unwrap();
        let err = engine.query(&req).unwrap_err();
        assert!(matches!(err.index_error(), IndexError::Injected("engine.decode")), "{err}");
        assert_eq!((engine.keyword_cache_len(), engine.keywords_decoded()), (0, 0));

        assert_same_answer(&engine.query(&req).unwrap(), &want, "after the failed decode");
        assert_eq!((engine.keyword_cache_len(), engine.keywords_decoded()), (2, 2));

        // One unreadable keyword fails the union; the retried healthy
        // group publishes its own lists, the failed group nothing.
        std::fs::write(dir.path().join(crate::format::keyword_file_name(3)), b"x").unwrap();
        let doomed = EngineRequest::new([2, 3], 4).with_algo(Algo::Rr);
        let healthy = EngineRequest::new([1, 4], 4).with_algo(Algo::Rr);
        let want = engine.execute(&healthy).unwrap();
        let mut got = engine.query_window(&[(doomed, None), (healthy, None)]).into_iter();
        assert!(got.next().unwrap().is_err());
        assert_same_answer(&got.next().unwrap().unwrap(), &want, "healthy group");
        assert_eq!(
            (engine.keyword_cache_len(), engine.keywords_decoded()),
            (3, 3),
            "4 joined 0, 1"
        );
    }

    #[test]
    fn merge_cache_evicts_seen_and_built_keys_in_one_lru_order() {
        let dir = TempDir::new("engine-merge-evict").unwrap();
        let engine = build_engine(dir.path())
            .with_batch_window(Some(Duration::from_micros(100)))
            .with_merge_cache(2);
        let a = EngineRequest::new([0, 1], 5).with_algo(Algo::Rr);
        let b = EngineRequest::new([2, 3], 5).with_algo(Algo::Rr);
        let c = EngineRequest::new([4], 5).with_algo(Algo::Rr);
        let serial_a = engine.execute(&a).unwrap();
        let built_before = materialized();
        let books = |engine: &QueryEngine| {
            (engine.merge_cache_len(), engine.merge_cache_evictions(), engine.merge_cache_bytes())
        };

        engine.query(&a).unwrap(); // seen {a}
        engine.query(&a).unwrap(); // built {a}
        let bytes_a = engine.merge_cache_bytes();
        assert!(bytes_a > 0);
        engine.query(&b).unwrap(); // seen {b}: a seen key takes a slot
        assert_eq!(books(&engine), (2, 0, bytes_a));
        engine.query(&c).unwrap(); // seen {c} evicts the oldest — built {a}
        assert_eq!(books(&engine), (2, 1, 0), "bytes track built entries only");
        engine.query(&b).unwrap(); // {b} was kept as seen: second miss, built
        assert_eq!(materialized(), built_before + 2);
        assert!(engine.merge_cache_bytes() > 0);
        // {a} was forgotten with its instance: a first miss again, which
        // evicts the oldest — the seen key {c}.
        assert_same_answer(&engine.query(&a).unwrap(), &serial_a, "re-missed a");
        assert_eq!((engine.merge_cache_len(), engine.merge_cache_evictions()), (2, 2));
        engine.query(&c).unwrap(); // {c} evicted while seen: a first miss again
        assert_eq!(materialized(), built_before + 2, "an evicted seen key still counted");
        assert_eq!(books(&engine), (2, 3, 0), "built {{b}} was the oldest");
        assert_eq!((engine.merge_cache_hits(), engine.merge_cache_misses()), (0, 7));
    }

    #[test]
    fn a_mutation_forgets_what_the_merge_cache_has_seen() {
        let dir = TempDir::new("engine-merge-generation").unwrap();
        let (data, config, index) = build_index(dir.path());
        let tier = Arc::new(
            DeltaIndex::attach(Arc::clone(&index), &data.graph, &data.profiles, config).unwrap(),
        );
        let engine = QueryEngine::new(index)
            .with_batch_window(Some(Duration::from_micros(100)))
            .with_merge_cache(4)
            .with_delta(Arc::clone(&tier));
        let req = EngineRequest::new([0, 1], 6);
        let built_before = materialized();

        engine.query(&req).unwrap(); // seen at generation 0
        tier.apply(&[crate::Mutation::IngestUser]).unwrap();
        // The key carries the generation: the same keyword set is a first
        // miss again, not the recurrence that would build.
        let want = engine.execute(&req).unwrap();
        assert_same_answer(&engine.query(&req).unwrap(), &want, "after the mutation");
        assert_eq!(materialized(), built_before, "a stale seen key counted as a recurrence");
        assert_eq!(engine.merge_cache_len(), 2, "the old generation's key ages out by LRU");
        engine.query(&req).unwrap(); // second miss at this generation
        assert_eq!(materialized(), built_before + 1);
        assert_same_answer(&engine.query(&req).unwrap(), &want, "hit");
        assert_eq!((engine.merge_cache_hits(), engine.merge_cache_misses()), (1, 3));
    }

    #[test]
    fn permuted_and_repeated_topics_are_one_keyword_set() {
        let dir = TempDir::new("engine-canonical-topics").unwrap();
        let engine = build_engine(dir.path()).with_merge_cache(4);
        let want = engine.execute(&EngineRequest::new([0, 1], 6)).unwrap();
        let built_before = materialized();

        // As the front end parses them: one identity, so one execution
        // and two coalesced onto it.
        let spellings = [vec![1, 0], vec![0, 1], vec![0, 0, 1]];
        let parsed: Vec<_> =
            spellings.iter().map(|t| (EngineRequest::new(t.iter().copied(), 6), None)).collect();
        assert!(parsed.iter().all(|(req, _)| req.topics == [0, 1]));
        for got in engine.query_window(&parsed) {
            assert_same_answer(&got.unwrap(), &want, "parsed spelling");
        }
        assert_eq!(
            (engine.keywords_decoded(), engine.coalesced(), engine.greedy_shared()),
            (2, 2, 0)
        );
        assert_eq!((engine.merge_cache_len(), engine.merge_cache_misses()), (1, 1));
        assert_eq!(materialized(), built_before, "one window is one miss, not a recurrence");

        // Built around `new`, a spelling is its own request but still
        // the same keyword set: one group, one probe (the second miss),
        // one greedy run shared three ways.
        let raw: Vec<_> = spellings
            .iter()
            .map(|t| (EngineRequest { topics: t.clone(), k: 6, algo: Algo::Auto }, None))
            .collect();
        for got in engine.query_window(&raw) {
            assert_same_answer(&got.unwrap(), &want, "raw spelling");
        }
        // The decode books stay at 2: the second miss leased its lists.
        assert_eq!(
            (engine.keywords_decoded(), engine.coalesced(), engine.greedy_shared()),
            (2, 2, 2)
        );
        assert_eq!((engine.merge_cache_len(), engine.merge_cache_misses()), (1, 2));
        assert_eq!(materialized(), built_before + 1);
    }

    #[test]
    fn segment_fingerprint_tracks_index_generation() {
        let data = DatasetConfig::family(DatasetFamily::News)
            .num_users(300)
            .num_topics(4)
            .seed(97)
            .build();
        let model = IcModel::weighted_cascade(&data.graph);
        let config = IndexBuildConfig {
            sampling: SamplingConfig {
                theta_cap: Some(400),
                opt_initial_samples: 64,
                opt_max_rounds: 4,
                ..SamplingConfig::fast()
            },
            ..IndexBuildConfig::default()
        };
        let dir = TempDir::new("engine-fingerprint").unwrap();
        IndexBuilder::new(&model, &data.profiles, config).build(dir.path()).unwrap();
        let first = KbtimIndex::open(dir.path(), IoStats::new()).unwrap().segment_fingerprint();
        let again = KbtimIndex::open(dir.path(), IoStats::new()).unwrap().segment_fingerprint();
        assert_eq!(first, again, "same on-disk generation must agree");

        // Rebuild in place with a different sample budget: segment
        // lengths (and mtimes) change, so the identity must too — a
        // prepared-query cache keyed by it can never serve entries
        // across generations.
        let rebuilt_config = IndexBuildConfig {
            sampling: SamplingConfig { theta_cap: Some(700), ..config.sampling },
            ..config
        };
        IndexBuilder::new(&model, &data.profiles, rebuilt_config).build(dir.path()).unwrap();
        let rebuilt = KbtimIndex::open(dir.path(), IoStats::new()).unwrap().segment_fingerprint();
        assert_ne!(first, rebuilt, "rebuilt segments must change the fingerprint");
    }

    #[test]
    fn algo_parse_roundtrip() {
        for algo in [Algo::Rr, Algo::Irr, Algo::Auto] {
            assert_eq!(Algo::parse(algo.name()), Some(algo));
        }
        assert_eq!(Algo::parse("bogus"), None);
        assert_eq!(Algo::default(), Algo::Auto);
    }
}
