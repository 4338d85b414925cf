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
//!   generation, not once per window. *Keyword sets* keep their deepest
//!   greedy run: seeds are a pure function of the set and the
//!   generation, so a set's first miss is served in place off the
//!   window's arena and publishes the run; from then on a window asking
//!   that set for no more seeds than the run holds skips the budget,
//!   the lists, the count *and* the greedy — its answer is an O(k)
//!   slice of the run.
//! * **No window for a hit**: [`QueryEngine::answer_cached`] is that
//!   slice for one request on the caller's thread — `kbtim serve`'s
//!   admission chain calls it before anything is queued, so a repeat
//!   wakes no worker. It books only what it answers; everything else
//!   goes to a window, which probes again (a run may have been
//!   published meanwhile).
//! * **Determinism**: queries are read-only and scratch contents never
//!   influence answers, so any interleaving of concurrent callers —
//!   and any grouping of requests into windows — produces outcomes
//!   bit-identical to running the same requests serially, the contract
//!   `tests/concurrent_equiv.rs` enforces across every serving backend.
//!
//! The line-protocol front end (`kbtim serve`) in the facade crate is a
//! thin wrapper over this engine.

use crate::delta::{self, DeltaIndex, DeltaSnapshot};
use crate::rr_query;
use crate::scratch::{self, KeywordArena, KeywordLists};
use crate::{IndexError, KbtimIndex, QueryCtx, QueryOutcome};
use kbtim_topics::{Query, TopicId};
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
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

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    fn new() -> Lru<K, V> {
        Lru { entries: HashMap::new(), bytes: 0 }
    }

    /// The value under `key` — any borrowed form of it, so a probe by
    /// `&[TopicId]` builds no `Vec` — its recency bumped to `tick`.
    fn touch<Q: Hash + Eq + ?Sized>(&mut self, key: &Q, tick: u64) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        self.entries.get_mut(key).map(|entry| {
            entry.last_used = tick;
            &entry.value
        })
    }

    /// Drop every entry.
    fn clear(&mut self) {
        self.entries.clear();
        self.bytes = 0;
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

/// A keyword set's deepest greedy run so far: CELF selects seeds
/// sequentially and `k` only bounds the loop, so the run answers every
/// request over its set that asks for no more than it holds
/// ([`rr_query::prefix_outcome`]).
struct Run {
    /// The `k` the run was asked for.
    asked: u32,
    /// The set's `φ_Q`, which scales a slice's coverage into its
    /// influence estimate: a hit computes no Eqn-11 budget.
    phi_q: f64,
    /// What the greedy returned for it. Only the seeds, the gains and
    /// `θ^Q` are read back; `elapsed` and `generation` belong to the
    /// request that ran it.
    outcome: Arc<QueryOutcome>,
}

impl Run {
    /// Whether the `k`-seed answer is a prefix of this run: it went at
    /// least as deep, or it stopped early at zero gain — then no `k`
    /// selects more.
    fn covers(&self, k: u32) -> bool {
        self.asked >= k || self.outcome.seeds.len() < self.asked as usize
    }

    /// Heap bytes a cached run keeps resident: 12 per seed (its id and
    /// its gain) and the outcome's own struct.
    fn resident_bytes(&self) -> u64 {
        let outcome = &*self.outcome;
        (std::mem::size_of_val(outcome)
            + std::mem::size_of_val(&outcome.seeds[..])
            + std::mem::size_of_val(&outcome.marginal_gains[..])) as u64
    }
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
///   fingerprint matches. This is the unit a *miss* reuses: a workload
///   has few keywords and many keyword sets.
/// * **Keyword sets**, keyed by the sorted keyword set under one live
///   fingerprint (segment generation ⊕ mutation generation): the
///   deepest [`Run`] any window computed for the set, published by the
///   miss that computed it. A
///   probe that finds a covering run is a hit and does no work on the
///   lists at all; anything else — unseen, or seen too shallow — is a
///   miss, served in place at the window's deepest `k`, whose run then
///   replaces the shallower one. A one-shot set costs its key and a few
///   hundred bytes.
///
/// The fingerprint in the keys ([`KbtimIndex::segment_fingerprint`])
/// ties invalidation to segment identity: a rebuilt or reflushed
/// segment changes it. Values are `Arc`'d: eviction drops the cache's
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
    /// Keyword sets: each one's deepest run, all of the `live`
    /// generation.
    sets: Lru<Vec<TopicId>, Arc<Run>>,
    /// The fingerprint of the last run published — the generation every
    /// entry of `sets` belongs to.
    live: Option<u64>,
    /// Decoded keywords.
    keywords: Lru<(u64, TopicId), KeywordLists>,
    /// Monotone logical clock backing both LRU orders.
    tick: u64,
}

impl MergeCache {
    fn new(capacity: usize) -> MergeCache {
        MergeCache {
            capacity,
            state: Mutex::new(MergeCacheState {
                sets: Lru::new(),
                live: None,
                keywords: Lru::new(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The run that answers `k` seeds over a keyword set under a segment
    /// generation, its recency bumped (a run too shallow stays, and
    /// stays fresh: the miss is about to deepen it). Books only a hit: a
    /// miss is booked by the window that serves it ([`MergeCache::probe`]).
    /// Allocation-free.
    fn lookup(&self, fingerprint: u64, topics: &[TopicId], k: u32) -> Option<Arc<Run>> {
        let mut state = lock_recover(&self.state);
        state.tick += 1;
        let tick = state.tick;
        if state.live != Some(fingerprint) {
            return None;
        }
        let run = state.sets.touch(topics, tick).filter(|run| run.covers(k)).cloned();
        if run.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        run
    }

    /// [`MergeCache::lookup`], booking a miss too: the probe of a window,
    /// which serves whatever it misses.
    fn probe(&self, fingerprint: u64, topics: &[TopicId], k: u32) -> Option<Arc<Run>> {
        let run = self.lookup(fingerprint, topics, k);
        if run.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        run
    }

    /// Keep the run a miss just computed, unless the set already holds
    /// one that covers it (two windows racing the same miss: the deeper
    /// run stays, whichever lands last). Runs of any *other* generation
    /// go the first time one of this generation arrives — every mutation
    /// mints a fingerprint, and nothing can probe the old ones again.
    fn publish(&self, fingerprint: u64, topics: Vec<TopicId>, run: Run) {
        let mut state = lock_recover(&self.state);
        state.tick += 1;
        let tick = state.tick;
        if state.live != Some(fingerprint) {
            state.sets.clear();
            state.live = Some(fingerprint);
        }
        if state.sets.touch(&topics, tick).is_some_and(|held| held.covers(run.asked)) {
            return;
        }
        let bytes = run.resident_bytes();
        let evicted = state.sets.put(topics, Arc::new(run), bytes, tick, self.capacity);
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
    /// generation folded with the mutation generation, and hold the
    /// set's deepest greedy run (a few hundred bytes): the planner
    /// probes before building its decode union — a miss is served in
    /// place at the window's deepest `k` and publishes that run, a hit
    /// (a run at least as deep as the window asks) is an O(k) slice of
    /// it and touches no list. A `k` deeper than any asked before is one
    /// more in-place request, whose run replaces the shallower one; a
    /// mutation mints a new fingerprint, and the first run published
    /// under it drops every older generation's.
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

    /// Keyword sets the prepared-query cache holds a run for.
    pub fn merge_cache_len(&self) -> usize {
        self.merge_cache.as_ref().map_or(0, |c| lock_recover(&c.state).sets.entries.len())
    }

    /// Heap bytes the cached runs keep resident: per keyword set, 12 per
    /// seed of its deepest run plus the outcome struct (keys not
    /// counted).
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

    /// Prepared-query cache probes answered from a covering run.
    pub fn merge_cache_hits(&self) -> u64 {
        self.merge_cache.as_ref().map_or(0, |c| c.hits.load(Ordering::Relaxed))
    }

    /// Prepared-query cache probes that missed: the set unseen at this
    /// generation, or its run shallower than the window asked.
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

    /// Greedy runs the planner executed in place over a batch arena: one
    /// per distinct keyword set per batch that missed the cache (or had
    /// none) — requests over the same set share it, and with a cache on
    /// the run is published for later windows.
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

    /// Answer `req` on the calling thread if the prepared-query cache
    /// holds a run of its keyword set at least `k` deep — the step of
    /// `kbtim serve`'s admission chain that answers a repeat without a
    /// window. `None` (nothing booked) leaves the request to a window:
    /// cache off, set unseen at the current generation, run too
    /// shallow, `topics` not in the canonical form [`EngineRequest::new`]
    /// gives them, or `irr` on an RR index (the window refuses it).
    ///
    /// A hit already past `deadline` is refused with
    /// [`IndexError::DeadlineExceeded`] before any failpoint, as
    /// `kbtim serve` refuses an expired request before its window. Any
    /// other hit runs what a window runs for one: the greedy stage's entry
    /// (the `engine.greedy` failpoint, then `deadline`), then the
    /// `k`-prefix of the run stamped with this call's generation and
    /// clock — so the answer is bit-identical to [`QueryEngine::execute`],
    /// and it counts in [`QueryEngine::executed`] and
    /// [`QueryEngine::merge_cache_hits`], not in
    /// [`QueryEngine::batches`]. A panic (an armed failpoint) unwinds to
    /// the caller, as from a window.
    pub fn answer_cached(
        &self,
        req: &EngineRequest,
        deadline: Option<Instant>,
    ) -> Option<EngineResult> {
        let cache = self.merge_cache.as_ref()?;
        // As in a window, `elapsed` covers the probe.
        let started = Instant::now();
        let snap = self.delta.as_ref().map(|d| d.snapshot());
        if req.algo == Algo::Irr && !self.irr_available(snap.as_deref()) {
            return None;
        }
        let run = cache.lookup(self.set_fingerprint(snap.as_deref()), &req.topics, req.k)?;
        self.executed.fetch_add(1, Ordering::Relaxed);
        let generation = snap.map(|s| s.generation());
        // Expired before it is answered: refused as a window refuses it,
        // ahead of any failpoint.
        let ctx = QueryCtx { deadline };
        Some(
            ctx.check()
                .and_then(|()| rr_query::enter_greedy(&ctx))
                .map(|()| slice(&run.outcome, req.k, run.phi_q, generation, started))
                .map_err(EngineError::from),
        )
    }

    /// Whether `irr` requests can be served: the index — `snap`'s, with
    /// a delta tier — is the IRR variant.
    fn irr_available(&self, snap: Option<&DeltaSnapshot>) -> bool {
        let variant = snap.map_or(self.index.meta().variant, |s| s.meta().variant);
        matches!(variant, crate::format::IndexVariant::Irr { .. })
    }

    /// The keyword-set cache identity of what a window serves: the base
    /// segment generation XOR the (mixed) delta generation — bumped by
    /// every applied batch and every flush, so no run survives a
    /// mutation.
    fn set_fingerprint(&self, snap: Option<&DeltaSnapshot>) -> u64 {
        match snap {
            Some(s) => s.base().segment_fingerprint() ^ delta::splitmix64(s.generation()),
            None => self.index.segment_fingerprint(),
        }
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
        // coverage instance depend on the topics alone, so
        // same-keyword-set requests (different `k`, different
        // algorithm) share one budget and one greedy run at the deepest
        // `k` among them. The budget is computed once per group that
        // misses the cache, and threaded through to the count.
        struct Group {
            members: Vec<usize>,
            /// The keyword set, canonical (sorted, deduped) — what
            /// requests group on, and the prepared-query cache key.
            query: Query,
            /// `φ_Q` and the Eqn-11 budget: the cached run's `φ_Q` on a
            /// hit (which needs no budget), computed on a miss.
            phi_q: f64,
            budget: Vec<(TopicId, u64)>,
            /// The deepest `k` any member asks for.
            k_max: u32,
            /// A cached run at least that deep, probed before the union
            /// decode: a hit removes the group from the budget, the
            /// decode, the count *and* the greedy.
            run: Option<Arc<Run>>,
            /// Widest member deadline (unbounded if any member is):
            /// the stop hook of the group's shared greedy run — if it
            /// fires, every member has expired.
            deadline: Option<Instant>,
        }
        let irr_available = self.irr_available(snap.as_deref());
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
            match groups.iter_mut().find(|g| g.query.topics() == query.topics()) {
                Some(group) => {
                    group.deadline = match (group.deadline, deadlines[at]) {
                        (None, _) | (_, None) => None,
                        (Some(a), Some(b)) => Some(a.max(b)),
                    };
                    group.k_max = group.k_max.max(req.k);
                    group.members.push(at);
                }
                None => groups.push(Group {
                    members: vec![at],
                    query,
                    phi_q: 0.0,
                    budget: Vec::new(),
                    k_max: req.k,
                    run: None,
                    deadline: deadlines[at],
                }),
            }
        }
        let fingerprint = self.set_fingerprint(snap.as_deref());
        for group in &mut groups {
            group.run = self
                .merge_cache
                .as_ref()
                .and_then(|cache| cache.probe(fingerprint, group.query.topics(), group.k_max));
            (group.phi_q, group.budget) = match (&group.run, &snap) {
                (Some(run), _) => (run.phi_q, Vec::new()),
                (None, Some(s)) => s.query_budget(&group.query),
                (None, None) => self.index.query_budget(&group.query),
            };
        }

        // Union of budgeted keywords across all groups, each at the
        // widest per-request share, decoded once for the whole batch.
        // Every member of a group would have needed its group's whole
        // keyword set — the `requested` side of the sharing books.
        // Cache-served groups need no decode at all, so they join
        // neither side of the union.
        let mut wants: BTreeMap<TopicId, u64> = BTreeMap::new();
        let mut requested = 0u64;
        for group in groups.iter().filter(|g| g.run.is_none()) {
            requested += (group.budget.len() * group.members.len()) as u64;
            for &(topic, share) in &group.budget {
                let widest = wants.entry(topic).or_insert(0);
                *widest = (*widest).max(share);
            }
        }
        let wants: Vec<(TopicId, u64)> = wants.into_iter().collect();

        // Execute each keyword-set group as one greedy run at its
        // deepest `k`. All three algorithms serve from it (Theorem 3).
        let generation = snap.as_ref().map(|s| s.generation());
        let run_group = |group: &Group, arena: &KeywordArena| -> Vec<(usize, EngineResult)> {
            let fail = |e: IndexError| -> Vec<(usize, EngineResult)> {
                let err = EngineError::from(e);
                self.executed.fetch_add(group.members.len() as u64, Ordering::Relaxed);
                group.members.iter().map(|&at| (at, Err(err.clone()))).collect()
            };
            // The run stops at the group's widest member deadline; a
            // stop means every member expired, so the whole group fails
            // with the deadline error (no partial seeds escape).
            let group_ctx = QueryCtx { deadline: group.deadline };
            let full = match &group.run {
                // A hit enters the greedy stage like any other request —
                // its failpoint and the deadline check — and leaves with
                // the cached run, as at admission
                // ([`QueryEngine::answer_cached`]).
                Some(run) => match rr_query::enter_greedy(&group_ctx) {
                    Ok(()) => Arc::clone(&run.outcome),
                    Err(e) => return fail(e),
                },
                // A miss (or no cache) is served in place off the arena
                // and publishes what it computed; a run a deadline or a
                // failpoint stopped never gets here.
                None => {
                    self.merged_groups.fetch_add(1, Ordering::Relaxed);
                    // The union's |V| (base plus ingested users) sizes
                    // the instance when a delta is pinned.
                    let num_users = match &snap {
                        Some(s) => s.meta().num_users,
                        None => serving.meta().num_users,
                    };
                    let mut full = match serving.query_arena_ctx(
                        num_users,
                        group.phi_q,
                        &group.budget,
                        arena,
                        group.k_max,
                        &group_ctx,
                    ) {
                        Ok(full) => full,
                        Err(e) => return fail(e),
                    };
                    full.stats.generation = generation;
                    full.stats.elapsed = started.elapsed();
                    let full = Arc::new(full);
                    if let Some(cache) = &self.merge_cache {
                        let run = Run {
                            asked: group.k_max,
                            phi_q: group.phi_q,
                            outcome: Arc::clone(&full),
                        };
                        cache.publish(fingerprint, group.query.topics().to_vec(), run);
                    }
                    full
                }
            };
            if group.members.len() > 1 {
                self.greedy_shared.fetch_add(group.members.len() as u64 - 1, Ordering::Relaxed);
            }
            // Each member's answer is the `k`-prefix of the deep run,
            // stamped with this window's clock and generation
            // ([`slice`]). A lone member that just ran *is* the run.
            group
                .members
                .iter()
                .map(|&at| {
                    self.executed.fetch_add(1, Ordering::Relaxed);
                    let outcome = if group.run.is_none() && group.members.len() == 1 {
                        Arc::clone(&full)
                    } else {
                        slice(&full, unique[at].k, group.phi_q, generation, started)
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
                // recounts inside the greedy degrade to inline
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
                // are served straight from their cached run.) A
                // lone decoding group *was* the union: its error is the
                // answer, with no second attempt.
                let decoding = groups.iter().filter(|g| g.run.is_none()).count();
                let mut lone_err = (decoding == 1).then_some(union_err);
                for group in &groups {
                    if group.run.is_some() {
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
        if req.algo == Algo::Irr && !self.irr_available(snap.as_deref()) {
            return Err(EngineError::from(IndexError::NotAnIrrIndex));
        }
        if let Some(snap) = snap {
            return Ok(Arc::new(snap.query_ctx(&query, ctx)?));
        }
        Ok(Arc::new(self.index.query_rr_ctx(&query, ctx)?))
    }
}

/// The `k`-seed answer out of a keyword set's deeper run `full` —
/// seeds are selected sequentially, so it is exactly the run's
/// `k`-prefix ([`rr_query::prefix_outcome`]) — stamped with the
/// answering generation and clock, never the run's. What a window and
/// [`QueryEngine::answer_cached`] hand out for every request they do not
/// run themselves.
fn slice(
    full: &QueryOutcome,
    k: u32,
    phi_q: f64,
    generation: Option<u64>,
    started: Instant,
) -> Arc<QueryOutcome> {
    let mut outcome = rr_query::prefix_outcome(full, k, phi_q);
    outcome.stats.generation = generation;
    outcome.stats.elapsed = started.elapsed();
    Arc::new(outcome)
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
    fn merge_cache_publishes_on_the_first_miss_and_hits_from_the_second() {
        let dir = TempDir::new("engine-merge-cache").unwrap();
        let engine = build_engine(dir.path())
            .with_batch_window(Some(Duration::from_micros(100)))
            .with_merge_cache(4);
        assert_eq!(engine.merge_cache_capacity(), 4);
        let reqs = [EngineRequest::new([0, 1], 6).with_algo(Algo::Rr), EngineRequest::new([2], 4)];
        let ask = |k_more: u32| {
            for req in &reqs {
                let hot = EngineRequest { k: req.k + k_more, ..req.clone() };
                let want = engine.execute(&hot).unwrap();
                assert_same_answer(&engine.query(&hot).unwrap(), &want, &format!("{hot:?}"));
            }
        };

        // Round 0, the deepest `k`: a miss, served in place, its run
        // published. Rounds 1..: `k` varies below it (the run answers
        // every shallower `k`) — hits, the decode books stay flat — and
        // every answer matches the uncached serial oracle bit for bit.
        let mut decoded = [0u64; 6];
        for round in 0..6u32 {
            ask(5 - round);
            decoded[round as usize] = engine.keywords_decoded();
            assert_eq!(engine.merge_cache_len(), 2);
            if round == 0 {
                assert!(engine.merge_cache_bytes() > 0, "the first miss publishes its run");
                assert_eq!((engine.merge_cache_hits(), engine.merge_cache_misses()), (0, 2));
            }
        }
        assert_eq!(decoded[5], decoded[0], "cache hits must not decode keywords");
        assert_eq!((engine.merge_cache_hits(), engine.merge_cache_misses()), (10, 2));

        // A `k` deeper than any asked before is one more in-place
        // request over the leased lists; its run replaces the shallower
        // one and answers the old depths too.
        let shallow_bytes = engine.merge_cache_bytes();
        ask(9);
        assert_eq!((engine.merge_cache_hits(), engine.merge_cache_misses()), (10, 4));
        assert_eq!(engine.keywords_decoded(), decoded[0], "a deepening leases its lists");
        assert!(engine.merge_cache_bytes() > shallow_bytes, "the deeper run replaced the other");
        ask(5);
        ask(9);
        assert_eq!((engine.merge_cache_hits(), engine.merge_cache_misses()), (14, 4));
        assert_eq!((engine.merge_cache_len(), engine.merge_cache_evictions()), (2, 0));
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
        // Four windows, four different keyword sets — every probe of
        // the set map is a miss — over three keywords.
        assert_eq!(ask(&[0, 1], 5), 2, "one `il` read per decoded keyword");
        assert_eq!((engine.keywords_decoded(), engine.keyword_cache_len()), (2, 2));
        assert_eq!(ask(&[1, 2], 7), 1, "1 was leased");
        assert_eq!((engine.keywords_decoded(), engine.keyword_cache_len()), (3, 3), "1 was leased");
        assert_eq!(ask(&[0, 2], 4) + ask(&[0, 1, 2], 9), 0, "a leased keyword reads no block");
        assert_eq!(engine.keywords_decoded(), 3, "a window over leased keywords decodes nothing");
        assert_eq!((engine.merge_cache_hits(), engine.merge_cache_misses()), (0, 4));
        assert_eq!(engine.merge_cache_len(), 4, "each set's first miss published its run");
        assert!(engine.merge_cache_bytes() > 0);
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
    fn merge_cache_evicts_runs_in_lru_order() {
        let dir = TempDir::new("engine-merge-evict").unwrap();
        let engine = build_engine(dir.path())
            .with_batch_window(Some(Duration::from_micros(100)))
            .with_merge_cache(2);
        let a = EngineRequest::new([0, 1], 5).with_algo(Algo::Rr);
        let b = EngineRequest::new([2, 3], 5).with_algo(Algo::Rr);
        let c = EngineRequest::new([4], 5).with_algo(Algo::Rr);
        let serial_a = engine.execute(&a).unwrap();
        let books = |engine: &QueryEngine| {
            (engine.merge_cache_len(), engine.merge_cache_evictions(), engine.merge_cache_bytes())
        };

        engine.query(&a).unwrap(); // miss: {a} published
        let bytes_a = engine.merge_cache_bytes();
        assert!(bytes_a > 0);
        engine.query(&a).unwrap(); // hit
        engine.query(&b).unwrap(); // miss: {b} published beside it
        let bytes_b = engine.merge_cache_bytes() - bytes_a;
        assert_eq!(books(&engine), (2, 0, bytes_a + bytes_b));
        engine.query(&c).unwrap(); // miss: {c} evicts the oldest — {a}
        let bytes_c = engine.merge_cache_bytes() - bytes_b;
        assert_eq!(books(&engine), (2, 1, bytes_b + bytes_c), "bytes track live runs only");
        engine.query(&b).unwrap(); // {b} is still there: a hit, and now the freshest
        assert_eq!((engine.merge_cache_hits(), engine.merge_cache_misses()), (2, 3));
        // {a} was forgotten with its run: a miss again, which evicts the
        // oldest — {c}.
        assert_same_answer(&engine.query(&a).unwrap(), &serial_a, "re-missed a");
        assert_eq!(books(&engine), (2, 2, bytes_b + bytes_a));
        engine.query(&c).unwrap(); // {c} again a miss; {b} is the oldest
        assert_eq!(books(&engine), (2, 3, bytes_a + bytes_c));
        assert_eq!((engine.merge_cache_hits(), engine.merge_cache_misses()), (2, 5));
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
        let other = EngineRequest::new([2], 6);

        engine.query(&req).unwrap(); // published at generation 0
        engine.query(&other).unwrap();
        assert_eq!(engine.merge_cache_len(), 2);
        tier.apply(&[crate::Mutation::IngestUser]).unwrap();
        // The key carries the generation: the same keyword set is a
        // miss again, never a hit on the old generation's run.
        let want = engine.execute(&req).unwrap();
        let got = engine.query(&req).unwrap();
        assert_same_answer(&got, &want, "after the mutation");
        assert_eq!(got.stats.generation, Some(1));
        // Nothing can probe generation 0 again: its runs went when the
        // first run of generation 1 was published, not when LRU got to
        // them.
        assert_eq!(engine.merge_cache_len(), 1, "a dead generation stayed resident");
        let hit = engine.query(&req).unwrap();
        assert_same_answer(&hit, &want, "hit");
        assert_eq!(hit.stats.generation, Some(1));
        assert_eq!((engine.merge_cache_hits(), engine.merge_cache_misses()), (1, 3));
    }

    #[test]
    fn permuted_and_repeated_topics_are_one_keyword_set() {
        let dir = TempDir::new("engine-canonical-topics").unwrap();
        let engine = build_engine(dir.path()).with_merge_cache(4);
        let want = engine.execute(&EngineRequest::new([0, 1], 6)).unwrap();

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

        // Built around `new`, a spelling is its own request but still
        // the same keyword set: one group, one probe — a hit on the run
        // the first window published — sliced three ways.
        let raw: Vec<_> = spellings
            .iter()
            .map(|t| (EngineRequest { topics: t.clone(), k: 6, algo: Algo::Auto }, None))
            .collect();
        for got in engine.query_window(&raw) {
            assert_same_answer(&got.unwrap(), &want, "raw spelling");
        }
        // The decode books stay at 2: a hit reads no list.
        assert_eq!(
            (engine.keywords_decoded(), engine.coalesced(), engine.greedy_shared()),
            (2, 2, 2)
        );
        assert_eq!((engine.merge_cache_len(), engine.merge_cache_misses()), (1, 1));
        assert_eq!(engine.merge_cache_hits(), 1);
    }

    /// `answer_cached` hands out what the serial reference computes, bit
    /// for bit, at every depth a run covers — flat, on 4 shards and over
    /// a delta tier — booking a hit and an execution but never a window;
    /// an unseen set or a deeper `k` it leaves alone, booking nothing.
    #[test]
    fn answer_cached_matches_execute_at_every_depth_of_the_run() {
        const DEPTH: u32 = 25;
        let dir = TempDir::new("engine-answer-cached").unwrap();
        let (data, config, flat) = build_index(dir.path());
        let sharded_dir = TempDir::new("engine-answer-cached-sharded").unwrap();
        let sharded_config = IndexBuildConfig { shards: 4, ..config };
        IndexBuilder::new(&IcModel::weighted_cascade(&data.graph), &data.profiles, sharded_config)
            .build(sharded_dir.path())
            .unwrap();
        let sharded = Arc::new(KbtimIndex::open(sharded_dir.path(), IoStats::new()).unwrap());
        assert_eq!(sharded.num_shards(), 4);
        let tier = Arc::new(
            DeltaIndex::attach(Arc::clone(&flat), &data.graph, &data.profiles, config).unwrap(),
        );
        // Generation 1, so the label has something to carry.
        tier.apply(&[crate::Mutation::IngestUser]).unwrap();
        let engines = [
            ("flat", QueryEngine::new(Arc::clone(&flat))),
            ("4 shards", QueryEngine::new(sharded)),
            ("delta", QueryEngine::new(flat).with_delta(tier)),
        ];
        let set = |k| EngineRequest::new([0, 1, 2], k).with_algo(Algo::Rr);
        let books = |e: &QueryEngine| {
            (e.merge_cache_hits(), e.merge_cache_misses(), e.executed(), e.batches())
        };
        for (what, engine) in engines {
            let engine = engine.with_merge_cache(8);
            assert!(engine.answer_cached(&set(DEPTH), None).is_none(), "{what}: unseen");
            assert_eq!(books(&engine), (0, 0, 0, 0), "{what}: an unseen set booked");
            let deep = engine.query(&set(DEPTH)).unwrap(); // the miss that publishes
            assert_eq!(deep.seeds.len(), DEPTH as usize, "{what}: the fixture must not exhaust");
            for k in 1..=DEPTH {
                let want = engine.execute(&set(k)).unwrap();
                let got = engine.answer_cached(&set(k), None).expect("a covering run").unwrap();
                let what = format!("{what}, k {k}");
                assert_same_answer(&got, &want, &what);
                assert_eq!(
                    (got.stats.theta_q, got.stats.rr_sets_loaded, got.stats.generation),
                    (want.stats.theta_q, want.stats.rr_sets_loaded, want.stats.generation),
                    "{what}"
                );
            }
            let hits = DEPTH as u64;
            assert_eq!(books(&engine), (hits, 1, 1 + hits, 1), "{what}: hits form no window");
            for req in [set(DEPTH + 1), EngineRequest::new([3, 4], 5)] {
                assert!(engine.answer_cached(&req, None).is_none(), "{what}: {req:?}");
            }
            assert_eq!(books(&engine), (hits, 1, 1 + hits, 1), "{what}: a miss was booked");
        }
    }

    /// What a window refuses or must recompute, `answer_cached` leaves
    /// to it without booking anything: `irr` on an RR index, a cache
    /// that is off, and a set whose run predates a mutation.
    #[test]
    fn answer_cached_leaves_refusals_and_stale_runs_to_a_window() {
        let books = |e: &QueryEngine| (e.merge_cache_hits(), e.merge_cache_misses(), e.executed());
        let rr = EngineRequest::new([0, 1], 5).with_algo(Algo::Rr);
        let irr = rr.clone().with_algo(Algo::Irr);

        let rr_dir = TempDir::new("engine-answer-cached-rr").unwrap();
        let engine =
            QueryEngine::new(build_index_as(rr_dir.path(), IndexVariant::Rr).2).with_merge_cache(4);
        engine.query(&rr).unwrap();
        assert!(engine.answer_cached(&irr, None).is_none(), "irr on an RR index");
        assert_eq!(books(&engine), (0, 1, 1));
        assert!(engine.answer_cached(&rr, None).is_some(), "the set's run is there");
        assert_eq!(books(&engine), (1, 1, 2));

        let dir = TempDir::new("engine-answer-cached-stale").unwrap();
        let (data, config, index) = build_index(dir.path());
        let off = QueryEngine::new(Arc::clone(&index));
        off.query(&rr).unwrap();
        assert!(off.answer_cached(&rr, None).is_none(), "cache off");
        assert_eq!(books(&off), (0, 0, 1));

        let tier = Arc::new(
            DeltaIndex::attach(Arc::clone(&index), &data.graph, &data.profiles, config).unwrap(),
        );
        let engine = QueryEngine::new(index).with_merge_cache(4).with_delta(Arc::clone(&tier));
        engine.query(&rr).unwrap();
        tier.apply(&[crate::Mutation::IngestUser]).unwrap();
        assert!(engine.answer_cached(&rr, None).is_none(), "a run of generation 0");
        assert_eq!(books(&engine), (0, 1, 1));
        let want = engine.execute(&rr).unwrap();
        assert_same_answer(&engine.query(&rr).unwrap(), &want, "the window recomputes it");
        assert_same_answer(&engine.answer_cached(&rr, None).unwrap().unwrap(), &want, "then hits");
        assert_eq!(books(&engine), (1, 2, 3));
    }

    #[test]
    fn the_set_map_keeps_the_deeper_run_and_one_generation() {
        let run = |asked: u32, seeds: u32| Run {
            asked,
            phi_q: 0.0,
            outcome: Arc::new(QueryOutcome {
                seeds: (0..seeds).collect(),
                marginal_gains: vec![1; seeds as usize],
                coverage: seeds as u64,
                estimated_influence: 0.0,
                stats: crate::QueryStats::default(),
            }),
        };
        let cache = MergeCache::new(8);
        let depth = |topics: &[TopicId], k| cache.probe(7, topics, k).map(|run| run.asked);

        // Two racing publishers, the shallower landing last: it is dropped.
        cache.publish(7, vec![0, 1], run(25, 25));
        cache.publish(7, vec![0, 1], run(5, 5));
        assert_eq!(depth(&[0, 1], 25), Some(25));
        // The other order: the deeper run replaces the shallower.
        cache.publish(7, vec![2], run(5, 5));
        assert_eq!((depth(&[2], 5), depth(&[2], 6)), (Some(5), None));
        cache.publish(7, vec![2], run(10, 10));
        assert_eq!((depth(&[2], 6), depth(&[2], 11)), (Some(10), None));
        // A run that stopped short of its `k` exhausted the instance: it
        // covers every depth, and nothing replaces it.
        cache.publish(7, vec![3], run(5, 3));
        cache.publish(7, vec![3], run(25, 3));
        assert_eq!(depth(&[3], 25), Some(5));
        assert_eq!(lock_recover(&cache.state).sets.entries.len(), 3);

        // The first run of another generation is the last the old one's
        // entries are held for; bytes and evictions stay in step.
        cache.publish(8, vec![0, 1], run(5, 5));
        assert_eq!(depth(&[0, 1], 5), None, "generation 7 outlived generation 8's first run");
        let state = lock_recover(&cache.state);
        assert_eq!(state.sets.entries.len(), 1);
        assert_eq!(state.sets.bytes, run(5, 5).resident_bytes());
        assert_eq!(cache.evictions.load(Ordering::Relaxed), 0);
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
