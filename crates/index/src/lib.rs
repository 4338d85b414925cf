//! Disk-based RR and IRR indexes — the paper's real-time query path
//! (§4 and §5).
//!
//! Online WRIS sampling is correct but slow: hundreds of thousands of
//! reverse BFS walks per query. The paper's key move is *discriminative*
//! WRIS (Eqn 7): the query-dependent root distribution `ps(v, Q)` factors
//! into per-keyword distributions `ps(v, w)` mixed with query-independent
//! proportions `p_w`, so RR sets can be sampled **offline per keyword**
//! and merged at query time. Lemma 2 shows a query drawing `θ^Q·p_w` sets
//! from each keyword's pool keeps Theorem 2's `(1 − 1/e − ε)` guarantee.
//!
//! Two index layouts share one on-disk directory format:
//!
//! * **RR index** (§4, Algorithms 1–2): per keyword, `θ_w` RR sets
//!   ([`theta`](kbtim_core::theta)-sized via Eqn 8 or the compact Eqn 10)
//!   plus inverted lists `L_w`. A query needs the `θ^Q·p_w` *prefix* of
//!   each keyword's sets — ids are ordinals, so it reads `L_w`, cuts
//!   every list at the prefix, and runs greedy max-coverage.
//! * **IRR index** (§5, Algorithms 3–4): additionally sorts `L_w` by
//!   descending list length, splits it into partitions of `δ` users
//!   (`IL^p_w`), groups RR sets by the first partition that touches them
//!   (`IR^p_w`), and keeps a first-occurrence table `IP_w`. Queries run
//!   NRA-style top-k aggregation, loading `IL^p_w` partitions
//!   incrementally and refining upper bounds lazily — far fewer RR sets
//!   are touched.
//!
//! Theorem 3 (the seeds' coverage scores from Algorithm 4 equal
//! Algorithm 2's) is enforced in this crate's property tests: both query
//! paths share tie-breaking and produce identical seed sequences.
//!
//! All reads go through checksummed [`kbtim_storage`] segments served by
//! a [`kbtim_storage::BlockSource`] — positioned file reads or an mmap
//! mapping, selected per open via [`ServingMode`] — with counted I/O
//! either way; every query returns a
//! [`QueryStats`] with the RR-sets-loaded and I/O numbers behind the
//! paper's Figures 5–7 and Table 6 (zero-copy accesses count as
//! `cache_hits`/`bytes_served`, never as reads). Per-query allocations
//! are pooled in [`scratch`], so a warmed index serves from reused
//! arenas.
//!
//! The index is `Send + Sync` and built for *concurrent* serving: share
//! it through an `Arc` (scratch blocks lease across client threads, the
//! per-keyword fan-out runs on an index-owned persistent
//! [`kbtim_exec::ExecPool`]), and front it with [`serve::QueryEngine`]
//! to coalesce identical in-flight requests. Answers are bit-identical
//! to serial execution for any interleaving.

pub mod build;
pub mod delta;
pub mod format;
pub mod irr_query;
pub mod rr_query;
pub mod scratch;
pub mod serve;
pub mod validate;

use kbtim_graph::NodeId;
use kbtim_storage::segment::SegmentReader;
use kbtim_storage::{BlockSource, IoSnapshot, IoStats};
use kbtim_topics::{Query, TopicId};
use std::path::{Path, PathBuf};
use std::time::Duration;

pub use build::{BuildReport, IndexBuildConfig, IndexBuilder, KeywordBuildStats, ThetaMode};
pub use delta::{DeltaIndex, DeltaSnapshot, DeltaStats, Mutation};
pub use format::{IndexMeta, IndexVariant, KeywordMeta};
pub use kbtim_storage::ServingMode;
pub use rr_query::MergedQuery;
pub use scratch::{KeywordArena, QueryScratch};
pub use serve::{Algo, EngineError, EngineRequest, EngineResult, QueryEngine};

/// Pointer file naming the live segment generation inside an index
/// root (`gen-<N>`, written atomically by the delta tier's flush).
/// Absent for the legacy flat layout, which is generation 0.
pub const CURRENT_FILE: &str = "CURRENT";
/// Directory-name prefix of one flushed segment generation.
pub const GEN_DIR_PREFIX: &str = "gen-";

/// Benchmark-only: kept because the benchmark package
/// (`crates/bench/src/bin/bench/src/trace.rs`) links this name. It holds
/// nothing; every open maps its own segments (see
/// [`KbtimIndex::open_shared`]).
pub struct PageCache;

impl PageCache {
    /// Benchmark-only: the one `PageCache`, which holds nothing.
    pub fn global() -> &'static PageCache {
        &PageCache
    }
}

/// Errors from index construction and querying.
#[derive(Debug)]
pub enum IndexError {
    /// Underlying storage failure.
    Storage(kbtim_storage::segment::StorageError),
    /// Compressed data failed to decode.
    Codec(kbtim_codec::CodecError),
    /// Structural inconsistency in the index itself.
    Corrupt(String),
    /// The operation requires IRR partition blocks, but the index was
    /// built as a plain RR index.
    NotAnIrrIndex,
    /// The query ran past its caller-supplied deadline
    /// ([`QueryEngine::query_deadline`]) and was aborted at a stage
    /// boundary — no partial answer exists.
    DeadlineExceeded,
    /// A [`kbtim_fault`] failpoint fired at the named engine stage
    /// (fault-injection builds and chaos tests only; never occurs with
    /// the registry disarmed).
    Injected(&'static str),
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::Storage(e) => write!(f, "storage: {e}"),
            IndexError::Codec(e) => write!(f, "codec: {e}"),
            IndexError::Corrupt(msg) => write!(f, "corrupt index: {msg}"),
            IndexError::NotAnIrrIndex => write!(f, "index has no IRR partitions"),
            IndexError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            IndexError::Injected(stage) => write!(f, "injected fault at {stage}"),
        }
    }
}

impl std::error::Error for IndexError {}

impl From<kbtim_storage::segment::StorageError> for IndexError {
    fn from(e: kbtim_storage::segment::StorageError) -> Self {
        IndexError::Storage(e)
    }
}

impl From<kbtim_codec::CodecError> for IndexError {
    fn from(e: kbtim_codec::CodecError) -> Self {
        IndexError::Codec(e)
    }
}

/// Per-query execution context of the serving path
/// ([`QueryEngine::query_window`], [`QueryEngine::answer_cached`]):
/// currently an optional absolute deadline.
///
/// Deadlines are enforced at stage boundaries — after the keyword
/// decode and once per greedy round — so an expired query aborts with
/// [`IndexError::DeadlineExceeded`] instead of returning partial
/// results. The serial reference paths (`query_rr` / `query_irr` /
/// [`DeltaSnapshot::query`] / [`QueryEngine::execute`]) run
/// unbounded; checking the default context costs one `Option` test per
/// round.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct QueryCtx {
    /// Absolute wall-clock point after which the query must abort.
    pub(crate) deadline: Option<std::time::Instant>,
}

impl QueryCtx {
    /// Whether the deadline (if any) has passed.
    #[inline]
    pub(crate) fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| std::time::Instant::now() >= d)
    }

    /// Error out with [`IndexError::DeadlineExceeded`] if expired.
    #[inline]
    pub(crate) fn check(&self) -> Result<(), IndexError> {
        if self.expired() {
            Err(IndexError::DeadlineExceeded)
        } else {
            Ok(())
        }
    }
}

/// Per-query measurement record (the quantities reported in §6).
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Total RR sets the query needed, `θ^Q = Σ_w θ^Q_w`.
    pub theta_q: u64,
    /// RR sets the query touched — Figures 5–7's right-hand axis:
    /// `theta_q` for the RR index; for IRR the distinct sets below the
    /// shares that occur in the loaded partitions (what the paper's
    /// loader would fetch for them), usually far fewer.
    pub rr_sets_loaded: u64,
    /// IRR partitions loaded (0 for RR queries).
    pub partitions_loaded: u64,
    /// Positioned-read / byte / seek counters for this query (Table 6).
    pub io: IoSnapshot,
    /// Wall-clock query time.
    pub elapsed: Duration,
    /// Mutation generation of the [`DeltaSnapshot`] that answered
    /// (`None` on an immutable index) — pinned at execution, so a
    /// response can name the snapshot it was computed from even while
    /// writers advance the tier.
    pub generation: Option<u64>,
}

/// Result of an index-backed KB-TIM query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Selected seeds in greedy order (≤ `Q.k`).
    pub seeds: Vec<NodeId>,
    /// Marginal RR-set coverage of each seed.
    pub marginal_gains: Vec<u64>,
    /// Total covered RR sets.
    pub coverage: u64,
    /// Unbiased targeted-influence estimate
    /// `coverage/θ^Q · φ_Q` (Lemma 1 + Lemma 2).
    pub estimated_influence: f64,
    /// Measurements for this query.
    pub stats: QueryStats,
}

/// One shard of an opened index: the contiguous user range `[lo, hi)`
/// it owns and its per-topic block sources. A legacy (flat-layout)
/// index is exactly one shard spanning the whole universe.
pub(crate) struct Shard {
    /// First user id owned by this shard.
    pub(crate) lo: NodeId,
    /// One past the last user id owned by this shard.
    pub(crate) hi: NodeId,
    /// Per-topic block sources (`None` for topics with no segment — no
    /// user holds them, so their `θ_w = 0`).
    pub(crate) sources: Vec<Option<BlockSource>>,
}

/// An opened on-disk KB-TIM index (either variant).
///
/// [`KbtimIndex::query_rr`] implements Algorithm 2 and works on both
/// variants; [`KbtimIndex::query_irr`] implements Algorithm 4 and requires
/// the IRR variant.
///
/// A sharded directory (built with `shards > 1`, detected by the
/// presence of `shards.manifest`) opens into multiple internal shards;
/// query paths scatter per-shard decode across the worker pool and
/// gather in shard order, so answers stay bit-identical to the
/// single-shard index (see [`mod@format`]'s layout notes).
pub struct KbtimIndex {
    /// The directory handed to `open` — the *root* of the index. With
    /// the generation layout (`root/CURRENT` naming a `gen-<N>/`
    /// subdirectory) this is where new generations land; for the legacy
    /// layout it equals [`KbtimIndex::dir`].
    root: PathBuf,
    /// The resolved segment directory this handle actually serves from.
    dir: PathBuf,
    /// Segment generation resolved from `root/CURRENT` (0 for the
    /// legacy pointer-less layout).
    generation: u64,
    meta: IndexMeta,
    /// The opened shards in shard order. Every shard's sources share the
    /// same cloned [`IoStats`] handle, so per-query I/O books aggregate
    /// reads/cache hits/bytes across all shards automatically.
    shards: Vec<Shard>,
    stats: IoStats,
    /// The index-owned worker pool for per-keyword load/decode fan-out.
    /// Built once (at open or by [`KbtimIndex::set_threads`]), never per
    /// query: a persistent [`kbtim_exec::ExecPool`] whose workers spawn
    /// lazily on the first parallel query and then stay parked between
    /// queries. Query answers are identical for every thread count; only
    /// wall-clock time changes.
    pool: kbtim_exec::ExecPool,
    /// The `set_threads` knob as configured (`None` = the machine's
    /// available parallelism), kept for reporting.
    threads: Option<usize>,
    mode: ServingMode,
    /// Identity of the segment generation this index was opened against
    /// (see [`KbtimIndex::segment_fingerprint`]).
    fingerprint: u64,
    /// Reusable query buffers (see [`scratch`]); shared by every query
    /// against this index.
    pub(crate) scratch: scratch::ScratchPool,
}

impl KbtimIndex {
    /// Open an index directory with the default positioned-read backend
    /// ([`ServingMode::File`]), validating segment framing. Reads done
    /// during `open` are *not* charged to `stats` (the paper measures
    /// per-query I/O against a warm catalog).
    pub fn open(dir: impl AsRef<Path>, stats: IoStats) -> Result<KbtimIndex, IndexError> {
        KbtimIndex::open_with(dir, stats, ServingMode::File)
    }

    /// [`KbtimIndex::open`] with an explicit serving backend. Query
    /// answers are bit-identical for every mode; only where block bytes
    /// live (and which [`IoStats`] counters record accesses) changes.
    /// On `Mmap` each open maps every keyword segment itself.
    pub fn open_with(
        dir: impl AsRef<Path>,
        stats: IoStats,
        mode: ServingMode,
    ) -> Result<KbtimIndex, IndexError> {
        KbtimIndex::open_inner(dir.as_ref(), stats, mode)
    }

    /// Benchmark-only: [`KbtimIndex::open_with`] under the name the
    /// benchmark package links. `_cache` holds nothing and is ignored.
    pub fn open_shared(
        dir: impl AsRef<Path>,
        stats: IoStats,
        mode: ServingMode,
        _cache: &PageCache,
    ) -> Result<KbtimIndex, IndexError> {
        KbtimIndex::open_with(dir, stats, mode)
    }

    fn open_inner(dir: &Path, stats: IoStats, mode: ServingMode) -> Result<KbtimIndex, IndexError> {
        let root = dir.to_path_buf();
        // Generation layout: a `CURRENT` file names the live `gen-<N>`
        // subdirectory (written atomically by the delta tier's flush).
        // Without one the directory itself is the (generation-0)
        // segment dir — every pre-delta index keeps opening unchanged.
        let (dir, generation) = match std::fs::read_to_string(root.join(CURRENT_FILE)) {
            Ok(contents) => {
                let name = contents.trim();
                let gen = name
                    .strip_prefix(GEN_DIR_PREFIX)
                    .and_then(|n| n.parse::<u64>().ok())
                    .ok_or_else(|| {
                        IndexError::Corrupt(format!("CURRENT names invalid generation {name:?}"))
                    })?;
                (root.join(name), gen)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => (root.clone(), 0),
            Err(e) => return Err(IndexError::Storage(kbtim_storage::segment::StorageError::Io(e))),
        };
        let open_stats = IoStats::new(); // discard catalog-open I/O
        let meta_reader = SegmentReader::open(dir.join(format::META_FILE), open_stats.clone())?;
        let meta_bytes = meta_reader.read_block(format::META_BLOCK)?;
        let meta = IndexMeta::decode(&meta_bytes)?;

        // Auto-detect the layout: a shards.manifest announces per-shard
        // segment subdirectories; otherwise the directory is a legacy
        // flat (single-shard) index.
        let manifest_path = dir.join(format::SHARD_MANIFEST_FILE);
        let splits: Vec<(NodeId, NodeId, PathBuf)> = if manifest_path.is_file() {
            let reader = SegmentReader::open(&manifest_path, open_stats.clone())?;
            let manifest =
                format::ShardManifest::decode(&reader.read_block(format::SHARD_MANIFEST_BLOCK)?)?;
            if manifest.num_users != meta.num_users {
                return Err(IndexError::Corrupt(format!(
                    "shard manifest covers {} users, catalog has {}",
                    manifest.num_users, meta.num_users
                )));
            }
            (0..manifest.num_shards())
                .map(|s| {
                    (manifest.cuts[s], manifest.cuts[s + 1], dir.join(format::shard_dir_name(s)))
                })
                .collect()
        } else {
            vec![(0, meta.num_users, dir.clone())]
        };

        let mut shards = Vec::with_capacity(splits.len());
        for (lo, hi, shard_dir) in splits {
            let mut sources = Vec::with_capacity(meta.keywords.len());
            for kw in &meta.keywords {
                if kw.theta == 0 {
                    sources.push(None);
                } else {
                    let path = shard_dir.join(format::keyword_file_name(kw.topic));
                    sources.push(Some(BlockSource::open(path, stats.clone(), mode)?));
                }
            }
            shards.push(Shard { lo, hi, sources });
        }
        // A mapping that degraded opened as `file`: report what serves.
        let degraded = shards
            .iter()
            .flat_map(|shard| shard.sources.iter().flatten())
            .any(|source| source.mode() == ServingMode::File);
        let mode = if degraded { ServingMode::File } else { mode };
        // Capture segment identity while opening — each segment's path,
        // length, mtime and footer tag — so prepared-query caches can
        // bind entries to the exact segment generation this handle
        // serves. Every shard's segment set folds in, so a single-shard
        // reflush changes the fingerprint of the whole index.
        let fingerprint = {
            use std::hash::{Hash, Hasher};
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            generation.hash(&mut hasher);
            for (shard_idx, shard) in shards.iter().enumerate() {
                for (topic, source) in shard.sources.iter().enumerate() {
                    let Some(source) = source.as_ref() else { continue };
                    shard_idx.hash(&mut hasher);
                    topic.hash(&mut hasher);
                    source.path().hash(&mut hasher);
                    source.file_len().unwrap_or(0).hash(&mut hasher);
                    let mtime = std::fs::metadata(source.path())
                        .ok()
                        .and_then(|m| m.modified().ok())
                        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok());
                    mtime.hash(&mut hasher);
                    // Content discriminator: the directory CRC survives
                    // same-length same-mtime rewrites that fool the triple.
                    kbtim_storage::segment::footer_tag(source.path())
                        .unwrap_or(0)
                        .hash(&mut hasher);
                }
            }
            hasher.finish()
        };
        Ok(KbtimIndex {
            root,
            generation,
            dir,
            meta,
            shards,
            stats,
            pool: kbtim_exec::ExecPool::new(None),
            threads: None,
            mode,
            fingerprint,
            scratch: scratch::ScratchPool::new(),
        })
    }

    /// Identity of the keyword-segment generation this handle was opened
    /// against: a hash over every segment's (shard, path, length, mtime,
    /// [`footer_tag`](kbtim_storage::segment::footer_tag)) at open time,
    /// so **every shard's segment set** contributes. Two opens of the
    /// same on-disk state agree; rebuilding any keyword
    /// segment in any shard changes the value, so caches keyed by it
    /// (the serving tier's prepared-query cache) can never serve an
    /// entry across index generations — not even after a single-shard
    /// reflush that leaves every other shard untouched.
    pub fn segment_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The segment generation this handle resolved at open time: `N`
    /// when the root's [`CURRENT`](CURRENT_FILE) pointer named `gen-N`,
    /// 0 for the legacy flat layout with no pointer file.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The index *root* this handle was opened with — where generation
    /// directories and the `CURRENT` pointer live. Distinct from the
    /// resolved segment directory when a generation pointer is present.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Number of shards this index serves from (1 for the legacy flat
    /// layout). Answers are bit-identical for every shard count; only
    /// the decode/merge fan-out width changes.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The serving backend this index serves from: the one it was opened
    /// with, or `File` when any keyword segment's mapping degraded.
    pub fn serving_mode(&self) -> ServingMode {
        self.mode
    }

    /// Segment bytes held resident by the serving tier (0 for the file
    /// backend; the mappings otherwise), across all shards. Each open
    /// counts its own mappings: two opens of one directory report the
    /// bytes twice, though the kernel holds one copy of the pages.
    pub fn resident_bytes(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|shard| shard.sources.iter().flatten())
            .map(|s| s.resident_bytes())
            .sum()
    }

    /// Set the worker-thread count used by the query paths (`None` = the
    /// machine's available parallelism). Answers are bit-identical for
    /// every setting — keyword decode work is merged in a deterministic
    /// order — so this only trades latency.
    ///
    /// The index *owns* the resulting pool: it is built here, once, and
    /// every subsequent query schedules onto its long-lived workers
    /// (previously a fresh `ExecPool` was assembled on every query).
    pub fn set_threads(&mut self, threads: Option<usize>) {
        self.threads = threads;
        self.pool = kbtim_exec::ExecPool::new(threads);
    }

    /// Builder-style [`KbtimIndex::set_threads`].
    pub fn with_threads(mut self, threads: Option<usize>) -> KbtimIndex {
        self.set_threads(threads);
        self
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    pub(crate) fn pool(&self) -> &kbtim_exec::ExecPool {
        &self.pool
    }

    /// The index catalog (sizes, θ_w table, codec, variant).
    pub fn meta(&self) -> &IndexMeta {
        &self.meta
    }

    /// Directory this index lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Shared I/O counters for all queries against this index.
    pub fn io_stats(&self) -> &IoStats {
        &self.stats
    }

    /// Total on-disk footprint in bytes (catalog + keyword segments; for
    /// a sharded index also the manifest and per-shard catalogs).
    pub fn disk_bytes(&self) -> Result<u64, IndexError> {
        let file_len = |path: PathBuf| std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        let mut total = file_len(self.dir.join(format::META_FILE));
        if self.num_shards() > 1 {
            total += file_len(self.dir.join(format::SHARD_MANIFEST_FILE));
            for s in 0..self.num_shards() {
                total += file_len(self.dir.join(format::shard_dir_name(s)).join(format::META_FILE));
            }
        }
        for shard in &self.shards {
            for source in shard.sources.iter().flatten() {
                total += source.file_len()?;
            }
        }
        Ok(total)
    }

    /// Per-keyword mixture proportions and the query budget:
    /// `θ^Q = min_w θ_w/p_w` (Eqn 11), split as `θ^Q_w = ⌊θ^Q·p_w⌋`.
    ///
    /// Returns `(phi_q, per-keyword (topic, θ^Q_w))`; keywords nobody holds
    /// contribute nothing. `phi_q == 0` means no user is relevant.
    pub fn query_budget(&self, query: &Query) -> (f64, Vec<(TopicId, u64)>) {
        query_budget_from_meta(&self.meta, query)
    }

    /// The opened shards in shard order.
    pub(crate) fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The block source serving `topic` from shard `shard`.
    pub(crate) fn source_in(
        &self,
        shard: usize,
        topic: TopicId,
    ) -> Result<&BlockSource, IndexError> {
        self.shards
            .get(shard)
            .and_then(|s| s.sources.get(topic as usize))
            .and_then(|r| r.as_ref())
            .ok_or_else(|| {
                IndexError::Corrupt(format!("no segment for topic {topic} in shard {shard}"))
            })
    }

    /// Shard-0 source — only meaningful on a single-shard index, where
    /// shard 0 *is* the whole index (the IRR partition walk asserts this
    /// before calling).
    pub(crate) fn source(&self, topic: TopicId) -> Result<&BlockSource, IndexError> {
        debug_assert_eq!(self.num_shards(), 1, "source() reads the flat (single-shard) layout");
        self.source_in(0, topic)
    }
}

/// The Eqn-11 budget computed from a catalog alone: what
/// [`KbtimIndex::query_budget`] and the delta tier's snapshot (whose
/// catalog differs from the base's) both answer with.
pub(crate) fn query_budget_from_meta(meta: &IndexMeta, query: &Query) -> (f64, Vec<(u32, u64)>) {
    let masses: Vec<(u32, f64)> = query
        .topics()
        .iter()
        .filter_map(|&w| {
            let kw = meta.keywords.get(w as usize)?;
            let mass = kw.tf_sum * kw.idf;
            (kw.theta > 0 && mass > 0.0).then_some((w, mass))
        })
        .collect();
    let phi_q: f64 = masses.iter().map(|&(_, m)| m).sum();
    if phi_q <= 0.0 {
        return (0.0, Vec::new());
    }
    let theta_q = masses
        .iter()
        .map(|&(w, mass)| {
            let p_w = mass / phi_q;
            meta.keywords[w as usize].theta as f64 / p_w
        })
        .fold(f64::INFINITY, f64::min);
    let budget = masses
        .iter()
        .map(|&(w, mass)| {
            let p_w = mass / phi_q;
            let share =
                ((theta_q * p_w).floor() as u64).min(meta.keywords[w as usize].theta).max(1);
            (w, share)
        })
        .collect();
    (phi_q, budget)
}
