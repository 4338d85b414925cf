//! The mutable delta tier: an LSM-style in-memory overlay over an
//! immutable on-disk index generation.
//!
//! A [`DeltaIndex`] wraps an opened [`KbtimIndex`] (the *base*
//! generation) plus the logical dataset it was built from (graph +
//! profiles) and absorbs mutations — new users, new edges, per-user
//! topic-weight updates — without rebuilding the base. Every mutation
//! batch re-materializes exactly the *dirty* keywords through
//! `IndexBuilder::sample_keyword`, the same pure function the on-disk
//! build runs, so a keyword overlay is **bit-identical** to what a
//! from-scratch flat build of the mutated content would sample for that
//! keyword. Queries union the overlay with the base at decode time:
//! clean keywords stream from the immutable segments, dirty keywords
//! come from the overlay, and the merged coverage instance (and
//! therefore the answer) is bit-identical to a from-scratch build of
//! the same logical content — the contract `tests/delta_equiv.rs`
//! enforces differentially.
//!
//! # Snapshots and generations
//!
//! Writers serialize on an internal mutex; each applied batch publishes
//! a new immutable [`DeltaSnapshot`] (base handle + union catalog +
//! keyword overlays) under a monotonically increasing **generation**
//! counter. Readers pin a snapshot with [`DeltaIndex::snapshot`] and
//! never observe in-flight writes; the serving tier folds the
//! generation into its keyword-*set* cache keys so no cached greedy run
//! can ever cross generations, while a clean keyword's decoded lists —
//! whose bytes no mutation touches — stay leased under the base's
//! fingerprint until a flush replaces the base.
//!
//! # Flush / compaction
//!
//! [`DeltaIndex::flush`] compacts base ∪ delta into a brand-new segment
//! generation: it writes the mutated dataset plus a full
//! [`IndexBuilder::build`] into `root/gen-<N>.tmp`, **verifies** the
//! built catalog is byte-identical to the union snapshot's catalog,
//! then commits with two atomic renames (`gen-<N>.tmp` → `gen-<N>`,
//! then the [`CURRENT`](crate::CURRENT_FILE) pointer). A failure at any
//! stage (the `flush.build` / `flush.verify` / `flush.commit`
//! failpoints fire at the matching boundaries) leaves the published
//! snapshot — and the `CURRENT` pointer — untouched, so readers never
//! see a torn generation and a retry starts clean.
//!
//! Unflushed mutations are journaled to `root/delta.log` (exact f32
//! bit patterns, one mutation per line); [`DeltaIndex::attach`] replays
//! the journal so a restart loses nothing, and the serving tier's drain
//! path reports the outstanding count. A record is complete only if it
//! ends in a newline: what a process killed mid-append left after the
//! last one is dropped, and cut off the file, at the next attach.

use crate::build::{IndexBuildConfig, IndexBuilder};
use crate::format::{IlCsr, IndexMeta, KeywordMeta};
use crate::scratch::{KeywordArena, KeywordLists};
use crate::{rr_query, IndexError, KbtimIndex, QueryCtx, QueryOutcome};
use kbtim_graph::{Graph, NodeId};
use kbtim_propagation::IcModel;
use kbtim_topics::{Query, TopicId, UserProfiles};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// File (under the index root) journaling unflushed mutations.
pub const DELTA_JOURNAL_FILE: &str = "delta.log";

/// SplitMix64 finalizer — mixes the generation counter into the serving
/// tier's cache fingerprints so consecutive generations never collide.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One logical mutation accepted by the delta tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mutation {
    /// Append one new (isolated, profile-less) user to the universe.
    IngestUser,
    /// Append the directed edge `from → to` to the social graph.
    IngestEdge {
        /// Source node.
        from: NodeId,
        /// Target node.
        to: NodeId,
    },
    /// Set `tf(topic, user)` to `weight`; `0.0` removes the entry.
    SetTopicWeight {
        /// The user whose profile changes.
        user: NodeId,
        /// The topic whose weight changes.
        topic: TopicId,
        /// The new term frequency (finite, ≥ 0; 0 removes).
        weight: f32,
    },
}

/// Writer-side state: the full logical dataset (base content plus every
/// applied mutation) the next flush will compact.
struct DeltaState {
    num_users: u32,
    num_topics: u32,
    /// Complete directed edge list (base edges + ingested ones, in
    /// ingestion order — duplicates are kept; the weighted-cascade model
    /// counts them in `in_degree` exactly as a from-scratch build would).
    edges: Vec<(NodeId, NodeId)>,
    /// Complete profile entries, `(user, topic) → tf`.
    entries: BTreeMap<(NodeId, TopicId), f32>,
    /// Mutations journaled since the last flush.
    unflushed: u64,
}

/// One dirty keyword's materialized content: its union-catalog row and
/// its full inverted list `L_w` (one CSR — the overlay is not sharded —
/// empty when θ_w dropped to 0), in the form readers lease it.
struct OverlayKeyword {
    meta: KeywordMeta,
    lists: KeywordLists,
}

/// An immutable point-in-time view of base ∪ delta. Self-contained:
/// holds the base handle, the union catalog, and every dirty keyword's
/// overlay — a reader pinned to a snapshot is oblivious to concurrent
/// writers and flushes.
pub struct DeltaSnapshot {
    base: Arc<KbtimIndex>,
    meta: IndexMeta,
    overlay: HashMap<TopicId, Arc<OverlayKeyword>>,
    generation: u64,
    unflushed: u64,
}

impl DeltaSnapshot {
    /// The monotonic mutation generation this snapshot captures (0 at
    /// attach; +1 per applied batch and per flush).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The immutable base generation this snapshot overlays.
    pub fn base(&self) -> &Arc<KbtimIndex> {
        &self.base
    }

    /// The union catalog: base rows shadowed by every dirty keyword's
    /// re-sampled row, under the mutated `|V|`.
    pub fn meta(&self) -> &IndexMeta {
        &self.meta
    }

    /// Number of keywords served from the in-memory overlay.
    pub fn overlay_keywords(&self) -> usize {
        self.overlay.len()
    }

    /// Journaled mutations not yet compacted when this snapshot was
    /// taken.
    pub fn unflushed(&self) -> u64 {
        self.unflushed
    }

    /// The Eqn-11 budget under the union catalog.
    pub fn query_budget(&self, query: &Query) -> (f64, Vec<(TopicId, u64)>) {
        crate::query_budget_from_meta(&self.meta, query)
    }

    /// A dirty keyword's lists — the `Arc` this snapshot owns, so every
    /// reader of the keyword shares the one overlay allocation. `None`
    /// for a clean keyword, which is read from the base.
    pub(crate) fn overlay_lists(&self, topic: TopicId) -> Option<KeywordLists> {
        self.overlay.get(&topic).map(|ov| Arc::clone(&ov.lists))
    }

    /// The lists of each wanted keyword in one [`KeywordArena`]: clean
    /// keywords are decoded from the base segments (in parallel, as
    /// [`KbtimIndex::decode_keywords`] always has), dirty keywords lease
    /// their overlay — a reference to the lists this snapshot owns, no
    /// copy. The arena keeps keywords strictly ascending, so downstream
    /// merges cannot tell the union from a monolithic decode. Never
    /// looks at a cache: this is the serial reference the engine's
    /// leased windows are compared against.
    pub fn decode_union(&self, wants: &[(TopicId, u64)]) -> Result<KeywordArena, IndexError> {
        let wants = rr_query::normalized_wants(wants);
        let base_wants: Vec<(TopicId, u64)> =
            wants.iter().copied().filter(|(t, _)| !self.overlay.contains_key(t)).collect();
        let mut arena = self.base.decode_keywords(&base_wants)?;
        for &(topic, _) in wants.iter() {
            if let Some(lists) = self.overlay_lists(topic) {
                arena.insert(topic, lists);
            }
        }
        Ok(arena)
    }

    /// Answer `query` over base ∪ delta — Algorithm 2 on the union
    /// decode. Bit-identical to a from-scratch flat build of the same
    /// logical content (the delta tier's core contract).
    pub fn query(&self, query: &Query) -> Result<QueryOutcome, IndexError> {
        let started = Instant::now();
        let (phi_q, budget) = self.query_budget(query);
        let mut outcome = if budget.is_empty() {
            rr_query::empty_outcome(started)
        } else {
            let arena = self.decode_union(&budget)?;
            let users = self.meta.num_users;
            let ctx = QueryCtx::default();
            let result = self.base.query_arena_ctx(users, phi_q, &budget, &arena, query.k(), &ctx);
            self.base.recycle_keywords(arena);
            result?
        };
        outcome.stats.generation = Some(self.generation);
        Ok(outcome)
    }
}

/// Point-in-time counters for `kbtim validate` / the drain path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaStats {
    /// Snapshot mutation generation (see [`DeltaSnapshot::generation`]).
    pub generation: u64,
    /// The base's flushed segment generation (`gen-<N>` / 0 for flat).
    pub flushed_generation: u64,
    /// Journaled mutations awaiting compaction.
    pub unflushed: u64,
    /// Keywords currently served from the overlay.
    pub overlay_keywords: usize,
    /// `|V|` under the union (base + ingested users).
    pub num_users: u32,
    /// Directed edges in the union graph.
    pub num_edges: u64,
    /// Profile entries in the union.
    pub num_entries: u64,
    /// Bytes of an unterminated final record this attach cut off
    /// `delta.log` — the torn half of an append that was never
    /// acknowledged (0: the journal ended on a record boundary).
    pub journal_bytes_dropped: u64,
}

/// The mutable tier: one writer lane (mutex-serialized applies and
/// flushes) publishing immutable [`DeltaSnapshot`]s to any number of
/// readers.
pub struct DeltaIndex {
    root: PathBuf,
    config: IndexBuildConfig,
    writer: Mutex<DeltaState>,
    snapshot: RwLock<Arc<DeltaSnapshot>>,
    /// See [`DeltaStats::journal_bytes_dropped`].
    journal_bytes_dropped: u64,
}

impl DeltaIndex {
    /// Attach a mutable tier over `base`, seeded with the logical
    /// dataset (`graph`, `profiles`) the base generation was built from
    /// and the exact build `config` it was built with — generation
    /// equivalence requires both, and the codec/variant are checked
    /// against the base catalog. Only the IC model is supported (the
    /// delta tier re-materializes keywords through the weighted-cascade
    /// model). Replays `root/delta.log` if a previous process left
    /// unflushed mutations behind.
    pub fn attach(
        base: Arc<KbtimIndex>,
        graph: &Graph,
        profiles: &UserProfiles,
        config: IndexBuildConfig,
    ) -> Result<DeltaIndex, IndexError> {
        let meta = base.meta();
        if meta.model_name != "IC" {
            return Err(IndexError::Corrupt(format!(
                "delta tier supports the IC model only, base was built with {:?}",
                meta.model_name
            )));
        }
        if graph.num_nodes() != meta.num_users || profiles.num_users() != meta.num_users {
            return Err(IndexError::Corrupt(format!(
                "dataset/universe mismatch: base |V|={}, graph {}, profiles {}",
                meta.num_users,
                graph.num_nodes(),
                profiles.num_users()
            )));
        }
        if profiles.num_topics() != meta.num_topics {
            return Err(IndexError::Corrupt(format!(
                "topic-space mismatch: base {}, profiles {}",
                meta.num_topics,
                profiles.num_topics()
            )));
        }
        if config.codec != meta.codec || config.variant != meta.variant {
            return Err(IndexError::Corrupt(
                "build config codec/variant must match the base catalog".into(),
            ));
        }
        let mut entries = BTreeMap::new();
        for user in 0..profiles.num_users() {
            let (topics, tfs) = profiles.user_vector(user);
            for (&topic, &tf) in topics.iter().zip(tfs) {
                entries.insert((user, topic), tf);
            }
        }
        let state = DeltaState {
            num_users: meta.num_users,
            num_topics: meta.num_topics,
            edges: graph.edges().collect(),
            entries,
            unflushed: 0,
        };
        let snapshot = DeltaSnapshot {
            meta: meta.clone(),
            base,
            overlay: HashMap::new(),
            generation: 0,
            unflushed: 0,
        };
        let mut delta = DeltaIndex {
            root: snapshot.base.root().to_path_buf(),
            config,
            writer: Mutex::new(state),
            snapshot: RwLock::new(Arc::new(snapshot)),
            journal_bytes_dropped: 0,
        };
        delta.journal_bytes_dropped = delta.replay_journal()?;
        Ok(delta)
    }

    /// The index root (where `gen-<N>` directories, `CURRENT`, and the
    /// journal live).
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Pin the current point-in-time view. The returned snapshot never
    /// changes — concurrent applies and flushes publish *new* snapshots.
    pub fn snapshot(&self) -> Arc<DeltaSnapshot> {
        lock_read(&self.snapshot).clone()
    }

    /// The current mutation generation.
    pub fn generation(&self) -> u64 {
        self.snapshot().generation
    }

    /// Journaled mutations awaiting compaction.
    pub fn unflushed(&self) -> u64 {
        lock(&self.writer).unflushed
    }

    /// Point-in-time counters for `kbtim validate` and the drain path.
    pub fn stats(&self) -> DeltaStats {
        let state = lock(&self.writer);
        let snap = self.snapshot();
        DeltaStats {
            generation: snap.generation,
            flushed_generation: snap.base.generation(),
            unflushed: state.unflushed,
            overlay_keywords: snap.overlay.len(),
            num_users: state.num_users,
            num_edges: state.edges.len() as u64,
            num_entries: state.entries.len() as u64,
            journal_bytes_dropped: self.journal_bytes_dropped,
        }
    }

    /// Apply a mutation batch: validate, journal, fold into the writer
    /// state, re-materialize every dirty keyword, and publish the new
    /// snapshot. Returns the new generation. All-or-nothing: an invalid
    /// mutation anywhere in the batch rejects the whole batch before
    /// any state changes.
    pub fn apply(&self, mutations: &[Mutation]) -> Result<u64, IndexError> {
        if mutations.is_empty() {
            return Ok(self.generation());
        }
        let mut state = lock(&self.writer);
        // Validate the whole batch against the evolving universe first —
        // nothing is journaled or applied if any mutation is bad.
        let mut users = state.num_users;
        for m in mutations {
            match *m {
                Mutation::IngestUser => users += 1,
                Mutation::IngestEdge { from, to } => {
                    if from >= users || to >= users {
                        return Err(IndexError::Corrupt(format!(
                            "edge ({from}, {to}) out of range (|V| = {users})"
                        )));
                    }
                }
                Mutation::SetTopicWeight { user, topic, weight } => {
                    if user >= users {
                        return Err(IndexError::Corrupt(format!(
                            "user {user} out of range (|V| = {users})"
                        )));
                    }
                    if topic >= state.num_topics {
                        return Err(IndexError::Corrupt(format!(
                            "topic {topic} out of range ({} topics)",
                            state.num_topics
                        )));
                    }
                    if !weight.is_finite() || weight < 0.0 {
                        return Err(IndexError::Corrupt(format!(
                            "weight must be finite and >= 0, got {weight}"
                        )));
                    }
                }
            }
        }
        self.journal_append(mutations).map_err(storage_io)?;
        let dirty = apply_to_state(&mut state, mutations);
        state.unflushed += mutations.len() as u64;
        self.publish(&state, dirty.as_ref())
    }

    /// Compact base ∪ delta into segment generation `N+1` and republish
    /// over the fresh base. Returns the new *flushed* generation. A
    /// no-op (returning the current flushed generation) when nothing is
    /// outstanding. On any failure — including the `flush.build` /
    /// `flush.verify` / `flush.commit` failpoints — the published
    /// snapshot and the `CURRENT` pointer are untouched and a retry
    /// starts from scratch.
    pub fn flush(&self) -> Result<u64, IndexError> {
        let mut state = lock(&self.writer);
        let prev = self.snapshot();
        if state.unflushed == 0 && prev.overlay.is_empty() {
            return Ok(prev.base.generation());
        }
        if kbtim_fault::inject("flush.build") {
            return Err(IndexError::Injected("flush.build"));
        }
        let new_gen = prev.base.generation() + 1;
        let gen_name = format!("{}{}", crate::GEN_DIR_PREFIX, new_gen);
        let tmp = self.root.join(format!("{gen_name}.tmp"));
        if let Err(e) = self.flush_into(&state, &prev, &gen_name, &tmp) {
            let _ = std::fs::remove_dir_all(&tmp);
            return Err(e);
        }

        // Committed: reopen the fresh generation as the new base and
        // republish with an empty overlay. It opens in the mode the old
        // base serves from, so a base whose mappings degraded stays `file`.
        let new_base = KbtimIndex::open_with(
            &self.root,
            prev.base.io_stats().clone(),
            prev.base.serving_mode(),
        )?
        .with_threads(prev.base.threads());
        let _ = std::fs::remove_file(self.root.join(DELTA_JOURNAL_FILE));
        state.unflushed = 0;
        let snapshot = DeltaSnapshot {
            meta: new_base.meta().clone(),
            base: Arc::new(new_base),
            overlay: HashMap::new(),
            generation: prev.generation + 1,
            unflushed: 0,
        };
        *lock_write(&self.snapshot) = Arc::new(snapshot);
        Ok(new_gen)
    }

    /// Structurally verify that the *would-be* next generation equals
    /// base ∪ delta: build it into a scratch directory, compare the
    /// built catalog byte-for-byte against the union snapshot's, and
    /// remove the scratch. Commits nothing — this is the check `kbtim
    /// validate` reports for a live tier. A clean tier (nothing
    /// unflushed, empty overlay) verifies trivially against itself.
    pub fn verify(&self) -> Result<(), IndexError> {
        let state = lock(&self.writer);
        let prev = self.snapshot();
        let scratch = self.root.join("verify.tmp");
        let next = format!("{}{}", crate::GEN_DIR_PREFIX, prev.base.generation() + 1);
        let result = self.build_and_verify(&state, &prev, &next, &scratch);
        let _ = std::fs::remove_dir_all(&scratch);
        result
    }

    /// Build + verify + commit one generation directory. Split out so
    /// [`DeltaIndex::flush`] can clean up the staging directory on any
    /// error without sprinkling cleanup at every `?`.
    fn flush_into(
        &self,
        state: &DeltaState,
        prev: &DeltaSnapshot,
        gen_name: &str,
        tmp: &Path,
    ) -> Result<(), IndexError> {
        self.build_and_verify(state, prev, gen_name, tmp)?;

        // Commit: two atomic renames. A crash between them leaves a
        // complete-but-unreferenced generation directory; `CURRENT`
        // still names the old one, so readers never see a torn state.
        if kbtim_fault::inject("flush.commit") {
            return Err(IndexError::Injected("flush.commit"));
        }
        let final_dir = self.root.join(gen_name);
        let _ = std::fs::remove_dir_all(&final_dir);
        std::fs::rename(tmp, &final_dir).map_err(storage_io)?;
        let current_tmp = self.root.join(format!("{}.tmp", crate::CURRENT_FILE));
        std::fs::write(&current_tmp, format!("{gen_name}\n")).map_err(storage_io)?;
        std::fs::rename(&current_tmp, self.root.join(crate::CURRENT_FILE)).map_err(storage_io)?;
        Ok(())
    }

    /// Build base ∪ delta into `dir` and verify the built catalog is
    /// byte-identical to the union snapshot's — the structural "gen N+1
    /// equals base ∪ delta" guarantee behind both [`DeltaIndex::flush`]
    /// and [`DeltaIndex::verify`].
    fn build_and_verify(
        &self,
        state: &DeltaState,
        prev: &DeltaSnapshot,
        gen_name: &str,
        dir: &Path,
    ) -> Result<(), IndexError> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(storage_io)?;

        // The logical dataset rides inside the generation directory so
        // the next `attach` (or `kbtim ingest`) can reload base content
        // without a side channel. f32 `Display` → parse roundtrips
        // exactly, so the rewritten dataset is the same logical content.
        let (graph, profiles) = materialize_dataset(state);
        kbtim_graph::io::write_edge_list(&graph, dir.join("graph.txt")).map_err(storage_io)?;
        kbtim_topics::io::write_profiles(&profiles, dir.join("profiles.tsv"))
            .map_err(storage_io)?;

        let model = IcModel::weighted_cascade(&graph);
        let builder = IndexBuilder::new(&model, &profiles, self.config);
        builder.build(dir)?;

        if kbtim_fault::inject("flush.verify") {
            return Err(IndexError::Injected("flush.verify"));
        }
        let built = KbtimIndex::open(dir, kbtim_storage::IoStats::new())?;
        let mut expected = union_meta(state, prev, None);
        expected.codec = self.config.codec;
        expected.variant = self.config.variant;
        if built.meta().encode() != expected.encode() {
            return Err(IndexError::Corrupt(format!(
                "flush verification failed: {gen_name} catalog differs from base ∪ delta"
            )));
        }
        Ok(())
    }

    /// Re-materialize dirty keywords and publish the next snapshot.
    /// `dirty = None` means every keyword (the universe changed).
    fn publish(
        &self,
        state: &DeltaState,
        dirty: Option<&BTreeSet<TopicId>>,
    ) -> Result<u64, IndexError> {
        let prev = self.snapshot();
        let (graph, profiles) = materialize_dataset(state);
        let model = IcModel::weighted_cascade(&graph);
        let builder = IndexBuilder::new(&model, &profiles, self.config);

        let mut overlay = prev.overlay.clone();
        let all: Vec<TopicId>;
        let dirty_topics: &[TopicId] = match dirty {
            Some(set) => {
                all = set.iter().copied().collect();
                &all
            }
            None => {
                all = (0..state.num_topics).collect();
                &all
            }
        };
        for &topic in dirty_topics {
            let (meta, csr) = match builder.sample_keyword(topic)? {
                Some(sample) => {
                    let mut csr = IlCsr::default();
                    for (user, list) in &sample.il_entries {
                        csr.ids.extend_from_slice(list);
                        csr.close_list(*user);
                    }
                    // What the decoder guarantees of a block read from
                    // disk, and the in-place greedy relies on.
                    debug_assert!(csr.users.windows(2).all(|w| w[0] < w[1]));
                    debug_assert!(rr_query::check_universe(&csr, state.num_users).is_ok());
                    (sample.meta, csr)
                }
                // θ_w dropped to 0 — shadow the base row with the same
                // empty row a from-scratch build records.
                None => (empty_keyword(topic), IlCsr::default()),
            };
            overlay.insert(topic, Arc::new(OverlayKeyword { meta, lists: Arc::new([csr]) }));
        }

        let meta = union_meta(state, &prev, Some(&overlay));
        let generation = prev.generation + 1;
        let snapshot = DeltaSnapshot {
            base: prev.base.clone(),
            meta,
            overlay,
            generation,
            unflushed: state.unflushed,
        };
        *lock_write(&self.snapshot) = Arc::new(snapshot);
        Ok(generation)
    }

    /// Append a mutation batch to `root/delta.log` (exact f32 bits, one
    /// line per mutation).
    fn journal_append(&self, mutations: &[Mutation]) -> std::io::Result<()> {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.root.join(DELTA_JOURNAL_FILE))?;
        let mut buf = String::new();
        for m in mutations {
            match *m {
                Mutation::IngestUser => buf.push_str("user\n"),
                Mutation::IngestEdge { from, to } => {
                    buf.push_str(&format!("edge\t{from}\t{to}\n"));
                }
                Mutation::SetTopicWeight { user, topic, weight } => {
                    buf.push_str(&format!("weight\t{user}\t{topic}\t{}\n", weight.to_bits()));
                }
            }
        }
        file.write_all(buf.as_bytes())?;
        file.flush()
    }

    /// Replay `root/delta.log` left by a previous process: fold every
    /// journaled mutation into the writer state and publish one snapshot
    /// covering all of them (without re-journaling).
    ///
    /// [`DeltaIndex::journal_append`] ends every record in `\n`, so a
    /// final piece without one is the torn half of an append that was
    /// never acknowledged: it is not applied (`edge\t12\t3` cut from
    /// `edge\t12\t345` would parse), and the file is cut back to the
    /// last newline before anything appends — the next record would
    /// otherwise glue onto the torn half. A *terminated* line that does
    /// not parse is still `Corrupt`. Returns how many bytes were cut.
    fn replay_journal(&self) -> Result<u64, IndexError> {
        let path = self.root.join(DELTA_JOURNAL_FILE);
        let contents = match std::fs::read_to_string(&path) {
            Ok(c) => c,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(storage_io(e)),
        };
        let complete = contents.rfind('\n').map_or(0, |at| at + 1);
        let dropped = (contents.len() - complete) as u64;
        if dropped > 0 {
            let file = std::fs::OpenOptions::new().write(true).open(&path).map_err(storage_io)?;
            file.set_len(complete as u64).map_err(storage_io)?;
        }
        let mut mutations = Vec::new();
        for (i, line) in contents[..complete].lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            mutations.push(parse_journal_line(line).ok_or_else(|| {
                IndexError::Corrupt(format!("delta.log line {}: unparseable {line:?}", i + 1))
            })?);
        }
        if !mutations.is_empty() {
            let mut state = lock(&self.writer);
            let dirty = apply_to_state(&mut state, &mutations);
            state.unflushed += mutations.len() as u64;
            self.publish(&state, dirty.as_ref())?;
        }
        Ok(dropped)
    }
}

/// Fold a validated batch into the writer state; returns the dirty
/// keyword set (`None` = all keywords, because `|V|` or the graph — and
/// with them every θ_w, idf, and the cascade model — changed).
fn apply_to_state(state: &mut DeltaState, mutations: &[Mutation]) -> Option<BTreeSet<TopicId>> {
    let mut dirty = Some(BTreeSet::new());
    for m in mutations {
        match *m {
            Mutation::IngestUser => {
                state.num_users += 1;
                dirty = None;
            }
            Mutation::IngestEdge { from, to } => {
                state.edges.push((from, to));
                dirty = None;
            }
            Mutation::SetTopicWeight { user, topic, weight } => {
                if weight == 0.0 {
                    state.entries.remove(&(user, topic));
                } else {
                    state.entries.insert((user, topic), weight);
                }
                if let Some(set) = dirty.as_mut() {
                    set.insert(topic);
                }
            }
        }
    }
    dirty
}

/// Rebuild the logical dataset from the writer state.
fn materialize_dataset(state: &DeltaState) -> (Graph, UserProfiles) {
    let graph = Graph::from_edges(state.num_users, &state.edges);
    let entries: Vec<(NodeId, TopicId, f32)> =
        state.entries.iter().map(|(&(u, t), &tf)| (u, t, tf)).collect();
    let profiles = UserProfiles::from_entries(state.num_users, state.num_topics, &entries);
    (graph, profiles)
}

/// The union catalog: base rows shadowed by overlay rows, under the
/// mutated universe. `overlay = None` reuses the previous snapshot's
/// overlay (the flush-verify path).
fn union_meta(
    state: &DeltaState,
    prev: &DeltaSnapshot,
    overlay: Option<&HashMap<TopicId, Arc<OverlayKeyword>>>,
) -> IndexMeta {
    let overlay = overlay.unwrap_or(&prev.overlay);
    let base_meta = prev.base.meta();
    let keywords = (0..state.num_topics)
        .map(|t| match overlay.get(&t) {
            Some(ov) => ov.meta.clone(),
            None => base_meta.keywords[t as usize].clone(),
        })
        .collect();
    IndexMeta {
        num_users: state.num_users,
        num_topics: state.num_topics,
        codec: base_meta.codec,
        variant: base_meta.variant,
        model_name: base_meta.model_name.clone(),
        keywords,
    }
}

/// The catalog row a from-scratch build records for a keyword with no
/// segment (mirrors `IndexBuilder::build_keyword`'s empty row exactly —
/// flush verification byte-compares encodings).
fn empty_keyword(topic: TopicId) -> KeywordMeta {
    KeywordMeta {
        topic,
        theta: 0,
        tf_sum: 0.0,
        idf: 0.0,
        opt_w: 0.0,
        max_list_len: 0,
        num_partitions: 0,
        total_rr_members: 0,
    }
}

/// Parse one `delta.log` line (see [`DeltaIndex::journal_append`]).
fn parse_journal_line(line: &str) -> Option<Mutation> {
    let mut parts = line.split('\t');
    match parts.next()? {
        "user" => Some(Mutation::IngestUser),
        "edge" => {
            let from = parts.next()?.parse().ok()?;
            let to = parts.next()?.parse().ok()?;
            Some(Mutation::IngestEdge { from, to })
        }
        "weight" => {
            let user = parts.next()?.parse().ok()?;
            let topic = parts.next()?.parse().ok()?;
            let bits: u32 = parts.next()?.parse().ok()?;
            Some(Mutation::SetTopicWeight { user, topic, weight: f32::from_bits(bits) })
        }
        _ => None,
    }
}

fn storage_io(e: std::io::Error) -> IndexError {
    IndexError::Storage(kbtim_storage::segment::StorageError::Io(e))
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn lock_read<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|p| p.into_inner())
}

fn lock_write<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ThetaMode;
    use crate::format::IndexVariant;
    use kbtim_codec::Codec;
    use kbtim_core::theta::SamplingConfig;
    use kbtim_datagen::{Dataset, DatasetConfig, DatasetFamily};
    use kbtim_storage::{IoStats, TempDir};

    fn dataset() -> Dataset {
        DatasetConfig::family(DatasetFamily::News).num_users(300).num_topics(5).seed(17).build()
    }

    fn config() -> IndexBuildConfig {
        IndexBuildConfig {
            sampling: SamplingConfig { eps: 0.3, theta_cap: Some(500), ..SamplingConfig::fast() },
            codec: Codec::Packed,
            theta_mode: ThetaMode::Compact,
            variant: IndexVariant::Irr { partition_size: 16 },
            threads: 2,
            seed: 7,
            shards: 1,
        }
    }

    fn build_base(dir: &Path, data: &Dataset) -> Arc<KbtimIndex> {
        let model = IcModel::weighted_cascade(&data.graph);
        IndexBuilder::new(&model, &data.profiles, config()).build(dir).unwrap();
        Arc::new(KbtimIndex::open(dir, IoStats::new()).unwrap())
    }

    /// The from-scratch oracle: apply `mutations` to the dataset
    /// logically, build flat, query.
    fn oracle(data: &Dataset, mutations: &[Mutation], query: &Query) -> QueryOutcome {
        let mut num_users = data.profiles.num_users();
        let mut edges: Vec<(NodeId, NodeId)> = data.graph.edges().collect();
        let mut entries: BTreeMap<(NodeId, TopicId), f32> = BTreeMap::new();
        for user in 0..num_users {
            let (topics, tfs) = data.profiles.user_vector(user);
            for (&topic, &tf) in topics.iter().zip(tfs) {
                entries.insert((user, topic), tf);
            }
        }
        for m in mutations {
            match *m {
                Mutation::IngestUser => num_users += 1,
                Mutation::IngestEdge { from, to } => edges.push((from, to)),
                Mutation::SetTopicWeight { user, topic, weight } => {
                    if weight == 0.0 {
                        entries.remove(&(user, topic));
                    } else {
                        entries.insert((user, topic), weight);
                    }
                }
            }
        }
        let graph = Graph::from_edges(num_users, &edges);
        let flat: Vec<(NodeId, TopicId, f32)> =
            entries.iter().map(|(&(u, t), &tf)| (u, t, tf)).collect();
        let profiles = UserProfiles::from_entries(num_users, data.profiles.num_topics(), &flat);
        let model = IcModel::weighted_cascade(&graph);
        let tmp = TempDir::new("delta-oracle").unwrap();
        IndexBuilder::new(&model, &profiles, config()).build(tmp.path()).unwrap();
        let index = KbtimIndex::open(tmp.path(), IoStats::new()).unwrap();
        index.query_rr(query).unwrap()
    }

    fn assert_same(a: &QueryOutcome, b: &QueryOutcome) {
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.marginal_gains, b.marginal_gains);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.estimated_influence.to_bits(), b.estimated_influence.to_bits());
        assert_eq!(a.stats.theta_q, b.stats.theta_q);
    }

    #[test]
    fn snapshot_query_matches_from_scratch_build() {
        let data = dataset();
        let dir = TempDir::new("delta-base").unwrap();
        let base = build_base(dir.path(), &data);
        let delta = DeltaIndex::attach(base, &data.graph, &data.profiles, config()).unwrap();
        let query = Query::new([0u32, 2, 4], 5);

        // Unmutated: the union is the base.
        let muts: Vec<Mutation> = Vec::new();
        assert_same(&delta.snapshot().query(&query).unwrap(), &oracle(&data, &muts, &query));

        // Topic-weight mutations (single dirty keyword each).
        let muts = vec![
            Mutation::SetTopicWeight { user: 3, topic: 2, weight: 4.5 },
            Mutation::SetTopicWeight { user: 7, topic: 0, weight: 0.0 },
            Mutation::SetTopicWeight { user: 12, topic: 4, weight: 1.25 },
        ];
        delta.apply(&muts).unwrap();
        assert_same(&delta.snapshot().query(&query).unwrap(), &oracle(&data, &muts, &query));

        // Universe mutations (every keyword dirty).
        let mut all = muts.clone();
        let more = vec![
            Mutation::IngestUser,
            Mutation::IngestEdge { from: 300, to: 1 },
            Mutation::IngestEdge { from: 2, to: 300 },
            Mutation::SetTopicWeight { user: 300, topic: 2, weight: 9.0 },
        ];
        delta.apply(&more).unwrap();
        all.extend_from_slice(&more);
        assert_same(&delta.snapshot().query(&query).unwrap(), &oracle(&data, &all, &query));
        assert_eq!(delta.unflushed(), 7);
        assert_eq!(delta.generation(), 2);
    }

    #[test]
    fn leases_survive_a_mutation_of_another_keyword_but_not_a_flush() {
        use crate::serve::{EngineRequest, QueryEngine};
        let data = dataset();
        let dir = TempDir::new("delta-lease").unwrap();
        let base = build_base(dir.path(), &data);
        let delta = Arc::new(
            DeltaIndex::attach(base.clone(), &data.graph, &data.profiles, config()).unwrap(),
        );
        let engine = QueryEngine::new(base).with_merge_cache(8).with_delta(Arc::clone(&delta));
        let (a, b) = (2u32, 4u32);
        let ask = |topics: &[TopicId], mutations: &[Mutation]| {
            let query = Query::new(topics.iter().copied(), 5);
            let got = engine.query(&EngineRequest::new(topics.iter().copied(), 5)).unwrap();
            assert_same(&got, &oracle(&data, mutations, &query));
        };

        ask(&[a, b], &[]);
        assert_eq!((engine.keywords_decoded(), engine.keyword_cache_len()), (2, 2));

        // `a` turns dirty. `b`'s bytes did not change: its lease stays
        // in use although the mutation generation moved; `a` is read
        // from the overlay the snapshot owns — not decoded, not copied
        // into a pooled CSR, the same allocation on every read.
        let muts = [Mutation::SetTopicWeight { user: 3, topic: a, weight: 4.5 }];
        delta.apply(&muts).unwrap();
        let snap = delta.snapshot();
        let pool = &snap.base().scratch;
        let spare = pool.spare_csr_capacities();
        let overlay = snap.overlay_lists(a).expect("a is dirty");
        for _ in 0..2 {
            ask(&[a, b], &muts);
            ask(&[a], &muts);
            ask(&[b], &muts);
        }
        assert_eq!(engine.keywords_decoded(), 2, "b leased across the mutation, a never decoded");
        assert_eq!(pool.spare_csr_capacities(), spare, "no pooled CSR taken or returned");
        for _ in 0..2 {
            let arena = snap.decode_union(&[(a, 1)]).unwrap();
            let read = arena.csrs_of(a).unwrap();
            assert!(std::ptr::eq(read, &*overlay), "a read got its own copy of the overlay");
            snap.base().recycle_keywords(arena);
        }
        assert_eq!(pool.spare_csr_capacities(), spare);

        // A flush opens a new base: every keyword starts from a miss,
        // and the old base's lists leave with the first publish.
        delta.flush().unwrap();
        ask(&[a, b], &muts);
        assert_eq!((engine.keywords_decoded(), engine.keyword_cache_len()), (4, 2));
        ask(&[a], &muts);
        ask(&[b], &muts);
        assert_eq!(engine.keywords_decoded(), 4);
    }

    #[test]
    fn flush_compacts_and_reopens_the_next_generation() {
        let data = dataset();
        let dir = TempDir::new("delta-flush").unwrap();
        let base = build_base(dir.path(), &data);
        let delta = DeltaIndex::attach(base, &data.graph, &data.profiles, config()).unwrap();
        let query = Query::new([1u32, 3], 4);
        let muts = vec![
            Mutation::SetTopicWeight { user: 5, topic: 1, weight: 3.0 },
            Mutation::IngestUser,
            Mutation::SetTopicWeight { user: 300, topic: 3, weight: 2.0 },
        ];
        delta.apply(&muts).unwrap();
        let before = delta.snapshot().query(&query).unwrap();

        assert_eq!(delta.flush().unwrap(), 1);
        let snap = delta.snapshot();
        assert_eq!(snap.base().generation(), 1);
        assert_eq!(snap.overlay_keywords(), 0);
        assert_eq!(delta.unflushed(), 0);
        assert!(!dir.path().join(DELTA_JOURNAL_FILE).exists());
        // Post-flush answers are bit-identical to the pre-flush union.
        assert_same(&snap.query(&query).unwrap(), &before);
        // The generation directory is self-describing: a fresh open of
        // the root resolves to it.
        let reopened = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        assert_eq!(reopened.generation(), 1);
        assert_same(&reopened.query_rr(&query).unwrap(), &before);
    }

    #[test]
    fn journal_replay_restores_unflushed_mutations() {
        let data = dataset();
        let dir = TempDir::new("delta-journal").unwrap();
        let base = build_base(dir.path(), &data);
        let query = Query::new([0u32, 1, 2], 3);
        let muts = vec![
            Mutation::SetTopicWeight { user: 9, topic: 0, weight: 0.75 },
            Mutation::IngestUser,
            Mutation::IngestEdge { from: 300, to: 9 },
        ];
        let before = {
            let delta =
                DeltaIndex::attach(base.clone(), &data.graph, &data.profiles, config()).unwrap();
            delta.apply(&muts).unwrap();
            delta.snapshot().query(&query).unwrap()
        };
        // A new attach (same process restartish) replays delta.log.
        let again = DeltaIndex::attach(base, &data.graph, &data.profiles, config()).unwrap();
        assert_eq!(again.unflushed(), 3);
        assert_same(&again.snapshot().query(&query).unwrap(), &before);
    }

    #[test]
    fn a_torn_journal_tail_is_dropped_and_cut_off() {
        let data = dataset();
        let dir = TempDir::new("delta-torn").unwrap();
        let base = build_base(dir.path(), &data);
        let log = dir.path().join(DELTA_JOURNAL_FILE);
        let attach = || DeltaIndex::attach(base.clone(), &data.graph, &data.profiles, config());

        // Killed mid-record: two whole lines, then half of a third.
        let whole = format!("weight\t9\t0\t{}\nuser\n", 0.75f32.to_bits());
        std::fs::write(&log, format!("{whole}edge\t1")).unwrap();
        let delta = attach().unwrap();
        assert_eq!(delta.unflushed(), 2);
        assert_eq!(delta.stats().journal_bytes_dropped, "edge\t1".len() as u64);
        assert_eq!(std::fs::read_to_string(&log).unwrap(), whole, "cut back to the last newline");
        // The next record starts on its own line, so the next start
        // replays three mutations, not two and a glued-together wreck.
        delta.apply(&[Mutation::IngestEdge { from: 300, to: 9 }]).unwrap();
        drop(delta);
        let delta = attach().unwrap();
        assert_eq!((delta.unflushed(), delta.stats().journal_bytes_dropped), (3, 0));

        // A torn half that happens to parse (`edge 1→3` cut from
        // `edge 1→345`) was never acknowledged either.
        std::fs::write(&log, "user\nedge\t1\t3").unwrap();
        let delta = attach().unwrap();
        assert_eq!((delta.unflushed(), delta.stats().journal_bytes_dropped), (1, 8));
        assert_eq!(std::fs::read_to_string(&log).unwrap(), "user\n");

        // A whole line that does not parse is damage, not a torn tail.
        std::fs::write(&log, "user\nedge\t1\n").unwrap();
        assert!(matches!(attach(), Err(IndexError::Corrupt(_))));
    }
}
