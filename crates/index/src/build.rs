//! Index construction — Algorithm 1 (`BuildRR`) and Algorithm 3
//! (`BuildIRR`).
//!
//! For every keyword `w` held by at least one user:
//!
//! 1. estimate `OPT^w` (singleton for Eqn 8's conservative `θ̂_w`, size-`K`
//!    for Eqn 10's compact `θ_w` — the paper's Table 3 shows the compact
//!    bound shrinking the index ~9×);
//! 2. draw `θ_w` RR sets with roots from `ps(v, w) ∝ tf(w, v)`;
//! 3. invert them into `L_w`, and for the IRR variant sort by list length,
//!    partition into blocks of δ users, group RR sets by first-touching
//!    partition and record first occurrences (`IP_w`);
//! 4. write one checksummed segment per keyword.
//!
//! Keywords build in parallel on a fixed-size thread pool (the paper uses
//! 8 threads, §6.2); per-keyword RNG streams are derived from the build
//! seed and the topic id, so the index bytes are independent of thread
//! scheduling.

use crate::format::{self, IlEntry, IndexMeta, IndexVariant, IrEntry, KeywordMeta, PartitionMeta};
use crate::IndexError;
use kbtim_codec::Codec;
use kbtim_core::alias::RootSampler;
use kbtim_core::invindex::InvertedIndex;
use kbtim_core::opt::estimate_opt;
use kbtim_core::theta::{keyword_theta, SamplingConfig};
use kbtim_exec::ExecPool;
use kbtim_graph::NodeId;
use kbtim_propagation::{sample_batch, RrBatch, TriggeringModel};
use kbtim_storage::segment::SegmentWriter;
use kbtim_topics::{TopicId, UserProfiles};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use std::path::Path;
use std::time::{Duration, Instant};

/// Which θ bound sizes each keyword's RR pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThetaMode {
    /// Eqn 8: `θ̂_w` with `OPT^w_1` — conservative, ~an order of magnitude
    /// larger on disk (paper Table 3).
    Conservative,
    /// Eqn 10: `θ_w` with `OPT^w_K` — the paper's default.
    Compact,
}

/// Build-time configuration.
#[derive(Debug, Clone, Copy)]
pub struct IndexBuildConfig {
    /// ε, K and the OPT-estimation knobs.
    pub sampling: SamplingConfig,
    /// List codec (Table 4 compares `Raw` vs `Packed`).
    pub codec: Codec,
    /// θ̂_w (Eqn 8) vs θ_w (Eqn 10).
    pub theta_mode: ThetaMode,
    /// RR-only or IRR layout.
    pub variant: IndexVariant,
    /// Worker threads (paper: 8).
    pub threads: usize,
    /// Deterministic build seed.
    pub seed: u64,
    /// User-universe shards. 1 (the default) writes the legacy flat
    /// layout; S > 1 splits every keyword segment across `shard-<i>/`
    /// subdirectories by contiguous user range (see
    /// [`crate::format::shard_cuts`]). Sampling stays global, so query
    /// results are bit-identical for every S.
    pub shards: usize,
}

impl Default for IndexBuildConfig {
    /// Laptop-scale defaults: compact θ, packed codec, IRR with the
    /// paper's δ = 100, 8 threads.
    fn default() -> Self {
        IndexBuildConfig {
            sampling: SamplingConfig::fast(),
            codec: Codec::Packed,
            theta_mode: ThetaMode::Compact,
            variant: IndexVariant::Irr { partition_size: 100 },
            threads: 8,
            seed: 42,
            shards: 1,
        }
    }
}

/// FNV-1a offset basis (per-shard build fingerprints; the validator
/// recomputes the same fold to audit `shards.manifest`).
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into an FNV-1a hash.
pub(crate) fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash = (hash ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// The members of a (sorted) RR set that fall in the user range
/// `[lo, hi)` — shard `i`'s view of the set.
fn restrict(set: &[NodeId], lo: NodeId, hi: NodeId) -> &[NodeId] {
    &set[set.partition_point(|&v| v < lo)..set.partition_point(|&v| v < hi)]
}

/// Per-keyword construction statistics (rows of Tables 3–5).
#[derive(Debug, Clone)]
pub struct KeywordBuildStats {
    /// Topic id.
    pub topic: TopicId,
    /// θ_w — RR sets sampled and stored.
    pub theta: u64,
    /// Mean RR-set size (nodes per set).
    pub mean_rr_size: f64,
    /// On-disk segment size in bytes.
    pub file_bytes: u64,
    /// Wall time for this keyword.
    pub elapsed: Duration,
}

/// Whole-build statistics.
#[derive(Debug, Clone)]
pub struct BuildReport {
    /// One entry per keyword with θ_w > 0.
    pub keywords: Vec<KeywordBuildStats>,
    /// Σ θ_w (Table 5's left column).
    pub total_theta: u64,
    /// Mean RR-set size across all keywords (Table 5's right column).
    pub mean_rr_size: f64,
    /// Total index bytes on disk, catalog included.
    pub total_bytes: u64,
    /// Wall-clock build time.
    pub elapsed: Duration,
}

/// Everything one keyword build produces: its global catalog row, the
/// per-shard catalog rows with segment-content fingerprints (empty for
/// the legacy flat layout), and the build stats.
struct KeywordBuild {
    meta: KeywordMeta,
    shard_rows: Vec<(KeywordMeta, u64)>,
    stats: KeywordBuildStats,
}

/// One keyword's complete sampled content, before any segment is
/// written: the global catalog row, the RR batch, and the inverted
/// list. Produced by [`IndexBuilder::sample_keyword`] — the shared
/// deterministic core of the on-disk build and the delta tier's
/// in-memory keyword materializer.
pub(crate) struct KeywordSample {
    /// Global catalog row (θ_w, tf·idf mass, OPT^w, list statistics).
    pub(crate) meta: KeywordMeta,
    /// The θ_w sampled RR sets.
    pub(crate) sets: RrBatch,
    /// `L_w`: ascending users with their ascending rr-id lists.
    pub(crate) il_entries: Vec<IlEntry>,
}

/// What [`IndexBuilder::write_segment`] measured for one
/// (keyword × shard) segment.
struct SegmentSummary {
    file_bytes: u64,
    content_fp: u64,
    max_list_len: u32,
    num_partitions: u32,
    total_members: u64,
}

/// Builds an on-disk index from a propagation model and user profiles.
pub struct IndexBuilder<'a, M: TriggeringModel> {
    model: &'a M,
    profiles: &'a UserProfiles,
    config: IndexBuildConfig,
}

impl<'a, M: TriggeringModel> IndexBuilder<'a, M> {
    /// Create a builder. The model's graph and the profiles must agree on
    /// the number of users.
    pub fn new(
        model: &'a M,
        profiles: &'a UserProfiles,
        config: IndexBuildConfig,
    ) -> IndexBuilder<'a, M> {
        assert_eq!(model.graph().num_nodes(), profiles.num_users(), "graph/profiles size mismatch");
        assert!(config.threads >= 1, "need at least one build thread");
        assert!(config.shards >= 1, "need at least one shard");
        if let IndexVariant::Irr { partition_size } = config.variant {
            assert!(partition_size >= 1, "partition size must be >= 1");
        }
        IndexBuilder { model, profiles, config }
    }

    /// Build the index into `dir` (created if missing; existing segments
    /// are overwritten).
    pub fn build(&self, dir: impl AsRef<Path>) -> Result<BuildReport, IndexError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(kbtim_storage::segment::StorageError::Io)?;
        let shards = self.config.shards;
        if shards > 1 {
            for s in 0..shards {
                std::fs::create_dir_all(dir.join(format::shard_dir_name(s)))
                    .map_err(kbtim_storage::segment::StorageError::Io)?;
            }
        }
        let start = Instant::now();
        let num_topics = self.profiles.num_topics();

        // One shard per keyword on the deterministic pool; per-keyword RNG
        // streams derive from (build seed, topic), so segment bytes are
        // independent of scheduling. The failure flag makes workers skip
        // keywords not yet started once any keyword errors (fail-fast, as
        // the pre-pool worker loop did) — it can never affect a
        // successful build.
        let pool = ExecPool::new(Some(self.config.threads));
        let failed = std::sync::atomic::AtomicBool::new(false);
        let results: Vec<Option<Result<KeywordBuild, IndexError>>> =
            pool.map_shards(num_topics as usize, |topic| {
                if failed.load(std::sync::atomic::Ordering::Relaxed) {
                    return None;
                }
                let entry = self.build_keyword(dir, topic as TopicId);
                if entry.is_err() {
                    failed.store(true, std::sync::atomic::Ordering::Relaxed);
                }
                Some(entry)
            });

        let mut keywords_meta = Vec::with_capacity(num_topics as usize);
        let mut shard_keywords: Vec<Vec<KeywordMeta>> =
            vec![Vec::with_capacity(num_topics as usize); if shards > 1 { shards } else { 0 }];
        let mut shard_fps: Vec<u64> = vec![FNV_OFFSET; shards];
        let mut stats = Vec::new();
        for entry in results {
            let build = match entry {
                Some(Ok(build)) => build,
                Some(Err(e)) => return Err(e),
                // Shards are claimed in index order, so a skip can only
                // follow the failing entry — which the arm above already
                // returned. Unreachable in practice; tolerated here so the
                // guard below (not a panic) reports any logic rot.
                None => continue,
            };
            if build.meta.theta > 0 {
                stats.push(build.stats);
            }
            for (s, (row, content_fp)) in build.shard_rows.into_iter().enumerate() {
                // Shard fingerprint: FNV-1a over every keyword's (topic,
                // segment-content hash), folded in topic order.
                shard_fps[s] = fnv1a(&row.topic.to_le_bytes(), shard_fps[s]);
                shard_fps[s] = fnv1a(&content_fp.to_le_bytes(), shard_fps[s]);
                shard_keywords[s].push(row);
            }
            keywords_meta.push(build.meta);
        }
        if failed.into_inner() {
            return Err(IndexError::Corrupt(
                "keyword build failed without a reported error".into(),
            ));
        }

        // Global catalog — byte-identical for every shard count, so
        // Eqn-11 budgets and the cost model never depend on S.
        let meta = IndexMeta {
            num_users: self.profiles.num_users(),
            num_topics,
            codec: self.config.codec,
            variant: self.config.variant,
            model_name: self.model.name().to_string(),
            keywords: keywords_meta,
        };
        let mut writer = SegmentWriter::create(dir.join(format::META_FILE))?;
        writer.write_block(format::META_BLOCK, &meta.encode())?;
        let mut overhead_bytes = writer.finish()?;

        // Sharded layout: one standalone catalog per shard (global θ /
        // tf_sum / idf / opt_w rows with shard-local list statistics)
        // plus the manifest that announces the split on open.
        if shards > 1 {
            for (s, keywords) in shard_keywords.into_iter().enumerate() {
                let shard_meta = IndexMeta {
                    num_users: self.profiles.num_users(),
                    num_topics,
                    codec: self.config.codec,
                    variant: self.config.variant,
                    model_name: self.model.name().to_string(),
                    keywords,
                };
                let mut writer = SegmentWriter::create(
                    dir.join(format::shard_dir_name(s)).join(format::META_FILE),
                )?;
                writer.write_block(format::META_BLOCK, &shard_meta.encode())?;
                overhead_bytes += writer.finish()?;
            }
            let manifest = format::ShardManifest {
                num_users: self.profiles.num_users(),
                cuts: format::shard_cuts(self.profiles.num_users(), shards),
                fingerprints: shard_fps,
            };
            let mut writer = SegmentWriter::create(dir.join(format::SHARD_MANIFEST_FILE))?;
            writer.write_block(format::SHARD_MANIFEST_BLOCK, &manifest.encode())?;
            overhead_bytes += writer.finish()?;
        }

        let total_theta: u64 = meta.keywords.iter().map(|k| k.theta).sum();
        let total_members: u64 = meta.keywords.iter().map(|k| k.total_rr_members).sum();
        let total_bytes = overhead_bytes + stats.iter().map(|s| s.file_bytes).sum::<u64>();
        Ok(BuildReport {
            keywords: stats,
            total_theta,
            mean_rr_size: if total_theta == 0 {
                0.0
            } else {
                total_members as f64 / total_theta as f64
            },
            total_bytes,
            elapsed: start.elapsed(),
        })
    }

    /// Sample one keyword's complete logical content — the θ_w RR sets,
    /// the inverted list `L_w`, and the global catalog row — without
    /// touching disk. `None` when the keyword holds no segment (no
    /// profile mass, or θ_w = 0); an error when θ_w outgrows the rr-id
    /// space of the inverted-list layout ([`format::MAX_RR_SETS`]).
    ///
    /// This is the deterministic core of [`IndexBuilder::build_keyword`]
    /// and the oracle the delta tier materializes dirty keywords with:
    /// a pure function of (model, profiles, config, topic), never of the
    /// shard split or scheduling.
    pub(crate) fn sample_keyword(
        &self,
        topic: TopicId,
    ) -> Result<Option<KeywordSample>, IndexError> {
        let (users, tfs) = self.profiles.topic_vector(topic);
        if users.is_empty() {
            return Ok(None);
        }
        let weights: Vec<f64> = tfs.iter().map(|&t| t as f64).collect();
        let Some(roots) = RootSampler::from_sparse(users, &weights) else {
            return Ok(None);
        };
        let tf_sum = self.profiles.tf_sum(topic);

        // Deterministic per-keyword RNG stream, independent of scheduling.
        let mut rng = SmallRng::seed_from_u64(
            self.config.seed.wrapping_add((topic as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );

        // OPT^w_1 (Eqn 8) or OPT^w_K (Eqn 10), in raw-tf units.
        let opt_k = match self.config.theta_mode {
            ThetaMode::Conservative => 1,
            ThetaMode::Compact => self.config.sampling.k_max,
        };
        // Keywords already build in parallel, so the intra-keyword batch
        // sampler runs sequentially (still sharded + re-seeded, keeping
        // segment bytes a pure function of the build seed).
        let keyword_pool = ExecPool::sequential();
        let opt = estimate_opt(
            self.model,
            &roots,
            tf_sum,
            opt_k,
            &self.config.sampling,
            &keyword_pool,
            &mut rng,
        );
        let theta = keyword_theta(
            self.model.graph().num_nodes() as u64,
            tf_sum,
            opt.value.max(1e-12),
            &self.config.sampling,
        );
        if theta == 0 {
            return Ok(None);
        }
        if theta > format::MAX_RR_SETS {
            return Err(IndexError::Corrupt(format!(
                "keyword {topic}: θ_w = {theta} exceeds the {} rr ids an inverted list can name",
                format::MAX_RR_SETS
            )));
        }

        // Sample R_w into a flat arena batch.
        let batch_seed = rng.next_u64();
        let sets = sample_batch(self.model, theta as usize, batch_seed, &keyword_pool, |rng| {
            roots.sample(rng)
        });
        let total_members = sets.total_members() as u64;

        // Invert into L_w by counting sort over the arena (rr ids ascend
        // per user by construction, users ascend in `present`), then
        // materialize the per-user entries the encoder consumes.
        let inverted = InvertedIndex::from_batch(&sets);
        let il_entries: Vec<IlEntry> =
            inverted.present().iter().map(|&u| (u, inverted.list(u).to_vec())).collect();
        let max_list_len = il_entries.iter().map(|(_, l)| l.len() as u32).max().unwrap_or(0);

        // Global catalog row statistics — a pure function of the sampled
        // sets, never of the shard split.
        let num_partitions = match self.config.variant {
            IndexVariant::Irr { partition_size } => {
                il_entries.len().div_ceil(partition_size as usize) as u32
            }
            IndexVariant::Rr => 0,
        };

        let meta = KeywordMeta {
            topic,
            theta,
            tf_sum,
            idf: self.profiles.idf(topic),
            opt_w: opt.value,
            max_list_len,
            num_partitions,
            total_rr_members: total_members,
        };
        Ok(Some(KeywordSample { meta, sets, il_entries }))
    }

    /// Build one keyword's segment(s); returns its catalog rows and stats.
    fn build_keyword(&self, dir: &Path, topic: TopicId) -> Result<KeywordBuild, IndexError> {
        let started = Instant::now();
        let shards = self.config.shards;
        let empty = |topic| {
            let meta = KeywordMeta {
                topic,
                theta: 0,
                tf_sum: 0.0,
                idf: 0.0,
                opt_w: 0.0,
                max_list_len: 0,
                num_partitions: 0,
                total_rr_members: 0,
            };
            KeywordBuild {
                shard_rows: if shards > 1 { vec![(meta.clone(), 0); shards] } else { Vec::new() },
                meta,
                stats: KeywordBuildStats {
                    topic,
                    theta: 0,
                    mean_rr_size: 0.0,
                    file_bytes: 0,
                    elapsed: started.elapsed(),
                },
            }
        };

        let Some(KeywordSample { meta, sets, il_entries }) = self.sample_keyword(topic)? else {
            return Ok(empty(topic));
        };
        let (theta, tf_sum, total_members) = (meta.theta, meta.tf_sum, meta.total_rr_members);

        let num_users = self.profiles.num_users();
        let mut shard_rows = Vec::new();
        let file_bytes = if shards == 1 {
            // Legacy flat layout: the full universe is one shard.
            let path = dir.join(format::keyword_file_name(topic));
            let summary = self.write_segment(&path, &sets, 0, num_users, &il_entries)?;
            debug_assert_eq!(summary.max_list_len, meta.max_list_len);
            debug_assert_eq!(summary.num_partitions, meta.num_partitions);
            debug_assert_eq!(summary.total_members, total_members);
            summary.file_bytes
        } else {
            let cuts = format::shard_cuts(num_users, shards);
            let mut total = 0u64;
            for s in 0..shards {
                let path =
                    dir.join(format::shard_dir_name(s)).join(format::keyword_file_name(topic));
                let summary =
                    self.write_segment(&path, &sets, cuts[s], cuts[s + 1], &il_entries)?;
                total += summary.file_bytes;
                shard_rows.push((
                    KeywordMeta {
                        topic,
                        theta,
                        tf_sum,
                        idf: meta.idf,
                        opt_w: meta.opt_w,
                        max_list_len: summary.max_list_len,
                        num_partitions: summary.num_partitions,
                        total_rr_members: summary.total_members,
                    },
                    summary.content_fp,
                ));
            }
            total
        };

        let stats = KeywordBuildStats {
            topic,
            theta,
            mean_rr_size: total_members as f64 / theta as f64,
            file_bytes,
            elapsed: started.elapsed(),
        };
        Ok(KeywordBuild { meta, shard_rows, stats })
    }

    /// Write one keyword segment restricted to the user range `[lo, hi)`:
    /// every RR set keeps its global id but only its in-range members
    /// (possibly none), and the inverted list covers in-range users only
    /// — whose rr-id lists are *unchanged* from the global build, because
    /// each user witnesses its own RR sets. With `[0, num_users)` this is
    /// exactly the monolithic segment, byte for byte.
    fn write_segment(
        &self,
        path: &Path,
        sets: &RrBatch,
        lo: NodeId,
        hi: NodeId,
        il_entries: &[IlEntry],
    ) -> Result<SegmentSummary, IndexError> {
        let lo_idx = il_entries.partition_point(|(u, _)| *u < lo);
        let hi_idx = il_entries.partition_point(|(u, _)| *u < hi);
        let il_entries = &il_entries[lo_idx..hi_idx];
        let max_list_len = il_entries.iter().map(|(_, l)| l.len() as u32).max().unwrap_or(0);

        let codec = self.config.codec;
        let mut writer = SegmentWriter::create(path)?;

        // "rr" + "rr_off": sets in id order with a byte-offset table. The
        // offset table always spans all θ_w ids, so shared rr-id space
        // survives sharding (a set with no in-range members encodes
        // empty).
        writer.begin_block(format::RR_BLOCK)?;
        let mut offsets: Vec<u64> = Vec::with_capacity(sets.len() + 1);
        let mut scratch = Vec::new();
        let mut total_members = 0u64;
        offsets.push(0);
        for set in sets.iter() {
            let set = restrict(set, lo, hi);
            total_members += set.len() as u64;
            scratch.clear();
            codec.encode_sorted(set, &mut scratch);
            writer.write(&scratch)?;
            offsets.push(writer.block_position());
        }
        writer.end_block()?;
        let mut off_bytes = Vec::with_capacity(offsets.len() * 8);
        for &o in &offsets {
            off_bytes.extend_from_slice(&o.to_le_bytes());
        }
        writer.write_block(format::RR_OFF_BLOCK, &off_bytes)?;

        // "il".
        let mut il_bytes = Vec::new();
        format::encode_il_entries(il_entries, codec, &mut il_bytes);
        writer.write_block(format::IL_BLOCK, &il_bytes)?;

        // IRR blocks.
        let mut num_partitions = 0u32;
        if let IndexVariant::Irr { partition_size } = self.config.variant {
            // IP_w: first occurrence = first (smallest) id in each list.
            let ip_users: Vec<NodeId> = il_entries.iter().map(|(u, _)| *u).collect();
            let ip_firsts: Vec<u32> = il_entries.iter().map(|(_, l)| l[0]).collect();
            let mut ip_bytes = Vec::new();
            format::encode_ip(&ip_users, &ip_firsts, codec, &mut ip_bytes);
            writer.write_block(format::IP_BLOCK, &ip_bytes)?;

            // IL sorted by (len desc, user asc), split into δ-sized chunks;
            // each chunk then goes back into user order, which is what
            // the block encoder takes.
            let mut sorted = il_entries.to_vec();
            sorted.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
            let delta = partition_size as usize;
            let longest: Vec<u32> = sorted.chunks(delta).map(|c| c[0].1.len() as u32).collect();
            for chunk in sorted.chunks_mut(delta) {
                chunk.sort_unstable_by_key(|&(user, _)| user);
            }
            let chunks: Vec<&[IlEntry]> = sorted.chunks(delta).collect();
            num_partitions = chunks.len() as u32;

            // Assign each RR set to the first partition touching it.
            let mut assigned = vec![false; sets.len()];
            let mut parts: Vec<PartitionMeta> = Vec::with_capacity(chunks.len());
            let mut ilp_bytes = Vec::new();
            let mut irp_bytes = Vec::new();
            for (p, chunk) in chunks.iter().enumerate() {
                let il_start = ilp_bytes.len() as u64;
                format::encode_il_entries(chunk, codec, &mut ilp_bytes);
                let il_end = ilp_bytes.len() as u64;

                let mut ids: Vec<u32> = Vec::new();
                for (_, list) in chunk.iter() {
                    for &rr in list {
                        if !assigned[rr as usize] {
                            assigned[rr as usize] = true;
                            ids.push(rr);
                        }
                    }
                }
                ids.sort_unstable();
                let ir_entries: Vec<IrEntry> = ids
                    .iter()
                    .map(|&id| (id, restrict(sets.set(id as usize), lo, hi).to_vec()))
                    .collect();
                let ir_start = irp_bytes.len() as u64;
                let ir_samples = format::encode_ir_entries(&ir_entries, codec, &mut irp_bytes);
                let ir_end = irp_bytes.len() as u64;

                let max_len_after = longest.get(p + 1).copied().unwrap_or(0);
                parts.push(PartitionMeta {
                    il_start,
                    il_end,
                    ir_start,
                    ir_end,
                    rr_count: ir_entries.len() as u32,
                    user_count: chunk.len() as u32,
                    max_len_after,
                    ir_samples,
                });
            }
            // A set reaches a partition iff it has in-range members (the
            // monolithic range restricts to the full, never-empty set).
            debug_assert!(
                (0..sets.len()).all(|id| assigned[id] != restrict(sets.set(id), lo, hi).is_empty()),
                "every RR set with in-range members reaches a partition"
            );

            let mut pmeta_bytes = Vec::new();
            format::encode_partition_meta(&parts, &mut pmeta_bytes);
            writer.write_block(format::PMETA_BLOCK, &pmeta_bytes)?;
            writer.write_block(format::ILP_BLOCK, &ilp_bytes)?;
            writer.write_block(format::IRP_BLOCK, &irp_bytes)?;
        }

        let file_bytes = writer.finish()?;
        // Content fingerprint for the shard manifest: hash the finished
        // segment (checksummed framing included) so any reflush that
        // changes a single block is visible to the manifest.
        let content = std::fs::read(path).map_err(kbtim_storage::segment::StorageError::Io)?;
        Ok(SegmentSummary {
            file_bytes,
            content_fp: fnv1a(&content, FNV_OFFSET),
            max_list_len,
            num_partitions,
            total_members,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KbtimIndex;
    use kbtim_datagen::{DatasetConfig, DatasetFamily};
    use kbtim_propagation::model::IcModel;
    use kbtim_storage::{IoStats, TempDir};

    fn small_dataset() -> kbtim_datagen::Dataset {
        DatasetConfig::family(DatasetFamily::News).num_users(400).num_topics(6).seed(11).build()
    }

    fn small_config() -> IndexBuildConfig {
        IndexBuildConfig {
            sampling: SamplingConfig {
                theta_cap: Some(800),
                opt_initial_samples: 64,
                opt_max_rounds: 6,
                ..SamplingConfig::fast()
            },
            codec: Codec::Packed,
            theta_mode: ThetaMode::Compact,
            variant: IndexVariant::Irr { partition_size: 16 },
            threads: 4,
            seed: 7,
            shards: 1,
        }
    }

    #[test]
    fn build_and_open_roundtrip() {
        let data = small_dataset();
        let model = IcModel::weighted_cascade(&data.graph);
        let dir = TempDir::new("idx-build").unwrap();
        let report =
            IndexBuilder::new(&model, &data.profiles, small_config()).build(dir.path()).unwrap();
        assert!(report.total_theta > 0);
        assert!(report.total_bytes > 0);
        assert!(!report.keywords.is_empty());

        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        assert_eq!(index.meta().num_users, 400);
        assert_eq!(index.meta().num_topics, 6);
        assert_eq!(index.meta().model_name, "IC");
        let disk = index.disk_bytes().unwrap();
        assert_eq!(disk, report.total_bytes);
    }

    #[test]
    fn a_version_1_segment_is_refused_on_open() {
        // A directory from before the columnar il/ilp layout carries
        // container version 1 in every segment header; there is no reader
        // for it, and `open` says so instead of misparsing the blocks.
        use kbtim_storage::segment::StorageError;
        let data = small_dataset();
        let model = IcModel::weighted_cascade(&data.graph);
        let dir = TempDir::new("idx-v1").unwrap();
        IndexBuilder::new(&model, &data.profiles, small_config()).build(dir.path()).unwrap();
        for name in [format::keyword_file_name(0), format::META_FILE.to_string()] {
            let path = dir.path().join(&name);
            let pristine = std::fs::read(&path).unwrap();
            let mut old = pristine.clone();
            assert_eq!(&old[..8], b"KBTIMSG1");
            old[8..12].copy_from_slice(&1u32.to_le_bytes());
            std::fs::write(&path, &old).unwrap();
            match KbtimIndex::open(dir.path(), IoStats::new()) {
                Err(IndexError::Storage(StorageError::Corrupt(msg))) => {
                    assert!(msg.contains("unsupported version 1"), "{name}: {msg}")
                }
                other => panic!("{name}: expected the version error, got {:?}", other.err()),
            }
            std::fs::write(&path, &pristine).unwrap();
        }
        KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
    }

    #[test]
    fn build_is_deterministic_across_thread_counts() {
        let data = small_dataset();
        let model = IcModel::weighted_cascade(&data.graph);
        let mut bytes_by_threads = Vec::new();
        for threads in [1, 4] {
            let dir = TempDir::new("idx-det").unwrap();
            let config = IndexBuildConfig { threads, ..small_config() };
            IndexBuilder::new(&model, &data.profiles, config).build(dir.path()).unwrap();
            // Hash every keyword file's bytes.
            let mut digest: Vec<(String, u64)> = Vec::new();
            for entry in std::fs::read_dir(dir.path()).unwrap() {
                let path = entry.unwrap().path();
                let bytes = std::fs::read(&path).unwrap();
                let sum = bytes
                    .iter()
                    .fold(0u64, |acc, &b| acc.wrapping_mul(1_000_003).wrapping_add(b as u64));
                digest.push((path.file_name().unwrap().to_string_lossy().into_owned(), sum));
            }
            digest.sort();
            bytes_by_threads.push(digest);
        }
        assert_eq!(bytes_by_threads[0], bytes_by_threads[1]);
    }

    #[test]
    fn sharded_build_keeps_global_catalog_byte_identical() {
        let data = small_dataset();
        let model = IcModel::weighted_cascade(&data.graph);
        let flat_dir = TempDir::new("idx-flat").unwrap();
        IndexBuilder::new(&model, &data.profiles, small_config()).build(flat_dir.path()).unwrap();

        let shard_dir = TempDir::new("idx-sharded").unwrap();
        let config = IndexBuildConfig { shards: 4, ..small_config() };
        let report =
            IndexBuilder::new(&model, &data.profiles, config).build(shard_dir.path()).unwrap();

        // The global catalog never depends on S — Eqn-11 budgets and the
        // cost model are split-invariant by construction.
        assert_eq!(
            std::fs::read(flat_dir.path().join(format::META_FILE)).unwrap(),
            std::fs::read(shard_dir.path().join(format::META_FILE)).unwrap(),
        );

        // Sharded layout: manifest + per-shard catalogs and segments, no
        // flat segments at the top level.
        assert!(shard_dir.path().join(format::SHARD_MANIFEST_FILE).is_file());
        for s in 0..4 {
            let sub = shard_dir.path().join(format::shard_dir_name(s));
            assert!(sub.join(format::META_FILE).is_file(), "shard {s} catalog");
        }
        assert!(!shard_dir.path().join(format::keyword_file_name(0)).exists());
        assert!(report.total_bytes > 0);
    }

    #[test]
    fn sharded_build_is_deterministic_and_tolerates_tiny_shards() {
        // More shards than some keywords have users: empty restricted
        // segments must build (and later validate) cleanly.
        use kbtim_graph::gen;
        use kbtim_topics::UserProfiles;
        let g = gen::cycle(5);
        let model = IcModel::weighted_cascade(&g);
        let profiles = UserProfiles::from_entries(5, 2, &[(0, 0, 1.0), (1, 0, 0.5), (4, 1, 1.0)]);
        let mut digests = Vec::new();
        for threads in [1, 4] {
            let dir = TempDir::new("idx-tiny-shard").unwrap();
            let config = IndexBuildConfig { shards: 8, threads, ..small_config() };
            IndexBuilder::new(&model, &profiles, config).build(dir.path()).unwrap();
            let mut digest: Vec<(String, u64)> = Vec::new();
            let mut stack = vec![dir.path().to_path_buf()];
            while let Some(d) = stack.pop() {
                for entry in std::fs::read_dir(&d).unwrap() {
                    let path = entry.unwrap().path();
                    if path.is_dir() {
                        stack.push(path);
                        continue;
                    }
                    let bytes = std::fs::read(&path).unwrap();
                    let sum = bytes
                        .iter()
                        .fold(0u64, |acc, &b| acc.wrapping_mul(1_000_003).wrapping_add(b as u64));
                    digest.push((
                        path.strip_prefix(dir.path()).unwrap().to_string_lossy().into_owned(),
                        sum,
                    ));
                }
            }
            digest.sort();
            digests.push(digest);
        }
        assert_eq!(digests[0], digests[1], "sharded builds are thread-count invariant");
    }

    #[test]
    fn conservative_theta_builds_bigger_index() {
        let data = small_dataset();
        let model = IcModel::weighted_cascade(&data.graph);
        let mut totals = Vec::new();
        for mode in [ThetaMode::Compact, ThetaMode::Conservative] {
            let dir = TempDir::new("idx-theta").unwrap();
            let config = IndexBuildConfig {
                theta_mode: mode,
                sampling: SamplingConfig {
                    theta_cap: Some(100_000),
                    opt_initial_samples: 128,
                    opt_max_rounds: 8,
                    ..SamplingConfig::fast()
                },
                ..small_config()
            };
            let report =
                IndexBuilder::new(&model, &data.profiles, config).build(dir.path()).unwrap();
            totals.push(report.total_theta);
        }
        assert!(
            totals[1] > totals[0],
            "conservative θ̂ ({}) must exceed compact θ ({})",
            totals[1],
            totals[0]
        );
    }

    #[test]
    fn rr_variant_lacks_partition_blocks() {
        let data = small_dataset();
        let model = IcModel::weighted_cascade(&data.graph);
        let dir = TempDir::new("idx-rr").unwrap();
        let config = IndexBuildConfig { variant: IndexVariant::Rr, ..small_config() };
        IndexBuilder::new(&model, &data.profiles, config).build(dir.path()).unwrap();
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        assert_eq!(index.meta().variant, IndexVariant::Rr);
        assert!(index.meta().keywords.iter().all(|k| k.num_partitions == 0));
    }

    #[test]
    fn unheld_topics_get_zero_theta() {
        // 3 users, topics 0 and 1 held, topic 2 unheld.
        use kbtim_graph::gen;
        use kbtim_topics::UserProfiles;
        let g = gen::cycle(3);
        let model = IcModel::weighted_cascade(&g);
        let profiles = UserProfiles::from_entries(3, 3, &[(0, 0, 1.0), (1, 1, 0.5), (2, 1, 0.5)]);
        let dir = TempDir::new("idx-zero").unwrap();
        let report =
            IndexBuilder::new(&model, &profiles, small_config()).build(dir.path()).unwrap();
        assert_eq!(report.keywords.len(), 2, "only held topics get segments");
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        assert_eq!(index.meta().keywords[2].theta, 0);
    }
}
