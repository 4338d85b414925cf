//! Fully in-memory serving copy of an index.
//!
//! The paper's indexes are disk-resident because their θ_w pools (tens of
//! GB) exceed RAM. Scaled deployments — and latency-critical serving
//! tiers in front of the disk index — fit comfortably in memory, where
//! Algorithm 2 runs with zero I/O. [`MemoryIndex::load`] decodes every
//! per-keyword block of an opened [`KbtimIndex`] once (checksum-verified)
//! and answers queries from RAM from then on; results are bit-identical
//! to [`KbtimIndex::query_rr`] because both share the budget computation
//! and the greedy implementation.
//!
//! Loading goes through the index's [`kbtim_storage::BlockSource`], so on
//! the resident/mmap backends the block bytes are *borrowed views of the
//! already-resident segment pages* — the decode writes straight from
//! shared pages into the CSR arenas with no intermediate copy of the
//! compressed block, and mmap pages stay shared with the disk index and
//! the kernel cache. Query-time buffers (the per-user gains, the greedy's
//! bitset and heap) recycle through a scratch pool, as in the disk paths.

use crate::format::{self, IlCsr};
use crate::scratch::ScratchPool;
use crate::{rr_query, IndexError, IndexMeta, KbtimIndex, QueryOutcome};
use kbtim_topics::Query;
use std::time::Instant;

/// One keyword's resident pool.
struct MemKeyword {
    /// Inverted lists in flat CSR form: users ascending, rr ids ascending
    /// within each user's slice of the shared arena.
    il: IlCsr,
}

/// RAM-resident index answering KB-TIM queries without I/O.
pub struct MemoryIndex {
    meta: IndexMeta,
    keywords: Vec<Option<MemKeyword>>,
    /// Pooled per-query buffers (see [`crate::scratch`]).
    scratch: ScratchPool,
}

impl MemoryIndex {
    /// Load every keyword of `index` into memory. For a sharded index
    /// the per-shard inverted lists concatenate in shard order — users
    /// are range-partitioned and keep their global-build rr-id lists, so
    /// the resident CSR is identical to a single-shard load.
    pub fn load(index: &KbtimIndex) -> Result<MemoryIndex, IndexError> {
        let meta = index.meta().clone();
        let codec = meta.codec;
        let num_shards = index.num_shards();
        let mut keywords = Vec::with_capacity(meta.keywords.len());
        for kw in &meta.keywords {
            if kw.theta == 0 {
                keywords.push(None);
                continue;
            }
            // Decode straight into the CSR arena — the resident form *is*
            // the serving form, no per-user Vec headers; on zero-copy
            // backends `il_bytes` borrows the shared segment pages.
            let mut il = IlCsr::default();
            for shard in 0..num_shards {
                let source = index.source_in(shard, kw.topic)?;
                let il_bytes = source.read_block(format::IL_BLOCK)?;
                if shard == 0 {
                    il = format::decode_il_csr(&il_bytes, codec)?;
                } else {
                    il.append(&format::decode_il_csr(&il_bytes, codec)?);
                }
            }
            // Queries index |V|-sized tables by these users and cannot
            // fail, so a hostile block is turned away here.
            rr_query::check_universe(&il, meta.num_users)?;
            keywords.push(Some(MemKeyword { il }));
        }
        Ok(MemoryIndex { meta, keywords, scratch: ScratchPool::new() })
    }

    /// The catalog this index was loaded from.
    pub fn meta(&self) -> &IndexMeta {
        &self.meta
    }

    /// Exact resident footprint of the inverted-list arenas in bytes:
    /// `ids.len()·4 + offsets.len()·4 + users.len()·4` per keyword — the
    /// true allocation of the CSR, not a per-entry estimate, so capacity
    /// planning numbers are honest.
    pub fn resident_bytes(&self) -> u64 {
        self.keywords.iter().flatten().map(|kw| kw.il.arena_bytes()).sum()
    }

    /// Answer a query with Algorithm 2 semantics, entirely from RAM.
    ///
    /// `stats.io` stays zero and `rr_sets_loaded` reports the θ^Q budget
    /// the query *would* have read from disk, for comparability.
    pub fn query(&self, query: &Query) -> QueryOutcome {
        let started = Instant::now();
        let (phi_q, budget) = query_budget_from_meta(&self.meta, query);
        if budget.is_empty() {
            return rr_query::empty_outcome(started);
        }

        // The disk path's in-place greedy, over the resident CSRs.
        let parts = rr_query::cover_parts(budget.iter().map(|&(topic, share)| {
            let kw = self.keywords[topic as usize].as_ref().expect("budgeted keyword loaded");
            (std::slice::from_ref(&kw.il), share)
        }));
        let (users, k) = (self.meta.num_users, query.k());
        let sequential = kbtim_exec::ExecPool::sequential();
        rr_query::query_in_place(&parts, users, phi_q, k, &sequential, &self.scratch, &|| false)
            .expect("greedy with a never-firing stop cannot abort")
    }
}

/// The Eqn-11 budget computed from a catalog alone (shared with
/// [`KbtimIndex::query_budget`], which delegates here).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{IndexBuildConfig, IndexBuilder};
    use crate::format::IndexVariant;
    use kbtim_core::theta::SamplingConfig;
    use kbtim_datagen::{DatasetConfig, DatasetFamily};
    use kbtim_propagation::model::IcModel;
    use kbtim_storage::{IoStats, TempDir};

    fn build_index(dir: &std::path::Path) -> kbtim_datagen::Dataset {
        let data = DatasetConfig::family(DatasetFamily::News)
            .num_users(500)
            .num_topics(6)
            .seed(71)
            .build();
        let model = IcModel::weighted_cascade(&data.graph);
        let config = IndexBuildConfig {
            sampling: SamplingConfig {
                theta_cap: Some(1_500),
                opt_initial_samples: 64,
                opt_max_rounds: 5,
                ..SamplingConfig::fast()
            },
            variant: IndexVariant::Irr { partition_size: 25 },
            ..IndexBuildConfig::default()
        };
        IndexBuilder::new(&model, &data.profiles, config).build(dir).unwrap();
        data
    }

    #[test]
    fn memory_matches_disk_exactly() {
        let dir = TempDir::new("mem-idx").unwrap();
        build_index(dir.path());
        let disk = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        let mem = MemoryIndex::load(&disk).unwrap();
        for q in [Query::new([0], 5), Query::new([0, 1, 2], 12), Query::new([3, 4, 5], 20)] {
            let a = disk.query_rr(&q).unwrap();
            let b = mem.query(&q);
            assert_eq!(a.seeds, b.seeds, "query {q:?}");
            assert_eq!(a.coverage, b.coverage);
            assert_eq!(a.stats.theta_q, b.stats.theta_q);
            assert!((a.estimated_influence - b.estimated_influence).abs() < 1e-9);
        }
    }

    #[test]
    fn memory_query_does_zero_io() {
        let dir = TempDir::new("mem-io").unwrap();
        build_index(dir.path());
        let stats = IoStats::new();
        let disk = KbtimIndex::open(dir.path(), stats.clone()).unwrap();
        let mem = MemoryIndex::load(&disk).unwrap();
        stats.reset();
        let outcome = mem.query(&Query::new([0, 1], 8));
        assert_eq!(stats.read_ops(), 0, "RAM queries must not touch disk");
        assert_eq!(outcome.stats.io.read_ops, 0);
        assert!(!outcome.seeds.is_empty());
    }

    #[test]
    fn resident_bytes_reported() {
        let dir = TempDir::new("mem-bytes").unwrap();
        build_index(dir.path());
        let disk = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        let mem = MemoryIndex::load(&disk).unwrap();
        assert!(mem.resident_bytes() > 0);
        assert_eq!(mem.meta().num_users, 500);
    }

    #[test]
    fn resident_bytes_is_exact_arena_footprint() {
        // Recompute the CSR footprint independently from the per-entry
        // decoder: ids + offsets (entries + 1) + users, 4 bytes each.
        let dir = TempDir::new("mem-exact-bytes").unwrap();
        build_index(dir.path());
        let disk = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        let mem = MemoryIndex::load(&disk).unwrap();
        let mut expected = 0u64;
        for kw in &disk.meta().keywords {
            if kw.theta == 0 {
                continue;
            }
            let source = disk.source(kw.topic).unwrap();
            let il_bytes = source.read_block(format::IL_BLOCK).unwrap();
            let entries = format::decode_il_entries(&il_bytes, disk.meta().codec).unwrap();
            let ids: usize = entries.iter().map(|(_, l)| l.len()).sum();
            expected += 4 * (ids as u64 + entries.len() as u64 + 1 + entries.len() as u64);
        }
        assert_eq!(mem.resident_bytes(), expected);
    }

    #[test]
    fn unheld_topic_is_empty() {
        let dir = TempDir::new("mem-empty").unwrap();
        let data = build_index(dir.path());
        let disk = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        let mem = MemoryIndex::load(&disk).unwrap();
        // A topic beyond the space → empty result, no panic.
        let outcome = mem.query(&Query::new([data.profiles.num_topics() + 5], 3));
        assert!(outcome.seeds.is_empty());
    }
}
