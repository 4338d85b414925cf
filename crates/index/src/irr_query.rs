//! Algorithm 4 — `QueryIRR`: incremental KB-TIM query processing.
//!
//! The IRR index sorts each keyword's inverted lists by length, so the
//! most impactful users come first. Queries run an NRA-style top-k
//! aggregation (after Fagin et al. \[8\]):
//!
//! * candidates live in a max-priority-queue keyed by an **upper bound**
//!   on their uncovered coverage count;
//! * a keyword's bound for users not yet seen is `kb[w]` — the longest
//!   inverted list in any unloaded partition (clamped to `θ^Q_w`, since a
//!   prefix count can never exceed the prefix);
//! * `IP_w` resolves "missing" partial scores: a user whose first RR-set
//!   occurrence is at or beyond `θ^Q_w` scores 0 on `w` without loading
//!   anything (§5.2's first issue);
//! * scores are refined **lazily**: only the queue's top entry is ever
//!   recomputed (§5.2's second issue); gains shrink monotonically, so a
//!   stale top that recomputes to the same value is safe to accept;
//! * a candidate becomes a seed when its score is exact (`COMPLETE`) and
//!   at least `Σ_w kb[w]`, the best any unseen user could do.
//!
//! Theorem 3: the seeds' coverage scores equal Algorithm 2's. The
//! implementation shares its tie-breaking (score desc, node id asc) with
//! the greedy used by `query_rr`, so the *seed sequences* are identical —
//! property-tested in `tests/`.
//!
//! This is the paper's algorithm as a reference implementation: what
//! `kbtim query --algo irr`, the `experiments` bin (Figs 5–7, Table 6)
//! and the equivalence gates call. The serving tier answers `irr`
//! requests with the keyword scan of [`crate::rr_query`] — the same
//! seeds by the theorem above, and faster on this layout for every
//! `|Q.T|` ≥ 2 (docs/BENCHMARKS.md §PR 15).

use crate::format::{self, IlCsr, PartitionSpan};
use crate::rr_query::{empty_outcome, list_cuts};
use crate::scratch::{KwBufs, QueryScratch};
use crate::{IndexError, KbtimIndex, QueryOutcome, QueryStats};
use kbtim_codec::Codec;
use kbtim_core::bitset::Bitset;
use kbtim_core::maxcover::CoverScratch;
use kbtim_graph::NodeId;
use kbtim_topics::Query;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Sentinel for "no value" in the dense per-user tables below.
const ABSENT: u32 = u32::MAX;

/// Per-keyword NRA state.
///
/// Per-user lookups go through a *slot table*: `bufs.users` holds the
/// keyword's `IP_w` keys (every user occurring in at least one stored RR
/// set, ascending) and `bufs.slot_of` maps a user straight to its index
/// there — one load per user per loaded partition and per keyword per
/// fresh candidate. `slot_of` is the only table sized by |V| (4 bytes
/// per user per query keyword, refilled from `ip` per query); everything
/// else is sized by the keyword's occupancy: per-slot arrays, and one
/// append-only arena for the loaded inverted lists (each user's list
/// arrives with exactly one partition, so a `(start, len)` span per
/// slot suffices). The tables themselves ([`KwBufs`]) are leased from
/// the index's scratch pool and returned when the query finishes, so a
/// warmed index rebuilds no per-keyword allocation.
struct KwState<'a> {
    /// `θ^Q_w` — only RR ids below this participate.
    share: u64,
    /// Base offset of this keyword's ids in the global covered bitset.
    base: u64,
    /// How many partitions have been loaded.
    loaded: usize,
    /// Current unseen-user bound for this keyword.
    kb: u64,
    /// Pooled IP table, partition catalog, slot spans and list arena.
    bufs: KwBufs,
    source: &'a kbtim_storage::BlockSource,
}

impl KwState<'_> {
    /// Slot of `v`, if it occurs in this keyword's pool at all (a `v`
    /// beyond the universe does not).
    #[inline]
    fn slot(&self, v: NodeId) -> Option<usize> {
        let s = *self.bufs.slot_of.get(v as usize)?;
        (s != ABSENT).then_some(s as usize)
    }

    /// The loaded, truncated list of slot `s` (must be loaded).
    fn list_at(&self, s: usize) -> &[u32] {
        let start = self.bufs.list_start[s] as usize;
        &self.bufs.arena[start..start + self.bufs.list_len[s] as usize]
    }

    /// Exact uncovered count for a loaded list.
    ///
    /// The partition walk probes the covered bitset at data-dependent
    /// positions; a fixed look-ahead prefetch overlaps those misses (see
    /// [`kbtim_core::prefetch`]) without affecting the count.
    fn exact_count(&self, list: &[u32], covered: &Bitset) -> u64 {
        let mut count = 0u64;
        for (i, &id) in list.iter().enumerate() {
            if let Some(&ahead) = list.get(i + kbtim_core::prefetch::COVER_SCAN_AHEAD) {
                covered.prefetch((self.base + ahead as u64) as usize);
            }
            count += u64::from(!covered.get((self.base + id as u64) as usize));
        }
        count
    }

    /// The next partition to load, if any is left.
    fn pending(&self) -> Option<PartitionSpan> {
        self.bufs.partitions.get(self.loaded).copied()
    }

    /// Read and decode `part`'s `ilp` byte range (its `irp` range is
    /// never read).
    fn decode_partition(
        &self,
        part: PartitionSpan,
        codec: Codec,
        bytes: &mut Vec<u8>,
        out: &mut IlCsr,
    ) -> Result<(), IndexError> {
        let il_bytes = self.source.read_range_in(
            format::ILP_BLOCK,
            part.il_start,
            part.il_end - part.il_start,
            bytes,
        )?;
        format::decode_il_csr_into(il_bytes, codec, out)
    }

    /// Fold the decoded partition `part` into the NRA state: each list
    /// is truncated to the keyword's share as it is copied into the
    /// arena, ids new to `seen` count as loaded RR sets, and users not
    /// yet selected queue up in `fresh`. A partition naming a user that
    /// `IP_w` does not is corrupt.
    #[allow(clippy::too_many_arguments)]
    fn apply_partition(
        &mut self,
        part: PartitionSpan,
        il: &IlCsr,
        prefix: &mut Vec<u32>,
        seen: &mut Bitset,
        selected: &[bool],
        fresh: &mut Vec<NodeId>,
        rr_sets_loaded: &mut u64,
    ) -> Result<(), IndexError> {
        for (j, cut) in list_cuts(il, self.share, prefix).enumerate() {
            let user = il.users[j];
            let list = &il.list(j)[..cut as usize];
            let start = self.bufs.arena.len();
            assert!(start < ABSENT as usize, "IRR list arena exceeds u32 spans");
            // Every partitioned user has a first occurrence, so a slot
            // always exists in a sound segment.
            let Some(s) = self.slot(user) else {
                return Err(IndexError::Corrupt(format!(
                    "ilp partition names user {user}, which ip does not"
                )));
            };
            self.bufs.list_start[s] = start as u32;
            self.bufs.list_len[s] = list.len() as u32;
            self.bufs.arena.extend_from_slice(list);
            // An RR set counts as loaded with the first partition that
            // touches it — the one whose `irp` range the build stored
            // its members in.
            for &id in list {
                let bit = (self.base + id as u64) as usize;
                if !seen.get(bit) {
                    seen.set(bit);
                    *rr_sets_loaded += 1;
                }
            }
            if !selected[user as usize] {
                fresh.push(user);
            }
        }
        self.loaded += 1;
        self.kb = (part.max_len_after as u64).min(self.share);
        Ok(())
    }

    /// Partial score of `v` on this keyword: `(bound, is_exact)`.
    fn partial(&self, v: NodeId, covered: &Bitset) -> (u64, bool) {
        // Never occurs → exact zero without loading anything.
        let Some(s) = self.slot(v) else { return (0, true) };
        if self.bufs.list_start[s] != ABSENT {
            return (self.exact_count(self.list_at(s), covered), true);
        }
        if (self.bufs.firsts[s] as u64) < self.share {
            (self.kb, false)
        } else {
            // First occurrence beyond the prefix → exact zero (§5.2).
            (0, true)
        }
    }
}

impl KbtimIndex {
    /// Answer `query` with Algorithm 4. Requires the IRR variant. The
    /// `engine.decode` failpoint fires before any partition load.
    pub fn query_irr(&self, query: &Query) -> Result<QueryOutcome, IndexError> {
        let format::IndexVariant::Irr { .. } = self.meta().variant else {
            return Err(IndexError::NotAnIrrIndex);
        };
        // A sharded index has no single `ilp` to walk: the call lowers
        // to the keyword scan, as every serving path does. By Theorem 3
        // (strengthened to identical sequences by the shared
        // tie-breaking) the seeds, marginal gains, coverage, and
        // influence estimate are bit-identical to the incremental NRA;
        // stats reflect the scan (`rr_sets_loaded = θ^Q`,
        // `partitions_loaded = 0`), which `tests/shard_equiv.rs` pins
        // against the single-shard oracle.
        if self.num_shards() > 1 {
            return self.query_rr(query);
        }
        let started = Instant::now();
        let io_before = self.io_stats().snapshot();
        let (phi_q, budget) = self.query_budget(query);
        if budget.is_empty() {
            return Ok(empty_outcome(started));
        }
        if kbtim_fault::inject("engine.decode") {
            return Err(IndexError::Injected("engine.decode"));
        }
        let codec = self.meta().codec;

        // Every per-query table below leases from the scratch pool
        // (cleared or fully overwritten before use, so reuse cannot
        // affect the answer): the covered and seen bitsets, selected
        // flags, the per-keyword KwBufs, the candidate heap's backing
        // store, the fresh-candidate staging buffer, and the byte and
        // list staging of the partition loads.
        let num_users = self.meta().num_users as usize;
        let mut scratch = self.scratch.guard();
        let QueryScratch { cover, seen, selected, kw_bufs, nra_fresh, bytes, il, prefix, .. } =
            &mut *scratch;
        let CoverScratch { covered, heap: nra_heap } = cover;

        // Initialize per-keyword state; IP and the partition catalog are
        // read up front (one small read each, as in the paper). The
        // user → slot table is |V|-sized; the per-slot tables are sized
        // by the keyword's occupancy.
        let mut states: Vec<KwState<'_>> = Vec::with_capacity(budget.len());
        let mut base = 0u64;
        for &(topic, share) in &budget {
            let source = self.source(topic)?;
            let mut bufs = kw_bufs.pop().unwrap_or_default();
            bufs.clear();
            let ip_bytes = source.read_block_in(format::IP_BLOCK, bytes)?;
            format::decode_ip_into(ip_bytes, codec, &mut bufs.users, &mut bufs.firsts)?;
            bufs.slot_of.resize(num_users, ABSENT);
            for (s, &user) in bufs.users.iter().enumerate() {
                let slot = bufs.slot_of.get_mut(user as usize).ok_or_else(|| {
                    IndexError::Corrupt(format!(
                        "topic {topic}: ip names user {user} of {num_users}"
                    ))
                })?;
                *slot = s as u32;
            }
            let pmeta_bytes = source.read_block_in(format::PMETA_BLOCK, bytes)?;
            format::decode_partition_spans_into(pmeta_bytes, &mut bufs.partitions)?;
            let max_len = self.meta().keywords[topic as usize].max_list_len as u64;
            let slots = bufs.users.len();
            bufs.list_start.resize(slots, ABSENT);
            bufs.list_len.resize(slots, 0);
            states.push(KwState { share, base, loaded: 0, kb: max_len.min(share), bufs, source });
            base += share;
        }
        let theta_q = base;

        covered.reset(theta_q as usize);
        seen.reset(theta_q as usize);
        selected.clear();
        selected.resize(num_users, false);
        let covered: &mut Bitset = covered;
        let mut pq: BinaryHeap<(u64, Reverse<NodeId>)> = BinaryHeap::from(std::mem::take(nra_heap));
        let mut seeds: Vec<NodeId> = Vec::new();
        let mut marginal_gains: Vec<u64> = Vec::new();
        let mut coverage = 0u64;
        let mut rr_sets_loaded = 0u64;

        // Aggregate upper-bound score of a candidate.
        let score = |v: NodeId, covered: &Bitset, states: &[KwState<'_>]| -> (u64, bool) {
            let mut total = 0u64;
            let mut complete = true;
            for st in states {
                let (s, exact) = st.partial(v, covered);
                total += s;
                complete &= exact;
            }
            (total, complete)
        };

        // Load the next partition of every query keyword, in keyword
        // order, each decoded into the query's own scratch. Pushes fresh
        // candidates; returns false when everything is exhausted.
        let mut load_more = |states: &mut [KwState<'_>],
                             pq: &mut BinaryHeap<(u64, Reverse<NodeId>)>,
                             covered: &Bitset,
                             selected: &[bool],
                             rr_sets_loaded: &mut u64|
         -> Result<bool, IndexError> {
            let mut any = false;
            nra_fresh.clear();
            for st in states.iter_mut() {
                let Some(part) = st.pending() else {
                    st.kb = 0;
                    continue;
                };
                st.decode_partition(part, codec, bytes, il)?;
                st.apply_partition(part, il, prefix, seen, selected, nra_fresh, rr_sets_loaded)?;
                any = true;
            }
            // Push fresh candidates with bounds computed against the *new*
            // kb values.
            for &v in nra_fresh.iter() {
                let mut total = 0u64;
                for st in states.iter() {
                    total += st.partial(v, covered).0;
                }
                pq.push((total, Reverse(v)));
            }
            Ok(any)
        };

        while (seeds.len() as u32) < query.k() {
            let total_kb: u64 = states.iter().map(|st| st.kb).sum();
            match pq.peek().copied() {
                Some((s, Reverse(v))) if s > 0 => {
                    pq.pop();
                    if selected[v as usize] {
                        continue;
                    }
                    let (s2, complete) = score(v, covered, &states);
                    if s2 != s {
                        // Stale: refresh and reinsert (lazy update, §5.2).
                        if s2 > 0 {
                            pq.push((s2, Reverse(v)));
                        }
                        continue;
                    }
                    if complete && s > total_kb {
                        // New seed confirmed: a strict win, since an
                        // unseen user may tie at `total_kb` with a
                        // smaller id, and RR would take that user.
                        selected[v as usize] = true;
                        seeds.push(v);
                        marginal_gains.push(s);
                        coverage += s;
                        for st in &states {
                            if let Some(s) = st.slot(v) {
                                if st.bufs.list_start[s] != ABSENT {
                                    for &id in st.list_at(s) {
                                        covered.set((st.base + id as u64) as usize);
                                    }
                                }
                            }
                        }
                    } else {
                        // Cannot separate from unseen users yet: reinsert
                        // and deepen the index scan.
                        pq.push((s, Reverse(v)));
                        if !load_more(&mut states, &mut pq, covered, selected, &mut rr_sets_loaded)?
                            && total_kb == 0
                        {
                            // Exhausted and still not separable — only
                            // possible transiently; with kb = 0 the accept
                            // condition holds on the next iteration for any
                            // complete candidate. Guard against an
                            // incomplete candidate surviving exhaustion
                            // (cannot happen: exhaustion loads every list).
                            debug_assert!(complete, "incomplete candidate after exhaustion");
                        }
                    }
                }
                _ => {
                    // No positive candidate in the queue: either deepen the
                    // scan or finish.
                    if total_kb == 0
                        || !load_more(&mut states, &mut pq, covered, selected, &mut rr_sets_loaded)?
                    {
                        break;
                    }
                }
            }
        }

        let partitions_loaded: u64 = states.iter().map(|st| st.loaded as u64).sum();
        // Return the leased tables for the next query: the keyword
        // tables (emptied, capacities kept) and the heap's backing store.
        for st in states {
            let mut bufs = st.bufs;
            bufs.clear();
            kw_bufs.push(bufs);
        }
        let mut heap_store = pq.into_vec();
        heap_store.clear();
        *nra_heap = heap_store;

        let estimated_influence =
            if theta_q == 0 { 0.0 } else { coverage as f64 / theta_q as f64 * phi_q };
        Ok(QueryOutcome {
            seeds,
            marginal_gains,
            coverage,
            estimated_influence,
            stats: QueryStats {
                theta_q,
                rr_sets_loaded,
                partitions_loaded,
                io: self.io_stats().snapshot().since(&io_before),
                elapsed: started.elapsed(),
                generation: None,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::build::{IndexBuildConfig, IndexBuilder, ThetaMode};
    use crate::format::{self, IndexVariant};
    use crate::{IndexError, KbtimIndex};
    use kbtim_codec::Codec;
    use kbtim_core::theta::SamplingConfig;
    use kbtim_datagen::{Dataset, DatasetConfig, DatasetFamily};
    use kbtim_propagation::model::IcModel;
    use kbtim_storage::{IoStats, TempDir};
    use kbtim_topics::Query;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn dataset(users: u32, topics: u32, seed: u64) -> Dataset {
        DatasetConfig::family(DatasetFamily::News)
            .num_users(users)
            .num_topics(topics)
            .seed(seed)
            .build()
    }

    fn build_irr(data: &Dataset, dir: &std::path::Path, partition_size: u32) {
        let model = IcModel::weighted_cascade(&data.graph);
        let config = IndexBuildConfig {
            sampling: SamplingConfig {
                theta_cap: Some(2000),
                opt_initial_samples: 128,
                opt_max_rounds: 8,
                ..SamplingConfig::fast()
            },
            codec: Codec::Packed,
            theta_mode: ThetaMode::Compact,
            variant: IndexVariant::Irr { partition_size },
            threads: 4,
            seed: 13,
            shards: 1,
        };
        IndexBuilder::new(&model, &data.profiles, config).build(dir).unwrap();
    }

    #[test]
    fn irr_matches_rr_seeds_exactly() {
        // Theorem 3, strengthened to identical sequences by shared
        // tie-breaking.
        let data = dataset(500, 6, 31);
        let dir = TempDir::new("irrq-eq").unwrap();
        build_irr(&data, dir.path(), 16);
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        for q in [
            Query::new([0], 5),
            Query::new([0, 1], 10),
            Query::new([1, 2, 3], 15),
            Query::new([0, 1, 2, 3, 4, 5], 25),
        ] {
            let rr = index.query_rr(&q).unwrap();
            let irr = index.query_irr(&q).unwrap();
            assert_eq!(rr.seeds, irr.seeds, "query {q:?}");
            assert_eq!(rr.marginal_gains, irr.marginal_gains, "query {q:?}");
            assert_eq!(rr.coverage, irr.coverage);
            assert_eq!(rr.stats.theta_q, irr.stats.theta_q);
        }
    }

    #[test]
    fn irr_loads_fewer_rr_sets_with_small_k() {
        let data = dataset(1200, 6, 37);
        let dir = TempDir::new("irrq-fewer").unwrap();
        build_irr(&data, dir.path(), 25);
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        let q = Query::new([0, 1], 5);
        let rr = index.query_rr(&q).unwrap();
        let irr = index.query_irr(&q).unwrap();
        assert!(
            irr.stats.rr_sets_loaded < rr.stats.rr_sets_loaded,
            "IRR {} should load fewer sets than RR {}",
            irr.stats.rr_sets_loaded,
            rr.stats.rr_sets_loaded
        );
        assert!(irr.stats.partitions_loaded > 0);
    }

    #[test]
    fn rr_variant_rejects_irr_queries() {
        let data = dataset(300, 4, 41);
        let model = IcModel::weighted_cascade(&data.graph);
        let dir = TempDir::new("irrq-notirr").unwrap();
        let config = IndexBuildConfig {
            variant: IndexVariant::Rr,
            sampling: SamplingConfig {
                theta_cap: Some(500),
                opt_initial_samples: 64,
                opt_max_rounds: 4,
                ..SamplingConfig::fast()
            },
            ..IndexBuildConfig::default()
        };
        IndexBuilder::new(&model, &data.profiles, config).build(dir.path()).unwrap();
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        assert!(matches!(
            index.query_irr(&Query::new([0], 3)).unwrap_err(),
            IndexError::NotAnIrrIndex
        ));
    }

    #[test]
    fn partition_size_one_still_correct() {
        let data = dataset(250, 4, 43);
        let dir = TempDir::new("irrq-p1").unwrap();
        build_irr(&data, dir.path(), 1);
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        let q = Query::new([0, 1], 8);
        let rr = index.query_rr(&q).unwrap();
        let irr = index.query_irr(&q).unwrap();
        assert_eq!(rr.seeds, irr.seeds);
    }

    #[test]
    fn huge_partition_size_still_correct() {
        // One partition holding everything degenerates IRR to RR.
        let data = dataset(250, 4, 47);
        let dir = TempDir::new("irrq-phuge").unwrap();
        build_irr(&data, dir.path(), 1_000_000);
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        let q = Query::new([0, 1, 2], 8);
        let rr = index.query_rr(&q).unwrap();
        let irr = index.query_irr(&q).unwrap();
        assert_eq!(rr.seeds, irr.seeds);
        assert_eq!(irr.stats.partitions_loaded, q.num_topics() as u64);
    }

    #[test]
    fn io_counted_per_query() {
        let data = dataset(400, 4, 53);
        let dir = TempDir::new("irrq-io").unwrap();
        build_irr(&data, dir.path(), 10);
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        let q = Query::new([0, 1], 6);
        let first = index.query_irr(&q).unwrap();
        let second = index.query_irr(&q).unwrap();
        // Stats are per query (deltas), not cumulative.
        assert_eq!(first.stats.io.read_ops, second.stats.io.read_ops);
        assert!(first.stats.io.read_ops > 0);
    }

    /// One dataset built at each partition size, on the `file` backend
    /// so every byte a query touches is a counted read.
    fn sized_indexes() -> &'static [(u32, TempDir, KbtimIndex)] {
        static FX: OnceLock<Vec<(u32, TempDir, KbtimIndex)>> = OnceLock::new();
        FX.get_or_init(|| {
            let data = dataset(500, 6, 61);
            [1, 16, 100, 1_000_000]
                .into_iter()
                .map(|partition_size| {
                    let dir = TempDir::new("irrq-oracle").unwrap();
                    build_irr(&data, dir.path(), partition_size);
                    let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
                    (partition_size, dir, index)
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// The lean loader reads `ilp` ranges only, yet reports exactly
        /// what the retired `irp` loader counted: per loaded partition,
        /// the `irp` entries below the keyword's share
        /// (`ir_prefix_len` bytes through `count_ir_entries`).
        #[test]
        fn lean_loader_reports_what_the_irp_loader_counted(
            pick in 0usize..4,
            raw_topics in proptest::collection::vec(0u32..6, 1..4),
            k in 1u32..24,
        ) {
            let (partition_size, _, index) = &sized_indexes()[pick];
            let codec = index.meta().codec;
            let query = Query::new(raw_topics, k);
            let out = index.query_irr(&query).unwrap();

            let (_, budget) = index.query_budget(&query);
            let mut catalogs = Vec::new();
            let mut fixed_bytes = 0u64;
            for &(topic, share) in &budget {
                let source = index.source(topic).unwrap();
                let pmeta = source.read_block(format::PMETA_BLOCK).unwrap();
                fixed_bytes += pmeta.len() as u64 + source.block_len(format::IP_BLOCK).unwrap();
                catalogs.push((source, share, format::decode_partition_meta(&pmeta).unwrap()));
            }
            // Every round loads the next partition of each keyword that
            // still has one, so the total fixes the number of rounds.
            let loaded_after = |rounds: usize| -> u64 {
                catalogs.iter().map(|(_, _, parts)| rounds.min(parts.len()) as u64).sum()
            };
            let rounds = (0..).find(|&r| loaded_after(r) >= out.stats.partitions_loaded).unwrap();
            prop_assert_eq!(
                loaded_after(rounds), out.stats.partitions_loaded,
                "δ={}: partitions load in whole rounds", partition_size
            );

            let (mut irp_counted, mut ilp_bytes) = (0u64, 0u64);
            for (source, share, parts) in &catalogs {
                for part in &parts[..rounds.min(parts.len())] {
                    let prefix = source
                        .read_range(format::IRP_BLOCK, part.ir_start, part.ir_prefix_len(*share))
                        .unwrap();
                    irp_counted += format::count_ir_entries(&prefix, codec, *share as u32).unwrap();
                    ilp_bytes += part.il_end - part.il_start;
                }
            }
            prop_assert_eq!(out.stats.rr_sets_loaded, irp_counted, "δ={}", partition_size);
            prop_assert!(out.stats.rr_sets_loaded <= out.stats.theta_q);
            // ip + pmeta per keyword, then ilp ranges: not one irp byte.
            prop_assert_eq!(out.stats.io.bytes_read, fixed_bytes + ilp_bytes, "δ={}", partition_size);
        }
    }
}
