//! Algorithm 2 — `QueryRR`: answer a KB-TIM query from the RR index.
//!
//! For each query keyword `w` the answer depends on the first
//! `θ^Q_w = θ^Q·p_w` RR sets of the keyword's pool — ids are ordinals, so
//! that prefix is exactly the ids `< θ^Q_w` in the inverted list `L_w`.
//! The query therefore reads and decodes `L_w` alone (the `rr` / `rr_off`
//! payload blocks are never touched when serving), truncates every list
//! to the prefix, remaps per-keyword RR ids into one global id space and
//! runs the shared greedy maximum-coverage loop over the merged instance.
//! Lemma 2 guarantees the prefix mix is an unbiased WRIS sample, so
//! Theorem 2's approximation bound carries over.
//!
//! There is one pipeline for every caller — a single request is a batch
//! of one: [`KbtimIndex::decode_keywords`] →
//! [`KbtimIndex::merge_keywords`] → [`KbtimIndex::query_merged`].
//!
//! Keyword segments load and decode **in parallel** (one job per query
//! keyword × index shard on the index's pool, keyword-major); each
//! keyword's shard blocks gather in shard order, so the merged coverage
//! instance — and therefore the answer — is identical for every thread
//! count *and every shard count*: users are range-partitioned across
//! shards and keep their global-build rr-id lists, so the shard-order
//! gather is exactly the monolithic decode.
//!
//! The whole data path is flat and zero-copy: block bytes arrive as
//! borrowed [`kbtim_storage::BlockSource`] views (or through pooled
//! staging buffers on the file backend), each keyword's `L_w` decodes
//! straight into a pooled [`format::IlCsr`] arena, and the merged
//! instance is a dense [`InvertedIndex`] built by one counting pass and
//! one fill pass over recycled arenas — no per-user allocation, no hash
//! probes in the greedy loop, and ~zero allocation once the scratch
//! pool is warm.

use crate::format::{self, IlCsr};
use crate::scratch::{KeywordArena, ScratchPool};
use crate::{IndexError, KbtimIndex, QueryCtx, QueryOutcome, QueryStats};
use kbtim_core::invindex::{InvertedIndex, InvertedIndexBuilder};
use kbtim_core::maxcover::greedy_max_cover_inverted_until;
use kbtim_topics::{Query, TopicId};
use std::borrow::Cow;
use std::time::Instant;

/// `wants` as [`KbtimIndex::decode_keywords`] needs them: sorted by
/// topic, duplicate topics merged at their widest share. Already
/// normalized input is borrowed as-is.
pub(crate) fn normalized_wants(wants: &[(TopicId, u64)]) -> Cow<'_, [(TopicId, u64)]> {
    if wants.windows(2).all(|w| w[0].0 < w[1].0) {
        return Cow::Borrowed(wants);
    }
    let mut sorted = wants.to_vec();
    sorted.sort_by_key(|&(topic, _)| topic);
    sorted.dedup_by(|next, kept| {
        if next.0 == kept.0 {
            kept.1 = kept.1.max(next.1);
            true
        } else {
            false
        }
    });
    Cow::Owned(sorted)
}

/// Inverted lists average two or three ids. Lists of at most this many
/// are cut and copied as one fixed-width group of lanes — same work
/// whatever the length, so no loop exit to mispredict per list.
const SHORT: usize = 4;

/// The `SHORT` arena slots starting at list `j`, when the list fits in
/// them (the trailing lanes belong to the lists that follow) and the
/// arena does not end first.
#[inline]
fn short_lanes(il: &IlCsr, j: usize) -> Option<(&[u32; SHORT], usize)> {
    let (start, end) = (il.offsets[j] as usize, il.offsets[j + 1] as usize);
    if end - start > SHORT {
        return None;
    }
    let lanes = il.ids.get(start..start + SHORT)?;
    Some((lanes.try_into().expect("SHORT slots"), end - start))
}

/// How many leading ids of list `j` (ascending) are `< share`.
#[inline]
pub(crate) fn list_cut(il: &IlCsr, j: usize, share: u64) -> usize {
    if let Some((lanes, len)) = short_lanes(il, j) {
        return (0..SHORT).map(|l| usize::from((l < len) & ((lanes[l] as u64) < share))).sum();
    }
    // A compare-and-add per id still beats a binary search's
    // unpredictable branches until lists get long.
    const LINEAR_MAX: usize = 16;
    let list = il.list(j);
    if list.len() <= LINEAR_MAX {
        list.iter().map(|&id| usize::from((id as u64) < share)).sum()
    } else {
        list.partition_point(|&id| (id as u64) < share)
    }
}

/// The merged coverage instance of `parts` — each keyword's complete
/// `L_w` with its `θ^Q_w` share, in keyword order — over the users
/// `0..num_users`: every list is cut at its share and its ids move to
/// the keyword's base in the global id space, so per-user lists
/// concatenate ascending. Returns `θ^Q` with the instance. One counting
/// pass and one fill pass; each list's cut is found once and replayed
/// from a pooled buffer.
pub(crate) fn merge_csrs<'a>(
    num_users: u32,
    parts: impl Iterator<Item = (&'a IlCsr, u64)> + Clone,
    pool: &ScratchPool,
) -> (u64, InvertedIndex) {
    let mut builder = InvertedIndexBuilder::recycled(num_users, pool.take_arenas());
    let mut scratch = pool.guard();
    let cuts = &mut scratch.cuts;
    cuts.clear();
    let mut theta_q = 0u64;
    for (il, share) in parts.clone() {
        cuts.reserve(il.len());
        for j in 0..il.len() {
            let cut = list_cut(il, j, share) as u32;
            cuts.push(cut);
            builder.count(il.users[j], cut);
        }
        theta_q += share;
    }
    let mut filler = builder.fill();
    let mut cuts = cuts.iter();
    let mut base = 0u64;
    for (il, share) in parts {
        for (j, &cut) in (0..il.len()).zip(&mut cuts) {
            match short_lanes(il, j) {
                Some((lanes, _)) => {
                    filler.push_prefix(il.users[j], lanes, cut as usize, base as u32)
                }
                None => filler.push_list(
                    il.users[j],
                    il.list(j)[..cut as usize].iter().map(|&id| (base + id as u64) as u32),
                ),
            }
        }
        base += share;
    }
    debug_assert_eq!(base, theta_q);
    (theta_q, filler.finish())
}

impl KbtimIndex {
    /// Answer `query` with Algorithm 2 (works on both index variants).
    pub fn query_rr(&self, query: &Query) -> Result<QueryOutcome, IndexError> {
        self.query_rr_ctx(query, &QueryCtx::default())
    }

    /// [`KbtimIndex::query_rr`] under an execution context: the
    /// deadline (if any) is checked after the keyword decode and once
    /// per greedy round, aborting with
    /// [`IndexError::DeadlineExceeded`] — never with partial seeds.
    /// The `engine.decode` / `engine.merge` / `engine.greedy`
    /// failpoints fire at the matching stage boundaries.
    pub fn query_rr_ctx(&self, query: &Query, ctx: &QueryCtx) -> Result<QueryOutcome, IndexError> {
        let started = Instant::now();
        let io_before = self.io_stats().snapshot();
        let (phi_q, budget) = self.query_budget(query);
        if budget.is_empty() {
            return Ok(empty_outcome(started));
        }
        let arena = self.decode_keywords(&budget)?;
        let result =
            self.query_arena_ctx(self.meta().num_users, phi_q, &budget, &arena, query.k(), ctx);
        self.recycle_keywords(arena);
        let mut outcome = result?;
        outcome.stats.io = self.io_stats().snapshot().since(&io_before);
        outcome.stats.elapsed = started.elapsed();
        Ok(outcome)
    }

    /// Everything after the keyword decode, for one request: deadline
    /// check, merge over the `num_users` universe, greedy. The caller
    /// keeps (and recycles) the arena.
    pub(crate) fn query_arena_ctx(
        &self,
        num_users: u32,
        phi_q: f64,
        budget: &[(TopicId, u64)],
        arena: &KeywordArena,
        k: u32,
        ctx: &QueryCtx,
    ) -> Result<QueryOutcome, IndexError> {
        ctx.check()?;
        let merged = self.merge_budgeted_over(num_users, phi_q, budget, arena)?;
        let outcome = self.query_merged_ctx(&merged, k, ctx);
        self.recycle_merged(merged);
        outcome
    }

    /// Decode each wanted keyword **once** into a shared
    /// [`KeywordArena`] — the first stage of every RR query, batched or
    /// not.
    ///
    /// `wants` names the keywords (the shares ride along for callers
    /// that budget per batch; what is decoded does not depend on them).
    /// Sorted, duplicate-free input is used as-is; anything else is
    /// normalized first, so the arena's lookup invariant holds for any
    /// caller. Per keyword × shard, one fan-out job (on the index-owned
    /// pool) reads and decodes the whole inverted list `L_w` into a
    /// pool-leased CSR; truncation to a request's share happens at
    /// merge time, read-only. Any number of requests are then served
    /// from the one arena — [`KbtimIndex::merge_keywords`] once per
    /// distinct keyword set, [`KbtimIndex::query_merged`] once per
    /// request; return the arena with [`KbtimIndex::recycle_keywords`]
    /// when they are done.
    pub fn decode_keywords(&self, wants: &[(TopicId, u64)]) -> Result<KeywordArena, IndexError> {
        // KeywordArena::csr binary-searches `topics`, so the build order
        // must be strictly ascending — normalize rather than trust the
        // caller (a silently unsorted arena would misreport healthy
        // keywords as missing).
        let wants = normalized_wants(wants);
        if kbtim_fault::inject("engine.decode") {
            return Err(IndexError::Injected("engine.decode"));
        }
        let codec = self.meta().codec;
        // Keyword-major (keyword × shard) fan-out: gathering appends
        // each keyword's shard CSRs in shard order, which reproduces
        // the monolithic `L_w` exactly (each user lives in one shard
        // and keeps its global-build rr-id list there).
        let num_shards = self.num_shards();
        let scans: Vec<Result<IlCsr, IndexError>> = self.pool().map_shards_with(
            wants.len() * num_shards,
            || self.scratch.guard(),
            |guard, i| {
                let (topic, _) = wants[i / num_shards];
                let source = self.source_in(i % num_shards, topic)?;
                let il_bytes = source.read_block_in(format::IL_BLOCK, &mut guard.bytes)?;
                let mut csr = self.scratch.take_csr();
                format::decode_il_csr_into(il_bytes, codec, &mut csr)?;
                Ok(csr)
            },
        );
        let mut arena = KeywordArena::default();
        let mut scans = scans.into_iter();
        for &(topic, _) in wants.iter() {
            // Shard 0's CSR absorbs the rest in shard order; users are
            // range-partitioned, so the result is the monolithic block.
            let mut csr = scans.next().expect("one scan per (keyword, shard)")?;
            for _ in 1..num_shards {
                let extra = scans.next().expect("one scan per (keyword, shard)")?;
                csr.append(&extra);
                self.scratch.put_csr(extra);
            }
            arena.topics.push(topic);
            arena.csrs.push(csr);
        }
        Ok(arena)
    }

    /// Return a finished batch's arena CSRs to the scratch pool.
    pub fn recycle_keywords(&self, arena: KeywordArena) {
        for csr in arena.csrs {
            self.scratch.put_csr(csr);
        }
    }

    /// Build a keyword set's merged coverage instance from a shared
    /// [`KeywordArena`] — everything of Algorithm 2 that depends on the
    /// keyword set alone.
    ///
    /// The Eqn-11 budget, the per-keyword global id bases, and the
    /// merged [`InvertedIndex`] are all functions of `query.topics()` —
    /// `Q.k` only bounds the greedy loop — so requests sharing a
    /// keyword set share one [`MergedQuery`] and differ only in their
    /// [`KbtimIndex::query_merged`] call.
    pub fn merge_keywords(
        &self,
        query: &Query,
        arena: &KeywordArena,
    ) -> Result<MergedQuery, IndexError> {
        let (phi_q, budget) = self.query_budget(query);
        self.merge_budgeted_over(self.meta().num_users, phi_q, &budget, arena)
    }

    /// [`KbtimIndex::merge_keywords`] with the Eqn-11 budget already
    /// computed (the batch planner derives each group's budget while
    /// building the decode union and must not pay for it twice) and
    /// over an explicit user universe — the delta tier unions in-memory
    /// keyword overlays with this index's segments, and the union's
    /// `|V|` (base plus ingested users) sizes the merged instance, not
    /// the catalog's.
    pub(crate) fn merge_budgeted_over(
        &self,
        num_users: u32,
        phi_q: f64,
        budget: &[(TopicId, u64)],
        arena: &KeywordArena,
    ) -> Result<MergedQuery, IndexError> {
        if kbtim_fault::inject("engine.merge") {
            return Err(IndexError::Injected("engine.merge"));
        }
        if let Some(&(topic, _)) = budget.iter().find(|&&(topic, _)| arena.csr(topic).is_none()) {
            return Err(IndexError::Corrupt(format!(
                "keyword {topic} missing from the batch arena"
            )));
        }
        let parts = budget
            .iter()
            .map(|&(topic, share)| (arena.csr(topic).expect("presence checked above"), share));
        let (theta_q, inverted) = merge_csrs(num_users, parts, &self.scratch);
        Ok(MergedQuery { phi_q, theta_q, inverted })
    }

    /// Run one request's own greedy over a shared [`MergedQuery`]
    /// instance. Infallible: routing and merge errors surfaced earlier.
    ///
    /// `rr_sets_loaded` reports the θ^Q budget (the RR sets the merged
    /// instance spans); `io` stays zero — the reads belong to whoever
    /// decoded the arena.
    pub fn query_merged(&self, merged: &MergedQuery, k: u32) -> QueryOutcome {
        self.query_merged_inner(merged, k, &|| false)
            .expect("greedy with a never-firing stop cannot abort")
    }

    /// [`KbtimIndex::query_merged`] under an execution context: the
    /// deadline (if any) is checked on entry and once per greedy round
    /// (and the `engine.greedy` failpoint fires on entry), aborting
    /// with an error instead of partial seeds.
    pub fn query_merged_ctx(
        &self,
        merged: &MergedQuery,
        k: u32,
        ctx: &QueryCtx,
    ) -> Result<QueryOutcome, IndexError> {
        if kbtim_fault::inject("engine.greedy") {
            return Err(IndexError::Injected("engine.greedy"));
        }
        ctx.check()?;
        self.query_merged_inner(merged, k, &|| ctx.expired()).ok_or(IndexError::DeadlineExceeded)
    }

    fn query_merged_inner(
        &self,
        merged: &MergedQuery,
        k: u32,
        should_stop: &(dyn Fn() -> bool + Sync),
    ) -> Option<QueryOutcome> {
        let started = Instant::now();
        if merged.theta_q == 0 {
            return Some(empty_outcome(started));
        }
        let cover = greedy_max_cover_inverted_until(
            &merged.inverted,
            merged.theta_q,
            k,
            self.pool(),
            should_stop,
        )?;
        let estimated_influence = cover.covered as f64 / merged.theta_q as f64 * merged.phi_q;
        Some(QueryOutcome {
            seeds: cover.seeds,
            marginal_gains: cover.marginal_gains,
            coverage: cover.covered,
            estimated_influence,
            stats: QueryStats {
                theta_q: merged.theta_q,
                rr_sets_loaded: merged.theta_q,
                elapsed: started.elapsed(),
                ..QueryStats::default()
            },
        })
    }

    /// Return a finished [`MergedQuery`]'s arenas to the scratch pool.
    pub fn recycle_merged(&self, merged: MergedQuery) {
        self.scratch.put_arenas(merged.inverted.into_arenas());
    }
}

/// A keyword set's merged coverage instance, shared by every request
/// over that set (see [`KbtimIndex::merge_keywords`]).
pub struct MergedQuery {
    /// Total tf-idf mass of the query's held keywords (`φ_Q`).
    phi_q: f64,
    /// `θ^Q = Σ_w θ^Q_w` — the global id space of `inverted`.
    theta_q: u64,
    /// The merged, truncated, remapped coverage instance.
    inverted: InvertedIndex,
}

impl MergedQuery {
    /// The merged instance's total RR-set budget `θ^Q`.
    pub fn theta_q(&self) -> u64 {
        self.theta_q
    }

    /// Heap bytes held by the merged instance's arenas — what a cached
    /// prepared query keeps resident.
    pub fn resident_bytes(&self) -> u64 {
        self.inverted.arena_bytes()
    }

    /// Slice a deeper greedy run over this instance down to its first
    /// `k` seeds.
    ///
    /// CELF selects seeds strictly sequentially and `k` only bounds the
    /// loop, so the `k`-seed answer over a fixed instance *is* the
    /// `k`-prefix of any deeper run: same seeds, same marginal gains,
    /// coverage the same running sum, and the influence estimate the
    /// same arithmetic on those values — bit-identical to calling
    /// [`KbtimIndex::query_merged`] with `k` directly (enforced by the
    /// serving-tier tests). This lets the batch planner serve every
    /// same-keyword-set request from one max-`k` greedy run.
    pub fn prefix_outcome(&self, full: &QueryOutcome, k: u32) -> QueryOutcome {
        let n = (k as usize).min(full.seeds.len());
        let marginal_gains = full.marginal_gains[..n].to_vec();
        let coverage: u64 = marginal_gains.iter().sum();
        let estimated_influence = if self.theta_q == 0 {
            0.0
        } else {
            coverage as f64 / self.theta_q as f64 * self.phi_q
        };
        QueryOutcome {
            seeds: full.seeds[..n].to_vec(),
            marginal_gains,
            coverage,
            estimated_influence,
            stats: QueryStats {
                theta_q: self.theta_q,
                rr_sets_loaded: self.theta_q,
                generation: full.stats.generation,
                elapsed: full.stats.elapsed,
                ..QueryStats::default()
            },
        }
    }
}

pub(crate) fn empty_outcome(started: Instant) -> QueryOutcome {
    QueryOutcome {
        seeds: Vec::new(),
        marginal_gains: Vec::new(),
        coverage: 0,
        estimated_influence: 0.0,
        stats: QueryStats { elapsed: started.elapsed(), ..QueryStats::default() },
    }
}

#[cfg(test)]
mod tests {
    use crate::build::{IndexBuildConfig, IndexBuilder, ThetaMode};
    use crate::format::{IlCsr, IndexVariant};
    use crate::scratch::ScratchPool;
    use crate::KbtimIndex;
    use kbtim_codec::Codec;
    use kbtim_core::invindex::InvertedIndexBuilder;
    use kbtim_core::theta::SamplingConfig;
    use kbtim_core::wris::wris_query;
    use kbtim_datagen::{Dataset, DatasetConfig, DatasetFamily};
    use kbtim_propagation::model::IcModel;
    use kbtim_propagation::spread::monte_carlo_targeted;
    use kbtim_storage::{IoStats, TempDir};
    use kbtim_topics::Query;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn dataset() -> Dataset {
        DatasetConfig::family(DatasetFamily::News).num_users(600).num_topics(8).seed(21).build()
    }

    fn build(data: &Dataset, dir: &std::path::Path, codec: Codec) {
        let model = IcModel::weighted_cascade(&data.graph);
        let config = IndexBuildConfig {
            sampling: SamplingConfig {
                theta_cap: Some(3000),
                opt_initial_samples: 128,
                opt_max_rounds: 8,
                ..SamplingConfig::fast()
            },
            codec,
            theta_mode: ThetaMode::Compact,
            variant: IndexVariant::Irr { partition_size: 20 },
            threads: 4,
            seed: 3,
            shards: 1,
        };
        IndexBuilder::new(&model, &data.profiles, config).build(dir).unwrap();
    }

    #[test]
    fn query_returns_seeds_and_stats() {
        let data = dataset();
        let dir = TempDir::new("rrq").unwrap();
        build(&data, dir.path(), Codec::Packed);
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        let query = Query::new([0, 1], 10);
        let outcome = index.query_rr(&query).unwrap();
        assert!(!outcome.seeds.is_empty());
        assert!(outcome.seeds.len() <= 10);
        assert!(outcome.estimated_influence > 0.0);
        assert!(outcome.stats.rr_sets_loaded > 0);
        assert_eq!(outcome.stats.rr_sets_loaded, outcome.stats.theta_q);
        // Serving reads exactly the query keywords' `il` blocks: one
        // positioned read each, and no `rr` / `rr_off` byte.
        let il_bytes: u64 =
            [0, 1].iter().map(|&w| index.source(w).unwrap().block_len("il").unwrap()).sum();
        assert_eq!(outcome.stats.io.read_ops, 2, "one il read per keyword");
        assert_eq!(outcome.stats.io.bytes_read, il_bytes);
    }

    #[test]
    fn list_cut_agrees_with_partition_point_at_every_length() {
        // Every side of the fixed-width / linear / binary switches,
        // shares on and between ids, the whole-list and empty cuts — and
        // the list both followed by others (lanes read into them) and
        // last in the arena (no room for the fixed-width read).
        for len in 0..40u32 {
            let list: Vec<u32> = (0..len).map(|i| 3 * i + 1).collect();
            for followed in [false, true] {
                let mut il = IlCsr::default();
                il.ids.extend(&list);
                il.close_list(7);
                if followed {
                    il.ids.extend([0, 2, 50]);
                    il.close_list(9);
                }
                for share in (0..=(3 * len as u64 + 2)).chain([u64::MAX]) {
                    let want = list.partition_point(|&id| (id as u64) < share);
                    assert_eq!(super::list_cut(&il, 0, share), want, "len {len} share {share}");
                }
            }
        }
    }

    /// 1–4 keyword CSRs over 60 users: lists of 1..=12 ids (both sides
    /// of the fixed-width switch, the last ones ending the arena) drawn
    /// from 0..40, each with a share from 0 to beyond every id.
    fn merge_inputs() -> impl Strategy<Value = Vec<(IlCsr, u64)>> {
        let list = proptest::collection::vec(0u32..40, 1..13).prop_map(|mut ids| {
            ids.sort_unstable();
            ids.dedup();
            ids
        });
        let keyword = (proptest::collection::vec((0u32..60, list), 0..50), 0u64..45).prop_map(
            |(entries, share)| {
                let by_user: std::collections::BTreeMap<u32, Vec<u32>> =
                    entries.into_iter().collect();
                let mut il = IlCsr::default();
                for (user, ids) in by_user {
                    il.ids.extend(ids);
                    il.close_list(user);
                }
                (il, share)
            },
        );
        proptest::collection::vec(keyword, 1..5)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// The merge is the plain count / `push_list` construction, list
        /// by list with a binary-searched cut.
        #[test]
        fn merge_matches_the_list_by_list_oracle(parts in merge_inputs()) {
            let mut builder = InvertedIndexBuilder::new(60);
            let cut = |il: &IlCsr, j: usize, share: u64| {
                il.list(j).partition_point(|&id| (id as u64) < share)
            };
            for (il, share) in &parts {
                for j in 0..il.len() {
                    builder.count(il.users[j], cut(il, j, *share) as u32);
                }
            }
            let mut filler = builder.fill();
            let mut base = 0u64;
            for (il, share) in &parts {
                for j in 0..il.len() {
                    let kept = &il.list(j)[..cut(il, j, *share)];
                    filler.push_list(il.users[j], kept.iter().map(|&id| (base + id as u64) as u32));
                }
                base += share;
            }
            let oracle = filler.finish();
            let pool = ScratchPool::new();
            // Twice: the second run builds in the first one's recycled arenas.
            for _ in 0..2 {
                let borrowed = parts.iter().map(|(il, share)| (il, *share));
                let (theta_q, merged) = super::merge_csrs(60, borrowed, &pool);
                prop_assert_eq!(theta_q, base);
                prop_assert_eq!(&merged, &oracle);
                pool.put_arenas(merged.into_arenas());
            }
        }
    }

    #[test]
    fn raw_and_packed_codecs_agree() {
        let data = dataset();
        let dir_a = TempDir::new("rrq-raw").unwrap();
        let dir_b = TempDir::new("rrq-packed").unwrap();
        build(&data, dir_a.path(), Codec::Raw);
        build(&data, dir_b.path(), Codec::Packed);
        let a = KbtimIndex::open(dir_a.path(), IoStats::new()).unwrap();
        let b = KbtimIndex::open(dir_b.path(), IoStats::new()).unwrap();
        for q in [Query::new([0], 5), Query::new([1, 2, 3], 8)] {
            let oa = a.query_rr(&q).unwrap();
            let ob = b.query_rr(&q).unwrap();
            assert_eq!(oa.seeds, ob.seeds, "same sampled sets, codec-independent");
            assert_eq!(oa.coverage, ob.coverage);
            // Compression must reduce bytes read.
            assert!(ob.stats.io.bytes_read < oa.stats.io.bytes_read);
        }
    }

    #[test]
    fn influence_estimate_tracks_monte_carlo() {
        let data = dataset();
        let dir = TempDir::new("rrq-mc").unwrap();
        build(&data, dir.path(), Codec::Packed);
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        let model = IcModel::weighted_cascade(&data.graph);
        let query = Query::new([0, 1, 2], 10);
        let outcome = index.query_rr(&query).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let mc =
            monte_carlo_targeted(&model, &data.profiles, &query, &outcome.seeds, 20_000, &mut rng);
        let rel = (outcome.estimated_influence - mc).abs() / mc.max(1e-9);
        assert!(rel < 0.2, "index estimate {} vs MC {mc} (rel {rel})", outcome.estimated_influence);
    }

    #[test]
    fn index_seeds_quality_comparable_to_online_wris() {
        // Table 7's claim: the disk index loses nothing vs online WRIS.
        let data = dataset();
        let dir = TempDir::new("rrq-vs-wris").unwrap();
        build(&data, dir.path(), Codec::Packed);
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        let model = IcModel::weighted_cascade(&data.graph);
        let query = Query::new([0, 1], 10);
        let idx_outcome = index.query_rr(&query).unwrap();
        let mut rng = SmallRng::seed_from_u64(9);
        let config = SamplingConfig { theta_cap: Some(6000), ..SamplingConfig::fast() };
        let online = wris_query(&model, &data.profiles, &query, &config, &mut rng);
        let mut rng = SmallRng::seed_from_u64(10);
        let mc_idx = monte_carlo_targeted(
            &model,
            &data.profiles,
            &query,
            &idx_outcome.seeds,
            20_000,
            &mut rng,
        );
        let mc_online =
            monte_carlo_targeted(&model, &data.profiles, &query, &online.seeds, 20_000, &mut rng);
        let rel = (mc_idx - mc_online).abs() / mc_online.max(1e-9);
        assert!(rel < 0.1, "index spread {mc_idx} vs online {mc_online} (rel {rel})");
    }

    #[test]
    fn unheld_topic_query_is_empty() {
        let data = dataset();
        let dir = TempDir::new("rrq-empty").unwrap();
        build(&data, dir.path(), Codec::Packed);
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        // Find an unheld topic if any; otherwise fabricate one by asking
        // only for a topic id that exists but may be held — fall back to
        // checking the budget logic directly.
        let unheld: Vec<u32> =
            (0..data.profiles.num_topics()).filter(|&w| data.profiles.doc_freq(w) == 0).collect();
        if let Some(&w) = unheld.first() {
            let outcome = index.query_rr(&Query::new([w], 4)).unwrap();
            assert!(outcome.seeds.is_empty());
            assert_eq!(outcome.stats.theta_q, 0);
        }
        let (phi_q, budget) = index.query_budget(&Query::new([0], 4));
        assert!(phi_q > 0.0);
        assert_eq!(budget.len(), 1);
    }

    #[test]
    fn budget_respects_eqn_11() {
        let data = dataset();
        let dir = TempDir::new("rrq-budget").unwrap();
        build(&data, dir.path(), Codec::Packed);
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        let query = Query::new([0, 1, 2, 3], 10);
        let (phi_q, budget) = index.query_budget(&query);
        assert!(phi_q > 0.0);
        for &(topic, share) in &budget {
            let kw = &index.meta().keywords[topic as usize];
            assert!(share <= kw.theta, "θ^Q_w must not exceed the stored pool");
            // p_w-proportionality: share ≈ θ^Q · p_w.
            let p_w = kw.tf_sum * kw.idf / phi_q;
            let theta_q_total: u64 = budget.iter().map(|&(_, s)| s).sum();
            let expected = theta_q_total as f64 * p_w;
            assert!(
                (share as f64 - expected).abs() <= expected * 0.05 + 2.0,
                "topic {topic}: share {share} vs expected {expected:.1}"
            );
        }
    }
}
