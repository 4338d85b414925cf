//! Algorithm 2 — `QueryRR`: answer a KB-TIM query from the RR index.
//!
//! For each query keyword `w` the answer depends on the first
//! `θ^Q_w = θ^Q·p_w` RR sets of the keyword's pool — ids are ordinals, so
//! that prefix is exactly the ids `< θ^Q_w` in the inverted list `L_w`.
//! The query therefore reads and decodes `L_w` alone (the `rr` / `rr_off`
//! payload blocks are never touched when serving), truncates every list
//! to the prefix, places per-keyword RR ids in one global id space and
//! runs the shared greedy maximum-coverage loop over that instance.
//! Lemma 2 guarantees the prefix mix is an unbiased WRIS sample, so
//! Theorem 2's approximation bound carries over.
//!
//! Every caller decodes the same way — [`KbtimIndex::decode_keywords`],
//! a single request being a batch of one — and everything that serves
//! reads the coverage instance **in place** (`InPlaceCover`): one flat
//! pass counts every user's lists below the shares, and the greedy
//! walks a user's sets straight off the decoded keyword CSRs when it
//! asks for them. That is `query_rr`, the delta tier and every group of
//! an engine window; what the engine keeps across windows is the
//! decoded lists and each keyword set's greedy *run*
//! (`prefix_outcome`), never an instance.
//!
//! The staged chain [`KbtimIndex::merge_keywords`] →
//! [`KbtimIndex::query_merged`] → [`KbtimIndex::recycle_merged`] is the
//! same in-place read, cut where a caller times it stage by stage: a
//! [`MergedQuery`] is a keyword set's `φ_Q`, its Eqn-11 budget and a
//! lease on the arena's lists, `query_merged` counts and runs the greedy
//! over them, and nothing is merged anywhere. The four names keep their
//! spelling because the benchmark package
//! (`crates/bench/src/bin/bench/src/trace.rs`) links them and a product
//! PR may not edit it.
//!
//! Keyword segments load and decode **in parallel** (one job per query
//! keyword × index shard on the index's pool, keyword-major) and stay
//! where they were decoded: a keyword is one `CoverPart` per shard,
//! in shard order. Users are range-partitioned across shards and keep
//! their global-build rr-id lists, so those parts are the monolithic
//! `L_w` cut at the shard bounds and the coverage instance — and
//! therefore the answer — is identical for every thread count *and
//! every shard count*.
//!
//! The whole data path is flat and zero-copy: block bytes arrive as
//! borrowed [`kbtim_storage::BlockSource`] views (or through pooled
//! staging buffers on the file backend), each keyword's `L_w` decodes
//! straight into a pooled [`format::IlCsr`] arena, and everything after
//! it — the per-user gains, the greedy's bitset and heap — leases from
//! the scratch pool: no per-user allocation, no hash probes in the
//! greedy loop, and ~zero allocation once the pool is warm.

use crate::format::{self, IlCsr};
use crate::scratch::{KeywordArena, KeywordLists, QueryScratch, ScratchPool};
use crate::{IndexError, KbtimIndex, QueryCtx, QueryOutcome, QueryStats};
use kbtim_core::maxcover::{greedy_max_cover_over, CoverInstance};
use kbtim_graph::NodeId;
use kbtim_topics::{Query, TopicId};
use std::borrow::Cow;
use std::sync::Arc;
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

/// One keyword × shard of a request's coverage instance: a CSR of the
/// keyword's `L_w`, the share `θ^Q_w` that cuts every list of it, and
/// where the keyword's ids start in the request's global id space (the
/// shares before it). A keyword's parts are adjacent and in shard
/// order, so its users ascend across them and every user is in at most
/// one.
#[derive(Clone, Copy)]
pub(crate) struct CoverPart<'a> {
    il: &'a IlCsr,
    share: u64,
    base: u64,
}

/// The parts of `keywords` — each keyword's CSRs (its `L_w` in shard
/// order) with its share, in keyword order.
pub(crate) fn cover_parts<'a>(
    keywords: impl Iterator<Item = (&'a [IlCsr], u64)> + Clone,
) -> Vec<CoverPart<'a>> {
    let mut parts = Vec::with_capacity(keywords.clone().map(|(csrs, _)| csrs.len()).sum());
    let mut base = 0u64;
    for (csrs, share) in keywords {
        parts.extend(csrs.iter().map(|il| CoverPart { il, share, base }));
        base += share;
    }
    parts
}

/// `θ^Q = Σ_w θ^Q_w`: the size of the parts' global id space.
pub(crate) fn theta_q_of(parts: &[CoverPart<'_>]) -> u64 {
    parts.last().map_or(0, |last| last.base + last.share)
}

/// Whether every user of a decoded CSR lies in `0..num_users` — checked
/// once before a CSR indexes anything sized by the universe. Users
/// ascend (the decoder rejects a zero gap), so the last one bounds them
/// all.
pub(crate) fn check_universe(il: &IlCsr, num_users: u32) -> Result<(), IndexError> {
    match il.users.last() {
        Some(&user) if user >= num_users => {
            Err(IndexError::Corrupt(format!("inverted list names user {user} of {num_users}")))
        }
        _ => Ok(()),
    }
}

/// For every list of `il`, in order: how many of its (ascending) ids
/// are `< share` — the one place that answers "how much of each list
/// does the share keep".
///
/// Flat: a running count of the ids below the share over the whole
/// arena into `prefix` (overwritten, `ids.len() + 1` long), then one
/// subtraction per list. Lists average two or three ids, so a loop per
/// list would mispredict its exit on most of them.
pub(crate) fn list_cuts<'a>(
    il: &'a IlCsr,
    share: u64,
    prefix: &'a mut Vec<u32>,
) -> impl Iterator<Item = u32> + 'a {
    // Ids stay below 2^31 (the tag bit), so a clamped share keeps all.
    let share = u32::try_from(share).unwrap_or(u32::MAX);
    // No clear first: every slot is written below, only growth is filled.
    prefix.resize(il.ids.len() + 1, 0);
    prefix[0] = 0;
    let mut below = 0u32;
    for (slot, &id) in prefix[1..].iter_mut().zip(&il.ids) {
        below += u32::from(id < share);
        *slot = below;
    }
    il.offsets.windows(2).map(|bounds| prefix[bounds[1] as usize] - prefix[bounds[0] as usize])
}

/// A request's coverage instance read in place off its keyword CSRs.
///
/// `gains[u]` is `Σ_w |{id ∈ L_w(u) : id < θ^Q_w}|` ([`count_gains`]);
/// a user's sets are found when the greedy asks for them: a binary
/// search for the user in each keyword's ascending `users`, the list
/// cut at the share, the ids shifted to the keyword's base. The greedy
/// recounts a few dozen users per request, so no list is ever copied.
pub(crate) struct InPlaceCover<'a> {
    parts: &'a [CoverPart<'a>],
    gains: &'a [u32],
}

impl CoverInstance for InPlaceCover<'_> {
    fn candidates(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.gains.len() as NodeId
    }

    #[inline]
    fn initial_gain(&self, node: NodeId) -> u32 {
        self.gains[node as usize]
    }

    fn for_each_run(&self, node: NodeId, mut visit: impl FnMut(&[u32], usize)) {
        for part in self.parts {
            if let Ok(j) = part.il.users.binary_search(&node) {
                let list = part.il.list(j);
                let cut = list.partition_point(|&id| (id as u64) < part.share);
                visit(&list[..cut], part.base as usize);
            }
        }
    }
}

/// Every user's initial gain over `parts` into `gains` (overwritten,
/// one slot per user of the universe the parts were checked against).
fn count_gains(
    parts: &[CoverPart<'_>],
    num_users: u32,
    gains: &mut Vec<u32>,
    prefix: &mut Vec<u32>,
) {
    gains.clear();
    gains.resize(num_users as usize, 0);
    for part in parts {
        for (&user, cut) in part.il.users.iter().zip(list_cuts(part.il, part.share, prefix)) {
            gains[user as usize] += cut;
        }
    }
}

impl KbtimIndex {
    /// Answer `query` with Algorithm 2 (works on both index variants).
    /// The `engine.decode` / `engine.merge` / `engine.greedy`
    /// failpoints fire at the matching stage boundaries.
    pub fn query_rr(&self, query: &Query) -> Result<QueryOutcome, IndexError> {
        let started = Instant::now();
        let io_before = self.io_stats().snapshot();
        let (phi_q, budget) = self.query_budget(query);
        if budget.is_empty() {
            return Ok(empty_outcome(started));
        }
        let arena = self.decode_keywords(&budget)?;
        let users = self.meta().num_users;
        let result =
            self.query_arena_ctx(users, phi_q, &budget, &arena, query.k(), &QueryCtx::default());
        self.recycle_keywords(arena);
        let mut outcome = result?;
        outcome.stats.io = self.io_stats().snapshot().since(&io_before);
        outcome.stats.elapsed = started.elapsed();
        Ok(outcome)
    }

    /// Everything after the keyword decode, for one request: deadline
    /// check, the gains of the `num_users` universe counted off the
    /// arena, greedy in place ([`InPlaceCover`]). The caller keeps (and
    /// recycles) the arena. The `engine.merge` and `engine.greedy`
    /// failpoints fire before the lists are counted and before the
    /// greedy starts.
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
        let parts = budgeted_parts(num_users, budget, arena)?;
        enter_greedy(ctx)?;
        query_in_place(&parts, num_users, phi_q, k, self.pool(), &self.scratch, &|| ctx.expired())
            .ok_or(IndexError::DeadlineExceeded)
    }

    /// Decode each wanted keyword **once** into a [`KeywordArena`] —
    /// the first stage of every RR query, batched or not, and the one
    /// place an `il` block becomes lists.
    ///
    /// `wants` names the keywords (the shares ride along for callers
    /// that budget per batch; what is decoded does not depend on them,
    /// which is what lets the lists outlive the request: the engine
    /// keeps them and leases them to later windows, see
    /// [`crate::QueryEngine::with_merge_cache`] — this function itself
    /// never looks at a cache, so the serial reference paths always
    /// decode from the bytes). Sorted, duplicate-free input is used
    /// as-is; anything else is normalized first, so the arena's lookup
    /// invariant holds for any caller. Per keyword × shard, one fan-out
    /// job (on the index-owned pool) reads and decodes the whole
    /// inverted list `L_w` into a pool-leased CSR; truncation to a
    /// request's share happens when the lists are counted, read-only.
    /// All or nothing: one unreadable block fails the call and no list
    /// of it survives. Any number of requests are then served from the
    /// one arena; return it with [`KbtimIndex::recycle_keywords`] when
    /// they are done.
    pub fn decode_keywords(&self, wants: &[(TopicId, u64)]) -> Result<KeywordArena, IndexError> {
        // The arena binary-searches its keywords, so the build order
        // must be strictly ascending — normalize rather than trust the
        // caller (a silently unsorted arena would misreport healthy
        // keywords as missing).
        let wants = normalized_wants(wants);
        if kbtim_fault::inject("engine.decode") {
            return Err(IndexError::Injected("engine.decode"));
        }
        let codec = self.meta().codec;
        // Keyword-major (keyword × shard) fan-out: a keyword's shard
        // CSRs, kept in shard order, are the monolithic `L_w` cut at
        // the shard bounds (each user lives in one shard and keeps its
        // global-build rr-id list there).
        let num_shards = self.num_shards();
        let mut scans: Vec<Result<IlCsr, IndexError>> = self.pool().map_shards_with(
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
        if let Some(failed) = scans.iter().position(Result::is_err) {
            return Err(scans.swap_remove(failed).expect_err("position of an error"));
        }
        // One block per keyword: an exact-size iterator collects
        // straight into the shared slice.
        let mut scans = scans.into_iter().map(|scan| scan.expect("no scan failed"));
        let entries = wants
            .iter()
            .map(|&(topic, _)| (topic, scans.by_ref().take(num_shards).collect()))
            .collect();
        Ok(KeywordArena { entries })
    }

    /// Hand a finished window's arena back: lists nobody else holds
    /// return their CSRs to the scratch pool; lists the engine's cache,
    /// a delta snapshot or a [`MergedQuery`] still keeps just lose this
    /// holder.
    pub fn recycle_keywords(&self, arena: KeywordArena) {
        arena.entries.into_iter().for_each(|(_, lists)| self.recycle_lists(lists));
    }

    fn recycle_lists(&self, mut lists: KeywordLists) {
        if let Some(csrs) = Arc::get_mut(&mut lists) {
            csrs.iter_mut().for_each(|csr| self.scratch.put_csr(csr.take_arenas()));
        }
    }

    /// Stage one of the library's staged chain: a keyword set's `φ_Q`
    /// and Eqn-11 budget with a lease on each budgeted keyword's lists
    /// in `arena` — checked as every request's are (a missing keyword,
    /// a user outside the universe and the `engine.merge` failpoint fail
    /// here), nothing copied.
    ///
    /// All of it is a function of `query.topics()` — `Q.k` only bounds
    /// the greedy loop — so requests sharing a keyword set share one
    /// [`MergedQuery`] and differ only in their
    /// [`KbtimIndex::query_merged`] call. The lease keeps the lists
    /// alive after `arena` is recycled.
    pub fn merge_keywords(
        &self,
        query: &Query,
        arena: &KeywordArena,
    ) -> Result<MergedQuery, IndexError> {
        let (phi_q, budget) = self.query_budget(query);
        // For the checks alone: the parts are rebuilt per `query_merged`.
        budgeted_parts(self.meta().num_users, &budget, arena)?;
        let keywords = budget
            .iter()
            .map(|&(topic, share)| (Arc::clone(arena.lists_of(topic).expect("checked")), share))
            .collect();
        Ok(MergedQuery { phi_q, keywords })
    }

    /// Stage two: answer one request in place over a [`MergedQuery`]'s
    /// lists — the gains counted, then the greedy. Infallible: routing
    /// and list errors surfaced in [`KbtimIndex::merge_keywords`].
    ///
    /// `rr_sets_loaded` reports the θ^Q budget; `io` stays zero — the
    /// reads belong to whoever decoded the arena.
    pub fn query_merged(&self, merged: &MergedQuery, k: u32) -> QueryOutcome {
        let parts = cover_parts(merged.keywords.iter().map(|(lists, share)| (&lists[..], *share)));
        let num_users = self.meta().num_users;
        query_in_place(&parts, num_users, merged.phi_q, k, self.pool(), &self.scratch, &|| false)
            .expect("greedy with a never-firing stop cannot abort")
    }

    /// Release a finished [`MergedQuery`]'s lease — before or after the
    /// arena it was taken from; the last holder's release returns the
    /// CSRs to the scratch pool.
    pub fn recycle_merged(&self, merged: MergedQuery) {
        merged.keywords.into_iter().for_each(|(lists, _)| self.recycle_lists(lists));
    }
}

/// A keyword set's staged request, shared by every request over that
/// set (see [`KbtimIndex::merge_keywords`]).
pub struct MergedQuery {
    /// Total tf-idf mass of the query's held keywords (`φ_Q`).
    phi_q: f64,
    /// Each budgeted keyword's lists with its share `θ^Q_w`, in keyword
    /// order.
    keywords: Vec<(KeywordLists, u64)>,
}

/// The `k`-seed answer over an instance, sliced from a deeper run
/// `full` over the same instance; `phi_q` is the instance's, `θ^Q`
/// rides in `full`'s stats.
///
/// CELF selects seeds strictly sequentially and `k` only bounds the
/// loop, so the `k`-seed answer over a fixed instance *is* the
/// `k`-prefix of any deeper run: same seeds, same marginal gains,
/// coverage the same running sum, and the influence estimate the same
/// arithmetic on those values — bit-identical to running the greedy
/// with `k` directly (enforced by the serving-tier tests and a
/// `maxcover` proptest). This is what lets the engine serve every
/// same-keyword-set request of a window from one max-`k` run, and every
/// later window from the deepest run it has cached. `elapsed` and
/// `generation` describe a request, not a run: the caller stamps them.
pub(crate) fn prefix_outcome(full: &QueryOutcome, k: u32, phi_q: f64) -> QueryOutcome {
    let n = (k as usize).min(full.seeds.len());
    let marginal_gains = full.marginal_gains[..n].to_vec();
    let coverage: u64 = marginal_gains.iter().sum();
    let theta_q = full.stats.theta_q;
    let estimated_influence =
        if theta_q == 0 { 0.0 } else { coverage as f64 / theta_q as f64 * phi_q };
    QueryOutcome {
        seeds: full.seeds[..n].to_vec(),
        marginal_gains,
        coverage,
        estimated_influence,
        stats: QueryStats { theta_q, rr_sets_loaded: theta_q, ..QueryStats::default() },
    }
}

/// The boundary every request crosses before its seeds are selected —
/// or, for one answered from a cached run, sliced: the `engine.greedy`
/// failpoint, then the deadline.
pub(crate) fn enter_greedy(ctx: &QueryCtx) -> Result<(), IndexError> {
    if kbtim_fault::inject("engine.greedy") {
        return Err(IndexError::Injected("engine.greedy"));
    }
    ctx.check()
}

/// The parts of a budgeted request over a keyword arena, every CSR
/// checked against the `num_users` universe; the `engine.merge`
/// failpoint fires here, at the start of whatever the caller does with
/// them.
fn budgeted_parts<'a>(
    num_users: u32,
    budget: &[(TopicId, u64)],
    arena: &'a KeywordArena,
) -> Result<Vec<CoverPart<'a>>, IndexError> {
    if kbtim_fault::inject("engine.merge") {
        return Err(IndexError::Injected("engine.merge"));
    }
    for &(topic, _) in budget {
        let csrs = arena.csrs_of(topic).ok_or_else(|| {
            IndexError::Corrupt(format!("keyword {topic} missing from the batch arena"))
        })?;
        csrs.iter().try_for_each(|il| check_universe(il, num_users))?;
    }
    Ok(cover_parts(
        budget.iter().map(|&(topic, share)| (arena.csrs_of(topic).expect("checked above"), share)),
    ))
}

/// Answer one request in place over `parts` — as [`cover_parts`]
/// returned them, every CSR of them passed by [`check_universe`] for
/// `num_users`: count the gains, run the greedy over [`InPlaceCover`].
/// The gains, the prefix temp and the greedy's own state lease from
/// `scratch`. `None` when `should_stop` fired.
pub(crate) fn query_in_place(
    parts: &[CoverPart<'_>],
    num_users: u32,
    phi_q: f64,
    k: u32,
    exec: &kbtim_exec::ExecPool,
    scratch: &ScratchPool,
    should_stop: &(dyn Fn() -> bool + Sync),
) -> Option<QueryOutcome> {
    let started = Instant::now();
    let theta_q = theta_q_of(parts);
    if theta_q == 0 {
        return Some(empty_outcome(started));
    }
    let mut scratch = scratch.guard();
    let QueryScratch { gains, prefix, cover, .. } = &mut *scratch;
    count_gains(parts, num_users, gains, prefix);
    let instance = InPlaceCover { parts, gains };
    let cover = greedy_max_cover_over(&instance, theta_q, k, exec, should_stop, cover)?;
    let estimated_influence = cover.covered as f64 / theta_q as f64 * phi_q;
    Some(QueryOutcome {
        seeds: cover.seeds,
        marginal_gains: cover.marginal_gains,
        coverage: cover.covered,
        estimated_influence,
        stats: QueryStats {
            theta_q,
            rr_sets_loaded: theta_q,
            elapsed: started.elapsed(),
            ..QueryStats::default()
        },
    })
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
    use crate::delta::{DeltaIndex, Mutation};
    use crate::format::{IlCsr, IndexVariant};
    use crate::scratch::{KeywordArena, ScratchPool};
    use crate::{IndexError, KbtimIndex, QueryOutcome};
    use kbtim_codec::Codec;
    use kbtim_core::maxcover::greedy_max_cover_naive;
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
    use std::sync::Arc;

    fn dataset() -> Dataset {
        DatasetConfig::family(DatasetFamily::News).num_users(600).num_topics(8).seed(21).build()
    }

    fn build(data: &Dataset, dir: &std::path::Path, codec: Codec) {
        build_sharded(data, dir, codec, 1);
    }

    fn config(codec: Codec, shards: usize) -> IndexBuildConfig {
        IndexBuildConfig {
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
            shards,
        }
    }

    fn build_sharded(data: &Dataset, dir: &std::path::Path, codec: Codec, shards: usize) {
        let model = IcModel::weighted_cascade(&data.graph);
        IndexBuilder::new(&model, &data.profiles, config(codec, shards)).build(dir).unwrap();
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
    fn list_cuts_agree_with_partition_point_at_every_length() {
        // Lists of every length from empty-cut to long, shares on and
        // between ids, the whole-list and empty cuts and a share past
        // u32 — the list alone, and between two others.
        let mut prefix = vec![7; 3]; // leftovers must not matter
        for len in 1..40u32 {
            let list: Vec<u32> = (0..len).map(|i| 3 * i + 1).collect();
            for surrounded in [false, true] {
                let mut il = IlCsr::default();
                if surrounded {
                    il.ids.extend([0, 2, 50]);
                    il.close_list(3);
                }
                il.ids.extend(&list);
                il.close_list(7);
                if surrounded {
                    il.ids.extend([1, 200]);
                    il.close_list(9);
                }
                for share in (0..=(3 * len as u64 + 2)).chain([1 << 40, u64::MAX]) {
                    let want: Vec<u32> = (0..il.len())
                        .map(|j| il.list(j).partition_point(|&id| (id as u64) < share) as u32)
                        .collect();
                    let got: Vec<u32> = super::list_cuts(&il, share, &mut prefix).collect();
                    assert_eq!(got, want, "len {len} share {share}");
                }
            }
        }
        assert_eq!(super::list_cuts(&IlCsr::default(), 5, &mut prefix).count(), 0);
    }

    /// 1–6 keyword CSRs over 60 users: lists of 1..=12 ids drawn from
    /// 0..40, each with a share from 0 (and 1) to beyond every id; most
    /// users absent from any one keyword.
    fn keyword_inputs() -> impl Strategy<Value = Vec<(IlCsr, u64)>> {
        let list = proptest::collection::vec(0u32..40, 1..13).prop_map(|mut ids| {
            ids.sort_unstable();
            ids.dedup();
            ids
        });
        let share = prop_oneof![Just(0u64), Just(1u64), 0u64..45, Just(1u64 << 33)];
        let keyword = (proptest::collection::vec((0u32..60, list), 0..50), share).prop_map(
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
        proptest::collection::vec(keyword, 1..7)
    }

    /// `il` cut into `shards` CSRs at equal user-range bounds over the
    /// 60-user universe, the way a sharded build files `L_w` — sparse
    /// keywords leave some of them empty.
    fn split_by_user_range(il: &IlCsr, shards: u32) -> Vec<IlCsr> {
        let mut out = vec![IlCsr::default(); shards as usize];
        for j in 0..il.len() {
            let shard = &mut out[(il.users[j] * shards / 60) as usize];
            shard.ids.extend(il.list(j));
            shard.close_list(il.users[j]);
        }
        fn lists(csr: &IlCsr) -> impl Iterator<Item = (u32, &[u32])> {
            (0..csr.len()).map(move |j| (csr.users[j], csr.list(j)))
        }
        let rejoined: Vec<_> = out.iter().flat_map(lists).collect();
        assert_eq!(rejoined, lists(il).collect::<Vec<_>>(), "shard order is the monolithic order");
        out
    }

    fn shard_counts() -> impl Strategy<Value = u32> {
        prop_oneof![Just(1u32), Just(2u32), Just(4u32), Just(8u32)]
    }

    /// The instance as per-set member lists, built the slow way: set
    /// `base_w + id` holds user `u` iff `id ∈ L_w(u)` and `id < share_w`.
    fn vec_of_vec_oracle(keywords: &[(IlCsr, u64)]) -> Vec<Vec<u32>> {
        let theta_q: u64 = keywords.iter().map(|(_, share)| share.min(&64)).sum();
        let mut sets = vec![Vec::new(); theta_q as usize];
        let mut base = 0usize;
        for (il, share) in keywords {
            for j in 0..il.len() {
                for &id in il.list(j).iter().filter(|&&id| (id as u64) < *share) {
                    sets[base + id as usize].push(il.users[j]);
                }
            }
            base += (*share).min(64) as usize;
        }
        sets
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// In place ≡ the naive greedy over the Vec-of-Vec instance, for
        /// `k` from 0 to past exhaustion — each keyword one CSR, or one
        /// per shard of an S-way user-range split (empty shards
        /// included).
        #[test]
        fn in_place_matches_the_vec_of_vec_oracle(
            keywords in keyword_inputs(),
            shards in shard_counts(),
            k in 0u32..80,
        ) {
            let pool = ScratchPool::new();
            let exec = kbtim_exec::ExecPool::sequential();
            let split: Vec<(Vec<IlCsr>, u64)> = keywords
                .iter()
                .map(|(il, share)| (split_by_user_range(il, shards), (*share).min(64)))
                .collect();
            let whole = super::cover_parts(
                keywords.iter().map(|(il, share)| (std::slice::from_ref(il), (*share).min(64))),
            );
            let sharded =
                super::cover_parts(split.iter().map(|(csrs, share)| (&csrs[..], *share)));
            let theta_q = super::theta_q_of(&whole);
            let oracle = greedy_max_cover_naive(&vec_of_vec_oracle(&keywords), k);
            // Each twice: the second run counts into the first one's
            // buffers.
            for parts in [&whole, &sharded, &whole, &sharded] {
                let got =
                    super::query_in_place(parts, 60, 2.0, k, &exec, &pool, &|| false).unwrap();
                prop_assert_eq!(&got.seeds, &oracle.seeds);
                prop_assert_eq!(&got.marginal_gains, &oracle.marginal_gains);
                prop_assert_eq!(got.coverage, oracle.covered);
                prop_assert_eq!(got.stats.theta_q, theta_q);
            }
        }
    }

    /// One [`super::MergedQuery`] over topics {0, 1, 2}, reused down a
    /// `k` ladder (to past exhaustion) bit for bit against `reference`,
    /// in both release orders — the chain's own, and the benchmark
    /// trace's, which recycles the arena first and answers from the
    /// held instance afterwards. `pooled` of the CSRs `decode` files
    /// came out of the scratch pool: the last release returns them all.
    fn staged_ladder(
        index: &KbtimIndex,
        decode: impl Fn(&[(u32, u64)]) -> KeywordArena,
        reference: impl Fn(&Query) -> QueryOutcome,
        pooled: usize,
        what: &str,
    ) {
        let query = |k| Query::new([0u32, 1, 2], k);
        let (_, budget) = index.query_budget(&query(1));
        // The reference decodes for itself: ask it before the pool is
        // counted.
        let ladder = [1, 3, 10, 40, 700].map(|k| (k, reference(&query(k))));
        index.recycle_keywords(decode(&budget)); // warm the pool
        let spare = || index.scratch.spare_csr_capacities().len();
        let full = spare();
        for arena_first in [false, true] {
            let mut arena = Some(decode(&budget));
            let merged = index.merge_keywords(&query(1), arena.as_ref().unwrap()).unwrap();
            if arena_first {
                index.recycle_keywords(arena.take().unwrap());
            }
            for (k, want) in &ladder {
                let got = index.query_merged(&merged, *k);
                assert_eq!(got.seeds, want.seeds, "{what}, k = {k}");
                assert_eq!(got.marginal_gains, want.marginal_gains, "{what}, k = {k}");
                assert_eq!(got.coverage, want.coverage, "{what}, k = {k}");
                assert_eq!(got.estimated_influence.to_bits(), want.estimated_influence.to_bits());
                assert_eq!(got.stats.rr_sets_loaded, want.stats.theta_q);
            }
            assert_eq!(spare(), full - pooled, "{what}: a holder is left");
            index.recycle_merged(merged);
            arena.into_iter().for_each(|arena| index.recycle_keywords(arena));
            assert_eq!(spare(), full, "{what}: every decoded CSR is back in the pool");
        }
    }

    #[test]
    fn the_staged_chain_matches_the_reference_and_returns_every_list() {
        let data = dataset();
        for shards in [1, 4] {
            let dir = TempDir::new("rrq-staged").unwrap();
            build_sharded(&data, dir.path(), Codec::Packed, shards);
            let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
            staged_ladder(
                &index,
                |budget| index.decode_keywords(budget).unwrap(),
                |query| index.query_rr(query).unwrap(),
                3 * shards,
                &format!("{shards} shard(s)"),
            );
        }

        // The delta tier's union arena: keyword 0 is leased from the
        // overlay (a weight re-set to itself re-samples it to the same
        // lists and catalog row, so the base's budget is the union's),
        // 1 and 2 are decoded from the base.
        let dir = TempDir::new("rrq-staged-delta").unwrap();
        build(&data, dir.path(), Codec::Packed);
        let index = Arc::new(KbtimIndex::open(dir.path(), IoStats::new()).unwrap());
        let config = config(Codec::Packed, 1);
        let tier = DeltaIndex::attach(index.clone(), &data.graph, &data.profiles, config).unwrap();
        let (user, weight) = (0..data.profiles.num_users())
            .find_map(|user| {
                let (topics, tfs) = data.profiles.user_vector(user);
                topics.iter().position(|&t| t == 0).map(|at| (user, tfs[at]))
            })
            .expect("somebody holds topic 0");
        tier.apply(&[Mutation::SetTopicWeight { user, topic: 0, weight }]).unwrap();
        let snapshot = tier.snapshot();
        assert_eq!(snapshot.overlay_keywords(), 1);
        staged_ladder(
            &index,
            |budget| snapshot.decode_union(budget).unwrap(),
            |query| snapshot.query(query).unwrap(),
            2,
            "delta union",
        );

        // What `merge_keywords` refuses: a keyword the arena lacks, a
        // user outside the universe (the armed `engine.merge` failpoint:
        // `tests/faults.rs`).
        let query = Query::new([0u32, 1, 2], 5);
        let (_, budget) = index.query_budget(&query);
        let mut arena = index.decode_keywords(&budget[..2]).unwrap();
        let err = index.merge_keywords(&query, &arena).err().expect("keyword 2 is missing");
        assert!(matches!(&err, IndexError::Corrupt(why) if why.contains("missing")), "{err}");
        let mut stray = IlCsr::default();
        stray.ids.push(0);
        stray.close_list(index.meta().num_users);
        arena.insert(2, Arc::new([stray]));
        let err = index.merge_keywords(&query, &arena).err().expect("a user past the universe");
        assert!(matches!(&err, IndexError::Corrupt(why) if why.contains("names user")), "{err}");
        index.recycle_keywords(arena);
    }

    /// `query_rr`, an engine's miss, its hits and a deepening all read
    /// the one in-place instance: their answers are prefixes of one
    /// another.
    #[test]
    fn serving_without_a_cache_builds_no_instance() {
        let data = dataset();
        let dir = TempDir::new("rrq-inplace").unwrap();
        build(&data, dir.path(), Codec::Packed);
        let index = Arc::new(KbtimIndex::open(dir.path(), IoStats::new()).unwrap());
        let direct = index.query_rr(&Query::new([0, 1, 2], 10)).unwrap();
        let engine = crate::QueryEngine::new(Arc::clone(&index)).with_merge_cache(4);
        for k in [10, 10, 4, 25] {
            let got = engine.query(&crate::EngineRequest::new([0, 1, 2], k)).unwrap();
            let n = got.seeds.len().min(direct.seeds.len());
            assert_eq!(got.seeds[..n], direct.seeds[..n], "k = {k}");
        }
        assert_eq!((engine.merge_cache_hits(), engine.merge_cache_misses()), (2, 2));
    }

    #[test]
    fn sharded_decode_keeps_pooled_csrs_shard_sized() {
        let data = dataset();
        let dir = TempDir::new("rrq-shard-pool").unwrap();
        build_sharded(&data, dir.path(), Codec::Packed, 4);
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        let (_, budget) = index.query_budget(&Query::new([0, 1, 2], 10));
        // Twice: the second decode reuses the first one's CSRs, and one
        // that takes a larger block than it held grows by doubling.
        for slack in [1, 2] {
            let arena = index.decode_keywords(&budget).unwrap();
            let csrs = || arena.entries.iter().flat_map(|(_, lists)| lists.iter());
            assert_eq!(csrs().count(), budget.len() * 4, "one CSR per keyword × shard");
            let largest_block = csrs().map(|csr| csr.ids.len()).max().unwrap();
            let largest_keyword = budget
                .iter()
                .map(|&(topic, _)| arena.csrs_of(topic).unwrap().iter().map(|c| c.ids.len()).sum())
                .max()
                .unwrap();
            assert!(largest_block < largest_keyword, "a keyword spans several shards");
            index.recycle_keywords(arena);
            // A gather that appended a keyword's shards into one CSR
            // would have grown that CSR to the keyword's size.
            for capacity in index.scratch.spare_csr_capacities() {
                assert!(
                    capacity <= slack * largest_block,
                    "{capacity} ids pooled, largest block {largest_block}"
                );
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
