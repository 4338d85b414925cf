//! Greedy maximum coverage over RR-set collections (step 2 of RIS/WRIS).
//!
//! Given θ sampled RR sets, the seed set is built by repeatedly taking the
//! node contained in the most not-yet-covered sets — the classic
//! `(1 − 1/e)` greedy for maximum coverage \[22\]. Two implementations:
//!
//! * [`greedy_max_cover_naive`] recounts every node each iteration —
//!   obviously correct, used as the test oracle;
//! * [`greedy_max_cover`] is the production lazy variant (CELF-style):
//!   marginal gains only ever shrink (submodularity), so a stale
//!   priority-queue entry whose recomputed gain still tops the queue is
//!   safe to take.
//!
//! Both use identical tie-breaking — larger gain first, then smaller node
//! id — so their outputs are *bit-identical*, a property the IRR ≡ RR
//! equivalence tests (Theorem 3) rely on.
//!
//! The lazy variant additionally supports **parallel marginal-gain
//! recounts** ([`greedy_max_cover_with`]): when the queue's top entry is
//! stale, a batch of stale entries is refreshed concurrently on a
//! [`kbtim_exec::ExecPool`]. Refreshing replaces upper bounds with exact
//! current gains, and the accepted seed is always the `(max gain, min
//! id)` argmax, so the selected sequence is independent of the batch
//! schedule — and therefore of the thread count.

use crate::bitset::Bitset;
use crate::invindex::InvertedIndex;
use kbtim_exec::ExecPool;
use kbtim_graph::NodeId;
use kbtim_propagation::RrBatch;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Result of a greedy maximum-coverage run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaxCoverResult {
    /// Selected seeds, in selection order.
    pub seeds: Vec<NodeId>,
    /// Marginal number of sets newly covered by each seed (same order as
    /// `seeds`); strictly positive and non-increasing.
    pub marginal_gains: Vec<u64>,
    /// Total number of covered sets (= sum of `marginal_gains`).
    pub covered: u64,
}

/// Lazy (CELF-style) greedy maximum coverage, single-threaded.
///
/// Selects up to `k` nodes; stops early when no node covers any uncovered
/// set (zero-gain seeds are never emitted).
pub fn greedy_max_cover(sets: &[Vec<NodeId>], k: u32) -> MaxCoverResult {
    greedy_max_cover_with(sets, k, &ExecPool::sequential())
}

/// [`greedy_max_cover`] with parallel marginal-gain recounts on `pool`.
///
/// The result is bit-identical for every thread count.
pub fn greedy_max_cover_with(sets: &[Vec<NodeId>], k: u32, pool: &ExecPool) -> MaxCoverResult {
    greedy_max_cover_inverted_with(&InvertedIndex::from_sets(sets), sets.len() as u64, k, pool)
}

/// Greedy maximum coverage straight off an [`RrBatch`] arena — the entry
/// point for the sampling paths (WRIS / RIS / OPT estimation): counting-
/// sort inversion into a CSR [`InvertedIndex`], then the bitset CELF
/// loop. No per-set or per-node heap allocation anywhere.
pub fn greedy_max_cover_batch(batch: &RrBatch, k: u32, pool: &ExecPool) -> MaxCoverResult {
    greedy_max_cover_inverted_with(&InvertedIndex::from_batch(batch), batch.len() as u64, k, pool)
}

/// Lazy greedy maximum coverage over a pre-inverted CSR instance with set
/// indices in `0..num_sets`, with parallel marginal-gain recounts (see
/// [`greedy_max_cover_over`], the loop itself): any thread count selects
/// the same seed sequence. [`greedy_max_cover`] delegates here, so
/// selection and tie-breaking are shared by construction.
pub fn greedy_max_cover_inverted_with(
    inverted: &InvertedIndex,
    num_sets: u64,
    k: u32,
    pool: &ExecPool,
) -> MaxCoverResult {
    greedy_max_cover_over(inverted, num_sets, k, pool, &|| false, &mut CoverScratch::default())
        .expect("greedy with a never-firing stop cannot abort")
}

/// A maximum-coverage instance as the CELF loop sees it: the candidate
/// nodes, each node's number of sets, and a way to walk a node's sets.
///
/// [`InvertedIndex`] is the materialized implementation; the disk
/// index's request path implements it straight over its decoded keyword
/// lists, so a request that uses its instance once never builds one.
///
/// Contract: set ids are below the `num_sets` the loop is run with, a
/// node's runs name each of its sets exactly once, and
/// [`initial_gain`](CoverInstance::initial_gain) is exactly how many
/// that is — the loop takes it as the node's gain while nothing is
/// covered, and as an upper bound on every later gain.
pub trait CoverInstance: Sync {
    /// Every node that is in some set, each once, in any order (nodes
    /// in no set may be among them; a node left out is never a seed).
    fn candidates(&self) -> impl Iterator<Item = NodeId> + '_;

    /// How many sets contain `node` (0 for a node in none).
    fn initial_gain(&self, node: NodeId) -> u32;

    /// Call `visit(ids, base)` for every run of `node`'s sets; the run
    /// holds the set ids `base + id` for `id` in `ids`.
    fn for_each_run(&self, node: NodeId, visit: impl FnMut(&[u32], usize));
}

/// What a CELF run needs beyond its result, kept by callers that run
/// many (the index's scratch pool): only the capacities carry over,
/// both are reset before use.
#[derive(Debug, Default)]
pub struct CoverScratch {
    /// One bit per set: covered by a selected seed.
    pub covered: Bitset,
    /// Backing store of the candidate heap.
    pub heap: Vec<(u64, Reverse<NodeId>)>,
}

/// Candidate tiers are cut on a histogram of the initial gains with one
/// bucket per gain below this and a last bucket for everything from
/// `TIER_BUCKETS - 1` up.
const TIER_BUCKETS: usize = 256;

/// A tier takes in whole buckets, highest first, while it holds at most
/// this many nodes (one bucket alone may hold more). A constant of the
/// algorithm: with the histogram width it makes the tier cuts a function
/// of the instance alone, never of the pool.
const TIER_NODES: u32 = 1024;

#[cfg(test)]
thread_local! {
    /// Tiers gathered after a run's first, on this thread.
    static TIER_EXTENSIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Lazy greedy maximum coverage over any [`CoverInstance`] — the one
/// CELF loop behind every `greedy_max_cover*` entry point and the disk
/// index's query paths.
///
/// Heap keys are upper bounds on true gains (submodularity). A node is
/// accepted only when its freshly recomputed gain still equals the top
/// key, i.e. when it is the `(max gain, min id)` argmax over all
/// candidates — a property of the *instance*, not of the refresh
/// schedule. The parallel path merely refreshes a batch of stale keys to
/// their exact values concurrently, so any thread count selects the same
/// seed sequence.
///
/// **Tiered candidates.** A run selects a few dozen seeds out of a node
/// space in which most nodes cover two or three sets, so the queue does
/// not start with every node in it. Nodes enter by *tiers* of their
/// initial gain: the heap holds exactly the nodes whose gain bucket is
/// at or above the threshold `τ`. The invariant — every node outside
/// the heap has initial gain, hence current gain, of at most `τ − 1` —
/// is restored before every pop: while the top key is below `τ` (or the
/// heap is empty), the next tier `[τ′, τ)` is gathered from the instance
/// and pushed. A top key of at least `τ` therefore beats every node
/// outside the heap outright (no tie to break against them), and among
/// the nodes inside, acceptance and the `(gain desc, id asc)` order are
/// those of a heap holding every node: the seed sequence is the same.
///
/// `should_stop` is the serving tier's deadline hook: polled once per
/// loop round (each heap pop — at least once per selected seed); when
/// it returns `true` the run aborts and `None` comes back, leaving no
/// partial result to mistake for an answer. It must be cheap (a clock
/// read) and pure — it cannot influence the selection, so every
/// *completed* run is bit-identical for any thread count.
pub fn greedy_max_cover_over<C: CoverInstance>(
    instance: &C,
    num_sets: u64,
    k: u32,
    pool: &ExecPool,
    should_stop: &(dyn Fn() -> bool + Sync),
    scratch: &mut CoverScratch,
) -> Option<MaxCoverResult> {
    celf(instance, num_sets, k, pool, should_stop, scratch, TIER_NODES)
}

/// [`greedy_max_cover_over`] with the tier size as a parameter, so tests
/// can cross tiers on small instances.
///
/// Out of line on purpose: once the disk index had a single caller of
/// its instantiation, LLVM folded this loop into the function that
/// counts the gains before it, and a cold request's CPU read ≈ 4 %
/// worse on ten of ten pairs (docs/BENCHMARKS.md § PR 24).
#[inline(never)]
fn celf<C: CoverInstance>(
    instance: &C,
    num_sets: u64,
    k: u32,
    pool: &ExecPool,
    should_stop: &(dyn Fn() -> bool + Sync),
    scratch: &mut CoverScratch,
    tier_nodes: u32,
) -> Option<MaxCoverResult> {
    // Entries refreshed concurrently per stale top: large enough to
    // amortize a fork/join, small enough not to waste recounts near the
    // end of a run. Constant (not thread-derived) so work sizing never
    // depends on the pool.
    const REFRESH_BATCH: usize = 64;
    // Below this many scanned list entries a refresh runs inline: the
    // pool's scoped fork/join (tens to hundreds of µs) must be dwarfed by
    // the linear scans it parallelizes, which needs refresh work in the
    // hundreds of thousands of entries. Either path computes the same
    // exact gains, so the choice cannot affect the selected seeds.
    const PARALLEL_REFRESH_MIN_WORK: usize = 1 << 18;

    let CoverScratch { covered, heap } = scratch;
    covered.reset(num_sets as usize);
    heap.clear();
    let mut heap = BinaryHeap::from(std::mem::take(heap));

    let bucket = |gain: u32| (gain as usize).min(TIER_BUCKETS - 1);
    let mut histogram = [0u32; TIER_BUCKETS];
    for node in instance.candidates() {
        histogram[bucket(instance.initial_gain(node))] += 1;
    }
    // Every node whose bucket is at or above `tau` has entered the heap;
    // bucket 0 (nodes in no set) never does.
    let mut tau = TIER_BUCKETS;

    // Set ids within a run are sorted but land on arbitrary bitset
    // words, so the probe below misses cache on large θ; prefetching a
    // fixed distance ahead overlaps those misses with the current
    // probes. The hint is advisory — gains are unchanged for any
    // look-ahead.
    let recount = |node: NodeId, covered: &Bitset| -> u64 {
        let mut gain = 0u64;
        instance.for_each_run(node, |ids, base| {
            for (i, &s) in ids.iter().enumerate() {
                if let Some(&ahead) = ids.get(i + crate::prefetch::COVER_SCAN_AHEAD) {
                    covered.prefetch(base + ahead as usize);
                }
                gain += u64::from(!covered.get(base + s as usize));
            }
        });
        gain
    };

    let mut result = MaxCoverResult { seeds: Vec::new(), marginal_gains: Vec::new(), covered: 0 };
    let mut stopped = false;
    while (result.seeds.len() as u32) < k {
        if should_stop() {
            stopped = true;
            break;
        }
        // Restore the tier invariant before looking at the top.
        while tau > 1 && heap.peek().is_none_or(|&(key, _)| key < tau as u64) {
            let mut floor = tau;
            let mut taken = 0u32;
            while floor > 1 && (taken == 0 || taken + histogram[floor - 1] <= tier_nodes) {
                floor -= 1;
                taken += histogram[floor];
            }
            #[cfg(test)]
            if tau < TIER_BUCKETS && taken > 0 {
                TIER_EXTENSIONS.with(|n| n.set(n.get() + 1));
            }
            if taken > 0 {
                heap.extend(instance.candidates().filter_map(|node| {
                    let gain = instance.initial_gain(node);
                    (floor..tau).contains(&bucket(gain)).then_some((gain as u64, Reverse(node)))
                }));
            }
            tau = floor;
        }
        let Some(&(stale_gain, Reverse(node))) = heap.peek() else { break };
        if stale_gain == 0 {
            break;
        }
        heap.pop();
        // Recompute the true current gain.
        let gain = recount(node, covered);
        if gain == stale_gain {
            // Fresh enough: gains are monotone non-increasing, so nothing
            // else in the heap can beat it; equal-gain entries with smaller
            // node ids would have been popped first (heap orders by
            // Reverse(node) on ties).
            result.seeds.push(node);
            result.marginal_gains.push(gain);
            result.covered += gain;
            instance.for_each_run(node, |ids, base| {
                for &s in ids {
                    covered.set(base + s as usize);
                }
            });
        } else if pool.threads() <= 1 {
            heap.push((gain, Reverse(node)));
        } else {
            // Stale top: refresh a whole batch of potentially-stale keys in
            // parallel while we are at it. Only keys above the refreshed
            // top can shadow it, so refreshing them now saves one
            // pop-recount-push round trip each. The initiating node's
            // exact gain is already in hand — only the others recount.
            heap.push((gain, Reverse(node)));
            let mut batch: Vec<NodeId> = Vec::new();
            while batch.len() + 1 < REFRESH_BATCH {
                match heap.peek() {
                    Some(&(g, Reverse(n))) if g > gain => {
                        heap.pop();
                        batch.push(n);
                    }
                    _ => break,
                }
            }
            let work: usize = batch.iter().map(|&n| instance.initial_gain(n) as usize).sum();
            let fresh: Vec<u64> = if work < PARALLEL_REFRESH_MIN_WORK {
                batch.iter().map(|&n| recount(n, covered)).collect()
            } else {
                let covered = &*covered;
                pool.map_shards(batch.len(), |i| recount(batch[i], covered))
            };
            for (n, g) in batch.into_iter().zip(fresh) {
                heap.push((g, Reverse(n)));
            }
        }
    }
    scratch.heap = heap.into_vec();
    (!stopped).then_some(result)
}

/// Reference implementation: full recount every iteration.
pub fn greedy_max_cover_naive(sets: &[Vec<NodeId>], k: u32) -> MaxCoverResult {
    let inverted = invert(sets);
    let mut covered = vec![false; sets.len()];
    let num_nodes = inverted.keys().copied().max().map(|m| m as usize + 1).unwrap_or(0);
    let mut picked = vec![false; num_nodes];
    let mut result = MaxCoverResult { seeds: Vec::new(), marginal_gains: Vec::new(), covered: 0 };

    while (result.seeds.len() as u32) < k {
        let mut best: Option<(u64, NodeId)> = None;
        for (&node, list) in &inverted {
            if picked[node as usize] {
                continue;
            }
            let gain = list.iter().filter(|&&s| !covered[s as usize]).count() as u64;
            let better = match best {
                None => true,
                Some((bg, bn)) => gain > bg || (gain == bg && node < bn),
            };
            if better {
                best = Some((gain, node));
            }
        }
        match best {
            Some((gain, node)) if gain > 0 => {
                result.seeds.push(node);
                result.marginal_gains.push(gain);
                result.covered += gain;
                picked[node as usize] = true;
                for &s in &inverted[&node] {
                    covered[s as usize] = true;
                }
            }
            _ => break,
        }
    }
    result
}

/// Node → sorted list of set indices containing it. RR sets are sorted, so
/// duplicate members are adjacent; each set index is recorded once per node.
///
/// This is the Vec-of-Vec/HashMap *oracle* the flat
/// [`InvertedIndex`] is property-tested against; the hot paths never
/// call it.
pub fn invert(sets: &[Vec<NodeId>]) -> HashMap<NodeId, Vec<u32>> {
    let mut inverted: HashMap<NodeId, Vec<u32>> = HashMap::new();
    for (i, set) in sets.iter().enumerate() {
        for &node in set {
            let list = inverted.entry(node).or_default();
            if list.last() != Some(&(i as u32)) {
                list.push(i as u32);
            }
        }
    }
    inverted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sets(raw: &[&[u32]]) -> Vec<Vec<NodeId>> {
        raw.iter().map(|s| s.to_vec()).collect()
    }

    #[test]
    fn single_best_node() {
        let s = sets(&[&[1, 2], &[1], &[1, 3], &[4]]);
        let r = greedy_max_cover(&s, 1);
        assert_eq!(r.seeds, vec![1]);
        assert_eq!(r.covered, 3);
    }

    #[test]
    fn parallel_recount_matches_sequential() {
        // Random-ish overlapping instances force plenty of stale heap
        // entries, exercising the batch-refresh path; every thread count
        // must agree with the sequential oracle bit-for-bit.
        let mut state = 9u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        // The dense final instance (per-node lists of several thousand
        // set ids) pushes batch refreshes past PARALLEL_REFRESH_MIN_WORK
        // so the pooled branch runs too.
        for (trial, &(num_sets, universe)) in
            [(300, 60), (400, 60), (600, 60), (800, 60), (60_000, 40)].iter().enumerate()
        {
            let instance: Vec<Vec<NodeId>> = (0..num_sets)
                .map(|_| {
                    let len = 1 + (next() % 7) as usize;
                    let mut set: Vec<u32> = (0..len).map(|_| next() % universe).collect();
                    set.sort_unstable();
                    set.dedup();
                    set
                })
                .collect();
            let sequential = greedy_max_cover(&instance, 25);
            assert_eq!(sequential, greedy_max_cover_naive(&instance, 25), "trial {trial}");
            for threads in [2usize, 4, 8] {
                let parallel = greedy_max_cover_with(&instance, 25, &ExecPool::new(Some(threads)));
                assert_eq!(sequential, parallel, "trial {trial} threads {threads}");
            }
        }
    }

    #[test]
    fn paper_example_2() {
        // Example 2: four RR sets {b,d,f}, {e}, {d,f}, {a,b,e} with nodes
        // mapped a=0..g=6. The paper's greedy selects {e, f}, covering all
        // four sets. Greedy is tie-break dependent here (b, d, e, f all
        // start with gain 2): our deterministic rule (smallest id on ties)
        // picks b = 1 covering {0, 3}, then d = 3 covering {2} — an equally
        // valid greedy execution. The assertions pin our determinism.
        let s = sets(&[&[1, 3, 5], &[4], &[3, 5], &[0, 1, 4]]);
        let r = greedy_max_cover(&s, 2);
        assert_eq!(r.seeds, vec![1, 3]);
        assert_eq!(r.covered, 3);
        assert_eq!(r, greedy_max_cover_naive(&s, 2));
        // The paper's choice indeed covers 4; verify it is at least as good
        // as ours only because of the tie-break, not an algorithmic bug:
        // both selections are maximal gain at each step.
        assert_eq!(r.marginal_gains[0], 2);
    }

    #[test]
    fn lazy_equals_naive_on_fixed_cases() {
        let cases = [
            sets(&[&[0, 1], &[1, 2], &[2, 0], &[3]]),
            sets(&[&[5], &[5], &[5], &[1, 2], &[2]]),
            sets(&[&[], &[7, 8], &[8], &[7]]),
            sets(&[]),
        ];
        for s in &cases {
            for k in 0..5 {
                assert_eq!(greedy_max_cover(s, k), greedy_max_cover_naive(s, k), "k={k} s={s:?}");
            }
        }
    }

    #[test]
    fn stops_at_zero_gain() {
        let s = sets(&[&[1], &[1]]);
        let r = greedy_max_cover(&s, 5);
        assert_eq!(r.seeds, vec![1]);
        assert_eq!(r.covered, 2);
        assert_eq!(r.marginal_gains, vec![2]);
    }

    #[test]
    fn gains_non_increasing() {
        let s = sets(&[&[0, 1], &[0], &[0], &[1], &[2], &[3, 2]]);
        let r = greedy_max_cover(&s, 4);
        assert!(r.marginal_gains.windows(2).all(|w| w[0] >= w[1]), "{:?}", r.marginal_gains);
        assert_eq!(r.covered, r.marginal_gains.iter().sum::<u64>());
    }

    #[test]
    fn empty_sets_and_zero_k() {
        assert_eq!(greedy_max_cover(&[], 3).seeds, Vec::<NodeId>::new());
        let s = sets(&[&[1]]);
        assert_eq!(greedy_max_cover(&s, 0).seeds, Vec::<NodeId>::new());
    }

    #[test]
    fn stop_hook_aborts_without_partial_results() {
        let s = sets(&[&[1, 2], &[1], &[1, 3], &[4]]);
        let inverted = InvertedIndex::from_sets(&s);
        let pool = ExecPool::sequential();
        let until = |stop: &(dyn Fn() -> bool + Sync)| {
            greedy_max_cover_over(&inverted, 4, 3, &pool, stop, &mut CoverScratch::default())
        };
        // An immediately-firing stop aborts before any seed.
        assert!(until(&|| true).is_none());
        // A stop that fires after the first round aborts mid-run.
        let polls = std::sync::atomic::AtomicU32::new(0);
        let late = until(&|| polls.fetch_add(1, std::sync::atomic::Ordering::Relaxed) >= 1);
        assert!(late.is_none());
        // A never-firing stop is exactly the plain run.
        let done = until(&|| false).unwrap();
        assert_eq!(done, greedy_max_cover_inverted_with(&inverted, 4, 3, &pool));
    }

    /// The loop this module ran before candidates were tiered: every
    /// node with a set in the heap from the start, sequential refresh.
    fn all_nodes_heap(inverted: &InvertedIndex, num_sets: u64, k: u32) -> MaxCoverResult {
        let mut covered = Bitset::new(num_sets as usize);
        let mut heap: BinaryHeap<(u64, Reverse<NodeId>)> = inverted
            .present()
            .iter()
            .map(|&node| (inverted.list(node).len() as u64, Reverse(node)))
            .collect();
        let mut result =
            MaxCoverResult { seeds: Vec::new(), marginal_gains: Vec::new(), covered: 0 };
        while (result.seeds.len() as u32) < k {
            let Some((stale, Reverse(node))) = heap.pop() else { break };
            if stale == 0 {
                break;
            }
            let list = inverted.list(node);
            let gain = list.iter().filter(|&&s| !covered.get(s as usize)).count() as u64;
            if gain == stale {
                result.seeds.push(node);
                result.marginal_gains.push(gain);
                result.covered += gain;
                list.iter().for_each(|&s| covered.set(s as usize));
            } else {
                heap.push((gain, Reverse(node)));
            }
        }
        result
    }

    /// Tiers gathered after the first while `run` ran on this thread.
    fn tier_extensions_during<T>(run: impl FnOnce() -> T) -> (T, u64) {
        let before = TIER_EXTENSIONS.with(|n| n.get());
        let out = run();
        (out, TIER_EXTENSIONS.with(|n| n.get()) - before)
    }

    /// Naive ≡ all-nodes heap ≡ tiered CELF at `tier_nodes`, for every
    /// thread count; returns how many tiers the sequential run added.
    fn assert_tiered_equivalent(instance: &[Vec<NodeId>], k: u32, tier_nodes: u32) -> u64 {
        let naive = greedy_max_cover_naive(instance, k);
        let inverted = InvertedIndex::from_sets(instance);
        let num_sets = instance.len() as u64;
        assert_eq!(all_nodes_heap(&inverted, num_sets, k), naive, "all-nodes heap, k={k}");
        let mut scratch = CoverScratch::default();
        let mut extensions = 0;
        for threads in [1usize, 2, 4, 8] {
            let pool = ExecPool::new(Some(threads));
            // The same scratch every time: leftovers must not matter.
            let (tiered, added) = tier_extensions_during(|| {
                celf(&inverted, num_sets, k, &pool, &|| false, &mut scratch, tier_nodes).unwrap()
            });
            assert_eq!(tiered, naive, "k={k} tier_nodes={tier_nodes} threads={threads}");
            if threads == 1 {
                extensions = added;
            }
        }
        extensions
    }

    /// `owners[i]` lists the nodes of set `i`.
    fn instance_of(
        num_sets: usize,
        memberships: impl Iterator<Item = (NodeId, usize)>,
    ) -> Vec<Vec<NodeId>> {
        let mut sets = vec![Vec::new(); num_sets];
        for (node, set) in memberships {
            sets[set].push(node);
        }
        sets
    }

    #[test]
    fn shadowed_top_tier_falls_through_to_the_next() {
        // 1100 nodes all covering the same ten sets fill the first tier
        // (one bucket, larger than TIER_NODES); after the first pick the
        // rest are worth nothing, and seeds two onwards come from the
        // 2000 nodes below, which only a tier extension brings in.
        let top = (0..1100u32).flat_map(|node| (0..10).map(move |set| (node, set)));
        let low = (0..2000u32).flat_map(|i| {
            (0..1 + i as usize % 5).map(move |j| (5000 + i, 10 + i as usize * 5 + j))
        });
        let instance = instance_of(10 + 2000 * 5, top.chain(low));
        assert!(assert_tiered_equivalent(&instance, 20, TIER_NODES) >= 1);
        let r = greedy_max_cover(&instance, 3);
        assert_eq!(r.seeds, vec![0, 5004, 5009]);
        assert_eq!(r.marginal_gains, vec![10, 5, 5]);
    }

    #[test]
    fn k_larger_than_the_first_tier_extends() {
        // 3000 nodes on disjoint sets, gains 1..=6 in equal parts: the
        // first tier is gains 6 and 5 (1000 nodes), k = 1500 needs more.
        let memberships = (0..3000u32)
            .flat_map(|i| (0..1 + i as usize % 6).map(move |j| (i, i as usize * 6 + j)));
        let instance = instance_of(3000 * 6, memberships);
        assert!(assert_tiered_equivalent(&instance, 1500, TIER_NODES) >= 1);
    }

    #[test]
    fn all_bounds_equal_is_one_tier() {
        let instance: Vec<Vec<NodeId>> = (0..3000u32).map(|node| vec![node]).collect();
        assert_eq!(assert_tiered_equivalent(&instance, 5, TIER_NODES), 0);
        assert_eq!(greedy_max_cover(&instance, 5).seeds, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn gains_past_the_last_bucket_share_it() {
        // Gains 254, 255, 256, 300 and 1000 — the last four share the
        // top bucket — over a floor of single-set nodes; node 4's sets
        // are node 3's, so its stale key of 300 drops to 0.
        let sizes = [254usize, 255, 256, 1000];
        let mut memberships: Vec<(NodeId, usize)> = Vec::new();
        let mut next_set = 0;
        for (node, &size) in sizes.iter().enumerate() {
            memberships.extend((next_set..next_set + size).map(|set| (node as NodeId, set)));
            next_set += size;
        }
        memberships.extend((next_set - 300..next_set).map(|set| (4, set)));
        memberships.extend((0..2500u32).map(|i| (10 + i, next_set + i as usize)));
        let instance = instance_of(next_set + 2500, memberships.into_iter());
        assert!(assert_tiered_equivalent(&instance, 8, TIER_NODES) >= 1);
        assert_eq!(greedy_max_cover(&instance, 5).seeds, vec![3, 2, 1, 0, 10]);
    }

    #[test]
    fn empty_instance_and_zero_k_gather_nothing() {
        assert_eq!(assert_tiered_equivalent(&[], 3, TIER_NODES), 0);
        assert_eq!(assert_tiered_equivalent(&[vec![], vec![]], 3, TIER_NODES), 0);
        assert_eq!(assert_tiered_equivalent(&sets(&[&[1, 2], &[2]]), 0, TIER_NODES), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 64, ..Default::default() })]

        /// Random overlapping instances, with tiers small enough that a
        /// run crosses several of them.
        #[test]
        fn tiered_celf_matches_naive_and_the_all_nodes_heap(
            raw in proptest::collection::vec(proptest::collection::vec(0u32..120, 0..9), 0..160),
            k in 0u32..40,
            tier_nodes in 1u32..24,
        ) {
            assert_tiered_equivalent(&raw, k, tier_nodes);
        }

        /// `k` only bounds the loop: the run at `k₁` is the `k₁`-prefix
        /// of the run at any deeper `k₂` — seeds, gains, and `covered`
        /// as the prefix's running sum — whether or not the instance
        /// exhausts (gain 0) before `k₁`, across tier sizes. What lets a
        /// server keep a keyword set's deepest run and slice it.
        #[test]
        fn a_shallower_run_is_a_prefix_of_a_deeper_one(
            raw in proptest::collection::vec(proptest::collection::vec(0u32..40, 0..6), 0..60),
            k1 in 0u32..30,
            deeper in 1u32..30,
            tier_nodes in 1u32..24,
        ) {
            let inverted = InvertedIndex::from_sets(&raw);
            let pool = ExecPool::sequential();
            let mut scratch = CoverScratch::default();
            let mut run = |k| {
                let sets = raw.len() as u64;
                celf(&inverted, sets, k, &pool, &|| false, &mut scratch, tier_nodes).unwrap()
            };
            let (shallow, deep) = (run(k1), run(k1 + deeper));
            let n = shallow.seeds.len();
            proptest::prop_assert!(n <= deep.seeds.len());
            proptest::prop_assert_eq!(&shallow.seeds[..], &deep.seeds[..n]);
            proptest::prop_assert_eq!(&shallow.marginal_gains[..], &deep.marginal_gains[..n]);
            proptest::prop_assert_eq!(shallow.covered, deep.marginal_gains[..n].iter().sum::<u64>());
            // Stopping short of `k₁` means exhausted: no deeper run adds a seed.
            if n < k1 as usize {
                proptest::prop_assert_eq!(&shallow, &deep);
            }
        }
    }

    #[test]
    fn small_tiers_do_get_crossed() {
        // The proptest's shape, pinned: distinct gains, k past the top.
        let instance: Vec<Vec<NodeId>> = (0..60u32).map(|set| (set / 3..20).collect()).collect();
        assert!(assert_tiered_equivalent(&instance, 15, 4) >= 2);
    }

    #[test]
    fn tie_break_prefers_smaller_id() {
        // Nodes 4 and 2 both cover two sets; 2 must win.
        let s = sets(&[&[4, 2], &[4, 2], &[9]]);
        let r = greedy_max_cover(&s, 1);
        assert_eq!(r.seeds, vec![2]);
        assert_eq!(greedy_max_cover_naive(&s, 1).seeds, vec![2]);
    }

    #[test]
    fn duplicate_members_within_set_count_once() {
        // A set listing a node twice must not double its gain.
        let s = vec![vec![1u32, 1, 2], vec![3]];
        let r = greedy_max_cover(&s, 1);
        // Node 1's gain is the number of *sets* covered: 1.
        assert_eq!(r.marginal_gains[0], 1);
    }
}
