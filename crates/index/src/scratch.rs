//! Reusable per-query scratch state, pooled per index.
//!
//! The serving tier's steady state answers the same shapes of query over
//! and over; before this pool every query re-allocated its byte staging
//! buffers, per-keyword CSR arenas, the per-user gains, and the covered
//! bitset. `ScratchPool` keeps those allocations alive between queries
//! so a warmed index allocates ~nothing per query.
//!
//! Why a lock-based pool and not `thread_local!`: scratch must flow
//! across threads. [`kbtim_exec::ExecPool`] workers (persistent or
//! scoped) pick up whichever shard comes next, and a served index takes
//! queries from many client threads at once — a thread-local would pin
//! each warmed buffer to one thread and leak one copy per client. The
//! pool instead hands each worker a `ScratchGuard` (one mutex pop), the
//! worker fills it, and the guard's drop pushes the block back for the
//! next query — on any thread. Concurrent queries simply lease distinct
//! blocks; the pool grows to the high-water concurrency and then stops
//! allocating. Contention is one short lock op per shard batch, noise
//! next to a block decode.
//!
//! Determinism: scratch contents never influence results — every buffer
//! is cleared or fully overwritten before use, which the serving
//! equivalence proptests (same seeds for every backend × thread count)
//! exercise end to end.

use crate::format::{IlCsr, PartitionSpan};
use kbtim_core::bitset::Bitset;
use kbtim_core::maxcover::CoverScratch;
use kbtim_graph::NodeId;
use kbtim_topics::TopicId;
use std::sync::{Arc, Mutex};

/// One keyword's decoded `L_w`: a CSR per shard, in shard order (users
/// ascend across them), shared read-only. Whoever holds a clone keeps
/// the lists alive — a [`KeywordArena`] for the requests of a window,
/// the engine's cache for as long as the segment they were decoded from
/// is the one being served, a delta snapshot for a dirty keyword's
/// overlay.
pub(crate) type KeywordLists = Arc<[IlCsr]>;

/// Trim freshly decoded lists to their contents — a pooled CSR keeps
/// the capacity of the largest block it ever held. Possible only while
/// nobody else shares them; shared lists are left as they are.
pub(crate) fn trim(lists: &mut KeywordLists) {
    if let Some(csrs) = Arc::get_mut(lists) {
        csrs.iter_mut().for_each(IlCsr::shrink_to_fit);
    }
}

/// Heap bytes a keyword's lists keep resident (by capacity).
pub(crate) fn resident_bytes(lists: &[IlCsr]) -> u64 {
    lists.iter().map(IlCsr::capacity_bytes).sum()
}

/// The keyword lists a window of requests reads: each distinct keyword
/// **once**, consumed by any number of requests.
///
/// An arena is a set of *leases*. [`crate::KbtimIndex::decode_keywords`]
/// fills one with the lists it decoded — the full inverted list of
/// every keyword wanted, as the CSRs its shards decoded into — and a
/// caller that already holds a keyword's lists (the engine's
/// decoded-keyword cache, a delta snapshot's overlay) files a clone of
/// its `Arc` beside them, so a keyword is decoded at most once per
/// index generation, not once per window. Consumers (the in-place
/// count of every request; [`crate::KbtimIndex::merge_keywords`] is the
/// same consumer under the name the benchmark package links, holding
/// its own clone of each `Arc`) cut the shared CSRs against their own
/// Eqn-11 budgets — read-only, so any number of requests, in any
/// number of windows, consume one decode without copies.
///
/// Invariants: keywords are strictly ascending; a keyword's CSRs are in
/// shard order and together hold its *complete* `L_w` (truncation is
/// per-request). Hand the arena back with
/// [`crate::KbtimIndex::recycle_keywords`] when the requests finish:
/// lists nobody else holds return their arenas to the scratch pool, a
/// shared one just loses this holder.
#[derive(Default)]
pub struct KeywordArena {
    /// Each keyword with its lists, strictly ascending by keyword.
    pub(crate) entries: Vec<(TopicId, KeywordLists)>,
}

impl KeywordArena {
    /// Number of distinct keywords held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the arena holds no keywords (a batch of empty-budget or
    /// cache-served requests).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// File `lists` — a keyword's whole `L_w` — under `topic`, wherever
    /// it sorts (replacing lists already held for it).
    pub(crate) fn insert(&mut self, topic: TopicId, lists: KeywordLists) {
        match self.entries.binary_search_by_key(&topic, |&(held, _)| held) {
            Ok(at) => self.entries[at].1 = lists,
            Err(at) => self.entries.insert(at, (topic, lists)),
        }
    }

    /// The lists of `topic`, if the arena holds it — what a holder
    /// that outlives the arena clones.
    pub(crate) fn lists_of(&self, topic: TopicId) -> Option<&KeywordLists> {
        let at = self.entries.binary_search_by_key(&topic, |&(held, _)| held).ok()?;
        Some(&self.entries[at].1)
    }

    /// The decoded CSRs of `topic` in shard order, if the arena holds it.
    pub(crate) fn csrs_of(&self, topic: TopicId) -> Option<&[IlCsr]> {
        self.lists_of(topic).map(|lists| &lists[..])
    }
}

/// One IRR query keyword's reusable NRA tables (the `KwState` backing
/// store): the `decode_ip` output, the user → slot table over it, the
/// partition catalog, the per-slot loaded-list spans and the shared
/// list arena.
#[derive(Default)]
pub(crate) struct KwBufs {
    /// `IP_w` keys: users with at least one occurrence, ascending.
    pub(crate) users: Vec<NodeId>,
    /// Dense inverse of `users`: `slot_of[v]` is `v`'s index in `users`
    /// (`u32::MAX` when `v` never occurs) — the one |V|-sized table.
    pub(crate) slot_of: Vec<u32>,
    /// First-occurrence ids, parallel to `users`.
    pub(crate) firsts: Vec<u32>,
    /// Partition catalog (the rows a query walks; see
    /// [`PartitionSpan`]).
    pub(crate) partitions: Vec<PartitionSpan>,
    /// Arena start of each slot's truncated list, parallel to `users`.
    pub(crate) list_start: Vec<u32>,
    /// Truncated list length per slot.
    pub(crate) list_len: Vec<u32>,
    /// Loaded inverted lists, back to back in load order.
    pub(crate) arena: Vec<u32>,
}

impl KwBufs {
    /// Empty the tables, keeping every capacity.
    pub(crate) fn clear(&mut self) {
        self.users.clear();
        self.slot_of.clear();
        self.firsts.clear();
        self.partitions.clear();
        self.list_start.clear();
        self.list_len.clear();
        self.arena.clear();
    }
}

/// One worker's reusable buffers. All fields are cleared by their users
/// before refilling; only capacities persist between queries.
#[derive(Default)]
pub struct QueryScratch {
    /// Byte staging for file-backend block/range reads (zero-copy
    /// backends never touch it).
    pub(crate) bytes: Vec<u8>,
    /// Inverted-list block decode target (one IRR partition at a time).
    pub(crate) il: IlCsr,
    /// Running below-the-share count over one CSR's id arena (the
    /// counting pass's temp, `n_ids + 1` long).
    pub(crate) prefix: Vec<u32>,
    /// Per-user initial gains of an in-place coverage instance (|V|).
    pub(crate) gains: Vec<u32>,
    /// Covered-RR-set bitset and candidate heap of a greedy run — the
    /// CELF loop's, or the IRR NRA loop's.
    pub(crate) cover: CoverScratch,
    /// RR sets seen in any loaded IRR partition — the distinct-id count
    /// behind `rr_sets_loaded`.
    pub(crate) seen: Bitset,
    /// Dense per-user selected flags (|V| bools).
    pub(crate) selected: Vec<bool>,
    /// Per-keyword NRA tables, one entry per query keyword (grown to the
    /// widest query seen).
    pub(crate) kw_bufs: Vec<KwBufs>,
    /// Fresh-candidate staging of the IRR partition loader.
    pub(crate) nra_fresh: Vec<NodeId>,
}

/// Shared pool of [`QueryScratch`] blocks plus recycled keyword CSRs.
/// One per opened index.
#[derive(Default)]
pub(crate) struct ScratchPool {
    scratch: Mutex<Vec<QueryScratch>>,
    /// Spare per-keyword CSRs (what a keyword × shard's `il` block
    /// decodes into).
    csrs: Mutex<Vec<IlCsr>>,
}

impl ScratchPool {
    pub(crate) fn new() -> ScratchPool {
        ScratchPool::default()
    }

    /// Borrow a scratch block; returned to the pool when the guard
    /// drops.
    pub(crate) fn guard(&self) -> ScratchGuard<'_> {
        let block = self
            .scratch
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop()
            .unwrap_or_default();
        ScratchGuard { pool: self, block: Some(block) }
    }

    /// Take a spare per-keyword CSR (empty, capacity preserved).
    pub(crate) fn take_csr(&self) -> IlCsr {
        self.csrs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop()
            .unwrap_or_default()
    }

    /// Return a per-keyword CSR for reuse.
    pub(crate) fn put_csr(&self, mut csr: IlCsr) {
        csr.reset();
        self.csrs.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(csr);
    }

    /// The id-arena capacity of every spare CSR — how tests check that
    /// no decode path grows a pooled CSR past the block it decoded.
    #[cfg(test)]
    pub(crate) fn spare_csr_capacities(&self) -> Vec<usize> {
        let csrs = self.csrs.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        csrs.iter().map(|csr| csr.ids.capacity()).collect()
    }
}

/// RAII loan of a [`QueryScratch`]; derefs to the block and returns it
/// to the owning pool on drop.
pub(crate) struct ScratchGuard<'a> {
    pool: &'a ScratchPool,
    block: Option<QueryScratch>,
}

impl std::ops::Deref for ScratchGuard<'_> {
    type Target = QueryScratch;

    fn deref(&self) -> &QueryScratch {
        self.block.as_ref().expect("scratch present until drop")
    }
}

impl std::ops::DerefMut for ScratchGuard<'_> {
    fn deref_mut(&mut self) -> &mut QueryScratch {
        self.block.as_mut().expect("scratch present until drop")
    }
}

impl Drop for ScratchGuard<'_> {
    fn drop(&mut self) {
        let block = self.block.take().expect("scratch present until drop");
        self.pool.scratch.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_returns_block_to_pool() {
        let pool = ScratchPool::new();
        {
            let mut g = pool.guard();
            g.bytes.resize(1024, 0);
        }
        // The same (warm) block comes back.
        let g = pool.guard();
        assert!(g.bytes.capacity() >= 1024, "capacity must survive the round trip");
        assert_eq!(pool.scratch.lock().unwrap().len(), 0, "block is out on loan");
    }

    #[test]
    fn concurrent_guards_get_distinct_blocks() {
        let pool = ScratchPool::new();
        let a = pool.guard();
        let b = pool.guard();
        drop(a);
        drop(b);
        assert_eq!(pool.scratch.lock().unwrap().len(), 2);
    }

    #[test]
    fn csr_round_trip_is_reset() {
        let pool = ScratchPool::new();
        let mut csr = pool.take_csr();
        csr.ids.extend([1, 2, 3]);
        csr.close_list(7);
        pool.put_csr(csr);
        let csr = pool.take_csr();
        assert!(csr.is_empty());
        assert_eq!(csr.offsets, vec![0], "reset to the empty-CSR invariant");
    }

    #[test]
    fn arena_keeps_keywords_ascending_whatever_the_insert_order() {
        let lists = |user: u32| -> KeywordLists {
            let mut csr = IlCsr::default();
            csr.ids.push(7);
            csr.close_list(user);
            Arc::new([csr])
        };
        let mut arena = KeywordArena::default();
        for topic in [5, 1, 9, 3] {
            arena.insert(topic, lists(topic));
        }
        let topics: Vec<TopicId> = arena.entries.iter().map(|&(topic, _)| topic).collect();
        assert_eq!(topics, [1, 3, 5, 9]);
        for topic in [1, 3, 5, 9] {
            assert_eq!(arena.csrs_of(topic).unwrap()[0].users, [topic]);
        }
        assert!(arena.csrs_of(4).is_none());
        // A second insert under a held keyword replaces its lists.
        arena.insert(3, lists(30));
        assert_eq!((arena.len(), &arena.csrs_of(3).unwrap()[0].users[..]), (4, &[30][..]));
    }

    #[test]
    fn trim_leaves_unshared_lists_exactly_sized() {
        let mut csr = IlCsr::default();
        csr.ids.reserve(1000);
        csr.ids.extend([1, 2, 3]);
        csr.close_list(4);
        let exact = csr.arena_bytes();
        let mut lists: KeywordLists = Arc::new([csr]);
        assert!(resident_bytes(&lists) >= 4000);
        trim(&mut lists);
        assert_eq!(resident_bytes(&lists), exact);
        // Shared lists cannot be trimmed; their bytes are still theirs.
        let mut roomy = IlCsr::default();
        roomy.ids.reserve(1000);
        let mut lists: KeywordLists = Arc::new([roomy]);
        let _other_holder = Arc::clone(&lists);
        trim(&mut lists);
        assert!(resident_bytes(&lists) >= 4000);
    }

    #[test]
    fn kw_bufs_clear_empties_every_table_and_keeps_capacity() {
        let mut bufs = KwBufs::default();
        bufs.users.extend([1, 5, 9]);
        bufs.slot_of.extend([u32::MAX, 0, u32::MAX]);
        bufs.firsts.extend([0, 2, 7]);
        bufs.list_start.extend([0, 3]);
        bufs.list_len.extend([3, 2]);
        bufs.arena.extend([10, 11, 12, 20, 21]);
        bufs.partitions.push(PartitionSpan { il_start: 0, il_end: 8, max_len_after: 1 });
        let arena_cap = bufs.arena.capacity();
        bufs.clear();
        assert!(bufs.users.is_empty() && bufs.arena.is_empty() && bufs.list_start.is_empty());
        assert!(bufs.slot_of.is_empty());
        assert!(bufs.partitions.is_empty());
        assert_eq!(bufs.arena.capacity(), arena_cap, "clear must keep capacities");
    }
}
