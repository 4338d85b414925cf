//! Dense CSR inverted index: node → ids of the RR sets containing it.
//!
//! The greedy maximum-coverage step and the disk-index query paths both
//! consume an *inverted* view of an RR-set collection. A
//! `HashMap<NodeId, Vec<u32>>` pays a hash probe per lookup and one heap
//! allocation per node; [`InvertedIndex`] stores the same relation as a
//! flat counting-sort CSR — one `set_ids` arena, one dense `offsets`
//! table indexed by node id, and a `present` list of the nodes whose
//! lists are non-empty. Lookups are two loads and a slice, construction
//! is two linear passes, and the whole structure lives in three `Vec`s.
//!
//! Construction paths:
//!
//! * [`InvertedIndex::from_batch`] — counting sort over an [`RrBatch`]
//!   arena (sets already sorted and duplicate-free);
//! * [`InvertedIndex::from_sets`] — the Vec-of-Vec adapter used by the
//!   public `greedy_max_cover` API and the test oracles (tolerates
//!   duplicate members within a set, like the classic `invert`);
//! * [`InvertedIndexBuilder`] — the explicit two-pass (count, then
//!   fill) builder under both, for producers that stream per-node lists
//!   from several sources.
//!
//! A finished [`InvertedIndex`] is immutable and safe for **multiple
//! consumers**: all reads go through `&self`, so any number of greedy
//! runs — concurrent or sequential — can share one instance.

use kbtim_graph::NodeId;
use kbtim_propagation::RrBatch;

/// Immutable node → sorted-set-id map in CSR form.
///
/// Set ids in each per-node list appear in the order they were pushed;
/// every producer in this workspace pushes in ascending set-id order, so
/// lists are ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvertedIndex {
    /// `num_nodes + 1` boundaries into `set_ids`, indexed by node id.
    offsets: Vec<u32>,
    /// All per-node lists, back to back.
    set_ids: Vec<u32>,
    /// Nodes with non-empty lists, ascending.
    present: Vec<NodeId>,
}

impl InvertedIndex {
    /// Invert an [`RrBatch`] (counting sort over the arena).
    ///
    /// Batch sets must be duplicate-free (the samplers guarantee sorted,
    /// unique members), so no dedup pass is needed.
    pub fn from_batch(batch: &RrBatch) -> InvertedIndex {
        let num_nodes = batch.members().iter().copied().max().map(|m| m as usize + 1).unwrap_or(0);
        let mut builder = InvertedIndexBuilder::new(num_nodes as u32);
        for &node in batch.members() {
            builder.count(node, 1);
        }
        let mut filler = builder.fill();
        for (i, set) in batch.iter().enumerate() {
            for &node in set {
                filler.push(node, i as u32);
            }
        }
        filler.finish()
    }

    /// Invert a Vec-of-Vec collection (test-oracle adapter).
    ///
    /// Duplicate members *within* one set count once, matching
    /// [`crate::maxcover::invert`].
    pub fn from_sets(sets: &[Vec<NodeId>]) -> InvertedIndex {
        let num_nodes = sets.iter().flatten().copied().max().map(|m| m as usize + 1).unwrap_or(0);
        // `last_set[v] == i + 1` marks "v already counted for set i", so a
        // duplicate member contributes one entry no matter where in the
        // set it appears.
        let mut last_set = vec![0u32; num_nodes];
        let mut builder = InvertedIndexBuilder::new(num_nodes as u32);
        for (i, set) in sets.iter().enumerate() {
            for &node in set {
                if last_set[node as usize] != i as u32 + 1 {
                    last_set[node as usize] = i as u32 + 1;
                    builder.count(node, 1);
                }
            }
        }
        last_set.iter_mut().for_each(|s| *s = 0);
        let mut filler = builder.fill();
        for (i, set) in sets.iter().enumerate() {
            for &node in set {
                if last_set[node as usize] != i as u32 + 1 {
                    last_set[node as usize] = i as u32 + 1;
                    filler.push(node, i as u32);
                }
            }
        }
        filler.finish()
    }

    /// Size of the dense node-id space (`max node + 1` for the
    /// `from_*` constructors, the builder's `num_nodes` otherwise).
    pub fn num_nodes(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// The set-id list of `node` (empty for absent nodes).
    #[inline]
    pub fn list(&self, node: NodeId) -> &[u32] {
        let i = node as usize;
        &self.set_ids[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Nodes with non-empty lists, ascending.
    pub fn present(&self) -> &[NodeId] {
        &self.present
    }

    /// Total entries across all lists (the arena length).
    pub fn total_entries(&self) -> usize {
        self.set_ids.len()
    }
}

impl crate::maxcover::CoverInstance for InvertedIndex {
    fn candidates(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.present.iter().copied()
    }

    #[inline]
    fn initial_gain(&self, node: NodeId) -> u32 {
        self.offsets[node as usize + 1] - self.offsets[node as usize]
    }

    #[inline]
    fn for_each_run(&self, node: NodeId, mut visit: impl FnMut(&[u32], usize)) {
        visit(self.list(node), 0);
    }
}

/// Counting pass of the two-pass CSR build: declare how many set ids
/// each node will receive, then [`InvertedIndexBuilder::fill`].
pub struct InvertedIndexBuilder {
    counts: Vec<u32>,
}

impl InvertedIndexBuilder {
    /// Builder over the dense node-id space `0..num_nodes`.
    pub fn new(num_nodes: u32) -> InvertedIndexBuilder {
        InvertedIndexBuilder { counts: vec![0; num_nodes as usize] }
    }

    /// Announce `n` further entries for `node`.
    #[inline]
    pub fn count(&mut self, node: NodeId, n: u32) {
        self.counts[node as usize] += n;
    }

    /// Freeze the counts into CSR offsets and start the fill pass. The
    /// fill pass must push exactly the announced entries per node.
    pub fn fill(self) -> InvertedIndexFiller {
        let num_nodes = self.counts.len();
        let mut offsets = Vec::with_capacity(num_nodes + 1);
        offsets.push(0u32);
        let mut total = 0u64;
        for &c in &self.counts {
            total += c as u64;
            offsets.push(u32::try_from(total).expect("inverted arena exceeds u32 offsets"));
        }
        // The counts arena becomes the fill cursor in place.
        let mut cursor = self.counts;
        cursor.copy_from_slice(&offsets[..num_nodes]);
        InvertedIndexFiller { offsets, cursor, set_ids: vec![0; total as usize] }
    }
}

/// Fill pass of the two-pass CSR build (see [`InvertedIndexBuilder`]).
pub struct InvertedIndexFiller {
    offsets: Vec<u32>,
    cursor: Vec<u32>,
    set_ids: Vec<u32>,
}

impl InvertedIndexFiller {
    /// Append `id` to `node`'s list.
    #[inline]
    pub fn push(&mut self, node: NodeId, id: u32) {
        let c = &mut self.cursor[node as usize];
        self.set_ids[*c as usize] = id;
        *c += 1;
    }

    /// Finish the build. Panics (debug) if any node received fewer
    /// entries than announced.
    pub fn finish(self) -> InvertedIndex {
        debug_assert!(
            self.cursor.iter().enumerate().all(|(i, &c)| c == self.offsets[i + 1]),
            "fill pass did not match the counting pass"
        );
        let InvertedIndexFiller { offsets, cursor, set_ids } = self;
        // The spent cursor arena is reborn as the present list,
        // compacted in place (the write index never passes the node
        // being looked at) and without a branch: about half the nodes
        // are present, in no predictable pattern.
        let mut present = cursor;
        let mut kept = 0usize;
        for (v, bounds) in offsets.windows(2).enumerate() {
            present[kept] = v as u32;
            kept += usize::from(bounds[1] > bounds[0]);
        }
        present.truncate(kept);
        InvertedIndex { offsets, set_ids, present }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxcover::invert;

    fn oracle_equal(sets: &[Vec<NodeId>], inv: &InvertedIndex) {
        let oracle = invert(sets);
        assert_eq!(inv.present().len(), oracle.len(), "present-node count");
        for &node in inv.present() {
            assert_eq!(
                inv.list(node),
                oracle.get(&node).map(Vec::as_slice).unwrap_or(&[]),
                "node {node}"
            );
        }
        // Absent nodes decode to empty lists.
        for v in 0..inv.num_nodes() {
            if !inv.present().contains(&v) {
                assert!(inv.list(v).is_empty());
            }
        }
    }

    #[test]
    fn from_sets_matches_oracle() {
        let sets: Vec<Vec<NodeId>> = vec![
            vec![1, 3, 5],
            vec![],
            vec![3],
            vec![0, 1, 2, 3, 4, 5],
            vec![5, 5, 7], // duplicate member counts once
        ];
        let inv = InvertedIndex::from_sets(&sets);
        oracle_equal(&sets, &inv);
        assert_eq!(inv.list(5), &[0, 3, 4]);
        assert_eq!(inv.num_nodes(), 8);
    }

    #[test]
    fn from_batch_matches_from_sets_on_sorted_unique_input() {
        let sets: Vec<Vec<NodeId>> =
            vec![vec![2, 4, 9], vec![0], vec![], vec![4, 8], vec![1, 2, 3]];
        let batch = RrBatch::from_sets(&sets);
        assert_eq!(InvertedIndex::from_batch(&batch), InvertedIndex::from_sets(&sets));
    }

    #[test]
    fn random_instances_match_oracle() {
        let mut state = 3u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for trial in 0..20 {
            let num_sets = 1 + (next() % 200) as usize;
            let universe = 1 + next() % 100;
            let sets: Vec<Vec<NodeId>> = (0..num_sets)
                .map(|_| {
                    let len = (next() % 9) as usize;
                    let mut set: Vec<u32> = (0..len).map(|_| next() % universe).collect();
                    set.sort_unstable();
                    set.dedup();
                    set
                })
                .collect();
            let inv = InvertedIndex::from_sets(&sets);
            oracle_equal(&sets, &inv);
            assert_eq!(inv, InvertedIndex::from_batch(&RrBatch::from_sets(&sets)), "trial {trial}");
        }
    }

    #[test]
    fn empty_input() {
        let inv = InvertedIndex::from_sets(&[]);
        assert_eq!(inv.num_nodes(), 0);
        assert!(inv.present().is_empty());
        assert_eq!(inv.total_entries(), 0);
        let inv = InvertedIndex::from_batch(&RrBatch::new());
        assert_eq!(inv.num_nodes(), 0);
    }

    #[test]
    fn bitset_reset_reuses_words() {
        use crate::bitset::Bitset;
        let mut bits = Bitset::new(100);
        bits.set(5);
        bits.set(99);
        bits.reset(64);
        assert_eq!(bits.len(), 64);
        assert_eq!(bits.count_ones(), 0);
        bits.set(63);
        bits.reset(200);
        assert_eq!(bits.len(), 200);
        assert_eq!(bits.count_ones(), 0);
    }

    #[test]
    fn builder_streams_multiple_sources() {
        // Two sources contributing to overlapping nodes, pushed in
        // source order.
        let mut b = InvertedIndexBuilder::new(4);
        b.count(1, 2);
        b.count(3, 1);
        b.count(1, 1);
        let mut f = b.fill();
        f.push(1, 0);
        f.push(1, 2);
        f.push(3, 1);
        f.push(1, 5);
        let inv = f.finish();
        assert_eq!(inv.list(1), &[0, 2, 5]);
        assert_eq!(inv.list(3), &[1]);
        assert_eq!(inv.present(), &[1, 3]);
    }
}
