//! On-disk layout of a KB-TIM index directory.
//!
//! ```text
//! <dir>/index.meta        catalog segment, one "meta" block
//! <dir>/kw_<topic>.seg    one segment per keyword with θ_w > 0
//! ```
//!
//! A **sharded** index (built with `shards > 1`) keeps the same global
//! catalog at `<dir>/index.meta` (byte-identical to the S = 1 build, so
//! Eqn-11 budgets and the cost model never depend on S) and moves the
//! keyword segments into per-shard subdirectories:
//!
//! ```text
//! <dir>/index.meta             global catalog (identical to S = 1)
//! <dir>/shards.manifest        universe split + per-shard fingerprints
//! <dir>/shard-<i>/index.meta   per-shard catalog (standalone-openable)
//! <dir>/shard-<i>/kw_<t>.seg   keyword segments restricted to the shard
//! ```
//!
//! Shard `i` owns the contiguous user range `[cuts[i], cuts[i + 1])`; its
//! keyword segments store each global RR set restricted to members in
//! that range (same set ids, possibly empty) and the inverted lists of
//! in-range users only. Because every user is a witness of its own RR
//! sets, an in-range user's rr-id list is *unchanged* from the global
//! build — concatenating shard inverted lists in shard order reproduces
//! the S = 1 block exactly, which is what makes sharded serving
//! bit-identical to the monolithic index.
//!
//! Keyword segment blocks (integer lists use the catalog's [`Codec`];
//! framing integers are LEB128 varints):
//!
//! | block    | contents                                                  |
//! |----------|-----------------------------------------------------------|
//! | `rr`     | `R_w`: θ_w RR sets, each a codec-encoded sorted node list |
//! | `rr_off` | θ_w + 1 little-endian `u64` byte offsets into `rr`        |
//! | `il`     | `L_w` as one columnar inverted-list block (below)         |
//! | `ip`     | IRR `IP_w`: count, codec users, then varint first-ids     |
//! | `pmeta`  | IRR partition table (byte ranges, counts, kb bounds)      |
//! | `ilp`    | IRR `IL^p_w` partitions back to back, one block each      |
//! | `irp`    | IRR `IR^p_w` partitions: per set varint id + codec members|
//!
//! An inverted-list block holds its lists as two block-wide streams
//! ([`Codec::encode_stream`]: 128-value bit-packed frames + varint tail
//! for `Packed`, little-endian `u32`s for `Raw`), users ascending:
//!
//! ```text
//! varint n_lists, varint n_ids
//! stream of n_lists   user[0], then user[i] − user[i−1]
//! stream of n_ids     every list's ids back to back: (id << 1) | 1 for
//!                     the first id of a list, (id − previous) << 1 after
//! ```
//!
//! Lists average two or three ids, so only block-wide streams fill
//! frames (and reach the SIMD unpack); the tag bit is why rr ids stay
//! below [`MAX_RR_SETS`]. `ilp` files users under partitions by (list
//! length desc, user asc) in chunks of δ and writes each chunk in user
//! order, so one encoder and one decoder serve both blocks.
//!
//! Queries read `il` (Algorithm 2) or `ip` + `pmeta` + `ilp` ranges
//! (Algorithm 4): RR-set ids are ordinals, so a keyword's `θ^Q_w` prefix
//! is exactly the ids `< θ^Q_w` in its inverted lists. The RR-set
//! payloads — `rr`, `rr_off`, `irp` — are written by the build and read
//! back by `validate` and the paper-table experiments only.
//!
//! Every structure here is a pure byte transform with a round-trip test;
//! the I/O lives in `kbtim-storage`.

use crate::IndexError;
use kbtim_codec::simd::SimdLevel;
use kbtim_codec::{varint, Codec};
use kbtim_graph::NodeId;
use kbtim_topics::TopicId;

/// Catalog file name inside the index directory.
pub const META_FILE: &str = "index.meta";
/// Catalog block name.
pub const META_BLOCK: &str = "meta";
/// RR-set data block.
pub const RR_BLOCK: &str = "rr";
/// RR-set offset table block.
pub const RR_OFF_BLOCK: &str = "rr_off";
/// Inverted-list block.
pub const IL_BLOCK: &str = "il";
/// IRR first-occurrence block.
pub const IP_BLOCK: &str = "ip";
/// IRR partition-table block.
pub const PMETA_BLOCK: &str = "pmeta";
/// IRR sorted/partitioned inverted lists.
pub const ILP_BLOCK: &str = "ilp";
/// IRR partitioned RR sets.
pub const IRP_BLOCK: &str = "irp";

/// Segment file name for a keyword.
pub fn keyword_file_name(topic: TopicId) -> String {
    format!("kw_{topic:05}.seg")
}

/// Shard-manifest file name inside a sharded index directory. Its
/// presence is the discriminator between the legacy flat layout (S = 1)
/// and the sharded layout on open.
pub const SHARD_MANIFEST_FILE: &str = "shards.manifest";
/// Shard-manifest block name.
pub const SHARD_MANIFEST_BLOCK: &str = "shards";

/// Subdirectory name for one shard of a sharded index.
pub fn shard_dir_name(shard: usize) -> String {
    format!("shard-{shard}")
}

/// The contiguous user-range boundaries for `shards` shards over
/// `num_users` users: `cuts[i] = ⌊num_users · i / shards⌋`, so shard `i`
/// owns `[cuts[i], cuts[i + 1])`. Always `shards + 1` entries, first 0,
/// last `num_users`; ranges may be empty when `shards > num_users`.
pub fn shard_cuts(num_users: u32, shards: usize) -> Vec<u32> {
    assert!(shards > 0, "an index has at least one shard");
    (0..=shards).map(|i| (num_users as u64 * i as u64 / shards as u64) as u32).collect()
}

/// The `shards.manifest` payload: the universe split and one build
/// fingerprint per shard, so a reflushed/replaced shard is detectable
/// without re-reading every segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// `|V|` the split partitions; must match the global catalog.
    pub num_users: u32,
    /// `num_shards + 1` range boundaries (see [`shard_cuts`]).
    pub cuts: Vec<u32>,
    /// One FNV-1a fingerprint per shard over its (topic, segment bytes)
    /// pairs, stamped at build time.
    pub fingerprints: Vec<u64>,
}

impl ShardManifest {
    /// Number of shards the manifest describes.
    pub fn num_shards(&self) -> usize {
        self.fingerprints.len()
    }

    /// Serialize the manifest.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        varint::write_u32(self.num_users, &mut out);
        varint::write_u32(self.cuts.len() as u32, &mut out);
        for &cut in &self.cuts {
            varint::write_u32(cut, &mut out);
        }
        varint::write_u32(self.fingerprints.len() as u32, &mut out);
        for &fp in &self.fingerprints {
            out.extend_from_slice(&fp.to_le_bytes());
        }
        out
    }

    /// Deserialize a manifest written by [`ShardManifest::encode`].
    pub fn decode(input: &[u8]) -> Result<ShardManifest, IndexError> {
        let mut cursor = Cursor::new(input);
        let num_users = cursor.u32()?;
        let cut_count = cursor.u32()? as usize;
        let mut cuts = Vec::with_capacity(cut_count);
        for _ in 0..cut_count {
            cuts.push(cursor.u32()?);
        }
        let fp_count = cursor.u32()? as usize;
        let mut fingerprints = Vec::with_capacity(fp_count);
        for _ in 0..fp_count {
            let bytes: [u8; 8] = cursor.bytes(8)?.try_into().expect("fixed length");
            fingerprints.push(u64::from_le_bytes(bytes));
        }
        cursor.expect_end()?;
        let manifest = ShardManifest { num_users, cuts, fingerprints };
        if manifest.cuts.len() != manifest.fingerprints.len() + 1
            || manifest.fingerprints.is_empty()
            || manifest.cuts.first() != Some(&0)
            || manifest.cuts.last() != Some(&manifest.num_users)
            || manifest.cuts.windows(2).any(|w| w[0] > w[1])
        {
            return Err(IndexError::Corrupt("shard manifest split is inconsistent".into()));
        }
        Ok(manifest)
    }
}

/// Whether the index carries IRR partition blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexVariant {
    /// Plain RR index (§4): `rr`, `rr_off`, `il` only.
    Rr,
    /// IRR index (§5) with the given partition size δ; supports both query
    /// algorithms.
    Irr {
        /// Users per `IL^p_w` partition (the paper uses δ = 100).
        partition_size: u32,
    },
}

impl IndexVariant {
    fn tag(&self) -> u8 {
        match self {
            IndexVariant::Rr => 0,
            IndexVariant::Irr { .. } => 1,
        }
    }
}

/// Catalog entry for one keyword.
#[derive(Debug, Clone, PartialEq)]
pub struct KeywordMeta {
    /// The topic this entry indexes.
    pub topic: TopicId,
    /// Number of RR sets stored (`θ_w`, Eqn 8 or Eqn 10). 0 = no segment.
    pub theta: u64,
    /// `Σ_v tf(w, v)` at build time.
    pub tf_sum: f64,
    /// `idf(w)` at build time (needed to form `p_w` at query time).
    pub idf: f64,
    /// The estimated `OPT^w` used in the θ denominator.
    pub opt_w: f64,
    /// Longest inverted list (the initial `kb[w]` bound of Algorithm 4).
    pub max_list_len: u32,
    /// Number of IRR partitions (0 for the RR variant).
    pub num_partitions: u32,
    /// Sum of RR-set sizes (for mean-size statistics, Table 5).
    pub total_rr_members: u64,
}

/// Catalog of an index directory.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexMeta {
    /// `|V|` the index was built for.
    pub num_users: u32,
    /// Topic-space size; `keywords` has exactly this many entries.
    pub num_topics: u32,
    /// Codec used for every integer list.
    pub codec: Codec,
    /// RR or IRR layout.
    pub variant: IndexVariant,
    /// Propagation model name recorded at build time ("IC" / "LT").
    pub model_name: String,
    /// Per-topic entries, indexed by topic id.
    pub keywords: Vec<KeywordMeta>,
}

impl IndexMeta {
    /// Serialize the catalog.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        varint::write_u32(self.num_users, &mut out);
        varint::write_u32(self.num_topics, &mut out);
        out.push(self.codec.tag());
        out.push(self.variant.tag());
        match self.variant {
            IndexVariant::Rr => varint::write_u32(0, &mut out),
            IndexVariant::Irr { partition_size } => varint::write_u32(partition_size, &mut out),
        }
        varint::write_u32(self.model_name.len() as u32, &mut out);
        out.extend_from_slice(self.model_name.as_bytes());
        varint::write_u32(self.keywords.len() as u32, &mut out);
        for kw in &self.keywords {
            varint::write_u32(kw.topic, &mut out);
            varint::write_u64(kw.theta, &mut out);
            out.extend_from_slice(&kw.tf_sum.to_bits().to_le_bytes());
            out.extend_from_slice(&kw.idf.to_bits().to_le_bytes());
            out.extend_from_slice(&kw.opt_w.to_bits().to_le_bytes());
            varint::write_u32(kw.max_list_len, &mut out);
            varint::write_u32(kw.num_partitions, &mut out);
            varint::write_u64(kw.total_rr_members, &mut out);
        }
        out
    }

    /// Deserialize a catalog written by [`IndexMeta::encode`].
    pub fn decode(input: &[u8]) -> Result<IndexMeta, IndexError> {
        let mut cursor = Cursor::new(input);
        let num_users = cursor.u32()?;
        let num_topics = cursor.u32()?;
        let codec = Codec::from_tag(cursor.byte()?)
            .ok_or_else(|| IndexError::Corrupt("unknown codec tag".into()))?;
        let variant_tag = cursor.byte()?;
        let partition_size = cursor.u32()?;
        let variant = match variant_tag {
            0 => IndexVariant::Rr,
            1 => IndexVariant::Irr { partition_size },
            t => return Err(IndexError::Corrupt(format!("unknown variant tag {t}"))),
        };
        let name_len = cursor.u32()? as usize;
        let model_name = String::from_utf8(cursor.bytes(name_len)?.to_vec())
            .map_err(|_| IndexError::Corrupt("model name not utf-8".into()))?;
        let count = cursor.u32()? as usize;
        let mut keywords = Vec::with_capacity(count);
        for _ in 0..count {
            keywords.push(KeywordMeta {
                topic: cursor.u32()?,
                theta: cursor.u64()?,
                tf_sum: cursor.f64()?,
                idf: cursor.f64()?,
                opt_w: cursor.f64()?,
                max_list_len: cursor.u32()?,
                num_partitions: cursor.u32()?,
                total_rr_members: cursor.u64()?,
            });
        }
        if keywords.len() != num_topics as usize {
            return Err(IndexError::Corrupt(format!(
                "catalog lists {} keywords for {num_topics} topics",
                keywords.len()
            )));
        }
        Ok(IndexMeta { num_users, num_topics, codec, variant, model_name, keywords })
    }
}

/// One inverted-list entry: a user and the (strictly ascending, never
/// empty) ids of the RR sets containing it.
pub type IlEntry = (NodeId, Vec<u32>);

/// RR-set ids share a `u32` with the list-start tag bit of the columnar
/// `il` / `ilp` layout, so a keyword holds at most this many RR sets
/// (the build refuses a larger θ_w).
pub const MAX_RR_SETS: u64 = 1 << 31;

/// Encode an inverted-list block (`il` or one `ilp` partition) in
/// columnar form — see the module table. `entries` must ascend by user;
/// every list is non-empty, strictly ascending, ids below
/// [`MAX_RR_SETS`].
pub fn encode_il_entries(entries: &[IlEntry], codec: Codec, out: &mut Vec<u8>) {
    assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "il entries must ascend by user");
    let n_ids: usize = entries.iter().map(|(_, list)| list.len()).sum();
    varint::write_u32(u32::try_from(entries.len()).expect("il block exceeds u32 lists"), out);
    varint::write_u32(u32::try_from(n_ids).expect("il block exceeds u32 ids"), out);
    let mut prev_user = 0;
    let user_gaps = entries.iter().map(|&(user, _)| {
        let gap = user - prev_user;
        prev_user = user;
        gap
    });
    codec.encode_stream(user_gaps, out);
    let tagged = entries.iter().flat_map(|(user, list)| {
        assert!(!list.is_empty(), "user {user} has an empty inverted list");
        let mut prev = None;
        list.iter().map(move |&id| {
            assert!((id as u64) < MAX_RR_SETS, "rr id {id} does not leave room for the tag bit");
            let value = match prev {
                None => id << 1 | 1,
                Some(p) => {
                    assert!(p < id, "inverted list of user {user} must strictly ascend");
                    (id - p) << 1
                }
            };
            prev = Some(id);
            value
        })
    });
    codec.encode_stream(tagged, out);
}

/// Decode a block written by [`encode_il_entries`] into per-user `Vec`s
/// — an adapter over [`decode_il_csr`] for tests and
/// [`crate::KbtimIndex::validate`]; hot paths use
/// [`decode_il_csr_into`].
#[doc(hidden)]
pub fn decode_il_entries(input: &[u8], codec: Codec) -> Result<Vec<IlEntry>, IndexError> {
    let csr = decode_il_csr(input, codec)?;
    Ok((0..csr.len()).map(|i| (csr.users[i], csr.list(i).to_vec())).collect())
}

/// A decoded inverted-list block in flat CSR form: one `ids` arena plus
/// per-user offsets — the hot-path twin of [`decode_il_entries`] with no
/// per-user heap allocation. `users[i]`'s rr-id list is
/// `ids[offsets[i]..offsets[i + 1]]`; `offsets` is always non-empty and
/// starts at 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IlCsr {
    /// Users in block order (ascending in every decoded block).
    pub users: Vec<NodeId>,
    /// `users.len() + 1` boundaries into `ids`.
    pub offsets: Vec<u32>,
    /// All rr-id lists, back to back.
    pub ids: Vec<u32>,
}

impl Default for IlCsr {
    /// Empty CSR with the invariant `offsets == [0]` already in place.
    fn default() -> IlCsr {
        IlCsr { users: Vec::new(), offsets: vec![0], ids: Vec::new() }
    }
}

impl IlCsr {
    /// Append one user's list boundary after pushing its ids into
    /// [`IlCsr::ids`]. Guards the u32 offset against arena overflow.
    pub fn close_list(&mut self, user: NodeId) {
        self.users.push(user);
        self.offsets.push(u32::try_from(self.ids.len()).expect("IL arena exceeds u32 offsets"));
    }

    /// Reset to the empty state (`offsets == [0]`), keeping the arena
    /// capacities — the scratch-pool reset between queries.
    pub fn reset(&mut self) {
        self.users.clear();
        self.ids.clear();
        self.offsets.clear();
        self.offsets.push(0);
    }
    /// Number of users in the block.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether the block holds no users.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// The rr-id list of the `i`-th user.
    #[inline]
    pub fn list(&self, i: usize) -> &[u32] {
        &self.ids[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Exact heap footprint of the three arenas, in bytes.
    pub fn arena_bytes(&self) -> u64 {
        (self.ids.len() * 4 + self.offsets.len() * 4 + self.users.len() * 4) as u64
    }

    /// Heap bytes the three arenas keep allocated — by capacity, which
    /// a pooled CSR carries over from the largest block it ever held.
    pub fn capacity_bytes(&self) -> u64 {
        ((self.ids.capacity() + self.offsets.capacity() + self.users.capacity()) * 4) as u64
    }

    /// Give back whatever capacity the contents do not use.
    pub fn shrink_to_fit(&mut self) {
        self.users.shrink_to_fit();
        self.offsets.shrink_to_fit();
        self.ids.shrink_to_fit();
    }

    /// Move the arenas out without allocating. `self` is left hollow —
    /// not even the `offsets == [0]` invariant — so this is only for a
    /// CSR that is about to be dropped.
    pub(crate) fn take_arenas(&mut self) -> IlCsr {
        IlCsr {
            users: std::mem::take(&mut self.users),
            offsets: std::mem::take(&mut self.offsets),
            ids: std::mem::take(&mut self.ids),
        }
    }
}

/// Decode a block written by [`encode_il_entries`] into a flat [`IlCsr`].
pub fn decode_il_csr(input: &[u8], codec: Codec) -> Result<IlCsr, IndexError> {
    let mut csr = IlCsr::default();
    decode_il_csr_into(input, codec, &mut csr)?;
    Ok(csr)
}

/// [`decode_il_csr`] into a caller-owned (scratch-pooled) CSR, reset
/// first; steady-state decodes allocate nothing once the arenas are
/// warm. Both streams unpack whole into their arenas and are finished
/// in place: users by a prefix sum, ids and list offsets by one
/// segmented scan over the tagged gaps
/// ([`kbtim_codec::simd::scan_tagged_gaps`]). On error the CSR is left
/// reset.
pub fn decode_il_csr_into(input: &[u8], codec: Codec, csr: &mut IlCsr) -> Result<(), IndexError> {
    decode_il_csr_at(kbtim_codec::simd::active_level(), input, codec, csr)
}

/// [`decode_il_csr_into`] with the tagged-gap scan at an explicit
/// kernel tier — how the tests hold every tier to the scalar one.
fn decode_il_csr_at(
    level: SimdLevel,
    input: &[u8],
    codec: Codec,
    csr: &mut IlCsr,
) -> Result<(), IndexError> {
    csr.reset();
    let decoded = decode_il_streams(level, input, codec, csr);
    if decoded.is_err() {
        csr.reset();
    }
    decoded
}

fn decode_il_streams(
    level: SimdLevel,
    input: &[u8],
    codec: Codec,
    csr: &mut IlCsr,
) -> Result<(), IndexError> {
    let corrupt = |what: &str| Err(IndexError::Corrupt(format!("il block: {what}")));
    let mut cursor = Cursor::new(input);
    let n_lists = cursor.u32()? as usize;
    let n_ids = cursor.u32()? as usize;
    // Every list holds an id and every id takes stream bytes (the codec
    // checks each count against the input before it reserves), so the
    // offsets table below is bounded by the input too.
    if n_lists > n_ids {
        return corrupt("more lists than ids");
    }
    cursor.pos += codec.decode_stream(&input[cursor.pos..], n_lists, &mut csr.users)?;
    // Users strictly ascend: consumers bound them all by the last one
    // and binary-search them.
    if csr.users.iter().skip(1).any(|&gap| gap == 0) {
        return corrupt("a user is listed twice");
    }
    kbtim_codec::delta::undelta_in_place(&mut csr.users)?;
    cursor.pos += codec.decode_stream(&input[cursor.pos..], n_ids, &mut csr.ids)?;
    cursor.expect_end()?;
    if csr.ids.first().is_some_and(|tagged| tagged & 1 == 0) {
        return corrupt("first id does not start a list");
    }
    csr.offsets.clear();
    csr.offsets.resize(n_lists + 1, 0);
    let Some(seen_bits) =
        kbtim_codec::simd::scan_tagged_gaps(level, &mut csr.ids, &mut csr.offsets)
    else {
        return corrupt("list-start tags disagree with the list count");
    };
    // Gaps and ids are both below 2^31, so no step can wrap before the
    // first id at or above 2^31 has left its top bit in `seen_bits`.
    if seen_bits as u64 >= MAX_RR_SETS {
        return corrupt("rr id beyond the tag-bit limit");
    }
    Ok(())
}

/// Encode the `ip` block: users ascending, plus their first-occurrence RR
/// ids (parallel, unsorted → plain varints).
pub fn encode_ip(users: &[NodeId], firsts: &[u32], codec: Codec, out: &mut Vec<u8>) {
    assert_eq!(users.len(), firsts.len());
    varint::write_u32(users.len() as u32, out);
    codec.encode_sorted(users, out);
    for &f in firsts {
        varint::write_u32(f, out);
    }
}

/// Decode the `ip` block into parallel `(users, firsts)`.
pub fn decode_ip(input: &[u8], codec: Codec) -> Result<(Vec<NodeId>, Vec<u32>), IndexError> {
    let mut users = Vec::new();
    let mut firsts = Vec::new();
    decode_ip_into(input, codec, &mut users, &mut firsts)?;
    Ok((users, firsts))
}

/// [`decode_ip`] into caller-owned (scratch-pooled) buffers, cleared
/// first; steady-state decodes allocate nothing once the buffers are
/// warm.
pub fn decode_ip_into(
    input: &[u8],
    codec: Codec,
    users: &mut Vec<NodeId>,
    firsts: &mut Vec<u32>,
) -> Result<(), IndexError> {
    let mut cursor = Cursor::new(input);
    let count = cursor.u32()? as usize;
    users.clear();
    cursor.list_into(codec, users)?;
    if users.len() != count {
        return Err(IndexError::Corrupt("ip user count mismatch".into()));
    }
    firsts.clear();
    cursor.pos += varint::read_u32_run(&input[cursor.pos..], count, firsts)?;
    cursor.expect_end()?;
    Ok(())
}

/// Every `IR_SAMPLE_EVERY`-th IR entry gets an (id, byte-offset) sample so
/// queries can load only the `rr_id < θ^Q_w` prefix of a partition instead
/// of the whole thing.
pub const IR_SAMPLE_EVERY: usize = 16;

/// Catalog row for one IRR partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMeta {
    /// Byte range of this partition inside the `ilp` block.
    pub il_start: u64,
    /// End of the `ilp` range (exclusive).
    pub il_end: u64,
    /// Byte range of this partition inside the `irp` block.
    pub ir_start: u64,
    /// End of the `irp` range (exclusive).
    pub ir_end: u64,
    /// RR sets first covered by this partition (= entries in its `irp`).
    pub rr_count: u32,
    /// Users in this partition (≤ δ).
    pub user_count: u32,
    /// Longest inverted list in any *later* partition — the `kb[w]` bound
    /// after loading this partition (0 for the last one).
    pub max_len_after: u32,
    /// Sparse `(rr_id, byte offset within this partition's irp range)`
    /// samples at entry boundaries, every [`IR_SAMPLE_EVERY`] entries
    /// (entry 0 included). Ids and offsets both ascend.
    pub ir_samples: Vec<(u32, u64)>,
}

#[cfg(test)]
impl PartitionMeta {
    /// Byte length of the partition's IR prefix containing every entry
    /// with `rr_id < limit` (may additionally cover up to
    /// `IR_SAMPLE_EVERY - 1` later entries, which the decoder skips).
    pub fn ir_prefix_len(&self, limit: u64) -> u64 {
        let total = self.ir_end - self.ir_start;
        // First sample whose id is >= limit bounds the range.
        match self.ir_samples.iter().find(|&&(id, _)| id as u64 >= limit) {
            Some(&(_, offset)) => offset.min(total),
            None => total,
        }
    }
}

/// Encode the `pmeta` block.
pub fn encode_partition_meta(parts: &[PartitionMeta], out: &mut Vec<u8>) {
    varint::write_u32(parts.len() as u32, out);
    for p in parts {
        varint::write_u64(p.il_start, out);
        varint::write_u64(p.il_end, out);
        varint::write_u64(p.ir_start, out);
        varint::write_u64(p.ir_end, out);
        varint::write_u32(p.rr_count, out);
        varint::write_u32(p.user_count, out);
        varint::write_u32(p.max_len_after, out);
        varint::write_u32(p.ir_samples.len() as u32, out);
        let mut prev_id = 0u32;
        let mut prev_off = 0u64;
        for &(id, off) in &p.ir_samples {
            varint::write_u32(id - prev_id, out);
            varint::write_u64(off - prev_off, out);
            prev_id = id;
            prev_off = off;
        }
    }
}

/// Decode the `pmeta` block.
pub fn decode_partition_meta(input: &[u8]) -> Result<Vec<PartitionMeta>, IndexError> {
    let mut cursor = Cursor::new(input);
    let count = cursor.u32()?;
    let mut parts = Vec::new();
    for _ in 0..count {
        let mut part = PartitionMeta {
            il_start: cursor.u64()?,
            il_end: cursor.u64()?,
            ir_start: cursor.u64()?,
            ir_end: cursor.u64()?,
            rr_count: cursor.u32()?,
            user_count: cursor.u32()?,
            max_len_after: cursor.u32()?,
            ir_samples: Vec::new(),
        };
        let sample_count = cursor.u32()?;
        let mut prev_id = 0u32;
        let mut prev_off = 0u64;
        for _ in 0..sample_count {
            prev_id += cursor.u32()?;
            prev_off += cursor.u64()?;
            part.ir_samples.push((prev_id, prev_off));
        }
        parts.push(part);
    }
    cursor.expect_end()?;
    Ok(parts)
}

/// What Algorithm 4 reads of a partition's catalog row: where its
/// inverted lists sit in `ilp`, and the `kb[w]` bound once it is loaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionSpan {
    /// Start of the partition's byte range inside the `ilp` block.
    pub il_start: u64,
    /// End of the `ilp` range (exclusive).
    pub il_end: u64,
    /// See [`PartitionMeta::max_len_after`].
    pub max_len_after: u32,
}

/// Decode the `pmeta` block into the spans a query walks, in a
/// caller-owned (scratch-pooled) vec, cleared first. The `irp` columns
/// of each row are parsed over, never stored.
pub fn decode_partition_spans_into(
    input: &[u8],
    spans: &mut Vec<PartitionSpan>,
) -> Result<(), IndexError> {
    spans.clear();
    let mut cursor = Cursor::new(input);
    let count = cursor.u32()?;
    for _ in 0..count {
        let il_start = cursor.u64()?;
        let il_end = cursor.u64()?;
        // ir_start, ir_end, rr_count, user_count.
        cursor.u64()?;
        cursor.u64()?;
        cursor.u32()?;
        cursor.u32()?;
        let max_len_after = cursor.u32()?;
        let sample_count = cursor.u32()?;
        for _ in 0..sample_count {
            cursor.u32()?;
            cursor.u64()?;
        }
        spans.push(PartitionSpan { il_start, il_end, max_len_after });
    }
    cursor.expect_end()
}

/// One partitioned RR set: its per-keyword ordinal id and sorted members.
pub type IrEntry = (u32, Vec<NodeId>);

/// Encode one `irp` partition: entries back to back (varint id + codec
/// members, ids ascending), **no count header** — partitions are read as
/// byte ranges whose boundaries always fall on entry boundaries, so the
/// decoder simply consumes the buffer. Returns the sparse offset samples
/// for [`PartitionMeta::ir_samples`].
pub fn encode_ir_entries(entries: &[IrEntry], codec: Codec, out: &mut Vec<u8>) -> Vec<(u32, u64)> {
    let base = out.len() as u64;
    let mut samples = Vec::with_capacity(entries.len() / IR_SAMPLE_EVERY + 1);
    for (i, (id, members)) in entries.iter().enumerate() {
        if i % IR_SAMPLE_EVERY == 0 {
            samples.push((*id, out.len() as u64 - base));
        }
        varint::write_u32(*id, out);
        codec.encode_sorted(members, out);
    }
    samples
}

/// Count the entries of an `irp` byte range with id `< limit` — how the
/// retired IRR partition loader derived `rr_sets_loaded`; kept as the
/// oracle the lean query path's seen-set count is tested against.
#[cfg(test)]
pub(crate) fn count_ir_entries(input: &[u8], codec: Codec, limit: u32) -> Result<u64, IndexError> {
    let mut cursor = Cursor::new(input);
    let mut count = 0u64;
    let mut members = Vec::new();
    while !cursor.at_end() {
        let id = cursor.u32()?;
        if id >= limit {
            break;
        }
        members.clear();
        cursor.list_into(codec, &mut members)?;
        count += 1;
    }
    Ok(count)
}

/// Decode an `irp` byte range written by [`encode_ir_entries`], consuming
/// the whole buffer. `limit` truncates decoding at the first id `>= limit`
/// (`u32::MAX` decodes everything).
///
/// Allocating (one `Vec` per set); for tests and
/// [`crate::KbtimIndex::validate`] — queries never read `irp`.
#[doc(hidden)]
pub fn decode_ir_entries(
    input: &[u8],
    codec: Codec,
    limit: u32,
) -> Result<Vec<IrEntry>, IndexError> {
    let mut cursor = Cursor::new(input);
    let mut entries = Vec::new();
    while !cursor.at_end() {
        let id = cursor.u32()?;
        if id >= limit {
            break;
        }
        let members = cursor.list(codec)?;
        entries.push((id, members));
    }
    Ok(entries)
}

/// Decode a prefix of the `rr` block containing `count` RR sets.
///
/// Allocating (one `Vec` per set); for tests and
/// [`crate::KbtimIndex::validate`] — queries never read `rr`.
#[doc(hidden)]
pub fn decode_rr_prefix(
    input: &[u8],
    count: u64,
    codec: Codec,
) -> Result<Vec<Vec<NodeId>>, IndexError> {
    let mut sets = Vec::with_capacity(count as usize);
    let mut pos = 0usize;
    for _ in 0..count {
        let mut members = Vec::new();
        pos += codec.decode_sorted(&input[pos..], &mut members)?;
        sets.push(members);
    }
    Ok(sets)
}

/// Byte cursor with varint helpers over a borrowed buffer.
struct Cursor<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(input: &'a [u8]) -> Cursor<'a> {
        Cursor { input, pos: 0 }
    }

    fn byte(&mut self) -> Result<u8, IndexError> {
        let b = *self
            .input
            .get(self.pos)
            .ok_or(IndexError::Codec(kbtim_codec::CodecError::UnexpectedEof))?;
        self.pos += 1;
        Ok(b)
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], IndexError> {
        if self.pos + n > self.input.len() {
            return Err(IndexError::Codec(kbtim_codec::CodecError::UnexpectedEof));
        }
        let slice = &self.input[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, IndexError> {
        let (v, used) = varint::read_u32(&self.input[self.pos..])?;
        self.pos += used;
        Ok(v)
    }

    fn u64(&mut self) -> Result<u64, IndexError> {
        let (v, used) = varint::read_u64(&self.input[self.pos..])?;
        self.pos += used;
        Ok(v)
    }

    fn f64(&mut self) -> Result<f64, IndexError> {
        let bytes: [u8; 8] = self.bytes(8)?.try_into().expect("fixed length");
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }

    fn list(&mut self, codec: Codec) -> Result<Vec<u32>, IndexError> {
        let mut out = Vec::new();
        self.list_into(codec, &mut out)?;
        Ok(out)
    }

    /// Decode one codec list, *appending* to `out` (arena-friendly).
    fn list_into(&mut self, codec: Codec, out: &mut Vec<u32>) -> Result<(), IndexError> {
        let used = codec.decode_sorted(&self.input[self.pos..], out)?;
        self.pos += used;
        Ok(())
    }

    fn at_end(&self) -> bool {
        self.pos == self.input.len()
    }

    fn expect_end(&self) -> Result<(), IndexError> {
        if self.pos != self.input.len() {
            return Err(IndexError::Corrupt(format!(
                "{} trailing bytes after block payload",
                self.input.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_meta() -> IndexMeta {
        IndexMeta {
            num_users: 1000,
            num_topics: 3,
            codec: Codec::Packed,
            variant: IndexVariant::Irr { partition_size: 100 },
            model_name: "IC".to_string(),
            keywords: vec![
                KeywordMeta {
                    topic: 0,
                    theta: 500,
                    tf_sum: 123.5,
                    idf: 2.5,
                    opt_w: 17.25,
                    max_list_len: 44,
                    num_partitions: 3,
                    total_rr_members: 1200,
                },
                KeywordMeta {
                    topic: 1,
                    theta: 0,
                    tf_sum: 0.0,
                    idf: 0.0,
                    opt_w: 0.0,
                    max_list_len: 0,
                    num_partitions: 0,
                    total_rr_members: 0,
                },
                KeywordMeta {
                    topic: 2,
                    theta: 9,
                    tf_sum: 1.0,
                    idf: 1.0,
                    opt_w: 0.5,
                    max_list_len: 3,
                    num_partitions: 1,
                    total_rr_members: 21,
                },
            ],
        }
    }

    #[test]
    fn meta_roundtrip() {
        let meta = sample_meta();
        let bytes = meta.encode();
        let decoded = IndexMeta::decode(&bytes).unwrap();
        assert_eq!(meta, decoded);
    }

    #[test]
    fn meta_rr_variant_roundtrip() {
        let mut meta = sample_meta();
        meta.variant = IndexVariant::Rr;
        let decoded = IndexMeta::decode(&meta.encode()).unwrap();
        assert_eq!(decoded.variant, IndexVariant::Rr);
    }

    #[test]
    fn meta_truncation_detected() {
        let bytes = sample_meta().encode();
        for cut in [0, 1, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(IndexMeta::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// The per-entry layout this one replaced (count, then per user:
    /// varint user + one codec list) — kept as the oracle the columnar
    /// block is proptested against.
    fn per_entry_oracle(entries: &[IlEntry], codec: Codec) -> Vec<IlEntry> {
        let mut buf = Vec::new();
        varint::write_u32(entries.len() as u32, &mut buf);
        for (user, list) in entries {
            varint::write_u32(*user, &mut buf);
            codec.encode_sorted(list, &mut buf);
        }
        let mut cursor = Cursor::new(&buf);
        let count = cursor.u32().unwrap();
        let decoded =
            (0..count).map(|_| (cursor.u32().unwrap(), cursor.list(codec).unwrap())).collect();
        cursor.expect_end().unwrap();
        decoded
    }

    /// Whether `csr` keeps every [`IlCsr`] invariant a consumer relies
    /// on, whatever bytes it was decoded from.
    fn well_formed(csr: &IlCsr) -> bool {
        csr.offsets.len() == csr.users.len() + 1
            && csr.offsets[0] == 0
            && *csr.offsets.last().unwrap() as usize == csr.ids.len()
            && csr.offsets.windows(2).all(|w| w[0] < w[1])
            && csr.users.windows(2).all(|w| w[0] < w[1])
            && (0..csr.len()).all(|i| csr.list(i).windows(2).all(|w| w[0] <= w[1]))
            && csr.ids.iter().all(|&id| (id as u64) < MAX_RR_SETS)
    }

    #[test]
    fn il_entries_roundtrip() {
        let entries: Vec<IlEntry> = vec![(3, vec![0, 5, 9, 200]), (7, vec![6]), (900, vec![1])];
        for codec in [Codec::Raw, Codec::Packed] {
            let mut buf = Vec::new();
            encode_il_entries(&entries, codec, &mut buf);
            assert_eq!(decode_il_entries(&buf, codec).unwrap(), entries);
        }
    }

    #[test]
    fn il_csr_matches_entries_decoder() {
        let entries: Vec<IlEntry> =
            vec![(3, vec![0, 5, 9, 200]), (7, vec![8]), (11, vec![4]), (900, vec![1, 2])];
        for codec in [Codec::Raw, Codec::Packed] {
            let mut buf = Vec::new();
            encode_il_entries(&entries, codec, &mut buf);
            let csr = decode_il_csr(&buf, codec).unwrap();
            assert_eq!(csr.len(), entries.len());
            for (i, (user, list)) in entries.iter().enumerate() {
                assert_eq!(csr.users[i], *user);
                assert_eq!(csr.list(i), list.as_slice());
            }
            assert_eq!(csr.arena_bytes(), ((8 + 5 + 4) * 4) as u64);
        }
    }

    #[test]
    fn il_csr_rejects_trailing_bytes() {
        let mut buf = Vec::new();
        encode_il_entries(&[(1, vec![2])], Codec::Raw, &mut buf);
        buf.push(0xff);
        assert!(decode_il_csr(&buf, Codec::Raw).is_err());
    }

    #[test]
    fn il_block_is_smaller_than_the_per_entry_layout_on_short_lists() {
        // The shape of a real keyword: many users, two or three ids each.
        let entries: Vec<IlEntry> =
            (0..4000u32).map(|u| (u * 3, (0..1 + u % 3).map(|i| u + i * 9000).collect())).collect();
        let mut columnar = Vec::new();
        encode_il_entries(&entries, Codec::Packed, &mut columnar);
        let mut per_entry = Vec::new();
        for (user, list) in &entries {
            varint::write_u32(*user, &mut per_entry);
            Codec::Packed.encode_sorted(list, &mut per_entry);
        }
        assert!(
            columnar.len() * 4 < per_entry.len() * 3,
            "{} vs {}",
            columnar.len(),
            per_entry.len()
        );
    }

    #[test]
    fn il_encoder_refuses_what_the_layout_cannot_hold() {
        let refused = |entries: Vec<IlEntry>| {
            std::panic::catch_unwind(|| encode_il_entries(&entries, Codec::Packed, &mut Vec::new()))
                .is_err()
        };
        assert!(refused(vec![(1, vec![])]), "an empty list has no start tag");
        assert!(refused(vec![(1, vec![5, 5])]), "duplicate id");
        assert!(refused(vec![(2, vec![1]), (1, vec![1])]), "users out of order");
        assert!(refused(vec![(1, vec![MAX_RR_SETS as u32])]), "id takes the tag bit");
        assert!(!refused(vec![(1, vec![MAX_RR_SETS as u32 - 1])]));
    }

    #[test]
    fn il_duplicate_user_is_corrupt() {
        // What the encoder refuses to write: the second user's gap is 0.
        for codec in [Codec::Raw, Codec::Packed] {
            let mut buf = Vec::new();
            varint::write_u32(2, &mut buf);
            varint::write_u32(2, &mut buf);
            codec.encode_stream([5u32, 0], &mut buf);
            codec.encode_stream([3u32 << 1 | 1, 4 << 1 | 1], &mut buf);
            let err = decode_il_csr(&buf, codec).unwrap_err();
            assert!(matches!(&err, IndexError::Corrupt(m) if m.contains("listed twice")), "{err}");
        }
    }

    #[test]
    fn il_hostile_header_counts_fail_before_reserving() {
        for codec in [Codec::Raw, Codec::Packed] {
            for (n_lists, n_ids) in [(1u32, u32::MAX), (u32::MAX, u32::MAX), (5, 4)] {
                let mut buf = Vec::new();
                varint::write_u32(n_lists, &mut buf);
                varint::write_u32(n_ids, &mut buf);
                buf.extend([1u8; 64]);
                let mut csr = IlCsr::default();
                assert!(decode_il_csr_into(&buf, codec, &mut csr).is_err());
                let reserved = csr.users.capacity() + csr.ids.capacity() + csr.offsets.capacity();
                assert!(reserved < 64 * 128, "{codec:?} ({n_lists}, {n_ids}): reserved {reserved}");
            }
        }
    }

    #[test]
    fn il_hostile_bytes_never_panic_or_break_the_csr() {
        // Every truncation and every single-bit flip of an encoded block
        // is an error or a well-formed CSR no larger than the input
        // could encode.
        let entries: Vec<IlEntry> = (0..150u32)
            .map(|u| (u * 7 + 1, (0..1 + u % 4).map(|i| u * 2 + i * 301).collect()))
            .collect();
        for codec in [Codec::Raw, Codec::Packed] {
            let mut buf = Vec::new();
            encode_il_entries(&entries, codec, &mut buf);
            let mut csr = IlCsr::default();
            let mut check = |bytes: &[u8], what: String| {
                match decode_il_csr_into(bytes, codec, &mut csr) {
                    Ok(()) => assert!(well_formed(&csr), "{codec:?} {what}"),
                    Err(_) => assert_eq!(csr, IlCsr::default(), "{codec:?} {what}"),
                }
                let most = bytes.len() * kbtim_codec::bitpack::BLOCK_LEN;
                assert!(csr.ids.capacity().max(csr.users.capacity()) <= most.max(1024), "{what}");
            };
            for cut in 0..buf.len() {
                check(&buf[..cut], format!("cut at {cut}"));
            }
            for bit in 0..buf.len() * 8 {
                let mut flipped = buf.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                check(&flipped, format!("bit {bit} flipped"));
            }
        }
    }

    /// Entry sets shaped like the edge cases of a keyword's block: none
    /// or one user, the last user of the universe, lists of 1..=40 ids,
    /// one list of at least 300, and a last list that ends the arena.
    fn il_entry_sets() -> impl Strategy<Value = Vec<IlEntry>> {
        const NUM_USERS: u32 = 5000;
        fn ascending(mut ids: Vec<u32>) -> Vec<u32> {
            ids.sort_unstable();
            ids.dedup();
            ids
        }
        let entry = || {
            (0u32..NUM_USERS, proptest::collection::vec(0u32..60_000, 1..41))
                .prop_map(|(user, ids)| (user, ascending(ids)))
        };
        let long = proptest::collection::vec(0u32..MAX_RR_SETS as u32, 300..400);
        (
            proptest::collection::vec(entry(), 0..120),
            proptest::collection::vec(entry(), 0..2),
            proptest::collection::vec((0u32..NUM_USERS, long), 0..2),
        )
            .prop_map(|(entries, last_user, long)| {
                let mut by_user: std::collections::BTreeMap<u32, Vec<u32>> =
                    entries.into_iter().collect();
                by_user.extend(last_user.into_iter().map(|(_, list)| (NUM_USERS - 1, list)));
                by_user.extend(long.into_iter().map(|(user, ids)| (user, ascending(ids))));
                by_user.into_iter().collect()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        #[test]
        fn il_block_matches_the_per_entry_oracle(entries in il_entry_sets()) {
            for codec in [Codec::Raw, Codec::Packed] {
                let mut buf = Vec::new();
                encode_il_entries(&entries, codec, &mut buf);
                let csr = decode_il_csr(&buf, codec).unwrap();
                prop_assert!(well_formed(&csr));
                let oracle = per_entry_oracle(&entries, codec);
                prop_assert_eq!(decode_il_entries(&buf, codec).unwrap(), oracle);
            }
        }

        /// Every kernel tier of the tagged-gap scan decodes a block to
        /// the CSR the scalar pass decodes it to, and refuses a damaged
        /// one with the scalar pass's error — kind and message — leaving
        /// the CSR reset.
        #[test]
        fn il_scan_tiers_agree_with_the_scalar_pass(entries in il_entry_sets(), pick in any::<u32>()) {
            let mut user_gaps: Vec<u32> = entries.iter().map(|&(user, _)| user).collect();
            for i in (1..user_gaps.len()).rev() {
                user_gaps[i] -= user_gaps[i - 1];
            }
            let tagged: Vec<u32> = entries
                .iter()
                .flat_map(|(_, list)| {
                    let gaps = list.windows(2).map(|w| (w[1] - w[0]) << 1);
                    std::iter::once(list[0] << 1 | 1).chain(gaps)
                })
                .collect();
            let block = |n_lists: usize, users: &[u32], tagged: &[u32], codec: Codec| {
                let mut buf = Vec::new();
                varint::write_u32(n_lists as u32, &mut buf);
                varint::write_u32(tagged.len() as u32, &mut buf);
                codec.encode_stream(users.iter().copied(), &mut buf);
                codec.encode_stream(tagged.iter().copied(), &mut buf);
                buf
            };
            let n_lists = entries.len();
            let at = |len: usize| pick as usize % len;
            let first_gap = tagged.iter().position(|t| t & 1 == 0);

            for codec in [Codec::Raw, Codec::Packed] {
                let mut sound = Vec::new();
                encode_il_entries(&entries, codec, &mut sound);
                prop_assert_eq!(&block(n_lists, &user_gaps, &tagged, codec), &sound);

                let mut cases = vec![("sound", sound.clone())];
                let mut trailing = sound;
                trailing.push(0);
                cases.push(("trailing bytes", trailing));
                if let Some(gap) = first_gap {
                    let mut more = tagged.clone();
                    more[gap] |= 1;
                    cases.push(("more start tags", block(n_lists, &user_gaps, &more, codec)));
                    // The gap's own list now starts at 2^31 - 1.
                    let mut beyond = tagged.clone();
                    let start = (0..gap).rfind(|&i| tagged[i] & 1 == 1).expect("a list start");
                    beyond[start] = u32::MAX;
                    cases.push(("id beyond 2^31", block(n_lists, &user_gaps, &beyond, codec)));
                    // One more user than start tags.
                    let mut users = user_gaps.clone();
                    users.push(1);
                    cases.push(("fewer start tags", block(n_lists + 1, &users, &tagged, codec)));
                }
                if n_lists >= 2 {
                    let mut fewer = tagged.clone();
                    let starts: Vec<usize> =
                        (1..tagged.len()).filter(|&i| tagged[i] & 1 == 1).collect();
                    fewer[starts[at(starts.len())]] &= !1;
                    cases.push(("a start tag cleared", block(n_lists, &user_gaps, &fewer, codec)));
                    let mut twice = user_gaps.clone();
                    twice[1 + at(n_lists - 1)] = 0;
                    cases.push(("zero user gap", block(n_lists, &twice, &tagged, codec)));
                }
                if n_lists >= 1 {
                    let mut untagged = tagged.clone();
                    untagged[0] &= !1;
                    cases.push(("first id untagged", block(n_lists, &user_gaps, &untagged, codec)));
                }

                for (what, bytes) in cases {
                    let mut oracle = IlCsr::default();
                    let want = decode_il_csr_at(SimdLevel::Scalar, &bytes, codec, &mut oracle);
                    prop_assert_eq!(want.is_ok(), what == "sound", "{}: {:?}", what, want);
                    for &level in kbtim_codec::simd::supported_levels() {
                        // A CSR that held something: errors must reset it.
                        let mut csr = IlCsr::default();
                        csr.ids.extend([9, 9]);
                        csr.close_list(4);
                        let got = decode_il_csr_at(level, &bytes, codec, &mut csr);
                        prop_assert_eq!(
                            format!("{got:?}"), format!("{want:?}"),
                            "{} {:?} {}", what, codec, level.name()
                        );
                        prop_assert_eq!(&csr, &oracle, "{} {:?} {}", what, codec, level.name());
                        if got.is_err() {
                            prop_assert_eq!(&csr, &IlCsr::default());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn count_ir_entries_matches_decode() {
        let entries: Vec<IrEntry> =
            vec![(0, vec![1]), (5, vec![2, 3]), (9, vec![]), (12, vec![7, 8, 9])];
        for codec in [Codec::Raw, Codec::Packed] {
            let mut buf = Vec::new();
            encode_ir_entries(&entries, codec, &mut buf);
            for limit in [0u32, 1, 6, 10, u32::MAX] {
                let counted = count_ir_entries(&buf, codec, limit).unwrap();
                let decoded = decode_ir_entries(&buf, codec, limit).unwrap();
                assert_eq!(counted, decoded.len() as u64, "limit {limit}");
            }
        }
    }

    #[test]
    fn ip_roundtrip() {
        let users = vec![1u32, 5, 8, 100];
        let firsts = vec![40u32, 0, 7, 3];
        for codec in [Codec::Raw, Codec::Packed] {
            let mut buf = Vec::new();
            encode_ip(&users, &firsts, codec, &mut buf);
            let (u, f) = decode_ip(&buf, codec).unwrap();
            assert_eq!(u, users);
            assert_eq!(f, firsts);
        }
    }

    #[test]
    fn partition_meta_roundtrip() {
        let parts = vec![
            PartitionMeta {
                il_start: 0,
                il_end: 100,
                ir_start: 0,
                ir_end: 400,
                rr_count: 12,
                user_count: 100,
                max_len_after: 7,
                ir_samples: vec![(0, 0), (40, 128), (200, 320)],
            },
            PartitionMeta {
                il_start: 100,
                il_end: 130,
                ir_start: 400,
                ir_end: 410,
                rr_count: 1,
                user_count: 30,
                max_len_after: 0,
                ir_samples: vec![(3, 0)],
            },
        ];
        let mut buf = Vec::new();
        encode_partition_meta(&parts, &mut buf);
        assert_eq!(decode_partition_meta(&buf).unwrap(), parts);
        // The query-side view is the same rows minus the irp columns,
        // and a reused vec is overwritten, not appended to.
        let mut spans = vec![PartitionSpan { il_start: 9, il_end: 9, max_len_after: 9 }];
        decode_partition_spans_into(&buf, &mut spans).unwrap();
        let want: Vec<PartitionSpan> = parts
            .iter()
            .map(|p| PartitionSpan {
                il_start: p.il_start,
                il_end: p.il_end,
                max_len_after: p.max_len_after,
            })
            .collect();
        assert_eq!(spans, want);
        assert!(decode_partition_spans_into(&buf[..buf.len() - 1], &mut spans).is_err());
    }

    #[test]
    fn ir_entries_roundtrip() {
        let entries: Vec<IrEntry> = vec![(0, vec![1, 2, 3]), (5, vec![9]), (6, vec![])];
        for codec in [Codec::Raw, Codec::Packed] {
            let mut buf = Vec::new();
            let samples = encode_ir_entries(&entries, codec, &mut buf);
            assert_eq!(samples[0], (0, 0));
            assert_eq!(decode_ir_entries(&buf, codec, u32::MAX).unwrap(), entries);
        }
    }

    #[test]
    fn ir_entries_limit_truncates() {
        let entries: Vec<IrEntry> = vec![(0, vec![1]), (5, vec![2]), (9, vec![3]), (12, vec![])];
        let mut buf = Vec::new();
        encode_ir_entries(&entries, Codec::Packed, &mut buf);
        let decoded = decode_ir_entries(&buf, Codec::Packed, 9).unwrap();
        assert_eq!(decoded, &entries[..2]);
    }

    #[test]
    fn ir_prefix_len_bounds() {
        // 40 entries → samples at 0, 16, 32.
        let entries: Vec<IrEntry> = (0..40u32).map(|i| (i * 2, vec![i])).collect();
        let mut buf = Vec::new();
        let samples = encode_ir_entries(&entries, Codec::Packed, &mut buf);
        assert_eq!(samples.len(), 3);
        let meta = PartitionMeta {
            il_start: 0,
            il_end: 0,
            ir_start: 1000,
            ir_end: 1000 + buf.len() as u64,
            rr_count: 40,
            user_count: 40,
            max_len_after: 0,
            ir_samples: samples.clone(),
        };
        // Limit below the second sample's id cuts at that sample.
        let cut = meta.ir_prefix_len(10);
        assert_eq!(cut, samples[1].1);
        // The cut range decodes exactly the entries with id < 32 (first 16).
        let decoded = decode_ir_entries(&buf[..cut as usize], Codec::Packed, 10).unwrap();
        assert_eq!(decoded.len(), 5, "ids 0,2,4,6,8");
        // A huge limit spans everything.
        assert_eq!(meta.ir_prefix_len(u64::MAX), buf.len() as u64);
    }

    #[test]
    fn rr_prefix_decoding() {
        let sets: Vec<Vec<NodeId>> = vec![vec![1, 2], vec![7], vec![0, 100, 200]];
        let codec = Codec::Packed;
        let mut buf = Vec::new();
        for s in &sets {
            codec.encode_sorted(s, &mut buf);
        }
        let two = decode_rr_prefix(&buf, 2, codec).unwrap();
        assert_eq!(two, &sets[..2]);
        let all = decode_rr_prefix(&buf, 3, codec).unwrap();
        assert_eq!(all, sets);
    }

    #[test]
    fn il_csr_into_reuses_and_resets() {
        let entries: Vec<IlEntry> = vec![(3, vec![0, 5]), (7, vec![2]), (11, vec![4])];
        let mut buf = Vec::new();
        encode_il_entries(&entries, Codec::Packed, &mut buf);
        let mut csr = IlCsr::default();
        csr.ids.extend([9, 9, 9]); // stale content from a previous query
        csr.close_list(1);
        decode_il_csr_into(&buf, Codec::Packed, &mut csr).unwrap();
        assert_eq!(csr, decode_il_csr(&buf, Codec::Packed).unwrap());
        csr.reset();
        assert!(csr.is_empty());
        assert_eq!(csr.offsets, vec![0]);
    }

    #[test]
    fn keyword_file_names_are_stable() {
        assert_eq!(keyword_file_name(0), "kw_00000.seg");
        assert_eq!(keyword_file_name(42), "kw_00042.seg");
    }

    #[test]
    fn shard_dir_names_are_stable() {
        assert_eq!(shard_dir_name(0), "shard-0");
        assert_eq!(shard_dir_name(7), "shard-7");
    }

    #[test]
    fn shard_cuts_partition_the_universe() {
        for (num_users, shards) in [(1000u32, 1usize), (1000, 4), (7, 3), (3, 8), (0, 2)] {
            let cuts = shard_cuts(num_users, shards);
            assert_eq!(cuts.len(), shards + 1);
            assert_eq!(cuts[0], 0);
            assert_eq!(*cuts.last().unwrap(), num_users);
            assert!(cuts.windows(2).all(|w| w[0] <= w[1]));
            // Balanced: ranges differ by at most one user.
            let sizes: Vec<u32> = cuts.windows(2).map(|w| w[1] - w[0]).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "{num_users} users / {shards} shards: {sizes:?}");
        }
    }

    #[test]
    fn shard_manifest_roundtrip() {
        let manifest = ShardManifest {
            num_users: 1000,
            cuts: shard_cuts(1000, 4),
            fingerprints: vec![1, u64::MAX, 0xdead_beef, 42],
        };
        assert_eq!(manifest.num_shards(), 4);
        let bytes = manifest.encode();
        assert_eq!(ShardManifest::decode(&bytes).unwrap(), manifest);
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(ShardManifest::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn shard_manifest_rejects_inconsistent_splits() {
        let bad = [
            // cuts/fingerprints length mismatch
            ShardManifest { num_users: 10, cuts: vec![0, 10], fingerprints: vec![1, 2] },
            // no shards at all
            ShardManifest { num_users: 10, cuts: vec![0], fingerprints: vec![] },
            // split does not start at 0
            ShardManifest { num_users: 10, cuts: vec![1, 10], fingerprints: vec![1] },
            // split does not end at num_users
            ShardManifest { num_users: 10, cuts: vec![0, 9], fingerprints: vec![1] },
            // non-monotone boundaries
            ShardManifest { num_users: 10, cuts: vec![0, 7, 4, 10], fingerprints: vec![1, 2, 3] },
        ];
        for manifest in bad {
            assert!(ShardManifest::decode(&manifest.encode()).is_err(), "{manifest:?}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let entries: Vec<IlEntry> = vec![(1, vec![2])];
        let mut buf = Vec::new();
        encode_il_entries(&entries, Codec::Raw, &mut buf);
        buf.push(0xff);
        assert!(decode_il_entries(&buf, Codec::Raw).is_err());
    }
}
