//! Structural validation of an on-disk index.
//!
//! [`KbtimIndex::validate`] re-reads every block (checksum-verified) and
//! cross-checks the invariants the query algorithms rely on. It is the
//! "fsck" of the index: run it after copying indexes between machines or
//! when debugging a suspected corruption that the per-block CRCs cannot
//! see (e.g. a truncated catalog pointing at a stale segment).
//!
//! For a sharded index every shard's segments are audited against that
//! shard's own `index.meta` rows (shard-local sizes, members confined to
//! the shard's `[lo, hi)` user range, RR sets allowed to be empty when
//! the shard owns none of their members), the per-shard catalogs are
//! cross-checked against the global one (identical θ_w/tf·idf/OPT rows;
//! member totals summing and list-length maxima folding back to the
//! global row), and the `shards.manifest` fingerprints are recomputed
//! from the segment bytes on disk.

use crate::{build, format};
use crate::{IndexError, KbtimIndex};
use kbtim_storage::segment::SegmentReader;
use kbtim_storage::IoStats;
use std::collections::HashMap;

/// Summary of a successful validation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValidationReport {
    /// Keyword segments with θ_w > 0, counted once per shard.
    pub keywords_checked: u32,
    /// Total RR sets decoded and verified (a set split across S shards
    /// counts once per shard holding a non-empty slice of it).
    pub rr_sets_checked: u64,
    /// Total inverted-list entries verified.
    pub il_entries_checked: u64,
    /// Total IRR partitions verified (0 for the RR variant).
    pub partitions_checked: u64,
    /// Shards audited (1 for the legacy flat layout).
    pub shards_checked: u32,
}

impl KbtimIndex {
    /// Verify every structural invariant of the index. Returns a summary
    /// on success; the first violated invariant aborts with
    /// [`IndexError::Corrupt`].
    pub fn validate(&self) -> Result<ValidationReport, IndexError> {
        let corrupt = |msg: String| IndexError::Corrupt(msg);
        let global = self.meta();
        let codec = global.codec;
        let sharded = self.num_shards() > 1;
        let mut report = ValidationReport::default();

        // --- per-shard catalogs + manifest (sharded layout only) --------
        // Collect the expectation rows each shard's segments are judged
        // against: the shard's own catalog when sharded, the global one
        // for the flat layout.
        let shard_rows: Vec<Vec<format::KeywordMeta>> = if sharded {
            let open_stats = IoStats::new(); // audit I/O is not query I/O
            let manifest_reader = SegmentReader::open(
                self.dir().join(format::SHARD_MANIFEST_FILE),
                open_stats.clone(),
            )?;
            let manifest = format::ShardManifest::decode(
                &manifest_reader.read_block(format::SHARD_MANIFEST_BLOCK)?,
            )?;
            if manifest.num_shards() != self.num_shards() {
                return Err(corrupt(format!(
                    "manifest lists {} shards, index opened {}",
                    manifest.num_shards(),
                    self.num_shards()
                )));
            }
            let mut rows = Vec::with_capacity(self.num_shards());
            for s in 0..self.num_shards() {
                let shard_dir = self.dir().join(format::shard_dir_name(s));
                let reader =
                    SegmentReader::open(shard_dir.join(format::META_FILE), open_stats.clone())?;
                let meta = format::IndexMeta::decode(&reader.read_block(format::META_BLOCK)?)?;
                if meta.num_users != global.num_users
                    || meta.num_topics != global.num_topics
                    || meta.codec != global.codec
                    || meta.variant != global.variant
                    || meta.keywords.len() != global.keywords.len()
                {
                    return Err(corrupt(format!(
                        "shard {s}: catalog header disagrees with the global catalog"
                    )));
                }
                // Shard rows carry the *global* per-keyword statistics
                // (θ_w and the tf·idf mass feed Eqn 11 identically on
                // every shard) next to shard-local segment sizes.
                for (row, grow) in meta.keywords.iter().zip(&global.keywords) {
                    if row.topic != grow.topic
                        || row.theta != grow.theta
                        || row.tf_sum != grow.tf_sum
                        || row.idf != grow.idf
                        || row.opt_w != grow.opt_w
                    {
                        return Err(corrupt(format!(
                            "shard {s}: keyword {} row disagrees with the global catalog",
                            grow.topic
                        )));
                    }
                }
                // Recompute the manifest fingerprint from the bytes on
                // disk — the same (topic, segment-content FNV) fold the
                // builder wrote, so a swapped or reflushed segment that
                // still parses is caught here.
                let mut fp = build::FNV_OFFSET;
                for row in &meta.keywords {
                    let content_fp = if row.theta == 0 {
                        0
                    } else {
                        let path = shard_dir.join(format::keyword_file_name(row.topic));
                        let content = std::fs::read(path)
                            .map_err(kbtim_storage::segment::StorageError::Io)?;
                        build::fnv1a(&content, build::FNV_OFFSET)
                    };
                    fp = build::fnv1a(&row.topic.to_le_bytes(), fp);
                    fp = build::fnv1a(&content_fp.to_le_bytes(), fp);
                }
                if fp != manifest.fingerprints[s] {
                    return Err(corrupt(format!(
                        "shard {s}: segment content does not match the manifest fingerprint"
                    )));
                }
                rows.push(meta.keywords);
            }
            // The shard-local sizes must fold back to the global row:
            // member counts partition across shards, the longest list
            // lives in some shard.
            for (w, grow) in global.keywords.iter().enumerate() {
                let members: u64 = rows.iter().map(|r| r[w].total_rr_members).sum();
                if members != grow.total_rr_members {
                    return Err(corrupt(format!(
                        "topic {}: shards hold {members} members, catalog says {}",
                        grow.topic, grow.total_rr_members
                    )));
                }
                let max_len = rows.iter().map(|r| r[w].max_list_len).max().unwrap_or(0);
                if max_len != grow.max_list_len {
                    return Err(corrupt(format!(
                        "topic {}: shard max list len {max_len}, catalog says {}",
                        grow.topic, grow.max_list_len
                    )));
                }
            }
            rows
        } else {
            vec![global.keywords.clone()]
        };

        // --- per-segment structural checks ------------------------------
        for (shard_idx, shard) in self.shards().iter().enumerate() {
            let (lo, hi) = (shard.lo, shard.hi);
            report.shards_checked += 1;
            for kw in &shard_rows[shard_idx] {
                if kw.theta == 0 {
                    continue;
                }
                let topic = kw.topic;
                let at = if sharded {
                    format!("shard {shard_idx} topic {topic}")
                } else {
                    format!("topic {topic}")
                };
                let reader = self.source_in(shard_idx, topic)?;
                report.keywords_checked += 1;

                // --- rr + rr_off --------------------------------------
                let off_bytes = reader.read_block(format::RR_OFF_BLOCK)?;
                if off_bytes.len() as u64 != (kw.theta + 1) * 8 {
                    return Err(corrupt(format!(
                        "{at}: offset table has {} bytes for theta {}",
                        off_bytes.len(),
                        kw.theta
                    )));
                }
                let offsets: Vec<u64> = off_bytes
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("chunked")))
                    .collect();
                if offsets[0] != 0 || offsets.windows(2).any(|w| w[0] > w[1]) {
                    return Err(corrupt(format!("{at}: offsets not monotone from 0")));
                }
                let rr_bytes = reader.read_block(format::RR_BLOCK)?;
                if *offsets.last().expect("non-empty") != rr_bytes.len() as u64 {
                    return Err(corrupt(format!("{at}: offsets do not span the rr block")));
                }
                let sets = format::decode_rr_prefix(&rr_bytes, kw.theta, codec)?;
                let mut members_total = 0u64;
                for (i, set) in sets.iter().enumerate() {
                    if set.is_empty() {
                        if sharded {
                            continue; // this shard owns none of set i's members
                        }
                        return Err(corrupt(format!("{at}: rr set {i} is empty")));
                    }
                    if set.windows(2).any(|w| w[0] >= w[1]) {
                        return Err(corrupt(format!("{at}: rr set {i} not sorted/unique")));
                    }
                    if *set.first().expect("non-empty") < lo
                        || *set.last().expect("non-empty") >= hi
                    {
                        return Err(corrupt(format!(
                            "{at}: rr set {i} has a node outside [{lo}, {hi})"
                        )));
                    }
                    members_total += set.len() as u64;
                }
                if members_total != kw.total_rr_members {
                    return Err(corrupt(format!(
                        "{at}: catalog says {} members, segment has {members_total}",
                        kw.total_rr_members
                    )));
                }
                report.rr_sets_checked += sets.iter().filter(|s| !s.is_empty()).count() as u64;

                // --- il: exact inverse of the rr sets -----------------
                let il_bytes = reader.read_block(format::IL_BLOCK)?;
                let entries = format::decode_il_entries(&il_bytes, codec)?;
                let mut expected: HashMap<u32, Vec<u32>> = HashMap::new();
                for (id, set) in sets.iter().enumerate() {
                    for &node in set {
                        expected.entry(node).or_default().push(id as u32);
                    }
                }
                if entries.len() != expected.len() {
                    return Err(corrupt(format!(
                        "{at}: il has {} entries, expected {}",
                        entries.len(),
                        expected.len()
                    )));
                }
                let mut max_len = 0u32;
                for (user, list) in &entries {
                    let want = expected
                        .get(user)
                        .ok_or_else(|| corrupt(format!("{at}: il user {user} unknown")))?;
                    if want != list {
                        return Err(corrupt(format!("{at}: il mismatch for user {user}")));
                    }
                    max_len = max_len.max(list.len() as u32);
                }
                if max_len != kw.max_list_len {
                    return Err(corrupt(format!(
                        "{at}: catalog max list len {} vs actual {max_len}",
                        kw.max_list_len
                    )));
                }
                report.il_entries_checked += entries.len() as u64;

                // --- IRR blocks ---------------------------------------
                if let format::IndexVariant::Irr { partition_size } = self.meta().variant {
                    let ip_bytes = reader.read_block(format::IP_BLOCK)?;
                    let (users, firsts) = format::decode_ip(&ip_bytes, codec)?;
                    if users.len() != entries.len() {
                        return Err(corrupt(format!("{at}: ip/il size mismatch")));
                    }
                    for ((user, list), (ip_user, first)) in
                        entries.iter().zip(users.iter().zip(firsts.iter()))
                    {
                        if user != ip_user || list[0] != *first {
                            return Err(corrupt(format!(
                                "{at}: ip first-occurrence mismatch for user {user}"
                            )));
                        }
                    }

                    let pmeta_bytes = reader.read_block(format::PMETA_BLOCK)?;
                    let parts = format::decode_partition_meta(&pmeta_bytes)?;
                    if parts.len() != kw.num_partitions as usize {
                        return Err(corrupt(format!("{at}: partition count mismatch")));
                    }
                    let user_total: u64 = parts.iter().map(|p| p.user_count as u64).sum();
                    if user_total != entries.len() as u64 {
                        return Err(corrupt(format!("{at}: partition users != il users")));
                    }
                    // Only sets this shard holds a slice of are assigned
                    // to a partition (== all θ_w of them when flat).
                    let nonempty = sets.iter().filter(|s| !s.is_empty()).count() as u64;
                    let rr_total: u64 = parts.iter().map(|p| p.rr_count as u64).sum();
                    if rr_total != nonempty {
                        return Err(corrupt(format!(
                            "{at}: partitions cover {rr_total} sets, segment holds {nonempty}"
                        )));
                    }
                    // ilp — the only list block native IRR serves from:
                    // the partitions tile the block, each decodes to the
                    // users its row announces, together they are exactly
                    // the il entries, lengths fall from one partition to
                    // the next, and every kb bound is the longest list
                    // still unloaded.
                    let ilp_len = reader.block_len(format::ILP_BLOCK)?;
                    let mut unfiled: HashMap<u32, &[u32]> =
                        entries.iter().map(|(user, list)| (*user, list.as_slice())).collect();
                    let mut ilp_end = 0u64;
                    let mut shortest_so_far = u32::MAX;
                    let mut bound_owed: Option<u32> = None;
                    for (p, part) in parts.iter().enumerate() {
                        if part.il_start != ilp_end || part.il_end < part.il_start {
                            return Err(corrupt(format!(
                                "{at}: partition {p} does not start where the last one ended"
                            )));
                        }
                        ilp_end = part.il_end;
                        let bytes = reader.read_range(
                            format::ILP_BLOCK,
                            part.il_start,
                            part.il_end - part.il_start,
                        )?;
                        let lists = format::decode_il_entries(&bytes, codec)?;
                        if lists.len() != part.user_count as usize {
                            return Err(corrupt(format!(
                                "{at}: partition {p} decodes {} users, meta says {}",
                                lists.len(),
                                part.user_count
                            )));
                        }
                        if lists.iter().any(|(user, list)| unfiled.remove(user) != Some(&list[..]))
                        {
                            return Err(corrupt(format!(
                                "{at}: partition {p} holds a list the il block does not, or twice"
                            )));
                        }
                        let lens = lists.iter().map(|(_, list)| list.len() as u32);
                        let longest = lens.clone().max().unwrap_or(0);
                        if longest > shortest_so_far || bound_owed.is_some_and(|b| b != longest) {
                            return Err(corrupt(format!(
                                "{at}: partition {p}'s longest list ({longest}) breaks the \
                                 descending order or the previous kb bound"
                            )));
                        }
                        shortest_so_far = lens.min().unwrap_or(0);
                        bound_owed = Some(part.max_len_after);
                    }
                    if ilp_end != ilp_len || bound_owed.is_some_and(|b| b != 0) {
                        return Err(corrupt(format!(
                            "{at}: partitions end at {ilp_end} of {ilp_len} ilp bytes, or the \
                             last kb bound is not 0"
                        )));
                    }
                    if !unfiled.is_empty() {
                        return Err(corrupt(format!(
                            "{at}: {} il lists are in no ilp partition",
                            unfiled.len()
                        )));
                    }

                    let mut seen = vec![false; kw.theta as usize];
                    for (p, part) in parts.iter().enumerate() {
                        if part.user_count == 0 || part.user_count > partition_size {
                            return Err(corrupt(format!(
                                "{at}: partition {p} has {} users (δ = {partition_size})",
                                part.user_count
                            )));
                        }
                        let ir = reader.read_range(
                            format::IRP_BLOCK,
                            part.ir_start,
                            part.ir_end - part.ir_start,
                        )?;
                        let ir_entries = format::decode_ir_entries(&ir, codec, u32::MAX)?;
                        if ir_entries.len() != part.rr_count as usize {
                            return Err(corrupt(format!(
                                "{at}: partition {p} decodes {} sets, meta says {}",
                                ir_entries.len(),
                                part.rr_count
                            )));
                        }
                        for (id, members) in &ir_entries {
                            let id = *id as usize;
                            if id >= seen.len() || seen[id] {
                                return Err(corrupt(format!(
                                    "{at}: rr id {id} out of range or duplicated"
                                )));
                            }
                            seen[id] = true;
                            if members != &sets[id] {
                                return Err(corrupt(format!(
                                    "{at}: partition copy of rr {id} differs from rr block"
                                )));
                            }
                        }
                        report.partitions_checked += 1;
                    }
                    if seen.iter().zip(sets.iter()).any(|(&s, set)| s == set.is_empty()) {
                        return Err(corrupt(format!(
                            "{at}: partition assignment does not match the non-empty rr sets"
                        )));
                    }
                }
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use crate::build::{IndexBuildConfig, IndexBuilder};
    use crate::format::IndexVariant;
    use crate::KbtimIndex;
    use kbtim_core::theta::SamplingConfig;
    use kbtim_datagen::{DatasetConfig, DatasetFamily};
    use kbtim_propagation::model::IcModel;
    use kbtim_storage::{IoStats, TempDir};

    fn build_sharded(dir: &std::path::Path, variant: IndexVariant, shards: usize) {
        let data = DatasetConfig::family(DatasetFamily::News)
            .num_users(400)
            .num_topics(5)
            .seed(61)
            .build();
        let model = IcModel::weighted_cascade(&data.graph);
        let config = IndexBuildConfig {
            sampling: SamplingConfig {
                theta_cap: Some(900),
                opt_initial_samples: 64,
                opt_max_rounds: 5,
                ..SamplingConfig::fast()
            },
            variant,
            shards,
            ..IndexBuildConfig::default()
        };
        IndexBuilder::new(&model, &data.profiles, config).build(dir).unwrap();
    }

    fn build(dir: &std::path::Path, variant: IndexVariant) {
        build_sharded(dir, variant, 1)
    }

    #[test]
    fn fresh_irr_index_validates() {
        let dir = TempDir::new("validate-irr").unwrap();
        build(dir.path(), IndexVariant::Irr { partition_size: 16 });
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        let report = index.validate().unwrap();
        assert!(report.keywords_checked > 0);
        assert!(report.rr_sets_checked > 0);
        assert!(report.il_entries_checked > 0);
        assert!(report.partitions_checked > 0);
        assert_eq!(report.shards_checked, 1);
    }

    #[test]
    fn fresh_rr_index_validates() {
        let dir = TempDir::new("validate-rr").unwrap();
        build(dir.path(), IndexVariant::Rr);
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        let report = index.validate().unwrap();
        assert!(report.keywords_checked > 0);
        assert_eq!(report.partitions_checked, 0);
    }

    #[test]
    fn fresh_sharded_index_validates() {
        let dir = TempDir::new("validate-sharded").unwrap();
        build_sharded(dir.path(), IndexVariant::Irr { partition_size: 16 }, 4);
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        let report = index.validate().unwrap();
        assert_eq!(report.shards_checked, 4);
        assert!(report.keywords_checked > 0);
        // A set splitting across shards is checked once per slice (≥ the
        // flat count), while IL entries partition exactly across shards.
        let flat_dir = TempDir::new("validate-sharded-flat").unwrap();
        build(flat_dir.path(), IndexVariant::Irr { partition_size: 16 });
        let flat = KbtimIndex::open(flat_dir.path(), IoStats::new()).unwrap();
        let flat_report = flat.validate().unwrap();
        assert!(report.rr_sets_checked >= flat_report.rr_sets_checked);
        assert_eq!(report.il_entries_checked, flat_report.il_entries_checked);
    }

    #[test]
    fn sharded_bit_flips_fail_validation() {
        let dir = TempDir::new("validate-sharded-flip").unwrap();
        build_sharded(dir.path(), IndexVariant::Irr { partition_size: 16 }, 2);
        // Corrupt one byte of one shard's keyword segment payload.
        let shard_dir = dir.path().join(crate::format::shard_dir_name(1));
        let victim = std::fs::read_dir(&shard_dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.file_name().unwrap().to_string_lossy().starts_with("kw_"))
            .unwrap();
        let mut bytes = std::fs::read(&victim).unwrap();
        let target = bytes.len() / 3;
        bytes[target] ^= 0x40;
        std::fs::write(&victim, &bytes).unwrap();
        match KbtimIndex::open(dir.path(), IoStats::new()) {
            Err(_) => {} // directory/footer damage: also acceptable
            Ok(index) => {
                assert!(index.validate().is_err(), "validation must catch the flip");
            }
        }
    }

    #[test]
    fn swapped_shard_segment_fails_validation() {
        // Swap two shards' copies of the same keyword: every block still
        // parses and is internally consistent, but members land outside
        // the owning shard's range and the manifest fingerprint breaks.
        let dir = TempDir::new("validate-shard-swap").unwrap();
        build_sharded(dir.path(), IndexVariant::Rr, 2);
        let a = dir.path().join(crate::format::shard_dir_name(0));
        let b = dir.path().join(crate::format::shard_dir_name(1));
        let victim = std::fs::read_dir(&a)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.file_name().unwrap().to_string_lossy().starts_with("kw_"))
            .unwrap();
        let name = victim.file_name().unwrap().to_owned();
        let tmp = dir.path().join("swap.tmp");
        std::fs::rename(a.join(&name), &tmp).unwrap();
        std::fs::rename(b.join(&name), a.join(&name)).unwrap();
        std::fs::rename(&tmp, b.join(&name)).unwrap();
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        assert!(index.validate().is_err(), "validation must catch the swap");
    }

    /// Rewrite `path` with `edit` applied to the payload of `block`; the
    /// writer recomputes every CRC, so only `validate` can notice.
    fn rewrite_block(path: &std::path::Path, block: &str, edit: impl Fn(&mut Vec<u8>)) {
        use kbtim_storage::segment::{SegmentReader, SegmentWriter};
        let reader = SegmentReader::open(path, IoStats::new()).unwrap();
        let payloads: Vec<(String, Vec<u8>)> = reader
            .blocks()
            .into_iter()
            .map(|info| {
                let mut bytes = reader.read_block(&info.name).unwrap();
                if info.name == block {
                    edit(&mut bytes);
                }
                (info.name, bytes)
            })
            .collect();
        drop(reader);
        let mut writer = SegmentWriter::create(path).unwrap();
        for (name, bytes) in &payloads {
            writer.write_block(name, bytes).unwrap();
        }
        writer.finish().unwrap();
    }

    #[test]
    fn a_flipped_ilp_byte_behind_a_good_crc_fails_validation() {
        // ilp is what native IRR serves from, and nothing else in the
        // segment is derived from its bytes: only decoding it can tell.
        let dir = TempDir::new("validate-ilp").unwrap();
        build(dir.path(), IndexVariant::Irr { partition_size: 16 });
        let victim = dir.path().join(crate::format::keyword_file_name(0));
        let ilp_len = {
            let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
            index.validate().unwrap();
            index.source(0).unwrap().block_len(crate::format::ILP_BLOCK).unwrap() as usize
        };
        let pristine = std::fs::read(&victim).unwrap();
        for at in [0, 1, ilp_len / 3, ilp_len / 2, ilp_len - 1] {
            for bit in [0x01u8, 0x10, 0x80] {
                std::fs::write(&victim, &pristine).unwrap();
                rewrite_block(&victim, crate::format::ILP_BLOCK, |bytes| bytes[at] ^= bit);
                let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
                assert!(index.validate().is_err(), "ilp byte {at} ^ {bit:#x} went unnoticed");
            }
        }
        std::fs::write(&victim, &pristine).unwrap();
        rewrite_block(&victim, crate::format::ILP_BLOCK, |_| {});
        KbtimIndex::open(dir.path(), IoStats::new()).unwrap().validate().unwrap();
    }

    #[test]
    fn bit_flips_fail_validation() {
        let dir = TempDir::new("validate-flip").unwrap();
        build(dir.path(), IndexVariant::Irr { partition_size: 16 });
        // Corrupt one keyword segment payload byte (past the header).
        let victim = std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.file_name().unwrap().to_string_lossy().starts_with("kw_"))
            .unwrap();
        let mut bytes = std::fs::read(&victim).unwrap();
        let target = bytes.len() / 3;
        bytes[target] ^= 0x40;
        std::fs::write(&victim, &bytes).unwrap();
        match KbtimIndex::open(dir.path(), IoStats::new()) {
            Err(_) => {} // directory/footer damage: also acceptable
            Ok(index) => {
                assert!(index.validate().is_err(), "validation must catch the flip");
            }
        }
    }
}
