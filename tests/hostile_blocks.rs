//! Hostile inverted-list blocks behind good CRCs: an `il` / `ilp` block
//! that names a user outside the universe, or the same user twice, is
//! rewritten into a keyword segment with every checksum recomputed — so
//! only the decoders and the query paths can notice. Every surface must
//! answer with a structured error, never a panic: `query_rr`,
//! `query_irr`, the batched engine with and without a merge cache,
//! `KbtimIndex::validate` and `kbtim validate`.

use kbtim::codec::{varint, Codec};
use kbtim::core::theta::SamplingConfig;
use kbtim::datagen::{DatasetConfig, DatasetFamily};
use kbtim::index::format::{self, IlEntry, IndexVariant};
use kbtim::index::{
    Algo, EngineRequest, IndexBuildConfig, IndexBuilder, IndexError, KbtimIndex, QueryEngine,
    ThetaMode,
};
use kbtim::propagation::model::IcModel;
use kbtim::storage::segment::{SegmentReader, SegmentWriter};
use kbtim::storage::{IoStats, TempDir};
use kbtim::topics::Query;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

const NUM_USERS: u32 = 400;
const VICTIM: u32 = 1;

fn build_index(dir: &Path) {
    let data = DatasetConfig::family(DatasetFamily::News)
        .num_users(NUM_USERS)
        .num_topics(4)
        .seed(23)
        .build();
    let model = IcModel::weighted_cascade(&data.graph);
    let config = IndexBuildConfig {
        sampling: SamplingConfig {
            theta_cap: Some(500),
            opt_initial_samples: 64,
            opt_max_rounds: 4,
            ..SamplingConfig::fast()
        },
        theta_mode: ThetaMode::Compact,
        variant: IndexVariant::Irr { partition_size: 16 },
        threads: 2,
        seed: 5,
        ..IndexBuildConfig::default()
    };
    IndexBuilder::new(&model, &data.profiles, config).build(dir).unwrap();
}

/// Rewrite the segment at `path` through `edit`, which sees every block
/// payload by name; the writer recomputes every CRC.
fn rewrite_segment(path: &Path, edit: impl FnOnce(&mut Vec<(String, Vec<u8>)>)) {
    let reader = SegmentReader::open(path, IoStats::new()).unwrap();
    let mut payloads: Vec<(String, Vec<u8>)> = reader
        .blocks()
        .into_iter()
        .map(|info| {
            let bytes = reader.read_block(&info.name).unwrap();
            (info.name, bytes)
        })
        .collect();
    drop(reader);
    edit(&mut payloads);
    let mut writer = SegmentWriter::create(path).unwrap();
    for (name, bytes) in &payloads {
        writer.write_block(name, bytes).unwrap();
    }
    writer.finish().unwrap();
}

fn payload<'a>(payloads: &'a mut [(String, Vec<u8>)], block: &str) -> &'a mut Vec<u8> {
    &mut payloads.iter_mut().find(|(name, _)| name == block).expect("block present").1
}

/// The columnar block of `entries` as the encoder would write it, minus
/// its refusals: users need not ascend.
fn encode_unchecked(entries: &[IlEntry], codec: Codec) -> Vec<u8> {
    let mut out = Vec::new();
    let n_ids: usize = entries.iter().map(|(_, list)| list.len()).sum();
    varint::write_u32(entries.len() as u32, &mut out);
    varint::write_u32(n_ids as u32, &mut out);
    let mut prev = 0u32;
    codec.encode_stream(
        entries.iter().map(|&(user, _)| {
            let gap = user - prev;
            prev = user;
            gap
        }),
        &mut out,
    );
    codec.encode_stream(
        entries.iter().flat_map(|(_, list)| {
            list.iter().enumerate().map(|(i, &id)| match i {
                0 => id << 1 | 1,
                _ => (id - list[i - 1]) << 1,
            })
        }),
        &mut out,
    );
    out
}

#[derive(Clone, Copy, Debug)]
enum Fault {
    /// The last user of the block becomes `NUM_USERS + 7`.
    OutOfUniverse,
    /// The second user of the block becomes the first again.
    Duplicate,
}

fn hostile(bytes: &[u8], codec: Codec, fault: Fault) -> Vec<u8> {
    let mut entries = format::decode_il_entries(bytes, codec).unwrap();
    assert!(entries.len() >= 2, "fixture block too small to corrupt");
    match fault {
        Fault::OutOfUniverse => entries.last_mut().unwrap().0 = NUM_USERS + 7,
        Fault::Duplicate => entries[1].0 = entries[0].0,
    }
    encode_unchecked(&entries, codec)
}

/// Corrupt the victim keyword's `il` block.
fn corrupt_il(segment: &Path, codec: Codec, fault: Fault) {
    rewrite_segment(segment, |payloads| {
        let il = payload(payloads, format::IL_BLOCK);
        *il = hostile(il, codec, fault);
    });
}

/// Corrupt the first partition of the victim keyword's `ilp` block,
/// moving every later partition's byte range with it.
fn corrupt_ilp(segment: &Path, codec: Codec, fault: Fault) {
    rewrite_segment(segment, |payloads| {
        let mut parts =
            format::decode_partition_meta(payload(payloads, format::PMETA_BLOCK)).unwrap();
        let first_end = parts[0].il_end as usize;
        let ilp = payload(payloads, format::ILP_BLOCK);
        let bad = hostile(&ilp[..first_end], codec, fault);
        let grew = bad.len() as i64 - first_end as i64;
        ilp.splice(..first_end, bad);
        for (p, part) in parts.iter_mut().enumerate() {
            if p > 0 {
                part.il_start = (part.il_start as i64 + grew) as u64;
            }
            part.il_end = (part.il_end as i64 + grew) as u64;
        }
        let pmeta = payload(payloads, format::PMETA_BLOCK);
        pmeta.clear();
        format::encode_partition_meta(&parts, pmeta);
    });
}

fn assert_corrupt<T>(result: Result<T, IndexError>, what: &str) {
    match result {
        Err(IndexError::Corrupt(_)) => {}
        Err(other) => panic!("{what}: expected a corrupt-index error, got {other}"),
        Ok(_) => panic!("{what}: the hostile block went unnoticed"),
    }
}

fn engine_error(engine: &QueryEngine, req: &EngineRequest, what: &str) {
    match engine.query(req) {
        Err(e) => {
            assert!(matches!(e.index_error(), IndexError::Corrupt(_)), "{what}: {e}");
            assert!(!e.to_string().contains("panicked"), "{what}: {e}");
        }
        Ok(_) => panic!("{what}: the hostile block went unnoticed"),
    }
}

fn cli_validate_fails(dir: &Path, what: &str) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_kbtim"))
        .args(["validate", "--index", dir.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{what}: kbtim validate passed");
    assert!(stderr.contains("corrupt"), "{what}: {stderr}");
    assert!(!stderr.contains("panicked"), "{what}: {stderr}");
}

#[test]
fn hostile_inverted_lists_are_structured_errors_everywhere() {
    let dir = TempDir::new("hostile-blocks").unwrap();
    build_index(dir.path());
    let segment = dir.path().join(format::keyword_file_name(VICTIM));
    let pristine = std::fs::read(&segment).unwrap();
    let open = || KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
    let codec = open().meta().codec;
    let touching = Query::new([0, VICTIM], 6);
    let clear = Query::new([0, 2], 6);
    let healthy = open().query_rr(&touching).unwrap();
    assert_eq!(open().query_irr(&touching).unwrap().seeds, healthy.seeds);
    let request = |algo| EngineRequest::new([0, VICTIM], 6).with_algo(algo);
    let batched = |cache: usize| {
        QueryEngine::new(Arc::new(open()))
            .with_batch_window(Some(Duration::from_micros(100)))
            .with_merge_cache(cache)
    };

    for fault in [Fault::OutOfUniverse, Fault::Duplicate] {
        // il: Algorithm 2 and everything lowered to it.
        std::fs::write(&segment, &pristine).unwrap();
        corrupt_il(&segment, codec, fault);
        let what = format!("il {fault:?}");
        let index = open();
        assert_corrupt(index.query_rr(&touching), &what);
        assert_corrupt(index.validate(), &what);
        // Native IRR never reads `il`; keywords beside the victim serve.
        assert_eq!(index.query_irr(&touching).unwrap().seeds, healthy.seeds, "{what}");
        index.query_rr(&clear).unwrap();
        for cache in [0, 4] {
            let engine = batched(cache);
            for algo in [Algo::Rr, Algo::Irr, Algo::Auto] {
                // Twice: whatever the first request left in the cache —
                // a seen keyword set, lists that decoded but name a
                // user outside the universe — must not let the repeat
                // through.
                for attempt in ["first", "repeat"] {
                    let what = format!("{what}, batched, cache {cache}, {attempt}");
                    engine_error(&engine, &request(algo), &what);
                }
            }
            engine.query(&EngineRequest::new([0, 2], 6).with_algo(Algo::Rr)).unwrap();
        }
        for algo in [Algo::Rr, Algo::Irr, Algo::Auto] {
            engine_error(&QueryEngine::new(Arc::new(open())), &request(algo), &what);
        }
        cli_validate_fails(dir.path(), &what);

        // ilp: Algorithm 4's partitions.
        std::fs::write(&segment, &pristine).unwrap();
        corrupt_ilp(&segment, codec, fault);
        let what = format!("ilp {fault:?}");
        let index = open();
        assert_corrupt(index.query_irr(&touching), &what);
        assert_corrupt(index.validate(), &what);
        assert_eq!(index.query_rr(&touching).unwrap().seeds, healthy.seeds, "{what}");
        index.query_irr(&clear).unwrap();
        // Serving never reads `ilp`: the engine's `irr` is the keyword
        // scan over `il`, and answers.
        let served = QueryEngine::new(Arc::new(open())).query(&request(Algo::Irr)).unwrap();
        assert_eq!(served.seeds, healthy.seeds, "{what}");
        cli_validate_fails(dir.path(), &what);
    }

    // The rewrite itself is faithful: an untouched round trip serves.
    std::fs::write(&segment, &pristine).unwrap();
    rewrite_segment(&segment, |_| {});
    let index = open();
    index.validate().unwrap();
    assert_eq!(index.query_rr(&touching).unwrap().seeds, healthy.seeds);
    assert_eq!(index.query_irr(&touching).unwrap().seeds, healthy.seeds);
}
