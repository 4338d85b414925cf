//! Serving-tier equivalence gates for the zero-copy `BlockSource` path.
//!
//! The refactor's contract is absolute: which backend serves the bytes
//! (positioned file reads or an mmap mapping)
//! and how many worker threads decode them must be *unobservable* in
//! query answers. These property tests pin that down:
//!
//! 1. `query_rr` / `query_irr` seeds, marginal gains, coverage and θ^Q
//!    are bit-identical across every `ServingMode` × thread count, and
//!    across repeated queries on one index (scratch-pool reuse must not
//!    leak state between queries);
//! 2. a flipped payload byte is rejected by CRC on every backend,
//!    including the zero-copy ones that verify lazily on first access;
//! 3. zero-copy backends report their accesses as `cache_hits` /
//!    `bytes_served`, never as silent zero-I/O queries.

use kbtim::core::theta::SamplingConfig;
use kbtim::datagen::{DatasetConfig, DatasetFamily};
use kbtim::index::{
    Algo, EngineRequest, IndexBuildConfig, IndexBuilder, IndexError, IndexVariant, KbtimIndex,
    QueryEngine, ServingMode, ThetaMode,
};
use kbtim::propagation::model::IcModel;
use kbtim::storage::block::all_modes;
use kbtim::storage::segment::SegmentWriter;
use kbtim::storage::{BlockSource, IoStats, TempDir};
use kbtim::topics::Query;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

const NUM_TOPICS: u32 = 6;

/// One IRR index on disk, opened through every backend × thread count,
/// plus a plain engine (flat, unbatched, no cache) per backend × thread
/// count and, per backend, the batch planner without a merge cache
/// (groups served in place) and with one (served in place, then
/// materialized, published and hit).
struct Fixture {
    _dir: TempDir,
    indexes: Vec<(ServingMode, usize, KbtimIndex)>,
    engines: Vec<(ServingMode, usize, QueryEngine)>,
    planners: Vec<(ServingMode, usize, QueryEngine)>,
}

fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| {
        let data = DatasetConfig::family(DatasetFamily::News)
            .num_users(500)
            .num_topics(NUM_TOPICS)
            .seed(77)
            .build();
        let model = IcModel::weighted_cascade(&data.graph);
        let config = IndexBuildConfig {
            sampling: SamplingConfig {
                theta_cap: Some(1_500),
                opt_initial_samples: 64,
                opt_max_rounds: 5,
                ..SamplingConfig::fast()
            },
            theta_mode: ThetaMode::Compact,
            variant: IndexVariant::Irr { partition_size: 16 },
            threads: 4,
            seed: 13,
            ..IndexBuildConfig::default()
        };
        let dir = TempDir::new("serving-equiv").unwrap();
        IndexBuilder::new(&model, &data.profiles, config).build(dir.path()).unwrap();

        let mut indexes = Vec::new();
        let mut engines = Vec::new();
        let mut planners = Vec::new();
        for mode in all_modes() {
            for threads in [1usize, 4] {
                let index = KbtimIndex::open_with(dir.path(), IoStats::new(), mode)
                    .unwrap()
                    .with_threads(Some(threads));
                engines.push((mode, threads, QueryEngine::new(Arc::new(index))));
            }
            for threads in [1usize, 8] {
                let index = KbtimIndex::open_with(dir.path(), IoStats::new(), mode)
                    .unwrap()
                    .with_threads(Some(threads));
                indexes.push((mode, threads, index));
            }
            let shared = Arc::new(KbtimIndex::open_with(dir.path(), IoStats::new(), mode).unwrap());
            for cache in [0usize, 8] {
                let engine = QueryEngine::new(Arc::clone(&shared))
                    .with_batch_window(Some(Duration::from_micros(100)))
                    .with_merge_cache(cache);
                planners.push((mode, cache, engine));
            }
        }
        Fixture { _dir: dir, indexes, engines, planners }
    })
}

proptest! {
    #[test]
    fn backends_and_threads_bit_identical(
        raw_topics in proptest::collection::vec(0u32..NUM_TOPICS, 1..4),
        k in 1u32..16,
    ) {
        let fx = fixture();
        let mut topics = raw_topics;
        topics.sort_unstable();
        topics.dedup();
        let query = Query::new(topics, k);

        // Baseline: file backend, one thread.
        let (_, _, baseline) = &fx.indexes[0];
        let rr = baseline.query_rr(&query).unwrap();
        let irr = baseline.query_irr(&query).unwrap();
        prop_assert_eq!(&rr.seeds, &irr.seeds, "Theorem 3 on the baseline");

        for (mode, threads, index) in &fx.indexes {
            // Two rounds: the second runs entirely on pooled scratch, so
            // any state leaking between queries would diverge here.
            for round in 0..2 {
                let r = index.query_rr(&query).unwrap();
                prop_assert_eq!(&r.seeds, &rr.seeds, "rr {} t{} round {}", mode, threads, round);
                prop_assert_eq!(&r.marginal_gains, &rr.marginal_gains);
                prop_assert_eq!(r.coverage, rr.coverage);
                prop_assert_eq!(r.stats.theta_q, rr.stats.theta_q);
                prop_assert_eq!(r.stats.rr_sets_loaded, rr.stats.rr_sets_loaded);

                let i = index.query_irr(&query).unwrap();
                prop_assert_eq!(&i.seeds, &irr.seeds, "irr {} t{} round {}", mode, threads, round);
                prop_assert_eq!(&i.marginal_gains, &irr.marginal_gains);
                prop_assert_eq!(i.coverage, irr.coverage);
                prop_assert_eq!(i.stats.rr_sets_loaded, irr.stats.rr_sets_loaded);
                prop_assert_eq!(i.stats.partitions_loaded, irr.stats.partitions_loaded);
            }
        }

        // A request the engine runs alone: `irr` and `auto` go through
        // the one disk pipeline and still return Algorithm 4's answer
        // and Algorithm 2's, bit for bit.
        for (mode, threads, engine) in &fx.engines {
            for algo in [Algo::Irr, Algo::Auto] {
                let request = EngineRequest { topics: query.topics().to_vec(), k, algo };
                let got = engine.query(&request).unwrap();
                for want in [&irr, &rr] {
                    prop_assert_eq!(&got.seeds, &want.seeds, "engine {} {} t{}", algo, mode, threads);
                    prop_assert_eq!(&got.marginal_gains, &want.marginal_gains);
                    prop_assert_eq!(got.coverage, want.coverage);
                    prop_assert_eq!(
                        got.estimated_influence.to_bits(),
                        want.estimated_influence.to_bits()
                    );
                }
                prop_assert_eq!(got.stats.rr_sets_loaded, got.stats.theta_q);
                prop_assert_eq!(got.stats.partitions_loaded, 0);
            }
        }

        // The batch planner: one window of three requests over the
        // keyword set (one group, one greedy at the deepest k, the
        // shallower answers its prefixes) — served in place without a
        // merge cache, from a materialized instance with one.
        let deep = baseline.query_rr(&Query::new(query.topics().iter().copied(), k + 5)).unwrap();
        let request = |algo, k| {
            (EngineRequest { topics: query.topics().to_vec(), k, algo }, None)
        };
        let window = [request(Algo::Rr, k), request(Algo::Irr, k), request(Algo::Auto, k + 5)];
        for (mode, cache, engine) in &fx.planners {
            for (got, want) in engine.query_window(&window).into_iter().zip([&rr, &rr, &deep]) {
                let got = got.unwrap();
                prop_assert_eq!(&got.seeds, &want.seeds, "planner {} cache {}", mode, cache);
                prop_assert_eq!(&got.marginal_gains, &want.marginal_gains);
                prop_assert_eq!(got.coverage, want.coverage);
                prop_assert_eq!(got.stats.theta_q, want.stats.theta_q);
                prop_assert_eq!(
                    got.estimated_influence.to_bits(),
                    want.estimated_influence.to_bits()
                );
            }
        }
    }

    #[test]
    fn flipped_payload_byte_rejected_on_every_backend(
        blocks in proptest::collection::vec(
            proptest::collection::vec(0u8..255, 1..64),
            1..4,
        ),
        target in any::<proptest::sample::Index>(),
        victim_byte in any::<proptest::sample::Index>(),
    ) {
        // Write the blocks as a segment, flip one payload byte of one
        // block, then demand a CRC rejection from every backend.
        let dir = TempDir::new("serving-crc").unwrap();
        let path = dir.path().join("seg.bin");
        let mut writer = SegmentWriter::create(&path).unwrap();
        for (i, data) in blocks.iter().enumerate() {
            writer.write_block(&format!("b{i}"), data).unwrap();
        }
        writer.finish().unwrap();

        let victim = target.index(blocks.len());
        let byte_in_block = victim_byte.index(blocks[victim].len());
        // Blocks are written back to back after the 16-byte header.
        let flip_at = 16 + blocks[..victim].iter().map(Vec::len).sum::<usize>() + byte_in_block;
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[flip_at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        for mode in all_modes() {
            let source = BlockSource::open(&path, IoStats::new(), mode).unwrap();
            prop_assert!(
                source.read_block(&format!("b{victim}")).is_err(),
                "{} must reject the flipped block", mode
            );
            // Untouched blocks still serve on every backend.
            for (i, data) in blocks.iter().enumerate() {
                if i != victim {
                    prop_assert_eq!(&*source.read_block(&format!("b{i}")).unwrap(), &data[..]);
                }
            }
        }
    }
}

#[test]
fn corrupted_index_segment_caught_on_every_backend() {
    // Index-level twin of the proptest above: one flipped byte in a
    // keyword segment must surface through open or validate, whatever
    // backend serves the pages.
    let data =
        DatasetConfig::family(DatasetFamily::News).num_users(300).num_topics(4).seed(41).build();
    let model = IcModel::weighted_cascade(&data.graph);
    let config = IndexBuildConfig {
        sampling: SamplingConfig {
            theta_cap: Some(600),
            opt_initial_samples: 64,
            opt_max_rounds: 4,
            ..SamplingConfig::fast()
        },
        variant: IndexVariant::Irr { partition_size: 16 },
        ..IndexBuildConfig::default()
    };
    let dir = TempDir::new("serving-flip").unwrap();
    IndexBuilder::new(&model, &data.profiles, config).build(dir.path()).unwrap();
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

    for mode in all_modes() {
        match KbtimIndex::open_with(dir.path(), IoStats::new(), mode) {
            Err(_) => {} // directory/footer damage: also acceptable
            Ok(index) => {
                assert!(index.validate().is_err(), "{mode}: validation must catch the flip");
            }
        }
    }
}

#[test]
fn engine_irr_needs_an_irr_index_and_auto_never_does() {
    let data =
        DatasetConfig::family(DatasetFamily::News).num_users(300).num_topics(4).seed(43).build();
    let model = IcModel::weighted_cascade(&data.graph);
    let config = IndexBuildConfig {
        sampling: SamplingConfig {
            theta_cap: Some(600),
            opt_initial_samples: 64,
            opt_max_rounds: 4,
            ..SamplingConfig::fast()
        },
        variant: IndexVariant::Rr,
        ..IndexBuildConfig::default()
    };
    let dir = TempDir::new("serving-rr-variant").unwrap();
    IndexBuilder::new(&model, &data.profiles, config).build(dir.path()).unwrap();
    for mode in all_modes() {
        let index = Arc::new(KbtimIndex::open_with(dir.path(), IoStats::new(), mode).unwrap());
        let want = index.query_rr(&Query::new([0, 1], 6)).unwrap();
        let engine = QueryEngine::new(index);
        let err = engine.query(&EngineRequest::new([0, 1], 6).with_algo(Algo::Irr)).unwrap_err();
        assert!(matches!(err.index_error(), IndexError::NotAnIrrIndex), "{mode}: {err}");
        let auto = engine.query(&EngineRequest::new([0, 1], 6)).unwrap();
        assert_eq!(auto.seeds, want.seeds, "{mode}");
        assert_eq!(auto.estimated_influence.to_bits(), want.estimated_influence.to_bits());
    }
}

#[test]
fn zero_copy_backends_report_hits_not_reads() {
    let fx = fixture();
    let query = Query::new([0, 1], 5);
    for (mode, _, index) in &fx.indexes {
        let rr = index.query_rr(&query).unwrap();
        let irr = index.query_irr(&query).unwrap();
        match mode {
            ServingMode::File => {
                assert!(rr.stats.io.read_ops > 0, "file rr must count reads");
                assert!(irr.stats.io.read_ops > 0, "file irr must count reads");
                assert_eq!(rr.stats.io.cache_hits, 0);
                assert_eq!(rr.stats.io.bytes_served, 0);
            }
            ServingMode::Mmap => {
                assert_eq!(rr.stats.io.read_ops, 0, "{mode}: zero-copy must not count reads");
                assert_eq!(rr.stats.io.bytes_read, 0, "{mode}");
                assert!(rr.stats.io.cache_hits > 0, "{mode}: hits must be recorded");
                assert!(rr.stats.io.bytes_served > 0, "{mode}");
                assert!(irr.stats.io.cache_hits > 0, "{mode}");
            }
        }
    }
}

#[test]
fn resident_footprint_reported_per_mode() {
    let fx = fixture();
    for (mode, _, index) in &fx.indexes {
        match mode {
            ServingMode::File => assert_eq!(index.resident_bytes(), 0),
            _ => {
                // Arena/mapping size equals the keyword segments on disk
                // (the catalog is not kept resident).
                let segs = index.disk_bytes().unwrap()
                    - std::fs::metadata(index.dir().join("index.meta")).unwrap().len();
                assert_eq!(index.resident_bytes(), segs, "{mode}");
            }
        }
        assert_eq!(index.serving_mode(), *mode);
    }
}
