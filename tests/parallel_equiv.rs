//! Parallel ≡ sequential equivalence for the refactored execution layer.
//!
//! The deterministic-sharding contract (see `kbtim-exec`): every sampling
//! and coverage path must return **bit-identical** results for any
//! `threads` setting, because work shards, per-shard RNG streams, and
//! merge order depend only on the problem size and the seed — never on
//! the thread count.

use kbtim::core::maxcover::{greedy_max_cover_batch, greedy_max_cover_naive};
use kbtim::core::ris::ris_query;
use kbtim::core::wris::wris_query;
use kbtim::core::SamplingConfig;
use kbtim::datagen::{Dataset, DatasetConfig, DatasetFamily};
use kbtim::index::{IndexBuildConfig, IndexBuilder, IndexVariant, KbtimIndex, ThetaMode};
use kbtim::propagation::model::IcModel;
use kbtim::propagation::sample_batch;
use kbtim::storage::{IoStats, TempDir};
use kbtim::topics::Query;
use kbtim_codec::Codec;
use kbtim_exec::ExecPool;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn dataset() -> Dataset {
    DatasetConfig::family(DatasetFamily::News).num_users(700).num_topics(8).seed(123).build()
}

fn config_with_threads(threads: usize) -> SamplingConfig {
    SamplingConfig {
        theta_cap: Some(6_000),
        opt_initial_samples: 128,
        opt_max_rounds: 8,
        threads: Some(threads),
        ..SamplingConfig::fast()
    }
}

#[test]
fn wris_query_identical_for_1_vs_8_threads() {
    let data = dataset();
    let model = IcModel::weighted_cascade(&data.graph);
    let query = Query::new([0, 1, 2], 10);

    let mut rng = SmallRng::seed_from_u64(42);
    let single = wris_query(&model, &data.profiles, &query, &config_with_threads(1), &mut rng);
    assert!(!single.seeds.is_empty());

    let mut rng = SmallRng::seed_from_u64(42);
    let parallel = wris_query(&model, &data.profiles, &query, &config_with_threads(8), &mut rng);

    assert_eq!(single.seeds, parallel.seeds, "seed sets must match bit-for-bit");
    assert_eq!(single.marginal_gains, parallel.marginal_gains);
    assert_eq!(single.coverage, parallel.coverage);
    assert_eq!(single.theta, parallel.theta);
    // f64s must be *identical*, not merely close: both runs consumed the
    // same RNG draws in the same order.
    assert_eq!(single.opt_estimate.to_bits(), parallel.opt_estimate.to_bits());
    assert_eq!(single.estimated_influence.to_bits(), parallel.estimated_influence.to_bits());
}

#[test]
fn ris_query_identical_for_1_vs_8_threads() {
    let data = dataset();
    let model = IcModel::weighted_cascade(&data.graph);

    let mut rng = SmallRng::seed_from_u64(7);
    let single = ris_query(&model, 12, &config_with_threads(1), &mut rng);
    assert!(!single.seeds.is_empty());

    let mut rng = SmallRng::seed_from_u64(7);
    let parallel = ris_query(&model, 12, &config_with_threads(8), &mut rng);

    assert_eq!(single, parallel, "RIS must be thread-count invariant");
}

fn build_index(data: &Dataset, dir: &std::path::Path, build_threads: usize) {
    let model = IcModel::weighted_cascade(&data.graph);
    let config = IndexBuildConfig {
        sampling: SamplingConfig {
            theta_cap: Some(2_500),
            opt_initial_samples: 96,
            opt_max_rounds: 6,
            ..SamplingConfig::fast()
        },
        codec: Codec::Packed,
        theta_mode: ThetaMode::Compact,
        variant: IndexVariant::Irr { partition_size: 24 },
        threads: build_threads,
        seed: 55,
        shards: 1,
    };
    IndexBuilder::new(&model, &data.profiles, config).build(dir).unwrap();
}

#[test]
fn query_rr_identical_for_1_vs_8_threads() {
    let data = dataset();
    let dir = TempDir::new("par-eq-rr").unwrap();
    build_index(&data, dir.path(), 4);

    let mut single = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
    single.set_threads(Some(1));
    let parallel = KbtimIndex::open(dir.path(), IoStats::new()).unwrap().with_threads(Some(8));

    for q in [Query::new([0, 1], 8), Query::new([0, 1, 2, 3], 15), Query::new([2], 3)] {
        let a = single.query_rr(&q).unwrap();
        let b = parallel.query_rr(&q).unwrap();
        assert_eq!(a.seeds, b.seeds, "query {q:?}");
        assert_eq!(a.marginal_gains, b.marginal_gains, "query {q:?}");
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.stats.theta_q, b.stats.theta_q);
        assert_eq!(a.stats.rr_sets_loaded, b.stats.rr_sets_loaded);
        assert_eq!(a.estimated_influence.to_bits(), b.estimated_influence.to_bits());
    }
}

#[test]
fn query_irr_identical_for_1_vs_8_threads() {
    let data = dataset();
    let dir = TempDir::new("par-eq-irr").unwrap();
    build_index(&data, dir.path(), 4);

    let mut single = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
    single.set_threads(Some(1));
    let parallel = KbtimIndex::open(dir.path(), IoStats::new()).unwrap().with_threads(Some(8));

    for q in [Query::new([0, 1], 6), Query::new([1, 2, 3], 10)] {
        let a = single.query_irr(&q).unwrap();
        let b = parallel.query_irr(&q).unwrap();
        assert_eq!(a.seeds, b.seeds, "query {q:?}");
        assert_eq!(a.marginal_gains, b.marginal_gains);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.stats.rr_sets_loaded, b.stats.rr_sets_loaded);
        assert_eq!(a.stats.partitions_loaded, b.stats.partitions_loaded);
    }
}

#[test]
fn index_build_identical_for_1_vs_8_threads_with_batched_sampler() {
    // Build twice with different thread counts and compare segment bytes;
    // this specifically exercises the batched `sample_batch` path inside
    // `build_keyword`.
    let data = dataset();
    let mut digests: Vec<Vec<(String, Vec<u8>)>> = Vec::new();
    for threads in [1usize, 8] {
        let dir = TempDir::new("par-eq-build").unwrap();
        build_index(&data, dir.path(), threads);
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| {
                (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).unwrap())
            })
            .collect();
        files.sort();
        digests.push(files);
    }
    assert_eq!(digests[0].len(), digests[1].len());
    for (a, b) in digests[0].iter().zip(digests[1].iter()) {
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1, "file {} differs between 1- and 8-thread builds", a.0);
    }
}

#[test]
fn flat_celf_identical_to_naive_oracle_across_thread_counts() {
    // The flat data path end to end: a sharded arena batch sampled from a
    // real graph, inverted by counting sort, solved by the bitset CELF —
    // must equal the Vec-of-Vec naive oracle bit-for-bit at every thread
    // count (and the batch itself must be thread-count invariant).
    let data = dataset();
    let model = IcModel::weighted_cascade(&data.graph);
    let num_nodes = data.graph.num_nodes();
    let batch = sample_batch(&model, 5_000, 99, &ExecPool::new(Some(1)), |rng| {
        use rand::Rng;
        rng.gen_range(0..num_nodes)
    });
    for threads in [2usize, 8] {
        let check = sample_batch(&model, 5_000, 99, &ExecPool::new(Some(threads)), |rng| {
            use rand::Rng;
            rng.gen_range(0..num_nodes)
        });
        assert_eq!(batch, check, "arena batch diverged at {threads} threads");
    }

    let oracle = greedy_max_cover_naive(&batch.to_vecs(), 25);
    assert!(!oracle.seeds.is_empty());
    for threads in [1usize, 2, 8] {
        let flat = greedy_max_cover_batch(&batch, 25, &ExecPool::new(Some(threads)));
        assert_eq!(flat, oracle, "flat CELF diverged from naive at {threads} threads");
    }
}
