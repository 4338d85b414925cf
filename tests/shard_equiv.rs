//! Shard-equivalence gate for the scatter-gather serving path.
//!
//! The sharding contract is absolute: how many user-range shards the
//! segments are partitioned into must be *unobservable* in query
//! answers. RR sampling is global and each in-range user keeps its
//! unchanged rr-id list, so concatenating shard inverted lists in shard
//! order reproduces the flat index's merged instance exactly — seeds,
//! marginal gains, coverage, θ^Q and the influence estimate are
//! bit-identical for every shard count × algorithm × serving backend ×
//! thread count. These tests pin that down, and extend the chaos gate
//! to a sharded engine: armed `storage.read` failpoints may fail
//! requests, but every *successful* answer stays bit-identical to the
//! fault-free oracle and the engine serves clean after disarm.
//!
//! The failpoint registry is process-global: the chaos test holds the
//! exclusive `kbtim_fault` lease while it arms, every other test here
//! holds the shared side.

use kbtim::core::theta::SamplingConfig;
use kbtim::datagen::{DatasetConfig, DatasetFamily};
use kbtim::index::{
    Algo, EngineRequest, IndexBuildConfig, IndexBuilder, IndexVariant, KbtimIndex, QueryEngine,
    ServingMode, ThetaMode,
};
use kbtim::propagation::model::IcModel;
use kbtim::serve::{handle_line_ctx, Json, Router, ServeCtx};
use kbtim::storage::block::all_modes;
use kbtim::storage::{IoStats, TempDir};
use kbtim::topics::Query;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

const NUM_TOPICS: u32 = 6;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One dataset built at every shard count; the S=1 build is the oracle.
/// Sharded builds are opened through every backend × thread count.
struct Fixture {
    dirs: Vec<(usize, TempDir)>,
    oracle: KbtimIndex,
    indexes: Vec<(usize, ServingMode, usize, KbtimIndex)>,
    /// Per sharded layout, the batch planner without a merge cache
    /// (groups served in place) and with one (groups materialized).
    planners: Vec<(usize, usize, QueryEngine)>,
}

fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| {
        let data = DatasetConfig::family(DatasetFamily::News)
            .num_users(400)
            .num_topics(NUM_TOPICS)
            .seed(91)
            .build();
        let model = IcModel::weighted_cascade(&data.graph);
        let mut dirs = Vec::new();
        for shards in SHARD_COUNTS {
            let config = IndexBuildConfig {
                sampling: SamplingConfig {
                    theta_cap: Some(1_000),
                    opt_initial_samples: 64,
                    opt_max_rounds: 5,
                    ..SamplingConfig::fast()
                },
                theta_mode: ThetaMode::Compact,
                variant: IndexVariant::Irr { partition_size: 16 },
                threads: 4,
                seed: 13,
                shards,
                ..IndexBuildConfig::default()
            };
            let dir = TempDir::new(&format!("shard-equiv-{shards}")).unwrap();
            IndexBuilder::new(&model, &data.profiles, config).build(dir.path()).unwrap();
            dirs.push((shards, dir));
        }

        let oracle = KbtimIndex::open(dirs[0].1.path(), IoStats::new()).unwrap();
        let mut indexes = Vec::new();
        let mut planners = Vec::new();
        for (shards, dir) in dirs.iter().filter(|(s, _)| *s > 1) {
            for mode in all_modes() {
                for threads in [1usize, 8] {
                    let index = KbtimIndex::open_with(dir.path(), IoStats::new(), mode)
                        .unwrap()
                        .with_threads(Some(threads));
                    assert_eq!(index.num_shards(), *shards);
                    indexes.push((*shards, mode, threads, index));
                }
            }
            let shared = Arc::new(KbtimIndex::open(dir.path(), IoStats::new()).unwrap());
            for cache in [0usize, 8] {
                let engine = QueryEngine::new(Arc::clone(&shared))
                    .with_batch_window(Some(std::time::Duration::from_micros(100)))
                    .with_merge_cache(cache);
                planners.push((*shards, cache, engine));
            }
        }
        Fixture { dirs, oracle, indexes, planners }
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    #[test]
    fn any_shard_count_is_bit_identical_to_flat(
        raw_topics in proptest::collection::vec(0u32..NUM_TOPICS, 1..4),
        k in 1u32..16,
    ) {
        let _lease = kbtim_fault::shared();
        let fx = fixture();
        let mut topics = raw_topics;
        topics.sort_unstable();
        topics.dedup();
        let query = Query::new(topics, k);

        // Flat (S = 1) oracle per algorithm. Theorem 3 makes the IRR
        // seeds equal the RR seeds; auto is the RR keyword scan.
        let rr = fx.oracle.query_rr(&query).unwrap();
        let irr = fx.oracle.query_irr(&query).unwrap();
        let auto = fx.oracle.query_rr(&query).unwrap();
        prop_assert_eq!(&rr.seeds, &irr.seeds, "Theorem 3 on the oracle");

        for (shards, mode, threads, index) in &fx.indexes {
            let tag = || format!("S={shards} {mode} t{threads}");
            // Two rounds so the second runs entirely on pooled scratch.
            for _round in 0..2 {
                for (algo, want) in [("rr", &rr), ("irr", &irr), ("auto", &auto)] {
                    let got = match algo {
                        "rr" => index.query_rr(&query).unwrap(),
                        "irr" => index.query_irr(&query).unwrap(),
                        _ => index.query_rr(&query).unwrap(),
                    };
                    prop_assert_eq!(&got.seeds, &want.seeds, "{} {}", tag(), algo);
                    prop_assert_eq!(&got.marginal_gains, &want.marginal_gains);
                    prop_assert_eq!(got.coverage, want.coverage);
                    prop_assert_eq!(got.stats.theta_q, want.stats.theta_q);
                    prop_assert_eq!(
                        got.estimated_influence.to_bits(),
                        want.estimated_influence.to_bits(),
                        "{} {}: influence must be bit-identical", tag(), algo
                    );
                }
                // The RR accounting identity survives sharding: the
                // shard fan-out decodes each keyword's prefix exactly
                // once across shards.
                let r = index.query_rr(&query).unwrap();
                prop_assert_eq!(r.stats.rr_sets_loaded, r.stats.theta_q, "{}", tag());
            }
        }

        // The batch planner over the sharded layouts: one window, one
        // keyword-set group, the deepest k run once — in place without
        // a merge cache, materialized with one.
        let deep =
            fx.oracle.query_rr(&Query::new(query.topics().iter().copied(), k + 5)).unwrap();
        let request = |algo, k| {
            (EngineRequest { topics: query.topics().to_vec(), k, algo }, None)
        };
        let window = [request(Algo::Rr, k), request(Algo::Irr, k), request(Algo::Auto, k + 5)];
        for (shards, cache, engine) in &fx.planners {
            for (got, want) in engine.query_window(&window).into_iter().zip([&rr, &rr, &deep]) {
                let got = got.unwrap();
                prop_assert_eq!(&got.seeds, &want.seeds, "planner S={} cache {}", shards, cache);
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
}

#[test]
fn sharded_layouts_validate_and_report_their_shard_count() {
    let _lease = kbtim_fault::shared();
    let fx = fixture();
    for (shards, dir) in &fx.dirs {
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        assert_eq!(index.num_shards(), *shards);
        let report = index.validate().unwrap();
        assert_eq!(report.shards_checked as usize, *shards);
    }
}

#[test]
fn shard_fingerprints_differ_per_layout() {
    // Different shard counts are different segment generations: a
    // prepared-query cache keyed by the fingerprint must never alias
    // them (satellite of the PageCache/fingerprint contract).
    let _lease = kbtim_fault::shared();
    let fx = fixture();
    let mut fps = Vec::new();
    for (_, dir) in &fx.dirs {
        fps.push(KbtimIndex::open(dir.path(), IoStats::new()).unwrap().segment_fingerprint());
    }
    fps.sort_unstable();
    fps.dedup();
    assert_eq!(fps.len(), SHARD_COUNTS.len(), "layouts must not share a fingerprint");
}

/// Chaos extension: `storage.read` failpoints over a sharded engine.
/// A shard decode that fails fails the whole request (no partial
/// merges); whatever succeeds is bit-identical to the fault-free
/// answer, and the engine serves clean once disarmed.
#[test]
fn sharded_engine_isolates_storage_faults() {
    const LINES: [&str; 4] = [
        r#"{"id":1,"topics":[0,1],"k":5,"algo":"rr"}"#,
        r#"{"id":2,"topics":[1,2],"k":3,"algo":"irr"}"#,
        r#"{"id":3,"topics":[0,3],"k":8,"algo":"auto"}"#,
        r#"{"id":4,"topics":[2,4],"k":4}"#,
    ];
    let _lease = kbtim_fault::exclusive();
    let fx = fixture();
    let (shards, dir) = &fx.dirs[2]; // S = 4
    assert_eq!(*shards, 4);

    let answer_fields = |response: &str| -> Vec<(String, Json)> {
        let Json::Obj(fields) = Json::parse(response).expect("protocol JSON") else {
            panic!("response is not an object: {response}");
        };
        fields.into_iter().filter(|(key, _)| key != "elapsed_us").collect()
    };

    for mode in all_modes() {
        let index = KbtimIndex::open_with(dir.path(), IoStats::new(), mode).unwrap();
        let router = Router::single(Arc::new(QueryEngine::new(Arc::new(index))));
        let ctx = ServeCtx::new(64, None);

        // Fault-free oracle from the very engine under test (the
        // proptest above already pins sharded == flat).
        let oracle: Vec<Vec<(String, Json)>> = LINES
            .iter()
            .map(|&line| {
                let response = handle_line_ctx(&router, &ctx, line);
                assert!(response.contains("\"seeds\""), "oracle for {line}: {response}");
                assert!(
                    response.contains("\"shards\":4"),
                    "{mode}: response must report the shard count: {response}"
                );
                answer_fields(&response)
            })
            .collect();

        kbtim_fault::set_seed(0xdead_beef);
        kbtim_fault::arm("storage.read", "30%err").unwrap();
        let mut successes = 0usize;
        for round in 0..8 {
            for (i, &line) in LINES.iter().enumerate() {
                let response = handle_line_ctx(&router, &ctx, line);
                Json::parse(&response).unwrap_or_else(|e| {
                    panic!("{mode} round {round}: unparseable response {response:?}: {e}")
                });
                if response.contains("\"seeds\"") {
                    successes += 1;
                    assert_eq!(
                        answer_fields(&response),
                        oracle[i],
                        "{mode}: a successful answer under faults must be \
                         bit-identical to the fault-free answer"
                    );
                } else {
                    assert!(
                        response.contains("\"code\":\"engine_error\""),
                        "{mode}: storage faults must surface as engine_error: {response}"
                    );
                }
            }
        }
        kbtim_fault::reset();

        // Disarmed, the same engine answers every line cleanly again.
        for (i, &line) in LINES.iter().enumerate() {
            assert_eq!(
                answer_fields(&handle_line_ctx(&router, &ctx, line)),
                oracle[i],
                "{mode}: engine must serve clean answers after the storm \
                 ({successes} chaos requests had succeeded)"
            );
        }
    }
}
