//! Concurrency gates for the serving runtime.
//!
//! The refactor's contract extends the serving-tier guarantees one more
//! axis: *how many client threads fire queries, and in what
//! interleaving, must be unobservable in the answers*. These tests pin
//! that down:
//!
//! 1. N threads firing interleaved rr / irr queries against one
//!    shared `Arc<KbtimIndex>` produce answers bit-identical to the
//!    serial order, across both serving backends (scratch blocks
//!    lease across threads; the persistent exec pool arbitrates or
//!    degrades inline — neither may leak into results);
//! 2. the [`QueryEngine`]'s request coalescing returns the same answer
//!    to every duplicate of one request in a window, and its books
//!    count exactly one execution per distinct request;
//! 3. two indexes opened through one [`PageCache`] share a single
//!    resident copy of every keyword segment while their per-index
//!    [`IoStats`] stay separate;
//! 4. the cross-request **batch planner** returns answers bit-identical
//!    to serial single-query execution for any chunking of
//!    overlapping-keyword requests into windows, submitted from
//!    several client threads at once, across both serving
//!    backends — and its books prove the shared keyword decode actually
//!    happened (each distinct keyword decoded once per window, not once
//!    per request);
//! 5. the **prepared-query cache** is unobservable in answers: with the
//!    cache enabled, every interleaving and every round (cold and hot)
//!    answers bit-identically to the uncached serial path, while the
//!    hit/miss/eviction books balance. What it caches is a keyword
//!    set's deepest greedy *run*: one set asked at several depths in
//!    any order, an exhausted run, and two racing publishers all answer
//!    as the per-request reference does.

use kbtim::core::theta::SamplingConfig;
use kbtim::datagen::{DatasetConfig, DatasetFamily};
use kbtim::index::{
    Algo, EngineRequest, IndexBuildConfig, IndexBuilder, IndexVariant, KbtimIndex, PageCache,
    QueryEngine, ServingMode, ThetaMode,
};
use kbtim::propagation::model::IcModel;
use kbtim::storage::block::all_modes;
use kbtim::storage::{IoStats, TempDir};
use kbtim::topics::Query;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

const NUM_TOPICS: u32 = 6;
const CLIENT_THREADS: usize = 4;

/// One IRR index on disk: a serial-oracle handle plus, per backend, a
/// shared handle (2 worker threads, so client concurrency also contends
/// the persistent exec pool).
struct Fixture {
    _dir: TempDir,
    serial: KbtimIndex,
    shared: Vec<(ServingMode, Arc<KbtimIndex>)>,
}

fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| {
        let data = DatasetConfig::family(DatasetFamily::News)
            .num_users(500)
            .num_topics(NUM_TOPICS)
            .seed(117)
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
            seed: 29,
            ..IndexBuildConfig::default()
        };
        let dir = TempDir::new("concurrent-equiv").unwrap();
        IndexBuilder::new(&model, &data.profiles, config).build(dir.path()).unwrap();

        let serial = KbtimIndex::open(dir.path(), IoStats::new()).unwrap().with_threads(Some(1));
        let shared = all_modes()
            .into_iter()
            .map(|mode| {
                let index = Arc::new(
                    KbtimIndex::open_with(dir.path(), IoStats::new(), mode)
                        .unwrap()
                        .with_threads(Some(2)),
                );
                (mode, index)
            })
            .collect();
        Fixture { _dir: dir, serial, shared }
    })
}

/// The bit-comparable face of an outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Answer {
    seeds: Vec<u32>,
    marginal_gains: Vec<u64>,
    coverage: u64,
    theta_q: u64,
}

impl Answer {
    fn of(outcome: &kbtim::index::QueryOutcome) -> Answer {
        Answer {
            seeds: outcome.seeds.clone(),
            marginal_gains: outcome.marginal_gains.clone(),
            coverage: outcome.coverage,
            theta_q: outcome.stats.theta_q,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]
    #[test]
    fn threads_and_interleavings_unobservable(
        raw_queries in proptest::collection::vec(
            (proptest::collection::vec(0u32..NUM_TOPICS, 1..4), 1u32..14),
            2..5,
        ),
    ) {
        let fx = fixture();
        let queries: Vec<Query> = raw_queries
            .into_iter()
            .map(|(mut topics, k)| {
                topics.sort_unstable();
                topics.dedup();
                Query::new(topics, k)
            })
            .collect();

        // Serial order on the oracle handle. Theorem 3 makes one answer
        // per query the reference for both algorithms.
        let serial: Vec<Answer> = queries
            .iter()
            .map(|q| {
                let rr = fx.serial.query_rr(q).unwrap();
                let irr = fx.serial.query_irr(q).unwrap();
                assert_eq!(rr.seeds, irr.seeds, "Theorem 3 on the oracle");
                Answer::of(&rr)
            })
            .collect();

        for (mode, index) in &fx.shared {
            // CLIENT_THREADS threads, each walking every query at its
            // own rotation and algorithm mix — maximal interleaving of
            // rr/irr against one shared index.
            std::thread::scope(|scope| {
                let joins: Vec<_> = (0..CLIENT_THREADS)
                    .map(|tid| {
                        let index = Arc::clone(index);
                        let queries = &queries;
                        scope.spawn(move || {
                            let mut answers = Vec::new();
                            for round in 0..queries.len() {
                                let qi = (round + tid) % queries.len();
                                let q = &queries[qi];
                                let outcome = match (round + tid) % 2 {
                                    0 => index.query_rr(q).unwrap(),
                                    _ => index.query_irr(q).unwrap(),
                                };
                                answers.push((qi, Answer::of(&outcome)));
                            }
                            answers
                        })
                    })
                    .collect();
                for join in joins {
                    for (qi, answer) in join.join().expect("client thread panicked") {
                        assert_eq!(
                            answer, serial[qi],
                            "{mode}: concurrent answer for query {qi} diverged from serial"
                        );
                    }
                }
            });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]
    #[test]
    fn batched_overlapping_queries_match_serial(
        raw_requests in proptest::collection::vec(
            // Topic sets drawn from a narrow range so windows overlap
            // heavily — the regime the planner's shared decode targets.
            (proptest::collection::vec(0u32..NUM_TOPICS, 1..4), 1u32..14, 0usize..3),
            2..7,
        ),
        // How each client thread cuts the requests into windows: it
        // takes the sizes in turn, cycling, from its own offset.
        chunking in proptest::collection::vec(1usize..5, 1..4),
    ) {
        let fx = fixture();
        let requests: Vec<EngineRequest> = raw_requests
            .into_iter()
            .map(|(mut topics, k, algo)| {
                topics.sort_unstable();
                topics.dedup();
                let algo = [Algo::Rr, Algo::Irr, Algo::Auto][algo];
                EngineRequest::new(topics, k).with_algo(algo)
            })
            .collect();

        for (mode, index) in &fx.shared {
            let engine = Arc::new(
                QueryEngine::new(Arc::clone(index))
                    .with_batch_window(Some(std::time::Duration::from_micros(300))),
            );
            // Serial oracle: the same engine's per-request path,
            // bypassing the planner entirely.
            let serial: Vec<Answer> =
                requests.iter().map(|r| Answer::of(&engine.execute(r).unwrap())).collect();

            // Every client thread submits all the requests, rotated to
            // its own starting point and cut into its own windows, all
            // at once: multi-request windows by construction, executing
            // concurrently. Whatever rides together, every answer must
            // be bit-identical to its serial oracle.
            let barrier = std::sync::Barrier::new(CLIENT_THREADS);
            std::thread::scope(|scope| {
                let joins: Vec<_> = (0..CLIENT_THREADS)
                    .map(|tid| {
                        let (engine, barrier) = (Arc::clone(&engine), &barrier);
                        let (requests, chunking) = (&requests, &chunking);
                        scope.spawn(move || {
                            let order: Vec<usize> =
                                (0..requests.len()).map(|i| (i + tid) % requests.len()).collect();
                            let mut answers = Vec::new();
                            let mut sizes = chunking.iter().cycle().skip(tid);
                            let mut rest = order.as_slice();
                            barrier.wait();
                            while !rest.is_empty() {
                                let size = (*sizes.next().unwrap()).min(rest.len());
                                let (window, tail) = rest.split_at(size);
                                rest = tail;
                                let submitted: Vec<_> =
                                    window.iter().map(|&i| (requests[i].clone(), None)).collect();
                                for (&i, got) in window.iter().zip(engine.query_window(&submitted)) {
                                    answers.push((i, Answer::of(&got.unwrap())));
                                }
                            }
                            answers
                        })
                    })
                    .collect();
                for join in joins {
                    for (i, got) in join.join().expect("batched client panicked") {
                        assert_eq!(got, serial[i], "{mode}: batched answer diverged from serial");
                    }
                }
            });
            // Books balance: every request either executed or joined a
            // duplicate within its window.
            let issued = (CLIENT_THREADS * requests.len()) as u64;
            assert_eq!(engine.executed() + engine.coalesced(), issued);
            assert_eq!(engine.batched_requests(), issued);
        }
    }
}

/// The fixture's dataset and build once more as a 4-shard index (mmap
/// backend): a keyword's lease is then four lists, one per shard.
fn sharded_fixture() -> &'static (TempDir, Arc<KbtimIndex>) {
    static FX: OnceLock<(TempDir, Arc<KbtimIndex>)> = OnceLock::new();
    FX.get_or_init(|| {
        let data = DatasetConfig::family(DatasetFamily::News)
            .num_users(500)
            .num_topics(NUM_TOPICS)
            .seed(117)
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
            seed: 29,
            shards: 4,
            ..IndexBuildConfig::default()
        };
        let dir = TempDir::new("concurrent-equiv-sharded").unwrap();
        IndexBuilder::new(&model, &data.profiles, config).build(dir.path()).unwrap();
        let index = KbtimIndex::open_with(dir.path(), IoStats::new(), ServingMode::Mmap)
            .unwrap()
            .with_threads(Some(2));
        assert_eq!(index.num_shards(), 4);
        (dir, Arc::new(index))
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]
    #[test]
    fn leased_windows_match_serial(
        raw_windows in proptest::collection::vec(
            proptest::collection::vec(
                (proptest::collection::vec(0u32..NUM_TOPICS, 1..4), 1u32..14, 0usize..3),
                1..5,
            ),
            2..6,
        ),
        // `--merge-cache N`: off, too small for anything to stay, too
        // small for the keywords, roomy.
        capacity in prop_oneof![Just(0usize), Just(1usize), Just(2usize), Just(64usize)],
        sharded in any::<bool>(),
    ) {
        let windows: Vec<Vec<(EngineRequest, Option<std::time::Instant>)>> = raw_windows
            .into_iter()
            .map(|window| {
                window
                    .into_iter()
                    .map(|(topics, k, algo)| {
                        let algo = [Algo::Rr, Algo::Irr, Algo::Auto][algo];
                        (EngineRequest::new(topics, k).with_algo(algo), None)
                    })
                    .collect()
            })
            .collect();
        let index = if sharded { &sharded_fixture().1 } else { &fixture().shared[0].1 };
        let engine = QueryEngine::new(Arc::clone(index)).with_merge_cache(capacity);
        // The oracle never touches the cache: every window below is
        // compared against a decode made from the bytes.
        let serial: Vec<Vec<Answer>> = windows
            .iter()
            .map(|w| w.iter().map(|(r, _)| Answer::of(&engine.execute(r).unwrap())).collect())
            .collect();

        // Two clients walk the windows at once from different starting
        // points, twice over: a keyword is missed by both, leased by
        // one while the other publishes it, evicted under a window
        // that holds it — and the second lap reads what the first left.
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for tid in 0..2 {
                let (engine, barrier, windows, serial) = (&engine, &barrier, &windows, &serial);
                scope.spawn(move || {
                    barrier.wait();
                    for lap in 0..2 * windows.len() {
                        let at = (lap + tid) % windows.len();
                        for (got, want) in engine.query_window(&windows[at]).iter().zip(&serial[at]) {
                            let got = Answer::of(got.as_ref().unwrap());
                            assert_eq!(&got, want, "cache {capacity}, sharded {sharded}, window {at}");
                        }
                    }
                });
            }
        });
        let issued = 4 * windows.iter().map(Vec::len).sum::<usize>() as u64;
        prop_assert_eq!(engine.executed() + engine.coalesced(), issued);
        prop_assert!(engine.keyword_cache_len() <= capacity);
        prop_assert!(engine.merge_cache_len() <= capacity);
        prop_assert_eq!(engine.keyword_cache_bytes() == 0, engine.keyword_cache_len() == 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]
    #[test]
    fn merge_cache_unobservable_in_answers(
        raw_requests in proptest::collection::vec(
            (proptest::collection::vec(0u32..NUM_TOPICS, 1..4), 1u32..14, 0usize..3),
            2..6,
        ),
    ) {
        let fx = fixture();
        let requests: Vec<EngineRequest> = raw_requests
            .into_iter()
            .map(|(mut topics, k, algo)| {
                topics.sort_unstable();
                topics.dedup();
                let algo = [Algo::Rr, Algo::Irr, Algo::Auto][algo];
                EngineRequest::new(topics, k).with_algo(algo)
            })
            .collect();

        for (mode, index) in &fx.shared {
            let engine = Arc::new(
                QueryEngine::new(Arc::clone(index))
                    .with_batch_window(Some(std::time::Duration::from_micros(300)))
                    .with_merge_cache(8),
            );
            // Serial oracle through the same engine's unbatched,
            // uncached per-request path.
            let serial: Vec<Answer> =
                requests.iter().map(|r| Answer::of(&engine.execute(r).unwrap())).collect();

            // Three concurrent rounds: round one's keyword sets are
            // misses (served in place, their runs published), rounds two
            // and three are served from the cache — unless a thread of
            // one set at a deeper `k` lost the race to a shallower one,
            // and deepens the run. Whatever batch splits the
            // window admits, every answer in every round must be
            // bit-identical to the serial oracle.
            for round in 0..3 {
                let barrier = std::sync::Barrier::new(requests.len());
                std::thread::scope(|scope| {
                    let joins: Vec<_> = requests
                        .iter()
                        .map(|req| {
                            let engine = Arc::clone(&engine);
                            let barrier = &barrier;
                            scope.spawn(move || {
                                barrier.wait();
                                engine.query(req).unwrap()
                            })
                        })
                        .collect();
                    for (join, want) in joins.into_iter().zip(&serial) {
                        let got = Answer::of(&join.join().expect("cached client panicked"));
                        assert_eq!(
                            &got, want,
                            "{mode}: round {round} answer diverged from uncached serial"
                        );
                    }
                });
            }
            // By round three every set's deepest run was resident
            // (capacity 8 > distinct sets, so nothing evicted): the cache
            // must have served at least one group, and its books must
            // balance.
            prop_assert!(engine.merge_cache_hits() > 0, "{mode}: no cache hit in round three");
            prop_assert_eq!(engine.merge_cache_evictions(), 0);
            prop_assert!(engine.merge_cache_len() <= 8);
            prop_assert!(engine.merge_cache_bytes() > 0);
        }
    }
}

/// Every field of an outcome that is a function of the request, f64s
/// by their bits.
fn assert_bit_identical(
    got: &kbtim::index::QueryOutcome,
    want: &kbtim::index::QueryOutcome,
    what: &str,
) {
    assert_eq!(Answer::of(got), Answer::of(want), "{what}");
    assert_eq!(
        got.estimated_influence.to_bits(),
        want.estimated_influence.to_bits(),
        "{what}: estimated influence"
    );
    assert_eq!(got.stats.rr_sets_loaded, want.stats.rr_sets_loaded, "{what}: rr_sets_loaded");
}

/// The cached unit is a keyword set's deepest greedy run: asked in
/// every order of three depths, a `k` deeper than the run is a miss
/// that deepens it and every other `k` a hit sliced from it (ascending
/// deepens twice, descending hits twice) — each answer bit-identical to
/// the uncached per-request reference, flat and on 4 shards.
#[test]
fn one_keyword_set_in_every_order_of_depths_matches_serial() {
    let orders = [[5, 10, 25], [5, 25, 10], [10, 5, 25], [10, 25, 5], [25, 5, 10], [25, 10, 5]];
    for (what, index) in [("flat", &fixture().shared[0].1), ("4 shards", &sharded_fixture().1)] {
        for order in orders {
            let engine = QueryEngine::new(Arc::clone(index)).with_merge_cache(8);
            let (mut deepest, mut hits, mut misses) = (0, 0, 0);
            for k in order {
                let req = EngineRequest::new([0, 1, 2], k).with_algo(Algo::Rr);
                let want = engine.execute(&req).unwrap();
                assert_eq!(want.seeds.len(), k as usize, "the fixture must not exhaust at {k}");
                let got = engine.query(&req).unwrap();
                assert_bit_identical(&got, &want, &format!("{what}, order {order:?}, k {k}"));
                if k > deepest {
                    (deepest, misses) = (k, misses + 1);
                } else {
                    hits += 1;
                }
                assert_eq!(
                    (engine.merge_cache_hits(), engine.merge_cache_misses()),
                    (hits, misses),
                    "{what}, order {order:?}, k {k}"
                );
            }
            assert_eq!((engine.merge_cache_len(), engine.keywords_decoded()), (1, 3));
        }
    }
}

/// A run that stopped at zero gain before its `k` answers every `k`:
/// on an index whose greedy exhausts below five seeds, `k = 25` is a
/// hit on the `k = 5` run.
#[test]
fn an_exhausted_run_answers_every_depth() {
    let data =
        DatasetConfig::family(DatasetFamily::News).num_users(4).num_topics(2).seed(3).build();
    let model = IcModel::weighted_cascade(&data.graph);
    let config = IndexBuildConfig {
        sampling: SamplingConfig {
            theta_cap: Some(64),
            opt_initial_samples: 16,
            opt_max_rounds: 2,
            ..SamplingConfig::fast()
        },
        ..IndexBuildConfig::default()
    };
    let dir = TempDir::new("concurrent-equiv-tiny").unwrap();
    IndexBuilder::new(&model, &data.profiles, config).build(dir.path()).unwrap();
    let index = Arc::new(KbtimIndex::open(dir.path(), IoStats::new()).unwrap());
    let engine = QueryEngine::new(index).with_merge_cache(4);

    let ask = |k| {
        let req = EngineRequest::new([0, 1], k);
        let want = engine.execute(&req).unwrap();
        assert!(!want.seeds.is_empty() && want.seeds.len() < 5, "{} seeds", want.seeds.len());
        assert_bit_identical(&engine.query(&req).unwrap(), &want, &format!("k {k}"));
    };
    ask(5);
    ask(25);
    ask(1);
    assert_eq!((engine.merge_cache_hits(), engine.merge_cache_misses()), (2, 1));
}

/// Two windows racing the same miss at depths 5 and 25 both publish;
/// whichever lands last, the depth-25 run is what stays — the next
/// `k = 25` is a hit.
#[test]
fn racing_publishers_leave_the_deeper_run() {
    let index = &fixture().shared[0].1;
    let deep = EngineRequest::new([1, 3], 25);
    let want = QueryEngine::new(Arc::clone(index)).execute(&deep).unwrap();
    assert_eq!(want.seeds.len(), 25, "the fixture must not exhaust at 25");
    for round in 0..16 {
        let engine = QueryEngine::new(Arc::clone(index)).with_merge_cache(4);
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for k in [5, 25] {
                let (engine, barrier) = (&engine, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    engine.query(&EngineRequest::new([1, 3], k)).unwrap();
                });
            }
        });
        // k = 5 may have hit a depth-25 run that landed first; k = 25
        // can only have missed.
        let (hits, misses) = (engine.merge_cache_hits(), engine.merge_cache_misses());
        assert!(hits + misses == 2 && misses >= 1, "round {round}: {hits} hits, {misses} misses");
        assert_bit_identical(&engine.query(&deep).unwrap(), &want, &format!("round {round}"));
        assert_eq!(
            (engine.merge_cache_hits(), engine.merge_cache_misses()),
            (hits + 1, misses),
            "round {round}: the shallower publisher replaced the deeper run"
        );
    }
}

#[test]
fn batch_planner_decodes_shared_keywords_once() {
    let fx = fixture();
    let (_, index) = &fx.shared[0];
    let engine = QueryEngine::new(Arc::clone(index));
    // Eight *distinct* requests (different k / algo) over the same two
    // keywords: identical-request coalescing can never fire, so any
    // sharing the books report comes from the planner's keyword arena.
    let requests: Vec<EngineRequest> = (0..8)
        .map(|i| {
            EngineRequest::new([0, 1], 2 + i as u32).with_algo(if i % 2 == 0 {
                Algo::Rr
            } else {
                Algo::Irr
            })
        })
        .collect();
    let serial: Vec<Answer> =
        requests.iter().map(|r| Answer::of(&engine.execute(r).unwrap())).collect();

    // One window: the eight, plus a duplicate of requests[0].
    let window: Vec<_> =
        requests.iter().chain([&requests[0]]).map(|req| (req.clone(), None)).collect();
    let got = engine.query_window(&window);
    for (got, want) in got.iter().zip(serial.iter().chain([&serial[0]])) {
        assert_eq!(&Answer::of(got.as_ref().unwrap()), want);
    }

    // The accounting contract: 8 distinct requests (the trailing
    // duplicate coalesces with requests[0] in-window) × 2 budgeted
    // keywords = 16 keyword decodes requested, but the window decoded
    // each distinct keyword once — everything else is shared.
    assert_eq!(engine.batched_requests(), requests.len() as u64 + 1);
    assert_eq!(engine.executed(), requests.len() as u64, "all distinct requests execute");
    assert_eq!(engine.coalesced(), 1, "the trailing duplicate joins its in-window twin");
    let decoded = engine.keywords_decoded();
    let shared = engine.keyword_decodes_shared();
    assert_eq!(decoded + shared, 16, "requested keyword decodes are either performed or shared");
    assert_eq!(decoded, engine.batches() * 2, "each window decodes each distinct keyword once");
    assert!(
        shared > 0,
        "overlapping requests in a window must share decodes ({} windows)",
        engine.batches()
    );
}

#[test]
fn engine_coalesces_identical_requests_in_a_window() {
    let fx = fixture();
    let (_, index) = &fx.shared[0];
    let engine = QueryEngine::new(Arc::clone(index));
    let serial = Answer::of(&fx.serial.query_rr(&Query::new([0, 1], 8)).unwrap());

    // Mix algorithms: identical requests coalesce, different ones each
    // execute.
    let issued: usize = 12;
    let window: Vec<_> = (0..issued)
        .map(|i| {
            let algo = if i % 2 == 0 { Algo::Rr } else { Algo::Irr };
            (EngineRequest::new([0, 1], 8).with_algo(algo), None)
        })
        .collect();
    for got in engine.query_window(&window) {
        assert_eq!(Answer::of(&got.unwrap()), serial);
    }
    assert_eq!(engine.executed(), 2, "one execution per distinct request");
    assert_eq!(engine.coalesced(), issued as u64 - 2, "every duplicate is coalesced");
}

#[test]
#[cfg(target_os = "linux")]
fn page_cache_dedupes_across_whole_indexes() {
    let fx = fixture();
    let dir = fx._dir.path();
    let cache = PageCache::new();
    let stats_a = IoStats::new();
    let stats_b = IoStats::new();
    let a = KbtimIndex::open_shared(dir, stats_a.clone(), ServingMode::Mmap, &cache).unwrap();
    let b = KbtimIndex::open_shared(dir, stats_b.clone(), ServingMode::Mmap, &cache).unwrap();

    // Two open indexes, one resident copy of every keyword segment.
    assert_eq!(a.resident_bytes(), b.resident_bytes());
    assert_eq!(
        cache.resident_bytes(),
        a.resident_bytes(),
        "the cache holds one copy, not one per index"
    );
    assert!(cache.segments() > 0);

    // Queries agree with the serial oracle, and each handle's stats
    // count only its own traffic.
    let q = Query::new([0, 1, 2], 6);
    let want = Answer::of(&fx.serial.query_rr(&q).unwrap());
    assert_eq!(Answer::of(&a.query_rr(&q).unwrap()), want);
    assert!(stats_a.cache_hits() > 0);
    assert_eq!(stats_b.cache_hits(), 0, "B idle: shared pages must not blur B's stats");
    assert_eq!(Answer::of(&b.query_irr(&q).unwrap()), want);
    assert!(stats_b.cache_hits() > 0);

    // Dropping both handles releases the pages; the cache pins nothing.
    drop((a, b));
    assert_eq!(cache.segments(), 0);
    assert_eq!(cache.resident_bytes(), 0);
}

#[test]
fn shared_index_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<KbtimIndex>();
    assert_send_sync::<QueryEngine>();
    assert_send_sync::<Arc<KbtimIndex>>();
}
