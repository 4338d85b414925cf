//! Generation-equivalence gates for the mutable delta tier.
//!
//! The tier's whole contract is one sentence: **queries at a fixed
//! generation are bit-identical to a from-scratch flat build of the
//! same logical content.** These tests enforce it three ways:
//!
//! 1. the differential proptest — random mutation batches folded into
//!    an attached delta tier answer every query (rr / irr / auto,
//!    every `ServingMode`, 1 and 2 threads, flat and sharded bases)
//!    with exactly the bytes a from-scratch flat build of the
//!    mutated dataset produces, before *and* after compaction, and a
//!    journal replay on a fresh attach reproduces the same state;
//! 2. the flush/compaction chaos extension — with `flush.build` /
//!    `flush.verify` / `flush.commit` / transient `storage.read`
//!    failpoints armed, a failed flush leaves the published snapshot,
//!    the `CURRENT` pointer, and every query byte untouched, and a
//!    later retry compacts cleanly;
//! 3. the writers-vs-readers proptests — a reader pinned to a
//!    generation keeps getting bit-identical answers while a writer
//!    thread applies batches underneath it, and every answer served
//!    over the protocol beside a writer equals the from-scratch oracle
//!    *at the generation its response names*.
//!
//! f64s are compared via `.to_bits()` throughout: equivalence here
//! means *equality of bytes*, not approximation.

use kbtim::core::theta::SamplingConfig;
use kbtim::datagen::{Dataset, DatasetConfig, DatasetFamily};
use kbtim::graph::{Graph, NodeId};
use kbtim::index::{
    Algo, DeltaIndex, EngineRequest, IndexBuildConfig, IndexBuilder, IndexVariant, KbtimIndex,
    Mutation, QueryEngine, QueryOutcome, ThetaMode,
};
use kbtim::propagation::model::IcModel;
use kbtim::serve::{handle_line, handle_line_ctx, Json, Router, ServeCtx};
use kbtim::storage::block::all_modes;
use kbtim::storage::{IoStats, TempDir};
use kbtim::topics::{Query, TopicId, UserProfiles};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

const USERS: u32 = 220;
const TOPICS: u32 = 5;

fn base_data() -> &'static Dataset {
    static DATA: OnceLock<Dataset> = OnceLock::new();
    DATA.get_or_init(|| {
        DatasetConfig::family(DatasetFamily::News)
            .num_users(USERS)
            .num_topics(TOPICS)
            .seed(17)
            .build()
    })
}

fn config(shards: usize) -> IndexBuildConfig {
    IndexBuildConfig {
        sampling: SamplingConfig {
            eps: 0.3,
            theta_cap: Some(400),
            opt_initial_samples: 32,
            opt_max_rounds: 3,
            ..SamplingConfig::fast()
        },
        theta_mode: ThetaMode::Compact,
        variant: IndexVariant::Irr { partition_size: 16 },
        threads: 2,
        seed: 7,
        shards,
        ..IndexBuildConfig::default()
    }
}

fn build_into(
    graph: &Graph,
    profiles: &UserProfiles,
    cfg: IndexBuildConfig,
    dir: &std::path::Path,
) {
    let model = IcModel::weighted_cascade(graph);
    IndexBuilder::new(&model, profiles, cfg).build(dir).unwrap();
}

/// Fold a mutation batch into the base dataset the same way the delta
/// tier defines it: users append to the universe, edges append to the
/// edge list (`Graph::from_edges` dedups), a topic weight overwrites
/// the profile entry and weight 0 removes it.
fn fold(data: &Dataset, mutations: &[Mutation]) -> (Graph, UserProfiles) {
    let mut num_users = data.profiles.num_users();
    let mut edges: Vec<(NodeId, NodeId)> = data.graph.edges().collect();
    let mut entries: BTreeMap<(NodeId, TopicId), f32> = BTreeMap::new();
    for user in 0..num_users {
        let (topics, tfs) = data.profiles.user_vector(user);
        for (&topic, &tf) in topics.iter().zip(tfs) {
            entries.insert((user, topic), tf);
        }
    }
    for m in mutations {
        match *m {
            Mutation::IngestUser => num_users += 1,
            Mutation::IngestEdge { from, to } => edges.push((from, to)),
            Mutation::SetTopicWeight { user, topic, weight } => {
                if weight == 0.0 {
                    entries.remove(&(user, topic));
                } else {
                    entries.insert((user, topic), weight);
                }
            }
        }
    }
    let graph = Graph::from_edges(num_users, &edges);
    let flat: Vec<(NodeId, TopicId, f32)> =
        entries.iter().map(|(&(u, t), &tf)| (u, t, tf)).collect();
    let profiles = UserProfiles::from_entries(num_users, data.profiles.num_topics(), &flat);
    (graph, profiles)
}

/// An abstract mutation: indices are drawn over the full `u32` range
/// and reduced modulo the *evolving* universe at concretization, so
/// every generated batch is valid by construction (including edges to
/// users ingested earlier in the same batch).
#[derive(Debug, Clone, Copy)]
enum Spec {
    User,
    Edge(u32, u32),
    Weight(u32, u32, u8),
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    prop_oneof![
        Just(Spec::User),
        (any::<u32>(), any::<u32>()).prop_map(|(a, b)| Spec::Edge(a, b)),
        (any::<u32>(), any::<u32>(), 0u8..=40).prop_map(|(u, t, w)| Spec::Weight(u, t, w)),
    ]
}

fn concretize(specs: &[Spec], base_users: u32, topics: u32) -> Vec<Mutation> {
    let mut users = base_users;
    specs
        .iter()
        .map(|s| match *s {
            Spec::User => {
                users += 1;
                Mutation::IngestUser
            }
            Spec::Edge(a, b) => Mutation::IngestEdge { from: a % users, to: b % users },
            Spec::Weight(u, t, w) => Mutation::SetTopicWeight {
                user: u % users,
                topic: t % topics,
                // A small grid including 0.0, the removal sentinel.
                weight: w as f32 / 20.0,
            },
        })
        .collect()
}

fn assert_bit_identical(got: &QueryOutcome, want: &QueryOutcome, label: &str) {
    assert_eq!(got.seeds, want.seeds, "{label}: seeds");
    assert_eq!(got.marginal_gains, want.marginal_gains, "{label}: marginal gains");
    assert_eq!(got.coverage, want.coverage, "{label}: coverage");
    assert_eq!(
        got.estimated_influence.to_bits(),
        want.estimated_influence.to_bits(),
        "{label}: estimated influence"
    );
    assert_eq!(got.stats.theta_q, want.stats.theta_q, "{label}: theta_q");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// The headline differential gate: any mutation batch, queried at a
    /// fixed generation through any backend × thread count × algo over a
    /// flat or sharded base, answers with exactly the bytes a from-scratch
    /// flat build of the same logical content produces — and compaction
    /// into the next segment generation changes none of them.
    #[test]
    fn any_mutation_batch_is_generation_equivalent(
        specs in proptest::collection::vec(spec_strategy(), 0..10),
        raw_topics in proptest::collection::vec(0u32..TOPICS, 1..4),
        k in 1u32..10,
        shards in prop_oneof![Just(1usize), Just(3usize)],
    ) {
        let _lease = kbtim_fault::shared();
        let data = base_data();
        let muts = concretize(&specs, data.profiles.num_users(), TOPICS);
        let mut topics = raw_topics;
        topics.sort_unstable();
        topics.dedup();
        let query = Query::new(topics.clone(), k);

        // Oracle: a from-scratch *flat* build of the folded content.
        let oracle_dir = TempDir::new("delta-equiv-oracle").unwrap();
        let (folded_graph, folded_profiles) = fold(data, &muts);
        build_into(&folded_graph, &folded_profiles, config(1), oracle_dir.path());
        let oracle = KbtimIndex::open(oracle_dir.path(), IoStats::new()).unwrap();
        let expect = oracle.query_rr(&query).unwrap();
        prop_assert_eq!(&oracle.query_irr(&query).unwrap().seeds, &expect.seeds);
        let expect_deep = oracle.query_rr(&Query::new(topics.clone(), k + 4)).unwrap();

        // Subject: the base build with the batch applied to its delta
        // tier. The first attach journals the batch; every later attach
        // (other backends and thread counts) replays that journal, so
        // the matrix doubles as a recovery test.
        let root = TempDir::new("delta-equiv-base").unwrap();
        build_into(&data.graph, &data.profiles, config(shards), root.path());
        let mut first = true;
        for mode in all_modes() {
            for threads in [1usize, 2] {
                let index = Arc::new(
                    KbtimIndex::open_with(root.path(), IoStats::new(), mode)
                        .unwrap()
                        .with_threads(Some(threads)),
                );
                let delta = Arc::new(
                    DeltaIndex::attach(
                        Arc::clone(&index),
                        &data.graph,
                        &data.profiles,
                        config(shards),
                    )
                    .unwrap(),
                );
                if first {
                    delta.apply(&muts).unwrap();
                    first = false;
                } else {
                    prop_assert_eq!(delta.unflushed(), muts.len() as u64, "journal replay");
                }
                let engine = QueryEngine::new(Arc::clone(&index)).with_delta(Arc::clone(&delta));
                for algo in [Algo::Rr, Algo::Irr, Algo::Auto] {
                    let got = engine
                        .query(&EngineRequest { topics: topics.clone(), k, algo })
                        .unwrap();
                    assert_bit_identical(&got, &expect, &format!("{mode} t{threads} {algo:?}"));
                }
                // The batch planner over the union snapshot: one window,
                // one keyword-set group run once at the deepest k —
                // served in place off the union arena without a merge
                // cache; with one, asked three times — a miss in place
                // that publishes its run, then two hits sliced from it.
                let request = |algo, k| (EngineRequest { topics: topics.clone(), k, algo }, None);
                let window =
                    [request(Algo::Rr, k), request(Algo::Auto, k), request(Algo::Irr, k + 4)];
                for cache in [0usize, 4] {
                    let planner = QueryEngine::new(Arc::clone(&index))
                        .with_delta(Arc::clone(&delta))
                        .with_batch_window(Some(std::time::Duration::from_micros(100)))
                        .with_merge_cache(cache);
                    for round in 0..3 {
                        let results = planner.query_window(&window);
                        for (got, want) in results.into_iter().zip([&expect, &expect, &expect_deep]) {
                            let label = format!("{mode} t{threads} planner cache {cache} #{round}");
                            assert_bit_identical(&got.unwrap(), want, &label);
                        }
                    }
                    prop_assert_eq!(planner.merge_cache_hits(), if cache > 0 { 2 } else { 0 });
                }
            }
        }

        // Compact: the flushed generation serves the same bytes, both
        // through the still-attached engine and through a fresh open of
        // the root (which must resolve the new generation).
        let index = Arc::new(KbtimIndex::open(root.path(), IoStats::new()).unwrap());
        let base_gen = index.generation();
        let delta = Arc::new(
            DeltaIndex::attach(Arc::clone(&index), &data.graph, &data.profiles, config(shards))
                .unwrap(),
        );
        let engine = QueryEngine::new(Arc::clone(&index)).with_delta(Arc::clone(&delta));
        if muts.is_empty() {
            prop_assert_eq!(delta.flush().unwrap(), base_gen, "empty tier: flush is a no-op");
        } else {
            prop_assert_eq!(delta.flush().unwrap(), base_gen + 1);
        }
        for algo in [Algo::Rr, Algo::Irr, Algo::Auto] {
            let got = engine.query(&EngineRequest { topics: topics.clone(), k, algo }).unwrap();
            assert_bit_identical(&got, &expect, &format!("post-flush {algo:?}"));
        }
        let reopened = KbtimIndex::open(root.path(), IoStats::new()).unwrap();
        if !muts.is_empty() {
            prop_assert_eq!(reopened.generation(), base_gen + 1);
        }
        assert_bit_identical(&reopened.query_rr(&query).unwrap(), &expect, "fresh open");
    }
}

/// Chaos extension: flush failpoints at every stage (and a transient
/// storage-read burst mid-compaction) never tear a generation — the
/// published snapshot, the on-disk generation pointer, and every query
/// byte stay exactly where they were, and a later flush retries
/// cleanly from scratch.
/// The keyword-set cache holds greedy *runs*, and a run is a function
/// of the generation: a mutation between two asks of one set makes the
/// second a miss, answered with the from-scratch oracle's bytes at the
/// new generation — never with the seeds cached at the old one.
#[test]
fn a_mutation_between_two_asks_of_one_set_is_a_miss() {
    let _lease = kbtim_fault::shared();
    let data = base_data();
    let muts = [
        Mutation::IngestUser,
        Mutation::IngestEdge { from: USERS, to: 3 },
        Mutation::SetTopicWeight { user: USERS, topic: 1, weight: 0.6 },
        Mutation::SetTopicWeight { user: 4, topic: 2, weight: 0.0 },
    ];
    let query = Query::new(vec![1, 2], 6);
    let request = EngineRequest::new(query.topics().iter().copied(), query.k());
    let oracle_at = |muts: &[Mutation]| {
        let dir = TempDir::new("delta-run-oracle").unwrap();
        let (graph, profiles) = fold(data, muts);
        build_into(&graph, &profiles, config(1), dir.path());
        KbtimIndex::open(dir.path(), IoStats::new()).unwrap().query_rr(&query).unwrap()
    };

    let root = TempDir::new("delta-run-cache").unwrap();
    build_into(&data.graph, &data.profiles, config(1), root.path());
    let index = Arc::new(KbtimIndex::open(root.path(), IoStats::new()).unwrap());
    let delta = Arc::new(
        DeltaIndex::attach(Arc::clone(&index), &data.graph, &data.profiles, config(1)).unwrap(),
    );
    let engine = QueryEngine::new(index).with_delta(Arc::clone(&delta)).with_merge_cache(4);
    let books = |engine: &QueryEngine| (engine.merge_cache_hits(), engine.merge_cache_misses());

    let before = oracle_at(&[]);
    for (ask, want_books) in [(0, (0, 1)), (1, (1, 1))] {
        let got = engine.query(&request).unwrap();
        assert_bit_identical(&got, &before, &format!("generation 0, ask {ask}"));
        assert_eq!(got.stats.generation, Some(0));
        assert_eq!(books(&engine), want_books, "generation 0, ask {ask}");
    }

    delta.apply(&muts).unwrap();
    let generation = delta.generation();
    let after = oracle_at(&muts);
    assert_ne!(after.marginal_gains, before.marginal_gains, "the batch must move the answer");
    for (ask, want_books) in [(0, (1, 2)), (1, (2, 2))] {
        let got = engine.query(&request).unwrap();
        assert_bit_identical(&got, &after, &format!("generation {generation}, ask {ask}"));
        assert_eq!(got.stats.generation, Some(generation));
        assert_eq!(books(&engine), want_books, "generation {generation}, ask {ask}");
    }
    assert_eq!(engine.merge_cache_len(), 1, "generation 0's run went with the first publish");
}

#[test]
fn failed_flushes_never_tear_a_generation() {
    let _lease = kbtim_fault::exclusive();
    kbtim_fault::set_seed(42);
    let data = base_data();
    let muts = [
        Mutation::IngestUser,
        Mutation::IngestEdge { from: USERS, to: 3 },
        Mutation::SetTopicWeight { user: USERS, topic: 1, weight: 0.6 },
        Mutation::SetTopicWeight { user: 4, topic: 2, weight: 0.0 },
    ];
    let query = Query::new(vec![1, 2], 6);

    let root = TempDir::new("delta-chaos").unwrap();
    build_into(&data.graph, &data.profiles, config(1), root.path());
    let index = Arc::new(KbtimIndex::open(root.path(), IoStats::new()).unwrap());
    let delta =
        DeltaIndex::attach(Arc::clone(&index), &data.graph, &data.profiles, config(1)).unwrap();
    delta.apply(&muts).unwrap();
    let before = delta.snapshot().query(&query).unwrap();
    let generation = delta.generation();

    // Deterministic failures at each flush stage: nothing moves.
    for point in ["flush.build", "flush.verify", "flush.commit"] {
        kbtim_fault::arm(point, "err").unwrap();
        assert!(delta.flush().is_err(), "{point} must surface");
        kbtim_fault::disarm(point);
        assert_eq!(delta.generation(), generation, "{point}: snapshot untouched");
        assert_eq!(delta.unflushed(), muts.len() as u64, "{point}: journal untouched");
        assert_eq!(
            KbtimIndex::open(root.path(), IoStats::new()).unwrap().generation(),
            0,
            "{point}: CURRENT untouched"
        );
        assert_bit_identical(
            &delta.snapshot().query(&query).unwrap(),
            &before,
            &format!("{point}: queries unchanged"),
        );
    }

    // A probabilistic storm over the whole flush family: keep retrying
    // until one attempt gets through; every failed attempt leaves the
    // tier answering identically.
    kbtim_fault::arm("flush.*", "60%err").unwrap();
    let mut attempts = 0;
    loop {
        match delta.flush() {
            Ok(flushed) => {
                assert_eq!(flushed, 1);
                break;
            }
            Err(_) => {
                assert_bit_identical(
                    &delta.snapshot().query(&query).unwrap(),
                    &before,
                    "mid-storm query",
                );
            }
        }
        attempts += 1;
        assert!(attempts < 200, "the storm never let a flush through");
    }
    kbtim_fault::disarm("flush.*");
    assert_eq!(delta.unflushed(), 0);
    assert_bit_identical(&delta.snapshot().query(&query).unwrap(), &before, "post-storm");

    // A transient read burst *during* compaction is masked by the
    // storage retry budget: the next flush (of a fresh batch) succeeds
    // on the first call.
    delta.apply(&[Mutation::SetTopicWeight { user: 9, topic: 1, weight: 0.9 }]).unwrap();
    kbtim_fault::arm("storage.read", "2*err").unwrap();
    assert_eq!(delta.flush().unwrap(), 2, "transient reads are retried, not surfaced");
    kbtim_fault::disarm("storage.read");
    assert_eq!(KbtimIndex::open(root.path(), IoStats::new()).unwrap().generation(), 2);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Writers-vs-readers: a reader pinned to a generation keeps getting
    /// bit-identical bytes no matter how many batches a concurrent writer
    /// applies; the writer's batches all land (generation advances once
    /// per batch) and the *new* snapshot reflects them.
    #[test]
    fn pinned_readers_never_see_inflight_writes(
        batches in proptest::collection::vec(
            proptest::collection::vec(spec_strategy(), 1..4), 1..5),
    ) {
        let _lease = kbtim_fault::shared();
        let data = base_data();
        let root = TempDir::new("delta-rw").unwrap();
        build_into(&data.graph, &data.profiles, config(1), root.path());
        let index = Arc::new(KbtimIndex::open(root.path(), IoStats::new()).unwrap());
        let delta = Arc::new(
            DeltaIndex::attach(Arc::clone(&index), &data.graph, &data.profiles, config(1))
                .unwrap(),
        );
        let query = Query::new(vec![0, 2], 6);

        // Pin the pre-write generation.
        let pinned = delta.snapshot();
        let before = pinned.query(&query).unwrap();
        let pinned_gen = pinned.generation();

        // Writer thread: apply every batch. Each batch is concretized
        // against the universe as it stands when the batch lands, so
        // it is valid regardless of interleaving.
        let writer = {
            let delta = Arc::clone(&delta);
            let batches = batches.clone();
            std::thread::spawn(move || {
                for specs in &batches {
                    let users = delta.stats().num_users;
                    let muts = concretize(specs, users, TOPICS);
                    delta.apply(&muts).unwrap();
                }
            })
        };

        // Reader: hammer the pinned snapshot while the writer runs.
        while !writer.is_finished() {
            assert_bit_identical(&pinned.query(&query).unwrap(), &before, "pinned mid-write");
        }
        writer.join().unwrap();

        // Every batch landed: one generation tick per apply, and the
        // pinned view *still* answers identically.
        prop_assert_eq!(delta.generation(), pinned_gen + batches.len() as u64);
        assert_bit_identical(&pinned.query(&query).unwrap(), &before, "pinned post-write");

        // The fresh snapshot serves the union — equivalently to a
        // from-scratch build of the final logical content.
        let final_muts: Vec<Mutation> = {
            // Re-derive the full mutation sequence the writer applied.
            let mut users = data.profiles.num_users();
            let mut all = Vec::new();
            for specs in &batches {
                let muts = concretize(specs, users, TOPICS);
                users += muts.iter().filter(|m| matches!(m, Mutation::IngestUser)).count() as u32;
                all.extend(muts);
            }
            all
        };
        let oracle_dir = TempDir::new("delta-rw-oracle").unwrap();
        let (graph, profiles) = fold(data, &final_muts);
        build_into(&graph, &profiles, config(1), oracle_dir.path());
        let oracle = KbtimIndex::open(oracle_dir.path(), IoStats::new()).unwrap();
        assert_bit_identical(
            &delta.snapshot().query(&query).unwrap(),
            &oracle.query_rr(&query).unwrap(),
            "fresh snapshot vs from-scratch",
        );
    }
}

/// The answer fields of a protocol response (everything the oracle at
/// the same generation must reproduce byte for byte).
fn answer_fields(response: &Json) -> Vec<Option<Json>> {
    ["seeds", "marginal_gains", "coverage", "estimated_influence", "theta_q"]
        .iter()
        .map(|key| response.get(key).cloned())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    /// A response's `generation` names the snapshot that computed it,
    /// not whatever the tier had reached by render time: with a writer
    /// landing batches beside two protocol readers, every answer is
    /// bit-identical to a from-scratch build of the content as of its
    /// own label.
    #[test]
    fn wire_answers_match_the_oracle_at_their_labelled_generation(
        batches in proptest::collection::vec(
            proptest::collection::vec(spec_strategy(), 1..4), 2..5),
    ) {
        let _lease = kbtim_fault::shared();
        let data = base_data();
        let root = TempDir::new("delta-label").unwrap();
        build_into(&data.graph, &data.profiles, config(1), root.path());
        let index = Arc::new(KbtimIndex::open(root.path(), IoStats::new()).unwrap());
        let delta = Arc::new(
            DeltaIndex::attach(Arc::clone(&index), &data.graph, &data.profiles, config(1))
                .unwrap(),
        );
        let engine = QueryEngine::new(Arc::clone(&index)).with_delta(Arc::clone(&delta));
        let router = Router::single(Arc::new(engine));
        let ctx = ServeCtx::unlimited();
        let base_gen = delta.generation();

        // The batches, concretized up front against the universe each
        // will find (the single writer applies them in order).
        let mut users = data.profiles.num_users();
        let batches: Vec<Vec<Mutation>> = batches
            .iter()
            .map(|specs| {
                let muts = concretize(specs, users, TOPICS);
                users += muts.iter().filter(|m| matches!(m, Mutation::IngestUser)).count() as u32;
                muts
            })
            .collect();

        const LINES: [&str; 2] = [
            r#"{"topics":[0,2],"k":6,"algo":"rr"}"#,
            r#"{"topics":[0,2],"k":6,"algo":"irr"}"#,
        ];
        let (answered, written) = (AtomicU64::new(0), AtomicBool::new(false));
        let observed: Vec<Vec<(u64, Json)>> = std::thread::scope(|scope| {
            scope.spawn(|| {
                for muts in &batches {
                    // Let the readers answer at this generation first,
                    // so no labelled generation goes unobserved: of four
                    // completions at most two (one per reader) were
                    // already in flight when it was published.
                    let seen = answered.load(Ordering::SeqCst);
                    while answered.load(Ordering::SeqCst) < seen + 4 {
                        std::thread::yield_now();
                    }
                    delta.apply(muts).unwrap();
                }
                written.store(true, Ordering::SeqCst);
            });
            let readers: Vec<_> = LINES
                .iter()
                .map(|line| {
                    let (router, ctx, written, answered) = (&router, &ctx, &written, &answered);
                    scope.spawn(move || {
                        let mut got = Vec::new();
                        // One more round after the last write, so the
                        // final generation is observed too.
                        let mut last_round = false;
                        while !last_round {
                            last_round = written.load(Ordering::SeqCst);
                            let response = Json::parse(&handle_line_ctx(router, ctx, line))
                                .expect("protocol JSON");
                            let generation = response
                                .get("generation")
                                .and_then(Json::as_u64)
                                .expect("mutable indexes label every answer");
                            got.push((generation, response));
                            answered.fetch_add(1, Ordering::SeqCst);
                        }
                        got
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        prop_assert_eq!(delta.generation(), base_gen + batches.len() as u64);

        // One from-scratch oracle per generation: batch i lands as
        // generation base_gen + i.
        let oracles: Vec<Vec<Option<Json>>> = (0..=batches.len())
            .map(|applied| {
                let muts: Vec<Mutation> = batches[..applied].concat();
                let dir = TempDir::new("delta-label-oracle").unwrap();
                let (graph, profiles) = fold(data, &muts);
                build_into(&graph, &profiles, config(1), dir.path());
                let oracle = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
                let router = Router::single(Arc::new(QueryEngine::new(Arc::new(oracle))));
                answer_fields(&Json::parse(&handle_line(&router, LINES[0])).unwrap())
            })
            .collect();
        let mut labels = std::collections::BTreeSet::new();
        for (generation, response) in observed.iter().flatten() {
            let applied = (generation - base_gen) as usize;
            prop_assert!(applied <= batches.len(), "label {} was never published", generation);
            prop_assert_eq!(
                &answer_fields(response), &oracles[applied],
                "answer labelled generation {}", generation
            );
            labels.insert(*generation);
        }
        prop_assert_eq!(labels.len(), batches.len() + 1, "every generation was observed");
    }
}
