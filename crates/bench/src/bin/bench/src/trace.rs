//! The in-process traced pass behind `--trace 1`: per-layer numbers
//! taken from *outside* each layer, by timing calls into its public
//! functions. Nothing inside the product is instrumented.
//!
//! The request replay is single-threaded and always uses the fixed
//! trace seed, not `--seed`, so every exact count it reports (I/O per
//! query, planner books, θ) repeats from run to run; the wire phase of
//! a traced run still takes its order from `--seed`.

use crate::alloc::allocations;
use crate::report::Metrics;
use crate::span::{duration_by_name, self_time_by_name, Tracer};
use crate::stats::median;
use crate::wire::dir_bytes;
use crate::workload::{Kind, QueryGen, QueryReq, Scale, Workload, BUILD_SEED, DATA_SEED};
use kbtim::codec::bitpack;
use kbtim::core::theta::SamplingConfig;
use kbtim::datagen::{DatasetConfig, DatasetFamily};
use kbtim::index::format::{keyword_file_name, shard_dir_name, RR_BLOCK, RR_OFF_BLOCK};
use kbtim::index::{
    Algo, DeltaIndex, EngineRequest, IndexBuildConfig, IndexBuilder, KbtimIndex, MergedQuery,
    Mutation, PageCache, QueryEngine, QueryOutcome, ServingMode,
};
use kbtim::propagation::{sample_batch, IcModel};
use kbtim::serve::{
    handle_line_ctx, render_outcome, FramedLine, LineFramer, Router, ServeCtx, ServeRequest,
};
use kbtim::storage::{BlockSource, IoStats};
use kbtim::topics::Query;
use kbtim_exec::ExecPool;
use rand::Rng;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed of the replayed request list (see the module docs).
const TRACE_SEED: u64 = DATA_SEED;
/// Requests per `query_window` call in the windowed replay.
const WINDOW: usize = 8;
/// Requests the direct `query_rr` / `query_irr` passes run.
const DIRECT_REQUESTS: usize = 32;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn flag<'a>(workload: &'a Workload, name: &str) -> Option<&'a str> {
    workload
        .serve_flags
        .iter()
        .position(|f| *f == name)
        .and_then(|i| workload.serve_flags.get(i + 1).copied())
}

/// The engine `kbtim serve` would build for this workload's flags
/// (TCP defaults: mmap, 200 µs batch window, no merge cache).
fn engine_for(workload: &Workload, index: Arc<KbtimIndex>) -> QueryEngine {
    let batch_us: u64 =
        flag(workload, "--batch").map_or(200, |v| v.parse().expect("numeric --batch"));
    let cache: usize =
        flag(workload, "--merge-cache").map_or(0, |v| v.parse().expect("numeric --merge-cache"));
    QueryEngine::new(index)
        .with_batch_window((batch_us > 0).then(|| Duration::from_micros(batch_us)))
        .with_merge_cache(cache)
}

fn serving_mode(workload: &Workload) -> ServingMode {
    ServingMode::parse(flag(workload, "--serving").unwrap_or("mmap"))
        .expect("a serving mode kbtim knows")
}

fn open_index(dir: &Path, mode: ServingMode) -> Result<KbtimIndex, String> {
    let mut index = KbtimIndex::open_shared(dir, IoStats::new(), mode, PageCache::global())
        .map_err(|e| format!("open {}: {e}", dir.display()))?;
    index.set_threads(Some(1));
    Ok(index)
}

/// The build configuration `kbtim build --cap CAP --seed 42` uses —
/// what a delta tier must be attached with.
fn cli_build_config(cap: u64) -> IndexBuildConfig {
    IndexBuildConfig {
        sampling: SamplingConfig { eps: 0.5, theta_cap: Some(cap), ..SamplingConfig::fast() },
        threads: 2,
        seed: BUILD_SEED,
        ..IndexBuildConfig::default()
    }
}

/// Everything the traced pass needs to know about where it runs.
pub struct TraceInput<'a> {
    pub workload: &'a Workload,
    pub scale: &'a Scale,
    /// The workload's built index (unused for `live_ingest`, whose wire
    /// run mutates its index; the trace builds a private one).
    pub idx: &'a Path,
    /// Scratch directory for the private delta fixture.
    pub work: &'a Path,
    /// Where the span log goes.
    pub spans_out: &'a Path,
}

pub fn run(input: &TraceInput<'_>) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    layer_micro(input.scale, &mut m);
    let mut delta = DeltaFixture::build(input.scale, &input.work.join("delta"))?;
    delta.apply_timed(&mut m)?;

    let spans = if input.workload.kind == Kind::LiveIngest {
        let engine = QueryEngine::new(Arc::clone(&delta.index))
            .with_batch_window(Some(Duration::from_micros(200)))
            .with_delta(Arc::clone(&delta.tier));
        m.insert("index.open_s", delta.open_s);
        replay(input, Arc::clone(&delta.index), engine, Some(&delta.tier), &mut m)?
    } else {
        let started = Instant::now();
        let index = Arc::new(open_index(input.idx, serving_mode(input.workload))?);
        m.insert("index.open_s", started.elapsed().as_secs_f64());
        let engine = engine_for(input.workload, Arc::clone(&index));
        replay(input, index, engine, None, &mut m)?
    };
    delta.flush_timed(&mut m)?;
    spans
        .write_jsonl(input.spans_out)
        .map_err(|e| format!("{}: {e}", input.spans_out.display()))?;
    Ok(m)
}

/// Layers a request replay cannot isolate, timed on their own:
/// propagation (`sample_batch`), codec unpack, exec dispatch, and the
/// disarmed failpoint.
fn layer_micro(scale: &Scale, m: &mut Metrics) {
    let data = DatasetConfig::family(DatasetFamily::News)
        .num_users(scale.users)
        .num_topics(scale.topics)
        .seed(DATA_SEED)
        .build();
    let model = IcModel::weighted_cascade(&data.graph);
    let sets = 20_000usize;
    let n = data.graph.num_nodes();
    let started = Instant::now();
    let batch =
        sample_batch(&model, sets, BUILD_SEED, &ExecPool::new(Some(1)), |rng| rng.gen_range(0..n));
    m.insert(
        "build.sample_sets_per_s",
        black_box(batch.len()) as f64 / started.elapsed().as_secs_f64(),
    );

    // One 13-bit block (ids of a 100k-user universe after delta coding
    // sit around there), unpacked over and over.
    let values: Vec<u32> =
        (0..bitpack::BLOCK_LEN as u32).map(|i| i.wrapping_mul(2654435761) >> 19).collect();
    let width = bitpack::max_bits(&values);
    let mut packed = Vec::new();
    bitpack::pack_block(&values, width, &mut packed);
    let mut out = Vec::with_capacity(bitpack::BLOCK_LEN);
    let rounds = 200_000u64;
    let started = Instant::now();
    for _ in 0..rounds {
        out.clear();
        bitpack::unpack_block(black_box(&packed), width, &mut out).expect("a block packed above");
        black_box(&out);
    }
    let unpacked = rounds * bitpack::BLOCK_LEN as u64;
    m.insert("codec.unpack_mu32_per_s", unpacked as f64 / started.elapsed().as_secs_f64() / 1e6);

    let pool = ExecPool::new(Some(2));
    pool.map_shards(2, |i| i);
    let rounds = 20_000u32;
    let started = Instant::now();
    for _ in 0..rounds {
        black_box(pool.map_shards(2, black_box));
    }
    m.insert("exec.dispatch_ns", started.elapsed().as_nanos() as f64 / rounds as f64);

    kbtim::fault::reset();
    let rounds = 20_000_000u64;
    let started = Instant::now();
    for _ in 0..rounds {
        black_box(kbtim::fault::inject(black_box("engine.decode")));
    }
    m.insert("fault.inject_ns", started.elapsed().as_nanos() as f64 / rounds as f64);
}

/// A private live-scale index with a delta tier attached, for the
/// mutable tier's own costs (and as `live_ingest`'s replay target).
struct DeltaFixture {
    dir: std::path::PathBuf,
    index: Arc<KbtimIndex>,
    tier: Arc<DeltaIndex>,
    open_s: f64,
    users: u32,
    topics: u32,
}

impl DeltaFixture {
    fn build(scale: &Scale, dir: &Path) -> Result<DeltaFixture, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let data = DatasetConfig::family(DatasetFamily::News)
            .num_users(scale.live_users)
            .num_topics(scale.live_topics)
            .seed(DATA_SEED)
            .build();
        let model = IcModel::weighted_cascade(&data.graph);
        let config = cli_build_config(scale.live_cap);
        IndexBuilder::new(&model, &data.profiles, config).build(dir).map_err(|e| e.to_string())?;
        let started = Instant::now();
        let index = Arc::new(open_index(dir, ServingMode::Mmap)?);
        let open_s = started.elapsed().as_secs_f64();
        let tier = DeltaIndex::attach(Arc::clone(&index), &data.graph, &data.profiles, config)
            .map_err(|e| e.to_string())?;
        Ok(DeltaFixture {
            dir: dir.to_path_buf(),
            index,
            tier: Arc::new(tier),
            open_s,
            users: scale.live_users,
            topics: scale.live_topics,
        })
    }

    /// Eight edge and eight weight mutations, one `apply` each. No
    /// `ingest_user`: the replay that follows merges overlay lists with
    /// the base catalog's |V| (see `replay`), and an edge already
    /// dirties every keyword exactly as a new user does.
    fn apply_timed(&mut self, m: &mut Metrics) -> Result<(), String> {
        let (mut edges, mut weights) = (Vec::new(), Vec::new());
        for i in 0..8u32 {
            let from = (i * 7919 + 13) % self.users;
            let edge = Mutation::IngestEdge { from, to: (from + 1 + i) % self.users };
            let started = Instant::now();
            self.tier.apply(&[edge]).map_err(|e| e.to_string())?;
            edges.push(us(started.elapsed()));
            let weight = Mutation::SetTopicWeight {
                user: (i * 104_729 + 5) % self.users,
                topic: i % self.topics,
                weight: 0.25 + i as f32 / 16.0,
            };
            let started = Instant::now();
            self.tier.apply(&[weight]).map_err(|e| e.to_string())?;
            weights.push(us(started.elapsed()));
        }
        m.insert("delta.apply_edge_us", median(&edges));
        m.insert("delta.apply_weight_us", median(&weights));
        let journal = std::fs::metadata(self.dir.join(kbtim::index::delta::DELTA_JOURNAL_FILE))
            .map_or(0, |f| f.len());
        m.insert("delta.journal_bytes_per_mutation", journal as f64 / 16.0);
        m.insert("delta.overlay_keywords", self.tier.stats().overlay_keywords as f64);

        let rounds = 100_000u32;
        let started = Instant::now();
        for _ in 0..rounds {
            black_box(self.tier.snapshot());
        }
        m.insert("delta.snapshot_us", us(started.elapsed()) / rounds as f64);

        let snapshot = self.tier.snapshot();
        let mut queries = QueryGen::new(Kind::LiveIngest, self.topics, TRACE_SEED);
        let mut decodes = Vec::new();
        for _ in 0..24 {
            let q = queries.next_query();
            let (_, budget) = snapshot.query_budget(&Query::new(q.topics.iter().copied(), q.k));
            let started = Instant::now();
            let arena = snapshot.decode_union(&budget).map_err(|e| e.to_string())?;
            decodes.push(us(started.elapsed()));
            self.index.recycle_keywords(arena);
        }
        m.insert("delta.decode_union_us", median(&decodes));
        Ok(())
    }

    fn flush_timed(&mut self, m: &mut Metrics) -> Result<(), String> {
        let started = Instant::now();
        let generation = self.tier.flush().map_err(|e| e.to_string())?;
        m.insert("delta.flush_s", started.elapsed().as_secs_f64());
        let rewritten =
            dir_bytes(&self.dir.join(format!("{}{generation}", kbtim::index::GEN_DIR_PREFIX)));
        m.insert("delta.flush_bytes_rewritten", rewritten as f64);
        Ok(())
    }
}

/// The replayed requests, ready in every form a pass needs.
struct Replay {
    req: QueryReq,
    line: String,
    framed: Vec<u8>,
    query: Query,
    engine_req: EngineRequest,
}

fn replay_list(workload: &Workload, topics: u32, n: usize) -> Vec<Replay> {
    let mut gen = QueryGen::new(workload.kind, topics, TRACE_SEED);
    (0..n as u64)
        .map(|id| {
            let req = gen.next_query();
            let line = req.line(id);
            let algo = if req.irr { Algo::Irr } else { Algo::Rr };
            Replay {
                framed: format!("{line}\n").into_bytes(),
                query: Query::new(req.topics.iter().copied(), req.k),
                engine_req: EngineRequest::new(req.topics.iter().copied(), req.k).with_algo(algo),
                line,
                req,
            }
        })
        .collect()
}

/// One served copy of the workload's engine: what a replayed request
/// is framed, handled and answered by.
struct Served {
    engine: Arc<QueryEngine>,
    router: Router,
    ctx: ServeCtx,
    framer: LineFramer,
}

impl Served {
    fn new(engine: QueryEngine) -> Served {
        let engine = Arc::new(engine);
        Served {
            router: Router::single(Arc::clone(&engine)),
            ctx: ServeCtx::new(1024, None).with_front_end("epoll"),
            framer: LineFramer::new(1 << 20),
            engine,
        }
    }

    /// Frame one request and run it through `handle_line_ctx`, under
    /// spans when `tracer` records. Returns whether the merge cache
    /// served it.
    fn handle(&mut self, tracer: &mut Tracer, r: &Replay, i: u64) -> Result<bool, String> {
        let hits_before = self.engine.merge_cache_hits();
        let response = tracer.span("request", i, |t| {
            let mut framed = Vec::with_capacity(1);
            t.span("serve.frame", i, |_| self.framer.push(&r.framed, &mut framed));
            let Some(FramedLine::Line(line)) = framed.first() else { return None };
            Some(t.span("serve.handle_line", i, |_| handle_line_ctx(&self.router, &self.ctx, line)))
        });
        match response {
            Some(r) if r.contains("\"seeds\"") => Ok(self.engine.merge_cache_hits() > hits_before),
            other => Err(format!("replayed request {i} was not answered: {other:?}")),
        }
    }
}

/// The replay proper. The host's speed wanders by ±10 % over seconds,
/// so anything compared is measured *adjacently*: every request is run
/// four ways back to back, in an order that rotates from request to
/// request so that none of the four always runs on a warm CPU cache:
///
/// * U — frame + `handle_line_ctx`, unspanned: the reference time;
/// * S — the same under spans: `trace.overhead_share` is S against U;
/// * E — `QueryEngine::query_deadline` alone: the engine's share;
/// * G — the *staged* chain: the bench calls parse, budget, decode,
///   merge, greedy and render itself, one span each, following the
///   route the engine took for that request (cache hit → greedy only;
///   unbatched flat IRR → the native scan as one stage).
///
/// U, S and E each run on their own engine of the same configuration,
/// so each merge cache sees every request once per round, as a server
/// would. Then, over the same list: direct `query_rr` / `query_irr`
/// with allocation counts, and `query_window` over windows of eight
/// for the planner's books.
fn replay(
    input: &TraceInput<'_>,
    index: Arc<KbtimIndex>,
    engine: QueryEngine,
    tier: Option<&Arc<DeltaIndex>>,
    m: &mut Metrics,
) -> Result<Tracer, String> {
    let workload = input.workload;
    let topics = index.meta().num_topics;
    let requests = replay_list(workload, topics, input.scale.trace_requests);
    let n = requests.len() as f64;
    let batched = engine.batch_window().is_some();
    let cached = engine.merge_cache_capacity() > 0;
    let window = engine.batch_window();
    let twin = || match tier {
        Some(t) => {
            QueryEngine::new(Arc::clone(&index)).with_batch_window(window).with_delta(Arc::clone(t))
        }
        None => engine_for(workload, Arc::clone(&index)),
    };
    let (mut spanned, direct) = (Served::new(twin()), twin());
    let mut plain = Served::new(engine);

    // Warm every engine alike (merge cache, scratch pools, page cache).
    // The request list repeats unchanged, so which requests the cache
    // serves is the same in every later round.
    let warm = Instant::now();
    let mut off = Tracer::new(false);
    let mut cache_hit = vec![false; requests.len()];
    for (i, r) in requests.iter().enumerate() {
        plain.handle(&mut off, r, i as u64)?;
        spanned.handle(&mut off, r, i as u64)?;
        direct.query_deadline(&r.engine_req, None).map_err(|e| e.to_string())?;
    }
    if cached {
        for (i, r) in requests.iter().enumerate() {
            cache_hit[i] = spanned.handle(&mut off, r, i as u64)?;
        }
    }
    // Short replays repeat, so nothing is read off a millisecond.
    let rounds = (0.3 / warm.elapsed().as_secs_f64().max(1e-6)).ceil().clamp(1.0, 40.0) as usize;

    let snapshot = tier.map(|t| t.snapshot());
    let budget_of = |q: &Query| match &snapshot {
        Some(s) => s.query_budget(q),
        None => index.query_budget(q),
    };
    let decode = |budget: &[(u32, u64)]| match &snapshot {
        Some(s) => s.decode_union(budget),
        None => index.decode_keywords(budget),
    };
    let native_irr = !batched && tier.is_none() && index.num_shards() == 1;
    let shards = index.num_shards();
    // Merged instances the bench holds for requests the cache serves,
    // built outside every span.
    let mut held: HashMap<Vec<u32>, MergedQuery> = HashMap::new();
    let (mut held_decode, mut held_merge) = (Duration::ZERO, Duration::ZERO);

    let mut tracer = Tracer::new(true);
    let (mut plain_s, mut spanned_s, mut direct_s) = (0.0f64, 0.0f64, 0.0f64);
    let mut handle_us = Vec::with_capacity(requests.len() * rounds);
    let (hits0, misses0) = (plain.engine.merge_cache_hits(), plain.engine.merge_cache_misses());
    let mut io = kbtim::storage::IoSnapshot::default();
    for round in 0..rounds {
        for (at, r) in requests.iter().enumerate() {
            let i = at as u64;
            if cached && cache_hit[at] && !held.contains_key(r.query.topics()) {
                let budget = budget_of(&r.query).1;
                let started = Instant::now();
                let arena = decode(&budget).map_err(|e| e.to_string())?;
                held_decode += started.elapsed();
                let started = Instant::now();
                let merged = index.merge_keywords(&r.query, &arena).map_err(|e| e.to_string())?;
                held_merge += started.elapsed();
                index.recycle_keywords(arena);
                held.insert(r.query.topics().to_vec(), merged);
            }
            for step in 0..4 {
                match (step + at + round) % 4 {
                    0 => {
                        let io_before = index.io_stats().snapshot();
                        let started = Instant::now();
                        plain.handle(&mut off, r, i)?;
                        let took = started.elapsed();
                        plain_s += took.as_secs_f64();
                        handle_us.push(us(took));
                        let d = index.io_stats().snapshot().since(&io_before);
                        io.read_ops += d.read_ops;
                        io.bytes_read += d.bytes_read;
                        io.cache_hits += d.cache_hits;
                        io.bytes_served += d.bytes_served;
                    }
                    1 => {
                        let started = Instant::now();
                        cache_hit[at] = spanned.handle(&mut tracer, r, i)?;
                        spanned_s += started.elapsed().as_secs_f64();
                    }
                    2 => {
                        let started = Instant::now();
                        black_box(
                            direct
                                .query_deadline(&r.engine_req, None)
                                .map_err(|e| e.to_string())?,
                        );
                        direct_s += started.elapsed().as_secs_f64();
                    }
                    _ => {
                        let hit = cached && cache_hit[at] && held.contains_key(r.query.topics());
                        tracer.span("staged", i, |t| -> Result<(), String> {
                            let parsed = t
                                .span("serve.parse", i, |_| ServeRequest::parse(&r.line))
                                .map_err(|e| e.to_string())?;
                            let outcome =
                                t.span("engine.query", i, |t| -> Result<QueryOutcome, String> {
                                    if native_irr && r.req.irr {
                                        return t
                                            .span("index.irr", i, |_| index.query_irr(&r.query))
                                            .map_err(|e| e.to_string());
                                    }
                                    let (_, budget) =
                                        t.span("index.budget", i, |_| budget_of(&r.query));
                                    if hit {
                                        let merged = &held[r.query.topics()];
                                        return Ok(t.span("core.greedy", i, |_| {
                                            index.query_merged(merged, r.req.k)
                                        }));
                                    }
                                    let arena = t
                                        .span("index.decode", i, |_| decode(&budget))
                                        .map_err(|e| e.to_string())?;
                                    let merged = t
                                        .span("index.merge", i, |_| {
                                            index.merge_keywords(&r.query, &arena)
                                        })
                                        .map_err(|e| e.to_string())?;
                                    let outcome = t.span("core.greedy", i, |_| {
                                        index.query_merged(&merged, r.req.k)
                                    });
                                    index.recycle_merged(merged);
                                    index.recycle_keywords(arena);
                                    Ok(outcome)
                                })?;
                            black_box(t.span("serve.render", i, |_| {
                                render_outcome(
                                    parsed.id,
                                    None,
                                    parsed.request.algo,
                                    &outcome,
                                    shards,
                                    None,
                                    Some("epoll"),
                                )
                            }));
                            Ok(())
                        })?;
                    }
                }
            }
        }
    }
    let replayed = rounds as f64 * n;
    let (hits, misses) =
        (plain.engine.merge_cache_hits() - hits0, plain.engine.merge_cache_misses() - misses0);
    m.insert("storage.read_ops_per_query", io.read_ops as f64 / replayed);
    m.insert("storage.bytes_read_per_query", io.bytes_read as f64 / replayed);
    m.insert("storage.cache_hits_per_query", io.cache_hits as f64 / replayed);
    m.insert("storage.bytes_served_per_query", io.bytes_served as f64 / replayed);
    m.insert(
        "engine.merge_cache_hit_ratio",
        if hits + misses > 0 { hits as f64 / (hits + misses) as f64 } else { 0.0 },
    );
    m.insert("engine.merge_cache_bytes", plain.engine.merge_cache_bytes() as f64);
    m.insert("trace.overhead_share", (spanned_s - plain_s) / plain_s);

    let per_request = |ns: u64| ns as f64 / 1e3 / replayed;
    let durations = duration_by_name(tracer.spans());
    let handle_line_us = per_request(durations["serve.handle_line"]);
    let engine_us = direct_s * 1e6 / replayed;
    m.insert("serve.frame_us", per_request(durations["serve.frame"]));
    m.insert("serve.handle_line_us", handle_line_us);
    m.insert("serve.handle_line_p50_us", median(&handle_us));
    m.insert("engine.query_us", engine_us);
    m.insert("serve.protocol_self_us", handle_line_us - engine_us);

    // S and G use disjoint span names, so one self-time table serves.
    let stages = self_time_by_name(tracer.spans());
    let stage_us = |name: &str| stages.get(name).map_or(0.0, |&ns| per_request(ns));
    for (metric, span) in [
        ("serve.parse_us", "serve.parse"),
        ("serve.render_us", "serve.render"),
        ("index.budget_us", "index.budget"),
        ("core.greedy_us", "core.greedy"),
    ] {
        m.insert(metric, stage_us(span));
    }
    // Decode and merge are priced per *call*, with how often a request
    // makes one beside them: on a workload the cache serves entirely
    // the staged chain never decodes, and the calls that built the
    // bench's own copies of the cached instances are what is timed.
    let staged_decodes = tracer.spans().iter().filter(|s| s.name == "index.decode").count();
    let calls = (staged_decodes + held.len()).max(1) as f64;
    let total_us =
        |name: &str, held: Duration| stages.get(name).map_or(0.0, |&ns| ns as f64 / 1e3) + us(held);
    m.insert("index.decode_us", total_us("index.decode", held_decode) / calls);
    m.insert("index.merge_us", total_us("index.merge", held_merge) / calls);
    m.insert("index.decodes_per_request", staged_decodes as f64 / replayed);
    let engine_stages: f64 =
        ["index.budget", "index.decode", "index.merge", "core.greedy", "index.irr"]
            .iter()
            .map(|s| stage_us(s))
            .sum();
    m.insert("engine.self_us", engine_us - engine_stages);
    m.insert(
        "trace.accounted_share",
        (engine_stages + stage_us("serve.parse") + stage_us("serve.render")) / handle_line_us,
    );
    for merged in held.into_values() {
        index.recycle_merged(merged);
    }

    // Direct calls into the two query algorithms.
    let direct = &requests[..requests.len().min(DIRECT_REQUESTS)];
    let d = direct.len() as f64;
    for (name_us, name_allocs, irr) in
        [("index.rr_us", "index.rr_allocs", false), ("index.irr_us", "index.irr_allocs", true)]
    {
        let run =
            |r: &Replay| if irr { index.query_irr(&r.query) } else { index.query_rr(&r.query) };
        for r in direct {
            run(r).map_err(|e| e.to_string())?;
        }
        let (mut theta, mut loaded) = (0u64, 0u64);
        let allocs_before = allocations();
        let started = Instant::now();
        for r in direct {
            let out = run(r).map_err(|e| e.to_string())?;
            theta += out.stats.theta_q;
            loaded += out.stats.rr_sets_loaded;
        }
        m.insert(name_us, us(started.elapsed()) / d);
        m.insert(name_allocs, (allocations() - allocs_before) as f64 / d);
        if irr {
            m.insert("index.irr_loaded_ratio", loaded as f64 / theta.max(1) as f64);
        } else {
            m.insert("index.theta_q_mean", theta as f64 / d);
        }
    }

    // The planner's books, on a fresh engine so they start at zero.
    let windowed = twin();
    for window in requests.chunks(WINDOW) {
        let batch: Vec<_> = window.iter().map(|r| (r.engine_req.clone(), None)).collect();
        for result in windowed.query_window(&batch) {
            result.map_err(|e| e.to_string())?;
        }
    }
    m.insert("engine.coalesced", windowed.coalesced() as f64);
    m.insert("engine.batches", windowed.batches() as f64);
    m.insert(
        "engine.batch_size_mean",
        windowed.batched_requests() as f64 / windowed.batches().max(1) as f64,
    );
    m.insert("engine.keywords_decoded", windowed.keywords_decoded() as f64);
    m.insert("engine.keyword_decodes_shared", windowed.keyword_decodes_shared() as f64);
    m.insert("engine.greedy_shared", windowed.greedy_shared() as f64);

    storage_and_codec(&index, m)?;
    Ok(tracer)
}

/// Read every block of every keyword segment through a `BlockSource`
/// in the workload's serving mode, and decode the fixture's own RR
/// blocks through the codec.
fn storage_and_codec(index: &KbtimIndex, m: &mut Metrics) -> Result<(), String> {
    let meta = index.meta();
    let seg_dir = index.dir();
    let mut segments = Vec::new();
    for shard in 0..index.num_shards() {
        let base = if index.num_shards() > 1 {
            seg_dir.join(shard_dir_name(shard))
        } else {
            seg_dir.to_path_buf()
        };
        for kw in meta.keywords.iter().filter(|k| k.theta > 0) {
            let path = base.join(keyword_file_name(kw.topic));
            if path.exists() {
                segments.push(path);
            }
        }
    }
    if segments.is_empty() {
        return Err(format!("no keyword segments under {}", seg_dir.display()));
    }
    let mode = index.serving_mode();
    let sources: Vec<BlockSource> = segments
        .iter()
        .map(|p| {
            BlockSource::open(p, IoStats::new(), mode).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect::<Result<_, _>>()?;
    let mut reads = Vec::with_capacity(sources.len());
    for source in &sources {
        let started = Instant::now();
        for block in source.blocks() {
            black_box(source.read_block(&block.name).map_err(|e| e.to_string())?.len());
        }
        reads.push(us(started.elapsed()));
    }
    m.insert("storage.read_us", median(&reads));

    let codec = meta.codec;
    let (mut ids, mut offsets) = (Vec::new(), Vec::new());
    let (mut decoded, mut bytes, mut spent) = (0u64, 0u64, Duration::ZERO);
    for source in &sources {
        let sets =
            (source.block_len(RR_OFF_BLOCK).map_err(|e| e.to_string())? / 8).saturating_sub(1);
        let block = source.read_block(RR_BLOCK).map_err(|e| e.to_string())?;
        ids.clear();
        offsets.clear();
        let started = Instant::now();
        let used = codec
            .decode_lists_into(&block, sets as usize, &mut ids, &mut offsets)
            .map_err(|e| e.to_string())?;
        spent += started.elapsed();
        decoded += ids.len() as u64;
        bytes += used as u64;
    }
    m.insert("codec.decode_mu32_per_s", decoded as f64 / spent.as_secs_f64().max(1e-9) / 1e6);
    m.insert("codec.bytes_per_u32", bytes as f64 / decoded.max(1) as f64);
    let total_sets: u64 = meta.keywords.iter().map(|k| k.theta).sum();
    m.insert("build.bytes_per_rr_set", dir_bytes(seg_dir) as f64 / total_sets.max(1) as f64);
    Ok(())
}
