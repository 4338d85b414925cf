//! Record a machine-readable baseline for the SIMD decode kernels and
//! the cross-batch prepared-query cache.
//!
//! Two layers, measured in one binary because they bound the same cost
//! — getting keyword postings from disk bytes to merged coverage:
//!
//! 1. **Kernel microbench** — `bitpack::unpack_block` throughput,
//!    scalar versus every SIMD tier this host supports, across the bit
//!    widths real indexes produce. Both paths decode the same packed
//!    blocks and the outputs are asserted equal, so the speedup numbers
//!    are backed by a bit-equality check in the bench itself.
//! 2. **Query-level cache run** — a 100k-node news-family graph
//!    served twice over several rounds of a hot keyword-set mix: once
//!    with the engine's cache off (every round decodes again) and once
//!    with it on (round one decodes each keyword once, later rounds
//!    skip decode entirely). The books prove it:
//!    `keywords_decoded` grows linearly without the cache and stays
//!    **flat** with it while the request count keeps growing.
//!
//! ```text
//! cargo run --release -p kbtim-bench --bin decode_baseline [--smoke] [OUT.json]
//! ```
//!
//! `--smoke` shrinks the dataset and round count for CI (and skips
//! writing the JSON unless a path is given explicitly). Methodology and
//! regeneration commands: `docs/BENCHMARKS.md`.

use kbtim_codec::bitpack::{pack_block, unpack_block_scalar, unpack_block_with, BLOCK_LEN};
use kbtim_codec::simd::{active_level, supported_levels, SimdLevel};
use kbtim_core::theta::SamplingConfig;
use kbtim_datagen::{DatasetConfig, DatasetFamily};
use kbtim_index::{
    Algo, EngineRequest, IndexBuildConfig, IndexBuilder, IndexVariant, KbtimIndex, PageCache,
    QueryEngine, ServingMode, ThetaMode,
};
use kbtim_propagation::model::IcModel;
use kbtim_storage::{IoStats, TempDir};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 42;
const TOPICS: u32 = 16;
const WIDTHS: [u8; 10] = [1, 2, 4, 5, 8, 12, 16, 20, 25, 32];
const BATCH_WINDOW_US: u64 = 150;
const MERGE_CACHE_ENTRIES: usize = 64;

struct Config {
    users: u32,
    theta_cap: u64,
    /// Packed blocks per width in the kernel microbench.
    blocks: usize,
    /// Decode passes over those blocks per measurement.
    passes: usize,
    /// Rounds of the hot keyword-set mix in the cache run.
    rounds: usize,
}

/// Deterministic xorshift so the bench needs no RNG dependency and
/// packs identical blocks on every host.
fn xorshift(state: &mut u64) -> u32 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state >> 32) as u32
}

/// Decode `blocks` with `level` `passes` times; returns (million u32
/// per second, checksum) — the checksum forces the work and doubles as
/// the cross-level equality probe.
fn measure_unpack(packed: &[Vec<u8>], width: u8, level: SimdLevel, passes: usize) -> (f64, u64) {
    let mut out = Vec::with_capacity(BLOCK_LEN);
    let mut checksum = 0u64;
    let started = Instant::now();
    for _ in 0..passes {
        for block in packed {
            out.clear();
            let used = unpack_block_with(level, block, width, &mut out).expect("bench block");
            assert_eq!(used, block.len());
            checksum = checksum.wrapping_add(out.iter().map(|&v| u64::from(v)).sum::<u64>());
        }
    }
    let decoded = (passes * packed.len() * BLOCK_LEN) as f64;
    (decoded / started.elapsed().as_secs_f64() / 1e6, checksum)
}

fn main() {
    let mut smoke = false;
    let mut out_path: Option<String> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            other => out_path = Some(other.to_string()),
        }
    }
    let config = if smoke {
        Config { users: 2_000, theta_cap: 800, blocks: 256, passes: 20, rounds: 4 }
    } else {
        Config { users: 100_000, theta_cap: 4_000, blocks: 4_096, passes: 200, rounds: 10 }
    };
    let host_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // ---- Layer 1: unpack kernel, scalar vs every supported tier. ----
    let active = active_level();
    eprintln!(
        "simd: active {} (supported: {})",
        active.name(),
        supported_levels().iter().map(|l| l.name()).collect::<Vec<_>>().join(", ")
    );
    let mut width_rows = Vec::new();
    for width in WIDTHS {
        let mask = if width == 32 { u32::MAX } else { (1u32 << width) - 1 };
        let mut state = SEED | 1;
        let packed: Vec<Vec<u8>> = (0..config.blocks)
            .map(|_| {
                let values: Vec<u32> =
                    (0..BLOCK_LEN).map(|_| xorshift(&mut state) & mask).collect();
                let mut out = Vec::new();
                pack_block(&values, width, &mut out);
                out
            })
            .collect();
        // Scalar reference throughput via the same dispatch entry the
        // oracle tests use.
        let mut scalar_out = Vec::with_capacity(BLOCK_LEN);
        let scalar_check: u64 = packed
            .iter()
            .map(|block| {
                scalar_out.clear();
                unpack_block_scalar(block, width, &mut scalar_out).expect("bench block");
                scalar_out.iter().map(|&v| u64::from(v)).sum::<u64>()
            })
            .sum();
        let (scalar_mps, scalar_sum) =
            measure_unpack(&packed, width, SimdLevel::Scalar, config.passes);
        assert_eq!(scalar_sum, scalar_check.wrapping_mul(config.passes as u64));
        let (simd_mps, simd_sum) = measure_unpack(&packed, width, active, config.passes);
        assert_eq!(simd_sum, scalar_sum, "width {width}: SIMD decode diverged from scalar");
        let speedup = simd_mps / scalar_mps;
        eprintln!(
            "width {width:>2}: scalar {scalar_mps:>8.1} Mu32/s, {} {simd_mps:>8.1} Mu32/s \
             ({speedup:.2}x)",
            active.name()
        );
        width_rows.push(format!(
            r#"    "{width}": {{ "scalar_mu32_per_s": {scalar_mps:.1}, "simd_mu32_per_s": {simd_mps:.1}, "speedup": {speedup:.3} }}"#
        ));
    }

    // ---- Layer 2: cold vs cached serving on the news graph. ----
    eprintln!("generating news-family dataset ({} users, {TOPICS} topics)...", config.users);
    let data = DatasetConfig::family(DatasetFamily::News)
        .num_users(config.users)
        .num_topics(TOPICS)
        .seed(6)
        .build();
    let model = IcModel::weighted_cascade(&data.graph);
    eprintln!("building IRR index...");
    let build_config = IndexBuildConfig {
        sampling: SamplingConfig {
            theta_cap: Some(config.theta_cap),
            opt_initial_samples: 128,
            opt_max_rounds: 6,
            ..SamplingConfig::fast()
        },
        theta_mode: ThetaMode::Compact,
        variant: IndexVariant::Irr { partition_size: 100 },
        threads: host_threads,
        seed: SEED,
        ..IndexBuildConfig::default()
    };
    let dir = TempDir::new("decode-baseline-idx").unwrap();
    let report = IndexBuilder::new(&model, &data.profiles, build_config).build(dir.path()).unwrap();
    eprintln!(
        "index built: Σθ_w = {}, {:.1} MiB, {:.1}s",
        report.total_theta,
        report.total_bytes as f64 / (1024.0 * 1024.0),
        report.elapsed.as_secs_f64()
    );

    let mut index =
        KbtimIndex::open_shared(dir.path(), IoStats::new(), ServingMode::Mmap, PageCache::global())
            .unwrap();
    index.set_threads(Some(1));
    let index = Arc::new(index);
    let window = Some(Duration::from_micros(BATCH_WINDOW_US));
    let cold = Arc::new(QueryEngine::new(Arc::clone(&index)).with_batch_window(window));
    let cached = Arc::new(
        QueryEngine::new(index).with_batch_window(window).with_merge_cache(MERGE_CACHE_ENTRIES),
    );

    // The hot mix: 5 overlapping topic sets × 3 seed counts × rr/irr —
    // 30 distinct requests.
    let topic_sets: [&[u32]; 5] = [&[0, 1], &[0, 1, 2], &[1, 2], &[2, 3], &[0, 3]];
    let mix: Vec<EngineRequest> = topic_sets
        .iter()
        .flat_map(|&topics| {
            [5u32, 15, 25].into_iter().flat_map(move |k| {
                [Algo::Rr, Algo::Irr].into_iter().map(move |algo| EngineRequest {
                    topics: topics.to_vec(),
                    k,
                    algo,
                })
            })
        })
        .collect();
    let expected: Vec<Vec<u32>> =
        mix.iter().map(|req| cold.execute(req).unwrap().seeds.clone()).collect();

    // `(requests_so_far, keywords_decoded_so_far)` after each round, per
    // engine: the cache's contract is the second column going flat.
    let mut round_rows = Vec::new();
    let mut cold_qps = 0.0;
    let mut cached_qps = 0.0;
    for (label, engine, qps_out) in
        [("cold", &cold, &mut cold_qps), ("cached", &cached, &mut cached_qps)]
    {
        let mut books = Vec::new();
        let started = Instant::now();
        for _ in 0..config.rounds {
            for (req, want) in mix.iter().zip(&expected) {
                let outcome = engine.query(req).unwrap();
                assert_eq!(&outcome.seeds, want, "{label} engine diverged from serial");
            }
            books.push((engine.batched_requests(), engine.keywords_decoded()));
        }
        *qps_out = (config.rounds * mix.len()) as f64 / started.elapsed().as_secs_f64();
        eprintln!("{label}: {:.0} qps; (requests, keywords_decoded) by round: {books:?}", *qps_out);
        round_rows.push((label, books));
    }

    // The headline invariant, asserted rather than eyeballed: with the
    // cache every post-warmup round decodes nothing new, without it
    // every round decodes the full mix again.
    let cold_books = &round_rows[0].1;
    let cached_books = &round_rows[1].1;
    assert!(
        cold_books[config.rounds - 1].1 >= cold_books[0].1 * config.rounds as u64,
        "cold keywords_decoded must grow every round"
    );
    let warm = cached_books[0].1;
    for (requests, decoded) in &cached_books[1..] {
        assert_eq!(
            *decoded, warm,
            "cached keywords_decoded must stay flat after warmup (at {requests} requests)"
        );
    }
    // A set's miss decodes what no earlier set left resident, is served
    // in place and publishes its greedy run; a hit slices that run and
    // touches no list; the mix repeats every set within round one — so
    // warm-up decoded each distinct keyword exactly once.
    let distinct_keywords: std::collections::BTreeSet<u32> =
        topic_sets.iter().flat_map(|set| set.iter().copied()).collect();
    assert_eq!(warm, distinct_keywords.len() as u64, "each keyword is decoded once, by a miss");
    assert_eq!(cached.keyword_cache_len(), distinct_keywords.len());
    // The mix asks each set at k = 5, 15, 25 in that order (rr, then
    // irr): one miss for the set plus one per deepening, everything
    // else — the irr twin of each depth, and every later round — a hit.
    let misses = 3 * topic_sets.len() as u64;
    assert_eq!(cached.merge_cache_misses(), misses, "one miss per hot set plus its two deepenings");
    assert_eq!(cached.merge_cache_hits(), (config.rounds * mix.len()) as u64 - misses);
    eprintln!(
        "cache books: {} hits, {} misses, {} evictions, {} entries, {} bytes resident",
        cached.merge_cache_hits(),
        cached.merge_cache_misses(),
        cached.merge_cache_evictions(),
        cached.merge_cache_len(),
        cached.merge_cache_bytes(),
    );

    if smoke && out_path.is_none() {
        eprintln!("smoke run: SIMD bit-identical to scalar, cached books flat; no JSON written");
        return;
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_decode.json".to_string());
    let books_json = |books: &[(u64, u64)]| {
        books
            .iter()
            .map(|(requests, decoded)| {
                format!(r#"      {{ "requests": {requests}, "keywords_decoded": {decoded} }}"#)
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let json = format!(
        r#"{{
  "bench": "decode",
  "methodology": "docs/BENCHMARKS.md",
  "host_available_parallelism": {host_threads},
  "simd": {{ "active": "{active}", "supported": [{supported}] }},
  "unpack_blocks": {blocks},
  "unpack_widths": {{
{width_rows}
  }},
  "graph": {{ "family": "news", "nodes": {nodes}, "edges": {edges} }},
  "seed": {SEED},
  "index": {{ "users": {users}, "topics": {TOPICS}, "theta_cap": {theta_cap}, "variant": "irr", "partition_size": 100, "total_theta": {total_theta} }},
  "serving_mode": "mmap (process-wide page cache)",
  "batch_window_us": {BATCH_WINDOW_US},
  "merge_cache_entries": {MERGE_CACHE_ENTRIES},
  "request_mix": "30 distinct requests: 5 overlapping topic sets x k in (5,15,25) x rr/irr, {rounds} serial rounds",
  "answers_bit_identical_to_serial": true,
  "cold_qps": {cold_qps:.1},
  "cached_qps": {cached_qps:.1},
  "cold_rounds": [
{cold_rows}
  ],
  "cached_rounds": [
{cached_rows}
  ],
  "cache_books": {{ "hits": {hits}, "misses": {misses}, "evictions": {evictions}, "entries": {entries}, "bytes_resident": {bytes} }}
}}
"#,
        active = active.name(),
        supported = supported_levels()
            .iter()
            .map(|l| format!("\"{}\"", l.name()))
            .collect::<Vec<_>>()
            .join(", "),
        blocks = config.blocks,
        width_rows = width_rows.join(",\n"),
        nodes = data.graph.num_nodes(),
        edges = data.graph.num_edges(),
        users = config.users,
        theta_cap = config.theta_cap,
        total_theta = report.total_theta,
        rounds = config.rounds,
        cold_rows = books_json(cold_books),
        cached_rows = books_json(cached_books),
        hits = cached.merge_cache_hits(),
        misses = cached.merge_cache_misses(),
        evictions = cached.merge_cache_evictions(),
        entries = cached.merge_cache_len(),
        bytes = cached.merge_cache_bytes(),
    );
    std::fs::write(&out_path, &json).expect("write baseline json");
    eprintln!("wrote {out_path}");
}
