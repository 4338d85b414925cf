//! Record a machine-readable baseline for the hardened serving runtime.
//!
//! Two questions, one committed answer (`BENCH_robust.json`):
//!
//! 1. **What does overload control buy?** A closed-loop storm of 8
//!    client threads drives the serving front-end
//!    ([`kbtim::serve::handle_line_ctx`]) at 2× the admitted
//!    concurrency, once with the bounded queue (`--max-queue 4`
//!    semantics: excess requests shed as `overloaded`) and once with
//!    shedding disabled. Goodput and the latency distribution of the
//!    *successful* answers are recorded for both: shedding keeps p99
//!    near the uncontended service time, unbounded admission multiplies
//!    it by the queue depth.
//! 2. **What do disarmed failpoints cost?** The registry's fast path is
//!    one atomic load; this bench measures it directly (a tight probe
//!    loop), counts how many evaluations a real query performs (every
//!    point armed as counting `noop`), and **asserts** the implied
//!    end-to-end overhead stays under 2% — the number the failpoint
//!    crate's docs promise.
//!
//! ```text
//! cargo run --release -p kbtim-bench --bin robust_baseline [--smoke] [OUT.json]
//! ```
//!
//! `--smoke` shrinks the dataset and storm duration for CI (and skips
//! writing the JSON unless a path is given explicitly). Answers are
//! spot-checked bit-identical to a fault-free serial oracle throughout.

use kbtim::serve::{handle_line, handle_line_ctx, Json, Router, ServeCtx};
use kbtim_core::theta::SamplingConfig;
use kbtim_datagen::{DatasetConfig, DatasetFamily};
use kbtim_index::{
    IndexBuildConfig, IndexBuilder, IndexVariant, KbtimIndex, PageCache, QueryEngine, ServingMode,
    ThetaMode,
};
use kbtim_propagation::model::IcModel;
use kbtim_storage::{IoStats, TempDir};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

const SEED: u64 = 42;
const TOPICS: u32 = 16;
/// Offered concurrency of the storm…
const OFFERED_CLIENTS: usize = 8;
/// …against this many admitted slots: 2× overload.
const ADMITTED: usize = 4;
/// Max disarmed overhead, as promised by the `kbtim-fault` docs.
const MAX_OVERHEAD_PCT: f64 = 2.0;

/// The request mix, as protocol lines: the storm exercises the full
/// front-end, parse included.
const LINES: [&str; 6] = [
    r#"{"id":1,"topics":[0,1],"k":10,"algo":"rr"}"#,
    r#"{"id":2,"topics":[0,1],"k":10,"algo":"irr"}"#,
    r#"{"id":3,"topics":[2,3,4],"k":10,"algo":"rr"}"#,
    r#"{"id":4,"topics":[2,3,4],"k":10,"algo":"irr"}"#,
    r#"{"id":5,"topics":[0,5,9,12],"k":25,"algo":"rr"}"#,
    r#"{"id":6,"topics":[0,5,9,12],"k":25,"algo":"irr"}"#,
];

struct Config {
    users: u32,
    theta_cap: u64,
    /// Wall-clock length of each overload scenario.
    storm: Duration,
    /// Iterations of the tight disarmed-probe loop.
    probes: u64,
    /// Closed-loop rounds of the mix for the uncontended baseline.
    baseline_rounds: usize,
}

struct StormRow {
    label: &'static str,
    max_queue: String,
    served: u64,
    shed: u64,
    goodput_qps: f64,
    p50_ms: f64,
    p99_ms: f64,
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
        Config {
            users: 2_000,
            theta_cap: 600,
            storm: Duration::from_millis(1_200),
            probes: 2_000_000,
            baseline_rounds: 20,
        }
    } else {
        Config {
            users: 20_000,
            theta_cap: 2_000,
            storm: Duration::from_secs(8),
            probes: 20_000_000,
            baseline_rounds: 100,
        }
    };
    // This bench measures the *disarmed* runtime: drop anything
    // KBTIM_FAILPOINTS armed at startup.
    kbtim_fault::reset();
    let host_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

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
    let dir = TempDir::new("robust-baseline-idx").unwrap();
    let report = IndexBuilder::new(&model, &data.profiles, build_config).build(dir.path()).unwrap();
    eprintln!(
        "index built: Σθ_w = {}, {:.1} MiB, {:.1}s",
        report.total_theta,
        report.total_bytes as f64 / (1024.0 * 1024.0),
        report.elapsed.as_secs_f64()
    );

    // The server configuration: mmap pages through the process-wide
    // cache, per-query fan-out pinned to 1 (the `kbtim serve` default).
    let mut index =
        KbtimIndex::open_shared(dir.path(), IoStats::new(), ServingMode::Mmap, PageCache::global())
            .unwrap();
    index.set_threads(Some(1));
    let router = Arc::new(Router::single(Arc::new(QueryEngine::new(Arc::new(index)))));

    // Fault-free oracle: line → seeds. Every success below, storm or
    // not, must reproduce these bit-identically.
    let oracle: HashMap<&str, Json> = LINES
        .iter()
        .map(|&line| {
            let response = handle_line(&router, line);
            (line, seeds_of(&response).unwrap_or_else(|| panic!("oracle for {line}: {response}")))
        })
        .collect();

    // ---- Uncontended baseline: one client, closed loop. --------------
    let solo = ServeCtx::unlimited();
    let mut solo_lat = Vec::with_capacity(config.baseline_rounds * LINES.len());
    let started = Instant::now();
    for _ in 0..config.baseline_rounds {
        for line in LINES {
            let t0 = Instant::now();
            let response = handle_line_ctx(&router, &solo, line);
            solo_lat.push(t0.elapsed().as_secs_f64() * 1e3);
            assert_eq!(seeds_of(&response).as_ref(), Some(&oracle[line]));
        }
    }
    let solo_secs = started.elapsed().as_secs_f64();
    let solo_qps = solo_lat.len() as f64 / solo_secs;
    solo_lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let (solo_p50, solo_p99) = (percentile(&solo_lat, 0.50), percentile(&solo_lat, 0.99));
    let mean_query_ns = solo_secs * 1e9 / solo_lat.len() as f64;
    eprintln!("uncontended: {solo_qps:.0} qps, p50 {solo_p50:.2} ms, p99 {solo_p99:.2} ms");

    // ---- Disarmed-failpoint overhead. --------------------------------
    // (a) the fast path itself, probed tight;
    let started = Instant::now();
    for _ in 0..config.probes {
        black_box(kbtim_fault::inject(black_box("bench.probe")));
    }
    let ns_per_inject = started.elapsed().as_secs_f64() * 1e9 / config.probes as f64;
    // (b) how often a real query reaches a failpoint: arm everything as
    // counting `noop` (never misbehaves, books every evaluation) and
    // replay the mix on the warm engine.
    kbtim_fault::arm("*", "noop").unwrap();
    const COUNT_ROUNDS: usize = 4;
    for _ in 0..COUNT_ROUNDS {
        for line in LINES {
            let response = handle_line(&router, line);
            assert_eq!(seeds_of(&response).as_ref(), Some(&oracle[line]));
        }
    }
    let evals: u64 = kbtim_fault::evaluations().iter().map(|(_, hits, _)| hits).sum();
    kbtim_fault::reset();
    let evals_per_query = evals as f64 / (COUNT_ROUNDS * LINES.len()) as f64;
    let overhead_pct = evals_per_query * ns_per_inject / mean_query_ns * 100.0;
    eprintln!(
        "failpoints: {ns_per_inject:.2} ns/inject disarmed, {evals_per_query:.0} \
         evaluations/query, {overhead_pct:.4}% of a {:.0} µs query",
        mean_query_ns / 1e3
    );
    assert!(
        overhead_pct <= MAX_OVERHEAD_PCT,
        "disarmed failpoint overhead {overhead_pct:.3}% exceeds the documented \
         {MAX_OVERHEAD_PCT}% budget"
    );

    // ---- 2× overload storm: shed on, then shed off. ------------------
    let shed_on = run_storm(
        &router,
        &oracle,
        ServeCtx::new(ADMITTED, None),
        "shed_on",
        format!("{ADMITTED}"),
        config.storm,
    );
    let shed_off = run_storm(
        &router,
        &oracle,
        ServeCtx::unlimited(),
        "shed_off",
        "unlimited".to_string(),
        config.storm,
    );
    for row in [&shed_on, &shed_off] {
        eprintln!(
            "{}: served {} ({:.0} qps goodput), shed {}, p50 {:.2} ms, p99 {:.2} ms",
            row.label, row.served, row.goodput_qps, row.shed, row.p50_ms, row.p99_ms
        );
    }

    if smoke && out_path.is_none() {
        eprintln!(
            "smoke run: overhead {overhead_pct:.4}% <= {MAX_OVERHEAD_PCT}%, all checked \
             answers bit-identical to the oracle; no JSON written"
        );
        return;
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_robust.json".to_string());
    let json = format!(
        r#"{{
  "bench": "robust_serving",
  "methodology": "docs/BENCHMARKS.md and docs/OPERATIONS.md (closed-loop storm at 2x admitted concurrency; latencies are successful requests only)",
  "graph": {{ "family": "news", "nodes": {nodes}, "edges": {edges} }},
  "seed": {SEED},
  "host_available_parallelism": {host_threads},
  "index": {{ "users": {users}, "topics": {TOPICS}, "theta_cap": {theta_cap}, "variant": "irr", "partition_size": 100, "total_theta": {total_theta} }},
  "serving_mode": "mmap (process-wide page cache), per_query_threads 1",
  "request_mix": "k=10 w=2, k=10 w=3, k=25 w=4, each via rr and irr, as protocol lines through the full front-end",
  "answers_bit_identical_to_oracle": true,
  "uncontended": {{ "qps": {solo_qps:.1}, "p50_ms": {solo_p50:.3}, "p99_ms": {solo_p99:.3} }},
  "disarmed_failpoints": {{
    "ns_per_inject": {ns_per_inject:.3},
    "evaluations_per_query": {evals_per_query:.1},
    "mean_query_us": {mean_query_us:.1},
    "overhead_pct": {overhead_pct:.5},
    "asserted_max_pct": {MAX_OVERHEAD_PCT}
  }},
  "overload_2x": {{
    "offered_clients": {OFFERED_CLIENTS},
    "storm_seconds": {storm_secs:.1},
    "shed_on": {shed_on_json},
    "shed_off": {shed_off_json}
  }}
}}
"#,
        nodes = data.graph.num_nodes(),
        edges = data.graph.num_edges(),
        users = config.users,
        theta_cap = config.theta_cap,
        total_theta = report.total_theta,
        mean_query_us = mean_query_ns / 1e3,
        storm_secs = config.storm.as_secs_f64(),
        shed_on_json = storm_json(&shed_on),
        shed_off_json = storm_json(&shed_off),
    );
    std::fs::write(&out_path, &json).expect("write baseline json");
    eprintln!("wrote {out_path}");
}

/// Drive `OFFERED_CLIENTS` closed-loop clients against one admission
/// context for a fixed wall-clock window; shed requests back off
/// briefly (as a real client would) instead of spinning.
fn run_storm(
    router: &Arc<Router>,
    oracle: &HashMap<&str, Json>,
    ctx: ServeCtx,
    label: &'static str,
    max_queue: String,
    storm: Duration,
) -> StormRow {
    let ctx = Arc::new(ctx);
    let latencies = Mutex::new(Vec::new());
    let barrier = Barrier::new(OFFERED_CLIENTS);
    std::thread::scope(|scope| {
        for tid in 0..OFFERED_CLIENTS {
            let router = Arc::clone(router);
            let ctx = Arc::clone(&ctx);
            let latencies = &latencies;
            let barrier = &barrier;
            scope.spawn(move || {
                let mut mine = Vec::new();
                barrier.wait();
                let stop = Instant::now() + storm;
                let mut at = tid;
                while Instant::now() < stop {
                    let line = LINES[at % LINES.len()];
                    at += 1;
                    let t0 = Instant::now();
                    let response = handle_line_ctx(&router, &ctx, line);
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    if response.contains("\"seeds\"") {
                        mine.push(ms);
                        // Spot-check determinism under contention without
                        // adding a parse to every request's footprint.
                        if mine.len() % 16 == 0 {
                            assert_eq!(seeds_of(&response).as_ref(), Some(&oracle[line]));
                        }
                    } else if response.contains("\"overloaded\"") {
                        std::thread::sleep(Duration::from_micros(300));
                    } else {
                        panic!("{label}: unexpected response {response}");
                    }
                }
                latencies.lock().unwrap().append(&mut mine);
            });
        }
    });
    let mut latencies = latencies.into_inner().unwrap();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert_eq!(ctx.served(), latencies.len() as u64, "admission books must balance");
    StormRow {
        label,
        max_queue,
        served: ctx.served(),
        shed: ctx.shed(),
        goodput_qps: latencies.len() as f64 / storm.as_secs_f64(),
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
    }
}

fn storm_json(row: &StormRow) -> String {
    format!(
        r#"{{ "max_queue": "{}", "served": {}, "shed": {}, "goodput_qps": {:.1}, "p50_ms": {:.3}, "p99_ms": {:.3} }}"#,
        row.max_queue, row.served, row.shed, row.goodput_qps, row.p50_ms, row.p99_ms
    )
}

/// The `"seeds"` field of a successful response, parsed.
fn seeds_of(response: &str) -> Option<Json> {
    Json::parse(response).ok()?.get("seeds").cloned()
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let at = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[at]
}
