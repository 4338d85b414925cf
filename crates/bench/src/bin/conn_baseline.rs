//! Record a machine-readable baseline for the connection-scaling story
//! of the TCP serving front ends (`BENCH_conn.json`).
//!
//! The scenario the epoll front end exists for: **M active pipelined
//! clients over N mostly-idle connections**. A thread-per-connection
//! server pays one OS thread per idle advertiser holding a connection
//! open; the epoll loop multiplexes them all onto one thread plus a
//! fixed worker pool. Both front ends serve the same closed-loop
//! pipelined load (depth 8, responses matched by echoed `id`) while
//! the bench records goodput, p99 latency, resident set and **thread
//! count** from `/proc/self/status` — the thread column is the
//! headline: ~idle_conns threads versus a handful.
//!
//! Every answer is checked bit-identical to the serial oracle
//! (`handle_line` on a fresh engine) — the determinism contract is
//! enforced in the bench itself.
//!
//! The bench also pins that windows never wait: they are what the
//! dispatcher's ready queue already holds, so a **single pipelined
//! client with batching on** must reach ≥ 0.95× its unbatched
//! throughput. The ratio is asserted, not just recorded.
//!
//! ```text
//! cargo run --release -p kbtim-bench --bin conn_baseline [--smoke] [OUT.json]
//! ```
//!
//! `--smoke` shrinks the dataset, connection count and round count for
//! CI (and skips writing the JSON unless a path is given explicitly).

use kbtim::serve::{handle_line, serve_epoll, serve_threads, EpollConfig, Json, Router, ServeCtx};
use kbtim_core::theta::SamplingConfig;
use kbtim_datagen::{DatasetConfig, DatasetFamily};
use kbtim_index::{
    IndexBuildConfig, IndexBuilder, IndexVariant, KbtimIndex, PageCache, QueryEngine, ServingMode,
    ThetaMode,
};
use kbtim_propagation::model::IcModel;
use kbtim_storage::{IoStats, TempDir};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 42;
const TOPICS: u32 = 16;
/// Requests in flight per active client.
const PIPELINE_DEPTH: usize = 8;
/// Required batched/unbatched throughput ratio for one pipelined
/// client (the planner fed from the ready queue must not sleep).
const MIN_BATCHED_RATIO: f64 = 0.95;

/// The request mix (same shapes as `robust_baseline`), as bodies —
/// ids are assigned per client so pipelined responses match back.
const BODIES: [&str; 6] = [
    r#""topics":[0,1],"k":10,"algo":"rr""#,
    r#""topics":[0,1],"k":10,"algo":"irr""#,
    r#""topics":[2,3,4],"k":10,"algo":"rr""#,
    r#""topics":[2,3,4],"k":10,"algo":"irr""#,
    r#""topics":[0,5,9,12],"k":25,"algo":"rr""#,
    r#""topics":[0,5,9,12],"k":25,"algo":"irr""#,
];

struct Config {
    users: u32,
    theta_cap: u64,
    /// Mostly-idle connections held open during the storm.
    idle_conns: usize,
    /// Active pipelined clients.
    active_clients: usize,
    /// Requests per active client.
    requests_per_client: usize,
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
            theta_cap: 800,
            idle_conns: 256,
            active_clients: 2,
            requests_per_client: 120,
        }
    } else {
        Config {
            users: 100_000,
            theta_cap: 4_000,
            idle_conns: 4_096,
            active_clients: 4,
            requests_per_client: 600,
        }
    };
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
    let dir = TempDir::new("conn-baseline-idx").unwrap();
    let report = IndexBuilder::new(&model, &data.profiles, build_config).build(dir.path()).unwrap();
    eprintln!(
        "index built: Σθ_w = {}, {:.1} MiB, {:.1}s",
        report.total_theta,
        report.total_bytes as f64 / (1024.0 * 1024.0),
        report.elapsed.as_secs_f64()
    );

    // Serial oracle: body → expected "seeds" value.
    let oracle: HashMap<&'static str, Json> = {
        let engine = Arc::new(QueryEngine::new(Arc::new(open_engine_index(dir.path()))));
        let router = Router::single(engine);
        BODIES
            .iter()
            .map(|&body| {
                let response = handle_line(&router, &format!("{{{body}}}"));
                let json = Json::parse(&response).expect("oracle response parses");
                let seeds = json.get("seeds").expect("oracle answers succeed").clone();
                (body, seeds)
            })
            .collect()
    };

    // The headline comparison: both front ends under the same load,
    // idle connections held open throughout.
    let mut rows = Vec::new();
    let front_ends: &[&str] =
        if cfg!(target_os = "linux") { &["epoll", "threads"] } else { &["threads"] };
    for &fe in front_ends {
        let row = run_scenario(dir.path(), fe, true, &config, &oracle);
        eprintln!(
            "{fe}: {} requests over {} conns ({} active): {:.0} qps, p99 {:.2} ms, \
             rss {:.1} MiB, {} threads",
            config.active_clients * config.requests_per_client,
            config.idle_conns + config.active_clients,
            config.active_clients,
            row.qps,
            row.p99_ms,
            row.rss_mib,
            row.threads,
        );
        rows.push(row);
    }

    // The planner regression gate: one pipelined client, epoll front
    // end, batching on vs off — no idle connections, pure throughput.
    let (batched_ratio_json, batched_ratio) = if cfg!(target_os = "linux") {
        let solo = Config { idle_conns: 0, active_clients: 1, ..config };
        let unbatched = run_measured(dir.path(), "epoll", false, &solo, &oracle);
        let batched = run_measured(dir.path(), "epoll", true, &solo, &oracle);
        let ratio = batched.qps / unbatched.qps;
        eprintln!(
            "1-client epoll: unbatched {:.0} qps, batched {:.0} qps, ratio {ratio:.3} \
             (floor {MIN_BATCHED_RATIO})",
            unbatched.qps, batched.qps
        );
        assert!(
            ratio >= MIN_BATCHED_RATIO,
            "batch planner fed from the ready queue must not sleep: \
             batched {:.1} qps < {MIN_BATCHED_RATIO} x unbatched {:.1} qps",
            batched.qps,
            unbatched.qps
        );
        (format!("{ratio:.3}"), ratio)
    } else {
        ("null".to_string(), f64::NAN)
    };
    let _ = batched_ratio;

    if smoke && out_path.is_none() {
        eprintln!("smoke run: all answers bit-identical to serial; no JSON written");
        return;
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_conn.json".to_string());
    let row_json = rows
        .iter()
        .map(|r| {
            format!(
                r#"    "{}": {{ "qps": {:.1}, "p50_ms": {:.3}, "p99_ms": {:.3}, "rss_mib": {:.1}, "threads": {} }}"#,
                r.front_end, r.qps, r.p50_ms, r.p99_ms, r.rss_mib, r.threads
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        r#"{{
  "bench": "connection_scaling",
  "methodology": "docs/BENCHMARKS.md (M active pipelined clients over N mostly-idle connections; rss/threads from /proc/self/status mid-storm, server in-process)",
  "graph": {{ "family": "news", "nodes": {nodes}, "edges": {edges} }},
  "seed": {SEED},
  "host_available_parallelism": {host_threads},
  "index": {{ "users": {users}, "topics": {TOPICS}, "theta_cap": {theta_cap}, "variant": "irr", "partition_size": 100, "total_theta": {total_theta} }},
  "serving_mode": "mmap (process-wide page cache), per-query threads 1",
  "load": {{ "idle_conns": {idle}, "active_clients": {active}, "pipeline_depth": {PIPELINE_DEPTH}, "requests_per_client": {reqs} }},
  "answers_bit_identical_to_serial": true,
  "front_ends": {{
{row_json}
  }},
  "one_client_batched_vs_unbatched_qps_ratio": {batched_ratio_json},
  "batched_ratio_floor_asserted": {MIN_BATCHED_RATIO}
}}
"#,
        nodes = data.graph.num_nodes(),
        edges = data.graph.num_edges(),
        users = config.users,
        theta_cap = config.theta_cap,
        total_theta = report.total_theta,
        idle = config.idle_conns,
        active = config.active_clients,
        reqs = config.requests_per_client,
    );
    std::fs::write(&out_path, &json).expect("write baseline json");
    eprintln!("wrote {out_path}");
}

struct Row {
    front_end: &'static str,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    rss_mib: f64,
    threads: u64,
}

fn open_engine_index(dir: &Path) -> KbtimIndex {
    // The server configuration: mmap pages shared through the
    // process-wide cache, per-query fan-out pinned to 1 worker so
    // client concurrency is the parallelism (the `kbtim serve`
    // default).
    let mut index =
        KbtimIndex::open_shared(dir, IoStats::new(), ServingMode::Mmap, PageCache::global())
            .unwrap();
    index.set_threads(Some(1));
    index
}

/// Warm-up pass then a measured pass (first-touch page faults and
/// fresh-pool allocations land in the warm-up).
fn run_measured(
    dir: &Path,
    front_end: &'static str,
    batching: bool,
    config: &Config,
    oracle: &HashMap<&'static str, Json>,
) -> Row {
    let _ = run_scenario(dir, front_end, batching, config, oracle);
    run_scenario(dir, front_end, batching, config, oracle)
}

fn run_scenario(
    dir: &Path,
    front_end: &'static str,
    batching: bool,
    config: &Config,
    oracle: &HashMap<&'static str, Json>,
) -> Row {
    let engine = QueryEngine::new(Arc::new(open_engine_index(dir)))
        .with_batch_window(batching.then(|| Duration::from_micros(200)))
        .with_merge_cache(8);
    let router = Arc::new(Router::single(Arc::new(engine)));
    let ctx = Arc::new(ServeCtx::new(1024, None).with_front_end(front_end));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = {
        let (router, ctx) = (Arc::clone(&router), Arc::clone(&ctx));
        match front_end {
            "epoll" => std::thread::spawn(move || {
                serve_epoll(
                    listener,
                    router,
                    ctx,
                    EpollConfig { max_conns: 16_384, workers: 2, ..EpollConfig::default() },
                )
            }),
            _ => std::thread::spawn(move || {
                serve_threads(listener, router, ctx, 1 << 20, 2, false, Duration::from_secs(10))
            }),
        }
    };

    // N mostly-idle connections, open for the whole storm. Under the
    // threads front end every one of these pins an OS thread.
    let idle: Vec<TcpStream> =
        (0..config.idle_conns).map(|_| TcpStream::connect(addr).unwrap()).collect();
    // Give the thread-per-connection server a beat to finish spawning
    // before sampling thread counts.
    std::thread::sleep(Duration::from_millis(100));

    let started = Instant::now();
    let clients: Vec<_> = (0..config.active_clients)
        .map(|c| {
            let requests = config.requests_per_client;
            let oracle = oracle.clone();
            std::thread::spawn(move || run_client(addr, c as u64, requests, &oracle))
        })
        .collect();
    // Sample mid-storm, with the idle connections established and the
    // active clients running.
    std::thread::sleep(Duration::from_millis(50));
    let (rss_mib, threads) = proc_status();
    let mut latencies: Vec<f64> = Vec::new();
    for client in clients {
        latencies.extend(client.join().expect("client thread"));
    }
    let wall = started.elapsed().as_secs_f64();
    drop(idle);
    ctx.begin_shutdown();
    server.join().expect("serve thread").expect("serve loop exits cleanly");

    latencies.sort_by(f64::total_cmp);
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize] * 1e3;
    Row {
        front_end,
        qps: latencies.len() as f64 / wall,
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
        rss_mib,
        threads,
    }
}

/// One pipelined client: a sliding window of `PIPELINE_DEPTH` requests
/// in flight, responses matched by echoed id and checked against the
/// oracle. Returns per-request latencies in seconds.
fn run_client(
    addr: SocketAddr,
    client: u64,
    requests: usize,
    oracle: &HashMap<&'static str, Json>,
) -> Vec<f64> {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    // The sliding window writes one small request line at a time —
    // with Nagle on, writes 2..N of a burst stall behind the first
    // packet's ACK, which the server (batching the whole window) has
    // no data to piggyback on.
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    let mut inflight: HashMap<u64, (&'static str, Instant)> = HashMap::new();
    let mut latencies = Vec::with_capacity(requests);
    let mut sent = 0usize;
    let mut line = String::new();
    while latencies.len() < requests {
        while sent < requests && inflight.len() < PIPELINE_DEPTH {
            let id = client * 1_000_000 + sent as u64;
            let body = BODIES[(sent + client as usize) % BODIES.len()];
            writeln!(writer, "{{\"id\":{id},{body}}}").unwrap();
            inflight.insert(id, (body, Instant::now()));
            sent += 1;
        }
        line.clear();
        assert_ne!(reader.read_line(&mut line).unwrap(), 0, "server closed early");
        let response = line.trim();
        let json = Json::parse(response).expect("responses are protocol JSON");
        let Some(Json::Num(id)) = json.get("id") else {
            panic!("response without echoed id: {response}");
        };
        let (body, sent_at) =
            inflight.remove(&(*id as u64)).expect("echoed id matches a pending request");
        latencies.push(sent_at.elapsed().as_secs_f64());
        assert_eq!(
            json.get("seeds"),
            Some(&oracle[body]),
            "client {client}: answer must be bit-identical to the serial oracle: {response}"
        );
    }
    latencies
}

/// `VmRSS` (MiB) and `Threads` from `/proc/self/status`; zeros where
/// unavailable.
fn proc_status() -> (f64, u64) {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return (0.0, 0);
    };
    let field = |key: &str| {
        status
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (field("VmRSS:") as f64 / 1024.0, field("Threads:"))
}
