//! Pipelining gate for the epoll front end: N requests in flight per
//! connection over real TCP, written in deliberately torn chunks,
//! responses matched back by the echoed `id` — and every successful
//! answer bit-identical to the fault-free serial oracle.
//!
//! Also the scale claim of the front end: thousands of mostly-idle
//! connections multiplexed onto a fixed worker pool while an active
//! client still gets correct answers.
#![cfg(target_os = "linux")]

use kbtim::core::theta::SamplingConfig;
use kbtim::datagen::{DatasetConfig, DatasetFamily};
use kbtim::index::{
    IndexBuildConfig, IndexBuilder, IndexVariant, KbtimIndex, QueryEngine, ServingMode, ThetaMode,
};
use kbtim::propagation::model::IcModel;
use kbtim::serve::{handle_line, serve_epoll, EpollConfig, Json, Router, ServeCtx};
use kbtim::storage::{IoStats, TempDir};
use proptest::prelude::*;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Request bodies (no `id`) the clients draw from. All succeed
/// fault-free; the oracle maps body → answer fields.
const BODIES: [&str; 5] = [
    r#""topics":[0,1],"k":5,"algo":"rr""#,
    r#""topics":[1,2],"k":3,"algo":"irr""#,
    r#""topics":[0,3],"k":8,"algo":"auto""#,
    r#""topics":[2],"k":4"#,
    r#""topics":[0,1,2],"k":6"#,
];

fn index_dir() -> &'static TempDir {
    static DIR: OnceLock<TempDir> = OnceLock::new();
    DIR.get_or_init(|| {
        let data = DatasetConfig::family(DatasetFamily::News)
            .num_users(300)
            .num_topics(4)
            .seed(23)
            .build();
        let model = IcModel::weighted_cascade(&data.graph);
        let config = IndexBuildConfig {
            sampling: SamplingConfig {
                theta_cap: Some(600),
                opt_initial_samples: 64,
                opt_max_rounds: 4,
                ..SamplingConfig::fast()
            },
            theta_mode: ThetaMode::Compact,
            variant: IndexVariant::Irr { partition_size: 16 },
            threads: 2,
            seed: 7,
            ..IndexBuildConfig::default()
        };
        let dir = TempDir::new("pipeline-fixture").unwrap();
        IndexBuilder::new(&model, &data.profiles, config).build(dir.path()).unwrap();
        dir
    })
}

/// Fault-free serial oracle: body → answer fields (id, wall-clock and
/// I/O counters stripped; answers are backend- and front-end-invariant).
fn oracle() -> &'static HashMap<&'static str, Vec<(String, Json)>> {
    static ORACLE: OnceLock<HashMap<&'static str, Vec<(String, Json)>>> = OnceLock::new();
    ORACLE.get_or_init(|| {
        let index =
            KbtimIndex::open_with(index_dir().path(), IoStats::new(), ServingMode::File).unwrap();
        let router = Router::single(Arc::new(QueryEngine::new(Arc::new(index))));
        BODIES
            .iter()
            .map(|&body| {
                let response = handle_line(&router, &format!("{{{body}}}"));
                assert!(response.contains("\"seeds\""), "oracle for {body}: {response}");
                (body, answer_fields(&response))
            })
            .collect()
    })
}

/// Every response field except the echoed id, the wall-clock, the
/// front-end tag and the I/O-strategy counters — the deterministic
/// answer that must match across front ends and batching modes.
fn answer_fields(response: &str) -> Vec<(String, Json)> {
    let Json::Obj(fields) = Json::parse(response).expect("responses are protocol JSON") else {
        panic!("response is not an object: {response}");
    };
    fields
        .into_iter()
        .filter(|(key, _)| {
            !matches!(key.as_str(), "id" | "elapsed_us" | "rr_sets_loaded" | "front_end")
        })
        .collect()
}

struct Server {
    addr: SocketAddr,
    ctx: Arc<ServeCtx>,
    engine: Arc<QueryEngine>,
    handle: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Server {
    /// Start an in-process epoll server over the shared fixture, with
    /// or without a prepared-query cache (`--merge-cache 8` or 0).
    fn start(batching: bool, cache: bool, cfg: EpollConfig) -> Server {
        let index =
            KbtimIndex::open_with(index_dir().path(), IoStats::new(), ServingMode::Mmap).unwrap();
        let engine = Arc::new(
            QueryEngine::new(Arc::new(index))
                .with_batch_window(batching.then(|| Duration::from_micros(100)))
                .with_merge_cache(if cache { 8 } else { 0 }),
        );
        let router = Arc::new(Router::single(Arc::clone(&engine)));
        let ctx = Arc::new(ServeCtx::new(1024, None).with_front_end("epoll"));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = {
            let (router, ctx) = (Arc::clone(&router), Arc::clone(&ctx));
            std::thread::spawn(move || serve_epoll(listener, router, ctx, cfg))
        };
        Server { addr, ctx, engine, handle: Some(handle) }
    }

    /// Begin the drain and wait for the loop to exit cleanly.
    fn shutdown(mut self) {
        self.ctx.begin_shutdown();
        self.handle.take().unwrap().join().expect("serve loop thread").expect("serve loop exits");
    }
}

/// One pipelined client: all requests written before any response is
/// read, in torn chunks, then responses collected and matched by id.
fn run_client(addr: SocketAddr, picks: &[usize], chunk: usize, id_base: u64) {
    let oracle = oracle();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();

    let mut wire = String::new();
    let mut want: HashMap<u64, &'static str> = HashMap::new();
    for (seq, &pick) in picks.iter().enumerate() {
        let id = id_base + seq as u64;
        let body = BODIES[pick % BODIES.len()];
        wire.push_str(&format!("{{\"id\":{id},{body}}}\n"));
        want.insert(id, body);
    }
    // Torn writes: the server's framer must reassemble lines split at
    // arbitrary byte boundaries, including mid-token.
    for piece in wire.as_bytes().chunks(chunk.max(1)) {
        stream.write_all(piece).unwrap();
        stream.flush().unwrap();
    }

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    for _ in 0..picks.len() {
        line.clear();
        assert_ne!(reader.read_line(&mut line).unwrap(), 0, "server closed early");
        let response = line.trim();
        let json = Json::parse(response).expect("responses are protocol JSON");
        let Some(Json::Num(id)) = json.get("id") else {
            panic!("response without echoed id: {response}");
        };
        let body = want.remove(&(*id as u64)).expect("echoed id matches exactly one request");
        assert!(response.contains("\"front_end\":\"epoll\""), "{response}");
        assert_eq!(
            answer_fields(response),
            oracle[body],
            "pipelined answer for id {id} must be bit-identical to the serial oracle"
        );
    }
    assert!(want.is_empty(), "every request answered exactly once");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

    /// Several connections, each with many requests in flight, written
    /// in randomly torn chunks; every response matched by id and
    /// bit-identical to the serial oracle, batching on or off. With the
    /// cache on, a repeat is answered by the loop at admission while
    /// the connection's earlier requests are still with the workers:
    /// the two kinds of answer interleave on one connection.
    #[test]
    fn pipelined_responses_match_ids_and_oracle(
        per_conn in proptest::collection::vec(
            proptest::collection::vec(any::<usize>(), 1..24), 1..4),
        chunk in 1usize..64,
        batching in any::<bool>(),
        cache in any::<bool>(),
    ) {
        let server = Server::start(batching, cache, EpollConfig {
            workers: 2,
            ..EpollConfig::default()
        });
        let clients: Vec<_> = per_conn
            .iter()
            .enumerate()
            .map(|(c, picks)| {
                let picks = picks.clone();
                let addr = server.addr;
                std::thread::spawn(move || run_client(addr, &picks, chunk, c as u64 * 1000))
            })
            .collect();
        for client in clients {
            client.join().expect("client thread");
        }
        server.shutdown();
    }
}

/// The scale claim: thousands of idle connections held open while an
/// active pipelined client still gets oracle-exact answers from a
/// fixed two-worker pool — connections are multiplexed, not threaded.
#[test]
fn thousands_of_idle_connections_do_not_starve_active_clients() {
    const IDLE: usize = 4096;
    let server = Server::start(
        true,
        false,
        EpollConfig { max_conns: IDLE + 64, workers: 2, ..EpollConfig::default() },
    );

    let mut idle = Vec::with_capacity(IDLE);
    for i in 0..IDLE {
        idle.push(TcpStream::connect(server.addr).unwrap_or_else(|e| {
            panic!("idle connect {i} failed: {e}");
        }));
    }

    // With every idle connection established and registered, an active
    // client pipelines a full mixed burst and gets exact answers.
    let picks: Vec<usize> = (0..32).collect();
    run_client(server.addr, &picks, 17, 500_000);

    drop(idle);
    server.shutdown();
}

/// Write backpressure: a client that pipelines a burst far past a tiny
/// `--outbox-cap` without reading must not grow the server's outbox
/// without bound — the loop pauses reading the connection at the cap
/// (the burst waits in kernel buffers as TCP backpressure) and resumes
/// as the client drains. Every request is still answered exactly once,
/// by id, with either the oracle answer or an `overloaded` shed; if
/// the `EPOLLIN` re-arm were broken the reads below would time out.
/// Once more over a warmed cache, where the loop answers the burst
/// itself and fills the outbox as it reads.
#[test]
fn outbox_cap_pauses_reads_and_resumes_as_client_drains() {
    for cache in [false, true] {
        outbox_cap_holds(cache);
    }
}

fn outbox_cap_holds(cache: bool) {
    const N: usize = 2000; // burst comfortably larger than one 64 KiB read chunk
    let server = Server::start(
        false,
        cache,
        EpollConfig { workers: 2, outbox_cap: 512, ..EpollConfig::default() },
    );
    let oracle = oracle();
    if cache {
        // Each body once: every set's run is resident before the burst.
        run_client(server.addr, &(0..BODIES.len()).collect::<Vec<_>>(), usize::MAX, 900_000);
    }
    let warmed = (server.ctx.served(), server.ctx.shed());
    let stream = TcpStream::connect(server.addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();

    // Write the whole burst from a separate thread: the test must not
    // deadlock against its own backpressure while it is not yet reading.
    let writer = {
        let mut stream = stream.try_clone().unwrap();
        std::thread::spawn(move || {
            let mut wire = String::new();
            for id in 0..N {
                wire.push_str(&format!("{{\"id\":{id},{}}}\n", BODIES[id % BODIES.len()]));
            }
            stream.write_all(wire.as_bytes()).unwrap();
            stream.flush().unwrap();
        })
    };

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut seen = vec![false; N];
    for _ in 0..N {
        line.clear();
        assert_ne!(reader.read_line(&mut line).unwrap(), 0, "server closed early");
        let response = line.trim();
        let json = Json::parse(response).expect("responses are protocol JSON");
        let Some(Json::Num(id)) = json.get("id") else {
            panic!("response without echoed id: {response}");
        };
        let id = *id as usize;
        assert!(!seen[id], "duplicate response for id {id}");
        seen[id] = true;
        if let Some(Json::Str(code)) = json.get("code") {
            assert_eq!(code, "overloaded", "only backpressure sheds expected: {response}");
        } else {
            assert_eq!(
                answer_fields(response),
                oracle[BODIES[id % BODIES.len()]],
                "successful answer for id {id} must match the serial oracle"
            );
        }
    }
    writer.join().expect("writer thread");
    let (served, shed) = (server.ctx.served() - warmed.0, server.ctx.shed() - warmed.1);
    server.shutdown();
    assert_eq!(served + shed, N as u64, "cache {cache}: every request served or shed exactly once");
}

/// A pipelined burst the loop reads in one pass reaches the workers
/// whole: a lone worker runs the eight requests as one window. (Handed
/// over one by one, the first request woke the worker and ran alone.)
#[test]
fn a_burst_read_in_one_pass_is_one_window() {
    let server = Server::start(true, false, EpollConfig { workers: 1, ..EpollConfig::default() });
    let picks: Vec<usize> = (0..8).collect();
    run_client(server.addr, &picks, usize::MAX, 700_000);
    assert_eq!(server.engine.batched_requests(), 8);
    assert_eq!(server.engine.batches(), 1, "one read, one hand-over, one window");
    server.shutdown();
}

/// A burst over a keyword set whose run is cached never reaches a
/// worker: the loop answers all eight at admission, so no window forms.
#[test]
fn a_burst_over_a_warmed_set_is_answered_by_the_loop() {
    let server = Server::start(true, true, EpollConfig { workers: 1, ..EpollConfig::default() });
    run_client(server.addr, &[0], usize::MAX, 600_000); // the miss that publishes
    let (batches, hits) = (server.engine.batches(), server.engine.merge_cache_hits());
    run_client(server.addr, &[0; 8], usize::MAX, 610_000);
    assert_eq!(server.engine.batches(), batches, "a hit formed a window");
    assert_eq!(server.engine.merge_cache_hits(), hits + 8);
    server.shutdown();
}

/// Draining with requests in flight: the client's already-written
/// burst is answered (or cleanly shed) before the loop exits, and the
/// served/shed books add up.
#[test]
fn drain_answers_inflight_pipeline_before_exit() {
    let server = Server::start(false, false, EpollConfig { workers: 1, ..EpollConfig::default() });
    let picks: Vec<usize> = (0..8).collect();
    run_client(server.addr, &picks, 9, 900_000);
    let served = server.ctx.served();
    server.shutdown();
    assert!(served >= 8, "all pipelined requests served before drain: {served}");
}
