//! Connections share windows: requests from different connections of
//! the epoll front end meet in one dispatcher (whose pipelining gate is
//! `tests/pipeline.rs`), so they share windows — and keyword decodes —
//! on a bounded worker pool, and a drain answers what was queued. A
//! repeat whose keyword set's cached run covers it never reaches a
//! window.
//!
//! The two window tests wedge the one worker inside a window with an
//! armed `engine.decode` delay, so that the other connections' requests
//! are queued behind it when it finishes; the failpoint registry is
//! process-global, so each holds the exclusive `kbtim_fault` lease.
//!
//! The tests keep the `threads_` names they had when a
//! thread-per-connection front end served them, so their history
//! reads as one test.

use kbtim::core::theta::SamplingConfig;
use kbtim::datagen::{DatasetConfig, DatasetFamily};
use kbtim::index::{
    IndexBuildConfig, IndexBuilder, IndexVariant, KbtimIndex, QueryEngine, ServingMode, ThetaMode,
};
use kbtim::propagation::model::IcModel;
use kbtim::serve::{handle_line, serve_epoll, EpollConfig, Json, Router, ServeCtx};
use kbtim::storage::{IoStats, TempDir};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

const CONNS: usize = 4;
/// How long the worker is held inside each window's decode (µs): the
/// margin within which the other connections' requests must queue.
const WEDGE: &str = "delay(100000)";

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
        let dir = TempDir::new("transports-fixture").unwrap();
        IndexBuilder::new(&model, &data.profiles, config).build(dir.path()).unwrap();
        dir
    })
}

fn open_engine() -> Arc<QueryEngine> {
    let index =
        KbtimIndex::open_with(index_dir().path(), IoStats::new(), ServingMode::File).unwrap();
    Arc::new(QueryEngine::new(Arc::new(index)).with_batch_window(Some(Duration::from_micros(200))))
}

/// Connection `c`'s request: same keywords, its own `k`, so requests
/// can share decodes but never coalesce.
fn body(c: usize) -> String {
    format!(r#""topics":[0,1],"k":{}"#, 3 + c)
}

/// The deterministic answer: every response field except the echoed
/// id, the wall-clock and the front-end tag.
fn answer_fields(response: &str) -> Vec<(String, Json)> {
    let Json::Obj(fields) = Json::parse(response).expect("responses are protocol JSON") else {
        panic!("response is not an object: {response}");
    };
    fields
        .into_iter()
        .filter(|(key, _)| !matches!(key.as_str(), "id" | "elapsed_us" | "front_end"))
        .collect()
}

fn code(response: &str) -> Option<String> {
    match Json::parse(response).unwrap().get("code") {
        Some(Json::Str(code)) => Some(code.clone()),
        _ => None,
    }
}

struct Server {
    addr: SocketAddr,
    ctx: Arc<ServeCtx>,
    engine: Arc<QueryEngine>,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

/// An in-process epoll server with a single dispatcher worker.
fn start() -> Server {
    serve(open_engine())
}

fn serve(engine: Arc<QueryEngine>) -> Server {
    let router = Arc::new(Router::single(Arc::clone(&engine)));
    let ctx = Arc::new(ServeCtx::new(1024, None).with_front_end("epoll"));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = {
        let ctx = Arc::clone(&ctx);
        std::thread::spawn(move || {
            serve_epoll(listener, router, ctx, EpollConfig { workers: 1, ..EpollConfig::default() })
        })
    };
    Server { addr, ctx, engine, handle }
}

fn read_line(reader: &mut impl BufRead) -> String {
    let mut line = String::new();
    assert!(reader.read_line(&mut line).unwrap() > 0, "server closed early");
    line
}

/// Half-close and read to EOF: the server had nothing more to say.
fn assert_no_more(mut reader: BufReader<TcpStream>) {
    reader.get_ref().shutdown(Shutdown::Write).unwrap();
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    assert_eq!(rest, "", "a response nobody asked for");
}

#[test]
fn threads_connections_share_windows_on_one_worker() {
    let _lease = kbtim_fault::exclusive();
    let oracle: Vec<_> = (0..CONNS)
        .map(|c| {
            answer_fields(&handle_line(&Router::single(open_engine()), &format!("{{{}}}", body(c))))
        })
        .collect();
    kbtim_fault::arm("engine.decode", WEDGE).unwrap();
    let server = start();

    let barrier = std::sync::Barrier::new(CONNS);
    std::thread::scope(|scope| {
        for (c, want) in oracle.iter().enumerate() {
            let (addr, barrier) = (server.addr, &barrier);
            scope.spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                barrier.wait();
                // Two lines before any response is read: one refused at
                // admission, then the query.
                writeln!(writer, r#"{{"id":{},"nonsense":true}}"#, 2 * c).unwrap();
                writeln!(writer, r#"{{"id":{},{}}}"#, 2 * c + 1, body(c)).unwrap();
                // The refusal is answered at admission, before the
                // query reaches a worker: responses come in request
                // order.
                let refused = read_line(&mut reader);
                assert!(refused.contains(&format!("\"id\":{}", 2 * c)), "{refused}");
                assert_eq!(code(&refused).as_deref(), Some("unknown_field"), "{refused}");
                let answered = read_line(&mut reader);
                assert!(answered.contains(&format!("\"id\":{},", 2 * c + 1)), "{answered}");
                assert!(answered.contains("\"front_end\":\"epoll\""), "{answered}");
                assert_eq!(&answer_fields(&answered), want, "connection {c} diverged from serial");
                assert_no_more(reader);
            });
        }
    });

    // While the lone worker was held in the first window's decode the
    // other connections' requests queued, and it took them together.
    let engine = &server.engine;
    assert_eq!(engine.batched_requests(), CONNS as u64);
    assert!(engine.batches() <= 2, "{} windows for {CONNS} requests", engine.batches());
    assert!(engine.keyword_decodes_shared() > 0, "connections must share decodes");

    server.ctx.begin_shutdown();
    server.handle.join().expect("serve thread").expect("serve loop exits");
    assert_eq!((server.ctx.served(), server.ctx.inflight()), (CONNS as u64, 0));
}

/// A repeat whose keyword set has a cached run is answered by the
/// event loop at admission: the first request forms the one window,
/// the second never reaches the dispatcher.
#[test]
fn threads_answer_a_repeat_without_a_window() {
    let _lease = kbtim_fault::shared();
    let engine = Arc::new(
        KbtimIndex::open_with(index_dir().path(), IoStats::new(), ServingMode::File)
            .map(|index| QueryEngine::new(Arc::new(index)).with_merge_cache(4))
            .unwrap(),
    );
    let server = serve(Arc::clone(&engine));
    let stream = TcpStream::connect(server.addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut answers = Vec::new();
    for id in 0..2 {
        writeln!(writer, r#"{{"id":{id},{}}}"#, body(0)).unwrap();
        let answered = read_line(&mut reader);
        assert!(answered.contains(&format!("\"id\":{id},")), "{answered}");
        answers.push(answer_fields(&answered));
    }
    assert_eq!(answers[0], answers[1], "the hit is the miss's answer");
    assert_no_more(reader);
    assert_eq!(
        (engine.batches(), engine.merge_cache_hits(), engine.merge_cache_misses()),
        (1, 1, 1)
    );

    server.ctx.begin_shutdown();
    server.handle.join().expect("serve thread").expect("serve loop exits");
    assert!(
        server.ctx.stats_line().contains(" answered_at_admission=1"),
        "{}",
        server.ctx.stats_line()
    );
}

#[test]
fn threads_drain_answers_what_was_queued() {
    let _lease = kbtim_fault::exclusive();
    kbtim_fault::arm("engine.decode", WEDGE).unwrap();
    let server = start();

    // Every connection sends one query; connection 0 a second line
    // behind it, admitted beside its first or refused once the drain
    // has begun.
    let mut clients: Vec<(BufReader<TcpStream>, usize)> = (0..CONNS)
        .map(|c| {
            let mut stream = TcpStream::connect(server.addr).unwrap();
            writeln!(stream, r#"{{"id":{c},{}}}"#, body(c)).unwrap();
            let sent = if c == 0 {
                writeln!(stream, r#"{{"id":100,{}}}"#, body(c)).unwrap();
                2
            } else {
                1
            };
            (BufReader::new(stream), sent)
        })
        .collect();
    // One request in the worker, the rest queued behind it.
    while server.ctx.inflight() < CONNS {
        std::thread::yield_now();
    }
    server.ctx.begin_shutdown();
    server.handle.join().expect("serve thread").expect("serve loop exits");
    assert_eq!(server.ctx.inflight(), 0, "the drain returned with requests admitted");

    // Exactly one response per request: an answer, or `shutting_down`.
    let mut answered = 0;
    for (reader, sent) in &mut clients {
        for _ in 0..*sent {
            let response = read_line(reader);
            match code(&response).as_deref() {
                None => {
                    assert!(response.contains("\"seeds\""), "{response}");
                    answered += 1;
                }
                Some(code) => assert_eq!(code, "shutting_down", "{response}"),
            }
        }
    }
    assert!(answered >= CONNS, "queued requests are answered, not dropped: {answered}");
    for (reader, _) in clients {
        assert_no_more(reader);
    }
    assert_eq!(server.ctx.served() as usize, answered);
    assert_eq!(server.ctx.served() + server.ctx.shed(), CONNS as u64 + 1);
}
