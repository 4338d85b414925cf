//! Chaos gate for the hardened serving runtime: concurrent clients ×
//! randomly armed failpoints × every serving backend.
//!
//! The contract under injected faults:
//!
//! 1. every request gets exactly one response, and every response is
//!    parseable protocol JSON;
//! 2. nothing deadlocks or hangs (a global watchdog bounds the run);
//! 3. the server never dies — after the storm, the same engine answers
//!    fault-free requests bit-identically to the oracle;
//! 4. every *successful* answer under faults is bit-identical to the
//!    fault-free serial oracle (delays and retries may slow a query,
//!    but can never change it).
//!
//! Each storm runs twice, cold and warmed (`assert_storm_path`), so the
//! faults meet both the miss path through a window and the hit answered
//! at admission.
//!
//! Deterministic by construction: the vendored proptest derives its
//! case seed from the test name, and the failpoint registry draws from
//! a seeded counter hash, so a failing run replays exactly. Each storm
//! case holds the exclusive `kbtim_fault` lease (the registry is
//! process-global), which resets it on entry and on exit.

use kbtim::core::theta::SamplingConfig;
use kbtim::datagen::{DatasetConfig, DatasetFamily};
use kbtim::index::{
    IndexBuildConfig, IndexBuilder, IndexVariant, KbtimIndex, QueryEngine, ServingMode, ThetaMode,
};
use kbtim::propagation::model::IcModel;
use kbtim::serve::{handle_line, handle_line_ctx, Json, Router, ServeCtx};
use kbtim::storage::block::all_modes;
use kbtim::storage::{IoStats, TempDir};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

const NUM_CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 8;
const WATCHDOG: Duration = Duration::from_secs(120);

/// Valid request lines the clients cycle through. All succeed
/// fault-free (generous deadline on the one that carries one).
const LINES: [&str; 6] = [
    r#"{"id":1,"topics":[0,1],"k":5,"algo":"rr"}"#,
    r#"{"id":2,"topics":[1,2],"k":3,"algo":"irr"}"#,
    r#"{"id":3,"topics":[0,3],"k":8,"algo":"auto"}"#,
    r#"{"id":4,"topics":[2],"k":4}"#,
    r#"{"id":5,"topics":[0,1,2],"k":6,"deadline_ms":30000}"#,
    r#"{"id":6,"topics":[3],"k":2,"algo":"irr"}"#,
];

/// The faults a case may arm: bounded-probability errors, panics and
/// delays on every instrumented hot surface that can fire during a
/// query. Probabilities are low enough that some requests succeed.
const MENU: [(&str, &str); 7] = [
    ("storage.read", "30%err"),
    ("storage.crc", "10%err"),
    ("engine.decode", "30%err"),
    ("engine.merge", "20%err"),
    ("engine.greedy", "20%err"),
    ("engine.greedy", "15%panic"),
    ("exec.dispatch", "25%delay(200)"),
];

const DOCUMENTED_CODES: [&str; 9] = [
    "parse_error",
    "unknown_field",
    "bad_request",
    "unknown_index",
    "engine_error",
    "overloaded",
    "deadline_exceeded",
    "shutting_down",
    "internal_error",
];

fn index_dir() -> &'static TempDir {
    static DIR: OnceLock<TempDir> = OnceLock::new();
    DIR.get_or_init(|| {
        let data = DatasetConfig::family(DatasetFamily::News)
            .num_users(300)
            .num_topics(4)
            .seed(19)
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
            seed: 3,
            ..IndexBuildConfig::default()
        };
        let dir = TempDir::new("chaos-fixture").unwrap();
        IndexBuilder::new(&model, &data.profiles, config).build(dir.path()).unwrap();
        dir
    })
}

/// Fault-free serial oracle: request line → the response's *answer*
/// fields. Answers are backend-invariant, so one map serves every mode.
fn oracle() -> &'static HashMap<&'static str, Vec<(String, Json)>> {
    static ORACLE: OnceLock<HashMap<&'static str, Vec<(String, Json)>>> = OnceLock::new();
    // Fault-free because both callers hold the exclusive lease, whose
    // entry reset also drops anything the environment armed (CI runs
    // the suite under a global delay failpoint).
    ORACLE.get_or_init(|| {
        let index =
            KbtimIndex::open_with(index_dir().path(), IoStats::new(), ServingMode::File).unwrap();
        let router = Router::single(Arc::new(QueryEngine::new(Arc::new(index))));
        LINES
            .iter()
            .map(|&line| {
                let response = handle_line(&router, line);
                assert!(response.contains("\"seeds\""), "oracle for {line}: {response}");
                (line, answer_fields(&response))
            })
            .collect()
    })
}

/// The deterministic answer: every response field except the
/// wall-clock and the I/O-strategy counters (`rr_sets_loaded` depends
/// on whether the IRR path terminated early or a batch group loaded
/// the shared union — the *answer* must be identical either way).
fn answer_fields(response: &str) -> Vec<(String, Json)> {
    let Json::Obj(fields) = Json::parse(response).expect("responses are protocol JSON") else {
        panic!("response is not an object: {response}");
    };
    fields
        .into_iter()
        .filter(|(key, _)| !matches!(key.as_str(), "elapsed_us" | "rr_sets_loaded"))
        .collect()
}

/// The `answered_at_admission` book of `ctx`'s drain line.
fn answered_at_admission(ctx: &ServeCtx) -> u64 {
    let line = ctx.stats_line();
    let (_, n) = line.rsplit_once(" answered_at_admission=").expect("the drain line books it");
    n.parse().unwrap()
}

/// Each storm runs twice over one seed and one set of armed faults:
///
/// * **cold** — a cache of 4 over the six keyword sets, nothing warmed:
///   requests miss and evicted sets miss again, so decode, storage,
///   merge and (epoll) the dispatcher run under the faults;
/// * **warmed** — a cache as large as the sets, each published
///   fault-free first: every storm request is a hit answered at
///   admission — on the client thread, or on the epoll loop itself —
///   while `engine.greedy` errs or panics, and none reaches a window.
///
/// `misses` and `at_admission` are what the storm moved those books by.
fn assert_storm_path(what: &str, warm: bool, misses: u64, at_admission: u64) {
    let requests = (NUM_CLIENTS * REQUESTS_PER_CLIENT) as u64;
    if warm {
        assert_eq!(
            (at_admission, misses),
            (requests, 0),
            "{what}: every warmed storm request is answered at admission, none misses"
        );
    } else {
        assert!(misses > 0, "{what}: the cold storm must take the miss path");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, .. ProptestConfig::default() })]

    #[test]
    fn concurrent_clients_survive_random_failpoints(
        picks in proptest::collection::vec(any::<proptest::sample::Index>(), 1..4),
        fault_seed in any::<u64>(),
        batching in any::<bool>(),
    ) {
        let _storm = kbtim_fault::exclusive();
        let oracle = oracle();
        for (mode, warm) in all_modes().into_iter().flat_map(|m| [(m, false), (m, true)]) {
            // Build the engine fault-free (open paths have their own
            // dedicated tests); arm only once it serves.
            let index = KbtimIndex::open_with(index_dir().path(), IoStats::new(), mode).unwrap();
            let engine = Arc::new(
                QueryEngine::new(Arc::new(index))
                    .with_batch_window(batching.then(|| Duration::from_micros(100)))
                    .with_merge_cache(if warm { LINES.len() } else { 4 }),
            );
            let router = Arc::new(Router::single(Arc::clone(&engine)));
            let ctx = Arc::new(ServeCtx::new(64, None));
            let pass = if warm { "warmed" } else { "cold" };
            if warm {
                for &line in &LINES {
                    let response = handle_line_ctx(&router, &ctx, line);
                    prop_assert!(response.contains("\"seeds\""), "warm-up {line}: {response}");
                }
            }
            let (misses, at_admission) = (engine.merge_cache_misses(), answered_at_admission(&ctx));

            kbtim_fault::set_seed(fault_seed);
            for pick in &picks {
                let (name, spec) = MENU[pick.index(MENU.len())];
                kbtim_fault::arm(name, spec).unwrap();
            }

            let finished = Arc::new(AtomicUsize::new(0));
            let mut handles = Vec::new();
            for client in 0..NUM_CLIENTS {
                let router = Arc::clone(&router);
                let ctx = Arc::clone(&ctx);
                let finished = Arc::clone(&finished);
                handles.push(std::thread::spawn(move || {
                    let mut got = Vec::with_capacity(REQUESTS_PER_CLIENT);
                    for r in 0..REQUESTS_PER_CLIENT {
                        let line = LINES[(client + r * 3) % LINES.len()];
                        got.push((line, handle_line_ctx(&router, &ctx, line)));
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                    got
                }));
            }

            // Global watchdog: a deadlock or hang fails loudly instead
            // of pinning the suite.
            let deadline = Instant::now() + WATCHDOG;
            while finished.load(Ordering::SeqCst) < NUM_CLIENTS {
                prop_assert!(
                    Instant::now() < deadline,
                    "watchdog: {} of {NUM_CLIENTS} clients finished on {mode}, {pass} \
                     (armed: {:?}, seed {fault_seed})",
                    finished.load(Ordering::SeqCst),
                    picks.iter().map(|p| MENU[p.index(MENU.len())]).collect::<Vec<_>>(),
                );
                std::thread::sleep(Duration::from_millis(20));
            }
            let mut responses = Vec::new();
            for handle in handles {
                let got = handle.join().expect("client threads never die");
                // Exactly one response per request.
                prop_assert_eq!(got.len(), REQUESTS_PER_CLIENT);
                responses.extend(got);
            }
            kbtim_fault::reset();
            assert_storm_path(
                &format!("{mode}, {pass}"),
                warm,
                engine.merge_cache_misses() - misses,
                answered_at_admission(&ctx) - at_admission,
            );

            let mut successes = 0usize;
            for (line, response) in &responses {
                let json = Json::parse(response);
                prop_assert!(json.is_ok(), "{mode}: unparseable response {response:?}");
                if response.contains("\"seeds\"") {
                    successes += 1;
                    prop_assert_eq!(
                        &answer_fields(response),
                        &oracle[line],
                        "{}, {}: a successful answer under faults must be \
                         bit-identical to the fault-free oracle", mode, pass
                    );
                } else {
                    let code = match json.unwrap().get("code") {
                        Some(Json::Str(code)) => code.clone(),
                        other => panic!("{mode}: error without code: {other:?}"),
                    };
                    prop_assert!(
                        DOCUMENTED_CODES.contains(&code.as_str()),
                        "{mode}: undocumented error code {code}"
                    );
                }
            }

            // The server never dies: the same engine, disarmed, answers
            // every line bit-identically to the oracle again.
            for &line in &LINES {
                prop_assert_eq!(
                    &answer_fields(&handle_line_ctx(&router, &ctx, line)),
                    &oracle[line],
                    "{}: engine must serve clean answers after the storm \
                     ({successes} of {} chaos requests had succeeded)",
                    mode, responses.len()
                );
            }
        }
    }
}

/// The same storm through the epoll front end over real TCP: pipelined
/// clients, random failpoints, responses matched by echoed id. Same
/// contract — one response per request, documented codes only, every
/// success bit-identical to the oracle, and the server outlives the
/// storm.
#[cfg(target_os = "linux")]
mod epoll_storm {
    use super::*;
    use kbtim::serve::{serve_epoll, EpollConfig};
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};

    /// `LINES` minus their fixed ids — pipelined clients need ids
    /// unique per connection to match responses back.
    const BODIES: [&str; 6] = [
        r#""topics":[0,1],"k":5,"algo":"rr""#,
        r#""topics":[1,2],"k":3,"algo":"irr""#,
        r#""topics":[0,3],"k":8,"algo":"auto""#,
        r#""topics":[2],"k":4"#,
        r#""topics":[0,1,2],"k":6,"deadline_ms":30000"#,
        r#""topics":[3],"k":2,"algo":"irr""#,
    ];

    /// Oracle keyed by body, id stripped from the answer.
    fn body_oracle() -> &'static HashMap<&'static str, Vec<(String, Json)>> {
        static ORACLE: OnceLock<HashMap<&'static str, Vec<(String, Json)>>> = OnceLock::new();
        ORACLE.get_or_init(|| {
            let index =
                KbtimIndex::open_with(index_dir().path(), IoStats::new(), ServingMode::File)
                    .unwrap();
            let router = Router::single(Arc::new(QueryEngine::new(Arc::new(index))));
            BODIES
                .iter()
                .map(|&body| {
                    let response = handle_line(&router, &format!("{{{body}}}"));
                    assert!(response.contains("\"seeds\""), "oracle for {body}: {response}");
                    (body, strip_identity(answer_fields(&response)))
                })
                .collect()
        })
    }

    /// Drop the per-request and per-front-end fields so answers compare
    /// across ids and front ends.
    fn strip_identity(fields: Vec<(String, Json)>) -> Vec<(String, Json)> {
        fields.into_iter().filter(|(k, _)| !matches!(k.as_str(), "id" | "front_end")).collect()
    }

    /// Every body once over a fresh connection, pipelined, with nothing
    /// armed: each answer must be oracle-exact.
    fn assert_clean_answers(
        addr: std::net::SocketAddr,
        oracle: &HashMap<&'static str, Vec<(String, Json)>>,
        id_base: usize,
        what: &str,
    ) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(WATCHDOG)).unwrap();
        let mut wire = String::new();
        for (i, body) in BODIES.iter().enumerate() {
            wire.push_str(&format!("{{\"id\":{},{body}}}\n", id_base + i));
        }
        stream.write_all(wire.as_bytes()).unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        for _ in 0..BODIES.len() {
            line.clear();
            assert_ne!(reader.read_line(&mut line).unwrap(), 0, "{what}: server closed early");
            let response = line.trim();
            let json = Json::parse(response).unwrap();
            let Some(Json::Num(id)) = json.get("id") else {
                panic!("{what}: response without echoed id: {response}");
            };
            let body = BODIES[*id as usize - id_base];
            assert_eq!(
                strip_identity(answer_fields(response)),
                oracle[body],
                "{what}: the epoll server must serve clean answers"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 3, .. ProptestConfig::default() })]

        #[test]
        fn epoll_pipelined_clients_survive_random_failpoints(
            picks in proptest::collection::vec(any::<proptest::sample::Index>(), 1..4),
            fault_seed in any::<u64>(),
            batching in any::<bool>(),
        ) {
            let _storm = kbtim_fault::exclusive();
            for warm in [false, true] {
                storm(&picks, fault_seed, batching, warm);
            }
        }
    }

    /// One storm over a fresh epoll server, cold or warmed (see
    /// [`assert_storm_path`]).
    fn storm(picks: &[proptest::sample::Index], fault_seed: u64, batching: bool, warm: bool) {
        let oracle = body_oracle();

        let index =
            KbtimIndex::open_with(index_dir().path(), IoStats::new(), ServingMode::Mmap).unwrap();
        let engine = Arc::new(
            QueryEngine::new(Arc::new(index))
                .with_batch_window(batching.then(|| Duration::from_micros(100)))
                .with_merge_cache(if warm { BODIES.len() } else { 4 }),
        );
        let router = Arc::new(Router::single(Arc::clone(&engine)));
        let ctx = Arc::new(ServeCtx::new(64, None).with_front_end("epoll"));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = {
            let (router, ctx) = (Arc::clone(&router), Arc::clone(&ctx));
            std::thread::spawn(move || {
                serve_epoll(
                    listener,
                    router,
                    ctx,
                    EpollConfig { workers: 2, ..EpollConfig::default() },
                )
            })
        };

        let pass = if warm { "warmed" } else { "cold" };
        if warm {
            assert_clean_answers(addr, oracle, 90_000, "warm-up");
        }
        let (misses, at_admission) = (engine.merge_cache_misses(), answered_at_admission(&ctx));
        kbtim_fault::set_seed(fault_seed);
        for pick in picks {
            let (name, spec) = MENU[pick.index(MENU.len())];
            kbtim_fault::arm(name, spec).unwrap();
        }

        let mut clients = Vec::new();
        for client in 0..NUM_CLIENTS {
            clients.push(std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                // Per-read watchdog: a hang fails loudly instead of
                // pinning the suite.
                stream.set_read_timeout(Some(WATCHDOG)).unwrap();
                let mut want: HashMap<u64, &'static str> = HashMap::new();
                let mut wire = String::new();
                for r in 0..REQUESTS_PER_CLIENT {
                    let id = client as u64 * 1000 + r as u64;
                    let body = BODIES[(client + r * 3) % BODIES.len()];
                    wire.push_str(&format!("{{\"id\":{id},{body}}}\n"));
                    want.insert(id, body);
                }
                // The whole burst goes out before any response is
                // read: full pipelining under faults.
                stream.write_all(wire.as_bytes()).unwrap();
                let mut reader = BufReader::new(stream);
                let mut got = Vec::with_capacity(REQUESTS_PER_CLIENT);
                let mut line = String::new();
                for _ in 0..REQUESTS_PER_CLIENT {
                    line.clear();
                    assert_ne!(reader.read_line(&mut line).unwrap(), 0, "server closed early");
                    let response = line.trim().to_string();
                    let json = Json::parse(&response).expect("responses are protocol JSON");
                    let Some(Json::Num(id)) = json.get("id") else {
                        panic!("response without echoed id: {response}");
                    };
                    let body = want
                        .remove(&(*id as u64))
                        .expect("echoed id matches exactly one pending request");
                    got.push((body, response));
                }
                assert!(want.is_empty(), "every request answered exactly once");
                got
            }));
        }

        let mut responses = Vec::new();
        for client in clients {
            let got = client.join().expect("client threads never die");
            assert_eq!(got.len(), REQUESTS_PER_CLIENT);
            responses.extend(got);
        }
        kbtim_fault::reset();
        assert_storm_path(
            &format!("epoll, {pass}"),
            warm,
            engine.merge_cache_misses() - misses,
            answered_at_admission(&ctx) - at_admission,
        );

        for (body, response) in &responses {
            let json = Json::parse(response).unwrap();
            assert!(
                matches!(json.get("front_end"), Some(Json::Str(s)) if s == "epoll"),
                "every epoll response is tagged: {response}"
            );
            if response.contains("\"seeds\"") {
                assert_eq!(
                    &strip_identity(answer_fields(response)),
                    &oracle[body],
                    "{pass}: a successful pipelined answer under faults must be \
                     bit-identical to the fault-free oracle"
                );
            } else {
                let code = match json.get("code") {
                    Some(Json::Str(code)) => code.clone(),
                    other => panic!("error without code: {other:?}"),
                };
                assert!(
                    DOCUMENTED_CODES.contains(&code.as_str()),
                    "undocumented error code {code}"
                );
            }
        }

        // The server outlives the storm: a fresh connection,
        // disarmed, gets oracle-exact answers for every body.
        assert_clean_answers(addr, oracle, 91_000, "after the storm");

        ctx.begin_shutdown();
        server.join().expect("serve loop thread").expect("serve loop exits cleanly");
    }
}
