//! Failure-surface tests driven by the `kbtim-fault` failpoint
//! registry: transient-I/O retry masking, backend degradation on open,
//! injected engine faults (decode, merge, flush), panic containment,
//! and the table of every wire error code in `docs/PROTOCOL.md`.
//! Every test that arms lives in this directory: a library's unit
//! tests share one process with each other, and none of them takes a
//! lease (`tests/failpoint_leases.rs` keeps it so).
//!
//! The failpoint registry is process-global, so every test that arms a
//! point holds the exclusive `kbtim_fault` lease for its whole body
//! (reset on entry and exit, also when it panics), and the one test
//! that arms only its child process holds the shared side.

use kbtim::codec::Codec;
use kbtim::core::theta::SamplingConfig;
use kbtim::datagen::{DatasetConfig, DatasetFamily};
use kbtim::index::{
    Algo, DeltaIndex, EngineRequest, IndexBuildConfig, IndexBuilder, IndexError, IndexVariant,
    KbtimIndex, Mutation, QueryEngine, QueryOutcome, ServingMode, ThetaMode,
};
use kbtim::propagation::model::IcModel;
use kbtim::serve::{handle_line, handle_line_ctx, Json, Router, ServeCtx};
use kbtim::storage::segment::{SegmentReader, SegmentWriter};
use kbtim::storage::{BlockSource, IoStats, TempDir};
use kbtim::topics::Query;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// The exclusive registry lease, with the draw seed pinned.
fn armed_section() -> kbtim_fault::Lease {
    let lease = kbtim_fault::exclusive();
    kbtim_fault::set_seed(42);
    lease
}

/// One small IRR index on disk, shared by every engine-level test.
fn index_dir() -> &'static TempDir {
    static DIR: OnceLock<TempDir> = OnceLock::new();
    DIR.get_or_init(|| {
        let data = DatasetConfig::family(DatasetFamily::News)
            .num_users(300)
            .num_topics(4)
            .seed(11)
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
        let dir = TempDir::new("faults-fixture").unwrap();
        IndexBuilder::new(&model, &data.profiles, config).build(dir.path()).unwrap();
        dir
    })
}

/// Drop the wall-clock field so responses can be compared bit-for-bit.
fn strip_elapsed(response: &str) -> String {
    match response.find(",\"elapsed_us\":") {
        Some(at) => {
            let rest = &response[at + ",\"elapsed_us\":".len()..];
            let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
            format!("{}{}", &response[..at], &rest[end..])
        }
        None => response.to_string(),
    }
}

fn open_engine(mode: ServingMode) -> Arc<QueryEngine> {
    let index = KbtimIndex::open_with(index_dir().path(), IoStats::new(), mode).unwrap();
    Arc::new(QueryEngine::new(Arc::new(index)))
}

fn write_segment(dir: &TempDir) -> std::path::PathBuf {
    let path = dir.path().join("seg.bin");
    let mut writer = SegmentWriter::create(&path).unwrap();
    writer.write_block("a", &[1, 2, 3, 4]).unwrap();
    writer.write_block("b", &[9; 100]).unwrap();
    writer.finish().unwrap();
    path
}

#[test]
fn transient_read_bursts_are_masked_by_retries() {
    let _section = armed_section();
    let dir = TempDir::new("faults-retry").unwrap();
    let path = write_segment(&dir);
    let reader = SegmentReader::open(&path, IoStats::new()).unwrap();

    // A burst of two transient failures sits inside the three-retry
    // budget: the read succeeds and the caller never sees the fault.
    kbtim_fault::arm("storage.read", "2*err").unwrap();
    assert_eq!(&*reader.read_block("a").unwrap(), &[1, 2, 3, 4]);
    assert_eq!(kbtim_fault::fires("storage.read"), 2, "both injected failures were retried");

    // An unbounded failure exhausts the retries and surfaces.
    kbtim_fault::arm("storage.read", "err").unwrap();
    let err = reader.read_block("a").unwrap_err();
    assert!(kbtim::storage::segment::is_transient(&err), "{err}");

    // Disarmed again, the reader still works — no state was poisoned.
    kbtim_fault::disarm("storage.read");
    assert_eq!(&*reader.read_block("b").unwrap(), &[9; 100]);
}

#[test]
fn open_degrades_mmap_to_file() {
    let _section = armed_section();
    let dir = TempDir::new("faults-degrade").unwrap();
    let path = write_segment(&dir);

    // A failing mmap(2) setup degrades to positioned file reads.
    kbtim_fault::arm("storage.map", "err").unwrap();
    let source = BlockSource::open(&path, IoStats::new(), ServingMode::Mmap).unwrap();
    assert_eq!(source.mode(), ServingMode::File, "mmap failure → file");
    assert_eq!(&*source.read_block("b").unwrap(), &[9; 100]);

    // With every open failing, the error finally surfaces.
    kbtim_fault::arm("storage.open", "err").unwrap();
    assert!(BlockSource::open(&path, IoStats::new(), ServingMode::Mmap).is_err());
}

/// A degraded index says so: with every mapping refused, an `mmap` open
/// serves from `file`, reports `file`, keeps nothing resident, and
/// answers exactly as the fault-free mapped index does.
#[test]
fn a_degraded_index_reports_the_mode_it_serves_from() {
    let _section = armed_section();
    let request =
        kbtim::index::EngineRequest { topics: vec![0, 1], k: 5, algo: kbtim::index::Algo::Auto };
    let clean = open_engine(ServingMode::Mmap);
    let want = clean.query(&request).unwrap();

    kbtim_fault::arm("storage.map", "err").unwrap();
    let index =
        KbtimIndex::open_with(index_dir().path(), IoStats::new(), ServingMode::Mmap).unwrap();
    assert_eq!(index.serving_mode(), ServingMode::File);
    assert_eq!(index.resident_bytes(), 0);
    let got = QueryEngine::new(Arc::new(index)).query(&request).unwrap();
    assert_eq!(got.seeds, want.seeds);
    assert_eq!(got.marginal_gains, want.marginal_gains);
    assert_eq!(got.coverage, want.coverage);
}

#[test]
fn corruption_is_fail_fast_and_never_degrades() {
    let _section = armed_section();
    let dir = TempDir::new("faults-crc").unwrap();
    let path = write_segment(&dir);

    for mode in kbtim::storage::block::all_modes() {
        kbtim_fault::reset();
        let source = BlockSource::open(&path, IoStats::new(), mode).unwrap();
        assert_eq!(source.mode(), mode);
        // One injected checksum mismatch fails the read immediately —
        // corruption is never retried and never degrades the backend.
        kbtim_fault::arm("storage.crc", "1*err").unwrap();
        let err = source.read_block("a").unwrap_err();
        assert!(err.to_string().contains("checksum"), "{mode}: {err}");
        assert!(!kbtim::storage::segment::is_transient(&err), "{mode}: corruption ≠ transient");
        // The failure was the injection, not real damage: with the
        // budget spent, the same handle re-verifies and serves.
        assert_eq!(&*source.read_block("a").unwrap(), &[1, 2, 3, 4], "{mode}");
    }
}

#[test]
fn injected_engine_faults_surface_and_scratch_books_survive() {
    let _section = armed_section();
    let engine = open_engine(ServingMode::Mmap);
    let req =
        kbtim::index::EngineRequest { topics: vec![0, 1], k: 5, algo: kbtim::index::Algo::Auto };
    let baseline = engine.query(&req).unwrap();

    for point in ["engine.decode", "engine.merge", "engine.greedy"] {
        kbtim_fault::arm(point, "1*err").unwrap();
        let err = engine.query(&req).unwrap_err();
        assert!(err.to_string().contains(point), "{point}: {err}");
        // The early error path must have recycled every leased scratch
        // buffer: the next query runs on the same pool and is
        // bit-identical to the fault-free baseline.
        let again = engine.query(&req).unwrap();
        assert_eq!(again.seeds, baseline.seeds, "after {point}");
        assert_eq!(again.marginal_gains, baseline.marginal_gains, "after {point}");
        assert_eq!(again.coverage, baseline.coverage, "after {point}");
    }
}

/// Every failpoint armed as a counting `noop`: a request's path crosses
/// them (the books count evaluations and no fire) and no answer changes.
#[test]
fn counting_noops_on_every_failpoint_change_no_answer() {
    let _section = armed_section();
    let router = Router::single(open_engine(ServingMode::Mmap));
    let lines = [
        r#"{"id":1,"topics":[0,1],"k":5,"algo":"rr"}"#,
        r#"{"id":2,"topics":[0,1],"k":5,"algo":"irr"}"#,
        r#"{"id":3,"topics":[1,2,3],"k":8}"#,
    ];
    let clean: Vec<String> =
        lines.iter().map(|l| strip_elapsed(&handle_line(&router, l))).collect();
    assert!(clean.iter().all(|r| r.contains("\"seeds\"")), "{clean:?}");

    kbtim_fault::arm("*", "noop").unwrap();
    for (line, want) in lines.iter().zip(&clean) {
        assert_eq!(&strip_elapsed(&handle_line(&router, line)), want);
    }
    let books = kbtim_fault::evaluations();
    let (evaluated, fired): (u64, u64) =
        books.iter().fold((0, 0), |(e, f), (_, hits, fires)| (e + hits, f + fires));
    assert!(evaluated >= lines.len() as u64, "no request crossed a failpoint: {books:?}");
    assert_eq!(fired, 0, "{books:?}");
}

/// A keyword set whose greedy run is cached skips the lists and the
/// greedy, not the checks: the `engine.greedy` failpoint fails a hit,
/// and an expired deadline answers `deadline_exceeded` — never the
/// cached seeds.
#[test]
fn a_cached_run_still_passes_the_failpoint_and_the_deadline() {
    let _section = armed_section();
    let index =
        KbtimIndex::open_with(index_dir().path(), IoStats::new(), ServingMode::Mmap).unwrap();
    let engine = QueryEngine::new(Arc::new(index)).with_merge_cache(4);
    let req =
        kbtim::index::EngineRequest { topics: vec![0, 1], k: 5, algo: kbtim::index::Algo::Auto };
    let baseline = engine.query(&req).unwrap();
    let books = |engine: &QueryEngine| (engine.merge_cache_hits(), engine.merge_cache_misses());
    assert_eq!(books(&engine), (0, 1));
    let same = |got: &kbtim::index::QueryOutcome, what: &str| {
        assert_eq!(got.seeds, baseline.seeds, "{what}");
        assert_eq!(got.marginal_gains, baseline.marginal_gains, "{what}");
        assert_eq!(got.coverage, baseline.coverage, "{what}");
    };
    same(&engine.query(&req).unwrap(), "a hit");
    assert_eq!(books(&engine), (1, 1));

    kbtim_fault::arm("engine.greedy", "1*err").unwrap();
    let err = engine.query(&req).unwrap_err();
    assert!(err.to_string().contains("engine.greedy"), "{err}");
    assert_eq!(books(&engine), (2, 1), "the failed request was a hit");

    let expired = std::time::Instant::now();
    std::thread::sleep(Duration::from_millis(2));
    let err = engine.query_deadline(&req, Some(expired)).unwrap_err();
    assert!(
        matches!(err.index_error(), kbtim::index::IndexError::DeadlineExceeded),
        "an expired request was answered from the cache: {err}"
    );
    assert_eq!(books(&engine), (3, 1));

    // Neither failure touched the run: the next request is a hit again.
    same(&engine.query(&req).unwrap(), "after the failures");
    assert_eq!(books(&engine), (4, 1));
}

/// A warmed keyword set is answered by the admission chain, on the
/// thread that read the line — which contains there what a window
/// contains: a panicking hit answers `internal_error` and the next line
/// is still answered, an erring one `engine_error`, an expired one
/// `deadline_exceeded` — armed or not, as a window refuses an expired
/// request before any failpoint — each booked exactly once and none
/// queued.
#[test]
fn a_hit_answered_at_admission_contains_its_faults() {
    let _section = armed_section();
    let index =
        KbtimIndex::open_with(index_dir().path(), IoStats::new(), ServingMode::Mmap).unwrap();
    let engine = Arc::new(QueryEngine::new(Arc::new(index)).with_merge_cache(4));
    let router = Router::single(Arc::clone(&engine));
    let ctx = ServeCtx::unlimited();
    let line = r#"{"id":1,"topics":[0,1],"k":5}"#;
    let baseline = strip_elapsed(&handle_line_ctx(&router, &ctx, line)); // publishes the run
    assert!(baseline.contains("\"seeds\""), "{baseline}");
    let books = |ctx: &ServeCtx| -> HashMap<String, u64> {
        let line = ctx.stats_line();
        line.split(' ')
            .filter_map(|book| book.split_once('='))
            .map(|(name, n)| (name.to_string(), n.parse().unwrap()))
            .collect()
    };
    let expired = r#"{"id":1,"topics":[0,1],"k":5,"deadline_ms":0}"#;
    // (armed spec, request, answer code, the book it moves)
    let cases = [
        (Some("1*panic"), line, "internal_error", "panicked"),
        (Some("1*err"), line, "engine_error", "failed"),
        (None, expired, "deadline_exceeded", "deadline_exceeded"),
        (Some("1*panic"), expired, "deadline_exceeded", "deadline_exceeded"),
        (Some("1*err"), expired, "deadline_exceeded", "deadline_exceeded"),
    ];
    for (spec, request, code, book) in cases {
        if let Some(spec) = spec {
            kbtim_fault::arm("engine.greedy", spec).unwrap();
        }
        let before = books(&ctx);
        let (hits, batches) = (engine.merge_cache_hits(), engine.batches());
        let response = handle_line_ctx(&router, &ctx, request);
        assert!(response.contains(&format!("\"code\":\"{code}\"")), "{code}: {response}");
        assert!(response.contains("\"id\":1"), "{response}");
        for (name, n) in books(&ctx) {
            let moved = u64::from(name == book || name == "answered_at_admission");
            assert_eq!(n - before[&name], moved, "{code}: book {name}");
        }
        assert_eq!((engine.merge_cache_hits(), engine.batches()), (hits + 1, batches), "{code}");
        // An expired request never reached the failpoint it armed.
        kbtim_fault::disarm("engine.greedy");
        // The loop — here, this thread — keeps answering from the run.
        assert_eq!(strip_elapsed(&handle_line_ctx(&router, &ctx, line)), baseline, "after {code}");
    }
}

#[test]
fn panicking_query_is_contained_and_engine_survives() {
    let _section = armed_section();
    let engine = open_engine(ServingMode::Mmap);
    let router = Router::single(Arc::clone(&engine));
    let ctx = ServeCtx::unlimited();
    let line = r#"{"id":1,"topics":[0,1],"k":5}"#;
    let baseline = handle_line_ctx(&router, &ctx, line);
    assert!(baseline.contains("\"seeds\""), "{baseline}");

    // An armed `panic` action unwinds out of the greedy stage; the
    // serve boundary contains it as a structured internal_error…
    kbtim_fault::arm("engine.greedy", "1*panic").unwrap();
    let contained = handle_line_ctx(&router, &ctx, line);
    assert!(contained.contains("\"code\":\"internal_error\""), "{contained}");
    assert!(contained.contains("\"id\":1"), "{contained}");

    // …and the engine keeps serving bit-identical answers afterwards:
    // poisoned locks recovered, scratch and cache books consistent.
    for _ in 0..3 {
        assert_eq!(
            strip_elapsed(&handle_line_ctx(&router, &ctx, line)),
            strip_elapsed(&baseline),
            "engine must survive a panic"
        );
    }
}

#[test]
fn dispatch_panic_is_contained_too() {
    let _section = armed_section();
    let engine = open_engine(ServingMode::File);
    let router = Router::single(Arc::clone(&engine));
    let ctx = ServeCtx::unlimited();
    let line = r#"{"id":2,"topics":[0,1],"k":4,"algo":"rr"}"#;
    let baseline = handle_line_ctx(&router, &ctx, line);
    assert!(baseline.contains("\"seeds\""), "{baseline}");

    kbtim_fault::arm("exec.dispatch", "1*panic").unwrap();
    let contained = handle_line_ctx(&router, &ctx, line);
    assert!(contained.contains("\"code\":\"internal_error\""), "{contained}");
    assert_eq!(strip_elapsed(&handle_line_ctx(&router, &ctx, line)), strip_elapsed(&baseline));
}

/// Satellite: every error code documented in `docs/PROTOCOL.md` is
/// producible over the line protocol, and each response round-trips
/// through the protocol's own JSON parser with the expected code.
#[test]
fn every_documented_error_code_is_producible_and_round_trips() {
    let _section = armed_section();
    let engine = open_engine(ServingMode::Mmap);
    let router = Router::single(engine);

    let unlimited = || ServeCtx::unlimited();
    let rejecting = || ServeCtx::new(0, None);
    let draining = || {
        let ctx = ServeCtx::unlimited();
        ctx.begin_shutdown();
        ctx
    };

    // (code, request line, serving context, failpoint to arm)
    type Case = (&'static str, &'static str, ServeCtx, Option<(&'static str, &'static str)>);
    let cases: Vec<Case> = vec![
        ("parse_error", "this is not json", unlimited(), None),
        ("unknown_field", r#"{"topics":[0],"frobnicate":1}"#, unlimited(), None),
        ("bad_request", r#"{"topics":"zero"}"#, unlimited(), None),
        ("unknown_index", r#"{"index":"nope","topics":[0]}"#, unlimited(), None),
        ("engine_error", r#"{"topics":[0]}"#, unlimited(), Some(("engine.decode", "1*err"))),
        ("overloaded", r#"{"id":7,"topics":[0]}"#, rejecting(), None),
        ("deadline_exceeded", r#"{"topics":[0],"deadline_ms":0}"#, unlimited(), None),
        ("shutting_down", r#"{"topics":[0]}"#, draining(), None),
        ("internal_error", r#"{"topics":[0]}"#, unlimited(), Some(("engine.greedy", "1*panic"))),
    ];
    for (code, line, ctx, failpoint) in cases {
        kbtim_fault::reset();
        if let Some((point, spec)) = failpoint {
            kbtim_fault::arm(point, spec).unwrap();
        }
        let response = handle_line_ctx(&router, &ctx, line);
        let json = Json::parse(&response)
            .unwrap_or_else(|e| panic!("{code}: response {response:?} is not JSON: {e}"));
        assert_eq!(
            json.get("code"),
            Some(&Json::Str(code.to_string())),
            "{line:?} must produce {code}: {response}"
        );
        assert!(json.get("error").is_some(), "{code}: {response}");
    }

    // Deadline errors also surface from *inside* the engine (not just
    // the admission check): an armed delay pushes execution past an
    // already-tight deadline.
    kbtim_fault::reset();
    kbtim_fault::arm("engine.merge", "delay(20000)").unwrap();
    let ctx = ServeCtx::new(usize::MAX, Some(Duration::from_millis(5)));
    let response = handle_line_ctx(&router, &ctx, r#"{"id":9,"topics":[0,1],"k":5}"#);
    assert!(response.contains("\"code\":\"deadline_exceeded\""), "{response}");

    // And the success path still renders after all that.
    kbtim_fault::reset();
    let ok = handle_line(&router, r#"{"topics":[0,1],"k":5}"#);
    assert!(ok.contains("\"seeds\""), "{ok}");
}

/// The epoll drain grace is a hard bound: with the engine wedged on a
/// long injected delay and a queue of requests stacked behind a single
/// worker, shutdown must complete within the grace (plus loop slack) —
/// the dispatcher abandons the queued work (dropping it as shed, which
/// releases the admission permits) and detaches rather than joins the
/// wedged worker, instead of draining the queue at one wedged query at
/// a time.
#[cfg(target_os = "linux")]
#[test]
fn epoll_drain_grace_bounds_wedged_queries() {
    use kbtim::serve::{serve_epoll, EpollConfig};
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    let _section = armed_section();
    // Every query sleeps 1.5 s inside the engine; draining the six
    // queued below would take ~9 s on the one worker.
    kbtim_fault::arm("engine.merge", "delay(1500000)").unwrap();

    let router = Arc::new(kbtim::serve::Router::single(open_engine(ServingMode::File)));
    let ctx = Arc::new(ServeCtx::new(1024, None).with_front_end("epoll"));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = {
        let (router, ctx) = (Arc::clone(&router), Arc::clone(&ctx));
        std::thread::spawn(move || {
            let cfg = EpollConfig {
                workers: 1,
                grace: Duration::from_millis(300),
                ..EpollConfig::default()
            };
            serve_epoll(listener, router, ctx, cfg)
        })
    };

    let mut client = TcpStream::connect(addr).unwrap();
    for id in 0..6 {
        writeln!(client, "{{\"id\":{id},\"topics\":[0,1],\"k\":5}}").unwrap();
    }
    client.flush().unwrap();
    // Let the burst be read and admitted (first query is then wedged
    // in its delay, the rest queued) before beginning the drain.
    std::thread::sleep(Duration::from_millis(300));
    let begun = Instant::now();
    ctx.begin_shutdown();
    handle.join().expect("serve loop thread").expect("serve loop exits");
    let elapsed = begun.elapsed();
    // Well under a single query's 1.5 s delay: shutdown waited for the
    // grace, not for the wedged query or the queue behind it.
    assert!(
        elapsed < Duration::from_millis(1400),
        "drain must be bounded by the grace, took {elapsed:?}"
    );
    // The five abandoned queue entries released their permits; only
    // the wedged query's own permit may still be held (its detached
    // worker is mid-delay).
    assert!(ctx.inflight() <= 1, "abandoned queue must release its permits: {}", ctx.inflight());
}

/// The drain contract for a dirty delta tier: when `kbtim serve` shuts
/// down (stdin EOF — the same drain path SIGTERM reaches) with
/// journaled-but-uncompacted writes, it either flushes them within the
/// drain grace — the index root advances one segment generation and
/// the stats line stays clean — or, when compaction cannot complete
/// (flush failpoints armed through the child's environment), the drain
/// stats report `unflushed=N` rather than claiming durability it does
/// not have. Failpoints are armed in the *child* via `KBTIM_FAILPOINTS`;
/// in this process the test only re-opens the index, under the shared
/// lease so a sibling's armed `storage.*` points cannot fail that open.
#[test]
fn drain_with_dirty_delta_flushes_or_reports() {
    use std::io::{BufRead, BufReader, Write};
    use std::process::{Command, Stdio};

    let _lease = kbtim_fault::shared();

    let root = std::env::temp_dir().join(format!("kbtim-faults-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let bin = env!("CARGO_BIN_EXE_kbtim");
    let data = root.join("data");
    assert!(Command::new(bin)
        .args(["gen", "--family", "news", "--users", "120", "--topics", "3"])
        .args(["--seed", "5", "--out", data.to_str().unwrap()])
        .status()
        .unwrap()
        .success());

    // (label, failpoint spec for the child, expected stderr fragment)
    let cases: [(&str, Option<&str>, &str); 2] = [
        // Every flush attempt errors: the drain must not pretend the
        // journal was compacted.
        ("reporting", Some("flush.*=err"), " unflushed=2"),
        // No faults: the dirty journal compacts within the grace and
        // the stats line stays clean.
        ("flushing", None, "drained (served="),
    ];
    for (label, failpoints, fragment) in cases {
        let index = root.join(format!("index-{label}"));
        assert!(Command::new(bin)
            .args(["build", "--data", data.to_str().unwrap(), "--out", index.to_str().unwrap()])
            .args(["--cap", "300", "--threads", "2"])
            .status()
            .unwrap()
            .success());

        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--index", index.to_str().unwrap()])
            .args(["--data", data.to_str().unwrap(), "--cap", "300"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        if let Some(spec) = failpoints {
            cmd.env("KBTIM_FAILPOINTS", spec);
        }
        let mut child = cmd.spawn().unwrap();

        // Two mutations, acked before EOF, so the journal is dirty when
        // the drain begins.
        let mut stdin = child.stdin.take().unwrap();
        writeln!(stdin, r#"{{"id":1,"op":"ingest_user"}}"#).unwrap();
        writeln!(stdin, r#"{{"id":2,"op":"set_topic_weight","user":120,"topic":1,"weight":0.7}}"#)
            .unwrap();
        let mut acks = BufReader::new(child.stdout.take().unwrap());
        for id in 1..=2 {
            let mut line = String::new();
            acks.read_line(&mut line).unwrap();
            assert!(line.contains(&format!("\"id\":{id},")), "{label}: ack missing: {line}");
            assert!(line.contains(&format!("\"unflushed\":{id}")), "{label}: {line}");
        }
        drop(stdin);
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success(), "{label}: serve must still exit cleanly");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("drained ("), "{label}: no drain stats: {stderr}");
        assert!(stderr.contains(fragment), "{label}: want {fragment:?} in: {stderr}");

        // The on-disk outcome matches the report: a clean drain
        // committed generation 1; a failed one left the root at 0.
        let reopened = KbtimIndex::open(&index, IoStats::new()).unwrap();
        let want_gen = if failpoints.is_some() { 0 } else { 1 };
        assert_eq!(reopened.generation(), want_gen, "{label}: generation after drain");
        if failpoints.is_none() {
            assert!(
                !stderr.contains("unflushed="),
                "{label}: clean drain must not report: {stderr}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The fixture of the engine's own unit tests — six keywords, so one
/// window can hold a healthy group beside a doomed one — built into
/// `dir` for a test that corrupts it.
fn build_engine(dir: &std::path::Path) -> QueryEngine {
    let data =
        DatasetConfig::family(DatasetFamily::News).num_users(400).num_topics(6).seed(91).build();
    let model = IcModel::weighted_cascade(&data.graph);
    let config = IndexBuildConfig {
        sampling: SamplingConfig {
            theta_cap: Some(1_000),
            opt_initial_samples: 64,
            opt_max_rounds: 5,
            ..SamplingConfig::fast()
        },
        variant: IndexVariant::Irr { partition_size: 20 },
        ..IndexBuildConfig::default()
    };
    IndexBuilder::new(&model, &data.profiles, config).build(dir).unwrap();
    QueryEngine::new(Arc::new(KbtimIndex::open(dir, IoStats::new()).unwrap()))
}

fn assert_same_answer(got: &QueryOutcome, want: &QueryOutcome, what: &str) {
    assert_eq!(got.seeds, want.seeds, "{what}");
    assert_eq!(got.marginal_gains, want.marginal_gains, "{what}");
    assert_eq!(got.coverage, want.coverage, "{what}");
    assert_eq!(got.estimated_influence.to_bits(), want.estimated_influence.to_bits(), "{what}");
}

#[test]
fn elapsed_counts_from_the_start_of_the_window() {
    let _section = armed_section();
    let dir = TempDir::new("engine-elapsed").unwrap();
    let engine = build_engine(dir.path());
    let req = EngineRequest::new([0, 1], 5).with_algo(Algo::Rr);
    // The shared decode is the largest stage of a cold request; a
    // response's `elapsed_us` must include it, as the per-request
    // reference's does.
    kbtim_fault::arm("engine.decode", "delay(20000)").unwrap();
    let delay = Duration::from_millis(20);
    assert!(engine.execute(&req).unwrap().stats.elapsed >= delay);
    let got = engine.query_window(&[(req, None)]).remove(0).unwrap();
    assert!(got.stats.elapsed >= delay, "elapsed {:?} omits the decode", got.stats.elapsed);
}

#[test]
fn a_failed_decode_publishes_nothing() {
    let _section = armed_section();
    let dir = TempDir::new("engine-keyword-fault").unwrap();
    let engine = build_engine(dir.path()).with_merge_cache(4);
    let req = EngineRequest::new([0, 1], 5).with_algo(Algo::Rr);
    let want = engine.execute(&req).unwrap();

    kbtim_fault::arm("engine.decode", "1*err").unwrap();
    let err = engine.query(&req).unwrap_err();
    assert!(matches!(err.index_error(), IndexError::Injected("engine.decode")), "{err}");
    assert_eq!((engine.keyword_cache_len(), engine.keywords_decoded()), (0, 0));

    assert_same_answer(&engine.query(&req).unwrap(), &want, "after the failed decode");
    assert_eq!((engine.keyword_cache_len(), engine.keywords_decoded()), (2, 2));

    // One unreadable keyword fails the union; the retried healthy
    // group publishes its own lists, the failed group nothing.
    std::fs::write(dir.path().join(kbtim::index::format::keyword_file_name(3)), b"x").unwrap();
    let doomed = EngineRequest::new([2, 3], 4).with_algo(Algo::Rr);
    let healthy = EngineRequest::new([1, 4], 4).with_algo(Algo::Rr);
    let want = engine.execute(&healthy).unwrap();
    let mut got = engine.query_window(&[(doomed, None), (healthy, None)]).into_iter();
    assert!(got.next().unwrap().is_err());
    assert_same_answer(&got.next().unwrap().unwrap(), &want, "healthy group");
    assert_eq!((engine.keyword_cache_len(), engine.keywords_decoded()), (3, 3), "4 joined 0, 1");
}

/// The staged chain's last refusal: `merge_keywords` under the armed
/// `engine.merge` failpoint (its other refusals are checked beside the
/// chain in `kbtim-index`).
#[test]
fn an_armed_merge_is_refused() {
    let _section = armed_section();
    let index = KbtimIndex::open(index_dir().path(), IoStats::new()).unwrap();
    let query = Query::new([0u32, 1, 2], 5);
    let (_, budget) = index.query_budget(&query);
    let arena = index.decode_keywords(&budget).unwrap();
    kbtim_fault::arm("engine.merge", "1*err").unwrap();
    let err = index.merge_keywords(&query, &arena).err().expect("armed");
    assert!(matches!(err, IndexError::Injected("engine.merge")), "{err}");
    index.recycle_keywords(arena);
}

#[test]
fn failed_flush_leaves_the_snapshot_untouched_and_retries_clean() {
    let _section = armed_section();
    let data =
        DatasetConfig::family(DatasetFamily::News).num_users(300).num_topics(5).seed(17).build();
    let config = IndexBuildConfig {
        sampling: SamplingConfig { eps: 0.3, theta_cap: Some(500), ..SamplingConfig::fast() },
        codec: Codec::Packed,
        theta_mode: ThetaMode::Compact,
        variant: IndexVariant::Irr { partition_size: 16 },
        threads: 2,
        seed: 7,
        shards: 1,
    };
    let dir = TempDir::new("delta-flushfail").unwrap();
    let model = IcModel::weighted_cascade(&data.graph);
    IndexBuilder::new(&model, &data.profiles, config).build(dir.path()).unwrap();
    let base = Arc::new(KbtimIndex::open(dir.path(), IoStats::new()).unwrap());
    let delta = DeltaIndex::attach(base, &data.graph, &data.profiles, config).unwrap();
    let query = Query::new([2u32, 4], 3);
    delta.apply(&[Mutation::SetTopicWeight { user: 1, topic: 2, weight: 6.0 }]).unwrap();
    let before = delta.snapshot().query(&query).unwrap();
    let assert_same = |a: &QueryOutcome, b: &QueryOutcome| {
        assert_same_answer(a, b, "flushed");
        assert_eq!(a.stats.theta_q, b.stats.theta_q);
    };

    for point in ["flush.build", "flush.verify", "flush.commit"] {
        kbtim_fault::arm(point, "err").unwrap();
        let err = delta.flush().unwrap_err();
        kbtim_fault::disarm(point);
        assert!(matches!(err, IndexError::Injected(_)), "{point}: {err}");
        let snap = delta.snapshot();
        assert_eq!(snap.base().generation(), 0, "{point} must not commit");
        assert_eq!(delta.unflushed(), 1, "{point} must not clear the journal");
        assert_same(&snap.query(&query).unwrap(), &before);
    }
    // Clean retry succeeds from scratch.
    assert_eq!(delta.flush().unwrap(), 1);
    assert_same(&delta.snapshot().query(&query).unwrap(), &before);
}
