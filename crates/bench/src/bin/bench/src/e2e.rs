//! One end-to-end run of one workload: fixture, server, the measured
//! phases, the recovery check, and the answer checks that turn raw
//! records into metrics.

use crate::check::{
    check_answer, check_generations, generation_floors, parse_response, Agreement, Answer,
    GenEvent, Response,
};
use crate::report::Metrics;
use crate::stats::{favourable, median, nearest_rank, percentile, sorted};
use crate::wire::{
    dir_bytes, rss_peak_mib, run_kbtim, Generator, Phase, PhaseStats, Plan, Record, Sent, Server,
    WINDOW,
};
use crate::workload::{
    FixtureSpec, Kind, QueryGen, QueryReq, Scale, Workload, WriteGen, WriteReq, BUILD_SEED,
    DATA_SEED,
};
use kbtim::index::{KbtimIndex, ServingMode};
use kbtim::storage::IoStats;
use kbtim::topics::Query;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Connections of the generator, as the issue fixes them.
const LANES: usize = 2;
/// Closed-loop pipeline depth per connection in `sat`.
const SAT_DEPTH: usize = 8;
/// One response in this many is compared bit-for-bit with the oracle.
const ORACLE_EVERY: u64 = 16;
/// The generator may not lag its schedule by more than this at p99 …
const MAX_LAG_P99_MS: f64 = 1.0;
/// … nor use more than this share of a core, or it measures itself.
const MAX_LOADGEN_CPU_SHARE: f64 = 0.6;

/// Set-ups repeat past `Timing::setups` until this much time went into
/// them (or `MAX_SETUPS` were made): a 70 ms set-up is mostly process
/// start-up jitter, and the median of nine is steadier than of three.
const SETUP_BUDGET: Duration = Duration::from_millis(1500);
const MAX_SETUPS: usize = 9;

/// How long each part of a run lasts.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Least number of complete set-ups (fixture, server, connections,
    /// warm-up) to take the median of; cheap set-ups repeat further
    /// (see `SETUP_BUDGET`). The last one is the one measured on.
    pub setups: usize,
    pub sat: Duration,
    pub paced: Duration,
    /// `live_ingest` only: kill -9, restart, recovery and `validate`.
    pub recovery: bool,
}

/// A built fixture on disk.
pub struct Fixture {
    pub spec: FixtureSpec,
    pub data: PathBuf,
    pub idx: PathBuf,
    pub gen_s: f64,
    pub build_s: f64,
    pub index_bytes: u64,
}

fn arg(s: impl AsRef<std::ffi::OsStr>) -> String {
    s.as_ref().to_string_lossy().into_owned()
}

/// `kbtim gen` + `kbtim build` into a fresh `dir`.
pub fn build_fixture(bin: &Path, spec: FixtureSpec, dir: &Path) -> Result<Fixture, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let (data, idx) = (dir.join("data"), dir.join("idx"));
    let started = Instant::now();
    run_kbtim(
        bin,
        &[
            "gen",
            "--family",
            "news",
            "--users",
            &spec.users.to_string(),
            "--topics",
            &spec.topics.to_string(),
            "--seed",
            &DATA_SEED.to_string(),
            "--out",
            &arg(&data),
        ],
    )?;
    let gen_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    run_kbtim(
        bin,
        &[
            "build",
            "--data",
            &arg(&data),
            "--out",
            &arg(&idx),
            "--cap",
            &spec.cap.to_string(),
            "--threads",
            "2",
            "--seed",
            &BUILD_SEED.to_string(),
            "--shards",
            &spec.shards.to_string(),
        ],
    )?;
    let build_s = started.elapsed().as_secs_f64();
    let index_bytes = dir_bytes(&idx);
    Ok(Fixture { spec, data, idx, gen_s, build_s, index_bytes })
}

/// The `kbtim serve` arguments of a workload on a fixture: two workers,
/// one thread per query, then the workload's own flags.
fn serve_args(workload: &Workload, fixture: &Fixture) -> Vec<String> {
    let mut args: Vec<String> = vec![
        "--index".into(),
        arg(&fixture.idx),
        "--workers".into(),
        "2".into(),
        "--threads".into(),
        "1".into(),
    ];
    args.extend(workload.serve_flags.iter().map(|s| s.to_string()));
    if fixture.spec.live {
        args.extend([
            "--data".into(),
            arg(&fixture.data),
            "--cap".into(),
            fixture.spec.cap.to_string(),
            "--seed".into(),
            BUILD_SEED.to_string(),
        ]);
    }
    args
}

/// Requests the warm-up sends: enough to fill the merge cache where
/// there is one and to fault the index in everywhere.
fn warmup_requests(kind: Kind) -> usize {
    match kind {
        Kind::HotCached => 400,
        Kind::ColdScan | Kind::ShardedScan => 32,
        Kind::LiveIngest => 64,
    }
}

struct Ready {
    fixture: Fixture,
    server: Server,
    generator: Generator,
}

/// One complete set-up, timed: fixture, server, connections, warm-up.
fn set_up(
    bin: &Path,
    workload: &Workload,
    scale: &Scale,
    seed: u64,
    dir: &Path,
) -> Result<(Ready, f64), String> {
    let started = Instant::now();
    let fixture = build_fixture(bin, workload.fixture(scale), dir)?;
    let server = Server::spawn(bin, &serve_args(workload, &fixture))?;
    let queries = QueryGen::new(workload.kind, fixture.spec.topics, seed);
    let writes =
        fixture.spec.live.then(|| WriteGen::new(fixture.spec.users, fixture.spec.topics, seed));
    let mut generator = Generator::connect(server.addr, LANES, queries, writes)?;
    generator.run(&Plan {
        phase: Phase::Warmup,
        duration: Duration::from_secs(60),
        closed: (0..LANES).map(|lane| (lane, SAT_DEPTH)).collect(),
        paced: None,
        writer: None,
        limit: Some(warmup_requests(workload.kind)),
        drain: Duration::from_secs(5),
        sample_pid: None,
    });
    Ok((Ready { fixture, server, generator }, started.elapsed().as_secs_f64()))
}

/// What an end-to-end run leaves behind for the caller.
pub struct WireRun {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Every answer was right, every acked write survived, and the
    /// protocol was never violated.
    pub correct: bool,
    /// The generator kept its schedule and stayed out of the way.
    pub valid: bool,
    /// Human-readable findings (violations first).
    pub notes: Vec<String>,
    /// The fixture the run ended on (the server is stopped).
    pub fixture: Fixture,
}

/// Run `workload` end to end under `dir`.
pub fn run(
    bin: &Path,
    workload: &Workload,
    scale: &Scale,
    seed: u64,
    timing: Timing,
    dir: &Path,
) -> Result<WireRun, String> {
    let mut setup_times = Vec::new();
    let mut ready = None;
    let setting_up = Instant::now();
    for round in 0..MAX_SETUPS {
        if round >= timing.setups.max(1)
            && (timing.setups <= 1 || setting_up.elapsed() >= SETUP_BUDGET)
        {
            break;
        }
        if let Some(Ready { server, .. }) = ready.take() {
            Server::drain(server, Duration::from_secs(20))?;
        }
        let (next, secs) = set_up(bin, workload, scale, seed, dir)?;
        setup_times.push(secs);
        ready = Some(next);
    }
    let Ready { fixture, server, mut generator } = ready.expect("at least one set-up ran");
    let limit = Duration::from_secs_f64(workload.latency_limit_ms / 1e3);
    let is_live = fixture.spec.live;
    let readers: Vec<usize> = if is_live { vec![1] } else { (0..LANES).collect() };
    let writer = is_live.then_some(0);

    // sat: closed loop, every reader connection SAT_DEPTH deep.
    let sat = generator.run(&Plan {
        phase: Phase::Sat,
        duration: timing.sat,
        closed: readers.iter().map(|&lane| (lane, SAT_DEPTH)).collect(),
        paced: None,
        writer,
        limit: None,
        drain: Duration::from_secs(5),
        sample_pid: Some(server.pid()),
    });

    // paced: open loop at the workload's frozen rate.
    let paced = generator.run(&Plan {
        phase: Phase::Paced,
        duration: timing.paced,
        closed: Vec::new(),
        paced: Some((workload.paced_rate, readers)),
        writer,
        limit: None,
        drain: limit.max(Duration::from_secs(5)),
        sample_pid: None,
    });
    let rss = rss_peak_mib(server.pid());

    let mut notes = Vec::new();
    let mut lost_writes = 0u64;
    if is_live && timing.recovery {
        lost_writes = recover(bin, workload, &fixture, server, &mut generator, &mut notes)?;
    } else {
        Server::drain(server, Duration::from_secs(20))?;
    }

    let mut tally = Tally::new(workload, &fixture, limit);
    tally.judge(&generator.records);
    let mut violations = std::mem::take(&mut generator.violations);
    violations.append(&mut tally.violations);
    if lost_writes > 0 {
        violations.push(format!("{lost_writes} acknowledged write(s) lost across kill -9"));
    }

    let mut m = Metrics::new();
    m.insert("setup_s", median(&setup_times));
    m.insert("index_mib", fixture.index_bytes as f64 / (1024.0 * 1024.0));
    m.insert("rss_peak_mib", rss);
    m.insert("build.gen_s", fixture.gen_s);
    m.insert("build.index_s", fixture.build_s);
    if let Some((qps, cpu_ms)) = sat_windows(&sat, &tally.sat_ok_recv_ns) {
        m.insert("qps", qps);
        m.insert("cpu_ms_per_query", cpu_ms);
    }
    let windows = paced_windows(&paced, timing.paced);
    let latencies = |p: f64| windowed(&tally.paced_ms, &windows, |v| nearest_rank(v, p));
    m.insert("lat_p50_ms", latencies(0.50));
    m.insert("lat_p90_ms", latencies(0.90));
    let lat = sorted(tally.paced_ms.iter().map(|&(_, ms)| ms).collect());
    m.insert("wire.lat_p99_ms", percentile(&lat, 0.99));
    m.insert("wire.rr_p50_ms", median(&tally.paced_rr_ms));
    m.insert("wire.irr_p50_ms", median(&tally.paced_irr_ms));
    m.insert("wire.errors", tally.errors as f64);
    m.insert("wire.shed", tally.shed as f64);
    m.insert("wire.late", tally.late as f64);
    let lag = windowed(&tally.lag_ms, &windows, |v| nearest_rank(v, 0.99));
    let cpu_share = if paced.wall_s > 0.0 { paced.loadgen_cpu_s / paced.wall_s } else { 0.0 };
    m.insert("loadgen.lag_p99_ms", lag);
    m.insert("loadgen.cpu_share", cpu_share);
    let write_wall = sat.wall_s + paced.wall_s;
    m.insert(
        "wire.writes_per_s",
        if write_wall > 0.0 { tally.write_acks_ms.len() as f64 / write_wall } else { 0.0 },
    );
    m.insert("wire.write_ack_p50_ms", median(&tally.write_acks_ms));
    m.insert("delta.flush_ack_ms", median(&tally.flush_acks_ms));
    m.insert(
        "wire.lat_p99_during_flush_ms",
        percentile(&sorted(tally.during_flush_ms.clone()), 0.99),
    );

    // A pause of the host keeps the generator off its core for tens of
    // ms and spoils the window it falls in. With fewer than four
    // windows (`smoke`) there is no undisturbed quartile to read the lag
    // off, so there it is reported and only the CPU share is judged.
    let lag_ok = windows.len() < 4 || lag <= MAX_LAG_P99_MS;
    let valid = lag_ok && cpu_share <= MAX_LOADGEN_CPU_SHARE;
    if !valid {
        notes.push(format!(
            "INVALID: generator lag p99 {lag:.3} ms (limit {MAX_LAG_P99_MS}), cpu share \
             {cpu_share:.2} (limit {MAX_LOADGEN_CPU_SHARE}) — the bench measured itself"
        ));
    }
    notes.push(format!(
        "{}: {} sent, {} failed ({} no response, {} errors, {} shed, {} wrong, {} late); \
         {} paced latency samples in {} windows; {} oracle checks, {} rr/irr comparisons",
        workload.name,
        tally.attempted,
        tally.failed + lost_writes,
        tally.unanswered,
        tally.errors,
        tally.shed,
        tally.wrong,
        tally.late,
        lat.len(),
        windows.len(),
        tally.oracle_checks,
        tally.agreement.compared,
    ));
    let correct = violations.is_empty();
    notes.splice(0..0, violations);
    Ok(WireRun {
        metrics: m,
        attempted: tally.attempted,
        failed: tally.failed + lost_writes,
        correct,
        valid,
        notes,
        fixture,
    })
}

/// kill -9 the server, restart it on the same directories, and count
/// acknowledged writes that did not survive. Also runs `kbtim validate
/// --data` on what is left. Returns the number of lost writes.
fn recover(
    bin: &Path,
    workload: &Workload,
    fixture: &Fixture,
    server: Server,
    generator: &mut Generator,
    notes: &mut Vec<String>,
) -> Result<u64, String> {
    // Acked mutations since the last acked flush must be in the journal.
    let mut journaled = 0u64;
    let mut flushes = 0u64;
    for rec in &generator.records {
        if let (Sent::Write(w), Some(_)) = (&rec.sent, &rec.response) {
            if *w == WriteReq::Flush {
                journaled = 0;
                flushes += 1;
            } else {
                journaled += 1;
            }
        }
    }
    server.kill();
    let server = Server::spawn(bin, &serve_args(workload, fixture))?;
    generator.reconnect(server.addr)?;
    // One more write: its ack reports how many mutations the restarted
    // tier holds unflushed — the replayed journal plus this one.
    let probe = WriteReq::Weight { user: 0, topic: 0, weight: 0.5 };
    let id = generator.send_now(0, Sent::Write(probe), Phase::Recovery);
    let line = generator
        .await_response(id, Duration::from_secs(30))
        .ok_or("the restarted server did not acknowledge a write")?;
    let Response::Ack { unflushed, .. } = parse_response(&line)? else {
        return Err(format!("the restarted server refused a write: {line}"));
    };
    let recovered = unflushed.saturating_sub(1);
    Server::drain(server, Duration::from_secs(30))?;
    let report = run_kbtim(
        bin,
        &[
            "validate",
            "--index",
            &arg(&fixture.idx),
            "--data",
            &arg(&fixture.data),
            "--cap",
            &fixture.spec.cap.to_string(),
            "--seed",
            &BUILD_SEED.to_string(),
        ],
    )?;
    if !report.contains("delta ok") {
        return Err(format!("kbtim validate --data did not verify the tier: {report}"));
    }
    notes.push(format!(
        "recovery: {journaled} acked writes since the last of {flushes} flushes, {recovered} \
         recovered from the journal after kill -9; validate --data passed"
    ));
    Ok(journaled.saturating_sub(recovered))
}

/// `qps` and `cpu_ms_per_query` of the `sat` phase: the favourable
/// quartile over its windows of answers per second and of server CPU
/// per answer (see `stats::favourable`). A trailing window shorter than
/// half a window is left out unless it is the whole phase.
fn sat_windows(sat: &PhaseStats, ok_recv_ns: &[u64]) -> Option<(f64, f64)> {
    let (mut rates, mut costs) = (Vec::new(), Vec::new());
    let whole = sat.cpu_samples.len() == 2;
    for pair in sat.cpu_samples.windows(2) {
        let ((from, cpu_from), (to, cpu_to)) = (pair[0], pair[1]);
        let answered = ok_recv_ns.iter().filter(|&&t| t >= from && t < to).count();
        if answered > 0 && (whole || (to - from) * 2 >= WINDOW.as_nanos() as u64) {
            rates.push(answered as f64 * 1e9 / (to - from) as f64);
            costs.push((cpu_to - cpu_from) * 1e3 / answered as f64);
        }
    }
    (!rates.is_empty()).then(|| (favourable(&rates, false), favourable(&costs, true)))
}

/// The `[from, to)` due-time windows of the paced phase.
fn paced_windows(paced: &PhaseStats, duration: Duration) -> Vec<(u64, u64)> {
    let (window, total) = (WINDOW.as_nanos() as u64, duration.as_nanos() as u64);
    if total < window {
        return vec![(paced.start_ns, paced.start_ns + total.max(1))];
    }
    (0..total / window)
        .map(|k| (paced.start_ns + k * window, paced.start_ns + (k + 1) * window))
        .collect()
}

/// Favourable (first) quartile over windows of a statistic of the
/// `(due time, value)` samples that fall in each window.
fn windowed(samples: &[(u64, f64)], windows: &[(u64, u64)], stat: impl Fn(&[f64]) -> f64) -> f64 {
    let per_window: Vec<f64> = windows
        .iter()
        .map(|&(from, to)| {
            sorted(samples.iter().filter(|(t, _)| *t >= from && *t < to).map(|&(_, v)| v).collect())
        })
        .filter(|v| !v.is_empty())
        .map(|v| stat(&v))
        .collect();
    favourable(&per_window, true)
}

/// Per-record verdicts and the samples the metrics are computed from.
#[derive(Default)]
struct Tally {
    limit_ms: f64,
    oracle: Option<KbtimIndex>,
    oracle_memo: HashMap<(Vec<u32>, u32), Answer>,
    agreement: Agreement,
    violations: Vec<String>,
    attempted: u64,
    failed: u64,
    unanswered: u64,
    errors: u64,
    shed: u64,
    wrong: u64,
    late: u64,
    oracle_checks: u64,
    /// Arrival times of the correct `sat` answers.
    sat_ok_recv_ns: Vec<u64>,
    /// `(due time, value)` samples of the paced phase.
    paced_ms: Vec<(u64, f64)>,
    paced_rr_ms: Vec<f64>,
    paced_irr_ms: Vec<f64>,
    lag_ms: Vec<(u64, f64)>,
    write_acks_ms: Vec<f64>,
    flush_acks_ms: Vec<f64>,
    during_flush_ms: Vec<f64>,
}

impl Tally {
    fn new(workload: &Workload, fixture: &Fixture, limit: Duration) -> Tally {
        let mut tally = Tally { limit_ms: limit.as_secs_f64() * 1e3, ..Tally::default() };
        // The oracle is the library's own Algorithm 2 on the same index
        // bytes. A live index changes under the run, so there the
        // structural, agreement and generation checks stand alone.
        if !fixture.spec.live {
            tally.oracle =
                KbtimIndex::open_with(&fixture.idx, IoStats::new(), ServingMode::Mmap).ok();
            if tally.oracle.is_none() {
                tally
                    .violations
                    .push(format!("{}: cannot open the index for the oracle", workload.name));
            }
        }
        tally
    }

    fn wrong(&mut self, id: usize, why: String) {
        self.wrong += 1;
        self.failed += 1;
        if self.violations.len() < 20 {
            self.violations.push(format!("request {id}: {why}"));
        }
    }

    fn oracle_answer(&mut self, req: &QueryReq) -> Option<Answer> {
        let key = (req.topics.clone(), req.k);
        if let Some(hit) = self.oracle_memo.get(&key) {
            return Some(hit.clone());
        }
        let out =
            self.oracle.as_ref()?.query_rr(&Query::new(req.topics.iter().copied(), req.k)).ok()?;
        let answer = Answer {
            seeds: out.seeds.iter().map(|&s| s as u64).collect(),
            gains: out.marginal_gains.clone(),
            coverage: out.coverage,
            theta_q: out.stats.theta_q,
            generation: None,
        };
        self.oracle_memo.insert(key, answer.clone());
        Some(answer)
    }

    fn judge(&mut self, records: &[Record]) {
        let parsed: Vec<Option<Result<Response, String>>> =
            records.iter().map(|r| r.response.as_deref().map(parse_response)).collect();
        // Generation bookkeeping of a mutable server. A query's
        // `generation` is read when the response is rendered, after the
        // query ran, so it may name a later snapshot than the one that
        // answered. Only an answer whose label equals the generation
        // already observed before it was *sent* is pinned to exactly
        // that snapshot; only those join the rr/irr agreement check.
        let mut events = Vec::new();
        let mut event_of = vec![None; records.len()];
        for (id, rec) in records.iter().enumerate().filter(|(_, r)| r.phase != Phase::Recovery) {
            let (generation, ack) = match &parsed[id] {
                Some(Ok(Response::Answer(Answer { generation: Some(g), .. }))) => (*g, false),
                Some(Ok(Response::Ack { generation, .. })) => (*generation, true),
                _ => continue,
            };
            event_of[id] = Some(events.len());
            events.push(GenEvent {
                sent_ns: rec.sent_ns,
                recv_ns: rec.recv_ns.unwrap_or(0),
                generation,
                ack,
            });
        }
        let floors = generation_floors(&events);
        if let Err(e) = check_generations(&events) {
            self.wrong += 1;
            self.failed += 1;
            self.violations.push(e);
        }
        let flushes: Vec<(u64, u64)> = records
            .iter()
            .filter(|r| r.sent == Sent::Write(WriteReq::Flush))
            .filter_map(|r| Some((r.sent_ns, r.recv_ns?)))
            .collect();
        for (id, (rec, parsed)) in records.iter().zip(parsed).enumerate() {
            if rec.phase == Phase::Recovery {
                continue;
            }
            self.attempted += 1;
            if rec.phase == Phase::Paced && matches!(rec.sent, Sent::Query(_)) {
                self.lag_ms.push((rec.due_ns, rec.sent_ns.saturating_sub(rec.due_ns) as f64 / 1e6));
            }
            let (Some(parsed), Some(recv_ns), Some(latency)) =
                (parsed, rec.recv_ns, rec.latency_ms())
            else {
                self.unanswered += 1;
                self.failed += 1;
                continue;
            };
            let parsed = match parsed {
                Ok(parsed) => parsed,
                Err(e) => {
                    self.wrong(id, format!("unparseable response: {e}"));
                    continue;
                }
            };
            match (&rec.sent, parsed) {
                (_, Response::Error { code }) => {
                    if code == "overloaded" {
                        self.shed += 1;
                    } else {
                        self.errors += 1;
                        if self.violations.len() < 20 {
                            self.violations.push(format!("request {id}: error response {code}"));
                        }
                    }
                    self.failed += 1;
                }
                (Sent::Query(req), Response::Answer(ans)) => {
                    let pinned = event_of[id].is_none_or(|e| floors[e] == events[e].generation);
                    if !self.answer_is_right(id, req, &ans, pinned) {
                        continue;
                    }
                    match rec.phase {
                        Phase::Sat => self.sat_ok_recv_ns.push(recv_ns),
                        Phase::Paced => {
                            self.paced_ms.push((rec.due_ns, latency));
                            if req.irr { &mut self.paced_irr_ms } else { &mut self.paced_rr_ms }
                                .push(latency);
                            if flushes.iter().any(|&(s, e)| rec.due_ns < e && recv_ns > s) {
                                self.during_flush_ms.push(latency);
                            }
                            // Late is reported, not failed: the answer
                            // is right, and on a shared host a stall
                            // of the VM alone makes some late.
                            if latency > self.limit_ms {
                                self.late += 1;
                            }
                        }
                        Phase::Warmup | Phase::Recovery => {}
                    }
                }
                (Sent::Write(w), Response::Ack { op, .. }) if op == w.op() => {
                    if *w == WriteReq::Flush {
                        &mut self.flush_acks_ms
                    } else {
                        &mut self.write_acks_ms
                    }
                    .push(latency);
                }
                (_, other) => self.wrong(id, format!("response of the wrong kind: {other:?}")),
            }
        }
    }

    /// Structure, rr/irr agreement (when the answer's snapshot is
    /// `pinned`), and — for one response in `ORACLE_EVERY`, and for
    /// every short answer — the oracle.
    fn answer_is_right(&mut self, id: usize, req: &QueryReq, ans: &Answer, pinned: bool) -> bool {
        let short = match check_answer(req, ans) {
            Ok(short) => short,
            Err(e) => {
                self.wrong(id, e);
                return false;
            }
        };
        if pinned {
            if let Err(e) = self.agreement.check(req, ans) {
                self.wrong(id, e);
                return false;
            }
        }
        if self.oracle.is_some() && (short || (id as u64).is_multiple_of(ORACLE_EVERY)) {
            self.oracle_checks += 1;
            match self.oracle_answer(req) {
                Some(want) if want == *ans => {}
                Some(want) => {
                    self.wrong(
                        id,
                        format!("differs from the query_rr oracle: got {ans:?}, want {want:?}"),
                    );
                    return false;
                }
                None => {
                    self.wrong(id, "the oracle could not answer".to_string());
                    return false;
                }
            }
        }
        true
    }
}
