//! Line-delimited JSON serving tier of `kbtim serve` — the normative
//! protocol specification lives in `docs/PROTOCOL.md`; this module tree
//! implements it.
//!
//! One request per line in, one response per line out — over
//! stdin/stdout or a TCP connection, the same bytes either way. The
//! protocol is deliberately small and self-contained (the workspace
//! vendors no JSON crate, so a subset parser lives in the private
//! `json` module, surfaced as [`Json`]):
//!
//! ```text
//! → {"id": 7, "index": "sports", "topics": [0, 1], "k": 10, "algo": "irr"}
//! ← {"id":7,"index":"sports","algo":"irr","seeds":[83,411],
//!    "marginal_gains":[52,40],"coverage":92,"estimated_influence":14.25,
//!    "theta_q":1800,"rr_sets_loaded":1800,"shards":1,"elapsed_us":913}
//! ```
//!
//! Request fields: `topics` (array of topic ids, required), `k` (seed
//! count, default 10), `algo` (`rr` / `irr` / `auto`, default `auto`),
//! `index` (which served index answers, default the server's
//! first — see [`Router`]), `id` (optional echo token for matching
//! responses to pipelined requests). Unknown fields are rejected — a
//! typo'd `"indx"` must fail loudly, not route to the default index.
//!
//! Indexes served with a mutable delta tier (`kbtim serve --data`)
//! additionally accept mutation verbs through the `op` field
//! (`ingest_user` / `ingest_edge` / `set_topic_weight` / `flush` — see
//! [`ServeOp`]); their responses and every query response against such
//! an index carry the tier's `generation` counter, so clients can tell
//! exactly which logical content answered.
//!
//! Errors come back on the same line protocol as structured objects:
//! `{"id":7,"error":"...","code":"unknown_field"}` — `code` is a stable
//! machine-readable discriminant (see [`ServeError`]), `error` the
//! human-readable message. A malformed line never kills the connection.
//!
//! The tree splits along the serving layers:
//!
//! * `json` — the JSON subset parser and escaper ([`Json`]);
//! * `framer` — bounded line framing ([`read_bounded_line`] for
//!   blocking readers, [`LineFramer`] for nonblocking chunks);
//! * this module — requests, routing, admission/drain books
//!   ([`ServeCtx`]), the one admission chain (`admit_line`, whose last
//!   step answers a request its keyword set's cached greedy run covers
//!   on the thread that read it, the way a refusal is answered), the
//!   one "admitted requests in → rendered responses out" function
//!   (`execute_window`), response rendering, and [`handle_line_ctx`]:
//!   the two composed on the calling thread, a window of one;
//! * `dispatch` — the one place a window is formed: admitted requests
//!   fairly dequeued (per connection × index) by a fixed worker pool,
//!   each window answered through `execute_window`. Every transport
//!   feeds it what the admission chain did not answer;
//! * [`threads`] — the portable blocking transports: one thread per
//!   TCP connection, and the stdin/stdout stream;
//! * [`epoll`] — the Linux epoll transport: one event-loop thread
//!   multiplexing every connection nonblocking; workers write their
//!   answers to the sockets themselves (`conn`) and kick the loop over
//!   an eventfd (`sys`) for what is left to do;
//! * [`term_signal`] — the process-wide SIGTERM/SIGINT drain latch the
//!   transports poll.

#[cfg(target_os = "linux")]
mod conn;
mod dispatch;
pub mod epoll;
mod framer;
mod json;
#[cfg(target_os = "linux")]
mod sys;
pub mod term_signal;
pub mod threads;

pub use epoll::{serve_epoll, EpollConfig};
pub use framer::{read_bounded_line, FramedLine, LineFramer, LineRead};
pub use json::Json;
pub use threads::{serve_stdio, serve_threads};

use json::escape_into;
use kbtim_index::{Algo, EngineRequest, IndexError, Mutation, QueryEngine, QueryOutcome};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A structured protocol error: a stable machine-readable `code` plus a
/// human-readable `message`, rendered as
/// `{"error":"<message>","code":"<code>"}`.
///
/// Codes (normative list in `docs/PROTOCOL.md`):
///
/// * `parse_error` — the line is not valid JSON;
/// * `unknown_field` — the request object carries a top-level key the
///   protocol does not define (typo guard: `"indx"` fails loudly);
/// * `bad_request` — a defined field has the wrong type or an invalid
///   value (missing `topics`, zero `k`, unknown `algo`, …);
/// * `unknown_index` — the `index` field names no served index;
/// * `engine_error` — the query itself failed inside the engine;
/// * `overloaded` — the request was shed: the in-flight count already
///   sits at `--max-queue`, or (epoll front end) the connection's
///   pipeline or outbox is full (load-shed, retry later);
/// * `deadline_exceeded` — the request's deadline (its `deadline_ms`
///   field, or the server's `--deadline-ms` default) passed before the
///   query finished;
/// * `shutting_down` — the server is draining after SIGTERM/stdin-EOF
///   and accepts no new work;
/// * `internal_error` — the query panicked; the panic was contained
///   and the connection survives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// Stable machine-readable discriminant (`snake_case`).
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl ServeError {
    fn parse(message: impl Into<String>) -> ServeError {
        ServeError { code: "parse_error", message: message.into() }
    }

    fn bad(message: impl Into<String>) -> ServeError {
        ServeError { code: "bad_request", message: message.into() }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.message, self.code)
    }
}

impl std::error::Error for ServeError {}

/// What a protocol line asks the server to do. The default (no `"op"`
/// field) is a query — every pre-mutation client line keeps its exact
/// meaning. Mutation ops require the routed index to carry a mutable
/// delta tier (`kbtim serve --data`); against an immutable index they
/// fail with `bad_request`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServeOp {
    /// Run the influence query in [`ServeRequest::request`].
    Query,
    /// Apply one mutation to the routed index's delta tier.
    Mutate(Mutation),
    /// Compact the routed index's delta tier into the next segment
    /// generation.
    Flush,
}

impl ServeOp {
    /// The protocol name of this op (the `"op"` field value).
    pub fn name(&self) -> &'static str {
        match self {
            ServeOp::Query => "query",
            ServeOp::Mutate(Mutation::IngestUser) => "ingest_user",
            ServeOp::Mutate(Mutation::IngestEdge { .. }) => "ingest_edge",
            ServeOp::Mutate(Mutation::SetTopicWeight { .. }) => "set_topic_weight",
            ServeOp::Flush => "flush",
        }
    }
}

/// A parsed serve request: the engine request plus the client's routing
/// and echo fields.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// Echoed back verbatim in the response, if given.
    pub id: Option<u64>,
    /// Which served index answers (echoed back); `None` routes to the
    /// server's default (first) index.
    pub index: Option<String>,
    /// Per-request deadline in milliseconds from admission; `None`
    /// falls back to the server default (`--deadline-ms`). `0` means
    /// "already expired" and deterministically yields
    /// `deadline_exceeded`.
    pub deadline_ms: Option<u64>,
    /// What to do: query (the default) or a delta-tier mutation.
    pub op: ServeOp,
    /// The query to run ([`ServeOp::Query`] only; empty otherwise).
    pub request: EngineRequest,
}

impl ServeRequest {
    /// Parse one protocol line.
    pub fn parse(line: &str) -> Result<ServeRequest, ServeError> {
        let json = Json::parse(line).map_err(ServeError::parse)?;
        let Json::Obj(fields) = &json else {
            return Err(ServeError::bad("request must be a JSON object"));
        };
        for (key, _) in fields {
            if !matches!(
                key.as_str(),
                "id" | "index"
                    | "topics"
                    | "k"
                    | "algo"
                    | "deadline_ms"
                    | "op"
                    | "user"
                    | "from"
                    | "to"
                    | "topic"
                    | "weight"
            ) {
                return Err(ServeError {
                    code: "unknown_field",
                    message: format!("unknown field {key:?}"),
                });
            }
        }
        let id = match json.get("id") {
            None => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| ServeError::bad("\"id\" must be a non-negative integer"))?,
            ),
        };
        let index = match json.get("index") {
            None => None,
            Some(Json::Str(s)) => Some(s.clone()),
            Some(_) => return Err(ServeError::bad("\"index\" must be a string")),
        };
        let deadline_ms = match json.get("deadline_ms") {
            None => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| {
                ServeError::bad("\"deadline_ms\" must be a non-negative integer")
            })?),
        };
        let op_name = match json.get("op") {
            None => "query",
            Some(Json::Str(s)) => s.as_str(),
            Some(_) => return Err(ServeError::bad("\"op\" must be a string")),
        };
        // Every defined field is tied to specific ops — a `"weight"` on
        // an `ingest_edge` is as much a client bug as a typo'd key, and
        // must fail loudly rather than be silently dropped.
        let allowed: &[&str] = match op_name {
            "query" => &["id", "index", "deadline_ms", "op", "topics", "k", "algo"],
            "ingest_user" | "flush" => &["id", "index", "deadline_ms", "op"],
            "ingest_edge" => &["id", "index", "deadline_ms", "op", "from", "to"],
            "set_topic_weight" => &["id", "index", "deadline_ms", "op", "user", "topic", "weight"],
            other => return Err(ServeError::bad(format!("unknown op {other:?}"))),
        };
        for (key, _) in fields {
            if !allowed.contains(&key.as_str()) {
                return Err(ServeError::bad(format!(
                    "field {key:?} is not valid for op {op_name:?}"
                )));
            }
        }
        let field_u32 = |key: &str| -> Result<u32, ServeError> {
            json.get(key)
                .ok_or_else(|| ServeError::bad(format!("op {op_name:?} requires {key:?}")))?
                .as_u64()
                .filter(|&v| v <= u32::MAX as u64)
                .map(|v| v as u32)
                .ok_or_else(|| {
                    ServeError::bad(format!("{key:?} must be a 32-bit non-negative integer"))
                })
        };
        let op = match op_name {
            "query" => ServeOp::Query,
            "ingest_user" => ServeOp::Mutate(Mutation::IngestUser),
            "flush" => ServeOp::Flush,
            "ingest_edge" => ServeOp::Mutate(Mutation::IngestEdge {
                from: field_u32("from")?,
                to: field_u32("to")?,
            }),
            "set_topic_weight" => {
                let weight = match json.get("weight") {
                    Some(&Json::Num(n)) if n >= 0.0 && (n as f32).is_finite() => n as f32,
                    Some(_) => {
                        return Err(ServeError::bad(
                            "\"weight\" must be a finite non-negative number",
                        ))
                    }
                    None => {
                        return Err(ServeError::bad(format!("op {op_name:?} requires \"weight\"")))
                    }
                };
                ServeOp::Mutate(Mutation::SetTopicWeight {
                    user: field_u32("user")?,
                    topic: field_u32("topic")?,
                    weight,
                })
            }
            _ => unreachable!("op names validated above"),
        };
        if !matches!(op, ServeOp::Query) {
            let request = EngineRequest { topics: Vec::new(), k: 1, algo: Algo::Auto };
            return Ok(ServeRequest { id, index, deadline_ms, op, request });
        }
        let topics_json =
            json.get("topics").ok_or_else(|| ServeError::bad("missing \"topics\""))?;
        let Json::Arr(items) = topics_json else {
            return Err(ServeError::bad("\"topics\" must be an array"));
        };
        let mut topics = Vec::with_capacity(items.len());
        for item in items {
            let id = item.as_u64().filter(|&t| t <= u32::MAX as u64);
            topics
                .push(id.ok_or_else(|| ServeError::bad("\"topics\" entries must be topic ids"))?
                    as u32);
        }
        let k = match json.get("k") {
            None => 10,
            Some(v) => v
                .as_u64()
                .filter(|&k| k > 0 && k <= u32::MAX as u64)
                .ok_or_else(|| ServeError::bad("\"k\" must be a positive integer"))?
                as u32,
        };
        let algo = match json.get("algo") {
            None => Algo::Auto,
            Some(Json::Str(s)) => {
                Algo::parse(s).ok_or_else(|| ServeError::bad(format!("unknown algo {s:?}")))?
            }
            Some(_) => return Err(ServeError::bad("\"algo\" must be a string")),
        };
        Ok(ServeRequest {
            id,
            index,
            deadline_ms,
            op: ServeOp::Query,
            // Canonical keyword set: `[1,0]`, `[0,1]` and `[0,0,1]` are
            // one coalescing identity, one batch group, one cache key.
            request: EngineRequest::new(topics, k).with_algo(algo),
        })
    }

    /// Best-effort id recovery from a line that failed to parse as a
    /// request — validation failures (unknown field, bad `k`) happen on
    /// perfectly parseable JSON, and pipelined clients still need to
    /// attribute the error line.
    pub fn recover_id(line: &str) -> Option<u64> {
        Json::parse(line).ok().and_then(|json| json.get("id").and_then(Json::as_u64))
    }
}

/// Multi-index routing: one serve process, many named indexes, one
/// open and one engine each.
///
/// The first registered index is the **default route**: requests
/// without an `"index"` field go there, which keeps single-index
/// deployments (and PR-4-era clients) working unchanged. An `"index"`
/// naming no registered engine gets an `unknown_index` error naming the
/// served indexes.
pub struct Router {
    engines: Vec<(String, Arc<QueryEngine>)>,
}

impl Router {
    /// A single-index router: `engine` becomes the default route under
    /// the name `"default"`.
    pub fn single(engine: Arc<QueryEngine>) -> Router {
        Router { engines: vec![("default".to_string(), engine)] }
    }

    /// An empty router; add routes with [`Router::add`]. At least one
    /// route must exist before serving.
    pub fn new() -> Router {
        Router { engines: Vec::new() }
    }

    /// Register `engine` under `name`. The first registration is the
    /// default route. Duplicate names are an error.
    pub fn add(&mut self, name: impl Into<String>, engine: Arc<QueryEngine>) -> Result<(), String> {
        let name = name.into();
        if name.is_empty() {
            return Err("index name must not be empty".to_string());
        }
        if self.engines.iter().any(|(n, _)| *n == name) {
            return Err(format!("duplicate index name {name:?}"));
        }
        self.engines.push((name, engine));
        Ok(())
    }

    /// Resolve a request's routing field: `None` routes to the default
    /// (first) index, `Some(name)` to the engine of that name.
    pub fn engine(&self, index: Option<&str>) -> Option<&Arc<QueryEngine>> {
        self.resolve(index).map(|id| self.engine_at(id))
    }

    /// Resolve a routing field to a stable route id (the index's
    /// position in registration order), for callers that queue work per
    /// route — the epoll dispatcher keys its fair queues on it.
    pub fn resolve(&self, index: Option<&str>) -> Option<usize> {
        match index {
            None => (!self.engines.is_empty()).then_some(0),
            Some(name) => self.engines.iter().position(|(n, _)| n == name),
        }
    }

    /// The engine of route `id` (ids come from [`Router::resolve`]).
    pub fn engine_at(&self, id: usize) -> &Arc<QueryEngine> {
        &self.engines[id].1
    }

    /// The name of route `id` (ids come from [`Router::resolve`]).
    pub fn name_at(&self, id: usize) -> &str {
        &self.engines[id].0
    }

    /// Registered index names, in registration (routing-priority) order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.engines.iter().map(|(n, _)| n.as_str())
    }

    /// Number of served indexes.
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// Whether no index is registered yet.
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// The engines' cache books for the operator log, summed over the
    /// served indexes and rendered at drain after
    /// [`ServeCtx::stats_line`]: keyword sets (probes answered from a
    /// cached greedy run, probes that missed — set unseen or its run
    /// too shallow — and the bytes of the cached runs) and keywords
    /// (decodes performed, lists resident for lease, their bytes).
    pub fn cache_books_line(&self) -> String {
        let sum = |book: fn(&QueryEngine) -> u64| -> u64 {
            self.engines.iter().map(|(_, engine)| book(engine)).sum()
        };
        format!(
            "set_hits={} set_misses={} set_bytes={} \
             keywords_decoded={} keywords_resident={} keyword_bytes={}",
            sum(QueryEngine::merge_cache_hits),
            sum(QueryEngine::merge_cache_misses),
            sum(QueryEngine::merge_cache_bytes),
            sum(QueryEngine::keywords_decoded),
            sum(|engine| engine.keyword_cache_len() as u64),
            sum(QueryEngine::keyword_cache_bytes),
        )
    }
}

impl Default for Router {
    fn default() -> Router {
        Router::new()
    }
}

/// Shared serving state for overload control and graceful drain: the
/// shutdown flag, the bounded admission count, the default deadline,
/// and the served/shed/failed books reported at exit.
///
/// One `ServeCtx` spans every connection of a serve process; handlers
/// thread `&ServeCtx` into [`handle_line_ctx`]. All state is atomic —
/// no locks, so a panicking request cannot poison admission control.
#[derive(Debug)]
pub struct ServeCtx {
    shutdown: AtomicBool,
    /// Shared with every [`Permit`] out, so a permit can travel with a
    /// queued request and release its slot wherever the request ends.
    inflight: Arc<AtomicUsize>,
    /// Admission bound: requests beyond this many in flight are shed
    /// with `overloaded`. `0` rejects everything (useful in tests);
    /// `usize::MAX` disables shedding.
    max_inflight: usize,
    /// Default deadline applied when a request carries no
    /// `deadline_ms` field; `None` means unbounded.
    default_deadline: Option<Duration>,
    /// Active front-end name (`"epoll"` / `"threads"` / `"stdin"`),
    /// reported in every response; `None` (the library default) omits
    /// the field.
    front_end: Option<&'static str>,
    served: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    failed: AtomicU64,
    panicked: AtomicU64,
    /// Queries answered by the admission chain's last step from a
    /// cached run (whatever the answer: seeds or an error), never
    /// queued. Each is booked in one of the books above as well.
    answered_at_admission: AtomicU64,
}

impl ServeCtx {
    /// A context with the given admission bound and default deadline.
    pub fn new(max_inflight: usize, default_deadline: Option<Duration>) -> ServeCtx {
        ServeCtx {
            shutdown: AtomicBool::new(false),
            inflight: Arc::new(AtomicUsize::new(0)),
            max_inflight,
            default_deadline,
            front_end: None,
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            answered_at_admission: AtomicU64::new(0),
        }
    }

    /// No admission bound, no default deadline — the PR-4-era serving
    /// behaviour.
    pub fn unlimited() -> ServeCtx {
        ServeCtx::new(usize::MAX, None)
    }

    /// Name the active front end; every response rendered under this
    /// context carries it as a `front_end` field.
    pub fn with_front_end(mut self, name: &'static str) -> ServeCtx {
        self.front_end = Some(name);
        self
    }

    /// The active front-end name, if one was set.
    pub fn front_end(&self) -> Option<&'static str> {
        self.front_end
    }

    /// Flip the shutdown flag: new requests get `shutting_down`,
    /// in-flight ones run to completion. Idempotent.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether [`ServeCtx::begin_shutdown`] has been called.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests currently admitted and not yet answered.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }

    /// The admission bound (`--max-queue`).
    pub fn admission_bound(&self) -> usize {
        self.max_inflight
    }

    /// Try to admit one request; `None` means the queue is full and
    /// the caller must shed. The permit releases the slot on drop —
    /// wherever the request ends: answered, shed, dropped with a dead
    /// connection, or unwound by a panic — so containment never leaks
    /// admission slots.
    fn admit(&self) -> Option<Permit> {
        let mut cur = self.inflight.load(Ordering::SeqCst);
        loop {
            if cur >= self.max_inflight {
                return None;
            }
            match self.inflight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return Some(Permit(Arc::clone(&self.inflight))),
                Err(now) => cur = now,
            }
        }
    }

    /// The effective deadline of a request admitted *now*: its own
    /// `deadline_ms` if present, else the context default. `Some(0)`
    /// yields an already-expired instant, deterministically.
    fn request_deadline(&self, deadline_ms: Option<u64>) -> Option<Instant> {
        let budget_ms = deadline_ms.or_else(|| {
            self.default_deadline.map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        });
        budget_ms.map(|ms| Instant::now() + Duration::from_millis(ms))
    }

    /// Final stats line for the operator log, rendered at drain.
    pub fn stats_line(&self) -> String {
        format!(
            "served={} shed={} deadline_exceeded={} failed={} panicked={} \
             answered_at_admission={}",
            self.served.load(Ordering::SeqCst),
            self.shed.load(Ordering::SeqCst),
            self.expired.load(Ordering::SeqCst),
            self.failed.load(Ordering::SeqCst),
            self.panicked.load(Ordering::SeqCst),
            self.answered_at_admission.load(Ordering::SeqCst),
        )
    }

    /// Successfully answered requests.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::SeqCst)
    }

    /// Requests shed by admission control or the shutdown gate.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::SeqCst)
    }

    pub(crate) fn count_served(&self) {
        self.served.fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn count_shed(&self) {
        self.shed.fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn count_expired(&self) {
        self.expired.fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn count_failed(&self) {
        self.failed.fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn count_panicked(&self) {
        self.panicked.fetch_add(1, Ordering::SeqCst);
    }

    fn count_answered_at_admission(&self) {
        self.answered_at_admission.fetch_add(1, Ordering::SeqCst);
    }
}

/// RAII admission slot: decrements the in-flight count on drop.
#[derive(Debug)]
struct Permit(Arc<AtomicUsize>);

impl Drop for Permit {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

// Responses are written into their one `String` through `fmt::Write`,
// whose `String` impl never fails — no temporary per number.

fn push_id(out: &mut String, id: Option<u64>) {
    if let Some(id) = id {
        let _ = write!(out, "\"id\":{id},");
    }
}

fn push_u32_array(out: &mut String, key: &str, items: impl Iterator<Item = u64>) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":[");
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{item}");
    }
    out.push(']');
}

/// Render a successful outcome as one protocol line (no trailing
/// newline). `index` is the request's routing field, echoed back when
/// present; `shards` is the answering index's shard count (1 for the
/// flat layout), so clients can see when scatter-gather was in play;
/// `generation` is the delta-tier generation of the snapshot that
/// answered (`outcome.stats.generation`, pinned at execution) and is
/// omitted for immutable indexes;
/// `front_end` names the serving front end ([`ServeCtx::front_end`])
/// and is omitted when `None`.
pub fn render_outcome(
    id: Option<u64>,
    index: Option<&str>,
    algo: Algo,
    outcome: &QueryOutcome,
    shards: usize,
    generation: Option<u64>,
    front_end: Option<&str>,
) -> String {
    // The fixed fields plus room for a seed and a gain per seed.
    let mut out = String::with_capacity(192 + 16 * outcome.seeds.len());
    out.push('{');
    push_id(&mut out, id);
    if let Some(index) = index {
        out.push_str("\"index\":");
        escape_into(index, &mut out);
        out.push(',');
    }
    let _ = write!(out, "\"algo\":\"{algo}\",");
    push_u32_array(&mut out, "seeds", outcome.seeds.iter().map(|&s| s as u64));
    out.push(',');
    push_u32_array(&mut out, "marginal_gains", outcome.marginal_gains.iter().copied());
    let _ = write!(
        out,
        ",\"coverage\":{},\"estimated_influence\":{:.6},\"theta_q\":{},\
         \"rr_sets_loaded\":{},\"shards\":{shards}",
        outcome.coverage,
        outcome.estimated_influence,
        outcome.stats.theta_q,
        outcome.stats.rr_sets_loaded,
    );
    if let Some(generation) = generation {
        let _ = write!(out, ",\"generation\":{generation}");
    }
    if let Some(front_end) = front_end {
        out.push_str(",\"front_end\":");
        escape_into(front_end, &mut out);
    }
    let _ = write!(out, ",\"elapsed_us\":{}}}", outcome.stats.elapsed.as_micros());
    out
}

/// Render a successful mutation acknowledgement as one protocol line
/// (no trailing newline):
/// `{"id":…,"op":"ingest_edge","generation":…,"unflushed":…}` —
/// `generation` is the delta tier's mutation generation after the op,
/// `unflushed` the journaled mutations still awaiting compaction.
pub fn render_mutation(
    id: Option<u64>,
    index: Option<&str>,
    op: &str,
    generation: u64,
    unflushed: u64,
    front_end: Option<&str>,
) -> String {
    let mut out = String::with_capacity(64);
    out.push('{');
    push_id(&mut out, id);
    if let Some(index) = index {
        out.push_str("\"index\":");
        escape_into(index, &mut out);
        out.push(',');
    }
    let _ = write!(out, "\"op\":\"{op}\",\"generation\":{generation},\"unflushed\":{unflushed}");
    if let Some(front_end) = front_end {
        out.push_str(",\"front_end\":");
        escape_into(front_end, &mut out);
    }
    out.push('}');
    out
}

/// Render a structured error as one protocol line (no trailing
/// newline): `{"id":…,"error":"<message>","code":"<code>"}`, plus a
/// `front_end` field when one is given ([`ServeCtx::front_end`]).
pub fn render_error(id: Option<u64>, code: &str, message: &str, front_end: Option<&str>) -> String {
    let mut out = String::with_capacity(64);
    out.push('{');
    push_id(&mut out, id);
    out.push_str("\"error\":");
    escape_into(message, &mut out);
    out.push_str(",\"code\":");
    escape_into(code, &mut out);
    if let Some(front_end) = front_end {
        out.push_str(",\"front_end\":");
        escape_into(front_end, &mut out);
    }
    out.push('}');
    out
}

/// Handle one protocol line end to end: parse, route, query, render.
/// Never panics on malformed input — every failure becomes a structured
/// `error` response. Uses an unlimited [`ServeCtx`] (no admission
/// bound, no default deadline); servers with overload control call
/// [`handle_line_ctx`] directly.
pub fn handle_line(router: &Router, line: &str) -> String {
    handle_line_ctx(router, &ServeCtx::unlimited(), line)
}

/// [`handle_line`] with shared serving state: the admission chain
/// (`admit_line`), then the admitted request executed on the calling
/// thread as a window of one (`execute_window`) — what a transport does
/// with a line, minus the queue in between.
pub fn handle_line_ctx(router: &Router, ctx: &ServeCtx, line: &str) -> String {
    match admit_line(router, ctx, line, || None) {
        Ok(admitted) => execute_window(router.engine_at(admitted.route), ctx, &[&admitted])
            .pop()
            .expect("one response per admitted request"),
        Err(refusal) => refusal,
    }
}

/// One admitted request: what the admission chain hands a transport to
/// queue, and a worker to execute.
pub(crate) struct Admitted {
    /// Route id ([`Router::resolve`]) — the engine that answers.
    pub route: usize,
    /// The parsed request.
    pub req: ServeRequest,
    /// Effective deadline; its clock started at admission, so queue
    /// wait counts against it.
    pub deadline: Option<Instant>,
    /// The admission slot, released when this struct drops.
    _permit: Permit,
}

/// The admission chain, from a framed line to either an admitted
/// request or the rendered line that already answers it — a refusal,
/// or a cached run's answer — for the transport to send back:
///
/// 1. parse (a malformed line costs no admission slot);
/// 2. `shutting_down` if the context is draining;
/// 3. `overloaded` if the transport's own per-connection bound is hit —
///    `conn_full` returns the reason — checked before the global bound
///    so that a connection over its depth sheds *its own* requests
///    without eating global admission slots;
/// 4. `overloaded` if the in-flight count is at the bound;
/// 5. route (`unknown_index`);
/// 6. start the deadline clock — the request's `deadline_ms`, else the
///    context default;
/// 7. answer a query whose keyword set has a cached run at least `k`
///    deep right here, on the admitting thread
///    ([`QueryEngine::answer_cached`]): no queue, no worker, no wake-up.
pub(crate) fn admit_line(
    router: &Router,
    ctx: &ServeCtx,
    line: &str,
    conn_full: impl FnOnce() -> Option<String>,
) -> Result<Admitted, String> {
    let fe = ctx.front_end();
    let req = match ServeRequest::parse(line) {
        Ok(req) => req,
        Err(err) => {
            ctx.count_failed();
            return Err(render_error(ServeRequest::recover_id(line), err.code, &err.message, fe));
        }
    };
    if ctx.is_shutting_down() {
        ctx.count_shed();
        return Err(render_shutting_down(req.id, ctx));
    }
    if let Some(reason) = conn_full() {
        ctx.count_shed();
        return Err(render_error(req.id, "overloaded", &reason, fe));
    }
    let Some(permit) = ctx.admit() else {
        ctx.count_shed();
        let reason = format!("admission queue full ({} in flight)", ctx.max_inflight);
        return Err(render_error(req.id, "overloaded", &reason, fe));
    };
    let Some(route) = router.resolve(req.index.as_deref()) else {
        ctx.count_failed();
        let known: Vec<&str> = router.names().collect();
        let reason = format!(
            "unknown index {:?} (serving: {})",
            req.index.as_deref().unwrap_or_default(),
            known.join(", ")
        );
        return Err(render_error(req.id, "unknown_index", &reason, fe));
    };
    let deadline = ctx.request_deadline(req.deadline_ms);
    if let Some(answer) = answer_at_admission(router.engine_at(route), ctx, &req, deadline) {
        return Err(answer);
    }
    Ok(Admitted { route, req, deadline, _permit: permit })
}

/// Step 7 of [`admit_line`]: a query the engine's cached runs cover,
/// answered, rendered and booked exactly as a window would — a panic
/// (an armed failpoint) contained as `internal_error` on the admitting
/// thread. `None` leaves the request to be queued.
fn answer_at_admission(
    engine: &QueryEngine,
    ctx: &ServeCtx,
    req: &ServeRequest,
    deadline: Option<Instant>,
) -> Option<String> {
    if !matches!(req.op, ServeOp::Query) {
        return None;
    }
    let result =
        match catch_unwind(AssertUnwindSafe(|| engine.answer_cached(&req.request, deadline))) {
            Ok(None) => return None,
            Ok(Some(result)) => Some(result),
            Err(_) => None,
        };
    ctx.count_answered_at_admission();
    Some(render_result(engine, ctx, req, result))
}

/// The `shutting_down` refusal of a request that arrived (or was still
/// queued) after the drain began.
pub(crate) fn render_shutting_down(id: Option<u64>, ctx: &ServeCtx) -> String {
    render_error(id, "shutting_down", "server is draining; request rejected", ctx.front_end())
}

/// Admitted requests in, rendered responses out — one per request, in
/// order — booking every outcome on `ctx`. All of `window` routed to
/// `engine`.
///
/// Requests already past their deadline are refused; mutation ops never
/// batch — each runs on its own, serialized on the delta tier's writer
/// lane, before the window's queries, so a window mixing queries and
/// writes answers both correctly; the remaining queries run as one
/// [`QueryEngine::query_window`]. This is the boundary that contains a
/// panicking query: the whole window shares the execution, so every
/// query in it gets the structured `internal_error` its connection
/// expects, and the thread (worker or connection) survives.
pub(crate) fn execute_window(
    engine: &QueryEngine,
    ctx: &ServeCtx,
    window: &[&Admitted],
) -> Vec<String> {
    let now = Instant::now();
    let mut responses: Vec<Option<String>> = Vec::with_capacity(window.len());
    let mut live: Vec<(EngineRequest, Option<Instant>)> = Vec::with_capacity(window.len());
    for item in window {
        responses.push(if item.deadline.is_some_and(|d| now >= d) {
            ctx.count_expired();
            Some(render_error(
                item.req.id,
                "deadline_exceeded",
                "deadline expired at admission",
                ctx.front_end(),
            ))
        } else if !matches!(item.req.op, ServeOp::Query) {
            Some(execute_mutation(engine, ctx, &item.req))
        } else {
            live.push((item.req.request.clone(), item.deadline));
            None
        });
    }
    // `None`: the window panicked, and the payload is dropped here.
    let mut results = if live.is_empty() {
        None
    } else {
        catch_unwind(AssertUnwindSafe(|| engine.query_window(&live))).ok().map(Vec::into_iter)
    };
    window
        .iter()
        .zip(responses)
        .map(|(item, response)| {
            response.unwrap_or_else(|| {
                let result = results.as_mut().map(|r| r.next().expect("a result per query"));
                render_result(engine, ctx, &item.req, result)
            })
        })
        .collect()
}

/// Execute a mutation op against the routed engine's delta tier and
/// render the acknowledgement. Panics are contained exactly like query
/// panics.
fn execute_mutation(engine: &QueryEngine, ctx: &ServeCtx, parsed: &ServeRequest) -> String {
    let fe = ctx.front_end();
    let Some(delta) = engine.delta() else {
        ctx.count_failed();
        return render_error(
            parsed.id,
            "bad_request",
            &format!(
                "op {:?} needs a mutable index (serve with --data); this index is immutable",
                parsed.op.name()
            ),
            fe,
        );
    };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match parsed.op {
        ServeOp::Query => unreachable!("queries take the query path"),
        ServeOp::Mutate(m) => delta.apply(&[m]),
        ServeOp::Flush => delta.flush(),
    }));
    match result {
        Ok(Ok(_)) => {
            ctx.count_served();
            render_mutation(
                parsed.id,
                parsed.index.as_deref(),
                parsed.op.name(),
                delta.generation(),
                delta.unflushed(),
                fe,
            )
        }
        Ok(Err(err)) => {
            ctx.count_failed();
            render_error(parsed.id, "engine_error", &err.to_string(), fe)
        }
        Err(_) => {
            ctx.count_panicked();
            render_error(
                parsed.id,
                "internal_error",
                "mutation execution panicked; the fault was contained",
                fe,
            )
        }
    }
}

/// Render (and book) one engine result; `None` means the window's
/// execution panicked (the response says so).
fn render_result(
    engine: &QueryEngine,
    ctx: &ServeCtx,
    parsed: &ServeRequest,
    result: Option<kbtim_index::EngineResult>,
) -> String {
    let fe = ctx.front_end();
    match result {
        Some(Ok(outcome)) => {
            ctx.count_served();
            render_outcome(
                parsed.id,
                parsed.index.as_deref(),
                parsed.request.algo,
                &outcome,
                engine.index().num_shards(),
                outcome.stats.generation,
                fe,
            )
        }
        Some(Err(err)) => {
            if matches!(err.index_error(), IndexError::DeadlineExceeded) {
                ctx.count_expired();
                render_error(parsed.id, "deadline_exceeded", &err.to_string(), fe)
            } else {
                ctx.count_failed();
                render_error(parsed.id, "engine_error", &err.to_string(), fe)
            }
        }
        None => {
            ctx.count_panicked();
            render_error(
                parsed.id,
                "internal_error",
                "query execution panicked; the fault was contained",
                fe,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_parsing() {
        let req = ServeRequest::parse(r#"{"id":3,"topics":[0,5],"k":8,"algo":"irr"}"#).unwrap();
        assert_eq!(req.id, Some(3));
        assert_eq!(req.index, None);
        assert_eq!(req.request.topics, vec![0, 5]);
        assert_eq!(req.request.k, 8);
        assert_eq!(req.request.algo, Algo::Irr);

        // `topics` is a set, canonical from the parse on: every spelling
        // is one window group and one cache key, at admission too.
        let req = ServeRequest::parse(r#"{"topics":[5,0,5],"k":8}"#).unwrap();
        assert_eq!(req.request.topics, vec![0, 5]);

        // Defaults: k = 10, algo = auto, id and index omitted.
        let req = ServeRequest::parse(r#"{"topics":[2]}"#).unwrap();
        assert_eq!(req.id, None);
        assert_eq!(req.index, None);
        assert_eq!(req.request.k, 10);
        assert_eq!(req.request.algo, Algo::Auto);

        // Routing field.
        let req = ServeRequest::parse(r#"{"index":"sports","topics":[2]}"#).unwrap();
        assert_eq!(req.index.as_deref(), Some("sports"));

        // An explicit op:query is the same request.
        let req = ServeRequest::parse(r#"{"op":"query","topics":[2]}"#).unwrap();
        assert_eq!(req.op, ServeOp::Query);
    }

    #[test]
    fn mutation_ops_parse() {
        let req = ServeRequest::parse(r#"{"id":1,"op":"ingest_user"}"#).unwrap();
        assert_eq!(req.op, ServeOp::Mutate(Mutation::IngestUser));
        assert_eq!(req.op.name(), "ingest_user");

        let req = ServeRequest::parse(r#"{"op":"ingest_edge","from":3,"to":9}"#).unwrap();
        assert_eq!(req.op, ServeOp::Mutate(Mutation::IngestEdge { from: 3, to: 9 }));

        let req =
            ServeRequest::parse(r#"{"op":"set_topic_weight","user":5,"topic":2,"weight":0.75}"#)
                .unwrap();
        assert_eq!(
            req.op,
            ServeOp::Mutate(Mutation::SetTopicWeight { user: 5, topic: 2, weight: 0.75 })
        );

        let req = ServeRequest::parse(r#"{"op":"flush","index":"news"}"#).unwrap();
        assert_eq!(req.op, ServeOp::Flush);
        assert_eq!(req.index.as_deref(), Some("news"));
    }

    #[test]
    fn mutation_ops_reject_bad_fields() {
        for (bad, code) in [
            (r#"{"op":"compact"}"#, "bad_request"), // unknown op
            (r#"{"op":7}"#, "bad_request"),         // op not a string
            (r#"{"op":"ingest_edge","from":1}"#, "bad_request"), // missing to
            (r#"{"op":"ingest_edge","from":1,"to":2,"weight":0.5}"#, "bad_request"),
            (r#"{"op":"ingest_user","topics":[0]}"#, "bad_request"), // query field on a write
            (r#"{"op":"set_topic_weight","user":1,"topic":0,"weight":-1}"#, "bad_request"),
            (r#"{"op":"set_topic_weight","user":1,"topic":0}"#, "bad_request"),
            (r#"{"op":"flush","k":3}"#, "bad_request"),
            (r#"{"op":"ingest_edge","from":1,"to":2,"frobnicate":1}"#, "unknown_field"),
        ] {
            let err = ServeRequest::parse(bad).expect_err(bad);
            assert_eq!(err.code, code, "{bad:?} → {err}");
        }
    }

    #[test]
    fn request_rejects_bad_fields() {
        for (bad, code) in [
            (r#"{"k":5}"#, "bad_request"),                      // missing topics
            (r#"{"topics":[0],"k":0}"#, "bad_request"),         // zero k
            (r#"{"topics":[0],"algo":"fast"}"#, "bad_request"), // unknown algo
            (r#"{"topics":"0"}"#, "bad_request"),               // topics not an array
            (r#"{"topics":[0.5]}"#, "bad_request"),             // fractional topic
            (r#"{"topics":[0],"index":7}"#, "bad_request"),     // index not a string
            (r#"{"topics":[0],"frobnicate":1}"#, "unknown_field"),
            (r#"{"topics":[0],"indx":"a"}"#, "unknown_field"), // the typo guard
            (r#"[0,1]"#, "bad_request"),                       // not an object
            (r#"{"topics":[0}"#, "parse_error"),               // malformed JSON
            // Was an algo until PR 21; now unknown like any other.
            (r#"{"topics":[0],"algo":"memory"}"#, "bad_request"),
        ] {
            let err = ServeRequest::parse(bad).expect_err(bad);
            assert_eq!(err.code, code, "{bad:?} → {err}");
        }
    }

    #[test]
    fn responses_are_parseable_json() {
        let rendered = render_error(Some(9), "unknown_index", "no \"such\" index\n", None);
        let back = Json::parse(&rendered).unwrap();
        assert_eq!(back.get("id").unwrap().as_u64(), Some(9));
        assert_eq!(back.get("error"), Some(&Json::Str("no \"such\" index\n".to_string())));
        assert_eq!(back.get("code"), Some(&Json::Str("unknown_index".to_string())));
        assert_eq!(back.get("front_end"), None, "omitted unless the context names one");

        let rendered = render_error(None, "overloaded", "full", Some("epoll"));
        let back = Json::parse(&rendered).unwrap();
        assert_eq!(back.get("front_end"), Some(&Json::Str("epoll".to_string())));
    }

    #[test]
    fn router_routes_by_name_with_first_as_default() {
        use crate::core::theta::SamplingConfig;
        use crate::datagen::{DatasetConfig, DatasetFamily};
        use crate::index::{IndexBuildConfig, IndexBuilder, KbtimIndex};
        use crate::propagation::model::IcModel;
        use crate::storage::{IoStats, TempDir};

        let data =
            DatasetConfig::family(DatasetFamily::News).num_users(200).num_topics(3).seed(5).build();
        let model = IcModel::weighted_cascade(&data.graph);
        let config = IndexBuildConfig {
            sampling: SamplingConfig {
                theta_cap: Some(300),
                opt_initial_samples: 32,
                opt_max_rounds: 3,
                ..SamplingConfig::fast()
            },
            ..IndexBuildConfig::default()
        };
        let dir = TempDir::new("router-unit").unwrap();
        IndexBuilder::new(&model, &data.profiles, config).build(dir.path()).unwrap();
        let open = || {
            Arc::new(QueryEngine::new(Arc::new(
                KbtimIndex::open(dir.path(), IoStats::new()).unwrap(),
            )))
        };

        let empty = Router::new();
        assert!(empty.is_empty());
        assert!(empty.engine(None).is_none());
        assert!(empty.resolve(None).is_none());
        assert_eq!(Router::default().len(), 0);

        // Routing: first registration is the default route, names
        // select exactly their engine, unknown names miss.
        let (a, b) = (open(), open());
        let mut router = Router::new();
        router.add("alpha", Arc::clone(&a)).unwrap();
        router.add("beta", Arc::clone(&b)).unwrap();
        assert!(Arc::ptr_eq(router.engine(None).unwrap(), &a), "first added is the default");
        assert!(Arc::ptr_eq(router.engine(Some("alpha")).unwrap(), &a));
        assert!(Arc::ptr_eq(router.engine(Some("beta")).unwrap(), &b));
        assert!(router.engine(Some("gamma")).is_none());
        assert_eq!(router.resolve(None), Some(0));
        assert_eq!(router.resolve(Some("beta")), Some(1));
        assert_eq!(router.resolve(Some("gamma")), None);
        assert_eq!(router.name_at(1), "beta");
        assert!(Arc::ptr_eq(router.engine_at(0), &a));
        assert_eq!(router.names().collect::<Vec<_>>(), ["alpha", "beta"]);
        assert_eq!(router.len(), 2);
        assert!(router.add("alpha", Arc::clone(&b)).unwrap_err().contains("duplicate"));
        assert!(router.add("", Arc::clone(&b)).is_err(), "empty names rejected");

        // The single-index convenience form registers under "default".
        let single = Router::single(Arc::clone(&a));
        assert_eq!(single.len(), 1);
        assert!(Arc::ptr_eq(single.engine(None).unwrap(), &a));
        assert!(Arc::ptr_eq(single.engine(Some("default")).unwrap(), &a));
    }

    #[test]
    fn a_response_names_the_generation_that_answered_it() {
        use crate::datagen::{DatasetConfig, DatasetFamily};
        use crate::index::{DeltaIndex, IndexBuildConfig, IndexBuilder, KbtimIndex};
        use crate::propagation::model::IcModel;
        use crate::storage::{IoStats, TempDir};

        let data =
            DatasetConfig::family(DatasetFamily::News).num_users(120).num_topics(3).seed(7).build();
        let config = IndexBuildConfig::default();
        let dir = TempDir::new("serve-generation-label").unwrap();
        IndexBuilder::new(&IcModel::weighted_cascade(&data.graph), &data.profiles, config)
            .build(dir.path())
            .unwrap();
        let index = Arc::new(KbtimIndex::open(dir.path(), IoStats::new()).unwrap());
        let delta = Arc::new(
            DeltaIndex::attach(Arc::clone(&index), &data.graph, &data.profiles, config).unwrap(),
        );
        let ctx = ServeCtx::unlimited();
        let parsed = ServeRequest::parse(r#"{"id":1,"topics":[0,1],"k":4}"#).unwrap();
        // Topic 9 is beyond the index: an empty budget, answered without
        // touching a segment — and labelled all the same.
        let nobody = ServeRequest::parse(r#"{"id":2,"topics":[9],"k":4}"#).unwrap();
        let label = |rendered: &str| Json::parse(rendered).unwrap().get("generation").cloned();

        // A write lands between execution and rendering: the response
        // must still name the snapshot that computed the answer. Both
        // the per-request and the windowed execution paths label.
        for (parsed, batched) in
            [(&parsed, false), (&parsed, true), (&nobody, false), (&nobody, true)]
        {
            let engine = QueryEngine::new(Arc::clone(&index)).with_delta(Arc::clone(&delta));
            let answered_at = delta.generation();
            let result = if batched {
                engine.query_window(&[(parsed.request.clone(), None)]).remove(0)
            } else {
                engine.query(&parsed.request)
            };
            delta.apply(&[Mutation::IngestUser]).unwrap();
            assert_eq!(delta.generation(), answered_at + 1);
            let rendered = render_result(&engine, &ctx, parsed, Some(result));
            assert_eq!(
                label(&rendered).and_then(|g| g.as_u64()),
                Some(answered_at),
                "batched={batched}: {rendered}"
            );
        }

        // An immutable index has no generation to name.
        let engine = QueryEngine::new(Arc::clone(&index));
        let rendered = render_result(&engine, &ctx, &parsed, Some(engine.query(&parsed.request)));
        assert_eq!(label(&rendered), None, "{rendered}");
    }

    /// The renderer before it wrote through `fmt::Write` — `format!`
    /// temporaries and a `to_string()` per number — kept as the oracle
    /// of the bytes a response must keep.
    fn render_outcome_with_temporaries(
        id: Option<u64>,
        index: Option<&str>,
        algo: Algo,
        outcome: &QueryOutcome,
        shards: usize,
        generation: Option<u64>,
        front_end: Option<&str>,
    ) -> String {
        let push_u32_array = |out: &mut String, key: &str, items: Vec<u64>| {
            out.push('"');
            out.push_str(key);
            out.push_str("\":[");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&item.to_string());
            }
            out.push(']');
        };
        let mut out = String::with_capacity(128);
        out.push('{');
        if let Some(id) = id {
            out.push_str(&format!("\"id\":{id},"));
        }
        if let Some(index) = index {
            out.push_str("\"index\":");
            escape_into(index, &mut out);
            out.push(',');
        }
        out.push_str(&format!("\"algo\":\"{algo}\","));
        push_u32_array(&mut out, "seeds", outcome.seeds.iter().map(|&s| s as u64).collect());
        out.push(',');
        push_u32_array(&mut out, "marginal_gains", outcome.marginal_gains.clone());
        out.push_str(&format!(
            ",\"coverage\":{},\"estimated_influence\":{:.6},\"theta_q\":{},\
             \"rr_sets_loaded\":{},\"shards\":{shards}",
            outcome.coverage,
            outcome.estimated_influence,
            outcome.stats.theta_q,
            outcome.stats.rr_sets_loaded,
        ));
        if let Some(generation) = generation {
            out.push_str(&format!(",\"generation\":{generation}"));
        }
        if let Some(front_end) = front_end {
            out.push_str(",\"front_end\":");
            escape_into(front_end, &mut out);
        }
        out.push_str(&format!(",\"elapsed_us\":{}}}", outcome.stats.elapsed.as_micros()));
        out
    }

    #[test]
    fn render_outcome_writes_the_bytes_the_temporaries_wrote() {
        let outcome = |k: u32, estimated_influence: f64| QueryOutcome {
            seeds: (0..k).map(|i| i * 7_919 % 100_003 + u32::MAX / 2 * (i % 2)).collect(),
            marginal_gains: (0..k as u64)
                .map(|i| 1_000 / (i + 1) + u64::MAX / 2 * (i % 2))
                .collect(),
            coverage: 4_321,
            estimated_influence,
            stats: kbtim_index::QueryStats {
                theta_q: 1_800,
                rr_sets_loaded: 240,
                elapsed: Duration::from_micros(913),
                ..Default::default()
            },
        };
        // `{:.6}` at its edges: rounding at the sixth digit both ways,
        // signed zero, huge, and the non-finite spellings.
        let floats =
            [0.0, -0.0, 14.25, 1.0 / 3.0, 2.5e-7, 5e-7, 1.5e-6, 123_456_789.987_654_32, 1e300];
        let floats = floats.into_iter().chain([f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        let mut cases = 0;
        for k in [0, 1, 25] {
            for (algo, influence) in
                [Algo::Rr, Algo::Irr, Algo::Auto].into_iter().cycle().zip(floats.clone())
            {
                let outcome = outcome(k, influence);
                for id in [None, Some(0), Some(u64::MAX)] {
                    for index in [None, Some("sports"), Some("a \"quoted\"\n\u{1}name")] {
                        for generation in [None, Some(0), Some(u64::MAX)] {
                            for front_end in [None, Some("epoll")] {
                                let args = (id, index, algo, &outcome, 4, generation, front_end);
                                assert_eq!(
                                    render_outcome(
                                        id, index, algo, &outcome, 4, generation, front_end
                                    ),
                                    render_outcome_with_temporaries(
                                        id, index, algo, &outcome, 4, generation, front_end
                                    ),
                                    "{args:?}"
                                );
                                cases += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 3 * 12 * 3 * 3 * 3 * 2);
    }

    /// A serial stream through `handle_line_ctx` probes the keyword-set
    /// cache once per request — at admission when a run covers it (then
    /// it is answered there), else in the window that serves it — and
    /// every answer is the uncached server's.
    #[test]
    fn every_request_is_probed_once_and_answered_as_without_a_cache() {
        use crate::datagen::{DatasetConfig, DatasetFamily};
        use crate::index::{IndexBuildConfig, IndexBuilder, KbtimIndex};
        use crate::propagation::model::IcModel;
        use crate::storage::{IoStats, TempDir};

        let data =
            DatasetConfig::family(DatasetFamily::News).num_users(200).num_topics(4).seed(5).build();
        let dir = TempDir::new("serve-admission-books").unwrap();
        IndexBuilder::new(
            &IcModel::weighted_cascade(&data.graph),
            &data.profiles,
            IndexBuildConfig::default(),
        )
        .build(dir.path())
        .unwrap();
        let index = Arc::new(KbtimIndex::open(dir.path(), IoStats::new()).unwrap());
        let engine = QueryEngine::new(Arc::clone(&index))
            .with_batch_window(Some(Duration::from_micros(200)))
            .with_merge_cache(8);
        let cached = Router::single(Arc::new(engine));
        let uncached = Router::single(Arc::new(QueryEngine::new(index)));
        let ctx = ServeCtx::unlimited();

        // `[2,1,0]` is spelled out of order: the parse makes it canonical,
        // so its repeats are hits at admission like the others'.
        const SETS: [&str; 4] = ["[0,1]", "[1,2]", "[3]", "[2,1,0]"];
        const ALGOS: [&str; 3] = ["rr", "irr", "auto"];
        let requests = 48;
        for i in 0..requests {
            let line = format!(
                r#"{{"id":{i},"topics":{},"k":{},"algo":"{}"}}"#,
                SETS[i * 7 % SETS.len()],
                1 + i * 5 % 12,
                ALGOS[i % ALGOS.len()]
            );
            let got = handle_line_ctx(&cached, &ctx, &line);
            let want = handle_line(&uncached, &line);
            let strip = |r: &str| r[..r.find(",\"elapsed_us\"").expect(r)].to_string();
            assert_eq!(strip(&got), strip(&want), "{line}");
        }
        let engine = cached.engine_at(0);
        let (hits, misses) = (engine.merge_cache_hits(), engine.merge_cache_misses());
        assert_eq!(hits + misses, requests as u64, "one probe per request");
        assert!(hits > 0 && misses > 0, "{hits} hits, {misses} misses");
        // Serial: a run is published before the next line is admitted,
        // so every hit is answered at admission and every miss is a
        // window of its own.
        assert_eq!(engine.batches(), misses);
        let stats = ctx.stats_line();
        assert!(stats.starts_with(&format!("served={requests} ")), "{stats}");
        assert!(stats.ends_with(&format!(" answered_at_admission={hits}")), "{stats}");
    }
}
