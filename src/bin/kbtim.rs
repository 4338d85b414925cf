//! `kbtim` — command-line front end for the KB-TIM library.
//!
//! ```text
//! kbtim gen      --family news|twitter --users N [--topics T] [--seed S] --out DIR
//! kbtim stats    --graph FILE
//! kbtim build    --data DIR --out DIR [--model ic|lt] [--codec raw|packed]
//!                [--variant rr|irr] [--delta N] [--eps F] [--cap N] [--threads N]
//!                [--seed S] [--shards S]
//! kbtim query    --index DIR --topics 1,2,3 --k 30 [--algo rr|irr|auto]
//!                [--threads N] [--serving file|mmap]
//! kbtim ingest   --index DIR --data DIR [--file F] [--flush on|off]
//!                [--serving file|mmap] [--eps F] [--cap N] [--seed S]
//! kbtim serve    --index [NAME=]DIR [--index NAME=DIR ...] [--listen HOST:PORT]
//!                [--max-conns N] [--backlog N] [--workers N] [--outbox-cap BYTES]
//!                [--threads N] [--serving file|mmap]
//!                [--batch USEC] [--merge-cache ENTRIES] [--max-queue N]
//!                [--deadline-ms MS] [--max-line BYTES]
//!                [--data DIR] [--flush-watermark N] [--eps F] [--cap N] [--seed S]
//! kbtim validate --index DIR [--serving file|mmap]
//!                [--data DIR] [--eps F] [--cap N] [--seed S]
//! ```
//!
//! `gen` writes `graph.txt` (SNAP edge list) and `profiles.tsv` into the
//! output directory; `build` reads that pair back, so datasets can also be
//! assembled by other tools in the same two formats.
//!
//! `ingest` applies line-JSON mutations (`{"op":"ingest_user"}`,
//! `{"op":"ingest_edge","from":U,"to":V}`,
//! `{"op":"set_topic_weight","user":U,"topic":T,"weight":W}` — the same
//! verbs the serve protocol accepts) to an index through its mutable
//! delta tier, and by default compacts the result into the next segment
//! generation. `--data` names the directory holding the dataset the
//! live generation was built from (`graph.txt` + `profiles.tsv`);
//! `--eps` / `--cap` / `--seed` must repeat the original build's values
//! so the compacted generation is bit-identical to a from-scratch
//! build.
//!
//! `serve` turns the index into an always-on query service speaking
//! line-delimited JSON (see [`kbtim::serve`]) over stdin/stdout, or over
//! TCP with `--listen`. The TCP front end is a hand-rolled epoll
//! readiness loop: thousands of connections multiplexed onto a fixed
//! worker pool, with per-connection request pipelining and
//! `"id"`-matched responses. It needs Linux; stdin mode runs
//! everywhere.

use kbtim::core::theta::SamplingConfig;
use kbtim::datagen::{DatasetConfig, DatasetFamily};
use kbtim::graph::{io as graph_io, stats::graph_stats, Graph};
use kbtim::index::{
    IndexBuildConfig, IndexBuilder, IndexVariant, KbtimIndex, ServingMode, ThetaMode,
};
use kbtim::propagation::model::{IcModel, LtModel};
use kbtim::storage::IoStats;
use kbtim::topics::{io as topics_io, Query, UserProfiles};
use kbtim_codec::Codec;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let pairs = match parse_flags(rest) {
        Ok(pairs) => pairs,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // A flag the command does not read is a typo or a removed option:
    // refuse it rather than serve without it.
    if let Some(known) = known_flags(command) {
        if let Some((key, _)) = pairs.iter().find(|(key, _)| !known.contains(&key.as_str())) {
            eprintln!("error: unknown flag --{key} for `{command}`\n\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    // Repeated flags: last occurrence wins for the scalar commands;
    // `serve` additionally reads the ordered pairs for repeatable
    // `--index`.
    let flags: HashMap<String, String> = pairs.iter().cloned().collect();
    let result = match command.as_str() {
        "gen" => cmd_gen(&flags),
        "stats" => cmd_stats(&flags),
        "build" => cmd_build(&flags),
        "query" => cmd_query(&flags),
        "ingest" => cmd_ingest(&flags),
        "serve" => cmd_serve(&flags, &pairs),
        "validate" => cmd_validate(&flags),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "kbtim — keyword-based targeted influence maximization

USAGE:
  kbtim gen      --family news|twitter --users N [--topics T] [--seed S] --out DIR
  kbtim stats    --graph FILE
  kbtim build    --data DIR --out DIR [--model ic|lt] [--codec raw|packed]
                 [--variant rr|irr] [--delta N] [--eps F] [--cap N] [--threads N]
                 [--seed S] [--shards S]
  kbtim query    --index DIR --topics 1,2,3 --k 30 [--algo rr|irr|auto]
                 [--threads N] [--serving file|mmap]
  kbtim ingest   --index DIR --data DIR [--file F] [--flush on|off]
                 [--serving file|mmap] [--eps F] [--cap N] [--seed S]
  kbtim serve    --index [NAME=]DIR [--index NAME=DIR ...] [--listen HOST:PORT]
                 [--max-conns N] [--backlog N] [--workers N] [--outbox-cap BYTES]
                 [--threads N] [--serving file|mmap]
                 [--batch USEC] [--merge-cache ENTRIES] [--max-queue N]
                 [--deadline-ms MS] [--max-line BYTES]
                 [--data DIR] [--flush-watermark N] [--eps F] [--cap N] [--seed S]
  kbtim validate --index DIR [--serving file|mmap]
                 [--data DIR] [--eps F] [--cap N] [--seed S]";

/// The flags each command reads (`None`: not a command). Keep in step
/// with the command's `required` / `parse` / `flags.get` calls.
fn known_flags(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "gen" => &["family", "users", "topics", "seed", "out"],
        "stats" => &["graph"],
        "build" => &[
            "data", "out", "model", "codec", "variant", "delta", "eps", "cap", "threads", "seed",
            "shards",
        ],
        "query" => &["index", "topics", "k", "algo", "threads", "serving"],
        "ingest" => &["index", "data", "file", "flush", "serving", "eps", "cap", "seed"],
        "serve" => &[
            "index",
            "listen",
            "max-conns",
            "backlog",
            "workers",
            "outbox-cap",
            "threads",
            "serving",
            "batch",
            "merge-cache",
            "max-queue",
            "deadline-ms",
            "max-line",
            "data",
            "flush-watermark",
            "eps",
            "cap",
            "seed",
        ],
        "validate" => &["index", "serving", "data", "eps", "cap", "seed"],
        _ => return None,
    })
}

/// `--key value` pairs in argument order (repeats preserved — `serve`
/// accepts `--index` more than once).
fn parse_flags(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {:?}", args[i]))?;
        let value = args.get(i + 1).ok_or_else(|| format!("--{key} needs a value"))?;
        flags.push((key.to_string(), value.clone()));
        i += 2;
    }
    Ok(flags)
}

fn required<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags.get(key).map(String::as_str).ok_or_else(|| format!("missing --{key}"))
}

fn parse<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| format!("--{key}: cannot parse {raw:?}")),
    }
}

fn cmd_gen(flags: &HashMap<String, String>) -> Result<(), String> {
    let family = match required(flags, "family")? {
        "news" => DatasetFamily::News,
        "twitter" => DatasetFamily::Twitter,
        other => return Err(format!("--family must be news|twitter, got {other:?}")),
    };
    let users: u32 = required(flags, "users")?.parse().map_err(|_| "--users: bad number")?;
    let topics: u32 = parse(flags, "topics", 48)?;
    let seed: u64 = parse(flags, "seed", 42)?;
    let out = PathBuf::from(required(flags, "out")?);
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;

    let data = DatasetConfig::family(family).num_users(users).num_topics(topics).seed(seed).build();
    graph_io::write_edge_list(&data.graph, out.join("graph.txt")).map_err(|e| e.to_string())?;
    topics_io::write_profiles(&data.profiles, out.join("profiles.tsv"))
        .map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} users, {} edges, {} topics) to {}",
        data.name,
        data.graph.num_nodes(),
        data.graph.num_edges(),
        topics,
        out.display()
    );
    Ok(())
}

fn cmd_stats(flags: &HashMap<String, String>) -> Result<(), String> {
    let path = required(flags, "graph")?;
    let graph = graph_io::read_edge_list(path, None).map_err(|e| e.to_string())?;
    let s = graph_stats(&graph);
    println!("nodes:          {}", s.num_nodes);
    println!("edges:          {}", s.num_edges);
    println!("avg degree:     {:.2}", s.avg_degree);
    println!("max in-degree:  {}", s.max_in_degree);
    println!("max out-degree: {}", s.max_out_degree);
    Ok(())
}

fn load_data(dir: &Path) -> Result<(Graph, UserProfiles), String> {
    let graph = graph_io::read_edge_list(dir.join("graph.txt"), None).map_err(|e| e.to_string())?;
    let profiles = topics_io::read_profiles(dir.join("profiles.tsv")).map_err(|e| e.to_string())?;
    // Profiles fix |V|; the edge list may omit trailing isolated users.
    let graph = if graph.num_nodes() < profiles.num_users() {
        let edges: Vec<_> = graph.edges().collect();
        Graph::from_edges(profiles.num_users(), &edges)
    } else if graph.num_nodes() > profiles.num_users() {
        return Err(format!(
            "graph has {} nodes but profiles cover {} users",
            graph.num_nodes(),
            profiles.num_users()
        ));
    } else {
        graph
    };
    Ok((graph, profiles))
}

fn cmd_build(flags: &HashMap<String, String>) -> Result<(), String> {
    let data_dir = PathBuf::from(required(flags, "data")?);
    let out = PathBuf::from(required(flags, "out")?);
    let (graph, profiles) = load_data(&data_dir)?;

    let codec = match flags.get("codec").map(String::as_str).unwrap_or("packed") {
        "raw" => Codec::Raw,
        "packed" => Codec::Packed,
        other => return Err(format!("--codec must be raw|packed, got {other:?}")),
    };
    let delta: u32 = parse(flags, "delta", 100)?;
    let variant = match flags.get("variant").map(String::as_str).unwrap_or("irr") {
        "rr" => IndexVariant::Rr,
        "irr" => IndexVariant::Irr { partition_size: delta },
        other => return Err(format!("--variant must be rr|irr, got {other:?}")),
    };
    let eps: f64 = parse(flags, "eps", 0.5)?;
    let cap: u64 = parse(flags, "cap", 100_000)?;
    // 0 = the machine's available parallelism (same convention as
    // `query --threads`); index bytes are identical either way.
    let threads: usize = match parse(flags, "threads", 8)? {
        0 => kbtim_exec::ExecPool::new(None).threads(),
        n => n,
    };
    let seed: u64 = parse(flags, "seed", 42)?;
    // Number of user-range shards to partition the segments into.
    // Queries over any shard count return bit-identical answers; serving
    // auto-detects the layout, so this is purely a scale-out knob.
    let shards: usize = parse(flags, "shards", 1)?;
    if shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    let sampling = SamplingConfig {
        eps,
        theta_cap: if cap == 0 { None } else { Some(cap) },
        ..SamplingConfig::fast()
    };
    let config = IndexBuildConfig {
        sampling,
        codec,
        theta_mode: ThetaMode::Compact,
        variant,
        threads,
        seed,
        shards,
    };

    let model_name = flags.get("model").map(String::as_str).unwrap_or("ic");
    let report = match model_name {
        "ic" => {
            let model = IcModel::weighted_cascade(&graph);
            IndexBuilder::new(&model, &profiles, config).build(&out)
        }
        "lt" => {
            let mut rng = SmallRng::seed_from_u64(seed);
            let model = LtModel::random_weights(&graph, &mut rng);
            IndexBuilder::new(&model, &profiles, config).build(&out)
        }
        other => return Err(format!("--model must be ic|lt, got {other:?}")),
    }
    .map_err(|e| e.to_string())?;

    println!(
        "built index at {}: {} RR sets across {} keywords in {} shard(s), \
         {:.1} MiB in {:.2?}",
        out.display(),
        report.total_theta,
        report.keywords.len(),
        shards,
        report.total_bytes as f64 / (1024.0 * 1024.0),
        report.elapsed
    );
    Ok(())
}

fn serving_mode(flags: &HashMap<String, String>, default: &str) -> Result<ServingMode, String> {
    let raw = flags.get("serving").map(String::as_str).unwrap_or(default);
    ServingMode::parse(raw).ok_or_else(|| format!("--serving must be file|mmap, got {raw:?}"))
}

fn cmd_query(flags: &HashMap<String, String>) -> Result<(), String> {
    let dir = required(flags, "index")?;
    let topics: Vec<u32> = required(flags, "topics")?
        .split(',')
        .map(|t| t.trim().parse().map_err(|_| format!("bad topic id {t:?}")))
        .collect::<Result<_, _>>()?;
    let k: u32 = parse(flags, "k", 30)?;
    let algo = flags.get("algo").map(String::as_str).unwrap_or("irr");
    let threads: usize = parse(flags, "threads", 0)?;
    let mode = serving_mode(flags, "file")?;

    let mut index = KbtimIndex::open_with(dir, IoStats::new(), mode).map_err(|e| e.to_string())?;
    // 0 (the default) = use the machine's available parallelism; the
    // answer is identical either way.
    if threads > 0 {
        index.set_threads(Some(threads));
    }
    let query = Query::new(topics, k);
    let outcome = match algo {
        "rr" => index.query_rr(&query),
        "irr" => index.query_irr(&query),
        "auto" => index.query_rr(&query),
        other => return Err(format!("--algo must be rr|irr|auto, got {other:?}")),
    }
    .map_err(|e| e.to_string())?;

    println!("seeds: {:?}", outcome.seeds);
    println!("marginal coverage: {:?}", outcome.marginal_gains);
    println!("estimated targeted influence: {:.2}", outcome.estimated_influence);
    println!(
        "theta_q {}, rr sets loaded {}, reads {}, bytes {}, \
         cache hits {}, bytes served {}, time {:.2?} (serving {})",
        outcome.stats.theta_q,
        outcome.stats.rr_sets_loaded,
        outcome.stats.io.read_ops,
        outcome.stats.io.bytes_read,
        outcome.stats.io.cache_hits,
        outcome.stats.io.bytes_served,
        outcome.stats.elapsed,
        index.serving_mode(),
    );
    Ok(())
}

/// The build config a delta tier needs to re-materialize keywords
/// bit-identically to the base index's own build: codec/variant/shards
/// come from the base itself, the sampling knobs and seed from flags
/// that must repeat the original `kbtim build` invocation (`--eps`,
/// `--cap`, `--seed` — same defaults as `build`).
fn delta_config(
    flags: &HashMap<String, String>,
    index: &KbtimIndex,
) -> Result<IndexBuildConfig, String> {
    let eps: f64 = parse(flags, "eps", 0.5)?;
    let cap: u64 = parse(flags, "cap", 100_000)?;
    let seed: u64 = parse(flags, "seed", 42)?;
    let sampling = SamplingConfig {
        eps,
        theta_cap: if cap == 0 { None } else { Some(cap) },
        ..SamplingConfig::fast()
    };
    Ok(IndexBuildConfig {
        sampling,
        codec: index.meta().codec,
        theta_mode: ThetaMode::Compact,
        variant: index.meta().variant,
        threads: 8, // index bytes are identical at any thread count
        seed,
        shards: index.num_shards(),
    })
}

/// Attach a mutable delta tier over `index`. The logical dataset comes
/// from the live generation directory when one exists (flush rewrites
/// `graph.txt` + `profiles.tsv` there); a generation-0 (flat) index has
/// no embedded dataset, so `--data` supplies it.
fn attach_delta(
    flags: &HashMap<String, String>,
    index: &std::sync::Arc<KbtimIndex>,
    data_flag: &str,
) -> Result<kbtim::index::DeltaIndex, String> {
    use kbtim::index::DeltaIndex;
    let data_dir =
        if index.generation() > 0 { index.dir().to_path_buf() } else { PathBuf::from(data_flag) };
    let (graph, profiles) = load_data(&data_dir)?;
    let config = delta_config(flags, index)?;
    DeltaIndex::attach(std::sync::Arc::clone(index), &graph, &profiles, config)
        .map_err(|e| e.to_string())
}

/// What an attach that cut a torn tail off `delta.log` adds to the line
/// reporting it (nothing when the journal ended on a record boundary).
fn torn_tail_clause(stats: &kbtim::index::DeltaStats) -> String {
    match stats.journal_bytes_dropped {
        0 => String::new(),
        n => format!("; dropped a torn journal tail of {n} byte(s)"),
    }
}

fn cmd_ingest(flags: &HashMap<String, String>) -> Result<(), String> {
    use kbtim::serve::{ServeOp, ServeRequest};
    use std::io::BufRead;
    use std::sync::Arc;

    let dir = required(flags, "index")?;
    let data = required(flags, "data")?;
    let mode = serving_mode(flags, "file")?;
    let flush = match flags.get("flush").map(String::as_str).unwrap_or("on") {
        "on" => true,
        "off" => false,
        other => return Err(format!("--flush must be on|off, got {other:?}")),
    };
    let index =
        Arc::new(KbtimIndex::open_with(dir, IoStats::new(), mode).map_err(|e| e.to_string())?);
    let delta = attach_delta(flags, &index, data)?;
    let replayed = delta.unflushed();

    // Mutation lines come from --file or stdin: the same line-JSON verbs
    // the serve protocol accepts, minus query/flush.
    let lines: Box<dyn Iterator<Item = std::io::Result<String>>> = match flags.get("file") {
        Some(path) => {
            let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
            Box::new(std::io::BufReader::new(file).lines())
        }
        None => Box::new(std::io::stdin().lock().lines()),
    };
    let mut mutations = Vec::new();
    for (at, line) in lines.enumerate() {
        let line = line.map_err(|e| e.to_string())?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let parsed = ServeRequest::parse(line).map_err(|e| format!("line {}: {e}", at + 1))?;
        match parsed.op {
            ServeOp::Mutate(m) => mutations.push(m),
            other => {
                return Err(format!(
                    "line {}: op {:?} is not a mutation (ingest accepts \
                     ingest_user / ingest_edge / set_topic_weight)",
                    at + 1,
                    other.name()
                ))
            }
        }
    }
    delta.apply(&mutations).map_err(|e| e.to_string())?;
    let stats = delta.stats();
    if flush {
        let flushed = delta.flush().map_err(|e| e.to_string())?;
        println!(
            "ingested {} mutation(s) ({} replayed from the journal): \
             flushed segment generation {} ({} users, {} edges, {} profile entries)",
            mutations.len(),
            replayed,
            flushed,
            stats.num_users,
            stats.num_edges,
            stats.num_entries,
        );
    } else {
        println!(
            "ingested {} mutation(s) ({} replayed from the journal): \
             journaled, unflushed={} at mutation generation {} \
             ({} users, {} edges, {} profile entries)",
            mutations.len(),
            replayed,
            delta.unflushed(),
            delta.generation(),
            stats.num_users,
            stats.num_edges,
            stats.num_entries,
        );
    }
    Ok(())
}

/// Whether stdin is a pipe or socket — the channels where EOF is a
/// deliberate drain signal from a supervisor. A daemonized server with
/// stdin on `/dev/null` (a character device, always at EOF) must NOT
/// treat that instant EOF as "drain now", which it historically did
/// (the caveat `docs/OPERATIONS.md` used to carry). A TTY stdin is
/// also excluded: interactive operators stop a server with Ctrl-C
/// (SIGINT), which still drains.
fn stdin_is_pipe() -> bool {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileTypeExt;
        if let Ok(meta) = std::fs::metadata("/proc/self/fd/0") {
            let ft = meta.file_type();
            return ft.is_fifo() || ft.is_socket();
        }
    }
    // No /proc (or not Unix): keep the historic stdin-EOF drain
    // contract rather than silently dropping a shutdown channel.
    true
}

fn cmd_serve(flags: &HashMap<String, String>, pairs: &[(String, String)]) -> Result<(), String> {
    use kbtim::index::QueryEngine;
    use kbtim::serve::{serve_epoll, serve_stdio, term_signal, EpollConfig, Router, ServeCtx};
    use std::sync::Arc;
    use std::time::Duration;

    // Repeatable routing flag: `--index name=dir` serves many indexes
    // from one process (the first is the default route); a bare
    // `--index dir` keeps the single-index form under the name
    // "default". Only a *simple* name before the first '=' counts as a
    // route name, so directory paths that happen to contain '='
    // (`--index /data/run=3/idx`) still parse as bare directories.
    let is_route_name = |s: &str| {
        !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || "_-.".contains(c))
    };
    let indexes: Vec<(String, String)> = pairs
        .iter()
        .filter(|(k, _)| k == "index")
        .map(|(_, v)| match v.split_once('=') {
            Some((name, dir)) if is_route_name(name) && !dir.is_empty() => {
                Ok((name.to_string(), dir.to_string()))
            }
            Some((name, _)) if is_route_name(name) => {
                Err(format!("--index {v:?}: expected name=dir"))
            }
            _ => Ok(("default".to_string(), v.clone())),
        })
        .collect::<Result<_, _>>()?;
    if indexes.is_empty() {
        return Err("missing --index".to_string());
    }
    // A serving tier wants resident pages by default: mmap shares them
    // with the kernel cache (and degrades to `file` off Linux).
    let mode = serving_mode(flags, "mmap")?;
    // Per-query fan-out defaults to 1 under a server: client concurrency
    // is the parallelism, and inline queries keep latency predictable.
    // 0 = the machine's available parallelism, as elsewhere.
    let threads: usize = parse(flags, "threads", 1)?;
    // Cross-request batching: 0 pins every dispatcher window to one
    // request; any other value lets a worker take its share of what is
    // queued (requests in a window share keyword decodes and greedy
    // runs). Nothing ever waits for a window to fill, so the number
    // itself is otherwise unused. The stdin stream answers each request
    // alone, on its reading thread, whatever the flag says.
    let batch_us: u64 = parse(flags, "batch", 200)?;
    let batch_window = (batch_us > 0).then(|| Duration::from_micros(batch_us));
    // Prepared-query cache: keep up to ENTRIES keyword sets' deepest
    // greedy runs and up to ENTRIES decoded keywords' leased lists per
    // engine, keyed by segment (and mutation) generation. 0 (the
    // default) disables it; a run is a few hundred bytes, a keyword's
    // lists its decoded `il`, so size it to the hot keywords.
    let merge_cache: usize = parse(flags, "merge-cache", 0)?;
    // Overload control: at most this many requests in flight at once;
    // excess requests are shed immediately with an `overloaded` error
    // instead of queueing without bound. 0 sheds everything (only
    // useful in tests).
    let max_queue: usize = parse(flags, "max-queue", 1024)?;
    // Default per-request deadline in milliseconds; a request's own
    // `deadline_ms` field overrides it. 0 (the default) = no deadline.
    let deadline_ms: u64 = parse(flags, "deadline-ms", 0)?;
    // Per-connection request-line cap: a line longer than this is shed
    // with `bad_request` (and the stream resynced at the next newline)
    // instead of buffering a hostile newline-free stream without bound.
    let max_line: usize = parse(flags, "max-line", 1 << 20)?;
    if max_line == 0 {
        return Err("--max-line must be positive".to_string());
    }
    // One TCP front end, the epoll loop and its dispatcher; stdin mode
    // is the serial stream, answered on the thread that reads it.
    let front_end = if flags.contains_key("listen") { "epoll" } else { "stdin" };
    if front_end == "epoll" && !cfg!(target_os = "linux") {
        return Err("`serve --listen` needs Linux; stdin mode runs everywhere".to_string());
    }
    // TCP front-end knobs: only the `--listen` branch reads them.
    if front_end == "stdin" {
        let tcp_only = ["max-conns", "backlog", "workers", "outbox-cap"];
        if let Some(flag) = tcp_only.iter().find(|flag| flags.contains_key(**flag)) {
            return Err(format!("--{flag} requires --listen"));
        }
    }
    let max_conns: usize = parse(flags, "max-conns", 4096)?;
    if max_conns == 0 {
        return Err("--max-conns must be positive".to_string());
    }
    let backlog: i32 = parse(flags, "backlog", 1024)?;
    if backlog <= 0 {
        return Err("--backlog must be positive".to_string());
    }
    // Query-execution workers of the dispatcher; 0 = the machine's
    // available parallelism. Distinct from --threads,
    // which is the per-query fan-out *inside* the engine.
    let workers: usize = parse(flags, "workers", 0)?;
    // Per-connection unread-response cap in bytes; beyond it the loop
    // stops reading the connection until the client drains (TCP
    // backpressure), resuming once the outbox is back under the cap.
    let outbox_cap: usize = parse(flags, "outbox-cap", 256 * 1024)?;
    if outbox_cap == 0 {
        return Err("--outbox-cap must be positive".to_string());
    }
    // Mutable delta tier: `--data DIR` (single-index serving only)
    // attaches one, enabling the mutation verbs; `--flush-watermark N`
    // starts a background compaction job that flushes whenever that
    // many mutations are journaled (0, the default, flushes only on an
    // explicit `op:flush` and at drain).
    let data_flag = flags.get("data").map(String::as_str);
    let flush_watermark: u64 = parse(flags, "flush-watermark", 0)?;
    if data_flag.is_some() && indexes.len() > 1 {
        return Err("--data attaches a mutable tier to a single served index".to_string());
    }
    if flush_watermark > 0 && data_flag.is_none() {
        return Err("--flush-watermark requires --data".to_string());
    }
    let default_deadline = (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms));
    let ctx = Arc::new(ServeCtx::new(max_queue, default_deadline).with_front_end(front_end));
    term_signal::install();

    // One open, and one engine, per route. On `mmap` each open maps its
    // own segments: two routes over one directory map it twice, and the
    // kernel's page cache holds its pages once.
    let mut router = Router::new();
    let mut delta: Option<Arc<kbtim::index::DeltaIndex>> = None;
    for (name, dir) in &indexes {
        let mut index = KbtimIndex::open_with(dir, IoStats::new(), mode)
            .map_err(|e| format!("index {name} ({dir}): {e}"))?;
        index.set_threads(if threads == 0 { None } else { Some(threads) });
        let index = Arc::new(index);
        let mut engine = QueryEngine::new(Arc::clone(&index))
            .with_batch_window(batch_window)
            .with_merge_cache(merge_cache);
        if let Some(data) = data_flag {
            let tier = Arc::new(
                attach_delta(flags, &index, data)
                    .map_err(|e| format!("index {name} ({dir}): {e}"))?,
            );
            engine = engine.with_delta(Arc::clone(&tier));
            delta = Some(tier);
        }
        router.add(name.clone(), Arc::new(engine))?;
    }
    let engine = router.engine(None).expect("at least one index");
    eprintln!(
        "kbtim serve: {} index(es) [{}] (front-end {front_end}, serving {}, shards {}, \
         threads {}, batch {}, merge-cache {}, max-queue {}, deadline {}, \
         max-line {}, mutable {}, {})",
        router.len(),
        router.names().collect::<Vec<_>>().join(", "),
        engine.index().serving_mode(),
        engine.index().num_shards(),
        threads,
        match batch_window {
            Some(w) => format!("{}us", w.as_micros()),
            None => "off".to_string(),
        },
        match merge_cache {
            0 => "off".to_string(),
            n => format!("{n} entries ({n} keyword sets + {n} decoded keywords)"),
        },
        max_queue,
        match deadline_ms {
            0 => "off".to_string(),
            ms => format!("{ms}ms"),
        },
        max_line,
        match &delta {
            None => "off".to_string(),
            Some(d) => format!(
                "gen {} ({}{})",
                d.generation(),
                match flush_watermark {
                    0 => "manual flush".to_string(),
                    n => format!("flush watermark {n}"),
                },
                torn_tail_clause(&d.stats()),
            ),
        },
        kernels_clause(),
    );
    let router = Arc::new(router);

    // Background compaction job: flush whenever the journal crosses the
    // watermark. A flush is heavyweight next to a 100 ms poll, so
    // polling costs nothing measurable; a failed flush (transient I/O,
    // armed failpoint) retries on a later poll while the journal keeps
    // every mutation durable.
    let flusher_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flusher = match (&delta, flush_watermark) {
        (Some(tier), n) if n > 0 => {
            let tier = Arc::clone(tier);
            let stop = Arc::clone(&flusher_stop);
            Some(std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    if tier.unflushed() >= n {
                        let _ = tier.flush();
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            }))
        }
        _ => None,
    };

    match flags.get("listen") {
        None => serve_stdio(&router, &ctx, max_line).map_err(|e| e.to_string())?,
        Some(addr) => {
            let listener = std::net::TcpListener::bind(addr).map_err(|e| e.to_string())?;
            eprintln!(
                "kbtim serve: listening on {}",
                listener.local_addr().map_err(|e| e.to_string())?
            );
            // stdin EOF also means drain (mirrors the stdin-mode
            // contract, and gives supervisors a portable shutdown
            // channel besides SIGTERM) — but only when stdin is a pipe
            // or socket, where EOF is a deliberate signal. A daemon
            // with stdin on /dev/null no longer drains at startup.
            let watch_stdin = stdin_is_pipe();
            let cfg = EpollConfig {
                max_conns,
                backlog,
                workers,
                outbox_cap,
                max_line,
                watch_stdin,
                ..EpollConfig::default()
            };
            serve_epoll(listener, Arc::clone(&router), Arc::clone(&ctx), cfg)
                .map_err(|e| e.to_string())?;
        }
    }

    flusher_stop.store(true, std::sync::atomic::Ordering::SeqCst);
    if let Some(job) = flusher {
        let _ = job.join();
    }
    // Drain contract for a dirty delta tier: compact it inside the
    // drain window, or report what stays journaled (`unflushed=N`) for
    // the next attach to replay.
    let mut stats = format!("{} {}", ctx.stats_line(), router.cache_books_line());
    if let Some(tier) = &delta {
        if tier.flush().is_err() {
            stats.push_str(&format!(" unflushed={}", tier.unflushed()));
        }
    }
    eprintln!("kbtim serve: drained ({stats})");
    Ok(())
}

/// The kernels this process dispatches to — what the CPU offers, after
/// the `KBTIM_SIMD` cap — as `serve`'s banner and `validate` print them.
fn kernels_clause() -> String {
    format!(
        "kernels: crc32={} codec={}",
        kbtim::storage::crc32::active_kernel().name(),
        kbtim::codec::simd::active_level().name()
    )
}

fn cmd_validate(flags: &HashMap<String, String>) -> Result<(), String> {
    let dir = required(flags, "index")?;
    let mode = serving_mode(flags, "file")?;
    let index = KbtimIndex::open_with(dir, IoStats::new(), mode).map_err(|e| e.to_string())?;
    let report = index.validate().map_err(|e| e.to_string())?;
    println!(
        "ok: {} shard(s), {} keyword segments, {} RR sets, {} inverted entries, \
         {} partitions (model {}, {:?}, segment generation {}; {})",
        report.shards_checked,
        report.keywords_checked,
        report.rr_sets_checked,
        report.il_entries_checked,
        report.partitions_checked,
        index.meta().model_name,
        index.meta().variant,
        index.generation(),
        kernels_clause(),
    );
    // `--data DIR` additionally validates the mutable tier: attach it
    // (replaying any journaled mutations), report its entry counts, and
    // structurally verify that the next flushed generation would equal
    // base ∪ delta — the catalog of a from-scratch build of the union
    // must be byte-identical to the union snapshot's.
    if let Some(data) = flags.get("data") {
        let index = std::sync::Arc::new(index);
        let delta = attach_delta(flags, &index, data)?;
        let stats = delta.stats();
        delta.verify().map_err(|e| format!("delta verification failed: {e}"))?;
        println!(
            "delta ok: unflushed={}, overlay keywords {}, union {} users / {} edges / \
             {} profile entries (mutation generation {}, flushed generation {}{}); \
             gen {} ≡ base ∪ delta verified structurally",
            stats.unflushed,
            stats.overlay_keywords,
            stats.num_users,
            stats.num_edges,
            stats.num_entries,
            stats.generation,
            stats.flushed_generation,
            torn_tail_clause(&stats),
            stats.flushed_generation + 1,
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{known_flags, USAGE};
    use std::collections::BTreeSet;

    /// The `--flag`s on `command`'s `USAGE` line and the indented lines
    /// that continue it.
    fn usage_flags(command: &str) -> BTreeSet<&'static str> {
        let mut lines =
            USAGE.lines().skip_while(|l| !l.starts_with(&format!("  kbtim {command} ")));
        let first = lines.next().unwrap_or_else(|| panic!("USAGE has no line for `{command}`"));
        std::iter::once(first)
            .chain(lines.take_while(|l| !l.starts_with("  kbtim ")))
            .flat_map(|l| l.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')))
            .filter_map(|word| word.strip_prefix("--"))
            .collect()
    }

    #[test]
    fn usage_lists_exactly_the_flags_each_command_reads() {
        for command in ["gen", "stats", "build", "query", "ingest", "serve", "validate"] {
            let known: BTreeSet<&str> = known_flags(command).unwrap().iter().copied().collect();
            assert_eq!(usage_flags(command), known, "`kbtim {command}`");
        }
    }
}
