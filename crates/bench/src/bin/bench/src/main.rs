//! `bench` — the one benchmark of this repository.
//!
//! ```text
//! bench --workload W --seed N --seconds S --trace 0|1   one run, one JSON result line (the driver's form)
//! bench full  [--seed N] [--only W] [--repeat R] [--out FILE] [--seconds S]
//! bench smoke                                         the same code on a tiny fixture, ≤ 20 s
//! bench trace [--seed N] [--only W]                   the traced pass alone
//! bench compare PARENT.jsonl CHANGE.jsonl             apply the bounds: ok | worse | unresolved
//! bench manifest                                      print BENCHMARK.json
//! ```
//!
//! Run it from the root of a checkout: it builds `kbtim` there with
//! cargo and drives it as child processes. See README.md beside this
//! package for what each workload and metric is for.

mod alloc;
mod check;
mod e2e;
mod report;
mod span;
mod stats;
mod trace;
mod wire;
mod workload;

use report::{MetricDef, Metrics, RunResult, END_TO_END, PER_LAYER, RUN_SECONDS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{workload, Kind, Scale, Workload, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Per-layer metrics that only a writer produces; a read-only
/// workload's traced run takes them from a short `live_ingest` probe.
const WRITER_METRICS: [&str; 4] = [
    "wire.writes_per_s",
    "wire.write_ack_p50_ms",
    "delta.flush_ack_ms",
    "wire.lat_p99_during_flush_ms",
];

/// The two modes of a run: `(traced, the metrics it prints)`.
const BOTH: &[(bool, &[MetricDef])] = &[(false, END_TO_END), (true, PER_LAYER)];

struct Measured {
    result: RunResult,
    /// The generator kept its schedule (see `e2e::run`).
    valid: bool,
    notes: Vec<String>,
}

/// Scratch space of this process, inside the build directory.
fn work_dir() -> PathBuf {
    wire::target_dir().join("perfbench").join(format!("run-{}", std::process::id()))
}

/// One measured run: end to end with tracing off, or the traced pass.
fn measure(
    bin: &Path,
    workload: &Workload,
    scale: &Scale,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Measured, String> {
    let work = work_dir();
    let secs = |share: f64| Duration::from_secs_f64(seconds * share);
    if !traced {
        let timing = e2e::Timing {
            setups: 3,
            sat: secs(7.0 / 16.0),
            paced: secs(9.0 / 16.0),
            recovery: true,
        };
        let run = e2e::run(bin, workload, scale, seed, timing, &work.join("fixture"))?;
        return Ok(Measured {
            result: RunResult {
                correct: run.correct,
                attempted: run.attempted,
                failed: run.failed,
                metrics: run.metrics,
            },
            valid: run.valid,
            notes: run.notes,
        });
    }

    // Traced: a paced wire phase for the wire-side layer metrics, a
    // writer probe where the workload has no writer, then the
    // in-process pass.
    let timing =
        e2e::Timing { setups: 1, sat: Duration::ZERO, paced: secs(6.0 / 16.0), recovery: false };
    let own = e2e::run(bin, workload, scale, seed, timing, &work.join("fixture"))?;
    let mut metrics: Metrics = own.metrics;
    let (mut correct, mut valid) = (own.correct, own.valid);
    let (mut attempted, mut failed) = (own.attempted, own.failed);
    let mut notes = own.notes;
    if workload.kind != Kind::LiveIngest {
        let live = workload::workload("live_ingest").expect("live_ingest is a workload");
        let timing = e2e::Timing { paced: secs(5.0 / 16.0), ..timing };
        let probe = e2e::run(bin, live, scale, seed, timing, &work.join("probe"))?;
        for name in WRITER_METRICS {
            metrics.insert(name, probe.metrics[name]);
        }
        correct &= probe.correct;
        valid &= probe.valid;
        attempted += probe.attempted;
        failed += probe.failed;
        notes.extend(probe.notes);
    }
    let spans_dir = wire::target_dir().join("bench");
    std::fs::create_dir_all(&spans_dir).map_err(|e| format!("{}: {e}", spans_dir.display()))?;
    let spans_out = spans_dir.join(format!("trace-{}.jsonl", workload.name));
    let traced = trace::run(&trace::TraceInput {
        workload,
        scale,
        idx: &own.fixture.idx,
        work: &work,
        spans_out: &spans_out,
    })?;
    metrics.extend(traced);
    // What the wire adds on top of the handler: sockets, framing in
    // the event loop, queueing, the outbox.
    metrics.insert(
        "wire.overhead_us",
        metrics["lat_p50_ms"] * 1e3 - metrics["serve.handle_line_p50_us"],
    );
    notes.push(format!("spans written to {}", spans_out.display()));
    Ok(Measured { result: RunResult { correct, attempted, failed, metrics }, valid, notes })
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag_value(args, name) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| format!("{name}: cannot parse {raw:?}")),
    }
}

fn selected(args: &[String]) -> Result<Vec<&'static Workload>, String> {
    match flag_value(args, "--only") {
        None => Ok(WORKLOADS.iter().collect()),
        Some(name) => Ok(vec![workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?]),
    }
}

fn print_metrics(workload: &Workload, defs: &[MetricDef], metrics: &Metrics) {
    for def in defs {
        if let Some(v) = metrics.get(def.name) {
            println!("{:<14} {:<30} {:>16.4} {}", workload.name, def.name, v, def.unit);
        }
    }
}

/// The driver's entry: one run, one result line, last on stdout.
fn drive(args: &[String]) -> Result<bool, String> {
    let name = flag_value(args, "--workload").ok_or("missing --workload")?;
    let workload = workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = parse_flag(args, "--seed", 1)?;
    let seconds: f64 = parse_flag(args, "--seconds", RUN_SECONDS as f64)?;
    let traced = match flag_value(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let bin = wire::build_kbtim()?;
    let measured = measure(&bin, workload, &Scale::FULL, seed, seconds, traced)?;
    for note in &measured.notes {
        eprintln!("{note}");
    }
    let defs = if traced { PER_LAYER } else { END_TO_END };
    println!("{}", report::result_line(&measured.result, defs, "")?);
    Ok(measured.result.correct)
}

/// `full`, `smoke` and `trace`: every selected workload in every given
/// mode (end to end, traced); every metric printed by name and unit.
fn full(
    args: &[String],
    scale: &Scale,
    default_seconds: f64,
    modes: &[(bool, &[MetricDef])],
) -> Result<bool, String> {
    let seed: u64 = parse_flag(args, "--seed", 1)?;
    let repeat: u64 = parse_flag(args, "--repeat", 1)?;
    let seconds: f64 = parse_flag(args, "--seconds", default_seconds)?;
    let workloads = selected(args)?;
    let bin = wire::build_kbtim()?;
    let started = Instant::now();
    let mut out = String::new();
    let mut all_good = true;
    println!("{:<14} {:<30} {:>16} unit", "workload", "metric", "value");
    for workload in workloads {
        for &(traced, defs) in modes {
            // Repeats re-run the end-to-end side only: that is where
            // the bounds apply.
            for round in 0..if traced { 1 } else { repeat } {
                let run_seed = seed + round;
                let measured = measure(&bin, workload, scale, run_seed, seconds, traced)?;
                for note in &measured.notes {
                    eprintln!("{note}");
                }
                all_good &= measured.result.correct && measured.valid;
                print_metrics(workload, defs, &measured.result.metrics);
                let tag = format!(
                    "\"workload\":\"{}\",\"seed\":{run_seed},\"trace\":{},",
                    workload.name, traced as u8
                );
                out.push_str(&report::result_line(&measured.result, defs, &tag)?);
                out.push('\n');
            }
        }
    }
    if repeat > 1 {
        println!("\n{}", report::repeat_summary(&report::read_results(&out)?));
    }
    if let Some(path) = flag_value(args, "--out") {
        std::fs::write(path, &out).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    eprintln!(
        "{} in {:.1} s",
        if all_good { "every check passed" } else { "CHECKS FAILED (see above)" },
        started.elapsed().as_secs_f64()
    );
    Ok(all_good)
}

fn compare(args: &[String]) -> Result<bool, String> {
    let [parent, change] = args else {
        return Err("usage: bench compare PARENT.jsonl CHANGE.jsonl".into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (table, all_ok) = report::compare(&read(parent)?, &read(change)?)?;
    print!("{table}");
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some(flag) if flag.starts_with("--") => drive(&args),
        Some("full") => full(&args[1..], &Scale::FULL, RUN_SECONDS as f64, BOTH),
        Some("smoke") => full(&args[1..], &Scale::SMOKE, 2.0, BOTH),
        Some("trace") => full(&args[1..], &Scale::FULL, RUN_SECONDS as f64, &BOTH[1..]),
        Some("compare") => compare(&args[1..]),
        Some("manifest") => {
            print!("{}", report::manifest_json());
            Ok(true)
        }
        _ => Err("usage: bench full|smoke|trace|compare|manifest, or \
                  bench --workload W --seed N --seconds S --trace 0|1"
            .to_string()),
    };
    // Fixtures are scratch; the span logs under <target>/bench/ stay.
    let _ = std::fs::remove_dir_all(work_dir());
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
