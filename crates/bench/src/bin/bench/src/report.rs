//! The metric catalogue — the single source `BENCHMARK.json` is
//! generated from (`bench manifest`) and checked against — plus result
//! rendering and the `compare` rule.

use crate::stats::{median, quartiles, spread};
use crate::workload::WORKLOADS;
use kbtim::serve::Json;
use std::collections::BTreeMap;

/// Seconds one driver run measures (`sat` + `paced`).
pub const RUN_SECONDS: u64 = 20;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

/// What a user of the system sees. Every measured bound sits at the
/// contract's cap of 0.25: the builder's ten-seed spreads are 2–16 %,
/// but one bad spell of the shared host (three runs in a row 25 %
/// slower) pushed a ten-run spread to 22 % (README.md §calibration).
/// `index_mib` repeats exactly.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("qps", "1/s", "higher", 0.25),
    e2e("cpu_ms_per_query", "ms", "lower", 0.25),
    e2e("lat_p50_ms", "ms", "lower", 0.25),
    e2e("lat_p90_ms", "ms", "lower", 0.25),
    e2e("rss_peak_mib", "MiB", "lower", 0.25),
    e2e("index_mib", "MiB", "lower", 0.005),
];

/// Single-layer metrics from the traced pass (`--trace 1`). No bounds:
/// they explain a move in an end-to-end metric, they do not gate.
pub const PER_LAYER: &[MetricDef] = &[
    // src/serve — front end and protocol.
    layer("serve.frame_us", "us", "lower"),
    layer("serve.parse_us", "us", "lower"),
    layer("serve.render_us", "us", "lower"),
    layer("serve.handle_line_us", "us", "lower"),
    layer("serve.protocol_self_us", "us", "lower"),
    layer("wire.overhead_us", "us", "lower"),
    layer("wire.rr_p50_ms", "ms", "lower"),
    layer("wire.irr_p50_ms", "ms", "lower"),
    layer("wire.lat_p99_ms", "ms", "lower"),
    layer("wire.errors", "count", "lower"),
    layer("wire.shed", "count", "lower"),
    layer("wire.late", "count", "lower"),
    layer("loadgen.lag_p99_ms", "ms", "lower"),
    layer("loadgen.cpu_share", "ratio", "lower"),
    // crates/index serve.rs — QueryEngine.
    layer("engine.query_us", "us", "lower"),
    layer("engine.self_us", "us", "lower"),
    layer("engine.coalesced", "count", "higher"),
    layer("engine.batches", "count", "lower"),
    layer("engine.batch_size_mean", "count", "higher"),
    layer("engine.keywords_decoded", "count", "lower"),
    layer("engine.keyword_decodes_shared", "count", "higher"),
    layer("engine.merge_cache_hit_ratio", "ratio", "higher"),
    layer("engine.merge_cache_bytes", "B", "lower"),
    layer("engine.greedy_shared", "count", "higher"),
    // crates/index rr_query.rs / irr_query.rs.
    layer("index.budget_us", "us", "lower"),
    layer("index.decode_us", "us", "lower"),
    layer("index.merge_us", "us", "lower"),
    layer("index.decodes_per_request", "count", "lower"),
    layer("index.rr_us", "us", "lower"),
    layer("index.irr_us", "us", "lower"),
    layer("index.irr_loaded_ratio", "ratio", "lower"),
    layer("index.theta_q_mean", "count", "lower"),
    layer("index.open_s", "s", "lower"),
    layer("index.rr_allocs", "count", "lower"),
    layer("index.irr_allocs", "count", "lower"),
    // crates/core — CELF greedy.
    layer("core.greedy_us", "us", "lower"),
    // crates/storage.
    layer("storage.read_us", "us", "lower"),
    layer("storage.read_ops_per_query", "count", "lower"),
    layer("storage.bytes_read_per_query", "B", "lower"),
    layer("storage.cache_hits_per_query", "count", "higher"),
    layer("storage.bytes_served_per_query", "B", "lower"),
    // crates/codec.
    layer("codec.decode_mu32_per_s", "Mu32/s", "higher"),
    layer("codec.unpack_mu32_per_s", "Mu32/s", "higher"),
    layer("codec.bytes_per_u32", "B/u32", "lower"),
    // crates/index delta.rs — the mutable tier.
    layer("delta.apply_edge_us", "us", "lower"),
    layer("delta.apply_weight_us", "us", "lower"),
    layer("delta.flush_s", "s", "lower"),
    layer("delta.snapshot_us", "us", "lower"),
    layer("delta.decode_union_us", "us", "lower"),
    layer("delta.journal_bytes_per_mutation", "B", "lower"),
    layer("delta.overlay_keywords", "count", "lower"),
    layer("delta.flush_bytes_rewritten", "B", "lower"),
    layer("delta.flush_ack_ms", "ms", "lower"),
    layer("wire.lat_p99_during_flush_ms", "ms", "lower"),
    layer("wire.writes_per_s", "1/s", "higher"),
    layer("wire.write_ack_p50_ms", "ms", "lower"),
    // build, propagation, datagen, exec, fault.
    layer("build.gen_s", "s", "lower"),
    layer("build.index_s", "s", "lower"),
    layer("build.sample_sets_per_s", "1/s", "higher"),
    layer("build.bytes_per_rr_set", "B", "lower"),
    layer("exec.dispatch_ns", "ns", "lower"),
    layer("fault.inject_ns", "ns", "lower"),
    // The trace's own books.
    layer("trace.overhead_share", "ratio", "lower"),
    layer("trace.accounted_share", "ratio", "higher"),
];

/// Measured values by metric name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// One finished run, as printed on the result line.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter holding every metric of `defs` and nothing
/// else. A metric the run did not produce is an error, not a zero.
pub fn result_line(result: &RunResult, defs: &[MetricDef], extra: &str) -> Result<String, String> {
    let mut fields = Vec::with_capacity(defs.len());
    for def in defs {
        let value = result
            .metrics
            .get(def.name)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        fields.push(format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            def.name,
            json_number(*value),
            def.unit
        ));
    }
    Ok(format!(
        "{{{extra}\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        result.correct,
        result.attempted.max(1),
        result.failed,
        fields.join(",")
    ))
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest_json() -> String {
    let dir = "crates/bench/src/bin/bench";
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"{dir}/Cargo.toml\", \"--\"],\n"
    ));
    out.push_str(&format!("  \"paths\": [\"{dir}\"],\n"));
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better,
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// Values per (workload, metric) read from a `bench full --out` file:
/// one result object per line, tagged with its workload.
pub fn read_results(text: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (at, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let json = Json::parse(line).map_err(|e| format!("line {}: {e}", at + 1))?;
        let Some(Json::Str(workload)) = json.get("workload") else {
            return Err(format!("line {}: no \"workload\"", at + 1));
        };
        let Some(Json::Obj(metrics)) = json.get("metrics") else {
            return Err(format!("line {}: no \"metrics\"", at + 1));
        };
        for (name, entry) in metrics {
            if let Some(&Json::Num(v)) = entry.get("value") {
                out.entry((workload.clone(), name.clone())).or_default().push(v);
            }
        }
    }
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The parent's own run-to-run spread is wider than the bound, so
    /// the comparison cannot tell a change from noise.
    Unresolved,
}

/// The no-regression rule for one (workload, metric): the change's
/// median may not be worse than the parent's by more than `bound` of
/// the parent's median. With four or more parent runs their
/// interquartile spread is checked first.
pub fn judge(def: &MetricDef, parent: &[f64], change: &[f64]) -> Verdict {
    let bound = def.bound.expect("only end-to-end metrics are judged");
    if parent.len() >= 4 && spread(parent).is_some_and(|s| s > bound) {
        return Verdict::Unresolved;
    }
    let (a, b) = (median(parent), median(change));
    let worse_by = if def.better == "lower" { b - a } else { a - b };
    if worse_by > bound * a.abs() {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// `bench compare`: one row per (workload, end-to-end metric) present
/// in both files. Returns the table and whether every row is `ok`.
pub fn compare(parent: &str, change: &str) -> Result<(String, bool), String> {
    let (a, b) = (read_results(parent)?, read_results(change)?);
    let mut table = format!(
        "{:<14} {:<18} {:>12} {:>12} {:>8} {:>7}  verdict\n",
        "workload", "metric", "parent", "change", "delta", "bound"
    );
    let mut all_ok = true;
    let mut rows = 0;
    for w in &WORKLOADS {
        for def in END_TO_END {
            let key = (w.name.to_string(), def.name.to_string());
            let (Some(pa), Some(ch)) = (a.get(&key), b.get(&key)) else { continue };
            let verdict = judge(def, pa, ch);
            all_ok &= verdict == Verdict::Ok;
            rows += 1;
            let (ma, mb) = (median(pa), median(ch));
            table.push_str(&format!(
                "{:<14} {:<18} {:>12.4} {:>12.4} {:>+7.1}% {:>6.1}%  {}\n",
                w.name,
                def.name,
                ma,
                mb,
                if ma != 0.0 { (mb - ma) / ma * 100.0 } else { 0.0 },
                def.bound.unwrap_or(0.0) * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            ));
        }
    }
    if rows == 0 {
        return Err("the two files share no (workload, end-to-end metric) pair".into());
    }
    Ok((table, all_ok))
}

/// Per-metric summary over repeated runs: median, quartiles, spread
/// and the worst pairwise gap as a share of the median.
pub fn repeat_summary(values: &BTreeMap<(String, String), Vec<f64>>) -> String {
    let mut out = format!(
        "{:<14} {:<30} {:>3} {:>12} {:>12} {:>12} {:>8} {:>8}\n",
        "workload", "metric", "n", "q1", "median", "q3", "spread", "max gap"
    );
    for ((workload, metric), v) in values {
        let Some([q1, q2, q3]) = quartiles(v) else { continue };
        let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let share = |x: f64| if q2 != 0.0 { x / q2.abs() * 100.0 } else { 0.0 };
        out.push_str(&format!(
            "{workload:<14} {metric:<30} {:>3} {q1:>12.4} {q2:>12.4} {q3:>12.4} {:>7.2}% {:>7.2}%\n",
            v.len(),
            share(q3 - q1),
            share(hi - lo)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str =
        include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json"));

    fn names(json: &Json, key: &str) -> Vec<String> {
        let Some(Json::Arr(items)) = json.get(key) else { panic!("{key} missing") };
        items
            .iter()
            .map(|i| match i.get("name") {
                Some(Json::Str(s)) => s.clone(),
                _ => panic!("{key} entry without a name"),
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_match_what_the_binary_prints() {
        let json = Json::parse(MANIFEST).expect("BENCHMARK.json parses");
        let want = |defs: &[MetricDef]| defs.iter().map(|d| d.name.to_string()).collect::<Vec<_>>();
        assert_eq!(names(&json, "end_to_end"), want(END_TO_END));
        assert_eq!(names(&json, "per_layer"), want(PER_LAYER));
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names(&json, "workloads"), workloads);
        assert_eq!(json.get("run_seconds").and_then(Json::as_u64), Some(RUN_SECONDS));
        // The committed file is exactly what `bench manifest` prints.
        assert_eq!(MANIFEST, manifest_json());
    }

    #[test]
    fn manifest_stays_inside_the_contract_limits() {
        let mut all: Vec<&str> = Vec::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(def.name.len() <= 64 && def.unit.len() <= 16, "{}", def.name);
            assert!(def.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(def.better, "lower" | "higher"));
            assert!(def.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
            all.push(def.name);
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'),
                "{}",
                w.name
            );
            all.push(w.name);
        }
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "a name is used twice");
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        let widest = END_TO_END.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(END_TO_END[0].bound, Some(widest), "setup_s takes the widest bound");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(manifest_json().len() < 64 * 1024);
    }

    #[test]
    fn result_line_prints_exactly_the_asked_metrics() {
        let mut metrics = Metrics::new();
        metrics.insert("setup_s", 0.8127);
        metrics.insert("qps", 1234.5);
        metrics.insert("stray", 1.0);
        let result = RunResult { correct: true, attempted: 10, failed: 0, metrics };
        let line = result_line(&result, &END_TO_END[..2], "").unwrap();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\
             \"setup_s\":{\"value\":0.8127,\"unit\":\"s\"},\"qps\":{\"value\":1234.5,\"unit\":\"1/s\"}}}"
        );
        assert!(result_line(&result, END_TO_END, "").unwrap_err().contains("cpu_ms_per_query"));
        let tagged = result_line(&result, &END_TO_END[..1], "\"workload\":\"w\",").unwrap();
        let parsed = read_results(&tagged).unwrap();
        assert_eq!(parsed[&("w".to_string(), "setup_s".to_string())], vec![0.8127]);
    }

    #[test]
    fn judge_applies_bound_direction_and_spread() {
        let qps = &END_TO_END[1];
        assert_eq!((qps.name, qps.bound), ("qps", Some(0.25)));
        assert_eq!(judge(qps, &[1000.0], &[800.0]), Verdict::Ok);
        assert_eq!(judge(qps, &[1000.0], &[700.0]), Verdict::Worse);
        assert_eq!(judge(qps, &[1000.0], &[2000.0]), Verdict::Ok);
        let lat = &END_TO_END[3];
        assert_eq!(lat.better, "lower");
        assert_eq!(judge(lat, &[10.0], &[13.0]), Verdict::Worse);
        assert_eq!(judge(lat, &[10.0], &[12.0]), Verdict::Ok);
        assert_eq!(judge(lat, &[10.0], &[5.0]), Verdict::Ok);
        // A parent whose own runs scatter wider than the bound decides nothing.
        let noisy = [500.0, 800.0, 1000.0, 1200.0, 1600.0];
        assert_eq!(judge(qps, &noisy, &[600.0]), Verdict::Unresolved);
    }
}
