//! Integration tests for the `kbtim` command-line tool, exercising the
//! full gen → stats → build → validate → query loop through the binary.

use std::path::PathBuf;
use std::process::Command;

fn kbtim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_kbtim"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kbtim-cli-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_cli_workflow() {
    let root = temp_dir("workflow");
    let data = root.join("data");
    let index = root.join("index");

    // gen
    let out = kbtim()
        .args(["gen", "--family", "news", "--users", "400", "--topics", "6"])
        .args(["--seed", "5", "--out", data.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "gen failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(data.join("graph.txt").is_file());
    assert!(data.join("profiles.tsv").is_file());

    // stats
    let out = kbtim()
        .args(["stats", "--graph", data.join("graph.txt").to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("edges:"), "{stdout}");

    // build
    let out = kbtim()
        .args(["build", "--data", data.to_str().unwrap(), "--out", index.to_str().unwrap()])
        .args(["--cap", "800", "--threads", "2"])
        .output()
        .unwrap();
    assert!(out.status.success(), "build failed: {}", String::from_utf8_lossy(&out.stderr));

    // validate
    let out = kbtim().args(["validate", "--index", index.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "validate failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("ok:"));

    // query (both algorithms, same seeds by Theorem 3)
    let run_query = |algo: &str| -> String {
        let out = kbtim()
            .args(["query", "--index", index.to_str().unwrap()])
            .args(["--topics", "0,1", "--k", "8", "--algo", algo])
            .output()
            .unwrap();
        assert!(out.status.success(), "query failed: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        stdout.lines().next().unwrap_or_default().to_string()
    };
    let rr_seeds = run_query("rr");
    let irr_seeds = run_query("irr");
    assert!(rr_seeds.starts_with("seeds: ["), "{rr_seeds}");
    assert_eq!(rr_seeds, irr_seeds, "Theorem 3 via the CLI");

    // Every serving backend answers identically (and validates).
    for serving in ["file", "mmap"] {
        let out = kbtim()
            .args(["query", "--index", index.to_str().unwrap()])
            .args(["--topics", "0,1", "--k", "8", "--algo", "rr", "--serving", serving])
            .output()
            .unwrap();
        assert!(out.status.success(), "query --serving {serving} failed");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert_eq!(
            stdout.lines().next().unwrap_or_default(),
            rr_seeds,
            "serving {serving} must match the file backend"
        );
        let out = kbtim()
            .args(["validate", "--index", index.to_str().unwrap(), "--serving", serving])
            .output()
            .unwrap();
        assert!(out.status.success(), "validate --serving {serving} failed");
    }

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn serve_answers_line_protocol_requests() {
    use std::io::Write;

    let root = temp_dir("serve");
    let data = root.join("data");
    let index = root.join("index");
    assert!(kbtim()
        .args(["gen", "--family", "news", "--users", "300", "--topics", "4"])
        .args(["--seed", "9", "--out", data.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(kbtim()
        .args(["build", "--data", data.to_str().unwrap(), "--out", index.to_str().unwrap()])
        .args(["--cap", "500", "--threads", "2"])
        .status()
        .unwrap()
        .success());

    // The serial oracle through the one-shot CLI.
    let oracle = kbtim()
        .args(["query", "--index", index.to_str().unwrap()])
        .args(["--topics", "0,1", "--k", "5", "--algo", "rr"])
        .output()
        .unwrap();
    assert!(oracle.status.success());
    let oracle_seeds = String::from_utf8_lossy(&oracle.stdout)
        .lines()
        .next()
        .unwrap()
        .trim_start_matches("seeds: ")
        .to_string();

    // Same queries through `kbtim serve` on stdin (batching forced on
    // so the planner path is exercised through the wire — stdin serving
    // defaults it off, see docs/PROTOCOL.md).
    let serve = || {
        let mut serve = kbtim();
        serve
            .args(["serve", "--index", index.to_str().unwrap(), "--batch", "200"])
            .args(["--merge-cache", "8"])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped());
        serve
    };
    let requests = [
        r#"{"id":1,"topics":[0,1],"k":5,"algo":"rr"}"#,
        r#"{"id":2,"topics":[0,1],"k":5,"algo":"irr"}"#,
        r#"{"id":3,"topics":[0,1],"k":5,"algo":"memory"}"#,
        r#"{"id":4,"nonsense":true}"#,
        "this is not json",
        // A repeat of request 1: its keyword set's greedy run is now
        // resident in the prepared-query cache, and the answer must be
        // unchanged.
        r#"{"id":6,"topics":[0,1],"k":5,"algo":"rr"}"#,
    ];
    let mut child = serve().stdin(std::process::Stdio::piped()).spawn().unwrap();
    {
        let stdin = child.stdin.as_mut().unwrap();
        for request in requests {
            writeln!(stdin, "{request}").unwrap();
        }
    } // stdin drops → EOF → clean exit
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "serve failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("merge-cache 8 entries"),
        "banner must report the cache: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The banner says what the number bounds, and the drain line carries
    // the cache's books: the stream is serial, so request 1 missed,
    // decoded both keywords and published its run; requests 2 and 6
    // (same keyword set, same depth) are slices of that run, answered
    // by the admission chain itself.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("(8 keyword sets + 8 decoded keywords)"), "{stderr}");
    assert!(
        stderr.contains("panicked=0 answered_at_admission=2 set_hits=2 set_misses=1 set_bytes="),
        "{stderr}"
    );
    assert!(stderr.contains(" keywords_decoded=2 keywords_resident=2 keyword_bytes="), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 6, "one response per request line: {stdout}");

    // rr and irr both return the oracle's seeds (Theorem 3), tagged
    // with their request ids.
    let want = format!("\"seeds\":{}", oracle_seeds.replace(", ", ","));
    for (line, id) in lines[..2].iter().zip(1..) {
        assert!(line.contains(&format!("\"id\":{id}")), "{line}");
        assert!(line.contains(&want), "response {line} missing {want}");
        assert!(!line.contains("error"), "{line}");
    }
    // The cache-hit replay answers bit-identically to the cold run.
    assert!(lines[5].contains("\"id\":6"), "{}", lines[5]);
    assert!(lines[5].contains(&want), "cached response {} missing {want}", lines[5]);
    // The removed `memory` algo is an unknown algo like any other.
    assert!(lines[2].contains("\"id\":3"), "{}", lines[2]);
    assert!(lines[2].contains("\"code\":\"bad_request\""), "{}", lines[2]);
    assert!(lines[2].contains("unknown algo"), "{}", lines[2]);
    // Malformed requests get *structured* error responses (message +
    // machine-readable code, see docs/PROTOCOL.md §Errors), not dropped
    // connections — and a parseable id is echoed even on validation
    // failures, so pipelined clients can attribute the error line.
    assert!(lines[3].contains("\"error\""), "{}", lines[3]);
    assert!(lines[3].contains("\"id\":4"), "{}", lines[3]);
    assert!(lines[3].contains("\"code\":\"unknown_field\""), "{}", lines[3]);
    assert!(lines[4].contains("\"error\""), "{}", lines[4]);
    assert!(lines[4].contains("\"code\":\"parse_error\""), "{}", lines[4]);

    // `kbtim serve < requests`: stdin a regular file, which no
    // readiness loop can watch. The same lines answer the same, in
    // request order.
    let file = root.join("requests.jsonl");
    std::fs::write(&file, requests.map(|r| format!("{r}\n")).concat()).unwrap();
    let from_file = serve().stdin(std::fs::File::open(&file).unwrap()).output().unwrap();
    assert!(from_file.status.success(), "{}", String::from_utf8_lossy(&from_file.stderr));
    let timeless = |out: &[u8]| -> Vec<String> {
        let out = String::from_utf8_lossy(out);
        out.lines().map(|l| l[..l.find(",\"elapsed_us\"").unwrap_or(l.len())].to_string()).collect()
    };
    assert_eq!(timeless(&from_file.stdout), timeless(&out.stdout));

    std::fs::remove_dir_all(&root).ok();
}

/// A bare `--index DIR` whose path contains '=' must still parse as a
/// directory, not be misread as a `name=dir` route (only simple names
/// before the '=' count as route names — docs/PROTOCOL.md §Routing).
#[test]
fn serve_accepts_bare_index_paths_containing_equals() {
    use std::io::Write;

    let root = temp_dir("eqpath");
    let data = root.join("data");
    let index = root.join("run=3").join("index");
    assert!(kbtim()
        .args(["gen", "--family", "news", "--users", "300", "--topics", "4"])
        .args(["--seed", "9", "--out", data.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(kbtim()
        .args(["build", "--data", data.to_str().unwrap(), "--out", index.to_str().unwrap()])
        .args(["--cap", "500", "--threads", "2"])
        .status()
        .unwrap()
        .success());
    let mut child = kbtim()
        .args(["serve", "--index", index.to_str().unwrap()])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    writeln!(child.stdin.as_mut().unwrap(), r#"{{"id":1,"topics":[0,1],"k":4}}"#).unwrap();
    child.stdin.take();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "serve failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"seeds\":["), "{stdout}");
    assert!(!stdout.contains("\"error\""), "{stdout}");
    std::fs::remove_dir_all(&root).ok();
}

/// Multi-index routing through `kbtim serve --index name=dir` — the wire
/// behavior documented in docs/PROTOCOL.md §Routing: the first index is
/// the default route, `"index"` selects by name, unknown names and
/// unknown fields come back as structured errors.
#[test]
fn serve_routes_between_named_indexes() {
    use std::io::Write;

    let root = temp_dir("route");
    // Two genuinely different indexes (different graphs), so routing
    // mistakes change answers and the assertions below catch them.
    let mut oracle_seeds = Vec::new();
    for (name, seed) in [("alpha", 9), ("beta", 23)] {
        let data = root.join(format!("data-{name}"));
        let index = root.join(format!("index-{name}"));
        assert!(kbtim()
            .args(["gen", "--family", "news", "--users", "300", "--topics", "4"])
            .args(["--seed", &seed.to_string(), "--out", data.to_str().unwrap()])
            .status()
            .unwrap()
            .success());
        assert!(kbtim()
            .args(["build", "--data", data.to_str().unwrap(), "--out", index.to_str().unwrap()])
            .args(["--cap", "500", "--threads", "2"])
            .status()
            .unwrap()
            .success());
        let out = kbtim()
            .args(["query", "--index", index.to_str().unwrap()])
            .args(["--topics", "0,1", "--k", "5", "--algo", "rr"])
            .output()
            .unwrap();
        assert!(out.status.success());
        let seeds = String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap()
            .trim_start_matches("seeds: ")
            .replace(", ", ",");
        oracle_seeds.push(seeds);
    }
    assert_ne!(oracle_seeds[0], oracle_seeds[1], "distinct indexes must answer differently");

    let alpha = format!("alpha={}", root.join("index-alpha").display());
    let beta = format!("beta={}", root.join("index-beta").display());
    let mut child = kbtim()
        .args(["serve", "--index", &alpha, "--index", &beta])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    {
        let stdin = child.stdin.as_mut().unwrap();
        // 1: no "index" → default route (alpha, the first --index).
        writeln!(stdin, r#"{{"id":1,"topics":[0,1],"k":5,"algo":"rr"}}"#).unwrap();
        // 2/3: explicit routing to each named index.
        writeln!(stdin, r#"{{"id":2,"index":"alpha","topics":[0,1],"k":5,"algo":"rr"}}"#).unwrap();
        writeln!(stdin, r#"{{"id":3,"index":"beta","topics":[0,1],"k":5,"algo":"rr"}}"#).unwrap();
        // 4: unknown index name → structured unknown_index error.
        writeln!(stdin, r#"{{"id":4,"index":"gamma","topics":[0]}}"#).unwrap();
        // 5: the "indx" typo must fail loudly, never route to default.
        writeln!(stdin, r#"{{"id":5,"indx":"beta","topics":[0]}}"#).unwrap();
    }
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "serve failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 5, "one response per request line: {stdout}");

    let want_alpha = format!("\"seeds\":{}", oracle_seeds[0]);
    let want_beta = format!("\"seeds\":{}", oracle_seeds[1]);
    assert!(lines[0].contains(&want_alpha), "default route must hit alpha: {}", lines[0]);
    assert!(!lines[0].contains("\"index\""), "no routing field → no echo: {}", lines[0]);
    assert!(lines[1].contains(&want_alpha), "{}", lines[1]);
    assert!(lines[1].contains("\"index\":\"alpha\""), "{}", lines[1]);
    assert!(lines[2].contains(&want_beta), "{}", lines[2]);
    assert!(lines[2].contains("\"index\":\"beta\""), "{}", lines[2]);
    assert!(lines[3].contains("\"code\":\"unknown_index\""), "{}", lines[3]);
    assert!(lines[3].contains("alpha, beta"), "error must name the served indexes: {}", lines[3]);
    assert!(lines[4].contains("\"code\":\"unknown_field\""), "{}", lines[4]);
    assert!(lines[4].contains("\"id\":5"), "{}", lines[4]);

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn lt_model_build_via_cli() {
    let root = temp_dir("lt");
    let data = root.join("data");
    let index = root.join("index");
    assert!(kbtim()
        .args(["gen", "--family", "twitter", "--users", "300", "--topics", "4"])
        .args(["--out", data.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(kbtim()
        .args(["build", "--data", data.to_str().unwrap(), "--out", index.to_str().unwrap()])
        .args(["--model", "lt", "--cap", "500", "--threads", "2"])
        .status()
        .unwrap()
        .success());
    let out = kbtim().args(["validate", "--index", index.to_str().unwrap()]).output().unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("model LT"));
    std::fs::remove_dir_all(&root).ok();
}

/// `serve`'s banner and `validate` name the kernels the process chose:
/// the best the CPU has, capped by `KBTIM_SIMD` — `scalar` takes the CRC
/// to its table kernel too, `sse2` leaves carry-less multiply on.
#[test]
fn banner_and_validate_name_the_kernels() {
    let root = temp_dir("kernels");
    let data = root.join("data");
    let index = root.join("index");
    assert!(kbtim()
        .args(["gen", "--family", "news", "--users", "300", "--topics", "4"])
        .args(["--out", data.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(kbtim()
        .args(["build", "--data", data.to_str().unwrap(), "--out", index.to_str().unwrap()])
        .args(["--cap", "400", "--threads", "2"])
        .status()
        .unwrap()
        .success());

    let levels = kbtim::codec::simd::supported_levels();
    let best = levels.last().unwrap().name();
    #[cfg(target_arch = "x86_64")]
    let clmul = std::arch::is_x86_feature_detected!("pclmulqdq");
    #[cfg(not(target_arch = "x86_64"))]
    let clmul = false;
    let crc = if clmul { "clmul" } else { "table" };
    let sse2 = if levels.len() > 1 { "sse2" } else { "scalar" };
    for (cap, want) in [
        (None, format!("kernels: crc32={crc} codec={best}")),
        (Some("scalar"), "kernels: crc32=table codec=scalar".to_string()),
        (Some("sse2"), format!("kernels: crc32={crc} codec={sse2}")),
    ] {
        let capped = |command: &str| {
            let mut cmd = kbtim();
            cmd.args([command, "--index", index.to_str().unwrap()]);
            match cap {
                Some(level) => cmd.env("KBTIM_SIMD", level),
                None => cmd.env_remove("KBTIM_SIMD"),
            };
            cmd.stdin(std::process::Stdio::null()).output().unwrap()
        };
        let out = capped("validate");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success() && stdout.contains(&want), "{cap:?}: {stdout}");
        // Stdin at EOF: the banner, then a clean drain.
        let out = capped("serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success() && stderr.contains(&want), "{cap:?}: {stderr}");
    }
    std::fs::remove_dir_all(&root).ok();
}

/// A `delta.log` whose last record was cut mid-append: the start that
/// cuts it back says how many bytes it dropped — `validate --data` on
/// its `delta ok` line, `serve --data` in the banner — and a start that
/// finds the journal whole says nothing.
#[test]
fn a_torn_journal_tail_is_reported_by_the_start_that_cuts_it() {
    let root = temp_dir("torn-tail");
    let data = root.join("data");
    let index = root.join("index");
    assert!(kbtim()
        .args(["gen", "--family", "news", "--users", "300", "--topics", "4"])
        .args(["--seed", "9", "--out", data.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(kbtim()
        .args(["build", "--data", data.to_str().unwrap(), "--out", index.to_str().unwrap()])
        .args(["--cap", "400", "--threads", "2"])
        .status()
        .unwrap()
        .success());
    let log = index.join("delta.log");
    let whole = format!("weight\t9\t0\t{}\nedge\t3\t7\n", 0.75f32.to_bits());
    let attach = |command: &str| {
        kbtim()
            .args([command, "--index", index.to_str().unwrap(), "--data", data.to_str().unwrap()])
            .args(["--cap", "400"])
            .stdin(std::process::Stdio::null())
            .output()
            .unwrap()
    };

    std::fs::write(&log, format!("{whole}edge\t12")).unwrap();
    let out = attach("validate");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("delta ok: unflushed=2"), "{stdout}");
    assert!(stdout.contains("dropped a torn journal tail of 7 byte(s)"), "{stdout}");
    assert_eq!(std::fs::read_to_string(&log).unwrap(), whole);
    let out = attach("validate");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("delta ok: unflushed=2") && !stdout.contains("torn"), "{stdout}");

    // Stdin at EOF: the banner, then a drain that flushes the journal.
    std::fs::write(&log, format!("{whole}user")).unwrap();
    let out = attach("serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("; dropped a torn journal tail of 4 byte(s))"), "{stderr}");
    std::fs::remove_dir_all(&root).ok();
}

/// A 300-user dataset, its index (`--cap 500`) and a file of three
/// mutations — one of each `ingest` verb — under a fresh temp root:
/// `(root, data, index, mutations)`.
fn delta_fixture(name: &str) -> (PathBuf, PathBuf, PathBuf, PathBuf) {
    let root = temp_dir(name);
    let (data, index, mutations) = (root.join("data"), root.join("index"), root.join("muts"));
    assert!(kbtim()
        .args(["gen", "--family", "news", "--users", "300", "--topics", "4"])
        .args(["--seed", "9", "--out", data.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(kbtim()
        .args(["build", "--data", data.to_str().unwrap(), "--out", index.to_str().unwrap()])
        .args(["--cap", "500"])
        .status()
        .unwrap()
        .success());
    std::fs::write(
        &mutations,
        concat!(
            "{\"op\":\"ingest_user\"}\n",
            "{\"op\":\"ingest_edge\",\"from\":300,\"to\":1}\n",
            "{\"op\":\"set_topic_weight\",\"user\":5,\"topic\":1,\"weight\":0.5}\n",
        ),
    )
    .unwrap();
    (root, data, index, mutations)
}

/// `kbtim ingest` end to end: a flushed ingest writes the next segment
/// generation, `validate --data` accepts it, and a query on the root
/// answers as a fresh build of the compacted dataset; `--flush off`
/// leaves the mutations journaled for the next attach, which replays
/// and compacts them.
#[test]
fn ingest_compacts_to_the_next_generation() {
    let (root, data, index, mutations) = delta_fixture("ingest");
    let run = |args: &[&str]| {
        let out = kbtim().args(args).stdin(std::process::Stdio::null()).output().unwrap();
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let (index_s, data_s) = (index.to_str().unwrap(), data.to_str().unwrap());
    let ingest = ["ingest", "--index", index_s, "--data", data_s, "--cap", "500"];

    let out = run(&[&ingest[..], &["--file", mutations.to_str().unwrap()]].concat());
    assert!(out.contains("ingested 3 mutation(s)"), "{out}");
    assert!(out.contains("flushed segment generation 1"), "{out}");
    assert!(index.join("CURRENT").is_file() && index.join("gen-1").is_dir());

    let out = run(&["validate", "--index", index_s, "--data", data_s, "--cap", "500"]);
    assert!(out.contains("delta ok"), "{out}");

    // The compacted generation answers as a from-scratch build of the
    // dataset it carries.
    let (fresh, gen1) = (root.join("fresh"), index.join("gen-1"));
    let (fresh_s, gen1_s) = (fresh.to_str().unwrap(), gen1.to_str().unwrap());
    run(&["build", "--data", gen1_s, "--out", fresh_s, "--cap", "500"]);
    let answer = |dir: &str| {
        let out = run(&["query", "--index", dir, "--algo", "rr", "--topics", "0,1", "--k", "5"]);
        out.lines()
            .filter(|l| l.starts_with("seeds:") || l.starts_with("marginal coverage:"))
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    let got = answer(index_s);
    assert_eq!(got.len(), 2, "{got:?}");
    assert_eq!(got, answer(fresh_s));

    // Journaled only, then replayed by an ingest with nothing new.
    let out =
        run(&[&ingest[..], &["--file", mutations.to_str().unwrap(), "--flush", "off"]].concat());
    assert!(out.contains("unflushed=3"), "{out}");
    let out = run(&ingest);
    assert!(out.contains("ingested 0 mutation(s) (3 replayed from the journal)"), "{out}");
    assert!(out.contains("flushed segment generation 2"), "{out}");
    let journal = std::fs::metadata(index.join("delta.log")).map_or(0, |m| m.len());
    assert_eq!(journal, 0, "the replayed journal is compacted away");

    std::fs::remove_dir_all(&root).ok();
}

/// `serve --flush-watermark N` on stdin: once N mutations are
/// journaled the background job compacts them — a later query reads
/// the flush's generation — and the drain finds nothing left to
/// journal.
#[test]
fn serve_flushes_at_the_watermark() {
    use std::io::{BufRead, BufReader, Write};

    let (root, data, index, mutations) = delta_fixture("watermark");
    let mut child = kbtim()
        .args(["serve", "--index", index.to_str().unwrap(), "--data", data.to_str().unwrap()])
        .args(["--cap", "500", "--flush-watermark", "2"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut roundtrip = |line: &str| {
        writeln!(stdin, "{line}").unwrap();
        let mut response = String::new();
        assert!(stdout.read_line(&mut response).unwrap() > 0, "server died");
        response
    };
    let muts = std::fs::read_to_string(&mutations).unwrap();
    for line in muts.lines().take(2) {
        let ack = roundtrip(line);
        assert!(ack.contains("\"unflushed\""), "{ack}");
    }
    // Two applies, then the background flush: generation 3.
    let started = std::time::Instant::now();
    loop {
        let response = roundtrip(r#"{"id":9,"topics":[0,1],"k":4,"algo":"rr"}"#);
        assert!(response.contains("\"seeds\""), "{response}");
        if response.contains("\"generation\":3") {
            break;
        }
        assert!(started.elapsed() < std::time::Duration::from_secs(10), "no flush: {response}");
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("flush watermark 2"), "{stderr}");
    let drain = stderr.lines().find(|l| l.contains("drained (")).expect("a drain line");
    assert!(!drain.contains("unflushed="), "{drain}");
    assert!(index.join("gen-1").is_dir());

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn bad_arguments_fail_cleanly() {
    // Unknown command.
    let out = kbtim().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    // Missing required flag.
    let out = kbtim().args(["gen", "--family", "news"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--users"));
    // Bad enum value.
    let out = kbtim()
        .args(["gen", "--family", "myspace", "--users", "10", "--out", "/tmp/x"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // Query against a missing index.
    let out = kbtim().args(["query", "--index", "/nonexistent", "--topics", "0"]).output().unwrap();
    assert!(!out.status.success());
    // Bad serving backend, and the retired `resident` one.
    for serving in "floppy resident".split_whitespace() {
        let out = kbtim()
            .args(["query", "--index", "/nonexistent", "--topics", "0", "--serving", serving])
            .output()
            .unwrap();
        assert!(!out.status.success());
        assert!(String::from_utf8_lossy(&out.stderr).contains("--serving must be file|mmap"));
    }
    // A flag the command does not read — a typo, a removed option — is
    // refused before anything is opened: exit 2, the flag named.
    for (args, flag) in [
        (["serve", "--index", "/nonexistent", "--merge-cahce", "64"], "--merge-cahce"),
        (["serve", "--index", "/nonexistent", "--memory", "on"], "--memory"),
        (["serve", "--index", "/nonexistent", "--front-end", "epoll"], "--front-end"),
        (["query", "--index", "/nonexistent", "--bogus-flag", "7"], "--bogus-flag"),
    ] {
        let out = kbtim().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let want = format!("unknown flag {flag} for `{}`", args[0]);
        assert!(stderr.contains(&want) && stderr.contains("USAGE"), "{args:?}: {stderr}");
    }
    // The TCP front-end knobs are read only with `--listen`: refused
    // off it, before anything is opened.
    for flag in ["--max-conns", "--backlog", "--workers", "--outbox-cap"] {
        let out = kbtim().args(["serve", "--index", "/nonexistent", flag, "4"]).output().unwrap();
        assert!(!out.status.success(), "{flag}");
        let want = format!("{flag} requires --listen");
        assert!(String::from_utf8_lossy(&out.stderr).contains(&want), "{flag}");
    }
}

#[test]
fn help_prints_usage() {
    let out = kbtim().arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

/// Overload control, deadlines and the request-line cap over the real
/// wire (stdin mode): `--max-queue 0` sheds deterministically with
/// `overloaded`, `deadline_ms: 0` expires at admission, an oversized
/// line is shed with `bad_request` and the stream resyncs, and the
/// drain path reports final stats on stderr.
#[test]
fn serve_overload_deadline_and_line_cap() {
    use std::io::Write;

    let root = temp_dir("harden");
    let data = root.join("data");
    let index = root.join("index");
    assert!(kbtim()
        .args(["gen", "--family", "news", "--users", "300", "--topics", "4"])
        .args(["--seed", "9", "--out", data.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(kbtim()
        .args(["build", "--data", data.to_str().unwrap(), "--out", index.to_str().unwrap()])
        .args(["--cap", "500", "--threads", "2"])
        .status()
        .unwrap()
        .success());

    // A reject-everything admission queue: every parsed request sheds.
    let mut child = kbtim()
        .args(["serve", "--index", index.to_str().unwrap(), "--max-queue", "0"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    writeln!(child.stdin.as_mut().unwrap(), r#"{{"id":1,"topics":[0,1],"k":4}}"#).unwrap();
    child.stdin.take();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"code\":\"overloaded\""), "{stdout}");
    assert!(stdout.contains("\"id\":1"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("max-queue 0"), "banner must report the bound: {stderr}");
    assert!(stderr.contains("drained (served=0 shed=1"), "final stats: {stderr}");

    // Deadlines and the line cap, on a serving queue that admits.
    let mut child = kbtim()
        .args(["serve", "--index", index.to_str().unwrap()])
        .args(["--deadline-ms", "30000", "--max-line", "256"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    {
        let stdin = child.stdin.as_mut().unwrap();
        // 1: generous server default deadline → normal answer.
        writeln!(stdin, r#"{{"id":1,"topics":[0,1],"k":4}}"#).unwrap();
        // 2: the request's own deadline_ms overrides — zero is expired
        // at admission, deterministically.
        writeln!(stdin, r#"{{"id":2,"topics":[0,1],"k":4,"deadline_ms":0}}"#).unwrap();
        // 3: an oversized line (no valid JSON needed) is shed…
        writeln!(stdin, "{}", "x".repeat(4096)).unwrap();
        // 4: …and the stream resyncs: the next request still answers.
        writeln!(stdin, r#"{{"id":4,"topics":[0,1],"k":4}}"#).unwrap();
    }
    child.stdin.take();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "one response per request line: {stdout}");
    assert!(lines[0].contains("\"seeds\""), "{}", lines[0]);
    assert!(lines[1].contains("\"code\":\"deadline_exceeded\""), "{}", lines[1]);
    assert!(lines[1].contains("\"id\":2"), "{}", lines[1]);
    assert!(lines[2].contains("\"code\":\"bad_request\""), "{}", lines[2]);
    assert!(lines[2].contains("exceeds 256 bytes"), "{}", lines[2]);
    assert!(lines[3].contains("\"seeds\""), "resync after the giant line: {}", lines[3]);
    assert!(lines[3].contains("\"id\":4"), "{}", lines[3]);

    // Environment arming end-to-end: a production process that never
    // calls the fault API programmatically must still honor
    // KBTIM_FAILPOINTS (regression: the inject fast path used to skip
    // registry init, leaving env arming dead in exactly this binary).
    let mut child = kbtim()
        .args(["serve", "--index", index.to_str().unwrap()])
        .env("KBTIM_FAILPOINTS", "engine.greedy=1*panic")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    {
        let stdin = child.stdin.as_mut().unwrap();
        // `rr` pins the path with the engine.greedy stage (solo IRR's
        // NRA interleaves its greedy with loading — no separate stage).
        writeln!(stdin, r#"{{"id":1,"topics":[0,1],"k":4,"algo":"rr"}}"#).unwrap();
        writeln!(stdin, r#"{{"id":2,"topics":[0,1],"k":4,"algo":"rr"}}"#).unwrap();
    }
    child.stdin.take();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(lines[0].contains("\"code\":\"internal_error\""), "env-armed panic: {}", lines[0]);
    assert!(lines[1].contains("\"seeds\""), "contained, budget spent: {}", lines[1]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("drained (served=1 shed=0"), "{stderr}");
    // No cache: nothing is answered at admission.
    assert!(stderr.contains("panicked=1 answered_at_admission=0 "), "{stderr}");

    std::fs::remove_dir_all(&root).ok();
}

/// TCP serving with graceful drain: concurrent connections answer the
/// same bytes as stdin mode, stdin-EOF flips the shutdown latch, the
/// nonblocking accept loop stops taking new work, and the process
/// exits cleanly with final stats.
#[test]
fn serve_tcp_drains_gracefully_on_stdin_eof() {
    use std::io::{BufRead, BufReader, Read, Write};

    let root = temp_dir("tcp");
    let data = root.join("data");
    let index = root.join("index");
    assert!(kbtim()
        .args(["gen", "--family", "news", "--users", "300", "--topics", "4"])
        .args(["--seed", "9", "--out", data.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(kbtim()
        .args(["build", "--data", data.to_str().unwrap(), "--out", index.to_str().unwrap()])
        .args(["--cap", "500", "--threads", "2"])
        .status()
        .unwrap()
        .success());

    let mut child = kbtim()
        .args(["serve", "--index", index.to_str().unwrap(), "--listen", "127.0.0.1:0"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    // The ephemeral port is announced on stderr.
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        assert!(stderr.read_line(&mut line).unwrap() > 0, "server died before listening");
        if let Some(at) = line.find("listening on ") {
            break line[at + "listening on ".len()..].trim().to_string();
        }
    };

    // Two concurrent connections, a few requests each.
    let clients: Vec<_> = (0..2)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let stream = std::net::TcpStream::connect(&addr).unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                let mut answers = Vec::new();
                for id in 0..3 {
                    writeln!(writer, r#"{{"id":{id},"topics":[{c},1],"k":4}}"#).unwrap();
                    let mut response = String::new();
                    reader.read_line(&mut response).unwrap();
                    answers.push(response);
                }
                answers
            })
        })
        .collect();
    for client in clients {
        for response in client.join().unwrap() {
            assert!(response.contains("\"seeds\""), "{response}");
            assert!(!response.contains("\"error\""), "{response}");
        }
    }

    // stdin EOF → drain → clean exit with final stats.
    child.stdin.take();
    let status = child.wait().unwrap();
    assert!(status.success(), "drain must exit cleanly");
    let mut rest = String::new();
    stderr.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("drained (served=6"), "final stats after 6 requests: {rest}");
    assert!(rest.contains(" answered_at_admission=0 "), "no cache, every request queued: {rest}");

    std::fs::remove_dir_all(&root).ok();
}

/// The TCP front end over the real binary: it answers a pipelined
/// burst with ids echoed (responses matched as a set — the epoll loop
/// does not promise cross-id ordering), the banner names it, every
/// response carries it as a `front_end` field, and flag validation
/// fails cleanly.
#[test]
fn serve_front_end_selection_and_pipelining() {
    use std::io::{BufRead, BufReader, Read, Write};

    let root = temp_dir("frontend");
    let data = root.join("data");
    let index = root.join("index");
    assert!(kbtim()
        .args(["gen", "--family", "news", "--users", "300", "--topics", "4"])
        .args(["--seed", "9", "--out", data.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(kbtim()
        .args(["build", "--data", data.to_str().unwrap(), "--out", index.to_str().unwrap()])
        .args(["--cap", "500", "--threads", "2"])
        .status()
        .unwrap()
        .success());

    let fe = "epoll";
    let mut child = kbtim()
        .args(["serve", "--index", index.to_str().unwrap(), "--listen", "127.0.0.1:0"])
        .args(["--max-conns", "64"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut banner = String::new();
    let addr = loop {
        let mut line = String::new();
        assert!(stderr.read_line(&mut line).unwrap() > 0, "server died before listening");
        banner.push_str(&line);
        if let Some(at) = line.find("listening on ") {
            break line[at + "listening on ".len()..].trim().to_string();
        }
    };
    assert!(banner.contains(&format!("front-end {fe}")), "banner names the front end: {banner}");

    // One pipelined burst: every request written before any
    // response is read.
    let stream = std::net::TcpStream::connect(&addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let ids: Vec<u64> = (10..16).collect();
    for id in &ids {
        writeln!(writer, r#"{{"id":{id},"topics":[0,1],"k":4}}"#).unwrap();
    }
    let mut seen = Vec::new();
    for _ in &ids {
        let mut response = String::new();
        assert!(reader.read_line(&mut response).unwrap() > 0, "server closed early");
        assert!(response.contains("\"seeds\""), "{response}");
        assert!(
            response.contains(&format!("\"front_end\":\"{fe}\"")),
            "responses report the active front end: {response}"
        );
        let at = response.find("\"id\":").expect("id echoed") + "\"id\":".len();
        let digits: String = response[at..].chars().take_while(char::is_ascii_digit).collect();
        seen.push(digits.parse::<u64>().unwrap());
    }
    seen.sort_unstable();
    assert_eq!(seen, ids, "every pipelined request answered exactly once by id");

    drop(writer);
    drop(reader);
    child.stdin.take();
    let status = child.wait().unwrap();
    assert!(status.success(), "front end {fe} must drain cleanly");
    let mut rest = String::new();
    stderr.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("drained (served=6"), "front end {fe} final stats: {rest}");

    // A zero outbox cap would shed every request with even one
    // response byte unflushed — reject the typo like the neighbors.
    let out = kbtim()
        .args(["serve", "--index", index.to_str().unwrap()])
        .args(["--listen", "127.0.0.1:0", "--outbox-cap", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--outbox-cap must be positive"));

    std::fs::remove_dir_all(&root).ok();
}
