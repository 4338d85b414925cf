//! Failpoint isolation is structural, not luck. The `kbtim-fault`
//! registry is process-global, and `cargo test` runs a binary's tests
//! on parallel threads, so a point armed by one test fires in another
//! unless every test of that binary holds a lease. Two rules make that
//! checkable by reading the source:
//!
//! 1. Only integration tests arm: outside a `tests/` directory no
//!    source under `src/` or `crates/` (except `crates/fault` itself)
//!    calls the registry's `arm` or takes its `exclusive` lease. A
//!    library's unit tests then never need a lease.
//! 2. In a `tests/*.rs` file that arms, every `#[test]` takes a lease:
//!    `exclusive()`, `shared()`, or a helper of that file returning a
//!    `Lease`.

use std::path::{Path, PathBuf};

// The needles are spelled in pieces so that this file, which arms
// nothing, does not read as a file that arms.
const ARM: &str = concat!("kbtim_fault", "::arm");
const EXCLUSIVE: &str = concat!("kbtim_fault", "::exclusive");
const SHARED: &str = concat!("kbtim_fault", "::shared");
const LEASE: &str = concat!("kbtim_fault", "::Lease");

/// Every `.rs` file under `dir`, build directories skipped.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if path.file_name().is_some_and(|name| name != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

fn in_tests_dir(path: &Path) -> bool {
    let relative = path.strip_prefix(root()).unwrap_or(path);
    relative.components().any(|c| c.as_os_str() == "tests")
}

/// The `#[test]` functions of `source` as `(name, body)`: a body runs
/// from its `fn` line to the closing brace at the `fn`'s own indent
/// (the layout `rustfmt` gives every function).
fn tests_of(source: &str) -> Vec<(String, String)> {
    let lines: Vec<&str> = source.lines().collect();
    let mut out = Vec::new();
    for (at, line) in lines.iter().enumerate() {
        if line.trim() != "#[test]" {
            continue;
        }
        let Some(fn_at) = (at + 1..lines.len()).find(|&i| lines[i].trim_start().starts_with("fn "))
        else {
            continue;
        };
        let indent = &lines[fn_at][..lines[fn_at].len() - lines[fn_at].trim_start().len()];
        let name = lines[fn_at].trim_start()["fn ".len()..]
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .next()
            .unwrap_or_default()
            .to_string();
        let close = format!("{indent}}}");
        let end = (fn_at..lines.len()).find(|&i| lines[i] == close).unwrap_or(lines.len() - 1);
        out.push((name, lines[fn_at..=end].join("\n")));
    }
    out
}

/// The names of `source`'s functions that return a lease.
fn lease_helpers(source: &str) -> Vec<String> {
    source
        .lines()
        .map(str::trim_start)
        .filter(|line| line.starts_with("fn ") && line.contains(&format!("-> {LEASE}")))
        .filter_map(|line| line["fn ".len()..].split('(').next().map(str::to_string))
        .collect()
}

/// Rule 2 for one file: the `#[test]`s of an arming `source` that take
/// no lease (empty when `source` arms nothing).
fn unleased_tests(source: &str) -> Vec<String> {
    if !source.contains(ARM) {
        return Vec::new();
    }
    let mut leases = vec![format!("{EXCLUSIVE}()"), format!("{SHARED}()")];
    leases.extend(lease_helpers(source).into_iter().map(|helper| format!("{helper}()")));
    tests_of(source)
        .into_iter()
        .filter(|(_, body)| !leases.iter().any(|lease| body.contains(lease.as_str())))
        .map(|(name, _)| name)
        .collect()
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn only_integration_tests_arm_failpoints() {
    let mut files = Vec::new();
    rust_files(&root().join("src"), &mut files);
    rust_files(&root().join("crates"), &mut files);
    let fault_crate = root().join("crates").join("fault");
    let offenders: Vec<String> = files
        .iter()
        .filter(|path| !path.starts_with(&fault_crate) && !in_tests_dir(path))
        .flat_map(|path| {
            let source = std::fs::read_to_string(path).unwrap();
            source
                .lines()
                .enumerate()
                .filter(|(_, line)| line.contains(ARM) || line.contains(EXCLUSIVE))
                .map(|(at, line)| format!("{}:{}: {}", path.display(), at + 1, line.trim()))
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(
        offenders.is_empty(),
        "failpoints armed outside tests/ (move the test into tests/faults.rs):\n{}",
        offenders.join("\n")
    );
}

#[test]
fn every_test_of_an_arming_binary_takes_a_lease() {
    let mut files = Vec::new();
    rust_files(&root().join("tests"), &mut files);
    rust_files(&root().join("crates"), &mut files);
    let mut arming = 0;
    let mut unleased = Vec::new();
    for path in files.iter().filter(|path| in_tests_dir(path)) {
        let source = std::fs::read_to_string(path).unwrap();
        arming += usize::from(source.contains(ARM));
        unleased.extend(
            unleased_tests(&source).into_iter().map(|name| format!("{}: {name}", path.display())),
        );
    }
    assert!(arming >= 5, "the scan found {arming} arming test files; is it reading tests/?");
    assert!(
        unleased.is_empty(),
        "tests without a lease in an arming binary:\n{}",
        unleased.join("\n")
    );
}

/// The scanner itself: a test without a lease is caught, one with a
/// lease (direct or through a helper) is not, and a file that never
/// arms needs none.
#[test]
fn the_scan_catches_a_missing_lease() {
    let arming = r#"
fn armed() -> FAULT::Lease {
    FAULT::exclusive()
}

#[test]
fn arms() {
    let _lease = armed();
    FAULT::arm("engine.decode", "err").unwrap();
}

#[test]
fn reads() {
    let _lease = FAULT::shared();
}

mod inner {
    #[test]
    fn forgets() {
        let x = { 1 };
    }
}
"#
    .replace("FAULT", "kbtim_fault");
    assert_eq!(unleased_tests(&arming), vec!["forgets".to_string()]);
    let idle = arming.replace(&format!("{ARM}("), "kbtim_fault::inject(");
    assert!(unleased_tests(&idle).is_empty(), "a file that never arms needs no lease");
}
