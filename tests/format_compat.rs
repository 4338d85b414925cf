//! On-disk compatibility with the commit before PR 23, which changed
//! how a block's checksum is computed (carry-less multiply) and how its
//! id stream is finished (segmented SIMD scan) but not one stored byte.
//!
//! `tests/fixtures/pr22_index/idx` was written by the parent's binary
//! from `tests/fixtures/pr22_index/data` (see the README beside them).

use kbtim::index::KbtimIndex;
use kbtim::storage::{block::all_modes, IoStats};
use kbtim::topics::Query;
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(part: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pr22_index").join(part)
}

/// The parent's index is this tree's index: a rebuild from the same
/// dataset and seed writes the same bytes (every stored CRC included),
/// and the parent's bytes open, validate and answer on every backend
/// exactly as the rebuilt ones do.
#[test]
fn a_parent_built_index_is_byte_identical_and_served() {
    let root = std::env::temp_dir().join(format!("kbtim-compat-{}", std::process::id()));
    let rebuilt = root.join("idx");
    let build = Command::new(env!("CARGO_BIN_EXE_kbtim"))
        .args(["build", "--data", fixture("data").to_str().unwrap()])
        .args(["--out", rebuilt.to_str().unwrap()])
        .args(["--cap", "400", "--threads", "2", "--seed", "23", "--variant", "irr"])
        .output()
        .unwrap();
    assert!(build.status.success(), "{}", String::from_utf8_lossy(&build.stderr));

    let names = |dir: &Path| {
        let mut names: Vec<_> =
            std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        names.sort();
        names
    };
    let committed = fixture("idx");
    assert_eq!(names(&rebuilt), names(&committed));
    for name in names(&committed) {
        assert!(
            std::fs::read(rebuilt.join(&name)).unwrap()
                == std::fs::read(committed.join(&name)).unwrap(),
            "{name:?} differs from the parent's bytes"
        );
    }

    let fresh = KbtimIndex::open(&rebuilt, IoStats::new()).unwrap();
    for mode in all_modes() {
        let parent = KbtimIndex::open_with(&committed, IoStats::new(), mode).unwrap();
        let report = parent.validate().unwrap_or_else(|e| panic!("{mode}: {e}"));
        assert_eq!((report.keywords_checked, report.rr_sets_checked), (3, 1200), "{mode}");
        for topics in [vec![0], vec![1, 2], vec![0, 1, 2]] {
            let query = Query::new(topics, 6);
            let want = fresh.query_rr(&query).unwrap();
            assert!(!want.seeds.is_empty());
            for got in [parent.query_rr(&query).unwrap(), parent.query_irr(&query).unwrap()] {
                assert_eq!(got.seeds, want.seeds, "{mode}");
                assert_eq!(got.marginal_gains, want.marginal_gains, "{mode}");
                assert_eq!(got.coverage, want.coverage, "{mode}");
            }
        }
    }
    std::fs::remove_dir_all(&root).ok();
}
