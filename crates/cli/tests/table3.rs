//! `sierra-cli table3` is the one command that runs the opt-in
//! comparison pass. Its stdout is pinned byte for byte by the workspace
//! golden `tests/golden/table3.txt`, the one golden that shows the 20
//! per-app without-AS counts; every other command prints none.

use std::path::Path;
use std::process::Command;

fn stdout(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_sierra-cli"))
        .args(args)
        .output()
        .expect("sierra-cli runs");
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

#[test]
fn table3_matches_its_golden_serially_and_in_parallel() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/table3.txt");
    let golden = std::fs::read_to_string(&golden).expect("golden readable");
    for jobs in ["1", "2"] {
        let table = stdout(&["table3", "--jobs", jobs]);
        assert_eq!(
            table, golden,
            "table3 --jobs {jobs} differs from the golden"
        );
    }
}

#[test]
fn analyze_prints_no_without_as_count() {
    let report = stdout(&["analyze", "NPR News"]);
    assert!(report.contains("racy pairs: "), "{report}");
    assert!(!report.contains("without action-sensitivity"), "{report}");
    let stages = report.lines().find(|l| l.starts_with("stages: "));
    let stages = stages.expect("a timed stages line");
    assert!(!stages.contains("compare"), "{stages}");
}
