//! Bench regression gate over the wall-clock and memory numbers of a
//! fresh `BENCH_table4.json` (written by the `table4_efficiency` bench).
//! It exits nonzero on any of three checks:
//!
//! - the **corpus SLO**: p99 per-app latency and peak RSS of the
//!   `corpus_throughput` group may regress by at most 10% against the
//!   checked-in `BENCH_baseline.json`. Improvements always pass (the
//!   check is one-sided), and a key the baseline does not record is not
//!   checked. A key the baseline records but the current run lacks is a
//!   violation, so an unreadable `/proc` cannot pass as zero RSS.
//! - the **artifact-reuse payoff**: the median wall time of a warm
//!   process over a populated cache directory must be below the cold
//!   median of the same run (both from alternating rounds; no baseline
//!   involved).
//! - the **harness scaling**: the log-log slope of harness-generation
//!   time over 96–160 activities (`harness_scaling_exponent`) must not
//!   exceed 1.5 (`MAX_HARNESS_EXPONENT`). A per-activity fixpoint grows
//!   about as activities^2.5; one discovery graph per app is about
//!   linear. Like the artifact check, it needs no baseline and is
//!   skipped when the run does not record the key.
//!
//! `BENCH_GATE_SLO=0` disables all three on noisy or throttled hosts. The
//! work counters are not gated here: `tests/golden/counters.txt` pins
//! them exactly and asserts their invariants in `cargo test`.
//!
//! When an intentional change moves the SLO numbers, rerun
//! `cargo bench -p sierra-bench --bench table4_efficiency` and refresh
//! `crates/bench/BENCH_baseline.json` from it in the same commit.
//!
//! Usage: `bench_gate [current.json] [baseline.json]` (defaults to the
//! crate-relative paths used by CI).

use std::process::ExitCode;

/// Relative regression the one-sided SLO band allows.
const TOLERANCE: f64 = 0.10;

/// Latency-SLO keys from the `corpus_throughput` group, gated only when
/// the baseline records them.
const SLO_GATED: &[&str] = &["corpus_p99_latency_us", "corpus_peak_rss_kb"];

/// The largest harness-scaling exponent the gate accepts.
const MAX_HARNESS_EXPONENT: f64 = 1.5;

/// Extracts the numeric value of `"key": <number>` from `json`. No serde
/// in-tree, and the bench JSON is flat and machine-written, so a quoted
/// exact-key scan is sufficient and keeps the gate dependency-free.
fn number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)?;
    let rest = json[at + needle.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn run(current: &str, baseline: &str, slo_enabled: bool) -> Result<(), Vec<String>> {
    if !slo_enabled {
        return Ok(());
    }
    let mut violations = Vec::new();
    if let (Some(cold), Some(warm)) = (
        number(current, "artifact_cold_us"),
        number(current, "artifact_warm_process_us"),
    ) {
        if warm >= cold {
            violations.push(format!(
                "artifact_warm_process_us ({warm}) must be below artifact_cold_us \
                 ({cold}): the artifact cache stopped paying for itself"
            ));
        }
    }
    if let Some(exponent) = number(current, "harness_scaling_exponent") {
        if exponent > MAX_HARNESS_EXPONENT {
            violations.push(format!(
                "harness_scaling_exponent ({exponent:.2}) exceeds {MAX_HARNESS_EXPONENT}: \
                 harness generation grows superlinearly in activities"
            ));
        }
    }
    for key in SLO_GATED {
        match (number(baseline, key), number(current, key)) {
            (Some(b), Some(c)) => {
                if c > b * (1.0 + TOLERANCE) {
                    violations.push(format!(
                        "{key}: {c} regresses more than {:.0}% over baseline {b}",
                        TOLERANCE * 100.0
                    ));
                }
            }
            (Some(_), None) => violations.push(format!("{key}: missing from current run")),
            (None, _) => {}
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let current_path = args
        .next()
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_table4.json").to_owned());
    let baseline_path = args
        .next()
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_baseline.json").to_owned());
    let read = |p: &str| match std::fs::read_to_string(p) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("bench_gate: cannot read {p}: {e}");
            None
        }
    };
    let (Some(current), Some(baseline)) = (read(&current_path), read(&baseline_path)) else {
        return ExitCode::FAILURE;
    };
    let slo_enabled = std::env::var("BENCH_GATE_SLO").map_or(true, |v| v != "0");
    match run(&current, &baseline, slo_enabled) {
        Ok(()) if !slo_enabled => {
            println!("bench_gate: BENCH_GATE_SLO=0, wall-clock checks skipped");
            ExitCode::SUCCESS
        }
        Ok(()) => {
            println!(
                "bench_gate: corpus SLO within {:.0}% of baseline, warm artifact run below cold, \
                 harness scaling exponent at most {MAX_HARNESS_EXPONENT}",
                TOLERANCE * 100.0
            );
            ExitCode::SUCCESS
        }
        Err(violations) => {
            eprintln!("bench_gate: {} violation(s):", violations.len());
            for v in &violations {
                eprintln!("  {v}");
            }
            eprintln!(
                "if intentional, refresh crates/bench/BENCH_baseline.json from a fresh bench run; \
                 set BENCH_GATE_SLO=0 to skip on noisy hosts"
            );
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
      "artifact_reuse": {
        "artifact_cold_us": 5000.0,
        "artifact_warm_process_us": 900.0
      },
      "corpus_throughput": {
        "corpus_p99_latency_us": 1000.0,
        "corpus_peak_rss_kb": 50000
      },
      "harness_scaling": {
        "harness_scaling_exponent": 1.08
      }
    }"#;

    #[test]
    fn quoted_key_extraction_is_exact() {
        let json = r#"{"worklist_iterations": 100, "worklist_iterations_on": 10}"#;
        assert_eq!(number(json, "worklist_iterations"), Some(100.0));
        assert_eq!(number(json, "worklist_iterations_on"), Some(10.0));
        assert_eq!(number(json, "nonexistent"), None);
    }

    #[test]
    fn identical_runs_pass() {
        assert!(run(BASE, BASE, true).is_ok());
    }

    #[test]
    fn slo_regression_beyond_band_fails() {
        let slow = BASE.replace(
            "\"corpus_p99_latency_us\": 1000.0",
            "\"corpus_p99_latency_us\": 1200.0",
        );
        let err = run(&slow, BASE, true).unwrap_err();
        assert!(
            err.iter().any(|v| v.starts_with("corpus_p99_latency_us:")),
            "{err:?}"
        );

        let fat = BASE.replace(
            "\"corpus_peak_rss_kb\": 50000",
            "\"corpus_peak_rss_kb\": 60000",
        );
        let err = run(&fat, BASE, true).unwrap_err();
        assert!(
            err.iter().any(|v| v.starts_with("corpus_peak_rss_kb:")),
            "{err:?}"
        );
    }

    #[test]
    fn slo_is_one_sided_and_tolerates_small_drift() {
        // Improvements pass no matter how large.
        let fast = BASE.replace(
            "\"corpus_p99_latency_us\": 1000.0",
            "\"corpus_p99_latency_us\": 100.0",
        );
        assert!(run(&fast, BASE, true).is_ok());
        // Regressions inside the band pass.
        let wobble = BASE.replace(
            "\"corpus_p99_latency_us\": 1000.0",
            "\"corpus_p99_latency_us\": 1090.0",
        );
        assert!(run(&wobble, BASE, true).is_ok());
    }

    #[test]
    fn slo_can_be_disabled() {
        // BENCH_GATE_SLO=0 waves through any regression.
        let slow = BASE.replace(
            "\"corpus_p99_latency_us\": 1000.0",
            "\"corpus_p99_latency_us\": 9000.0",
        );
        assert!(run(&slow, BASE, true).is_err());
        assert!(run(&slow, BASE, false).is_ok());
    }

    #[test]
    fn slo_skips_keys_the_baseline_does_not_record() {
        let slow = BASE.replace(
            "\"corpus_p99_latency_us\": 1000.0",
            "\"corpus_p99_latency_us\": 9000.0",
        );
        let bare = BASE.replace("\"corpus_p99_latency_us\": 1000.0,", "");
        assert!(run(&slow, &bare, true).is_ok());
    }

    #[test]
    fn unreadable_rss_is_missing_not_zero() {
        // The bench omits the key when `/proc` cannot be read; against a
        // baseline that records it, that is a violation, not a pass.
        let no_rss = BASE.replace(",\n        \"corpus_peak_rss_kb\": 50000", "");
        assert_eq!(number(&no_rss, "corpus_peak_rss_kb"), None);
        let err = run(&no_rss, BASE, true).unwrap_err();
        assert_eq!(
            err,
            vec!["corpus_peak_rss_kb: missing from current run".to_owned()]
        );
    }

    #[test]
    fn artifact_warm_below_cold_is_enforced() {
        let slow_warm = BASE.replace(
            "\"artifact_warm_process_us\": 900.0",
            "\"artifact_warm_process_us\": 5200.0",
        );
        let err = run(&slow_warm, &slow_warm, true).unwrap_err();
        assert!(
            err.iter()
                .any(|v| v.contains("must be below artifact_cold_us")),
            "{err:?}"
        );
        // A warm run that saves little still passes…
        let close = BASE.replace(
            "\"artifact_warm_process_us\": 900.0",
            "\"artifact_warm_process_us\": 4900.0",
        );
        assert!(run(&close, &close, true).is_ok());
        // …and a slow one is waved through with BENCH_GATE_SLO=0 (noisy
        // hosts).
        assert!(run(&slow_warm, &slow_warm, false).is_ok());
    }

    #[test]
    fn superlinear_harness_scaling_fails_without_a_baseline() {
        let quadratic = BASE.replace(
            "\"harness_scaling_exponent\": 1.08",
            "\"harness_scaling_exponent\": 2.52",
        );
        let err = run(&quadratic, BASE, true).unwrap_err();
        assert!(
            err.iter()
                .any(|v| v.starts_with("harness_scaling_exponent")),
            "{err:?}"
        );
        // The bound is inclusive…
        let at_bound = BASE.replace(
            "\"harness_scaling_exponent\": 1.08",
            "\"harness_scaling_exponent\": 1.5",
        );
        assert!(run(&at_bound, BASE, true).is_ok());
        // …a run that does not record the key is not checked…
        let absent = BASE.replace("\"harness_scaling_exponent\": 1.08", "");
        assert!(run(&absent, BASE, true).is_ok());
        // …and BENCH_GATE_SLO=0 waves it through.
        assert!(run(&quadratic, BASE, false).is_ok());
    }
}
