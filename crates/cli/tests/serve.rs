//! End-to-end `sierra serve` protocol tests against the real binary:
//! warm re-analysis must stream a byte-identical report (timings aside)
//! while the `done` counters prove the store was actually reused.

use sierra_core::Json;
use std::io::Write as _;
use std::process::{Command, Stdio};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../fixtures/fig2_inter_component.sierra"
);

/// Runs `sierra-cli serve --jobs 1` with the given extra flags, feeds it
/// `input`, and returns every output line parsed as JSON.
fn run_serve(extra_flags: &[&str], input: &str) -> Vec<Json> {
    run_serve_on("1", extra_flags, input)
}

/// [`run_serve`] on `jobs` workers.
fn run_serve_on(jobs: &str, extra_flags: &[&str], input: &str) -> Vec<Json> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sierra-cli"))
        .arg("serve")
        .args(["--jobs", jobs])
        .args(extra_flags)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve starts");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("request written");
    let output = child.wait_with_output().expect("serve exits");
    assert!(output.status.success(), "serve exits cleanly");
    String::from_utf8(output.stdout)
        .expect("utf-8 output")
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad output line {l:?}: {e}")))
        .collect()
}

fn analyze_line(id: usize) -> String {
    format!(
        "{{\"id\":{id},\"op\":\"analyze\",\"path\":{}}}",
        Json::Str(FIXTURE.to_owned()).render()
    )
}

fn event<'a>(events: &'a [Json], id: u64, kind: &str) -> &'a Json {
    events
        .iter()
        .find(|e| {
            e.get("id").and_then(Json::as_u64) == Some(id)
                && e.get("event").and_then(Json::as_str) == Some(kind)
        })
        .unwrap_or_else(|| panic!("no {kind} event for id {id}: {events:?}"))
}

/// The report payload with the run-dependent groups removed: wall clock
/// (`timings_ms`) and store-reuse telemetry (`link`) describe the run,
/// not the analysis result.
fn stable_report(e: &Json) -> String {
    let mut report = e.get("report").expect("report payload").clone();
    if let Json::Obj(members) = &mut report {
        members.retain(|(k, _)| k != "timings_ms" && k != "link");
    }
    report.render()
}

#[test]
fn serve_answers_two_requests_with_identical_reports_and_warm_reuse() {
    let input = format!(
        "{}\n{}\n{{\"op\":\"shutdown\"}}\n",
        analyze_line(1),
        analyze_line(2)
    );
    let events = run_serve(&[], &input);

    assert_eq!(
        stable_report(event(&events, 1, "report")),
        stable_report(event(&events, 2, "report")),
        "warm report must be byte-identical to the cold one"
    );

    let cold = event(&events, 1, "done");
    let warm = event(&events, 2, "done");
    assert_eq!(cold.get("summaries_reused").and_then(Json::as_u64), Some(0));
    let recomputed = cold
        .get("summaries_recomputed")
        .and_then(Json::as_u64)
        .expect("cold run fills the store");
    assert!(recomputed > 0);
    assert!(
        warm.get("summaries_reused").and_then(Json::as_u64) > Some(0),
        "second request must reuse summaries: {warm:?}"
    );
    assert_eq!(
        warm.get("summaries_recomputed").and_then(Json::as_u64),
        Some(0)
    );
    assert_eq!(
        warm.get("analysis_reused").and_then(Json::as_bool),
        Some(true)
    );
}

#[test]
fn two_workers_answer_every_request_before_shutdown_and_none_after() {
    let input = format!(
        "{}\n{}\n{}\n{{\"op\":\"shutdown\"}}\n{}\n",
        analyze_line(1),
        analyze_line(2),
        analyze_line(3),
        analyze_line(4)
    );
    let events = run_serve_on("2", &[], &input);
    for id in 1..=3 {
        event(&events, id, "done");
    }
    assert!(
        events
            .iter()
            .all(|e| e.get("id").and_then(Json::as_u64) != Some(4)),
        "a request after shutdown must get no event: {events:?}"
    );
}

#[test]
fn cache_dir_persists_analyses_across_server_restarts() {
    let dir = std::env::temp_dir().join(format!("sierra-serve-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let flags = ["--cache-dir", dir.to_str().expect("utf-8 temp path")];
    let input = format!("{}\n{{\"op\":\"shutdown\"}}\n", analyze_line(1));

    let first = run_serve(&flags, &input);
    let second = run_serve(&flags, &input);

    assert_eq!(
        event(&first, 1, "done")
            .get("analysis_reused")
            .and_then(Json::as_bool),
        Some(false)
    );
    assert_eq!(
        event(&second, 1, "done")
            .get("analysis_reused")
            .and_then(Json::as_bool),
        Some(true),
        "a fresh server process must reload the analysis blob"
    );
    let iterations = event(&second, 1, "report")
        .get("report")
        .and_then(|r| r.get("link"))
        .and_then(|l| l.get("pointer_iterations_run"))
        .and_then(Json::as_u64);
    assert_eq!(iterations, Some(0), "no solver work after a restart");
    // Reuse must not change the result.
    assert_eq!(
        stable_report(event(&first, 1, "report")),
        stable_report(event(&second, 1, "report"))
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The `stage` events of request `id`, as (name, ms) in stream order.
fn stages(events: &[Json], id: u64) -> Vec<(String, f64)> {
    events
        .iter()
        .filter(|e| {
            e.get("id").and_then(Json::as_u64) == Some(id)
                && e.get("event").and_then(Json::as_str) == Some("stage")
        })
        .map(|e| {
            let name = e.get("stage").and_then(Json::as_str).expect("stage name");
            let ms = match e.get("ms") {
                Some(Json::Num(ms)) => *ms,
                other => panic!("stage {name} has no ms: {other:?}"),
            };
            (name.to_owned(), ms)
        })
        .collect()
}

#[test]
fn serve_streams_one_timed_event_per_stage_that_ran() {
    let input = format!("{}\n{{\"op\":\"shutdown\"}}\n", analyze_line(1));
    // Every stage.
    let default = [
        "harness",
        "pointer",
        "shbg",
        "candidates",
        "prefilter",
        "refute",
        "histories",
        "triage",
    ];
    for (flags, expected) in [
        (&[][..], default.to_vec()),
        (
            &["--no-histories"][..],
            default
                .iter()
                .copied()
                .filter(|s| *s != "histories")
                .collect(),
        ),
    ] {
        let output = run_serve(flags, &input);
        let events = stages(&output, 1);
        let names: Vec<&str> = events.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, expected, "stage sequence under {flags:?}");
        assert!(
            events.iter().all(|(_, ms)| *ms > 0.0),
            "every stage is measured under {flags:?}: {events:?}"
        );
        // The report's timings are keyed by the same stage names, in the
        // same order, followed by the remainder and the total.
        let report = event(&output, 1, "report").get("report").expect("payload");
        let Some(Json::Obj(timings)) = report.get("timings_ms") else {
            panic!("no timings_ms object under {flags:?}: {report:?}");
        };
        let keys: Vec<&str> = timings.iter().map(|(k, _)| k.as_str()).collect();
        let mut listed = names.clone();
        listed.extend(["unattributed", "total"]);
        assert_eq!(keys, listed, "timings_ms keys under {flags:?}");
    }
}
