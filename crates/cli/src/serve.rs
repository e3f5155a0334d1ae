//! `sierra serve` — a long-lived analysis server over a warm summary
//! store.
//!
//! The server reads **line-delimited JSON** requests from stdin (or a
//! Unix socket with `--socket PATH`) and streams events back, one JSON
//! object per line. Requests run on the corpus engine's worker pool
//! ([`sierra_core::engine::run_each`]) with `--jobs` workers: a worker
//! reads and parses the next request line only when it is free, so no
//! request is queued ahead of a worker. A request whose analysis panics
//! gets an `error` event and the server keeps serving. Every session is
//! built from one session template ([`SessionBuilder`]), so all of them
//! share one [`sierra_core::SummaryStore`]: repeated analyses of the
//! same (or slightly edited) app reuse per-method summaries and — when
//! no solver-relevant statement changed — the whole points-to analysis.
//! With `--cache-dir` the store's points-to analyses persist to disk,
//! so a restarted server skips the solve; summaries stay in memory. Sessions also share the template's [`apir::SymbolArena`],
//! so the framework's class/method/field names are interned once per
//! server process rather than once per request.
//!
//! ## Requests
//!
//! ```json
//! {"id": 1, "op": "analyze", "path": "fixtures/fig1_intra_component.sierra"}
//! {"id": 2, "op": "analyze", "name": "MyApp", "source": "class ... { ... }"}
//! {"op": "shutdown"}
//! ```
//!
//! Requests read before `shutdown` are all answered; nothing after it
//! is read. A line that is not UTF-8 or is longer than 8 MiB gets an
//! `error` event without an id, and the server reads on from the next
//! line.
//!
//! ## Events
//!
//! Each analyze request produces one `stage` event per stage that ran,
//! in driver order (wall-clock milliseconds plus that stage's work
//! counters; a stage removed by `--no-histories` and the like sends
//! none), then a `report` event
//! carrying the full [`Report`] JSON, then a `done` event with the
//! race count and the report's `link` counters (store reuse):
//!
//! ```json
//! {"id":1,"event":"stage","stage":"pointer","ms":1.2,"counters":{...}}
//! {"id":1,"event":"report","report":{...}}
//! {"id":1,"event":"done","races":5,"summaries_reused":0,"summaries_recomputed":9,"analysis_reused":false,"pointer_iterations_run":26,"summaries_shared":0}
//! {"id":1,"event":"error","message":"..."}
//! ```
//!
//! Reuse never changes results: a warm `report` payload is
//! byte-identical to the cold one (the `timings_ms` group excepted).

use sierra_core::engine::{isolate, run_each};
use sierra_core::{
    json::{num, obj},
    Json, OpaquePolicy, Report, SessionBuilder, SessionError, Stage, StageMetrics, COUNTER_GROUPS,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::sync::Mutex;

/// Longest request line read, in bytes (newline excluded): far above
/// any real request, which is one app's source text. A longer line is
/// answered with an `error` event and skipped.
const MAX_REQUEST_BYTES: usize = 8 << 20;

/// The line-oriented response sink, shared by the workers. Each event
/// is rendered to one line and written under the lock, so lines from
/// concurrent requests interleave but never tear.
type Out = Mutex<dyn Write + Send>;

/// One analyze request, resolved to inline source.
struct Request {
    id: Option<u64>,
    name: String,
    text: String,
}

/// A parsed input line.
enum ParsedLine {
    Analyze(Request),
    Shutdown,
}

/// Runs the server until a `shutdown` request (or end of input). Each
/// request's session is `template` with the request's source as input.
pub fn run(template: &SessionBuilder, jobs: usize, socket: Option<String>) -> Result<(), String> {
    match socket {
        Some(path) => serve_socket(&path, template, jobs),
        None => {
            let reader = BufReader::new(std::io::stdin());
            serve_connection(reader, &Mutex::new(std::io::stdout()), template, jobs);
            Ok(())
        }
    }
}

/// Accepts connections on a Unix socket, serving each from the one
/// template until one sends `shutdown`. The socket file is replaced on
/// bind and removed on exit.
#[cfg(unix)]
fn serve_socket(path: &str, template: &SessionBuilder, jobs: usize) -> Result<(), String> {
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path)
        .map_err(|e| format!("cannot bind socket {path:?}: {e}"))?;
    eprintln!("sierra serve: listening on {path}");
    for conn in listener.incoming() {
        let stream = conn.map_err(|e| format!("accept failed: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("cannot clone socket stream: {e}"))?,
        );
        if serve_connection(reader, &Mutex::new(stream), template, jobs) {
            break;
        }
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

#[cfg(not(unix))]
fn serve_socket(_path: &str, _template: &SessionBuilder, _jobs: usize) -> Result<(), String> {
    Err("--socket requires a Unix platform; use stdin mode instead".to_owned())
}

/// Serves one connection on `jobs` workers (0 = all cores) and returns
/// whether `shutdown` was requested. Every request read before it is
/// answered before returning.
fn serve_connection(
    mut reader: impl BufRead + Send,
    out: &Out,
    template: &SessionBuilder,
    jobs: usize,
) -> bool {
    let mut shutdown = false;
    // Fused: once `shutdown`, end of input or an I/O error is seen,
    // workers asking for more read nothing further.
    let requests = std::iter::from_fn(|| loop {
        let line = match read_request_line(&mut reader).ok()?? {
            Ok(line) => line,
            Err(message) => return Some(Err((None, message))),
        };
        if line.trim().is_empty() {
            continue;
        }
        return match parse_request(&line) {
            Ok(ParsedLine::Shutdown) => {
                shutdown = true;
                None
            }
            Ok(ParsedLine::Analyze(req)) => Some(Ok(req)),
            Err(e) => Some(Err(e)),
        };
    })
    .fuse();
    run_each(jobs, requests, |request| {
        let (id, outcome) = match request {
            Ok(Request { id, name, text }) => {
                let outcome = isolate(&name, || analyze(id, &name, text, template, out));
                let outcome = match outcome {
                    Ok(analyzed) => analyzed.map_err(|e| e.to_string()),
                    Err(panic) => Err(panic.to_string()),
                };
                (id, outcome)
            }
            Err((id, message)) => (id, Err(message)),
        };
        if let Err(message) = outcome {
            emit_error(out, id, &message);
        }
    });
    shutdown
}

/// Reads the next request line without its line ending: `None` at end
/// of input, `Err` on an I/O error. A line that is not UTF-8 or is longer
/// than [`MAX_REQUEST_BYTES`] reads as `Some(Err(message))`, and the
/// reader is left at the start of the next line.
fn read_request_line(reader: &mut impl BufRead) -> std::io::Result<Option<Result<String, String>>> {
    let cap = MAX_REQUEST_BYTES as u64 + 1;
    let mut line = Vec::new();
    if reader.by_ref().take(cap).read_until(b'\n', &mut line)? == 0 {
        return Ok(None);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
    } else if line.len() > MAX_REQUEST_BYTES {
        // Discard the rest of the line, one capped chunk at a time.
        while line.last() != Some(&b'\n') {
            line.clear();
            if reader.by_ref().take(cap).read_until(b'\n', &mut line)? == 0 {
                break;
            }
        }
        let message = format!("request line exceeds {MAX_REQUEST_BYTES} bytes");
        return Ok(Some(Err(message)));
    }
    let text = String::from_utf8(line).map_err(|_| "request line is not valid UTF-8".to_owned());
    Ok(Some(text))
}

/// Parses one request line. Errors carry the request id when one was
/// readable, so the client can correlate the error event.
fn parse_request(line: &str) -> Result<ParsedLine, (Option<u64>, String)> {
    let value = Json::parse(line).map_err(|e| (None, format!("malformed request: {e}")))?;
    let id = value.get("id").and_then(Json::as_u64);
    let fail = |message: String| Err((id, message));
    match value.get("op").and_then(Json::as_str) {
        Some("shutdown") => Ok(ParsedLine::Shutdown),
        Some("analyze") => {
            if let Some(path) = value.get("path").and_then(Json::as_str) {
                let text = match std::fs::read_to_string(path) {
                    Ok(t) => t,
                    Err(e) => return fail(format!("cannot read {path:?}: {e}")),
                };
                let name = Path::new(path)
                    .file_stem()
                    .map_or_else(|| path.to_owned(), |s| s.to_string_lossy().into_owned());
                Ok(ParsedLine::Analyze(Request { id, name, text }))
            } else {
                match (
                    value.get("name").and_then(Json::as_str),
                    value.get("source").and_then(Json::as_str),
                ) {
                    (Some(name), Some(source)) => Ok(ParsedLine::Analyze(Request {
                        id,
                        name: name.to_owned(),
                        text: source.to_owned(),
                    })),
                    _ => fail("analyze needs \"path\" or \"name\"+\"source\"".to_owned()),
                }
            }
        }
        Some(op) => fail(format!("unknown op {op:?}")),
        None => fail("missing \"op\"".to_owned()),
    }
}

/// Drives one session, streaming a `stage` event after each stage that
/// runs (in driver order), then the `report` and `done` events.
fn analyze(
    id: Option<u64>,
    name: &str,
    text: String,
    template: &SessionBuilder,
    out: &Out,
) -> Result<(), SessionError> {
    let audited = template.config().opaque_policy != OpaquePolicy::Ignore;
    let session = template.clone().source(name, text).build()?;
    let result = session.finish_with(|stage, m| {
        let ms = m.timings.of(stage).as_secs_f64() * 1e3;
        let counters = stage_counters(stage, m, audited);
        let fields = vec![
            ("stage", Json::Str(stage.to_string())),
            ("ms", Json::Num(ms)),
            ("counters", counters),
        ];
        emit(out, id, "stage", fields);
    })?;
    let report = Report::from_result(&result).render_json();
    emit(out, id, "report", vec![("report", report)]);
    let link = sierra_core::CounterGroup::named("link").expect("the link group");
    let mut done = vec![("races", num(result.races.len()))];
    done.extend(link.read(&result.metrics).map(|(k, v)| (k, v.to_json())));
    emit(out, id, "done", done);
    Ok(())
}

fn emit_error(out: &Out, id: Option<u64>, message: &str) {
    let message = Json::Str(message.to_owned());
    emit(out, id, "error", vec![("message", message)]);
}

/// A `stage` event's counters: every listed counter `stage` records,
/// from the groups the report shows (`audited`: whether the run audits
/// call-graph soundness).
fn stage_counters(stage: Stage, m: &StageMetrics, audited: bool) -> Json {
    let groups = COUNTER_GROUPS
        .iter()
        .filter(|g| g.stage == stage && g.shown(audited));
    let counters = groups.flat_map(|g| g.read(m));
    Json::Obj(counters.map(|(k, v)| (k.to_owned(), v.to_json())).collect())
}

/// Writes one event — the request id, the event kind, then `fields` —
/// as a single line and flushes, so clients see the stream as it
/// happens.
fn emit(out: &Out, id: Option<u64>, kind: &str, fields: Vec<(&'static str, Json)>) {
    let id = id.map_or(Json::Null, |n| Json::Num(n as f64));
    let head = [("id", id), ("event", Json::Str(kind.to_owned()))];
    let mut line = obj(head.into_iter().chain(fields).collect()).render();
    line.push('\n');
    let mut w = out.lock().unwrap_or_else(|e| e.into_inner());
    let _ = w.write_all(line.as_bytes());
    let _ = w.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use apir::SymbolArena;
    use sierra_core::{MemoryStore, SierraConfig, SummaryStore};
    use std::io::Cursor;
    use std::sync::Arc;

    const FIG1: &str = include_str!("../../../fixtures/fig1_intra_component.sierra");

    /// The template `sierra serve` builds: one store and one arena, and
    /// `shared` as the framework-summary layer when given.
    fn template(
        store: Arc<dyn SummaryStore>,
        shared: Option<Arc<dyn SummaryStore>>,
    ) -> SessionBuilder {
        let template = SessionBuilder::new(SierraConfig::default())
            .store(store)
            .arena(Arc::new(SymbolArena::new()));
        match shared {
            Some(shared) => template.shared_store(shared),
            None => template,
        }
    }

    fn drive(input: &[u8], store: Arc<dyn SummaryStore>) -> (bool, Vec<Json>) {
        drive_shared(input, store, None)
    }

    fn drive_shared(
        input: &[u8],
        store: Arc<dyn SummaryStore>,
        shared: Option<Arc<dyn SummaryStore>>,
    ) -> (bool, Vec<Json>) {
        drive_template(input, &template(store, shared))
    }

    fn drive_template(input: &[u8], template: &SessionBuilder) -> (bool, Vec<Json>) {
        let out = Mutex::new(Vec::new());
        let input = Cursor::new(input);
        let shutdown = serve_connection(input, &out, template, 1);
        let bytes = out.into_inner().expect("output lock");
        let text = String::from_utf8(bytes).expect("utf-8 output");
        let events = text
            .lines()
            .map(|l| Json::parse(l).expect("every output line is JSON"))
            .collect();
        (shutdown, events)
    }

    fn analyze_request(id: u64) -> String {
        obj(vec![
            ("id", num(id as usize)),
            ("op", Json::Str("analyze".to_owned())),
            ("name", Json::Str("Fig1".to_owned())),
            ("source", Json::Str(FIG1.to_owned())),
        ])
        .render()
    }

    fn events_for<'a>(events: &'a [Json], id: u64, kind: &str) -> Vec<&'a Json> {
        events
            .iter()
            .filter(|e| {
                e.get("id").and_then(Json::as_u64) == Some(id)
                    && e.get("event").and_then(Json::as_str) == Some(kind)
            })
            .collect()
    }

    #[test]
    fn two_requests_stream_identical_reports_and_reuse_summaries() {
        let input = format!(
            "{}\n{}\n{}\n",
            analyze_request(1),
            analyze_request(2),
            r#"{"op":"shutdown"}"#
        );
        let (shutdown, events) = drive(input.as_bytes(), Arc::new(MemoryStore::new()));
        assert!(shutdown, "shutdown request ends the connection");

        // Both requests stream the default stage sequence: every stage
        // but the opt-in comparison pass.
        for id in [1, 2] {
            let stages: Vec<&str> = events_for(&events, id, "stage")
                .iter()
                .map(|e| e.get("stage").and_then(Json::as_str).expect("stage name"))
                .collect();
            assert_eq!(
                stages,
                [
                    "harness",
                    "pointer",
                    "shbg",
                    "candidates",
                    "prefilter",
                    "refute",
                    "histories",
                    "triage"
                ],
                "request {id}"
            );
        }

        // The reports are identical up to the run-dependent groups (wall
        // clock and reuse telemetry): strip those and compare the
        // rendered JSON byte for byte.
        let strip = |e: &Json| {
            let mut report = e.get("report").expect("report payload").clone();
            if let Json::Obj(members) = &mut report {
                members.retain(|(k, _)| k != "timings_ms" && k != "link");
            }
            report.render()
        };
        let r1 = events_for(&events, 1, "report");
        let r2 = events_for(&events, 2, "report");
        assert_eq!(r1.len(), 1);
        assert_eq!(r2.len(), 1);
        assert_eq!(strip(r1[0]), strip(r2[0]), "warm report must match cold");

        // The first request is cold, the second fully warm.
        let done1 = events_for(&events, 1, "done")[0];
        let done2 = events_for(&events, 2, "done")[0];
        assert_eq!(
            done1.get("summaries_reused").and_then(Json::as_u64),
            Some(0)
        );
        let recomputed = done1
            .get("summaries_recomputed")
            .and_then(Json::as_u64)
            .expect("cold run recomputes");
        assert!(recomputed > 0);
        assert_eq!(
            done2.get("summaries_reused").and_then(Json::as_u64),
            Some(recomputed)
        );
        assert_eq!(
            done2.get("summaries_recomputed").and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(
            done2.get("analysis_reused").and_then(Json::as_bool),
            Some(true)
        );
    }

    #[test]
    fn shared_store_serves_framework_summaries_across_different_apps() {
        // Fig 1 and NotePad both reach `Adapter.notifyDataSetChanged`.
        let spec = corpus::twenty::TWENTY.iter().find(|s| s.name == "NotePad");
        let (notepad, _) = corpus::twenty::build_app(*spec.expect("NotePad is in the corpus"));
        let second_request = obj(vec![
            ("id", num(2)),
            ("op", Json::Str("analyze".to_owned())),
            ("name", Json::Str("NotePad".to_owned())),
            (
                "source",
                Json::Str(android_model::asm::render_app(&notepad)),
            ),
        ])
        .render();
        let input = format!(
            "{}\n{}\n{}\n",
            analyze_request(1),
            second_request,
            r#"{"op":"shutdown"}"#
        );

        // One backing store doubling as the shared layer, as `--shared-store`
        // wires it. The apps are different, so per-app summary keys are
        // disjoint — only the framework layer can carry hits across them.
        let store: Arc<dyn SummaryStore> = Arc::new(MemoryStore::new());
        let (_, events) = drive_shared(
            input.as_bytes(),
            Arc::clone(&store),
            Some(Arc::clone(&store)),
        );
        let done2 = events_for(&events, 2, "done")[0];
        let shared_hits = done2
            .get("summaries_shared")
            .and_then(Json::as_u64)
            .expect("counter present");
        assert!(shared_hits >= 1, "framework summaries must cross apps");

        // Sharing changes work done, never results: the same request
        // without any sharing reports identically (modulo run-dependent
        // groups).
        let (_, baseline) = drive(
            format!("{second_request}\n").as_bytes(),
            Arc::new(MemoryStore::new()) as Arc<dyn SummaryStore>,
        );
        let strip = |e: &Json| {
            let mut report = e.get("report").expect("report payload").clone();
            if let Json::Obj(members) = &mut report {
                members.retain(|(k, _)| k != "timings_ms" && k != "link");
            }
            report.render()
        };
        assert_eq!(
            strip(events_for(&events, 2, "report")[0]),
            strip(events_for(&baseline, 2, "report")[0]),
        );
    }

    #[test]
    fn bad_requests_become_error_events() {
        let mut input = concat!(
            "this is not json\n",
            "{\"id\":7,\"op\":\"frobnicate\"}\n",
            "{\"id\":8,\"op\":\"analyze\"}\n",
            "{\"id\":9,\"op\":\"analyze\",\"path\":\"/nonexistent/x.sierra\"}\n",
            "{\"id\":10,\"op\":\"analyze\",\"name\":\"Bad\",\"source\":\"class {\"}\n",
        )
        .as_bytes()
        .to_vec();
        // A line that is not UTF-8, then one a byte over the cap.
        input.extend_from_slice(b"\xff\xfe bad\n");
        input.resize(input.len() + MAX_REQUEST_BYTES + 1, b' ');
        input.push(b'\n');
        // The server reads on past both.
        input.extend_from_slice(format!("{}\n", analyze_request(11)).as_bytes());
        let (shutdown, events) = drive(&input, Arc::new(MemoryStore::new()));
        assert!(!shutdown, "input ended without a shutdown request");
        let errors: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("event").and_then(Json::as_str) == Some("error"))
            .collect();
        assert_eq!(errors.len(), 7, "{events:?}");
        // Errors past parsing echo the request id.
        for id in [7u64, 8, 9, 10] {
            assert_eq!(events_for(&events, id, "error").len(), 1, "id {id}");
        }
        let message = |e: &Json| e.get("message").and_then(Json::as_str).map(str::to_owned);
        let invalid = message(events_for(&events, 10, "error")[0]).expect("message");
        assert!(invalid.contains("invalid app"), "{invalid}");
        // The unreadable lines, in input order, carry no id.
        let (utf8, oversized) = (errors[5], errors[6]);
        assert!(message(utf8).expect("message").contains("not valid UTF-8"));
        assert!(message(oversized).expect("message").contains("exceeds"));
        assert!([utf8, oversized]
            .iter()
            .all(|e| e.get("id") == Some(&Json::Null)));
        assert_eq!(events_for(&events, 11, "done").len(), 1, "{events:?}");
    }

    #[test]
    fn stage_events_carry_the_listed_counters_the_report_shows() {
        for (policy, audited) in [(OpaquePolicy::Ignore, false), (OpaquePolicy::Resolve, true)] {
            let config = SierraConfig::builder().opaque_policy(policy).build();
            let input = format!("{}\n", analyze_request(1));
            let (_, events) = drive_template(input.as_bytes(), &SessionBuilder::new(config));
            let pointer = events_for(&events, 1, "stage")
                .into_iter()
                .find(|e| e.get("stage").and_then(Json::as_str) == Some("pointer"))
                .expect("pointer event");
            let counters = pointer.get("counters").expect("stage counters");
            let report = events_for(&events, 1, "report")[0]
                .get("report")
                .expect("report payload");
            // A counter only the listing names reaches the event, with
            // the report's value.
            let bytes = counters.get("pts_set_bytes");
            assert!(bytes.is_some(), "{policy:?}");
            assert_eq!(
                bytes,
                report.get("pointer").and_then(|g| g.get("pts_set_bytes"))
            );
            // The soundness group shows in both or in neither.
            assert_eq!(counters.get("known_callbacks").is_some(), audited);
            assert_eq!(report.get("soundness").is_some(), audited);
        }
    }

    #[test]
    fn path_requests_resolve_the_app_name_from_the_file_stem() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../fixtures/fig1_intra_component.sierra"
        );
        let input = format!(
            "{}\n",
            obj(vec![
                ("id", num(1)),
                ("op", Json::Str("analyze".to_owned())),
                ("path", Json::Str(path.to_owned())),
            ])
            .render()
        );
        let (_, events) = drive(input.as_bytes(), Arc::new(MemoryStore::new()));
        let report = events_for(&events, 1, "report")[0]
            .get("report")
            .expect("report payload")
            .clone();
        assert_eq!(
            report.get("app").and_then(Json::as_str),
            Some("fig1_intra_component")
        );
    }
}
