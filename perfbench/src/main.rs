//! `perfbench`: the end-to-end and per-layer benchmark of the SIERRA
//! analyzer (see `NOTES.md` for the workloads, metrics and sizing).
//!
//! ```text
//! perfbench --workload <corpus20-cold|large-apps|serve-mixed> --seed <n>
//!           --seconds <s> --trace <0|1> --cli <sierra-cli> --run-dir <dir>
//! ```
//!
//! Untraced (`--trace 0`), a run prints the end-to-end metrics; traced
//! (`--trace 1`), it drives every op stage by stage inside spans and
//! prints the per-layer metrics, writing the spans as Chrome trace-event
//! JSON under `--run-dir`. Either way the last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod host;
mod inproc;
mod oracle;
mod serve;
mod stats;
mod trace;
mod workloads;

use apir::SymbolArena;
use oracle::Failure;
use serve::{Reply, Server};
use sierra_core::{Json, MemoryStore, SessionBuilder, SierraConfig, SierraResult, SummaryStore};
use stats::{median, quantile};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use trace::Recorder;
use workloads::{Item, Pass, Request, ServeInputs, Subject, Workload};

/// Command-line arguments.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    cli: Option<PathBuf>,
    run_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut cli = None;
    let mut run_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--cli" => cli = Some(PathBuf::from(value)),
            "--run-dir" => run_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        cli,
        run_dir: run_dir.ok_or("--run-dir is required")?,
    })
}

/// Setups per run: `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// serve-mixed reads the server's peak RSS after this many timed
/// requests, so the figure does not grow with throughput (the server
/// keeps every first-seen app's analysis in memory).
const RSS_AT_REQUEST: usize = 300;
/// serve-mixed's store: serve's in-memory store, doubling as the shared
/// framework-summary layer. The on-disk store is left out: file creation
/// on the disk that holds the checkout costs 0.3–0.9 ms and drifts by 2×
/// within minutes, which no run length averages away (see NOTES.md).
const STORE: &str = "in-memory (--shared-store, no --cache-dir)";
/// Stream items serve-mixed generates per second of run during setup;
/// more are generated between requests if a run outpaces it.
const PLANNED_PER_SECOND: f64 = 100.0;

/// Every checked op and the failures among them (the first few are
/// printed to standard error).
#[derive(Debug, Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn check(&mut self, what: &str, verdict: Result<(), Failure>) {
        self.attempted += 1;
        if let Err(failure) = verdict {
            if self.failed < 20 {
                eprintln!("perfbench: {what}: {failure}");
            }
            self.failed += 1;
        }
    }
}

/// What one run measured.
#[derive(Debug, Default)]
struct Run {
    /// Wall clock of each setup, in seconds.
    setup_s: Vec<f64>,
    /// Latency of each untraced timed op, in milliseconds.
    latencies: Vec<f64>,
    /// Timed ops, traced ones included.
    ops: usize,
    /// Wall clock of the timed phase, in seconds.
    elapsed_s: f64,
    /// CPU time of the analyzing process over the timed phase.
    cpu_ms: f64,
    /// Peak RSS of the analyzing process.
    peak_rss_mb: f64,
    /// Host and input facts printed before the metrics.
    facts: Vec<(&'static str, String)>,
    /// The spans of a traced run.
    trace: Option<Recorder>,
}

fn session_error(e: sierra_core::SessionError) -> Failure {
    Failure::Error(e.to_string())
}

/// One cold in-process analysis of `subject` with the default config:
/// the default `analyze` path untraced, or stage by stage inside spans
/// when `rec` is given. Returns the latency in milliseconds.
fn in_process_op(
    subject: &Subject,
    op: usize,
    rec: Option<&mut Recorder>,
    tally: &mut Tally,
) -> f64 {
    let app = subject.app.clone();
    let name = app.name.clone();
    let build = || {
        SessionBuilder::new(SierraConfig::default())
            .app(app)
            .build()
    };
    let (ms, out) = match rec {
        None => {
            let t = Instant::now();
            let out = build().and_then(inproc::analyze);
            (t.elapsed().as_secs_f64() * 1e3, out)
        }
        Some(rec) => {
            let root = rec.open("op", op, None);
            let (_, session) = rec.span("build", op, root, build);
            let out = session.and_then(|s| inproc::traced(rec, op, root, s));
            rec.close(root);
            (rec.spans()[root].ms(), out)
        }
    };
    let verdict = out.map_err(session_error).and_then(|(result, report)| {
        black_box(report.len());
        oracle::score_result(&subject.truth, &result)
    });
    tally.check(&name, verdict);
    ms
}

/// corpus20-cold and large-apps: every op analyzes one app cold in this
/// process; the timed phase runs whole passes over the seeded order.
fn run_in_process(args: &Args, tally: &mut Tally) -> Run {
    let pid = std::process::id();
    let mut run = Run::default();
    let mut pass: Option<Pass> = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let p = match args.workload {
            Workload::LargeApps => workloads::large_apps(args.seed),
            _ => workloads::corpus20(args.seed),
        };
        for &i in &p.order {
            in_process_op(&p.subjects[i], 0, None, tally);
        }
        run.setup_s.push(t.elapsed().as_secs_f64());
        pass = Some(p);
    }
    let pass = pass.expect("at least one setup");
    run.facts.push(("inputs", pass.fingerprint().hex()));
    run.facts.push(("apps", pass.subjects.len().to_string()));
    run.facts
        .push(("store", "private in-memory store per app".to_owned()));

    let mut rec = args.trace.then(Recorder::new);
    let steal0 = host::steal_ticks();
    let cpu0 = host::cpu_ms(pid).unwrap_or(0.0);
    let t0 = Instant::now();
    for round in 0.. {
        for (k, &i) in pass.order.iter().enumerate() {
            // Alternate traced and untraced ops, swapping parity every
            // pass so each app is traced as often as it runs untraced.
            let traced = (k + round) % 2 == 1;
            match rec.as_mut().filter(|_| traced) {
                Some(rec) => {
                    in_process_op(&pass.subjects[i], run.ops, Some(rec), tally);
                }
                None => {
                    let ms = in_process_op(&pass.subjects[i], run.ops, None, tally);
                    run.latencies.push(ms);
                }
            }
            run.ops += 1;
        }
        if t0.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    run.elapsed_s = t0.elapsed().as_secs_f64();
    run.cpu_ms = host::cpu_ms(pid).unwrap_or(0.0) - cpu0;
    run.facts
        .push(("host_steal", host::steal_pct(steal0, host::steal_ticks())));
    run.peak_rss_mb = host::peak_rss_mb(pid).unwrap_or(0.0);
    run.trace = rec;
    run
}

/// Checks a first report read back from serve: parsed, scored against
/// the ground truth, and reduced to its stable form for later repeats.
fn check_first(request: &Request, reply: Reply, tally: &mut Tally) -> Option<String> {
    let verdict = match reply {
        Reply::Error(e) => Err(Failure::Error(e)),
        Reply::Report(text) => Json::parse(&text)
            .map_err(Failure::Malformed)
            .and_then(|report| oracle::score_report(&request.truth, &report))
            .and_then(|()| {
                oracle::stable_text(&text)
                    .ok_or_else(|| Failure::Malformed("no link or timings group".to_owned()))
            }),
    };
    let stable = verdict.as_ref().ok().cloned();
    tally.check(&request.name, verdict.map(drop));
    stable
}

/// Checks a repeat read back from serve against the app's first report.
fn check_repeat(request: &Request, first: Option<&str>, reply: Reply, tally: &mut Tally) {
    let verdict = match reply {
        Reply::Error(e) => Err(Failure::Error(e)),
        Reply::Report(text) => match (first, oracle::stable_text(&text)) {
            (Some(first), Some(repeat)) => oracle::same_report(first, &repeat),
            _ => Err(Failure::ReportChanged),
        },
    };
    tally.check(&request.name, verdict);
}

/// serve-mixed, untraced: the real `sierra-cli serve` process over its
/// in-memory store. Setup primes the store with the 20 corpus apps and
/// warms the server up with three first-seen apps.
fn run_serve(args: &Args, tally: &mut Tally) -> Result<Run, String> {
    let cli = args.cli.as_deref().ok_or("serve-mixed needs --cli")?;
    let io = |e: std::io::Error| format!("serve: {e}");
    let planned = (args.seconds * PLANNED_PER_SECOND) as usize;
    let mut run = Run::default();
    let mut ready: Option<(Server, ServeInputs, Vec<Option<String>>)> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((server, ..)) = ready.take() {
            server.shutdown().map_err(io)?;
        }
        let t = Instant::now();
        let inputs = ServeInputs::generate(args.seed, planned);
        let mut server = Server::spawn(cli).map_err(io)?;
        let mut firsts = Vec::with_capacity(inputs.primed.len());
        for (id, request) in inputs.primed.iter().enumerate() {
            let reply = server
                .analyze(id as u64, &request.line(id as u64))
                .map_err(io)?;
            firsts.push(check_first(request, reply, tally));
        }
        for (id, request) in inputs.warmup.iter().enumerate() {
            let id = (inputs.primed.len() + id) as u64;
            let reply = server.analyze(id, &request.line(id)).map_err(io)?;
            check_first(request, reply, tally);
        }
        run.setup_s.push(t.elapsed().as_secs_f64());
        ready = Some((server, inputs, firsts));
    }
    let (mut server, mut inputs, firsts) = ready.expect("at least one setup");
    let pid = server.pid();
    run.facts.push(("store", STORE.to_owned()));

    let mut replies = Vec::new();
    let mut rss = None;
    let steal0 = host::steal_ticks();
    let cpu0 = host::cpu_ms(pid).unwrap_or(0.0);
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < args.seconds {
        if run.ops == inputs.stream.len() {
            inputs.extend();
        }
        let item = inputs.stream[run.ops];
        let id = 100 + run.ops as u64;
        let line = inputs.request(item).line(id);
        let t = Instant::now();
        let reply = server.analyze(id, &line).map_err(io)?;
        run.latencies.push(t.elapsed().as_secs_f64() * 1e3);
        replies.push((item, reply));
        run.ops += 1;
        if run.ops == RSS_AT_REQUEST {
            rss = host::peak_rss_mb(pid);
            let threads = host::threads(pid).unwrap_or(0);
            run.facts.push(("server_threads", threads.to_string()));
        }
    }
    run.elapsed_s = t0.elapsed().as_secs_f64();
    run.cpu_ms = host::cpu_ms(pid).unwrap_or(0.0) - cpu0;
    run.facts
        .push(("host_steal", host::steal_pct(steal0, host::steal_ticks())));
    if rss.is_none() {
        eprintln!(
            "perfbench: warning: only {} requests; peak RSS read at the end",
            run.ops
        );
    }
    run.peak_rss_mb = rss.or_else(|| host::peak_rss_mb(pid)).unwrap_or(0.0);
    server.shutdown().map_err(io)?;

    for (item, reply) in replies {
        let request = inputs.request(item);
        match item {
            Item::Repeat(i) => check_repeat(request, firsts[i].as_deref(), reply, tally),
            Item::First(_) => {
                check_first(request, reply, tally);
            }
        }
    }
    inputs.stream.truncate(run.ops);
    run.facts.push(("inputs", inputs.fingerprint().hex()));
    run.facts.push(("requests", run.ops.to_string()));
    Ok(run)
}

/// The state an in-process replay of serve shares across requests, as
/// the server does: one in-memory store (also the shared framework
/// layer) and one symbol arena.
struct Replayer {
    store: Arc<dyn SummaryStore>,
    arena: Arc<SymbolArena>,
}

impl Replayer {
    /// A fresh "process" with an empty store.
    fn new() -> Replayer {
        Replayer {
            store: Arc::new(MemoryStore::new()),
            arena: Arc::new(SymbolArena::new()),
        }
    }

    /// Serve's per-request calls, in process: `Json::parse` of the
    /// request line, `SessionBuilder::source` over the shared store and
    /// arena, the stage getters and the rendered report. Traced, each
    /// call runs in a span under a root `op` span.
    fn request(
        &self,
        line: &str,
        op: usize,
        rec: Option<&mut Recorder>,
    ) -> (f64, Result<(SierraResult, String), Failure>) {
        let parse = || -> Result<(String, String), Failure> {
            let request = Json::parse(line).map_err(Failure::Malformed)?;
            let field = |key| {
                request
                    .get(key)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| Failure::Malformed(format!("request without {key}")))
            };
            Ok((field("name")?, field("source")?))
        };
        let build = |(name, source): (String, String)| {
            SessionBuilder::new(SierraConfig::default())
                .source(name, source)
                .store(Arc::clone(&self.store))
                .shared_store(Arc::clone(&self.store))
                .arena(Arc::clone(&self.arena))
                .build()
                .map_err(session_error)
        };
        match rec {
            None => {
                let t = Instant::now();
                let out = parse()
                    .and_then(build)
                    .and_then(|s| inproc::serve_sequence(s).map_err(session_error));
                (t.elapsed().as_secs_f64() * 1e3, out)
            }
            Some(rec) => {
                let root = rec.open("op", op, None);
                let (id, request) = rec.span("protocol", op, root, parse);
                let bytes = request.as_ref().map_or(0, |(_, source)| source.len());
                rec.counters(id, vec![("source_bytes", bytes as f64)]);
                let out = request.and_then(|request| {
                    let (_, session) = rec.span("build", op, root, || build(request));
                    inproc::traced(rec, op, root, session?).map_err(session_error)
                });
                rec.close(root);
                (rec.spans()[root].ms(), out)
            }
        }
    }
}

/// An in-process replay's outcome as serve would have answered it.
fn as_reply(out: Result<(SierraResult, String), Failure>) -> Reply {
    match out {
        Ok((_, report)) => Reply::Report(report),
        Err(failure) => Reply::Error(failure.to_string()),
    }
}

/// serve-mixed, traced: the same setup and request stream replayed in
/// this process, alternating untraced and traced requests.
fn replay_serve(args: &Args, tally: &mut Tally) -> Result<Run, String> {
    let planned = (args.seconds * PLANNED_PER_SECOND) as usize;
    let mut run = Run::default();
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        drop(ready.take());
        let t = Instant::now();
        let inputs = ServeInputs::generate(args.seed, planned);
        let replayer = Replayer::new();
        let firsts: Vec<Option<String>> = inputs
            .primed
            .iter()
            .enumerate()
            .map(|(id, request)| {
                let (_, out) = replayer.request(&request.line(id as u64), 0, None);
                check_first(request, as_reply(out), tally)
            })
            .collect();
        for (id, request) in inputs.warmup.iter().enumerate() {
            let (_, out) = replayer.request(&request.line(id as u64), 0, None);
            check_first(request, as_reply(out), tally);
        }
        run.setup_s.push(t.elapsed().as_secs_f64());
        ready = Some((replayer, inputs, firsts));
    }
    let (replayer, mut inputs, firsts) = ready.expect("at least one setup");
    run.facts.push(("store", STORE.to_owned()));

    let mut rec = Recorder::new();
    let steal0 = host::steal_ticks();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < args.seconds {
        if run.ops == inputs.stream.len() {
            inputs.extend();
        }
        let item = inputs.stream[run.ops];
        let request = inputs.request(item);
        let line = request.line(100 + run.ops as u64);
        let traced = run.ops % 2 == 1;
        let (ms, out) = replayer.request(&line, run.ops, traced.then_some(&mut rec));
        if !traced {
            run.latencies.push(ms);
        }
        match item {
            Item::Repeat(i) => check_repeat(request, firsts[i].as_deref(), as_reply(out), tally),
            Item::First(_) => {
                check_first(request, as_reply(out), tally);
            }
        }
        run.ops += 1;
    }
    run.elapsed_s = t0.elapsed().as_secs_f64();
    run.facts
        .push(("host_steal", host::steal_pct(steal0, host::steal_ticks())));
    inputs.stream.truncate(run.ops);
    run.facts.push(("inputs", inputs.fingerprint().hex()));
    run.facts.push(("requests", run.ops.to_string()));
    run.trace = Some(rec);
    Ok(run)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(run: &Run, workload: Workload) -> Vec<Metric> {
    let ops = run.ops.max(1) as f64;
    vec![
        metric("latency_p50_ms", median(&run.latencies), "ms"),
        metric(
            "latency_tail_ms",
            quantile(&run.latencies, workload.tail_quantile()),
            "ms",
        ),
        metric("throughput_apps_per_s", ops / run.elapsed_s, "1/s"),
        metric("cpu_ms_per_app", run.cpu_ms / ops, "ms"),
        metric("peak_rss_mb", run.peak_rss_mb, "MiB"),
        metric("setup_s", median(&run.setup_s), "s"),
    ]
}

/// The layers in pipeline order: span name, suffix of its self-time
/// metric, whether that metric's tail is reported, and the counters
/// reported as means per op (`<span>.<counter>`).
type LayerRow = (&'static str, &'static str, bool, &'static [&'static str]);

const LAYERS: [LayerRow; 13] = [
    ("protocol", "parse_ms", true, &[]),
    ("build", "ms", true, &[]),
    ("harness", "ms", true, &["actions"]),
    (
        "pointer",
        "ms",
        true,
        &["iterations", "propagations", "cg_edges"],
    ),
    ("shbg", "ms", true, &["rule_applications", "closure_sccs"]),
    ("candidates", "ms", false, &["pairs"]),
    ("prefilter", "ms", false, &[]),
    ("refute", "ms", false, &["paths"]),
    ("histories", "ms", false, &["pairs_checked"]),
    ("triage", "ms", false, &["dataflow_iterations"]),
    ("compare", "ms", true, &["pairs"]),
    ("render", "ms", true, &[]),
    ("unattributed", "ms", true, &[]),
];

/// `numerator / denominator` over counter sums, with its base printed.
struct Ratio {
    name: &'static str,
    span: &'static str,
    numerator: &'static [&'static str],
    denominator: &'static [&'static str],
}

const RATIOS: [Ratio; 4] = [
    Ratio {
        name: "link.summary_hit_ratio",
        span: "pointer",
        numerator: &["summaries_reused", "summaries_shared"],
        denominator: &[
            "summaries_reused",
            "summaries_shared",
            "summaries_recomputed",
        ],
    },
    Ratio {
        name: "prefilter.prune_ratio",
        span: "prefilter",
        numerator: &["pruned"],
        denominator: &["candidates"],
    },
    Ratio {
        name: "refute.refute_ratio",
        span: "refute",
        numerator: &["refuted"],
        denominator: &["queries"],
    },
    Ratio {
        name: "refute.cache_hit_ratio",
        span: "refute",
        numerator: &["cache_hits"],
        denominator: &["queries"],
    },
];

/// The per-layer metrics of a traced run, printing the per-layer table.
fn per_layer(run: &Run, workload: Workload, trace_file: &Path) -> Vec<Metric> {
    let rec = run.trace.as_ref().expect("traced run");
    let (layers, op_ms) = trace::layers(rec.spans());
    let ops = op_ms.len().max(1) as f64;
    let total_ms: f64 = op_ms.iter().sum();
    let q = workload.tail_quantile();
    let mut metrics = Vec::new();

    println!(
        "per-layer self time over {} traced ops (tail = p{}), trace in {}",
        op_ms.len(),
        q * 100.0,
        trace_file.display()
    );
    println!(
        "  {:<13} {:>9} {:>9} {:>7}  counters (mean per op)",
        "layer", "p50 ms", "tail ms", "share"
    );
    for &(span, ms, with_tail, counters) in &LAYERS {
        let empty = trace::Layer::default();
        let layer = layers.get(span).unwrap_or(&empty);
        let (p50, tail) = (median(&layer.self_ms), quantile(&layer.self_ms, q));
        let share = layer.self_ms.iter().fold(0.0, |a, b| a + b) / total_ms.max(f64::MIN_POSITIVE);
        metrics.push(metric(&format!("{span}.{ms}"), p50, "ms"));
        if with_tail {
            metrics.push(metric(&format!("{span}.{ms}_tail"), tail, "ms"));
        }
        let mut shown = Vec::new();
        for counter in counters {
            let mean = layer.sum(counter) / ops;
            metrics.push(metric(&format!("{span}.{counter}"), mean, "count"));
            shown.push(format!("{counter}={mean:.1}"));
        }
        if layer.self_ms.is_empty() {
            shown.push("(layer not run)".to_owned());
        }
        println!(
            "  {span:<13} {p50:>9.3} {tail:>9.3} {:>6.1}%  {}",
            share * 100.0,
            shown.join(" ")
        );
    }

    let empty = trace::Layer::default();
    let pointer = layers.get("pointer").unwrap_or(&empty);
    let protocol = layers.get("protocol").unwrap_or(&empty);
    metrics.push(metric(
        "input.source_bytes",
        protocol.sum("source_bytes") / ops,
        "bytes",
    ));
    metrics.push(metric(
        "link.summaries_recomputed",
        pointer.sum("summaries_recomputed") / ops,
        "count",
    ));
    let reused = pointer.sum("analysis_reused");
    metrics.push(metric("link.analysis_hit_ratio", reused / ops, "ratio"));
    println!("  link.analysis_hit_ratio = {reused} / {ops} ops");
    for ratio in &RATIOS {
        let layer = layers.get(ratio.span).unwrap_or(&empty);
        let sum = |keys: &[&str]| keys.iter().map(|k| layer.sum(k)).sum::<f64>();
        let (num, den) = (sum(ratio.numerator), sum(ratio.denominator));
        let value = if den > 0.0 { num / den } else { 0.0 };
        metrics.push(metric(ratio.name, value, "ratio"));
        println!(
            "  {} = {num} / {den} ({})",
            ratio.name,
            ratio.denominator.join("+")
        );
    }

    let traced_p50 = median(&op_ms);
    let untraced_p50 = median(&run.latencies);
    metrics.push(metric("trace.op_p50_ms", traced_p50, "ms"));
    metrics.push(metric("trace.overhead_ms", traced_p50 - untraced_p50, "ms"));
    println!(
        "  op p50: traced {traced_p50:.3} ms, untraced {untraced_p50:.3} ms over {} ops; trace.overhead_ms = {:.3}",
        run.latencies.len(),
        traced_p50 - untraced_p50
    );
    metrics
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.run_dir.display());
        std::process::exit(1);
    }
    let mut tally = Tally::default();
    let run = match (args.workload, args.trace) {
        (Workload::ServeMixed, false) => run_serve(&args, &mut tally),
        (Workload::ServeMixed, true) => replay_serve(&args, &mut tally),
        _ => Ok(run_in_process(&args, &mut tally)),
    };
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("  nproc = {}", host::nproc());
    for (key, value) in &run.facts {
        println!("  {key} = {value}");
    }
    let failed = tally.failed;
    println!(
        "  failed_frac = {} ({failed} failed / {} attempted)",
        failed as f64 / tally.attempted.max(1) as f64,
        tally.attempted
    );

    let metrics = if args.trace {
        let file = args
            .run_dir
            .join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
        let rec = run.trace.as_ref().expect("traced run");
        if let Err(e) = std::fs::write(&file, rec.chrome_json()) {
            eprintln!("perfbench: cannot write {}: {e}", file.display());
            std::process::exit(1);
        }
        per_layer(&run, args.workload, &file)
    } else {
        println!(
            "  tail = p{} over {} samples",
            args.workload.tail_quantile() * 100.0,
            run.latencies.len()
        );
        end_to_end(&run, args.workload)
    };
    for m in &metrics {
        println!("  {} = {:.4} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        tally.attempted,
        body.join(", ")
    );
}
