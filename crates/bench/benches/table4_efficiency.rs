//! Table 4: efficiency — where the pipeline's time goes.
//!
//! The paper splits analysis time into CG+PA (dominant), HBG
//! construction (cheap) and refutation (second-largest). Every number
//! here comes from full analysis sessions: stage times are read from
//! `StageMetrics::timings` through its stage listing (the `timings_ms`
//! keys), so the bench times exactly the code `analyze` runs. The work
//! counters behind these runs are pinned exactly by
//! `tests/golden/counters.txt`; this bench records only time and memory.
//!
//! Every timing is a median, so one descheduled session cannot skew
//! it. Groups: per-stage medians of 30 sessions on the medium app (NPR
//! News); each ablation on and off (prefilter on the refutation stress
//! app, triage and histories on NPR News); in-memory summary reuse;
//! and, as medians of ten rounds that alternate the order, a cold
//! against a warm process over an on-disk artifact cache and the size
//! classes with and without a shared framework layer; and corpus
//! throughput, where every Table 2 app is analyzed ten times after one
//! warm-up pass and the 200 samples give p50, p99 and the median
//! absolute deviation, next to the process's peak RSS. Everything goes
//! to `BENCH_table4.json`, which CI uploads and `bench_gate` checks.
//!
//! ```sh
//! cargo bench --bench table4_efficiency
//! ```

use android_model::AndroidApp;
use corpus::stress;
use sierra_bench::group;
use sierra_core::json::{num, obj};
use sierra_core::{
    DiskStore, Json, MemoryStore, SessionBuilder, Sierra, SierraConfig, SierraResult, Stage,
    StageTimings, SummaryStore,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runs `run` once to warm up, then `iters` times, and returns each
/// timed run's stage timings.
fn sessions(iters: usize, mut run: impl FnMut() -> SierraResult) -> Vec<StageTimings> {
    std::hint::black_box(run());
    (0..iters).map(|_| run().metrics.timings).collect()
}

/// The median of one timing over `runs`, printed under `label`.
fn median(
    label: &str,
    runs: &[StageTimings],
    pick: impl Fn(&StageTimings) -> Duration,
) -> Duration {
    let mut sorted: Vec<Duration> = runs.iter().map(pick).collect();
    sorted.sort_unstable();
    let median = percentile(&sorted, 0.5);
    println!(
        "{label:<46} median {median:>12.3?}  ({} sessions)",
        runs.len()
    );
    median
}

/// One session of `app` under `cfg`.
fn analyze(cfg: SierraConfig, app: &AndroidApp) -> SierraResult {
    Sierra::with_config(cfg).analyze_app(app.clone())
}

/// One default-config session of `app` over `store`, with `shared` as
/// the framework-summary layer.
fn run_with_store(
    app: AndroidApp,
    store: Arc<dyn SummaryStore>,
    shared: Option<&Arc<dyn SummaryStore>>,
) -> SierraResult {
    let mut builder = SessionBuilder::new(SierraConfig::default())
        .app(app)
        .store(store);
    if let Some(layer) = shared {
        builder = builder.shared_store(Arc::clone(layer));
    }
    let session = builder.build().expect("valid app");
    session.finish().expect("pipeline runs")
}

/// The nearest-rank `p`-quantile of an ascending sample.
fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median absolute deviation of an ascending sample.
fn mad(sorted: &[Duration]) -> Duration {
    let median = percentile(sorted, 0.5);
    let mut deviations: Vec<Duration> = sorted.iter().map(|&d| d.abs_diff(median)).collect();
    deviations.sort_unstable();
    percentile(&deviations, 0.5)
}

/// Rounds of an [`alternating`] comparison.
const ROUNDS: usize = 10;

/// Times two runs over [`ROUNDS`] rounds that alternate which one goes
/// first, after one untimed warm-up of each, prints their medians and
/// interquartile ranges, and returns each run's ascending samples.
fn alternating(
    label: &str,
    (a_label, mut a): (&str, impl FnMut() -> Duration),
    (b_label, mut b): (&str, impl FnMut() -> Duration),
) -> (Vec<Duration>, Vec<Duration>) {
    a();
    b();
    let (mut xs, mut ys) = (Vec::with_capacity(ROUNDS), Vec::with_capacity(ROUNDS));
    for round in 0..ROUNDS {
        if round % 2 == 0 {
            xs.push(a());
            ys.push(b());
        } else {
            ys.push(b());
            xs.push(a());
        }
    }
    xs.sort_unstable();
    ys.sort_unstable();
    let summary = |sorted: &[Duration]| {
        format!(
            "median {:.3?} (IQR {:.3?}..{:.3?})",
            percentile(sorted, 0.5),
            percentile(sorted, 0.25),
            percentile(sorted, 0.75)
        )
    };
    println!(
        "{label}, {ROUNDS} alternating rounds: {} {a_label}, {} {b_label}",
        summary(&xs),
        summary(&ys)
    );
    (xs, ys)
}

fn main() {
    let (_, app, _) = sierra_bench::size_classes().remove(1); // NPR News
    let us = |d: Duration| Json::Num(d.as_secs_f64() * 1e6);
    // The default pipeline, as `analyze` runs it.
    let detector = SierraConfig::default();

    group("table4_efficiency");
    let runs = sessions(30, || analyze(detector, &app));
    // The stage listing: every stage that ran, `unattributed`, `total`.
    let listing = StageTimings::default().listing(detector.stages);
    let stage_medians = listing.enumerate().map(|(i, (name, ..))| {
        let pick = |t: &StageTimings| t.listing(detector.stages).nth(i).expect("listed").2;
        (
            name.to_owned(),
            us(median(&format!("stage_{name}"), &runs, pick)),
        )
    });
    let stage_medians = Json::Obj(stage_medians.collect());

    // The stress app's GUI handlers carry pairs the refuter can only
    // settle by exhausting its path budget, while the prefilter
    // discharges them statically.
    group("prefilter_ablation");
    let stress_app = stress::refutation_stress_app(13, 8);
    let no_prefilter = SierraConfig::builder().without(Stage::Prefilter).build();
    let runs = sessions(3, || analyze(detector, &stress_app));
    let t_refute_pf = median("refute_with_prefilter", &runs, |t| t.of(Stage::Refute));
    let runs = sessions(3, || analyze(no_prefilter, &stress_app));
    let t_refute_nopf = median("refute_without_prefilter", &runs, |t| t.of(Stage::Refute));

    group("triage_ablation");
    let no_triage = SierraConfig::builder().without(Stage::Triage).build();
    let runs = sessions(10, || analyze(detector, &app));
    let t_triage_on = median("pipeline_triage_on", &runs, |t| t.total);
    let runs = sessions(10, || analyze(no_triage, &app));
    let t_triage_off = median("pipeline_triage_off", &runs, |t| t.total);

    group("histories_ablation");
    let no_histories = SierraConfig::builder().without(Stage::Histories).build();
    let runs = sessions(10, || analyze(detector, &app));
    let t_histories_on = median("pipeline_histories_on", &runs, |t| t.total);
    let runs = sessions(10, || analyze(no_histories, &app));
    let t_histories_off = median("pipeline_histories_off", &runs, |t| t.total);

    // The edit pair's versions differ by one method body whose edit is a
    // points-to no-op: a warm run over a store primed with the base
    // version recomputes one summary and reuses the whole analysis.
    group("summary_reuse");
    let runs = sessions(20, || {
        let fresh: Arc<dyn SummaryStore> = Arc::new(MemoryStore::new());
        run_with_store(corpus::edit_pairs::base_app(), fresh, None)
    });
    let t_reuse_cold = median("analysis_cold_store", &runs, |t| t.total);
    let edit_store: Arc<dyn SummaryStore> = Arc::new(MemoryStore::new());
    run_with_store(
        corpus::edit_pairs::base_app(),
        Arc::clone(&edit_store),
        None,
    );
    let runs = sessions(20, || {
        run_with_store(
            corpus::edit_pairs::edited_app(),
            Arc::clone(&edit_store),
            None,
        )
    });
    let t_reuse_warm = median("analysis_warm_store", &runs, |t| t.total);

    // Every Table 2 app built over one shared symbol arena, analyzed ten
    // times after one warm-up pass: 200 per-app latencies. p99 and peak
    // RSS are the SLO numbers `bench_gate` holds within band.
    group("corpus_throughput");
    let arena = Arc::new(apir::SymbolArena::new());
    let corpus_apps: Vec<AndroidApp> = corpus::twenty::build_all_with(Some(arena))
        .into_iter()
        .map(|(_, app, _)| app)
        .collect();
    let passes = 10;
    let mut latencies = Vec::with_capacity(passes * corpus_apps.len());
    for pass in 0..=passes {
        for corpus_app in &corpus_apps {
            let total = analyze(detector, corpus_app).metrics.timings.total;
            if pass > 0 {
                latencies.push(total);
            }
        }
    }
    latencies.sort_unstable();
    let (p50, p99, spread) = (
        percentile(&latencies, 0.5),
        percentile(&latencies, 0.99),
        mad(&latencies),
    );
    let peak_rss_kb = peak_rss_kb();
    println!(
        "corpus latency over {} samples: p50 {p50:.3?}, p99 {p99:.3?}, MAD {spread:.3?}; \
         peak RSS {peak_rss_kb:?} KB",
        latencies.len()
    );
    let mut throughput = vec![
        ("corpus_apps", num(corpus_apps.len())),
        ("corpus_samples", num(latencies.len())),
        ("corpus_p50_latency_us", us(p50)),
        ("corpus_p99_latency_us", us(p99)),
        ("corpus_mad_latency_us", us(spread)),
    ];
    // Left out when `/proc` is unreadable, so the gate reports it
    // missing instead of passing a zero.
    if let Some(kb) = peak_rss_kb {
        throughput.push(("corpus_peak_rss_kb", num(kb as usize)));
    }

    // The medium app analyzed by a cold process (empty on-disk store)
    // and by a warm one. Every run opens a fresh `DiskStore`, so the
    // warm analysis must come back through the artifact blob, as a new
    // OS process would see it. Round 0 runs cold first, so the warm run
    // always finds a populated directory.
    group("artifact_reuse");
    let artifact_dir =
        std::env::temp_dir().join(format!("sierra-bench-artifacts-{}", std::process::id()));
    let on_disk = || {
        let start = Instant::now();
        let store = Arc::new(DiskStore::new(&artifact_dir).expect("bench cache dir"));
        std::hint::black_box(run_with_store(app.clone(), store, None));
        start.elapsed()
    };
    let cold_process = || {
        let _ = std::fs::remove_dir_all(&artifact_dir);
        on_disk()
    };
    let (cold, warm) = alternating("artifact", ("cold", cold_process), ("warm", on_disk));
    let _ = std::fs::remove_dir_all(&artifact_dir);
    let (t_artifact_cold, t_artifact_warm) = (percentile(&cold, 0.5), percentile(&warm, 0.5));

    // The three size classes with private stores, with and without a
    // shared framework layer. Every shared pass starts from a fresh
    // layer: its first app fills the layer and the later ones are served
    // from it.
    let size_class_pass = |layer: Option<&Arc<dyn SummaryStore>>| {
        let apps = sierra_bench::size_classes().into_iter();
        apps.map(|(_, corpus_app, _)| {
            let store: Arc<dyn SummaryStore> = Arc::new(MemoryStore::new());
            run_with_store(corpus_app, store, layer)
                .metrics
                .timings
                .total
        })
        .sum::<Duration>()
    };
    let (shared, unshared) = alternating(
        "size classes",
        ("over a fresh shared layer", || {
            let layer: Arc<dyn SummaryStore> = Arc::new(MemoryStore::new());
            size_class_pass(Some(&layer))
        }),
        ("without", || size_class_pass(None)),
    );
    let (t_corpus_shared, t_corpus_unshared) =
        (percentile(&shared, 0.5), percentile(&unshared, 0.5));

    let json = obj(vec![
        ("bench", Json::Str("table4_efficiency".to_owned())),
        ("app", Json::Str("NPR News".to_owned())),
        ("stage_median_us", stage_medians),
        (
            "prefilter",
            obj(vec![
                ("refute_with_prefilter_us", us(t_refute_pf)),
                ("refute_without_prefilter_us", us(t_refute_nopf)),
            ]),
        ),
        (
            "triage_ablation",
            obj(vec![
                ("pipeline_triage_on_us", us(t_triage_on)),
                ("pipeline_triage_off_us", us(t_triage_off)),
            ]),
        ),
        (
            "histories_ablation",
            obj(vec![
                ("pipeline_histories_on_us", us(t_histories_on)),
                ("pipeline_histories_off_us", us(t_histories_off)),
            ]),
        ),
        (
            "summary_reuse",
            obj(vec![
                ("analysis_cold_store_us", us(t_reuse_cold)),
                ("analysis_warm_store_us", us(t_reuse_warm)),
            ]),
        ),
        (
            "artifact_reuse",
            obj(vec![
                ("artifact_cold_us", us(t_artifact_cold)),
                ("artifact_warm_process_us", us(t_artifact_warm)),
                ("corpus_shared_us", us(t_corpus_shared)),
                ("corpus_unshared_us", us(t_corpus_unshared)),
            ]),
        ),
        ("corpus_throughput", obj(throughput)),
    ]);
    let mut rendered = json.render();
    rendered.push('\n');
    std::fs::write("BENCH_table4.json", &rendered).expect("write BENCH_table4.json");
    println!("wrote BENCH_table4.json");
}

/// The process's peak resident set size in KB, from `/proc/self/status`
/// (`VmHWM`); `None` off Linux or when the field is absent.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
