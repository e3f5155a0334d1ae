//! Experiment runners: one function per table of the paper.
//!
//! The corpus runners ([`run_twenty`], [`run_fdroid`]) fan their apps
//! across the [`sierra_core::engine`] worker pool; a `jobs` argument of
//! `0` uses every available core. Rows come back in corpus order
//! regardless of scheduling, and an app whose analysis panics becomes an
//! error row instead of killing the run.

use apir::SymbolArena;
use corpus::{fdroid, twenty, EvalCounts, GroundTruth, HarmEval};
use eventracer::EventRacerConfig;
use sierra_core::{
    run_jobs, EngineError, Report, SessionBuilder, Sierra, SierraConfig, SierraResult,
    StageTimings, SummaryStore,
};
use std::sync::Arc;
use std::time::Duration;

/// Everything measured for one app (one row of Tables 3 and 4).
#[derive(Debug, Clone, Default)]
pub struct AppRow {
    /// App name.
    pub name: String,
    /// Set when the app's analysis panicked; every other field is then
    /// zero and the row is excluded from medians.
    pub error: Option<String>,
    /// Number of generated harnesses.
    pub harnesses: usize,
    /// Number of actions (SHBG nodes).
    pub actions: usize,
    /// HB edges (ordered pairs in the closed SHBG).
    pub hb_edges: usize,
    /// Percentage of the theoretical maximum.
    pub ordered_pct: f64,
    /// Racy pairs without action sensitivity.
    pub racy_without_as: usize,
    /// Racy pairs with action sensitivity.
    pub racy_with_as: usize,
    /// Race reports after refutation.
    pub after_refutation: usize,
    /// Ground-truth evaluation of SIERRA's reports.
    pub sierra_eval: EvalCounts,
    /// Callback recall measured by the soundness audit, in percent
    /// (reachable harness-known callbacks / all harness-known ones).
    pub soundness_reach_pct: f64,
    /// Call sites the soundness audit left unresolved (all reasons).
    pub soundness_unres: usize,
    /// Unresolved reflective sites (`forName`/`newInstance`/`invoke`).
    pub soundness_refl: usize,
    /// Unresolved intent-dispatch sites (`setClass`/`startActivity`/
    /// `sendBroadcast`).
    pub soundness_intent: usize,
    /// Reports triaged crash-capable (null-deref + use-before-init).
    pub triage_crash: usize,
    /// Reports triaged value-inconsistency.
    pub triage_value: usize,
    /// Reports triaged likely-benign.
    pub triage_benign: usize,
    /// Ground-truth scoring of the crash-capable verdicts.
    pub harm_eval: HarmEval,
    /// Dataflow worklist iterations spent by the triage stage.
    pub triage_iters: usize,
    /// Pairs the message-history stage subjected to the product check.
    pub hist_checked: usize,
    /// Pairs the message-history stage discharged as unrealizable.
    pub hist_discharged: usize,
    /// Dead-callback CFG edges the history model exported to the refuter.
    pub hist_infeasible: usize,
    /// Ground-truth evaluation of EventRacer's reports.
    pub eventracer_eval: EvalCounts,
    /// Races EventRacer reported.
    pub eventracer_races: usize,
    /// Per-method summaries served from the configured store (zero
    /// when the run has no store).
    pub summaries_reused: usize,
    /// Per-method summaries recomputed this run.
    pub summaries_recomputed: usize,
    /// Framework summaries served from the corpus-shared layer.
    pub summaries_shared: usize,
    /// Whether the whole points-to `Analysis` was reused (in-memory
    /// hit or persisted artifact blob).
    pub analysis_reused: bool,
    /// Corrupt cache entries this app's session treated as misses.
    pub cache_corrupt_misses: usize,
    /// Pointer-analysis worklist iterations.
    pub pa_worklist_iters: usize,
    /// Constraint-graph SCCs collapsed online by the pointer solver.
    pub pa_collapsed_sccs: usize,
    /// Constraint-graph nodes folded away by cycle collapse.
    pub pa_collapsed_nodes: usize,
    /// Call-graph edges.
    pub cg_edges: usize,
    /// SHBG rule applications (all rules).
    pub shbg_rule_apps: usize,
    /// Refuter paths explored.
    pub refuter_paths: usize,
    /// Candidate pairs pruned by the prefilter (escape + guard + constprop).
    pub pruned_pairs: usize,
    /// Statically-infeasible branch edges found by constant propagation.
    pub infeasible_edges: usize,
    /// Per-stage wall-clock times.
    pub timings: StageTimings,
}

impl AppRow {
    /// A row for an app whose analysis died.
    pub fn failed(name: &str, message: &str) -> Self {
        Self {
            name: name.to_owned(),
            error: Some(message.to_owned()),
            ..Self::default()
        }
    }

    /// Every field of a row the unified [`Report`] carries — the Table
    /// 3/4 printers render these, so table numbers, `Display` output,
    /// and the serve protocol's JSON all come from one value. The
    /// ground-truth and EventRacer columns are not analysis output;
    /// [`run_app`] fills them afterwards.
    pub fn from_report(name: &str, report: &Report) -> Self {
        let m = &report.metrics;
        Self {
            name: name.to_owned(),
            error: None,
            harnesses: report.harness_count,
            actions: report.action_count,
            hb_edges: report.hb_edges,
            ordered_pct: report.hb_percent(),
            racy_without_as: report.racy_pairs_without_as,
            racy_with_as: report.racy_pairs_with_as,
            after_refutation: report.race_lines.len(),
            soundness_reach_pct: m.soundness.recall_pct(),
            soundness_unres: m.soundness.unresolved_sites,
            soundness_refl: m.soundness.reflective_sites,
            soundness_intent: m.soundness.intent_sites,
            triage_crash: m.triage.null_deref + m.triage.use_before_init,
            triage_value: m.triage.value_inconsistency,
            triage_benign: m.triage.likely_benign,
            triage_iters: m.triage.dataflow_iterations,
            hist_checked: m.histories.pairs_checked,
            hist_discharged: m.histories.discharged_total(),
            hist_infeasible: m.histories.infeasible_exported,
            summaries_reused: m.link.summaries_reused,
            summaries_recomputed: m.link.summaries_recomputed,
            summaries_shared: m.link.summaries_shared,
            analysis_reused: m.link.analysis_reused,
            cache_corrupt_misses: m.link.corrupt_misses,
            pa_worklist_iters: m.pointer.worklist_iterations,
            pa_collapsed_sccs: m.pointer.collapsed_sccs,
            pa_collapsed_nodes: m.pointer.collapsed_nodes,
            cg_edges: m.pointer.cg_edges,
            shbg_rule_apps: m.shbg.total_applications(),
            refuter_paths: m.refuter.paths,
            pruned_pairs: m.prefilter.pruned_total(),
            infeasible_edges: m.prefilter.infeasible_edges,
            timings: m.timings,
            ..Self::default()
        }
    }
}

/// Per-`(class, field)` harm verdicts of a SIERRA result: the flag is
/// whether *any* race on the field was triaged crash-capable. Empty when
/// the triage stage did not run.
pub fn sierra_harm_verdicts(result: &SierraResult) -> Vec<(String, String, bool)> {
    let p = &result.harness.app.program;
    let mut crash: std::collections::BTreeMap<(String, String), bool> =
        std::collections::BTreeMap::new();
    for r in &result.races {
        let Some(t) = &r.triage else { continue };
        let f = p.field(r.field);
        let key = (p.class_name(f.class).to_owned(), p.name(f.name).to_owned());
        *crash.entry(key).or_insert(false) |= t.harm.is_crash();
    }
    crash.into_iter().map(|((c, f), x)| (c, f, x)).collect()
}

/// Reported `(class, field)` groups of a SIERRA result.
pub fn sierra_groups(result: &SierraResult) -> Vec<(String, String)> {
    let p = &result.harness.app.program;
    let mut v: Vec<(String, String)> = result
        .races
        .iter()
        .map(|r| {
            let f = p.field(r.field);
            (p.class_name(f.class).to_owned(), p.name(f.name).to_owned())
        })
        .collect();
    v.sort();
    v.dedup();
    v
}

/// The persistence layer of a corpus run: the summary/artifact store
/// every app's session consults, plus (optionally) the corpus-wide
/// shared layer for framework-origin summaries. The two are usually
/// the same backing store — their key spaces are disjoint by
/// fingerprint — but a run may also share across per-app stores.
#[derive(Clone)]
pub struct CorpusCache {
    /// Per-app summary + analysis-artifact store.
    pub store: Arc<dyn SummaryStore>,
    /// Corpus-shared framework-summary layer, consulted before `store`
    /// for framework-origin methods.
    pub shared: Option<Arc<dyn SummaryStore>>,
}

impl CorpusCache {
    /// A cache over one store; `shared` additionally promotes
    /// framework summaries into the same store for corpus-wide reuse.
    pub fn new(store: Arc<dyn SummaryStore>, shared: bool) -> Self {
        let shared = shared.then(|| Arc::clone(&store));
        Self { store, shared }
    }
}

/// Runs the full pipeline on one app, routing the session through the
/// cache's stores when one is configured. Panics on an internal stage
/// failure, mirroring [`Sierra::analyze_app`].
pub fn analyze_app_cached(
    sierra_cfg: SierraConfig,
    app: android_model::AndroidApp,
    cache: Option<&CorpusCache>,
) -> SierraResult {
    let Some(cache) = cache else {
        return Sierra::with_config(sierra_cfg).analyze_app(app);
    };
    let mut builder = SessionBuilder::new(sierra_cfg)
        .app(app)
        .store(Arc::clone(&cache.store));
    if let Some(shared) = &cache.shared {
        builder = builder.shared_store(Arc::clone(shared));
    }
    builder
        .build()
        .and_then(|session| session.finish())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Runs SIERRA + EventRacer + ground-truth scoring on one app.
pub fn run_app(
    name: &str,
    app: android_model::AndroidApp,
    truth: &GroundTruth,
    sierra_cfg: SierraConfig,
    er_cfg: &EventRacerConfig,
) -> AppRow {
    run_app_cached(name, app, truth, sierra_cfg, er_cfg, None)
}

/// [`run_app`] with an optional persistence layer: sessions then reuse
/// per-method summaries and whole points-to artifacts from `cache`
/// instead of recomputing them. Reuse never changes the row's analysis
/// columns — only the cache counters and the time spent.
pub fn run_app_cached(
    name: &str,
    app: android_model::AndroidApp,
    truth: &GroundTruth,
    sierra_cfg: SierraConfig,
    er_cfg: &EventRacerConfig,
    cache: Option<&CorpusCache>,
) -> AppRow {
    let er_report = eventracer::detect(&app, er_cfg);
    let result = analyze_app_cached(sierra_cfg, app, cache);

    let s_groups = sierra_groups(&result);
    let sierra_eval = truth.evaluate(s_groups.iter().map(|(c, f)| (c.as_str(), f.as_str())));
    let e_groups = er_report.race_groups();
    let eventracer_eval = truth.evaluate(e_groups.iter().map(|(c, f)| (c.as_str(), f.as_str())));

    let harm_verdicts = sierra_harm_verdicts(&result);
    let harm_eval = truth.evaluate_harm(
        harm_verdicts
            .iter()
            .map(|(c, f, x)| (c.as_str(), f.as_str(), *x)),
    );

    let mut row = AppRow::from_report(name, &Report::from_result(&result));
    row.sierra_eval = sierra_eval;
    row.harm_eval = harm_eval;
    row.eventracer_eval = eventracer_eval;
    row.eventracer_races = er_report.races.len();
    row
}

fn row_or_error(outcome: Result<AppRow, EngineError>) -> AppRow {
    match outcome {
        Ok(row) => row,
        Err(e) => AppRow::failed(&e.item, &e.message),
    }
}

/// Runs the 20-app dataset (Tables 3 and 4) on `jobs` workers.
pub fn run_twenty(sierra_cfg: SierraConfig, er_cfg: &EventRacerConfig, jobs: usize) -> Vec<AppRow> {
    run_twenty_cached(sierra_cfg, er_cfg, jobs, None)
}

/// [`run_twenty`] against an optional persistence layer. Apps are built
/// on the caller's thread over one corpus-wide symbol arena, then
/// analyzed on `jobs` workers. Workers share the cache: a second pass
/// over the same store reuses every unchanged summary and points-to
/// artifact, and with a shared layer each framework-method summary is
/// computed once corpus-wide.
pub fn run_twenty_cached(
    sierra_cfg: SierraConfig,
    er_cfg: &EventRacerConfig,
    jobs: usize,
    cache: Option<&CorpusCache>,
) -> Vec<AppRow> {
    let items: Vec<(String, _)> = twenty::build_all_with(Some(Arc::new(SymbolArena::new())))
        .into_iter()
        .map(|(spec, app, truth)| (spec.name.to_owned(), (app, truth)))
        .collect();
    run_jobs(jobs, items, |name, (app, truth)| {
        run_app_cached(name, app, &truth, sierra_cfg, er_cfg, cache)
    })
    .into_iter()
    .map(row_or_error)
    .collect()
}

/// Runs the first `count` apps of the 174-app dataset (Table 5) on
/// `jobs` workers.
pub fn run_fdroid(count: usize, sierra_cfg: SierraConfig, jobs: usize) -> Vec<AppRow> {
    run_fdroid_cached(count, sierra_cfg, jobs, None)
}

/// [`run_fdroid`] against an optional persistence layer (see
/// [`run_twenty_cached`]).
pub fn run_fdroid_cached(
    count: usize,
    sierra_cfg: SierraConfig,
    jobs: usize,
    cache: Option<&CorpusCache>,
) -> Vec<AppRow> {
    let er_cfg = EventRacerConfig::default();
    let items: Vec<(String, _)> = fdroid::iter_apps_with(Some(Arc::new(SymbolArena::new())))
        .take(count)
        .map(|(i, app, truth)| (format!("app{i:03}"), (app, truth)))
        .collect();
    run_jobs(jobs, items, |name, (app, truth)| {
        run_app_cached(name, app, &truth, sierra_cfg, &er_cfg, cache)
    })
    .into_iter()
    .map(row_or_error)
    .collect()
}

/// The rows that analyzed successfully (medians are computed over these).
fn ok_rows(rows: &[AppRow]) -> Vec<&AppRow> {
    rows.iter().filter(|r| r.error.is_none()).collect()
}

/// Aggregate cache counters for one corpus pass; all zero when the run
/// had no persistence layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Apps analyzed successfully (the denominator for
    /// `analyses_reused`).
    pub apps: usize,
    /// Apps whose whole points-to `Analysis` was reused.
    pub analyses_reused: usize,
    /// Per-app store summary hits, summed over successful rows.
    pub summaries_reused: usize,
    /// Summaries recomputed (store miss or first sight).
    pub summaries_recomputed: usize,
    /// Framework summaries served from the corpus-shared layer.
    pub summaries_shared: usize,
    /// Corrupt cache entries treated as misses.
    pub corrupt_misses: usize,
}

impl CacheStats {
    /// Sums the cache counters of a corpus run's successful rows.
    pub fn from_rows(rows: &[AppRow]) -> Self {
        let mut s = Self::default();
        for r in ok_rows(rows) {
            s.apps += 1;
            s.analyses_reused += usize::from(r.analysis_reused);
            s.summaries_reused += r.summaries_reused;
            s.summaries_recomputed += r.summaries_recomputed;
            s.summaries_shared += r.summaries_shared;
            s.corrupt_misses += r.cache_corrupt_misses;
        }
        s
    }

    /// The one-line `key=value` form the corpus commands print under
    /// `--cache-dir` (CI uploads it as the corpus hit stats).
    pub fn render(&self) -> String {
        format!(
            "cache: apps={} analyses_reused={} summaries_reused={} \
             summaries_recomputed={} summaries_shared={} corrupt_misses={}",
            self.apps,
            self.analyses_reused,
            self.summaries_reused,
            self.summaries_recomputed,
            self.summaries_shared,
            self.corrupt_misses,
        )
    }
}

/// Median of a numeric series (paper reports medians in Tables 3–5).
pub fn median<T: Copy + PartialOrd>(values: &[T]) -> Option<T> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("comparable"));
    Some(v[v.len() / 2])
}

/// Renders Table 2 (app metadata and synthesized sizes).
pub fn table2() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<17} {:>28} {:>12} {:>12} {:>10}\n",
        "App", "Installs", "Paper KB", "IR stmts", "Activities"
    ));
    for spec in twenty::TWENTY {
        let (app, _) = twenty::build_app(spec);
        out.push_str(&format!(
            "{:<17} {:>28} {:>12} {:>12} {:>10}\n",
            spec.name,
            spec.installs,
            spec.bytecode_kb,
            app.size_stmts(),
            app.manifest.activities.len(),
        ));
    }
    out
}

/// Renders Table 3 (effectiveness on the 20-app dataset), extended with
/// the triage verdict histogram (Crash / ValI / Benign columns) and a
/// corpus-wide crash-precision/recall summary line.
pub fn table3(rows: &[AppRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<17} {:>4} {:>7} {:>8} {:>5} {:>7} {:>7} {:>6} {:>5} {:>4} {:>5} {:>5} {:>5} {:>4} {:>6}\n",
        "App",
        "Harn",
        "Actions",
        "HBedges",
        "Ord%",
        "RP-noAS",
        "RP-AS",
        "AfterR",
        "True",
        "FP",
        "Miss",
        "EvRac",
        "Crash",
        "ValI",
        "Benign"
    ));
    for r in rows {
        if let Some(err) = &r.error {
            out.push_str(&format!("{:<17} ERROR: {err}\n", r.name));
            continue;
        }
        out.push_str(&format!(
            "{:<17} {:>4} {:>7} {:>8} {:>5.1} {:>7} {:>7} {:>6} {:>5} {:>4} {:>5} {:>5} {:>5} {:>4} {:>6}\n",
            r.name,
            r.harnesses,
            r.actions,
            r.hb_edges,
            r.ordered_pct,
            r.racy_without_as,
            r.racy_with_as,
            r.after_refutation,
            r.sierra_eval.true_races,
            r.sierra_eval.false_positives + r.sierra_eval.unplanted,
            r.sierra_eval.missed,
            r.eventracer_eval.true_races,
            r.triage_crash,
            r.triage_value,
            r.triage_benign,
        ));
    }
    out.push_str(&median_row(rows));
    out.push_str(&triage_summary(rows));
    out
}

/// Corpus-wide triage score: crash-capable precision/recall over every
/// harm-labelled site of the successfully analyzed rows, plus the
/// `triage_idioms` fixture — the twenty apps only carry guard-derived
/// benign labels, so the fixture supplies the crash-capable half of the
/// measurement.
pub fn triage_summary(rows: &[AppRow]) -> String {
    let mut total = HarmEval::default();
    for r in ok_rows(rows) {
        total.merge(r.harm_eval);
    }
    let (app, truth) = corpus::triage_idioms::triage_idioms_app();
    let result = Sierra::new().analyze_app(app);
    let verdicts = sierra_harm_verdicts(&result);
    total.merge(
        truth.evaluate_harm(
            verdicts
                .iter()
                .map(|(c, f, x)| (c.as_str(), f.as_str(), *x)),
        ),
    );
    format!(
        "triage: crash-precision {:.2}, crash-recall {:.2} over {} harm-scored site(s) (corpus + triage-idioms fixture)\n",
        total.precision(),
        total.recall(),
        total.scored
    )
}

/// Renders the Table 3/5 median summary line.
pub fn median_row(rows: &[AppRow]) -> String {
    let ok = ok_rows(rows);
    let m = |f: &dyn Fn(&AppRow) -> f64| {
        median(&ok.iter().map(|r| f(r)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    format!(
        "{:<17} {:>4} {:>7} {:>8} {:>5.1} {:>7} {:>7} {:>6} {:>5} {:>4} {:>5} {:>5} {:>5} {:>4} {:>6}\n",
        "MEDIAN",
        m(&|r| r.harnesses as f64),
        m(&|r| r.actions as f64),
        m(&|r| r.hb_edges as f64),
        m(&|r| r.ordered_pct),
        m(&|r| r.racy_without_as as f64),
        m(&|r| r.racy_with_as as f64),
        m(&|r| r.after_refutation as f64),
        m(&|r| r.sierra_eval.true_races as f64),
        m(&|r| (r.sierra_eval.false_positives + r.sierra_eval.unplanted) as f64),
        m(&|r| r.sierra_eval.missed as f64),
        m(&|r| r.eventracer_eval.true_races as f64),
        m(&|r| r.triage_crash as f64),
        m(&|r| r.triage_value as f64),
        m(&|r| r.triage_benign as f64),
    )
}

/// Renders Table 4 (per-stage efficiency: timings plus work counters).
pub fn table4(rows: &[AppRow]) -> String {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut out = String::new();
    out.push_str(&format!(
        "{:<17} {:>10} {:>8} {:>11} {:>12} {:>8} {:>10} {:>11} {:>10} {:>8} {:>5} {:>7} {:>8} {:>8} {:>6} {:>6} {:>6} {:>7} {:>7} {:>7} {:>8}\n",
        "App",
        "CG+PA(ms)",
        "HBG(ms)",
        "Prefilt(ms)",
        "Refute(ms)",
        "Hist(ms)",
        "Triage(ms)",
        "Compare(ms)",
        "Total(ms)",
        "PAiters",
        "SCCs",
        "CollNod",
        "CGedges",
        "HBapps",
        "Paths",
        "Pruned",
        "Infeas",
        "DFiters",
        "HistChk",
        "HistDis",
        "HistInf"
    ));
    for r in rows {
        if let Some(err) = &r.error {
            out.push_str(&format!("{:<17} ERROR: {err}\n", r.name));
            continue;
        }
        out.push_str(&format!(
            "{:<17} {:>10.2} {:>8.2} {:>11.2} {:>12.2} {:>8.2} {:>10.2} {:>11.2} {:>10.2} {:>8} {:>5} {:>7} {:>8} {:>8} {:>6} {:>6} {:>6} {:>7} {:>7} {:>7} {:>8}\n",
            r.name,
            ms(r.timings.cg_pa),
            ms(r.timings.hbg),
            ms(r.timings.prefilter),
            ms(r.timings.refutation),
            ms(r.timings.histories),
            ms(r.timings.triage),
            ms(r.timings.compare),
            ms(r.timings.total),
            r.pa_worklist_iters,
            r.pa_collapsed_sccs,
            r.pa_collapsed_nodes,
            r.cg_edges,
            r.shbg_rule_apps,
            r.refuter_paths,
            r.pruned_pairs,
            r.infeasible_edges,
            r.triage_iters,
            r.hist_checked,
            r.hist_discharged,
            r.hist_infeasible,
        ));
    }
    let ok = ok_rows(rows);
    let med = |f: &dyn Fn(&AppRow) -> f64| {
        median(&ok.iter().map(|r| f(r)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    out.push_str(&format!(
        "{:<17} {:>10.2} {:>8.2} {:>11.2} {:>12.2} {:>8.2} {:>10.2} {:>11.2} {:>10.2} {:>8.0} {:>5.0} {:>7.0} {:>8.0} {:>8.0} {:>6.0} {:>6.0} {:>6.0} {:>7.0} {:>7.0} {:>7.0} {:>8.0}\n",
        "MEDIAN",
        med(&|r| ms(r.timings.cg_pa)),
        med(&|r| ms(r.timings.hbg)),
        med(&|r| ms(r.timings.prefilter)),
        med(&|r| ms(r.timings.refutation)),
        med(&|r| ms(r.timings.histories)),
        med(&|r| ms(r.timings.triage)),
        med(&|r| ms(r.timings.compare)),
        med(&|r| ms(r.timings.total)),
        med(&|r| r.pa_worklist_iters as f64),
        med(&|r| r.pa_collapsed_sccs as f64),
        med(&|r| r.pa_collapsed_nodes as f64),
        med(&|r| r.cg_edges as f64),
        med(&|r| r.shbg_rule_apps as f64),
        med(&|r| r.refuter_paths as f64),
        med(&|r| r.pruned_pairs as f64),
        med(&|r| r.infeasible_edges as f64),
        med(&|r| r.triage_iters as f64),
        med(&|r| r.hist_checked as f64),
        med(&|r| r.hist_discharged as f64),
        med(&|r| r.hist_infeasible as f64),
    ));
    out
}

/// Renders Table 5 (174-app medians).
pub fn table5(rows: &[AppRow]) -> String {
    let ok = ok_rows(rows);
    let mut out = String::new();
    out.push_str(&format!("{} apps analyzed", ok.len()));
    if ok.len() < rows.len() {
        out.push_str(&format!(" ({} failed)", rows.len() - ok.len()));
    }
    out.push_str("; medians:\n");
    for r in rows {
        if let Some(err) = &r.error {
            out.push_str(&format!("{:<17} ERROR: {err}\n", r.name));
        }
    }
    out.push_str(&format!(
        "{:<17} {:>4} {:>7} {:>8} {:>5} {:>7} {:>6}\n",
        "", "Harn", "Actions", "HBedges", "Ord%", "RP-AS", "AfterR"
    ));
    let m = |f: &dyn Fn(&AppRow) -> f64| {
        median(&ok.iter().map(|r| f(r)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    out.push_str(&format!(
        "{:<17} {:>4} {:>7} {:>8} {:>5.1} {:>7} {:>6}\n",
        "MEDIAN",
        m(&|r| r.harnesses as f64),
        m(&|r| r.actions as f64),
        m(&|r| r.hb_edges as f64),
        m(&|r| r.ordered_pct),
        m(&|r| r.racy_with_as as f64),
        m(&|r| r.after_refutation as f64),
    ));
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    out.push_str(&format!(
        "Efficiency medians: CG+PA {:.2} ms, HBG {:.2} ms, refutation {:.2} ms, total {:.2} ms\n",
        m(&|r| ms(r.timings.cg_pa)),
        m(&|r| ms(r.timings.hbg)),
        m(&|r| ms(r.timings.refutation)),
        m(&|r| ms(r.timings.total)),
    ));
    out.push_str(&format!(
        "Work medians: {:.0} PA worklist iterations, {:.0} CG edges, {:.0} HB rule applications, {:.0} refuter paths\n",
        m(&|r| r.pa_worklist_iters as f64),
        m(&|r| r.cg_edges as f64),
        m(&|r| r.shbg_rule_apps as f64),
        m(&|r| r.refuter_paths as f64),
    ));
    out
}

/// Runs the soundness-audit corpus: the twenty Table-2 apps plus the
/// reflection/intent fixture apps whose planted races are invisible
/// under the `ignore` opaque-call policy (see
/// `corpus::reflection_idioms`).
pub fn run_soundness_corpus(
    sierra_cfg: SierraConfig,
    er_cfg: &EventRacerConfig,
    jobs: usize,
    cache: Option<&CorpusCache>,
) -> Vec<AppRow> {
    let mut rows = run_twenty_cached(sierra_cfg, er_cfg, jobs, cache);
    for (name, (app, truth)) in [
        (
            "ReflectionIdioms",
            corpus::reflection_idioms::reflection_idioms_app(),
        ),
        (
            "IntentIdioms",
            corpus::reflection_idioms::intent_idioms_app(),
        ),
    ] {
        rows.push(run_app_cached(name, app, &truth, sierra_cfg, er_cfg, cache));
    }
    rows
}

/// Renders one policy's rows of the soundness table (Table-3 style):
/// the audit columns (Reach%, Unres, Refl, Intent) next to the report
/// count and its ground-truth score.
pub fn table_soundness(policy: &str, rows: &[AppRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("opaque-policy: {policy}\n"));
    out.push_str(&format!(
        "{:<17} {:>6} {:>5} {:>5} {:>6} {:>6} {:>5} {:>5}\n",
        "App", "Reach%", "Unres", "Refl", "Intent", "AfterR", "True", "Miss"
    ));
    for r in rows {
        if let Some(err) = &r.error {
            out.push_str(&format!("{:<17} ERROR: {err}\n", r.name));
            continue;
        }
        out.push_str(&format!(
            "{:<17} {:>6.1} {:>5} {:>5} {:>6} {:>6} {:>5} {:>5}\n",
            r.name,
            r.soundness_reach_pct,
            r.soundness_unres,
            r.soundness_refl,
            r.soundness_intent,
            r.after_refutation,
            r.sierra_eval.true_races,
            r.sierra_eval.missed,
        ));
    }
    let ok = ok_rows(rows);
    let m = |f: &dyn Fn(&AppRow) -> f64| {
        median(&ok.iter().map(|r| f(r)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    out.push_str(&format!(
        "{:<17} {:>6.1} {:>5.0} {:>5.0} {:>6.0} {:>6.0} {:>5.0} {:>5.0}\n",
        "MEDIAN",
        m(&|r| r.soundness_reach_pct),
        m(&|r| r.soundness_unres as f64),
        m(&|r| r.soundness_refl as f64),
        m(&|r| r.soundness_intent as f64),
        m(&|r| r.after_refutation as f64),
        m(&|r| r.sierra_eval.true_races as f64),
        m(&|r| r.sierra_eval.missed as f64),
    ));
    out
}

/// Corpus-wide race recall of one policy's rows, in percent: planted
/// true races found over planted races findable (found + missed).
pub fn corpus_race_recall(rows: &[AppRow]) -> f64 {
    let ok = ok_rows(rows);
    let found: usize = ok.iter().map(|r| r.sierra_eval.true_races).sum();
    let missed: usize = ok.iter().map(|r| r.sierra_eval.missed).sum();
    if found + missed == 0 {
        100.0
    } else {
        100.0 * found as f64 / (found + missed) as f64
    }
}

/// The per-policy summary lines closing the soundness table: corpus
/// race recall plus the median audit reach of each policy.
pub fn soundness_summary(policies: &[(&str, &[AppRow])]) -> String {
    let mut out = String::new();
    for (name, rows) in policies {
        let ok = ok_rows(rows);
        let found: usize = ok.iter().map(|r| r.sierra_eval.true_races).sum();
        let missed: usize = ok.iter().map(|r| r.sierra_eval.missed).sum();
        let reach =
            median(&ok.iter().map(|r| r.soundness_reach_pct).collect::<Vec<_>>()).unwrap_or(0.0);
        out.push_str(&format!(
            "soundness[{name:<7}]: race-recall {:.1}% ({found} found, {missed} missed), median callback reach {reach:.1}%\n",
            corpus_race_recall(rows),
        ));
    }
    out
}

/// Aggregate comparison against EventRacer (§6.4's averages).
pub fn comparison_summary(rows: &[AppRow]) -> String {
    let ok = ok_rows(rows);
    let n = ok.len().max(1) as f64;
    let avg = |f: &dyn Fn(&AppRow) -> f64| ok.iter().map(|r| f(r)).sum::<f64>() / n;
    format!(
        "SIERRA:     avg {:.1} reports, {:.1} true races, {:.1} FPs, {:.1} missed\n\
         EventRacer: avg {:.1} reports, {:.1} true races, {:.1} FPs, {:.1} missed\n\
         → the dynamic detector misses {:.1} true races per app on average\n",
        avg(&|r| r.after_refutation as f64),
        avg(&|r| r.sierra_eval.true_races as f64),
        avg(&|r| (r.sierra_eval.false_positives + r.sierra_eval.unplanted) as f64),
        avg(&|r| r.sierra_eval.missed as f64),
        avg(&|r| r.eventracer_races as f64),
        avg(&|r| r.eventracer_eval.true_races as f64),
        avg(&|r| (r.eventracer_eval.false_positives + r.eventracer_eval.unplanted) as f64),
        avg(&|r| r.eventracer_eval.missed as f64),
        avg(&|r| r.sierra_eval.true_races as f64 - r.eventracer_eval.true_races as f64),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4, 1, 3, 2]), Some(3)); // upper median
        assert_eq!(median::<i32>(&[]), None);
        assert_eq!(median(&[7]), Some(7));
    }

    #[test]
    fn table2_lists_all_twenty_apps() {
        let t = table2();
        for spec in corpus::TWENTY {
            assert!(t.contains(spec.name), "missing {}", spec.name);
        }
        assert!(t.contains("Installs"));
    }

    #[test]
    fn run_app_produces_consistent_rows() {
        let (app, truth) = corpus::figures::intra_component();
        let row = run_app(
            "fig1",
            app,
            &truth,
            SierraConfig::default(),
            &EventRacerConfig::default(),
        );
        assert_eq!(row.harnesses, 1);
        assert!(row.actions > 0);
        assert!(row.racy_with_as <= row.racy_without_as);
        assert!(row.after_refutation <= row.racy_with_as);
        assert_eq!(row.sierra_eval.missed, 0);
        assert!(row.pa_worklist_iters > 0);
        assert!(row.cg_edges > 0);
        assert!(row.shbg_rule_apps > 0);
        // Rendering includes the row and a median line.
        let t3 = table3(std::slice::from_ref(&row));
        assert!(t3.contains("fig1") && t3.contains("MEDIAN"));
        let t4 = table4(std::slice::from_ref(&row));
        assert!(t4.contains("CG+PA") && t4.contains("PAiters"));
        assert!(t4.contains("Prefilt(ms)") && t4.contains("Pruned") && t4.contains("Infeas"));
        assert!(t4.contains("Compare(ms)"));
        assert!(t4.contains("SCCs") && t4.contains("CollNod"));
        assert!(t4.contains("Hist(ms)") && t4.contains("HistChk"));
        assert!(t4.contains("HistDis") && t4.contains("HistInf"));
        let t5 = table5(std::slice::from_ref(&row));
        assert!(t5.contains("medians"));
        let cmp = comparison_summary(std::slice::from_ref(&row));
        assert!(cmp.contains("SIERRA"));
    }

    #[test]
    fn soundness_table_tracks_policy_recall() {
        // One fixture app per policy stands in for the corpus sweep the
        // `soundness` subcommand runs; the fixture's planted race is the
        // recall signal (invisible under ignore, found under resolve).
        let er = EventRacerConfig::default();
        let row_for = |policy: sierra_core::OpaquePolicy| {
            let (app, truth) = corpus::reflection_idioms::intent_idioms_app();
            let cfg = SierraConfig::builder().opaque_policy(policy).build();
            run_app_cached("IntentIdioms", app, &truth, cfg, &er, None)
        };
        let ignore = vec![row_for(sierra_core::OpaquePolicy::Ignore)];
        let resolve = vec![row_for(sierra_core::OpaquePolicy::Resolve)];

        assert_eq!(ignore[0].sierra_eval.true_races, 0);
        assert_eq!(resolve[0].sierra_eval.missed, 0);
        assert!(ignore[0].soundness_intent >= 2, "setClass + startActivity");
        assert!(resolve[0].soundness_intent < ignore[0].soundness_intent);
        assert!(resolve[0].soundness_reach_pct >= ignore[0].soundness_reach_pct);
        assert_eq!(corpus_race_recall(&ignore), 0.0);
        assert_eq!(corpus_race_recall(&resolve), 100.0);

        let table = table_soundness("ignore", &ignore);
        assert!(table.contains("opaque-policy: ignore"), "{table}");
        assert!(
            table.contains("Reach%") && table.contains("Intent"),
            "{table}"
        );
        assert!(
            table.contains("IntentIdioms") && table.contains("MEDIAN"),
            "{table}"
        );

        let summary = soundness_summary(&[("ignore", &ignore), ("resolve", &resolve)]);
        assert!(summary.contains("soundness[ignore "), "{summary}");
        assert!(summary.contains("race-recall 0.0%"), "{summary}");
        assert!(summary.contains("race-recall 100.0%"), "{summary}");
    }

    #[test]
    fn cached_corpus_pass_reuses_summaries_and_artifacts() {
        let dir = std::env::temp_dir().join(format!("sierra-corpus-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store: Arc<dyn SummaryStore> =
            Arc::new(sierra_core::DiskStore::new(&dir).expect("cache dir"));
        let cache = CorpusCache::new(store, true);
        let cfg = SierraConfig::default();
        let er = EventRacerConfig::default();
        let run = |cache: Option<&CorpusCache>| {
            let (app, truth) = corpus::figures::intra_component();
            run_app_cached("fig1", app, &truth, cfg, &er, cache)
        };

        let cold = run(Some(&cache));
        assert!(!cold.analysis_reused, "first pass computes everything");
        assert!(cold.summaries_recomputed > 0);

        let warm = run(Some(&cache));
        assert!(warm.analysis_reused, "second pass reuses the artifact");
        assert_eq!(warm.summaries_recomputed, 0);
        assert!(warm.summaries_reused > 0);

        // Reuse never changes the analysis columns.
        let baseline = run(None);
        for row in [&cold, &warm] {
            assert_eq!(row.actions, baseline.actions);
            assert_eq!(row.hb_edges, baseline.hb_edges);
            assert_eq!(row.racy_with_as, baseline.racy_with_as);
            assert_eq!(row.after_refutation, baseline.after_refutation);
        }

        let stats = CacheStats::from_rows(&[cold, warm]);
        assert_eq!(stats.apps, 2);
        assert_eq!(stats.analyses_reused, 1);
        assert_eq!(stats.corrupt_misses, 0);
        let line = stats.render();
        assert!(
            line.starts_with("cache: apps=2 analyses_reused=1"),
            "{line}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_layer_serves_framework_summaries_across_apps() {
        // One shared in-memory layer, two different apps with private
        // per-app stores: the second app's framework-origin methods are
        // all served from the layer the first app populated.
        let shared: Arc<dyn SummaryStore> = Arc::new(sierra_core::MemoryStore::new());
        let cfg = SierraConfig::default();
        let er = EventRacerConfig::default();
        let run = |app, truth: &GroundTruth| {
            let cache = CorpusCache {
                store: Arc::new(sierra_core::MemoryStore::new()),
                shared: Some(Arc::clone(&shared)),
            };
            run_app_cached("app", app, truth, cfg, &er, Some(&cache))
        };
        let (app1, truth1) = corpus::figures::intra_component();
        let first = run(app1, &truth1);
        assert_eq!(first.summaries_shared, 0, "nothing to share yet");

        let (app2, truth2) = corpus::figures::inter_component();
        let second = run(app2, &truth2);
        assert!(second.summaries_shared > 0, "framework summaries shared");
    }

    #[test]
    fn rows_derive_from_the_unified_report() {
        // The table printers and the `Display`/JSON renderers must agree
        // because they read the same `Report` value.
        let (app, _) = corpus::figures::intra_component();
        let result = Sierra::new().analyze_app(app);
        let report = Report::from_result(&result);
        let row = AppRow::from_report("fig1", &report);
        assert_eq!(row.harnesses, result.harness_count);
        assert_eq!(row.actions, result.action_count);
        assert_eq!(row.after_refutation, result.races.len());
        assert_eq!(
            row.pa_worklist_iters,
            result.metrics.pointer.worklist_iterations
        );
        assert_eq!(row.pruned_pairs, result.metrics.prefilter.pruned_total());
        // Evals stay zeroed until run_app fills them.
        assert_eq!(row.sierra_eval.true_races, 0);
        assert!(row.error.is_none());
    }

    #[test]
    fn error_rows_render_and_are_excluded_from_medians() {
        let (app, truth) = corpus::figures::intra_component();
        let ok = run_app(
            "fig1",
            app,
            &truth,
            SierraConfig::default(),
            &EventRacerConfig::default(),
        );
        let bad = AppRow::failed("broken.app", "index out of bounds");
        let rows = vec![ok.clone(), bad];
        for render in [table3(&rows), table4(&rows), table5(&rows)] {
            assert!(render.contains("broken.app"), "{render}");
            assert!(render.contains("ERROR: index out of bounds"), "{render}");
        }
        // The median line matches the one computed without the error row.
        assert_eq!(median_row(&rows), median_row(std::slice::from_ref(&ok)));
    }
}
