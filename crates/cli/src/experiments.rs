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
    run_jobs, AnalysisSession, CounterGroup, EngineError, Report, SessionBuilder, Sierra,
    SierraResult, StageSet, StageTimings,
};
use std::sync::Arc;

/// One app's row of Tables 3–5: its analysis [`Report`] plus the
/// columns that are not analysis output.
#[derive(Debug, Clone, Default)]
pub struct AppRow {
    /// App name.
    pub name: String,
    /// Set when the app's analysis panicked; the report is then empty
    /// and the row is excluded from medians.
    pub error: Option<String>,
    /// The analysis report every table column except the four below
    /// is read from.
    pub report: Report,
    /// Ground-truth evaluation of SIERRA's reports.
    pub sierra_eval: EvalCounts,
    /// Ground-truth scoring of the crash-capable verdicts.
    pub harm_eval: HarmEval,
    /// Ground-truth evaluation of EventRacer's reports.
    pub eventracer_eval: EvalCounts,
    /// Races EventRacer reported.
    pub eventracer_races: usize,
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

    /// Race reports after refutation.
    fn races(&self) -> usize {
        self.report.race_lines.len()
    }

    /// Reports triaged crash-capable (null-deref + use-before-init).
    fn crash(&self) -> usize {
        let t = &self.report.metrics.triage;
        t.null_deref + t.use_before_init
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

/// Runs SIERRA + EventRacer + ground-truth scoring on one app; the
/// session is `template` with the app as its input, so a template with
/// a store reuses per-method summaries and whole points-to artifacts.
/// Reuse never changes the row's analysis columns — only the cache
/// counters and the time spent. Panics on an internal stage failure,
/// mirroring [`Sierra::analyze_app`].
pub fn run_app(
    name: &str,
    app: android_model::AndroidApp,
    truth: &GroundTruth,
    template: &SessionBuilder,
    er_cfg: &EventRacerConfig,
) -> AppRow {
    let er_report = eventracer::detect(&app, er_cfg);
    let result = template
        .clone()
        .app(app)
        .build()
        .and_then(AnalysisSession::finish)
        .unwrap_or_else(|e| panic!("{e}"));

    let s_groups = sierra_groups(&result);
    let e_groups = er_report.race_groups();
    let harm_verdicts = sierra_harm_verdicts(&result);
    AppRow {
        name: name.to_owned(),
        error: None,
        report: Report::from_result(&result),
        sierra_eval: truth.evaluate(s_groups.iter().map(|(c, f)| (c.as_str(), f.as_str()))),
        harm_eval: truth.evaluate_harm(
            harm_verdicts
                .iter()
                .map(|(c, f, x)| (c.as_str(), f.as_str(), *x)),
        ),
        eventracer_eval: truth.evaluate(e_groups.iter().map(|(c, f)| (c.as_str(), f.as_str()))),
        eventracer_races: er_report.races.len(),
    }
}

fn row_or_error(outcome: Result<AppRow, EngineError>) -> AppRow {
    match outcome {
        Ok(row) => row,
        Err(e) => AppRow::failed(&e.item, &e.message),
    }
}

/// Runs the 20-app dataset (Tables 3 and 4): apps are built on the
/// caller's thread over one corpus-wide symbol arena, then analyzed
/// from `template` on `jobs` workers. Workers share the template's
/// store: a second pass over the same store reuses every unchanged
/// summary and points-to artifact, and with a shared layer each
/// framework-method summary is computed once corpus-wide.
pub fn run_twenty(
    template: &SessionBuilder,
    er_cfg: &EventRacerConfig,
    jobs: usize,
) -> Vec<AppRow> {
    let items: Vec<(String, _)> = twenty::build_all_with(Some(Arc::new(SymbolArena::new())))
        .into_iter()
        .map(|(spec, app, truth)| (spec.name.to_owned(), (app, truth)))
        .collect();
    run_jobs(jobs, items, |name, (app, truth)| {
        run_app(name, app, &truth, template, er_cfg)
    })
    .into_iter()
    .map(row_or_error)
    .collect()
}

/// Runs the first `count` apps of the 174-app dataset (Table 5) on
/// `jobs` workers (see [`run_twenty`]).
pub fn run_fdroid(count: usize, template: &SessionBuilder, jobs: usize) -> Vec<AppRow> {
    let er_cfg = EventRacerConfig::default();
    let items: Vec<(String, _)> = fdroid::iter_apps_with(Some(Arc::new(SymbolArena::new())))
        .take(count)
        .map(|(i, app, truth)| (format!("app{i:03}"), (app, truth)))
        .collect();
    run_jobs(jobs, items, |name, (app, truth)| {
        run_app(name, app, &truth, template, &er_cfg)
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
            let link = &r.report.metrics.link;
            s.apps += 1;
            s.analyses_reused += usize::from(link.analysis_reused);
            s.summaries_reused += link.summaries_reused;
            s.summaries_recomputed += link.summaries_recomputed;
            s.summaries_shared += link.summaries_shared;
            s.corrupt_misses += link.corrupt_misses;
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

/// One column of a per-app table: its header and width, the digits
/// after the point, and how its cell is read from a row (`None`, printed
/// `-`, for a value only some runs compute).
struct Column {
    header: String,
    width: usize,
    decimals: usize,
    read: ReadCell,
}

type ReadCell = Box<dyn Fn(&AppRow) -> Option<f64>>;

impl Column {
    fn new(header: &str, width: usize, decimals: usize, read: ReadCell) -> Column {
        let header = header.to_owned();
        Column {
            header,
            width,
            decimals,
            read,
        }
    }

    fn count(header: &str, width: usize, read: fn(&AppRow) -> usize) -> Column {
        Column::new(header, width, 0, Box::new(move |r| Some(read(r) as f64)))
    }

    /// `value` printed under this column, after one space.
    fn cell(&self, value: Option<f64>) -> String {
        let (w, d) = (self.width, self.decimals);
        value.map_or_else(|| format!(" {:>w$}", "-"), |v| format!(" {v:>w$.d$}"))
    }
}

/// The header line of `columns`, with `first` over the name column.
fn header_line(first: &str, columns: &[Column]) -> String {
    let mut line = format!("{first:<17}");
    for c in columns {
        line.push_str(&format!(" {:>w$}", c.header, w = c.width));
    }
    line + "\n"
}

/// The median of column `c` over the rows that analyzed and have a
/// value in it.
fn column_median(rows: &[AppRow], c: &Column) -> Option<f64> {
    let values = ok_rows(rows).into_iter().filter_map(&c.read);
    median(&values.collect::<Vec<_>>())
}

/// The MEDIAN line of `columns`.
fn median_line(rows: &[AppRow], columns: &[Column]) -> String {
    let mut line = format!("{:<17}", "MEDIAN");
    for c in columns {
        line.push_str(&c.cell(column_median(rows, c)));
    }
    line + "\n"
}

/// `title`, then each column's median as `<label> <median><unit>`, the
/// label being the header without its `(ms)`.
fn medians_line(title: &str, rows: &[AppRow], columns: &[Column], unit: &str) -> String {
    let medians: Vec<String> = columns
        .iter()
        .map(|c| {
            let (label, d) = (c.header.trim_end_matches("(ms)"), c.decimals);
            let median = column_median(rows, c).unwrap_or(0.0);
            format!("{label} {median:.d$}{unit}")
        })
        .collect();
    format!("{title}: {}\n", medians.join(", "))
}

/// A per-app table: one column list serves the header, every row (an
/// error row says so) and the MEDIAN line.
fn render_table(rows: &[AppRow], columns: &[Column]) -> String {
    let mut out = header_line("App", columns);
    for r in rows {
        out.push_str(&format!("{:<17}", r.name));
        match &r.error {
            Some(err) => out.push_str(&format!(" ERROR: {err}")),
            None => out.extend(columns.iter().map(|c| c.cell((c.read)(r)))),
        }
        out.push('\n');
    }
    out + &median_line(rows, columns)
}

/// Table 3's columns; Table 5 shows some of them.
fn table3_columns() -> Vec<Column> {
    let without_as: ReadCell = Box::new(|r| r.report.racy_pairs_without_as.map(|n| n as f64));
    vec![
        Column::count("Harn", 4, |r| r.report.harness_count),
        Column::count("Actions", 7, |r| r.report.action_count),
        Column::count("HBedges", 8, |r| r.report.hb_edges),
        Column::new("Ord%", 5, 1, Box::new(|r| Some(r.report.hb_percent()))),
        Column::new("RP-noAS", 7, 0, without_as),
        Column::count("RP-AS", 7, |r| r.report.racy_pairs_with_as),
        Column::count("AfterR", 6, AppRow::races),
        Column::count("True", 5, |r| r.sierra_eval.true_races),
        Column::count("FP", 4, |r| {
            r.sierra_eval.false_positives + r.sierra_eval.unplanted
        }),
        Column::count("Miss", 5, |r| r.sierra_eval.missed),
        Column::count("EvRac", 5, |r| r.eventracer_eval.true_races),
        Column::count("Crash", 5, AppRow::crash),
        Column::count("ValI", 4, |r| r.report.metrics.triage.value_inconsistency),
        Column::count("Benign", 6, |r| r.report.metrics.triage.likely_benign),
    ]
}

/// Renders Table 3 (effectiveness on the 20-app dataset), extended with
/// the triage verdict histogram (Crash / ValI / Benign columns) and a
/// corpus-wide crash-precision/recall summary line. The RP-noAS column
/// reads `-` for rows analyzed without the opt-in comparison pass; its
/// median is over the rows that ran it.
pub fn table3(rows: &[AppRow]) -> String {
    render_table(rows, &table3_columns()) + &triage_summary(rows)
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

/// Table 4's work columns: each header, then the counter group and key
/// it reads through [`COUNTER_GROUPS`](sierra_core::COUNTER_GROUPS).
const TABLE4_COUNTERS: [(&str, &str, &str); 8] = [
    ("PAiters", "pointer", "worklist_iterations"),
    ("CGedges", "pointer", "cg_edges"),
    ("HBapps", "shbg", "rule_applications"),
    ("Paths", "refuter", "paths"),
    ("Pruned", "prefilter", "pruned"),
    ("DFiters", "triage", "dataflow_iterations"),
    ("HistChk", "histories", "pairs_checked"),
    ("HistDis", "histories", "discharged"),
];

/// One time column per entry of the rows' stage listing (every row
/// runs the same stages), headed `<label>(ms)`.
fn time_columns(rows: &[AppRow]) -> Vec<Column> {
    let stages = ok_rows(rows)
        .first()
        .map_or(StageSet::default(), |r| r.report.stages);
    let listing = StageTimings::default().listing(stages);
    let columns = listing.enumerate().map(|(i, (_, label, _))| {
        let read: ReadCell = Box::new(move |r| {
            let (.., t) = r.report.metrics.timings.listing(stages).nth(i)?;
            Some(t.as_secs_f64() * 1e3)
        });
        let header = format!("{label}(ms)");
        Column::new(&header, header.len().max(8), 2, read)
    });
    columns.collect()
}

/// One column per [`TABLE4_COUNTERS`] entry.
fn counter_columns() -> impl Iterator<Item = Column> {
    TABLE4_COUNTERS.iter().map(|&(header, group, key)| {
        let group = CounterGroup::named(group).expect("a listed group");
        let read: ReadCell = Box::new(move |r| {
            let mut counters = group.read(&r.report.metrics);
            Some(counters.find(|&(k, _)| k == key)?.1.value())
        });
        Column::new(header, header.len().max(8), 0, read)
    })
}

/// Renders Table 4 (per-stage efficiency: timings plus work counters).
/// One time column per stage that ran, then the unattributed remainder,
/// so the time columns add up to `Total(ms)`.
pub fn table4(rows: &[AppRow]) -> String {
    let mut columns = time_columns(rows);
    columns.extend(counter_columns());
    render_table(rows, &columns)
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
    let shown = ["Harn", "Actions", "HBedges", "Ord%", "RP-AS", "AfterR"];
    let mut columns = table3_columns();
    columns.retain(|c| shown.contains(&c.header.as_str()));
    out.push_str(&header_line("", &columns));
    out.push_str(&median_line(rows, &columns));
    let times = time_columns(rows);
    out.push_str(&medians_line("Efficiency medians", rows, &times, " ms"));
    let counters: Vec<Column> = counter_columns().collect();
    out.push_str(&medians_line("Work medians", rows, &counters, ""));
    out
}

/// Runs the soundness-audit corpus: the twenty Table-2 apps plus the
/// reflection/intent fixture apps whose planted races are invisible
/// under the `ignore` opaque-call policy (see
/// `corpus::reflection_idioms`).
pub fn run_soundness_corpus(
    template: &SessionBuilder,
    er_cfg: &EventRacerConfig,
    jobs: usize,
) -> Vec<AppRow> {
    let mut rows = run_twenty(template, er_cfg, jobs);
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
        rows.push(run_app(name, app, &truth, template, er_cfg));
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
        let audit = &r.report.metrics.soundness;
        out.push_str(&format!(
            "{:<17} {:>6.1} {:>5} {:>5} {:>6} {:>6} {:>5} {:>5}\n",
            r.name,
            audit.recall_pct(),
            audit.unresolved_sites,
            audit.reflective_sites,
            audit.intent_sites,
            r.races(),
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
        m(&|r| r.report.metrics.soundness.recall_pct()),
        m(&|r| r.report.metrics.soundness.unresolved_sites as f64),
        m(&|r| r.report.metrics.soundness.reflective_sites as f64),
        m(&|r| r.report.metrics.soundness.intent_sites as f64),
        m(&|r| r.races() as f64),
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
        let reach = ok.iter().map(|r| r.report.metrics.soundness.recall_pct());
        let reach = median(&reach.collect::<Vec<_>>()).unwrap_or(0.0);
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
        avg(&|r| r.races() as f64),
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
    use sierra_core::{SierraConfig, Stage, SummaryStore};

    fn default_template() -> SessionBuilder {
        SessionBuilder::new(SierraConfig::default())
    }

    /// The template `sierra-cli table3` analyzes with: the default plus
    /// the opt-in comparison pass.
    fn compare_template() -> SessionBuilder {
        SessionBuilder::new(SierraConfig::builder().with(Stage::Compare).build())
    }

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
            &compare_template(),
            &EventRacerConfig::default(),
        );
        let (report, m) = (&row.report, &row.report.metrics);
        assert_eq!(report.harness_count, 1);
        assert!(report.action_count > 0);
        let without_as = report.racy_pairs_without_as.expect("the pass ran");
        assert!(report.racy_pairs_with_as <= without_as);
        assert!(row.races() <= report.racy_pairs_with_as);
        assert_eq!(row.sierra_eval.missed, 0);
        assert!(m.pointer.worklist_iterations > 0);
        assert!(m.pointer.cg_edges > 0);
        assert!(m.shbg.total_applications() > 0);
        // Rendering includes the row and a median line.
        let t3 = table3(std::slice::from_ref(&row));
        assert!(t3.contains("fig1") && t3.contains("MEDIAN"));
        // Table 4's time columns are the stage listing: every stage that
        // ran (the comparison pass too, here), then the remainder.
        let t4 = table4(std::slice::from_ref(&row));
        let header: Vec<&str> = t4
            .lines()
            .next()
            .expect("a header")
            .split_whitespace()
            .collect();
        let mut expected: Vec<String> = Stage::ALL
            .iter()
            .map(|s| format!("{}(ms)", s.label()))
            .collect();
        expected.extend(["Unattributed(ms)", "Total(ms)"].map(String::from));
        expected.extend(TABLE4_COUNTERS.iter().map(|(h, ..)| h.to_string()));
        assert_eq!(header[0], "App");
        assert_eq!(header[1..], expected);
        assert_eq!(t4.lines().count(), 3, "{t4}");
        let t5 = table5(std::slice::from_ref(&row));
        assert!(t5.contains("Efficiency medians: Harness "), "{t5}");
        assert!(
            t5.contains(", Compare ") && t5.contains(", Unattributed "),
            "{t5}"
        );
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
            run_app("IntentIdioms", app, &truth, &SessionBuilder::new(cfg), &er)
        };
        let ignore = vec![row_for(sierra_core::OpaquePolicy::Ignore)];
        let resolve = vec![row_for(sierra_core::OpaquePolicy::Resolve)];

        assert_eq!(ignore[0].sierra_eval.true_races, 0);
        assert_eq!(resolve[0].sierra_eval.missed, 0);
        let (ignored, resolved) = (
            &ignore[0].report.metrics.soundness,
            &resolve[0].report.metrics.soundness,
        );
        assert!(ignored.intent_sites >= 2, "setClass + startActivity");
        assert!(resolved.intent_sites < ignored.intent_sites);
        assert!(resolved.recall_pct() >= ignored.recall_pct());
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
        let cached = default_template()
            .store(Arc::clone(&store))
            .shared_store(store);
        let er = EventRacerConfig::default();
        let run = |template: &SessionBuilder| {
            let (app, truth) = corpus::figures::intra_component();
            run_app("fig1", app, &truth, template, &er)
        };

        let cold = run(&cached);
        let link = cold.report.metrics.link;
        assert!(!link.analysis_reused, "first pass computes everything");
        assert!(link.summaries_recomputed > 0);

        let warm = run(&cached);
        let link = warm.report.metrics.link;
        assert!(link.analysis_reused, "second pass reuses the artifact");
        assert_eq!(link.summaries_recomputed, 0);
        assert!(link.summaries_reused > 0);

        // Reuse never changes the analysis columns.
        let baseline = run(&default_template());
        for row in [&cold, &warm] {
            assert_eq!(row.report.render_stable(), baseline.report.render_stable());
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
        // per-app stores: the framework method both reach
        // (`Adapter.notifyDataSetChanged`) is served to the second app
        // from the layer the first app populated.
        let shared: Arc<dyn SummaryStore> = Arc::new(sierra_core::MemoryStore::new());
        let template = default_template().shared_store(shared);
        let er = EventRacerConfig::default();
        let run = |app, truth: &GroundTruth| {
            let private = Arc::new(sierra_core::MemoryStore::new());
            run_app("app", app, truth, &template.clone().store(private), &er)
        };
        let (app1, truth1) = corpus::figures::intra_component();
        let first = run(app1, &truth1).report.metrics.link;
        assert_eq!(first.summaries_shared, 0, "nothing to share yet");

        let spec = twenty::TWENTY.iter().find(|s| s.name == "NotePad");
        let (app2, truth2) = twenty::build_app(*spec.expect("NotePad is in the corpus"));
        let second = run(app2, &truth2).report.metrics.link;
        assert!(second.summaries_shared > 0, "framework summaries shared");
    }

    #[test]
    fn rows_derive_from_the_unified_report() {
        // The table printers and the `Display`/JSON renderers must agree
        // because they read the same `Report` value: a row carries the
        // report the direct analysis path renders.
        let (app, truth) = corpus::figures::intra_component();
        let result = Sierra::new().analyze_app(app.clone());
        let er = EventRacerConfig::default();
        let row = run_app("fig1", app, &truth, &default_template(), &er);
        assert!(row.error.is_none());
        assert_eq!(
            row.report.render_stable(),
            Report::from_result(&result).render_stable()
        );
        assert_eq!(row.races(), result.races.len());
    }

    #[test]
    fn rows_without_the_comparison_pass_show_no_without_as_count() {
        let (app, truth) = corpus::figures::intra_component();
        let er = EventRacerConfig::default();
        let row = run_app("fig1", app, &truth, &default_template(), &er);
        assert_eq!(row.report.racy_pairs_without_as, None);
        let t3 = table3(std::slice::from_ref(&row));
        for line in t3
            .lines()
            .filter(|l| l.starts_with("fig1") || l.starts_with("MEDIAN"))
        {
            let rp_no_as = line[17..].split_whitespace().nth(4);
            assert_eq!(rp_no_as, Some("-"), "{t3}");
        }
    }

    #[test]
    fn error_rows_render_and_are_excluded_from_medians() {
        let (app, truth) = corpus::figures::intra_component();
        let ok = run_app(
            "fig1",
            app,
            &truth,
            &default_template(),
            &EventRacerConfig::default(),
        );
        let bad = AppRow::failed("broken.app", "index out of bounds");
        let rows = vec![ok.clone(), bad];
        for render in [table3(&rows), table4(&rows), table5(&rows)] {
            assert!(render.contains("broken.app"), "{render}");
            assert!(render.contains("ERROR: index out of bounds"), "{render}");
        }
        // The median line matches the one computed without the error row.
        let columns = table3_columns();
        let alone = std::slice::from_ref(&ok);
        assert_eq!(median_line(&rows, &columns), median_line(alone, &columns));
    }
}
