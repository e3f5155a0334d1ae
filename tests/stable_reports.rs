//! Golden stable reports.
//!
//! [`Report::render_stable`] is the pipeline's output contract: every
//! report minus its wall-clock parts. This suite pins it byte for byte
//! for the 20 Table-2 apps and the shipped `fixtures/*.sierra` under the
//! default configuration, for the reflection/intent fixture apps
//! under the `resolve` opaque policy, and for the fixtures plus the
//! prefilter/triage/reflection idiom apps under each stage ablation,
//! the hybrid selector (Table 3's context without action sensitivity)
//! and `min_harm(NullDeref)`. A fifth golden, `counters.txt`, pins the
//! work counters those reports do not show: the stress apps, the corpus
//! aggregates, store and arena reuse, and the per-policy soundness
//! census, each read through `COUNTER_GROUPS`. The invariants those
//! counters exist to show are asserted before the text is compared, so
//! refreshing the golden cannot accept a broken one. The goldens live
//! in `tests/golden/`; on a mismatch the actual text is written under
//! `target/golden-actual/` and the test fails naming that path.
//!
//! The comparison runs in three separate child processes. Each process
//! seeds its `HashMap`s afresh, so a report that depends on hash
//! iteration order fails here instead of flaking elsewhere.

use sierra::android_model::{asm::render_app, parse_app, AndroidApp};
use sierra::apir::SymbolArena;
use sierra::corpus::{self, stress, GroundTruth, HarmEval};
use sierra::pointer;
use sierra::sierra_core::{
    Counter, CounterGroup, DiskStore, Harm, MemoryStore, OpaquePolicy, Report, SessionBuilder,
    Sierra, SierraConfig, SierraResult, Stage, StageMetrics, SummaryStore, COUNTER_GROUPS,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Renders each app under `cfg`, one stable report after another.
fn render_all(cfg: SierraConfig, apps: Vec<AndroidApp>) -> String {
    apps.into_iter()
        .map(|app| Report::from_result(&Sierra::with_config(cfg).analyze_app(app)).render_stable())
        .collect::<Vec<_>>()
        .join("\n")
}

fn twenty() -> String {
    let apps = corpus::twenty::build_all()
        .into_iter()
        .map(|(_, app, _)| app)
        .collect();
    render_all(SierraConfig::default(), apps)
}

fn fixture_apps() -> Vec<AndroidApp> {
    [
        "fig1_intra_component",
        "fig2_inter_component",
        "fig8_guarded_timer",
    ]
    .iter()
    .map(|stem| {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(format!("{stem}.sierra"));
        let src = std::fs::read_to_string(&path).expect("fixture readable");
        parse_app(stem, &src).expect("fixture parses")
    })
    .collect()
}

fn fixtures() -> String {
    render_all(SierraConfig::default(), fixture_apps())
}

fn reflection_resolve() -> String {
    let cfg = SierraConfig::builder()
        .opaque_policy(OpaquePolicy::Resolve)
        .build();
    let apps = vec![
        corpus::reflection_idioms::reflection_idioms_app().0,
        corpus::reflection_idioms::intent_idioms_app().0,
    ];
    render_all(cfg, apps)
}

/// The reflection and intent fixtures resolve their opaque edges from
/// string constants, which `.sierra` text carries as quoted literals,
/// and the pointer-cycle stress app uses locals in blocks above the one
/// that assigns them (its loop back edges): analyzed from [`render_app`]
/// text, each reports exactly what it reports when built in code, as
/// does the refutation stress app.
#[test]
fn reflection_fixtures_report_the_same_from_rendered_text() {
    let cfg = SierraConfig::builder()
        .opaque_policy(OpaquePolicy::Resolve)
        .build();
    for app in [
        corpus::reflection_idioms::reflection_idioms_app().0,
        corpus::reflection_idioms::intent_idioms_app().0,
        stress::refutation_stress_app(13, 8),
        stress::pointer_cycle_stress_app(48, 8),
    ] {
        let text = render_app(&app);
        let reparsed = parse_app(&app.name, &text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(
            render_all(cfg, vec![reparsed]),
            render_all(cfg, vec![app]),
            "{text}"
        );
    }
}

/// Every stage ablation, the hybrid selector and `min_harm` over the
/// fixtures and the prefilter, triage and reflection idiom apps, one
/// section per config.
fn ablations() -> String {
    let configs = [
        (
            "no prefilter",
            SierraConfig::builder().without(Stage::Prefilter),
        ),
        (
            "no histories",
            SierraConfig::builder().without(Stage::Histories),
        ),
        ("no triage", SierraConfig::builder().without(Stage::Triage)),
        (
            "skip refutation",
            SierraConfig::builder().without(Stage::Refute),
        ),
        (
            "hybrid selector",
            SierraConfig::builder().selector(pointer::SelectorKind::Hybrid(1)),
        ),
        (
            "min harm null-deref",
            SierraConfig::builder().min_harm(Harm::NullDeref),
        ),
    ];
    configs
        .into_iter()
        .map(|(label, builder)| {
            let mut apps = fixture_apps();
            apps.push(corpus::prefilter_idioms::prefilter_idioms_app().0);
            apps.push(corpus::triage_idioms::triage_idioms_app().0);
            apps.push(corpus::reflection_idioms::reflection_idioms_app().0);
            format!("== {label}\n{}", render_all(builder.build(), apps))
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// The group of [`COUNTER_GROUPS`] called `name`.
fn group(name: &str) -> &'static CounterGroup {
    CounterGroup::named(name).expect("a listed counter group")
}

/// One `group.key value` line per counter of `groups`, read from `m`.
fn write_counters<'a>(
    out: &mut String,
    m: &StageMetrics,
    groups: impl IntoIterator<Item = &'a CounterGroup>,
) {
    for group in groups {
        for (key, value) in group.read(m) {
            let _ = writeln!(out, "{}.{key} {value}", group.name);
        }
    }
}

/// One `group.key sum` line per counter of `group`, summed over `runs`.
/// Percentages and flags do not add up across runs, so the sums leave
/// them out.
fn write_sums(out: &mut String, runs: &[StageMetrics], group: &CounterGroup) {
    for &(key, read) in group.counters {
        let sum: Option<usize> = runs
            .iter()
            .map(|m| match read(m) {
                Counter::Count(n) => Some(n),
                _ => None,
            })
            .sum();
        if let Some(sum) = sum {
            let _ = writeln!(out, "{}.{key} {sum}", group.name);
        }
    }
}

/// The distinct `(class, field)` groups of a result's races.
fn race_groups(result: &SierraResult) -> Vec<(String, String)> {
    let p = &result.harness.app.program;
    let mut groups: Vec<(String, String)> = result
        .races
        .iter()
        .map(|r| {
            let f = p.field(r.field);
            (p.class_name(f.class).to_owned(), p.name(f.name).to_owned())
        })
        .collect();
    groups.sort();
    groups.dedup();
    groups
}

fn scored(truth: &GroundTruth, result: &SierraResult) -> corpus::EvalCounts {
    let groups = race_groups(result);
    truth.evaluate(groups.iter().map(|(c, f)| (c.as_str(), f.as_str())))
}

fn twenty_app(name: &str) -> AndroidApp {
    let spec = corpus::TWENTY.iter().find(|s| s.name == name);
    corpus::twenty::build_app(*spec.expect("a Table 2 app")).0
}

/// One cold session over `store`, with `shared` as the framework layer.
fn run_with_store(
    app: AndroidApp,
    store: Arc<dyn SummaryStore>,
    shared: Option<&Arc<dyn SummaryStore>>,
) -> StageMetrics {
    let mut builder = SessionBuilder::new(SierraConfig::default())
        .app(app)
        .store(store);
    if let Some(layer) = shared {
        builder = builder.shared_store(Arc::clone(layer));
    }
    let session = builder.build().expect("valid app");
    session.finish().expect("pipeline runs").metrics
}

/// The stress apps: the prefilter's prune tallies on the refutation
/// stress app (every listed counter, so a new one shows up here), and
/// the pointer solver's work on the copy-cycle chain.
fn stress_counters(out: &mut String) {
    let result = Sierra::new().analyze_app(stress::refutation_stress_app(13, 8));
    let _ = writeln!(out, "== refutation stress app: 13 diamonds, 8 fields");
    let _ = writeln!(out, "candidate_pairs {}", result.racy_pairs_with_as);
    let _ = writeln!(out, "pruned_pairs {}", result.pruned.len());
    let _ = writeln!(out, "races {}", result.races.len());
    write_counters(out, &result.metrics, &COUNTER_GROUPS);

    let cycles = Sierra::new().analyze_app(stress::pointer_cycle_stress_app(48, 8));
    let _ = writeln!(
        out,
        "== pointer cycle stress app: 48 cycles of 8, collapse off"
    );
    write_counters(out, &cycles.metrics, [group("pointer")]);
}

/// Corpus aggregates: triage over the 20 apps plus the triage fixture
/// (with crash precision against the harm labels), and the histories
/// stage over the protocol fixtures (against their planted races).
fn corpus_counters(out: &mut String) {
    let mut runs = Vec::new();
    let mut harm = HarmEval::default();
    let apps = corpus::twenty::build_all()
        .into_iter()
        .map(|(_, a, t)| (a, t));
    for (app, truth) in apps.chain([corpus::triage_idioms::triage_idioms_app()]) {
        let result = Sierra::new().analyze_app(app);
        let p = &result.harness.app.program;
        let mut crash: BTreeMap<(String, String), bool> = BTreeMap::new();
        for r in &result.races {
            if let Some(t) = &r.triage {
                let f = p.field(r.field);
                let site = (p.class_name(f.class).to_owned(), p.name(f.name).to_owned());
                *crash.entry(site).or_insert(false) |= t.harm.is_crash();
            }
        }
        let verdicts = crash.iter().map(|((c, f), x)| (c.as_str(), f.as_str(), *x));
        harm.merge(truth.evaluate_harm(verdicts));
        runs.push(result.metrics);
    }
    assert!(
        harm.precision() >= 0.9,
        "crash precision {:.3} is below the 90% floor",
        harm.precision()
    );
    let _ = writeln!(
        out,
        "== triage over the 20 apps and the triage fixture, summed"
    );
    write_sums(out, &runs, group("triage"));
    let _ = writeln!(out, "crash_precision_pct {}", harm.precision() * 100.0);
    let _ = writeln!(out, "crash_recall_pct {}", harm.recall() * 100.0);
    let _ = writeln!(out, "harm_scored_sites {}", harm.scored);

    let (mut runs, mut missed, mut surviving_fps) = (Vec::new(), 0, 0);
    for (_, app, truth) in corpus::protocol_idioms::build_all() {
        let result = Sierra::new().analyze_app(app);
        let eval = scored(&truth, &result);
        missed += eval.missed;
        surviving_fps += eval.false_positives + eval.unplanted;
        runs.push(result.metrics);
    }
    assert_eq!(
        (missed, surviving_fps),
        (0, 0),
        "the histories stage must keep every true race and discharge every planted FP"
    );
    let _ = writeln!(out, "== histories over the protocol fixtures, summed");
    write_sums(out, &runs, group("histories"));
}

/// Store and arena reuse: the edit pair cold then warm over one store,
/// NPR News cold then warm over one on-disk directory, three apps over
/// one shared framework layer, and the 20 apps over one symbol arena.
fn reuse_counters(out: &mut String) {
    let store: Arc<dyn SummaryStore> = Arc::new(MemoryStore::new());
    let cold = run_with_store(corpus::edit_pairs::base_app(), Arc::clone(&store), None);
    let warm = run_with_store(corpus::edit_pairs::edited_app(), store, None);
    assert!(
        warm.link.pointer_iterations_run * 2 < cold.link.pointer_iterations_run,
        "a warm run must need under half the cold solver iterations: {:?} vs {:?}",
        warm.link,
        cold.link
    );
    assert!(
        warm.link.summaries_reused >= 1,
        "the warm run reuses summaries"
    );
    for (label, m) in [
        ("base, cold", cold),
        ("edited, warm over the same store", warm),
    ] {
        let _ = writeln!(out, "== edit pair {label}");
        write_counters(out, &m, [group("link")]);
    }

    let dir = std::env::temp_dir().join(format!("sierra-counters-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let on_disk =
        || -> Arc<dyn SummaryStore> { Arc::new(DiskStore::new(&dir).expect("cache dir")) };
    let cold = run_with_store(twenty_app("NPR News"), on_disk(), None);
    let warm = run_with_store(twenty_app("NPR News"), on_disk(), None);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        warm.link.analysis_reused && warm.link.pointer_iterations_run == 0,
        "a fresh store over a populated directory must reuse the artifact: {:?}",
        warm.link
    );
    for (label, m) in [
        ("cold", cold),
        ("warm, a fresh store over the same directory", warm),
    ] {
        let _ = writeln!(out, "== NPR News on disk, {label}");
        write_counters(out, &m, [group("link")]);
    }

    let layer: Arc<dyn SummaryStore> = Arc::new(MemoryStore::new());
    let runs: Vec<StageMetrics> = ["VuDroid", "NPR News", "Astrid"]
        .into_iter()
        .map(|name| run_with_store(twenty_app(name), Arc::new(MemoryStore::new()), Some(&layer)))
        .collect();
    let shared: usize = runs.iter().map(|m| m.link.summaries_shared).sum();
    assert!(shared >= 1, "later apps are served from the shared layer");
    let _ = writeln!(
        out,
        "== VuDroid, NPR News and Astrid over one shared layer, summed"
    );
    write_sums(out, &runs, group("link"));

    // How often pooled solver scratch is reused depends on scheduling,
    // so only that it happens is checked; the arena is exact.
    let arena = Arc::new(SymbolArena::new());
    let (reused_before, _) = pointer::scratch_pool_stats();
    for (_, app, _) in corpus::twenty::build_all_with(Some(Arc::clone(&arena))) {
        Sierra::new().analyze_app(app);
    }
    let (reused_after, _) = pointer::scratch_pool_stats();
    assert!(
        reused_after > reused_before,
        "a corpus run reuses solver scratch"
    );
    let _ = writeln!(out, "== the 20 apps over one symbol arena");
    let _ = writeln!(out, "arena_symbols {}", arena.len());
    let _ = writeln!(out, "arena_bytes {}", arena.bytes_resident());
}

/// The soundness audit under each opaque-call policy over the 20 apps
/// and the reflection and intent fixtures: planted races found and
/// missed, and the audit's census. Recall must climb the
/// `ignore → resolve → havoc` ladder to 100% and the call graphs must
/// nest the same way.
fn soundness_counters(out: &mut String) {
    let mut ladder: Vec<(usize, usize, Vec<_>)> = Vec::new();
    for policy in OpaquePolicy::ALL {
        let cfg = SierraConfig::builder().opaque_policy(policy).build();
        let apps = corpus::twenty::build_all()
            .into_iter()
            .map(|(_, a, t)| (a, t));
        let fixtures = [
            corpus::reflection_idioms::reflection_idioms_app(),
            corpus::reflection_idioms::intent_idioms_app(),
        ];
        let (mut found, mut missed, mut runs, mut edges) = (0, 0, Vec::new(), Vec::new());
        for (app, truth) in apps.chain(fixtures) {
            let result = Sierra::with_config(cfg).analyze_app(app);
            let eval = scored(&truth, &result);
            found += eval.true_races;
            missed += eval.missed;
            edges.push(result.analysis.context_insensitive_edges());
            runs.push(result.metrics);
        }
        let _ = writeln!(out, "== soundness audit under {policy}, summed");
        let _ = writeln!(out, "planted_found {found}");
        let _ = writeln!(out, "planted_missed {missed}");
        write_sums(out, &runs, group("soundness"));
        ladder.push((found, missed, edges));
    }
    let [ignore, resolve, havoc] = &ladder[..] else {
        panic!("three policies")
    };
    // Found + missed is the corpus's planted total under every policy,
    // so comparing the found counts compares recall.
    assert!(
        ignore.0 <= resolve.0 && resolve.0 <= havoc.0,
        "recall must not fall up the policy ladder"
    );
    assert_eq!(
        (resolve.1, havoc.1),
        (0, 0),
        "resolve and havoc miss no planted race"
    );
    for (lo, hi) in [(ignore, resolve), (resolve, havoc)] {
        for (app, (lo, hi)) in lo.2.iter().zip(&hi.2).enumerate() {
            assert!(
                lo.is_subset(hi),
                "app {app}: call graphs must nest up the ladder"
            );
        }
    }
}

/// Every work counter the other goldens do not pin.
fn counters() -> String {
    let mut out = String::new();
    stress_counters(&mut out);
    corpus_counters(&mut out);
    reuse_counters(&mut out);
    soundness_counters(&mut out);
    out
}

/// Compares `actual` with `tests/golden/<name>`; on a mismatch writes
/// `actual` under `target/golden-actual/` and returns that path.
fn check(name: &str, actual: &str) -> Result<(), PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(root.join("tests/golden").join(name)).unwrap_or_default();
    if golden == actual {
        return Ok(());
    }
    let out = root.join("target/golden-actual").join(name);
    std::fs::create_dir_all(out.parent().expect("has a parent")).expect("create output dir");
    std::fs::write(&out, actual).expect("write actual report");
    Err(out)
}

/// The comparison itself; ignored in a plain run because
/// [`stable_reports_match_goldens_in_three_processes`] runs it in child
/// processes.
#[test]
#[ignore = "run in child processes by stable_reports_match_goldens_in_three_processes"]
fn stable_reports_match_goldens() {
    let mismatches: Vec<String> = [
        ("twenty.txt", twenty()),
        ("fixtures.txt", fixtures()),
        ("reflection_resolve.txt", reflection_resolve()),
        ("ablations.txt", ablations()),
        ("counters.txt", counters()),
    ]
    .iter()
    .filter_map(|(name, actual)| check(name, actual).err())
    .map(|path| path.display().to_string())
    .collect();
    assert!(
        mismatches.is_empty(),
        "stable reports differ from tests/golden; actual output written to {mismatches:?}"
    );
}

#[test]
fn stable_reports_match_goldens_in_three_processes() {
    let exe = std::env::current_exe().expect("test binary path");
    for run in 1..=3 {
        let out = std::process::Command::new(&exe)
            .args(["stable_reports_match_goldens", "--exact", "--ignored"])
            .output()
            .expect("spawn child test process");
        assert!(
            out.status.success(),
            "process {run} of 3 failed:\n{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
