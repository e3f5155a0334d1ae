//! Table 4: efficiency — per-stage cost of the pipeline.
//!
//! The paper breaks analysis time into CG+PA (dominant), HBG construction
//! (cheap), and refutation (second-largest). Each stage is timed in
//! isolation on the medium app so the relative costs can be compared, and
//! the per-stage work counters (`StageMetrics`) are printed alongside.
//!
//! Ablation groups follow (prefilter, cycle collapse, triage, histories,
//! summary and artifact reuse, corpus throughput), and all measurements
//! are written to `BENCH_table4.json` for CI artifact upload.
//!
//! ```sh
//! cargo bench --bench table4_efficiency
//! ```

use pointer::{Access, SelectorKind};
use sierra_bench::{group, time};
use sierra_core::json::{num, obj};
use sierra_core::{Json, MemoryStore, SessionBuilder, Sierra, SierraConfig, Stage, SummaryStore};
use std::sync::Arc;
use std::time::Duration;
use symexec::{Refuter, RefuterConfig};

/// Unordered conflicting same-field pairs (the refutation stage's input),
/// without the SHBG filter — fine for timing fixtures where every
/// cross-action conflicting pair is a candidate by construction.
fn conflicting_pairs(
    accesses: &[Access],
    unordered: impl Fn(&Access, &Access) -> bool,
) -> Vec<(Access, Access)> {
    let mut pairs = Vec::new();
    for i in 0..accesses.len() {
        for j in i + 1..accesses.len() {
            let (a, b) = (&accesses[i], &accesses[j]);
            if a.action != b.action
                && (a.is_write || b.is_write)
                && a.overlaps(b)
                && unordered(a, b)
            {
                pairs.push((a.clone(), b.clone()));
            }
        }
    }
    pairs
}

fn main() {
    let (_, app, _) = sierra_bench::size_classes().remove(1); // NPR News
    group("table4_efficiency");

    let t_harness = time("stage_harness_generation", 30, || {
        harness_gen::generate(app.clone()).harness_count()
    });

    let harness = harness_gen::generate(app.clone());
    let t_cg_pa = time("stage_cg_pa", 30, || {
        pointer::analyze(&harness, SelectorKind::ActionSensitive(1))
            .actions
            .len()
    });

    let analysis = pointer::analyze(&harness, SelectorKind::ActionSensitive(1));
    let t_hbg = time("stage_hbg", 30, || {
        shbg::build(&analysis, &harness).ordered_pair_count()
    });

    let graph = shbg::build(&analysis, &harness);
    let accesses =
        pointer::collect_accesses(&analysis, &harness.app.program, Some(harness.harness_class));
    let pairs = conflicting_pairs(&accesses, |a, b| graph.unordered(a.action, b.action));
    assert!(!pairs.is_empty(), "the fixture must produce candidates");
    let t_refutation = time("stage_refutation", 30, || {
        let mut refuter = Refuter::new(&analysis, &harness.app.program, RefuterConfig::default())
            .with_message_model(harness.app.framework.message_what);
        let mut kept = 0;
        for (a, bb) in &pairs {
            if refuter.refute_pair(a, bb) != symexec::Outcome::Refuted {
                kept += 1;
            }
        }
        kept
    });

    // The work counters behind the timings (one staged run end to end).
    let result = Sierra::new().analyze_app(app.clone());
    let m = &result.metrics;
    group("table4_work_counters");
    println!(
        "pointer: {} worklist iterations, {} propagations, {} CG edges, {} contexts, {} objects, {} pts-set bytes",
        m.pointer.worklist_iterations,
        m.pointer.propagations,
        m.pointer.cg_edges,
        m.pointer.reachable_contexts,
        m.pointer.abstract_objects,
        m.pointer.pts_set_bytes
    );
    println!(
        "shbg:    {} rule applications ({} accepted) over {} fixpoint rounds, {} closure SCCs",
        m.shbg.total_applications(),
        m.shbg.total_accepted(),
        m.shbg.fixpoint_rounds,
        m.shbg.closure_sccs
    );
    println!(
        "refuter: {} paths over {} queries ({} refuted, {} budget-exhausted)",
        m.refuter.paths, m.refuter.queries, m.refuter.refuted, m.refuter.budget_exhausted
    );

    // Prefilter ablation: the stress app's GUI handlers carry pairs the
    // refuter can only resolve by exhausting its path budget, while the
    // prefilter discharges them statically. Comparing the refutation
    // stage with and without pruning shows the candidate-reduction
    // payoff end to end.
    group("prefilter_ablation");
    let run_stress = |no_prefilter: bool| {
        let app = sierra_bench::refutation_stress_app(13, 8);
        let mut cfg = SierraConfig::default();
        if no_prefilter {
            cfg.stages = cfg.stages.without(Stage::Prefilter);
        }
        Sierra::with_config(cfg).analyze_app(app)
    };
    let pf = run_stress(false);
    let stress_candidates = pf.racy_pairs_with_as;
    let pruned_pairs = pf.pruned.len();
    let reduction = pruned_pairs as f64 / stress_candidates.max(1) as f64;
    let ps = pf.metrics.prefilter;
    println!(
        "prefilter: {pruned_pairs} of {stress_candidates} stress candidates pruned ({:.1}%) — escape {}, guarded {}, constprop {}; {} infeasible edges",
        reduction * 100.0,
        ps.pruned_escape,
        ps.pruned_guarded,
        ps.pruned_constprop,
        ps.infeasible_edges
    );
    let refute_stage_mean = |no_prefilter: bool| {
        let iters = 3u32;
        let mut total = Duration::ZERO;
        for _ in 0..iters {
            total += run_stress(no_prefilter).metrics.timings.refutation;
        }
        total / iters
    };
    let t_refute_pf = refute_stage_mean(false);
    let t_refute_nopf = refute_stage_mean(true);
    println!(
        "refutation stage: {t_refute_pf:.3?} with prefilter vs {t_refute_nopf:.3?} without ({:.2}x)",
        t_refute_nopf.as_secs_f64() / t_refute_pf.as_secs_f64().max(1e-9)
    );

    // Pointer-solver ablation: online cycle collapse on a cycle-chain
    // stress app (work counters and wall clock).
    group("pointer_ablation");
    let cyc_harness = harness_gen::generate(sierra_bench::pointer_cycle_stress_app(48, 8));
    let analyze_cycles = |collapse: bool| {
        pointer::analyze_opts(
            &cyc_harness,
            SelectorKind::ActionSensitive(1),
            pointer::AnalysisOptions {
                cycle_collapse: collapse,
                ..pointer::AnalysisOptions::default()
            },
        )
    };
    let pa_on = analyze_cycles(true);
    let pa_off = analyze_cycles(false);
    assert!(
        pa_on.stats.collapsed_sccs >= 48,
        "every chained cycle must collapse, got {}",
        pa_on.stats.collapsed_sccs
    );
    assert!(
        pa_on.stats.worklist_iterations < pa_off.stats.worklist_iterations,
        "collapse must reduce worklist iterations ({} vs {})",
        pa_on.stats.worklist_iterations,
        pa_off.stats.worklist_iterations
    );
    assert!(
        pa_on.stats.propagations < pa_off.stats.propagations,
        "collapse must reduce propagations ({} vs {})",
        pa_on.stats.propagations,
        pa_off.stats.propagations
    );
    println!(
        "cycle fixture (48 cycles × 8 locals): {} SCC(s) collapsed ({} node(s)); \
         worklist iterations {} vs {} without collapse, propagations {} vs {}",
        pa_on.stats.collapsed_sccs,
        pa_on.stats.collapsed_nodes,
        pa_on.stats.worklist_iterations,
        pa_off.stats.worklist_iterations,
        pa_on.stats.propagations,
        pa_off.stats.propagations,
    );
    let t_collapse_on = time("cg_pa_cycle_collapse_on", 20, || {
        analyze_cycles(true).stats.worklist_iterations
    });
    let t_collapse_off = time("cg_pa_cycle_collapse_off", 20, || {
        analyze_cycles(false).stats.worklist_iterations
    });

    // Triage ablation: the harm classifier's work counters and crash
    // precision/recall over the whole 20-app corpus, plus the end-to-end
    // cost of the stage on the medium app (on vs `--no-triage`).
    group("triage_ablation");
    let crash_verdicts = |result: &sierra_core::SierraResult| {
        let p = &result.harness.app.program;
        let mut crash: std::collections::BTreeMap<(String, String), bool> =
            std::collections::BTreeMap::new();
        for r in &result.races {
            if let Some(t) = &r.triage {
                let f = p.field(r.field);
                *crash
                    .entry((p.class_name(f.class).to_owned(), p.name(f.name).to_owned()))
                    .or_insert(false) |= t.harm.is_crash();
            }
        }
        crash
    };
    let mut triage_stats = sierra_core::TriageStats::default();
    let mut harm_eval = corpus::HarmEval::default();
    // The twenty apps plus the triage fixture: the fixture carries the
    // crash-capable labels, the corpus the guard-derived benign ones.
    let harm_corpus = corpus::TWENTY
        .iter()
        .map(|spec| corpus::twenty::build_app(*spec))
        .chain(std::iter::once(corpus::triage_idioms::triage_idioms_app()));
    for (corpus_app, truth) in harm_corpus {
        let result = Sierra::new().analyze_app(corpus_app);
        triage_stats.merge(&result.metrics.triage);
        let verdicts = crash_verdicts(&result);
        harm_eval.merge(
            truth.evaluate_harm(
                verdicts
                    .iter()
                    .map(|((c, f), x)| (c.as_str(), f.as_str(), *x)),
            ),
        );
    }
    println!(
        "triage over the corpus + fixture: {} race(s) classified ({} null-deref, {} use-before-init, {} value-inconsistency, {} likely-benign), {} dataflow iterations over {} method(s)",
        triage_stats.classified,
        triage_stats.null_deref,
        triage_stats.use_before_init,
        triage_stats.value_inconsistency,
        triage_stats.likely_benign,
        triage_stats.dataflow_iterations,
        triage_stats.methods_analyzed,
    );
    println!(
        "crash-precision {:.2}, crash-recall {:.2} over {} harm-scored site(s)",
        harm_eval.precision(),
        harm_eval.recall(),
        harm_eval.scored
    );
    let triage_run = |no_triage: bool| {
        let mut cfg = SierraConfig::default();
        if no_triage {
            cfg.stages = cfg.stages.without(Stage::Triage);
        }
        Sierra::with_config(cfg).analyze_app(app.clone())
    };
    let t_triage_on = time("pipeline_triage_on", 10, || triage_run(false).races.len());
    let t_triage_off = time("pipeline_triage_off", 10, || triage_run(true).races.len());
    println!(
        "end-to-end with triage {t_triage_on:.3?} vs without {t_triage_off:.3?} ({:.1}% overhead)",
        (t_triage_on.as_secs_f64() / t_triage_off.as_secs_f64().max(1e-9) - 1.0) * 100.0
    );

    // Message-history ablation: the protocol-idiom fixtures each plant
    // one false positive that only the realizable-event-ordering check
    // can discharge (dialog-dismiss, fragment-detach, task-cancel,
    // pause-unregister) next to one true race it must not touch. The
    // corpus-wide counters are deterministic and gated; the end-to-end
    // timings show what the stage costs on the medium app.
    group("histories_ablation");
    let mut hist = sierra_core::HistoryStats::default();
    let mut hist_missed = 0usize;
    let mut hist_surviving_fps = 0usize;
    for (fixture, proto_app, truth) in corpus::protocol_idioms::build_all() {
        let result = Sierra::new().analyze_app(proto_app);
        let h = &result.metrics.histories;
        hist.components += h.components;
        hist.pairs_checked += h.pairs_checked;
        hist.product_edges += h.product_edges;
        hist.discharged_unregistered += h.discharged_unregistered;
        hist.discharged_destroy += h.discharged_destroy;
        hist.discharged_pause += h.discharged_pause;
        hist.dead_callbacks += h.dead_callbacks;
        hist.infeasible_exported += h.infeasible_exported;
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
        let eval = truth.evaluate(groups.iter().map(|(c, f)| (c.as_str(), f.as_str())));
        hist_missed += eval.missed;
        hist_surviving_fps += eval.false_positives + eval.unplanted;
        std::hint::black_box(fixture);
    }
    assert!(
        hist_missed == 0 && hist_surviving_fps == 0,
        "histories must discharge every planted FP and keep every true race \
         ({hist_missed} missed, {hist_surviving_fps} surviving FPs)"
    );
    println!(
        "histories over the protocol fixtures: {} pair(s) checked ({} product edges), \
         {} discharged ({} unregistered, {} destroy-dominates, {} pause-quiesced), \
         {} dead callback(s), {} infeasible edge(s) exported; 0 missed, 0 surviving FPs",
        hist.pairs_checked,
        hist.product_edges,
        hist.discharged_total(),
        hist.discharged_unregistered,
        hist.discharged_destroy,
        hist.discharged_pause,
        hist.dead_callbacks,
        hist.infeasible_exported,
    );
    let histories_run = |no_histories: bool| {
        let mut cfg = SierraConfig::default();
        if no_histories {
            cfg.stages = cfg.stages.without(Stage::Histories);
        }
        Sierra::with_config(cfg).analyze_app(app.clone())
    };
    let t_histories_on = time("pipeline_histories_on", 10, || {
        histories_run(false).races.len()
    });
    let t_histories_off = time("pipeline_histories_off", 10, || {
        histories_run(true).races.len()
    });
    println!(
        "end-to-end with histories {t_histories_on:.3?} vs without {t_histories_off:.3?} ({:.1}% overhead)",
        (t_histories_on.as_secs_f64() / t_histories_off.as_secs_f64().max(1e-9) - 1.0) * 100.0
    );

    // Summary-store reuse: the edit-pair fixture's two versions differ by
    // one method body whose edit is a points-to no-op, so a warm run over
    // a store primed with the base version recomputes exactly one summary
    // and reuses the whole points-to analysis (zero solver iterations).
    // The gated counters prove the incrementality claim; the timings show
    // what it buys.
    group("summary_reuse");
    let run_edit = |app: android_model::AndroidApp, store: Arc<dyn SummaryStore>| {
        SessionBuilder::new(SierraConfig::default())
            .app(app)
            .store(store)
            .build()
            .expect("edit-pair fixture is valid")
            .finish()
            .expect("pipeline runs")
    };
    let edit_store: Arc<dyn SummaryStore> = Arc::new(MemoryStore::new());
    let reuse_cold = run_edit(corpus::edit_pairs::base_app(), Arc::clone(&edit_store));
    let reuse_warm = run_edit(corpus::edit_pairs::edited_app(), Arc::clone(&edit_store));
    let (cold_link, warm_link) = (reuse_cold.metrics.link, reuse_warm.metrics.link);
    assert!(
        warm_link.pointer_iterations_run * 2 < cold_link.pointer_iterations_run,
        "warm solver work must stay under half of cold ({} vs {})",
        warm_link.pointer_iterations_run,
        cold_link.pointer_iterations_run
    );
    println!(
        "edit-pair warm run: {} summaries reused, {} recomputed, analysis reused: {}; \
         pointer iterations {} cold vs {} warm",
        warm_link.summaries_reused,
        warm_link.summaries_recomputed,
        warm_link.analysis_reused,
        cold_link.pointer_iterations_run,
        warm_link.pointer_iterations_run,
    );
    let t_reuse_cold = time("analysis_cold_store", 20, || {
        let fresh: Arc<dyn SummaryStore> = Arc::new(MemoryStore::new());
        run_edit(corpus::edit_pairs::base_app(), fresh).races.len()
    });
    let t_reuse_warm = time("analysis_warm_store", 20, || {
        run_edit(corpus::edit_pairs::edited_app(), Arc::clone(&edit_store))
            .races
            .len()
    });

    // Corpus throughput: the whole 20-app dataset built over one shared
    // symbol arena and analyzed back to back, recording the per-app
    // latency distribution. The p50/p99 latencies and the process peak
    // RSS are the SLO numbers `bench_gate` holds within band.
    group("corpus_throughput");
    let corpus_arena = Arc::new(apir::SymbolArena::new());
    let corpus_apps = corpus::twenty::build_all_with(Some(Arc::clone(&corpus_arena)));
    let (scratch_reused_before, _) = pointer::scratch_pool_stats();
    let mut latencies: Vec<Duration> = corpus_apps
        .into_iter()
        .map(|(_, corpus_app, _)| {
            let start = std::time::Instant::now();
            let result = Sierra::new().analyze_app(corpus_app);
            std::hint::black_box(result.races.len());
            start.elapsed()
        })
        .collect();
    latencies.sort_unstable();
    let corpus_p50 = latencies[latencies.len() / 2];
    let corpus_p99 = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];
    let (scratch_reused_after, scratch_fresh) = pointer::scratch_pool_stats();
    let scratch_reused = scratch_reused_after.saturating_sub(scratch_reused_before);
    assert!(
        scratch_reused > 0,
        "a multi-app corpus run must reuse pooled solver scratch"
    );
    let corpus_peak_rss_kb = peak_rss_kb().unwrap_or(0);
    println!(
        "corpus latency over {} apps: p50 {corpus_p50:.3?}, p99 {corpus_p99:.3?}; \
         peak RSS {corpus_peak_rss_kb} KB",
        latencies.len()
    );
    println!(
        "shared arena: {} symbols, {} bytes resident; solver scratch reused {scratch_reused} time(s) ({scratch_fresh} fresh allocations process-wide)",
        corpus_arena.len(),
        corpus_arena.bytes_resident()
    );

    // Persistent artifact reuse: the medium app analyzed by a cold
    // process (empty on-disk store) vs a warm process. Each warm
    // iteration opens a *fresh* `DiskStore` instance over the populated
    // directory — its in-memory maps start empty, so the whole
    // points-to analysis must come back through the versioned artifact
    // blob, exactly as a new OS process would see it. A shared-store
    // corpus pass then shows framework-origin summaries computed once
    // and served to every other app. The warm/cold ratio, the zero
    // warm solver iterations, and the shared counter are the numbers
    // `bench_gate` holds.
    group("artifact_reuse");
    let artifact_dir =
        std::env::temp_dir().join(format!("sierra-bench-artifacts-{}", std::process::id()));
    let run_disk = |dir: &std::path::Path| {
        let store: Arc<dyn SummaryStore> =
            Arc::new(sierra_core::DiskStore::new(dir).expect("bench cache dir"));
        SessionBuilder::new(SierraConfig::default())
            .app(app.clone())
            .store(store)
            .build()
            .expect("medium app is valid")
            .finish()
            .expect("pipeline runs")
    };
    let t_artifact_cold = time("artifact_cold_process", 10, || {
        let _ = std::fs::remove_dir_all(&artifact_dir);
        run_disk(&artifact_dir).races.len()
    });
    // The last cold iteration left the directory populated; probe one
    // warm "process" for its reuse counters before timing the rest.
    let warm_probe = run_disk(&artifact_dir);
    let artifact_warm_link = warm_probe.metrics.link;
    assert!(
        artifact_warm_link.analysis_reused,
        "a fresh store instance over a populated directory must reuse the artifact blob"
    );
    assert_eq!(
        artifact_warm_link.pointer_iterations_run, 0,
        "an artifact hit must skip the solver entirely"
    );
    assert_eq!(
        artifact_warm_link.summaries_recomputed, 0,
        "an unchanged app must reuse every summary"
    );
    let t_artifact_warm = time("artifact_warm_process", 10, || {
        run_disk(&artifact_dir).races.len()
    });
    println!(
        "artifact reuse: cold process {t_artifact_cold:.3?} vs warm process {t_artifact_warm:.3?} \
         ({:.2}x); warm run reused {} summaries, 0 solver iterations",
        t_artifact_cold.as_secs_f64() / t_artifact_warm.as_secs_f64().max(1e-9),
        artifact_warm_link.summaries_reused,
    );
    let _ = std::fs::remove_dir_all(&artifact_dir);

    // Shared-store corpus pass over the three size-class apps: private
    // per-app stores, one shared framework layer. The first app
    // populates the layer; every later app's framework-origin methods
    // are served from it instead of being re-summarized.
    let shared_pass = |layer: Option<&Arc<dyn SummaryStore>>| {
        let mut shared_hits = 0usize;
        let mut elapsed = Duration::ZERO;
        for (_, corpus_app, _) in sierra_bench::size_classes() {
            let per_app: Arc<dyn SummaryStore> = Arc::new(MemoryStore::new());
            let mut builder = SessionBuilder::new(SierraConfig::default())
                .app(corpus_app)
                .store(per_app);
            if let Some(layer) = layer {
                builder = builder.shared_store(Arc::clone(layer));
            }
            let start = std::time::Instant::now();
            let result = builder
                .build()
                .expect("size-class app is valid")
                .finish()
                .expect("pipeline runs");
            elapsed += start.elapsed();
            shared_hits += result.metrics.link.summaries_shared;
        }
        (shared_hits, elapsed)
    };
    let framework_layer: Arc<dyn SummaryStore> = Arc::new(MemoryStore::new());
    let (summaries_shared_total, t_corpus_shared) = shared_pass(Some(&framework_layer));
    let (_, t_corpus_unshared) = shared_pass(None);
    assert!(
        summaries_shared_total >= 1,
        "later apps must be served framework summaries from the shared layer"
    );
    println!(
        "shared-store corpus pass over {} apps: {} framework summaries served from the shared \
         layer; {t_corpus_shared:.3?} shared vs {t_corpus_unshared:.3?} unshared",
        sierra_bench::size_classes().len(),
        summaries_shared_total,
    );

    // Machine-readable record for the CI artifact, rendered through the
    // shared `Json` type (no serde in-tree).
    let us = |d: Duration| Json::Num(d.as_secs_f64() * 1e6);
    let json = obj(vec![
        ("bench", Json::Str("table4_efficiency".to_owned())),
        ("app", Json::Str("NPR News".to_owned())),
        (
            "stage_mean_us",
            obj(vec![
                ("harness", us(t_harness)),
                ("cg_pa", us(t_cg_pa)),
                ("hbg", us(t_hbg)),
                ("refutation", us(t_refutation)),
            ]),
        ),
        (
            "counters",
            obj(vec![
                ("worklist_iterations", num(m.pointer.worklist_iterations)),
                ("propagations", num(m.pointer.propagations)),
                ("cg_edges", num(m.pointer.cg_edges)),
                ("pts_set_bytes", num(m.pointer.pts_set_bytes)),
                ("rule_applications", num(m.shbg.total_applications())),
                ("fixpoint_rounds", num(m.shbg.fixpoint_rounds)),
                ("closure_sccs", num(m.shbg.closure_sccs)),
                ("refuter_paths", num(m.refuter.paths)),
                ("refuter_queries", num(m.refuter.queries)),
            ]),
        ),
        (
            "prefilter",
            obj(vec![
                ("stress_candidates", num(stress_candidates)),
                ("pruned_pairs", num(pruned_pairs)),
                ("reduction_ratio", Json::Num(reduction)),
                ("pruned_escape", num(ps.pruned_escape)),
                ("pruned_guarded", num(ps.pruned_guarded)),
                ("pruned_constprop", num(ps.pruned_constprop)),
                ("infeasible_edges", num(ps.infeasible_edges)),
                ("refute_with_prefilter_us", us(t_refute_pf)),
                ("refute_without_prefilter_us", us(t_refute_nopf)),
            ]),
        ),
        (
            "pointer_ablation",
            obj(vec![
                ("collapsed_sccs", num(pa_on.stats.collapsed_sccs)),
                ("collapsed_nodes", num(pa_on.stats.collapsed_nodes)),
                (
                    "worklist_iterations_collapse_on",
                    num(pa_on.stats.worklist_iterations),
                ),
                (
                    "worklist_iterations_collapse_off",
                    num(pa_off.stats.worklist_iterations),
                ),
                ("propagations_collapse_on", num(pa_on.stats.propagations)),
                ("propagations_collapse_off", num(pa_off.stats.propagations)),
                ("cg_pa_collapse_on_us", us(t_collapse_on)),
                ("cg_pa_collapse_off_us", us(t_collapse_off)),
            ]),
        ),
        (
            "triage_ablation",
            obj(vec![
                ("triage_classified", num(triage_stats.classified)),
                ("triage_null_deref", num(triage_stats.null_deref)),
                ("triage_use_before_init", num(triage_stats.use_before_init)),
                (
                    "triage_value_inconsistency",
                    num(triage_stats.value_inconsistency),
                ),
                ("triage_likely_benign", num(triage_stats.likely_benign)),
                (
                    "triage_dataflow_iterations",
                    num(triage_stats.dataflow_iterations),
                ),
                (
                    "triage_methods_analyzed",
                    num(triage_stats.methods_analyzed),
                ),
                (
                    "triage_crash_precision_pct",
                    Json::Num(harm_eval.precision() * 100.0),
                ),
                (
                    "triage_crash_recall_pct",
                    Json::Num(harm_eval.recall() * 100.0),
                ),
                ("triage_harm_scored_sites", num(harm_eval.scored)),
                ("pipeline_triage_on_us", us(t_triage_on)),
                ("pipeline_triage_off_us", us(t_triage_off)),
            ]),
        ),
        (
            "histories_ablation",
            obj(vec![
                ("hist_components", num(hist.components)),
                ("hist_pairs_checked", num(hist.pairs_checked)),
                ("hist_product_edges", num(hist.product_edges)),
                (
                    "hist_discharged_unregistered",
                    num(hist.discharged_unregistered),
                ),
                ("hist_discharged_destroy", num(hist.discharged_destroy)),
                ("hist_discharged_pause", num(hist.discharged_pause)),
                ("hist_dead_callbacks", num(hist.dead_callbacks)),
                ("hist_infeasible_exported", num(hist.infeasible_exported)),
                ("hist_corpus_missed_races", num(hist_missed)),
                ("hist_corpus_surviving_fps", num(hist_surviving_fps)),
                ("pipeline_histories_on_us", us(t_histories_on)),
                ("pipeline_histories_off_us", us(t_histories_off)),
            ]),
        ),
        (
            "summary_reuse",
            obj(vec![
                (
                    "cold_pointer_iterations",
                    num(cold_link.pointer_iterations_run),
                ),
                (
                    "warm_pointer_iterations",
                    num(warm_link.pointer_iterations_run),
                ),
                ("summaries_reused", num(warm_link.summaries_reused)),
                ("summaries_recomputed", num(warm_link.summaries_recomputed)),
                ("analysis_reused", Json::Bool(warm_link.analysis_reused)),
                ("analysis_cold_store_us", us(t_reuse_cold)),
                ("analysis_warm_store_us", us(t_reuse_warm)),
            ]),
        ),
        (
            "artifact_reuse",
            obj(vec![
                ("artifact_cold_us", us(t_artifact_cold)),
                ("artifact_warm_process_us", us(t_artifact_warm)),
                (
                    "artifact_warm_pointer_iterations",
                    num(artifact_warm_link.pointer_iterations_run),
                ),
                (
                    "artifact_warm_analysis_reused",
                    Json::Bool(artifact_warm_link.analysis_reused),
                ),
                (
                    "artifact_warm_summaries_reused",
                    num(artifact_warm_link.summaries_reused),
                ),
                ("summaries_shared", num(summaries_shared_total)),
                ("corpus_shared_us", us(t_corpus_shared)),
                ("corpus_unshared_us", us(t_corpus_unshared)),
            ]),
        ),
        (
            "corpus_throughput",
            obj(vec![
                ("corpus_apps", num(corpus::TWENTY.len())),
                ("corpus_p50_latency_us", us(corpus_p50)),
                ("corpus_p99_latency_us", us(corpus_p99)),
                ("corpus_peak_rss_kb", num(corpus_peak_rss_kb as usize)),
                ("scratch_reused", num(scratch_reused as usize)),
                ("arena_symbols", num(corpus_arena.len())),
                ("arena_bytes", num(corpus_arena.bytes_resident())),
            ]),
        ),
    ]);
    let mut rendered = json.render();
    rendered.push('\n');
    std::fs::write("BENCH_table4.json", &rendered).expect("write BENCH_table4.json");
    println!("wrote BENCH_table4.json");

    // Human-readable throughput summary, uploaded as a CI artifact.
    let throughput = format!(
        "corpus_throughput (20-app dataset, shared symbol arena)\n\
         p50 per-app latency: {:.3} ms\n\
         p99 per-app latency: {:.3} ms\n\
         peak RSS:            {corpus_peak_rss_kb} KB\n\
         scratch reused:      {scratch_reused}\n\
         arena symbols:       {}\n\
         arena bytes:         {}\n\
         \n\
         artifact_reuse (NPR News, on-disk store; shared layer over the size classes)\n\
         cold process:        {:.3} ms\n\
         warm process:        {:.3} ms\n\
         warm solver iters:   {}\n\
         summaries shared:    {summaries_shared_total}\n\
         corpus shared pass:  {:.3} ms\n\
         corpus unshared:     {:.3} ms\n",
        corpus_p50.as_secs_f64() * 1e3,
        corpus_p99.as_secs_f64() * 1e3,
        corpus_arena.len(),
        corpus_arena.bytes_resident(),
        t_artifact_cold.as_secs_f64() * 1e3,
        t_artifact_warm.as_secs_f64() * 1e3,
        artifact_warm_link.pointer_iterations_run,
        t_corpus_shared.as_secs_f64() * 1e3,
        t_corpus_unshared.as_secs_f64() * 1e3,
    );
    std::fs::write("THROUGHPUT.txt", throughput).expect("write THROUGHPUT.txt");
    println!("wrote THROUGHPUT.txt");
}

/// The process's peak resident set size in KB, from `/proc/self/status`
/// (`VmHWM`). Returns `None` off Linux or if the field is absent; the
/// RSS SLO gate skips silently-zero values via the baseline band.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
