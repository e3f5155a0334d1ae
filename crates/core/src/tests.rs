//! End-to-end pipeline tests on the paper's figure apps.

use crate::{Priority, Sierra, SierraConfig, Stage, StageSet, StageTimings};
use corpus::{figures, RaceLabel};

fn reported_groups(result: &crate::SierraResult) -> Vec<(String, String)> {
    let p = &result.harness.app.program;
    result
        .races
        .iter()
        .map(|r| {
            let f = p.field(r.field);
            (p.class_name(f.class).to_owned(), p.name(f.name).to_owned())
        })
        .collect()
}

#[test]
fn figure_1_intra_component_race_is_detected() {
    let (app, truth) = figures::intra_component();
    let result = Sierra::new().analyze_app(app);
    let groups = reported_groups(&result);
    let eval = truth.evaluate(groups.iter().map(|(c, f)| (c.as_str(), f.as_str())));
    assert!(
        eval.true_races >= 1,
        "the adapter.data race must be found: {groups:?}"
    );
    assert_eq!(eval.missed, 0);
    // The lifecycle-ordered adapter field must not be reported.
    assert!(
        truth.classify("com.example.NewsActivity", "adapter") == Some(RaceLabel::Ordered)
            && !groups.iter().any(|(_, f)| f == "adapter"),
        "ordered accesses must not be racy pairs: {groups:?}"
    );
    assert_eq!(result.harness_count, 1);
    assert!(result.action_count > 10);
    assert!(result.hb_edges > 0);
    assert!(result.hb_percent() > 0.0 && result.hb_percent() <= 100.0);
}

#[test]
fn figure_2_inter_component_race_is_detected() {
    let (app, truth) = figures::inter_component();
    let result = Sierra::new().analyze_app(app);
    let groups = reported_groups(&result);
    let eval = truth.evaluate(groups.iter().map(|(c, f)| (c.as_str(), f.as_str())));
    assert_eq!(
        eval.missed, 0,
        "both Figure 2 races must be found: {groups:?}"
    );
    assert!(eval.true_races >= 2);
    // The mDB pointer race ranks at app priority with a pointer field.
    let mdb = result
        .races
        .iter()
        .find(|r| result.harness.app.program.field_name(r.field) == "mDB")
        .expect("mDB race reported");
    assert!(mdb.pointer_field);
    assert_eq!(mdb.priority, Priority::App);
}

#[test]
fn figure_8_guarded_pair_is_refuted_but_guard_reported() {
    let (app, truth) = figures::open_sudoku_guard();
    let result = Sierra::new().analyze_app(app);
    let groups = reported_groups(&result);
    assert!(
        !groups.iter().any(|(_, f)| f == "mAccumTime"),
        "refutation must remove the guarded pair: {groups:?}"
    );
    assert!(
        groups.iter().any(|(_, f)| f == "mIsRunning"),
        "the benign guard race itself is still reported: {groups:?}"
    );
    let eval = truth.evaluate(groups.iter().map(|(c, f)| (c.as_str(), f.as_str())));
    assert_eq!(eval.false_positives, 0);
    assert!(result.metrics.refuter.refuted >= 1);
}

#[test]
fn message_guard_is_refuted_by_constant_propagation() {
    let (app, _) = figures::message_guard();
    let result = Sierra::new().analyze_app(app);
    let groups = reported_groups(&result);
    assert!(
        !groups.iter().any(|(_, f)| f == "msgSlot"),
        "what-code guarded pair must refute: {groups:?}"
    );
}

#[test]
fn implicit_dependency_is_reported_as_designed() {
    let (app, truth) = figures::open_manager_implicit();
    let result = Sierra::new().analyze_app(app);
    let groups = reported_groups(&result);
    let eval = truth.evaluate(groups.iter().map(|(c, f)| (c.as_str(), f.as_str())));
    assert_eq!(
        eval.false_positives, 1,
        "SIERRA reports the implicit dep (§6.5): {groups:?}"
    );
}

#[test]
fn action_sensitivity_does_not_increase_racy_pairs() {
    let (app, _) = figures::intra_component();
    let config = SierraConfig::builder().with(Stage::Compare).build();
    let result = Sierra::with_config(config).analyze_app(app);
    assert!(result.stages.contains(Stage::Compare));
    assert!(
        result.racy_pairs_with_as <= result.racy_pairs_without_as,
        "AS must only remove pairs ({} vs {})",
        result.racy_pairs_with_as,
        result.racy_pairs_without_as
    );
}

#[test]
fn skip_refutation_reports_every_racy_pair() {
    let (app, _) = figures::open_sudoku_guard();
    let config = SierraConfig::builder().without(Stage::Refute).build();
    let with = Sierra::with_config(config).analyze_app(app);
    let (app2, _) = figures::open_sudoku_guard();
    let without = Sierra::new().analyze_app(app2);
    assert!(with.races.len() >= without.races.len());
    assert_eq!(with.races.len(), with.racy_pairs_with_as);
}

#[test]
fn metrics_are_populated() {
    let (app, _) = figures::intra_component();
    let result = Sierra::new().analyze_app(app);
    let t = &result.metrics.timings;
    assert!(t.total >= t.of(Stage::Pointer));
    assert!(t.total >= t.of(Stage::Refute));
    assert!(t.total.as_nanos() > 0);
    // The stage counters carry through from solver, SHBG, and refuter.
    assert!(result.metrics.pointer.worklist_iterations > 0);
    assert!(result.metrics.pointer.cg_edges > 0);
    assert_eq!(
        result.metrics.pointer.cg_edges,
        result.analysis.cg_edge_count()
    );
    assert!(result.metrics.shbg.total_applications() >= result.metrics.shbg.total_accepted());
    assert_eq!(
        result.metrics.shbg.total_accepted(),
        result.shbg.edges.len()
    );
    assert!(result.metrics.shbg.fixpoint_rounds >= 1);
    assert!(result.metrics.refuter.queries >= result.metrics.refuter.refuted);
}

#[test]
fn staged_session_matches_one_shot_run() {
    let (app, _) = figures::inter_component();
    let sierra = Sierra::with_config(SierraConfig::builder().with(Stage::Compare).build());
    let one_shot = sierra.analyze_app(app.clone());
    let mut session = sierra.session(app);
    session.harness().expect("harness stage runs");
    session.pointer().expect("pointer stage runs");
    session.shbg().expect("shbg stage runs");
    let n_candidates = session.candidates().expect("candidate stage runs").len();
    let n_kept = session
        .prefilter()
        .expect("prefilter stage runs")
        .kept
        .len();
    let n_pruned = session
        .prefilter()
        .expect("prefilter stage runs")
        .pruned
        .len();
    assert_eq!(n_kept + n_pruned, n_candidates);
    let n_races = session.refute().expect("refute stage runs").len();
    let staged = session.finish().expect("session finishes");
    assert_eq!(staged.racy_pairs_with_as, n_candidates);
    assert_eq!(staged.pruned.len(), n_pruned);
    assert_eq!(staged.races.len(), n_races);
    assert_eq!(staged.racy_pairs_with_as, one_shot.racy_pairs_with_as);
    assert!(staged.stages.contains(Stage::Compare) && one_shot.stages.contains(Stage::Compare));
    assert_eq!(staged.racy_pairs_without_as, one_shot.racy_pairs_without_as);
    assert_eq!(staged.races.len(), one_shot.races.len());
    assert_eq!(staged.hb_edges, one_shot.hb_edges);
    assert_eq!(
        staged.metrics.pointer.worklist_iterations,
        one_shot.metrics.pointer.worklist_iterations
    );
}

#[test]
fn race_reports_describe_readably() {
    let (app, _) = figures::inter_component();
    let result = Sierra::new().analyze_app(app);
    let p = &result.harness.app.program;
    for r in &result.races {
        let d = r.describe(p, &result.analysis.actions);
        assert!(d.contains("race on"), "{d}");
    }
}

#[test]
fn display_and_dot_outputs_are_complete() {
    let (app, _) = figures::inter_component();
    let result = Sierra::new().analyze_app(app);
    let text = result.to_string();
    assert!(text.contains("harnesses"));
    assert!(text.contains("after refutation"));
    assert!(text.contains("race on"), "{text}");
    assert!(text.contains("worklist iterations"), "{text}");
    assert!(text.contains("rule applications"), "{text}");
    assert!(text.contains("prefilter:"), "{text}");
    assert!(text.contains("candidate pairs pruned"), "{text}");
    let dot = result.shbg_dot();
    assert!(dot.starts_with("digraph shbg {"));
    assert!(dot.contains("Lifecycle"), "rule labels present");
    assert!(dot.contains("->"));
    assert!(dot.ends_with("}\n"));
}

#[test]
fn triage_fixture_classifies_each_harm_variant() {
    let (app, truth) = corpus::triage_idioms::triage_idioms_app();
    let result = Sierra::new().analyze_app(app);
    assert!(result.stages.contains(Stage::Triage));
    let p = &result.harness.app.program;
    // Highest harm reported per field.
    let mut by_field: std::collections::BTreeMap<String, crate::Harm> =
        std::collections::BTreeMap::new();
    for r in &result.races {
        let harm = r.triage.as_ref().expect("triage ran").harm;
        let name = p.field_name(r.field).to_owned();
        by_field
            .entry(name)
            .and_modify(|h| *h = (*h).max(harm))
            .or_insert(harm);
    }
    assert_eq!(
        by_field.get("conn"),
        Some(&crate::Harm::NullDeref),
        "{by_field:?}"
    );
    assert_eq!(
        by_field.get("title"),
        Some(&crate::Harm::UseBeforeInit),
        "{by_field:?}"
    );
    assert_eq!(
        by_field.get("count"),
        Some(&crate::Harm::ValueInconsistency),
        "{by_field:?}"
    );
    assert_eq!(
        by_field.get("done"),
        Some(&crate::Harm::LikelyBenign),
        "{by_field:?}"
    );
    // Ground-truth harm scoring: everything crash-labeled is flagged,
    // nothing else is.
    let verdicts: Vec<(String, String, bool)> = result
        .races
        .iter()
        .map(|r| {
            let f = p.field(r.field);
            (
                p.class_name(f.class).to_owned(),
                p.name(f.name).to_owned(),
                r.triage.as_ref().expect("triage ran").harm.is_crash(),
            )
        })
        .collect();
    let eval = truth.evaluate_harm(
        verdicts
            .iter()
            .map(|(c, f, x)| (c.as_str(), f.as_str(), *x)),
    );
    assert_eq!(eval.precision(), 1.0, "{eval:?}");
    assert_eq!(eval.recall(), 1.0, "{eval:?}");
    // Witnesses carry the reading action and a usable summary.
    for r in &result.races {
        let t = r.triage.as_ref().expect("triage ran");
        assert_eq!(t.witness.field, r.field);
        assert!(!t.witness.summary.is_empty());
    }
}

#[test]
fn min_harm_filters_reports_below_the_threshold() {
    let (app, _) = corpus::triage_idioms::triage_idioms_app();
    let cfg = SierraConfig::builder()
        .min_harm(crate::Harm::UseBeforeInit)
        .build();
    let result = Sierra::with_config(cfg).analyze_app(app);
    assert!(!result.races.is_empty());
    let p = &result.harness.app.program;
    for r in &result.races {
        let harm = r.triage.as_ref().expect("triage ran").harm;
        assert!(
            harm >= crate::Harm::UseBeforeInit,
            "{} classified {harm} must be filtered",
            p.field_name(r.field)
        );
    }
    let fields: Vec<&str> = result.races.iter().map(|r| p.field_name(r.field)).collect();
    assert!(
        fields.contains(&"conn") && fields.contains(&"title"),
        "{fields:?}"
    );
    assert!(
        !fields.contains(&"count") && !fields.contains(&"done"),
        "{fields:?}"
    );
}

#[test]
fn no_triage_restores_unannotated_reports() {
    let (app, _) = corpus::triage_idioms::triage_idioms_app();
    let plain = Sierra::with_config(SierraConfig::builder().without(Stage::Triage).build())
        .analyze_app(app.clone());
    let triaged = Sierra::new().analyze_app(app);
    assert!(!plain.stages.contains(Stage::Triage));
    let text = plain.to_string();
    assert!(!text.contains("triage:"), "{text}");
    assert!(!text.contains("harm="), "{text}");
    assert_eq!(plain.metrics.triage, crate::TriageStats::default());
    // Modulo the appended annotation, the ranked reports are identical.
    let lines = |r: &crate::SierraResult| {
        let p = &r.harness.app.program;
        r.races
            .iter()
            .map(|race| {
                let d = race.describe(p, &r.analysis.actions);
                d.split(" harm=").next().expect("non-empty").to_owned()
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(lines(&plain), lines(&triaged));
    let annotated = triaged.to_string();
    assert!(annotated.contains("triage:"), "{annotated}");
    assert!(annotated.contains("harm=null-deref"), "{annotated}");
}

#[test]
fn indexed_buffer_idiom_detects_same_slot_race_only() {
    let mut app = android_model::AndroidAppBuilder::new("Idx");
    let mut truth = corpus::GroundTruth::new();
    corpus::Idiom::IndexedBuffer.plant(&mut app, "com.idx.Main", &mut truth);
    let result = Sierra::new().analyze_app(app.finish().unwrap());
    let groups = reported_groups(&result);
    assert!(
        groups.iter().any(|(_, f)| f == "idx1"),
        "same-slot race must be reported: {groups:?}"
    );
    assert!(
        !groups
            .iter()
            .any(|(_, f)| f == "idx2" || f == "idx0" || f == "contents"),
        "distinct slots must not race: {groups:?}"
    );
    let eval = truth.evaluate(groups.iter().map(|(c, f)| (c.as_str(), f.as_str())));
    assert_eq!(eval.missed, 0);
    assert_eq!(eval.false_positives, 0);
}

#[test]
fn reflection_race_needs_resolve_policy() {
    use crate::OpaquePolicy;
    let (app, truth) = corpus::reflection_idioms::reflection_idioms_app();

    let ignored = Sierra::new().analyze_app(app.clone());
    let groups = reported_groups(&ignored);
    let eval = truth.evaluate(groups.iter().map(|(c, f)| (c.as_str(), f.as_str())));
    assert_eq!(
        eval.true_races, 0,
        "reflective race must be invisible under ignore: {groups:?}"
    );

    for policy in [OpaquePolicy::Resolve, OpaquePolicy::Havoc] {
        let cfg = SierraConfig::builder().opaque_policy(policy).build();
        let found = Sierra::with_config(cfg).analyze_app(app.clone());
        let groups = reported_groups(&found);
        let eval = truth.evaluate(groups.iter().map(|(c, f)| (c.as_str(), f.as_str())));
        assert_eq!(
            eval.missed, 0,
            "{policy} must surface the reflective race: {groups:?}"
        );
    }
}

#[test]
fn intent_race_needs_resolve_policy() {
    use crate::OpaquePolicy;
    let (app, truth) = corpus::reflection_idioms::intent_idioms_app();

    let ignored = Sierra::new().analyze_app(app.clone());
    let groups = reported_groups(&ignored);
    let eval = truth.evaluate(groups.iter().map(|(c, f)| (c.as_str(), f.as_str())));
    assert_eq!(
        eval.true_races, 0,
        "intent-launched race must be invisible under ignore: {groups:?}"
    );

    for policy in [OpaquePolicy::Resolve, OpaquePolicy::Havoc] {
        let cfg = SierraConfig::builder().opaque_policy(policy).build();
        let found = Sierra::with_config(cfg).analyze_app(app.clone());
        let groups = reported_groups(&found);
        let eval = truth.evaluate(groups.iter().map(|(c, f)| (c.as_str(), f.as_str())));
        assert_eq!(
            eval.missed, 0,
            "{policy} must surface the intent-launched race: {groups:?}"
        );
    }
}

#[test]
fn soundness_section_renders_only_under_non_ignore_policies() {
    use crate::{OpaquePolicy, Report};
    let (app, _) = corpus::reflection_idioms::reflection_idioms_app();

    let ignored = Sierra::new().analyze_app(app.clone());
    let stable = Report::from_result(&ignored).render_stable();
    assert!(
        !stable.contains("soundness:"),
        "ignore output must match the pre-soundness-modes report: {stable}"
    );
    // The audit still runs and measures the gap ignore leaves.
    assert!(ignored.metrics.soundness.reflective_sites >= 3);

    let cfg = SierraConfig::builder()
        .opaque_policy(OpaquePolicy::Resolve)
        .build();
    let resolved = Sierra::with_config(cfg).analyze_app(app);
    let report = Report::from_result(&resolved);
    let stable = report.render_stable();
    assert!(stable.contains("soundness:"), "{stable}");
    let json = report.render_json().render();
    assert!(json.contains("\"soundness\""), "{json}");
    assert!(
        resolved.metrics.soundness.recall_pct() >= ignored.metrics.soundness.recall_pct(),
        "resolve can only raise callback recall"
    );
}

/// The comparison pass links the summaries its own hybrid analysis
/// reaches through the main pass's store (sound because summaries read
/// no config), so its count must equal a standalone hybrid session's.
#[test]
fn comparison_pass_reuses_summaries_soundly_across_corpora_and_policies() {
    use crate::{OpaquePolicy, SessionBuilder};
    use pointer::SelectorKind;

    const SEED: u64 = 0x00c0_4a2e_5eed; // vary to sweep other F-Droid apps
    let mut rng = sierra_prng::SplitMix64::new(SEED);
    let mut apps: Vec<_> = corpus::twenty::build_all()
        .into_iter()
        .map(|(spec, app, _)| (spec.name.to_owned(), app))
        .collect();
    for _ in 0..4 {
        let i = rng.usize(corpus::fdroid::APP_COUNT);
        apps.push((format!("fdroid app{i:03}"), corpus::fdroid::build_app(i).0));
    }
    apps.push((
        "Reflection".into(),
        corpus::reflection_idioms::reflection_idioms_app().0,
    ));
    apps.push((
        "Intent".into(),
        corpus::reflection_idioms::intent_idioms_app().0,
    ));

    for (name, app) in &apps {
        for policy in [
            OpaquePolicy::Ignore,
            OpaquePolicy::Resolve,
            OpaquePolicy::Havoc,
        ] {
            let cfg = SierraConfig::builder()
                .opaque_policy(policy)
                .with(Stage::Compare)
                .build();
            let hybrid = match cfg.selector {
                SelectorKind::ActionSensitive(k) => SelectorKind::Hybrid(k),
                other => panic!("default selector {other:?} is not action-sensitive"),
            };
            let result = Sierra::with_config(cfg).analyze_app(app.clone());
            let harness = std::sync::Arc::clone(&result.harness);
            let context = format!("{name} ({SEED:#x}) under {policy}");
            let hybrid_cfg = SierraConfig {
                selector: hybrid,
                ..cfg
            };
            let standalone = SessionBuilder::new(hybrid_cfg)
                .harness(harness)
                .build()
                .and_then(|mut session| session.candidates().map(<[_]>::len))
                .expect("pipeline runs");
            assert_eq!(result.racy_pairs_without_as, standalone, "{context}");
        }
    }
}

#[test]
fn removing_refute_also_removes_prefilter_and_histories() {
    let set = StageSet::ALL.without(Stage::Refute);
    for stage in [Stage::Prefilter, Stage::Refute, Stage::Histories] {
        assert!(!set.contains(stage), "{stage} dropped with refute");
    }
    for stage in [Stage::Triage, Stage::Compare] {
        assert!(set.contains(stage), "{stage} is independent of refute");
    }
    // Every other removal drops exactly the stage named.
    let set = StageSet::ALL.without(Stage::Prefilter);
    assert!(!set.contains(Stage::Prefilter));
    assert!(set.contains(Stage::Refute) && set.contains(Stage::Histories));
    // The core stages feed every later one and cannot be removed.
    for core in [
        Stage::Harness,
        Stage::Pointer,
        Stage::Shbg,
        Stage::Candidates,
    ] {
        assert_eq!(StageSet::ALL.without(core), StageSet::ALL, "{core}");
        assert!(set.without(core).contains(core), "{core}");
    }
}

#[test]
fn the_comparison_pass_is_opt_in_and_with_undoes_without() {
    assert_eq!(SierraConfig::default().stages, StageSet::DEFAULT);
    assert!(!StageSet::DEFAULT.contains(Stage::Compare));
    assert_eq!(StageSet::DEFAULT.with(Stage::Compare), StageSet::ALL);
    assert_eq!(StageSet::ALL.without(Stage::Compare), StageSet::DEFAULT);
    for stage in [
        Stage::Prefilter,
        Stage::Histories,
        Stage::Triage,
        Stage::Compare,
    ] {
        assert_eq!(
            StageSet::ALL.without(stage).with(stage),
            StageSet::ALL,
            "{stage}"
        );
    }
}

#[test]
fn a_run_without_the_comparison_pass_renders_no_without_as_count() {
    use crate::Report;
    let (app, _) = figures::intra_component();
    let plain = Sierra::new().analyze_app(app.clone());
    let config = SierraConfig::builder().with(Stage::Compare).build();
    let compared = Sierra::with_config(config).analyze_app(app);
    assert_eq!(plain.stages, StageSet::DEFAULT);
    assert_eq!(compared.stages, StageSet::ALL);
    let compare_time = plain.metrics.timings.of(Stage::Compare);
    assert_eq!(compare_time, std::time::Duration::ZERO);

    let (plain, compared) = (Report::from_result(&plain), Report::from_result(&compared));
    assert_eq!(plain.racy_pairs_without_as, None);
    let text = plain.render_text();
    assert!(!text.contains("without action-sensitivity"), "{text}");
    assert!(!text.contains("Compare"), "{text}");
    let json = plain.render_json().render();
    assert!(!json.contains("without_as"), "{json}");
    assert!(!json.contains("\"compare\""), "{json}");

    let text = compared.render_text();
    assert!(text.contains("(without action-sensitivity: "), "{text}");
    assert!(text.contains(" ms, Compare "), "{text}");
    let json = compared.render_json().render();
    assert!(json.contains("\"racy_pairs_without_as\":"), "{json}");
    assert!(json.contains("\"compare\":"), "{json}");
}

#[test]
fn stage_times_fit_in_the_total_and_removed_stages_record_nothing() {
    use std::time::Duration;
    // Every stage, the opt-in comparison pass included.
    let all = SierraConfig::builder().with(Stage::Compare);
    let mut apps: Vec<_> = corpus::twenty::build_all()
        .into_iter()
        .map(|(_, app, _)| app)
        .collect();
    apps.extend(
        corpus::protocol_idioms::build_all()
            .into_iter()
            .map(|(_, app, _)| app),
    );
    for idiom in [
        corpus::prefilter_idioms::prefilter_idioms_app,
        corpus::triage_idioms::triage_idioms_app,
        corpus::reflection_idioms::reflection_idioms_app,
        corpus::reflection_idioms::intent_idioms_app,
    ] {
        apps.push(idiom().0);
    }
    // The stage times and the unattributed remainder add up to the
    // total exactly.
    let fits = |t: &StageTimings| {
        let sum: Duration = Stage::ALL.iter().map(|&s| t.of(s)).sum();
        sum + t.unattributed() == t.total
    };
    for app in apps {
        let full = Sierra::with_config(all.build()).analyze_app(app.clone());
        let t = full.metrics.timings;
        assert!(fits(&t), "{}: {t:?}", app.name);
        let listed: Vec<String> = t.listing(full.stages).map(|(name, ..)| name).collect();
        let mut expected: Vec<String> = Stage::ALL.iter().map(Stage::to_string).collect();
        expected.extend(["unattributed", "total"].map(String::from));
        assert_eq!(listed, expected, "{}", app.name);

        for removed in Stage::ALL {
            let cfg = all.without(removed).build();
            if cfg.stages == StageSet::ALL {
                continue; // a core stage: it cannot be removed
            }
            let r = Sierra::with_config(cfg).analyze_app(app.clone());
            let m = &r.metrics;
            assert_eq!(r.stages, cfg.stages);
            for stage in Stage::ALL.into_iter().filter(|&s| !cfg.stages.contains(s)) {
                assert_eq!(
                    m.timings.of(stage),
                    Duration::ZERO,
                    "{stage} without {removed}"
                );
            }
            assert!(fits(&m.timings), "{} without {removed}", app.name);
            let zero = match removed {
                Stage::Prefilter => m.prefilter == Default::default(),
                Stage::Refute => m.refuter == Default::default(),
                Stage::Histories => m.histories == Default::default(),
                Stage::Triage => m.triage == Default::default(),
                _ => r.racy_pairs_without_as == 0,
            };
            assert!(zero, "{removed} recorded counters while removed");
        }
    }
}

#[test]
fn refute_does_no_histories_work() {
    use crate::AnalysisSession;
    use std::time::Duration;
    let (app, _) = corpus::protocol_idioms::task_cancel();
    let mut session = AnalysisSession::new(SierraConfig::default(), app);
    session.refute().expect("refute runs");
    let m = session.metrics();
    assert_eq!(m.histories, histories::HistoryStats::default());
    assert_eq!(m.timings.of(Stage::Histories), Duration::ZERO);

    session.histories().expect("histories runs");
    let h = session.metrics().histories;
    assert!(h.automaton_states > 0 && h.automaton_edges > 0 && h.components > 0);
    assert!(h.dead_callbacks >= 1, "the cancelled post is dead: {h:?}");
}
