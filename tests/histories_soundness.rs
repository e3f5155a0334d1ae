//! Soundness regression for the message-history refutation stage.
//!
//! The pipeline runs with and without `--no-histories` over the 20-app
//! dataset, the figure apps, the prefilter fixture, and the protocol
//! fixture family. The stage may only *partition* the surviving report
//! set: reports with histories = reports without, minus exactly the
//! history-pruned pairs, and no pair on a ground-truth true race may be
//! discharged. On the protocol fixtures the stage must discharge every
//! planted false positive — one per refutation pattern — and keep every
//! planted true race.

use corpus::{protocol_idioms, twenty, GroundTruth, RaceLabel};
use pointer::Access;
use sierra_core::{Sierra, SierraConfig, SierraResult, Stage, Verdict};
use std::collections::HashSet;

fn pair_key(a: &Access, b: &Access) -> String {
    format!("{:?}@{:?} vs {:?}@{:?}", a.addr, a.action, b.addr, b.action)
}

fn field_group(result: &SierraResult, field: apir::FieldId) -> (String, String) {
    let p = &result.harness.app.program;
    let f = p.field(field);
    (p.class_name(f.class).to_owned(), p.name(f.name).to_owned())
}

fn reported_groups(result: &SierraResult) -> Vec<(String, String)> {
    result
        .races
        .iter()
        .map(|race| field_group(result, race.field))
        .collect()
}

fn check_partition(name: &str, app: android_model::AndroidApp, truth: &GroundTruth) {
    let with = Sierra::new().analyze_app(app.clone());
    let without = Sierra::with_config(SierraConfig::builder().without(Stage::Histories).build())
        .analyze_app(app);

    assert!(with.stages.contains(Stage::Histories), "{name}");
    assert!(!without.stages.contains(Stage::Histories), "{name}");

    // The ablated run must not carry any history verdicts.
    assert!(
        without
            .pruned
            .iter()
            .all(|p| !matches!(p.verdict, Verdict::History { .. })),
        "{name}: --no-histories still emitted history verdicts"
    );

    // The stage only partitions: reports with = reports without, minus
    // exactly the history-pruned pairs. Non-history prunes are identical.
    let history_keys: HashSet<String> = with
        .pruned
        .iter()
        .filter(|p| matches!(p.verdict, Verdict::History { .. }))
        .map(|p| pair_key(&p.a, &p.b))
        .collect();
    let other_prunes = |r: &SierraResult| -> Vec<String> {
        r.pruned
            .iter()
            .filter(|p| !matches!(p.verdict, Verdict::History { .. }))
            .map(|p| pair_key(&p.a, &p.b))
            .collect::<Vec<_>>()
    };
    assert_eq!(other_prunes(&with), other_prunes(&without), "{name}");
    let with_keys: Vec<String> = with.races.iter().map(|r| pair_key(&r.a, &r.b)).collect();
    let expected: Vec<String> = without
        .races
        .iter()
        .map(|r| pair_key(&r.a, &r.b))
        .filter(|k| !history_keys.contains(k))
        .collect();
    assert_eq!(with_keys, expected, "{name}");
    assert_eq!(
        with.metrics.histories.discharged_total(),
        history_keys.len(),
        "{name}: counters must match the emitted verdicts"
    );

    // No discharged pair may sit on a ground-truth true race.
    for p in &with.pruned {
        if !matches!(p.verdict, Verdict::History { .. }) {
            continue;
        }
        let (class, field) = field_group(&with, p.a.field);
        let label = truth.classify(&class, &field);
        assert!(
            !label.is_some_and(|l| l.is_true_race()),
            "{name}: histories discharged true race {class}.{field}"
        );
    }

    // Scores: the stage must not cost a single true race.
    let gw = reported_groups(&with);
    let go = reported_groups(&without);
    let ew = truth.evaluate(gw.iter().map(|(c, f)| (c.as_str(), f.as_str())));
    let eo = truth.evaluate(go.iter().map(|(c, f)| (c.as_str(), f.as_str())));
    assert_eq!(ew.missed, eo.missed, "{name}: discharge added misses");
    assert_eq!(
        ew.true_races, eo.true_races,
        "{name}: discharge lost true races"
    );
}

#[test]
fn histories_never_drop_a_true_race_across_the_corpus() {
    for (spec, app, truth) in twenty::build_all() {
        check_partition(spec.name, app, &truth);
    }
    for (name, (app, truth)) in [
        ("fig1", corpus::figures::intra_component()),
        ("fig2", corpus::figures::inter_component()),
        ("fig8", corpus::figures::open_sudoku_guard()),
        (
            "prefilter-idioms",
            corpus::prefilter_idioms::prefilter_idioms_app(),
        ),
    ] {
        check_partition(name, app, &truth);
    }
    for (name, app, truth) in protocol_idioms::build_all() {
        check_partition(name, app, &truth);
    }
}

#[test]
fn protocol_fixtures_discharge_every_planted_fp_and_no_true_race() {
    for (name, app, truth) in protocol_idioms::build_all() {
        let result = Sierra::new().analyze_app(app);
        let groups = reported_groups(&result);
        let eval = truth.evaluate(groups.iter().map(|(c, f)| (c.as_str(), f.as_str())));
        assert_eq!(eval.missed, 0, "{name}: lost a true race: {groups:?}");
        assert_eq!(
            eval.false_positives, 0,
            "{name}: a planted FP survived the histories stage: {groups:?}"
        );
        assert_eq!(eval.unplanted, 0, "{name}: noise reports: {groups:?}");

        // Every planted Refutable field is discharged by a History verdict.
        for planted in &truth.planted {
            if planted.label != RaceLabel::Refutable {
                continue;
            }
            let discharged = result.pruned.iter().any(|p| {
                let (class, field) = field_group(&result, p.a.field);
                matches!(p.verdict, Verdict::History { .. })
                    && class == planted.class
                    && field == planted.field
            });
            assert!(
                discharged,
                "{name}: {}.{} was not discharged by the histories stage",
                planted.class, planted.field
            );
        }
    }
}

#[test]
fn protocol_fixtures_hit_each_refutation_pattern() {
    let metrics = |app| Sierra::new().analyze_app(app).metrics.histories;

    let (app, _) = protocol_idioms::dialog_dismiss();
    let s = metrics(app);
    assert_eq!(s.discharged_destroy, 1, "dialog: destroy-dominates: {s:?}");
    assert_eq!(s.discharged_total(), 1, "{s:?}");

    // The fragment re-attaches after a restart, so the callback exists
    // once per Start instance — both instances discharge.
    let (app, _) = protocol_idioms::fragment_detach();
    let s = metrics(app);
    assert_eq!(s.discharged_pause, 2, "fragment: pause-quiesced: {s:?}");
    assert_eq!(s.discharged_total(), 2, "{s:?}");

    let (app, _) = protocol_idioms::task_cancel();
    let s = metrics(app);
    assert_eq!(
        s.discharged_unregistered, 1,
        "task: unregistered-before-posted: {s:?}"
    );
    assert_eq!(s.discharged_total(), 1, "{s:?}");
    assert!(s.dead_callbacks >= 1, "the cancelled post is dead: {s:?}");

    let (app, _) = protocol_idioms::pause_unregister();
    let s = metrics(app);
    assert_eq!(s.discharged_pause, 1, "pause: pause-quiesced: {s:?}");
    assert_eq!(s.discharged_total(), 1, "{s:?}");
}

#[test]
fn ablated_run_renders_without_any_histories_trace() {
    let (app, _) = protocol_idioms::pause_unregister();
    let result = Sierra::with_config(SierraConfig::builder().without(Stage::Histories).build())
        .analyze_app(app.clone());
    let text = format!("{result}");
    assert!(
        !text.lines().any(|l| l.starts_with("histories:")),
        "--no-histories must render the pre-stage pipeline: {text}"
    );

    // And the default run differs from the ablation only by the
    // discharged pairs and the stage's own report line.
    let with = Sierra::new().analyze_app(app);
    let with_text = format!("{with}");
    assert!(with_text.lines().any(|l| l.starts_with("histories:")));
}
