//! Soundness regression for the pre-refutation prefilter.
//!
//! The pipeline is run with and without `--no-prefilter` over the
//! 20-app dataset, the figure apps, and the prefilter fixture. The
//! prefilter may only *partition* the candidate set: the surviving
//! reports must equal the unpruned run minus exactly the pruned pairs,
//! and no pair whose ground-truth label is a true race may be pruned.

use corpus::{prefilter_idioms, twenty, GroundTruth};
use pointer::{Access, SelectorKind};
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

fn check_app(name: &str, app: android_model::AndroidApp, truth: &GroundTruth) {
    let with = Sierra::new().analyze_app(app.clone());
    let without = Sierra::with_config(SierraConfig::builder().without(Stage::Prefilter).build())
        .analyze_app(app);

    // The prefilter only partitions the candidate set.
    assert_eq!(
        with.racy_pairs_with_as, without.racy_pairs_with_as,
        "{name}"
    );
    assert!(without.pruned.is_empty(), "{name}");

    // No pruned pair may sit on a ground-truth true race.
    for p in &with.pruned {
        let (class, field) = field_group(&with, p.a.field);
        let label = truth.classify(&class, &field);
        assert!(
            !label.is_some_and(|l| l.is_true_race()),
            "{name}: prefilter pruned true race {class}.{field} ({:?})",
            p.verdict
        );
    }

    // Reports with the prefilter = reports without, minus the pruned pairs.
    let pruned_keys: HashSet<String> = with.pruned.iter().map(|p| pair_key(&p.a, &p.b)).collect();
    let with_keys: Vec<String> = with.races.iter().map(|r| pair_key(&r.a, &r.b)).collect();
    let expected: Vec<String> = without
        .races
        .iter()
        .map(|r| pair_key(&r.a, &r.b))
        .filter(|k| !pruned_keys.contains(k))
        .collect();
    assert_eq!(with_keys, expected, "{name}");

    // Ground-truth scores: pruning must not cost a single true race.
    let gw = reported_groups(&with);
    let go = reported_groups(&without);
    let ew = truth.evaluate(gw.iter().map(|(c, f)| (c.as_str(), f.as_str())));
    let eo = truth.evaluate(go.iter().map(|(c, f)| (c.as_str(), f.as_str())));
    assert_eq!(ew.missed, eo.missed, "{name}: pruning added misses");
    assert_eq!(
        ew.true_races, eo.true_races,
        "{name}: pruning lost true races"
    );
}

#[test]
fn prefilter_never_drops_a_true_race_across_the_corpus() {
    for (spec, app, truth) in twenty::build_all() {
        check_app(spec.name, app, &truth);
    }
    for (name, (app, truth)) in [
        ("fig1", corpus::figures::intra_component()),
        ("fig2", corpus::figures::inter_component()),
        ("fig8", corpus::figures::open_sudoku_guard()),
        ("message-guard", corpus::figures::message_guard()),
        ("implicit-dep", corpus::figures::open_manager_implicit()),
        ("prefilter-idioms", prefilter_idioms::prefilter_idioms_app()),
    ] {
        check_app(name, app, &truth);
    }
}

#[test]
fn fixture_prunes_guarded_and_constprop_pairs_under_default_contexts() {
    let (app, truth) = prefilter_idioms::prefilter_idioms_app();
    let result = Sierra::new().analyze_app(app);
    let s = result.metrics.prefilter;
    assert_eq!(s.pruned_guarded, 1, "the ready-guarded cache pair");
    assert_eq!(s.pruned_constprop, 1, "the constant-dead log pair");
    assert_eq!(
        s.pruned_escape, 0,
        "action-sensitive contexts never form the Scratch pair"
    );

    // Every pruned pair carries a machine-checkable reason.
    let p = &result.harness.app.program;
    for pruned in &result.pruned {
        let reason = pruned.verdict.describe(p);
        assert!(matches!(
            pruned.verdict.tag(),
            "escape" | "guarded" | "constprop"
        ));
        match &pruned.verdict {
            Verdict::Guarded { .. } => assert!(reason.contains("ready"), "{reason}"),
            Verdict::ConstProp { .. } => assert!(reason.contains("constant-dead"), "{reason}"),
            Verdict::NonEscaping { .. } => unreachable!("no escape prunes under AS contexts"),
            Verdict::History { .. } => {
                unreachable!("no protocol-window idioms in the prefilter corpus")
            }
        }
    }

    // The benign guard itself is still reported; the pruned pairs are not.
    let groups = reported_groups(&result);
    assert!(groups.iter().any(|(_, f)| f == "ready"), "{groups:?}");
    assert!(
        !groups.iter().any(|(_, f)| f == "cache" || f == "log"),
        "{groups:?}"
    );
    let eval = truth.evaluate(groups.iter().map(|(c, f)| (c.as_str(), f.as_str())));
    assert_eq!(eval.missed, 0);
    assert_eq!(eval.false_positives, 0);
}

#[test]
fn fixture_prunes_the_conflated_scratch_pair_under_insensitive_contexts() {
    let (app, _) = prefilter_idioms::prefilter_idioms_app();
    let cfg = SierraConfig::builder()
        .selector(SelectorKind::Insensitive)
        .build();
    let result = Sierra::with_config(cfg).analyze_app(app);
    let s = result.metrics.prefilter;
    assert!(
        s.pruned_escape >= 1,
        "the conflated Scratch allocation must prune: {s:?}"
    );
    let p = &result.harness.app.program;
    assert!(
        !result.races.iter().any(|r| p.field_name(r.field) == "val"),
        "the confined Scratch.val pair must not be reported"
    );
}
