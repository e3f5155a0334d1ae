//! End-to-end integration: the full pipeline over the corpus datasets.

use sierra::android_model::AndroidApp;
use sierra::corpus::{self, twenty, RaceLabel};
use sierra::pointer::{Access, SelectorKind};
use sierra::sierra_core::{
    describe_action, run_jobs, SessionBuilder, Sierra, SierraConfig, SierraResult, Stage,
};

fn groups(result: &SierraResult) -> Vec<(String, String)> {
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

#[test]
fn every_figure_app_matches_its_ground_truth() {
    for (label, (app, truth)) in [
        ("fig1", corpus::figures::intra_component()),
        ("fig2", corpus::figures::inter_component()),
        ("fig8", corpus::figures::open_sudoku_guard()),
        ("msg", corpus::figures::message_guard()),
    ] {
        let result = Sierra::new().analyze_app(app);
        let gs = groups(&result);
        let eval = truth.evaluate(gs.iter().map(|(c, f)| (c.as_str(), f.as_str())));
        assert_eq!(eval.missed, 0, "{label}: missed true races: {gs:?}");
        // Refutable/Ordered plants must never be reported.
        for p in &truth.planted {
            if matches!(p.label, RaceLabel::Refutable | RaceLabel::Ordered) {
                assert!(
                    !gs.iter().any(|(c, f)| *c == p.class && *f == p.field),
                    "{label}: {}.{} should have been eliminated",
                    p.class,
                    p.field
                );
            }
        }
    }
}

#[test]
fn twenty_app_dataset_invariants() {
    // Table 3's context without action sensitivity: the hybrid selector.
    let hybrid = SierraConfig::builder()
        .selector(SelectorKind::Hybrid(1))
        .build();
    for (spec, app, truth) in twenty::build_all() {
        let result = Sierra::new().analyze_app(app);
        let without_as = SessionBuilder::new(hybrid)
            .harness(std::sync::Arc::clone(&result.harness))
            .build()
            .and_then(|mut session| session.candidates().map(<[_]>::len))
            .expect("pipeline runs");
        // Structural invariants of Table 3.
        assert_eq!(
            result.harness_count,
            twenty::activity_count(spec.bytecode_kb)
        );
        assert!(result.action_count > 0, "{}", spec.name);
        assert!(result.hb_edges <= result.hb_max, "{}", spec.name);
        assert!(
            result.racy_pairs_with_as <= without_as,
            "{}: action sensitivity must only remove pairs",
            spec.name
        );
        assert!(
            result.races.len() <= result.racy_pairs_with_as,
            "{}: refutation must only remove pairs",
            spec.name
        );
        // Static analysis must not miss planted true races.
        let gs = groups(&result);
        let eval = truth.evaluate(gs.iter().map(|(c, f)| (c.as_str(), f.as_str())));
        assert_eq!(
            eval.missed, 0,
            "{}: missed true races (reported {gs:?})",
            spec.name
        );
    }
}

#[test]
fn ranked_reports_put_app_pointer_races_first() {
    let (_, app, _) = twenty::build_all().remove(1); // Astrid, the largest
    let result = Sierra::new().analyze_app(app);
    let keys: Vec<_> = result.races.iter().map(|r| r.rank_key()).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "reports are emitted in rank order");
}

#[test]
fn skipping_refutation_only_adds_reports() {
    let (app, _) = corpus::figures::open_sudoku_guard();
    let full = Sierra::new().analyze_app(app.clone());
    let skipped = Sierra::with_config(SierraConfig::builder().without(Stage::Refute).build())
        .analyze_app(app);
    let full_groups = groups(&full);
    let skipped_groups = groups(&skipped);
    for g in &full_groups {
        assert!(skipped_groups.contains(g), "refutation never adds reports");
    }
    assert!(skipped_groups.len() >= full_groups.len());
}

#[test]
fn analysis_is_deterministic() {
    let (app, _) = corpus::figures::inter_component();
    let r1 = Sierra::new().analyze_app(app.clone());
    let r2 = Sierra::new().analyze_app(app);
    assert_eq!(groups(&r1), groups(&r2));
    assert_eq!(r1.action_count, r2.action_count);
    assert_eq!(r1.hb_edges, r2.hb_edges);
    assert_eq!(r1.racy_pairs_with_as, r2.racy_pairs_with_as);
}

#[test]
fn assembled_apps_flow_through_the_whole_pipeline() {
    // The text front end (android_model::asm) is the repo's "APK" input
    // format; Figure 2's shape written as source must reach the same
    // verdicts as the builder-constructed corpus app.
    let src = r#"
class com.t.DB {
  field isOpen: bool
}
class com.t.Recv extends android.content.BroadcastReceiver {
  field outer: ref com.t.Main
  method onReceive(this, intent) {
    bb0:
      o = this.outer
      d = o.db
      x = d.isOpen
      return
  }
}
class com.t.Main extends android.app.Activity {
  field db: ref com.t.DB
  field recv: ref com.t.Recv
  method onCreate(this) {
    bb0:
      d = new com.t.DB
      this.db = d
      r = new com.t.Recv
      r.outer = this
      this.recv = r
      call virtual android.content.Context.registerReceiver(this, r)
      return
  }
  method onStop(this) {
    bb0:
      d = this.db
      d.isOpen = false
      return
  }
}
"#;
    let app = sierra::android_model::parse_app("AsmFig2", src).expect("assembles");
    let result = sierra::sierra_core::Sierra::new().analyze_app(app);
    let p = &result.harness.app.program;
    let fields: Vec<&str> = result.races.iter().map(|r| p.field_name(r.field)).collect();
    assert!(
        fields.contains(&"isOpen"),
        "receiver-vs-stop race found: {fields:?}"
    );
    assert!(
        !fields.contains(&"recv"),
        "onCreate-ordered field not racy: {fields:?}"
    );
    assert!(
        !fields.contains(&"db"),
        "db pointer only written in onCreate: {fields:?}"
    );
}

/// Each race as a key with no numbering in it: the field, each side's
/// action label (without its `A<n>:` id) and access kind, the two sides
/// sorted, then the priority, outcome and harm text.
fn race_keys(result: &SierraResult) -> Vec<String> {
    let p = &result.harness.app.program;
    let actions = &result.analysis.actions;
    let side = |a: &Access| {
        let label = describe_action(actions, a.action);
        let (_, label) = label.split_once(':').expect("labels start with an id");
        let kind = if a.is_write { "write" } else { "read" };
        format!("{label} ({kind})")
    };
    let mut keys: Vec<String> = (result.races.iter())
        .map(|r| {
            let f = p.field(r.field);
            let mut sides = [side(&r.a), side(&r.b)];
            sides.sort();
            let harm =
                (r.triage.as_ref()).map(|t| format!(" harm={} ({})", t.harm, t.witness.summary));
            format!(
                "{}.{} between {} and {} [{:?}, {:?}]{}",
                p.class_name(f.class),
                p.name(f.name),
                sides[0],
                sides[1],
                r.priority,
                r.outcome,
                harm.unwrap_or_default(),
            )
        })
        .collect();
    keys.sort();
    keys
}

#[test]
fn disassemble_reassemble_preserves_race_verdicts() {
    // Round-tripping an app through the text format must not change which
    // races the detector reports, on the figure apps and on any of the
    // 194 corpus apps.
    use sierra::android_model::{parse_app, render_app};
    let mut apps: Vec<(String, AndroidApp)> = vec![
        ("fig1".into(), corpus::figures::intra_component().0),
        ("fig2".into(), corpus::figures::inter_component().0),
        ("fig8".into(), corpus::figures::open_sudoku_guard().0),
    ];
    apps.extend(
        twenty::build_all()
            .into_iter()
            .map(|(spec, app, _)| (spec.name.to_owned(), app)),
    );
    apps.extend(corpus::fdroid::iter_apps().map(|(i, app, _)| (format!("app{i:03}"), app)));
    assert_eq!(apps.len(), 3 + 20 + 174);
    let rows = run_jobs(0, apps, |label, app| {
        let text = render_app(&app);
        let reparsed = parse_app(&app.name, &text).unwrap_or_else(|e| panic!("{label}: {e}"));
        let built = race_keys(&Sierra::new().analyze_app(app));
        let parsed = race_keys(&Sierra::new().analyze_app(reparsed));
        let only = |x: &[String], y: &[String]| -> Vec<String> {
            x.iter().filter(|k| !y.contains(k)).cloned().collect()
        };
        (built != parsed).then(|| {
            let (in_code, in_text) = (only(&built, &parsed), only(&parsed, &built));
            format!("{label}: only built in code {in_code:#?}, only parsed {in_text:#?}")
        })
    });
    let differ: Vec<String> = (rows.into_iter())
        .filter_map(|row| row.expect("analysis runs"))
        .collect();
    assert!(
        differ.is_empty(),
        "races differ after the round trip:\n{}",
        differ.join("\n")
    );
}

#[test]
fn text_round_trip_keeps_the_manifest() {
    use sierra::android_model::{parse_app, render_app, AndroidApp};
    // A component subclass the manifest leaves out (fig 2's `Recv`,
    // registered only through `registerReceiver`) must stay out of the
    // manifest parsed back from text.
    let manifest = |app: &AndroidApp| {
        let (p, m) = (&app.program, &app.manifest);
        [&m.activities, &m.receivers, &m.services].map(|list| {
            list.iter()
                .map(|&c| p.class_name(c).to_owned())
                .collect::<Vec<_>>()
        })
    };
    let reparse = |app: &AndroidApp| {
        let text = render_app(app);
        parse_app(&app.name, &text).unwrap_or_else(|e| panic!("{}: {e}", app.name))
    };
    let mut apps: Vec<AndroidApp> = twenty::build_all().into_iter().map(|(_, a, _)| a).collect();
    apps.extend(corpus::fdroid::iter_apps().map(|(_, app, _)| app));
    for figure in [
        corpus::figures::intra_component,
        corpus::figures::inter_component,
        corpus::figures::open_sudoku_guard,
        corpus::figures::open_manager_implicit,
        corpus::figures::message_guard,
    ] {
        apps.push(figure().0);
    }
    assert_eq!(apps.len(), 20 + 174 + 5);
    for app in &apps {
        assert_eq!(manifest(app), manifest(&reparse(app)), "{}", app.name);
    }

    // So fig 2 parsed from its own text reaches the bodies it reaches
    // built in code: `Recv.onReceive` is not a manifest entry point.
    let reached = |app: AndroidApp| {
        let result = Sierra::new().analyze_app(app);
        let p = &result.harness.app.program;
        let mut names: Vec<String> = (result.analysis.reachable.iter())
            .map(|&(m, _)| p.method(m))
            .filter(|m| m.has_body())
            .map(|m| format!("{}.{}", p.class_name(m.class), p.name(m.name)))
            .collect();
        names.sort();
        names.dedup();
        names
    };
    let (fig2, _) = corpus::figures::inter_component();
    let from_text = reparse(&fig2);
    assert_eq!(reached(fig2), reached(from_text));
}
