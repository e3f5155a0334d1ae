use super::*;
use corpus::reflection_idioms::{intent_idioms_app, reflection_idioms_app};
use pointer::{analyze_opts, OpaquePolicy, SelectorKind};

fn solve(app: android_model::AndroidApp, policy: OpaquePolicy) -> (apir::Program, Analysis) {
    let harness = harness_gen::generate(app);
    let analysis = analyze_opts(&harness, SelectorKind::ActionSensitive(1), policy);
    (harness.app.program, analysis)
}

#[test]
fn recall_pct_edge_cases() {
    let empty = SoundnessStats::default();
    assert_eq!(
        empty.recall_pct(),
        100.0,
        "no known callbacks → nothing missed"
    );
    let half = SoundnessStats {
        known_callbacks: 4,
        reachable_callbacks: 2,
        ..SoundnessStats::default()
    };
    assert_eq!(half.recall_pct(), 50.0);
}

#[test]
fn reflection_fixture_audit_improves_under_resolve() {
    let (program, ignored) = solve(reflection_idioms_app().0, OpaquePolicy::Ignore);
    let s_ignore = audit(&program, &ignored);
    // The reflective chain leaves unresolved reflective sites and the
    // target method unreachable under `ignore`.
    assert!(s_ignore.reflective_sites >= 3, "forName+newInstance+invoke");
    assert_eq!(
        s_ignore.unresolved_sites,
        s_ignore.reflective_sites
            + s_ignore.intent_sites
            + s_ignore.bodyless_framework_sites
            + s_ignore.no_receiver_sites,
        "reason counters partition the unresolved total"
    );

    let (program, resolved) = solve(reflection_idioms_app().0, OpaquePolicy::Resolve);
    let s_resolve = audit(&program, &resolved);
    assert!(
        s_resolve.reflective_sites < s_ignore.reflective_sites,
        "constant-name reflection sites discharge under resolve"
    );
    assert!(
        s_resolve.reachable_callbacks >= s_ignore.reachable_callbacks,
        "resolving edges can only grow reachability"
    );
    assert!(s_resolve.recall_pct() >= s_ignore.recall_pct());
}

#[test]
fn intent_fixture_audit_improves_under_resolve() {
    let (program, ignored) = solve(intent_idioms_app().0, OpaquePolicy::Ignore);
    let s_ignore = audit(&program, &ignored);
    assert!(s_ignore.intent_sites >= 2, "setClass + startActivity");

    let (program, resolved) = solve(intent_idioms_app().0, OpaquePolicy::Resolve);
    let s_resolve = audit(&program, &resolved);
    assert!(
        s_resolve.intent_sites < s_ignore.intent_sites,
        "manifest-declared intent targets discharge under resolve"
    );
}

#[test]
fn havoc_recall_at_least_resolve() {
    for (app, _) in [reflection_idioms_app(), intent_idioms_app()] {
        let name = app.name.clone();
        let policies = [
            OpaquePolicy::Ignore,
            OpaquePolicy::Resolve,
            OpaquePolicy::Havoc,
        ];
        let mut last = -1.0f64;
        for policy in policies {
            let (program, analysis) = solve(app.clone(), policy);
            let s = audit(&program, &analysis);
            assert!(
                s.recall_pct() >= last,
                "{name}: recall must be monotone in policy strength"
            );
            last = s.recall_pct();
        }
    }
}
