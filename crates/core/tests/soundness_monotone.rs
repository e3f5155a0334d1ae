//! Corpus-wide regression guard for the opaque-call soundness modes.
//!
//! The three policies form a soundness ladder — `ignore` resolves
//! nothing, `resolve` adds table-proven edges, `havoc` adds
//! conservative fallbacks on top — and the ladder must be visible in
//! the call graph itself: projected to `(caller, site, callee)`, the
//! edge set may only grow as the policy climbs. Alongside the subset
//! law the guard checks the two report-level invariants the counters
//! golden also asserts: race reports stay in rank order under every policy,
//! and climbing to `havoc` never loses a planted ground-truth race.
//!
//! The twenty Table-2 apps and both `reflection_idioms` fixtures are
//! always checked; a seeded PRNG draws a few extra F-Droid apps so
//! successive runs sweep different corners of the 174-app corpus while
//! any failure stays reproducible from the seed in the assert message.

use sierra_core::{OpaquePolicy, Sierra, SierraConfig, SierraResult};
use std::collections::BTreeSet;

fn run(app: &android_model::AndroidApp, policy: OpaquePolicy) -> SierraResult {
    let cfg = SierraConfig::builder().opaque_policy(policy).build();
    Sierra::with_config(cfg).analyze_app(app.clone())
}

fn check_app(name: &str, app: &android_model::AndroidApp, truth: &corpus::GroundTruth) {
    let ignore = run(app, OpaquePolicy::Ignore);
    let resolve = run(app, OpaquePolicy::Resolve);
    let havoc = run(app, OpaquePolicy::Havoc);

    // Contexts are numbered in policy-dependent order, so the subset
    // law is stated over the context-insensitive call graph.
    let e_ignore = ignore.analysis.context_insensitive_edges();
    let e_resolve = resolve.analysis.context_insensitive_edges();
    let e_havoc = havoc.analysis.context_insensitive_edges();
    assert!(
        e_ignore.is_subset(&e_resolve),
        "{name}: resolve dropped {} ignore edge(s)",
        e_ignore.difference(&e_resolve).count()
    );
    assert!(
        e_resolve.is_subset(&e_havoc),
        "{name}: havoc dropped {} resolve edge(s)",
        e_resolve.difference(&e_havoc).count()
    );

    for (policy, result) in [
        ("ignore", &ignore),
        ("resolve", &resolve),
        ("havoc", &havoc),
    ] {
        assert!(
            result
                .races
                .windows(2)
                .all(|w| w[0].rank_key() <= w[1].rank_key()),
            "{name}: race reports out of rank order under {policy}"
        );
    }

    let groups = |r: &SierraResult| {
        let p = &r.harness.app.program;
        r.races
            .iter()
            .map(|race| {
                let f = p.field(race.field);
                (p.class_name(f.class).to_owned(), p.name(f.name).to_owned())
            })
            .collect::<Vec<_>>()
    };
    let havoc_groups = groups(&havoc);
    let eval = truth.evaluate(havoc_groups.iter().map(|(c, f)| (c.as_str(), f.as_str())));
    assert_eq!(
        eval.missed, 0,
        "{name}: havoc lost {} planted race(s): {havoc_groups:?}",
        eval.missed
    );
    // The most sound policy finds at least as many planted races as the
    // least sound one.
    let ignore_groups = groups(&ignore);
    let ignore_eval = truth.evaluate(ignore_groups.iter().map(|(c, f)| (c.as_str(), f.as_str())));
    assert!(
        eval.true_races >= ignore_eval.true_races,
        "{name}: havoc found fewer planted races than ignore"
    );
}

#[test]
fn policy_ladder_is_monotone_on_every_corpus_app() {
    for (spec, app, truth) in corpus::twenty::build_all() {
        check_app(spec.name, &app, &truth);
    }
    let (app, truth) = corpus::reflection_idioms::reflection_idioms_app();
    check_app("ReflectionIdioms", &app, &truth);
    let (app, truth) = corpus::reflection_idioms::intent_idioms_app();
    check_app("IntentIdioms", &app, &truth);
}

#[test]
fn policy_ladder_holds_on_seeded_fdroid_sample() {
    const SEED: u64 = 0x005e_ed50_0ed1; // vary to sweep other apps
    const SAMPLE: usize = 4;
    let mut rng = sierra_prng::SplitMix64::new(SEED);
    let mut picks = BTreeSet::new();
    while picks.len() < SAMPLE {
        picks.insert(rng.usize(corpus::fdroid::APP_COUNT));
    }
    for (i, app, truth) in corpus::fdroid::iter_apps() {
        if picks.contains(&i) {
            check_app(&format!("fdroid app{i:03} (seed {SEED:#x})"), &app, &truth);
        }
    }
}
