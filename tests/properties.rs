//! Randomized integration tests: pipeline invariants over randomly
//! synthesized apps, drawn from fixed-seed streams so every run checks
//! the identical set of apps.

use sierra::corpus::twenty::synthesize;
use sierra::eventracer::{detect, EventRacerConfig};
use sierra::pointer::SelectorKind;
use sierra::sierra_core::{Sierra, SierraConfig, Stage};
use sierra_prng::SplitMix64;

/// Any synthesized app passes IR validation and the full pipeline runs
/// to completion with consistent counters.
#[test]
fn pipeline_invariants_hold_on_random_apps() {
    let mut rng = SplitMix64::new(0x11A171);
    for _ in 0..16 {
        let seed = rng.next_u64() % 1_000_000;
        let n = 1 + rng.usize(5);
        let (app, truth) = synthesize("prop.app", n, seed);
        assert!(app.program.validate().is_ok());
        // The without-AS count comes from the opt-in comparison pass.
        let cfg = SierraConfig::builder().with(Stage::Compare).build();
        let result = Sierra::with_config(cfg).analyze_app(app);
        assert_eq!(result.harness_count, n);
        assert!(result.hb_edges <= result.hb_max);
        assert!(result.racy_pairs_with_as <= result.racy_pairs_without_as);
        assert!(result.races.len() <= result.racy_pairs_with_as);
        // Static analysis never misses a planted true race.
        let p = &result.harness.app.program;
        let groups: Vec<(String, String)> = result
            .races
            .iter()
            .map(|r| {
                let f = p.field(r.field);
                (p.class_name(f.class).to_owned(), p.name(f.name).to_owned())
            })
            .collect();
        let eval = truth.evaluate(groups.iter().map(|(c, f)| (c.as_str(), f.as_str())));
        assert_eq!(
            eval.missed, 0,
            "seed {seed}: missed planted races: {groups:?}"
        );
    }
}

/// The SHBG order is a strict partial order on every random app:
/// irreflexive and antisymmetric (transitivity is rule 7 by
/// construction).
#[test]
fn shbg_is_a_strict_partial_order() {
    let mut rng = SplitMix64::new(0x5B6C0);
    for _ in 0..16 {
        let seed = rng.next_u64() % 1_000_000;
        let n = 1 + rng.usize(3);
        let (app, _) = synthesize("prop.hb", n, seed);
        let result = Sierra::with_config(SierraConfig::builder().without(Stage::Refute).build())
            .analyze_app(app);
        let actions: Vec<_> = result.analysis.actions.ids().collect();
        for &a in &actions {
            assert!(!result.shbg.ordered(a, a), "irreflexive (seed {seed})");
            for &b in &actions {
                if result.shbg.ordered(a, b) {
                    assert!(
                        !result.shbg.ordered(b, a),
                        "antisymmetric: {a} {b} (seed {seed})"
                    );
                }
            }
        }
    }
}

/// Every reported race is an unordered pair of distinct actions with at
/// least one write and overlapping locations.
#[test]
fn reported_races_are_well_formed() {
    let mut rng = SplitMix64::new(0x9ACE5);
    for _ in 0..16 {
        let seed = rng.next_u64() % 1_000_000;
        let (app, _) = synthesize("prop.races", 3, seed);
        let result = Sierra::new().analyze_app(app);
        for race in &result.races {
            assert_ne!(race.a.action, race.b.action);
            assert!(race.a.is_write || race.b.is_write);
            assert!(race.a.overlaps(&race.b));
            assert!(result.shbg.unordered(race.a.action, race.b.action));
            assert_eq!(race.a.field, race.b.field);
        }
    }
}

/// The dynamic detector is deterministic per seed.
#[test]
fn dynamic_detection_is_seed_deterministic() {
    let mut rng = SplitMix64::new(0xD15C0);
    for _ in 0..16 {
        let seed = rng.next_u64() % 100_000;
        let (app, _) = synthesize("prop.dyn", 2, seed);
        let cfg = EventRacerConfig {
            seed,
            ..Default::default()
        };
        let a = detect(&app, &cfg);
        let b = detect(&app, &cfg);
        assert_eq!(a.race_groups(), b.race_groups(), "seed {seed}");
    }
}

/// Coarser context abstractions only ever report *more* racy pairs
/// than action-sensitivity (the §3.3 precision ordering), and every
/// abstraction terminates.
#[test]
fn context_abstraction_precision_ordering() {
    let mut rng = SplitMix64::new(0xC03757);
    for _ in 0..8 {
        let seed = rng.next_u64() % 100_000;
        let (app, _) = synthesize("prop.ctx", 2, seed);
        let count = |sel: SelectorKind| {
            let cfg = SierraConfig::builder()
                .selector(sel)
                .without(Stage::Refute)
                .build();
            Sierra::with_config(cfg)
                .analyze_app(app.clone())
                .racy_pairs_with_as
        };
        let insensitive = count(SelectorKind::Insensitive);
        let action = count(SelectorKind::ActionSensitive(1));
        assert!(
            action <= insensitive,
            "seed {seed}: AS ({action}) must be at least as precise as insensitive ({insensitive})"
        );
    }
}

/// Disassembling and reassembling any synthesized corpus app preserves
/// the detector's verdicts (the text format is a faithful codec).
#[test]
fn text_round_trip_preserves_verdicts() {
    let mut rng = SplitMix64::new(0xC0DEC);
    for _ in 0..8 {
        let seed = rng.next_u64() % 100_000;
        let n = 1 + rng.usize(3);
        let (app, _) = synthesize("prop.codec", n, seed);
        let text = sierra::android_model::render_app(&app);
        let reparsed = sierra::android_model::parse_app(&app.name, &text)
            .unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert!(reparsed.program.validate().is_ok());
        let r1 = Sierra::new().analyze_app(app);
        let r2 = Sierra::new().analyze_app(reparsed);
        let key = |r: &sierra::sierra_core::SierraResult| {
            let p = &r.harness.app.program;
            let mut v: Vec<(String, String)> = r
                .races
                .iter()
                .map(|x| {
                    let f = p.field(x.field);
                    (p.class_name(f.class).to_owned(), p.name(f.name).to_owned())
                })
                .collect();
            v.sort();
            v.dedup();
            v
        };
        assert_eq!(key(&r1), key(&r2), "seed {seed}");
    }
}
