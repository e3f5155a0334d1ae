//! Shared-arena determinism: interning every app of a corpus run into
//! one process-wide [`apir::SymbolArena`] must never change analysis
//! results — not at any worker count, and not against apps built with
//! private per-app interners. The rendered tables carry every counter
//! the pipeline reports (and no wall-clock columns), so comparing them
//! byte for byte is the strongest cheap equality check available.

use apir::SymbolArena;
use eventracer::EventRacerConfig;
use sierra_cli::experiments::{run_app, run_fdroid, table3, AppRow};
use sierra_core::{SessionBuilder, SierraConfig};
use sierra_prng::SplitMix64;
use std::sync::Arc;

const CORPUS_APPS: usize = 6;

/// The corpus over one shared arena, analyzed on `jobs` workers.
fn shared_arena_table(jobs: usize) -> String {
    let template = SessionBuilder::new(SierraConfig::default());
    checked_table(run_fdroid(CORPUS_APPS, &template, jobs))
}

/// The same apps, each built with its own private interner.
fn private_interner_table() -> String {
    let er_cfg = EventRacerConfig::default();
    let template = SessionBuilder::new(SierraConfig::default());
    let rows = corpus::fdroid::iter_apps_with(None)
        .take(CORPUS_APPS)
        .map(|(i, app, truth)| {
            let name = format!("app{i:03}");
            run_app(&name, app, &truth, &template, &er_cfg)
        })
        .collect();
    checked_table(rows)
}

fn checked_table(rows: Vec<AppRow>) -> String {
    assert!(
        rows.iter().all(|r| r.error.is_none()),
        "no app may fail: {:?}",
        rows.iter()
            .filter_map(|r| r.error.as_deref())
            .collect::<Vec<_>>()
    );
    table3(&rows)
}

#[test]
fn corpus_reports_are_byte_identical_across_arena_and_job_count() {
    let reference = shared_arena_table(1);
    assert_eq!(
        reference,
        shared_arena_table(8),
        "corpus results diverged at jobs=8"
    );
    assert_eq!(
        reference,
        private_interner_table(),
        "corpus results diverged with private interners"
    );
}

#[test]
fn concurrent_interning_never_duplicates_symbols() {
    // Eight threads intern overlapping seeded vocabularies into one
    // arena; every (text → symbol) binding must agree across threads
    // and every symbol must resolve back to its text.
    let arena = Arc::new(SymbolArena::new());
    let vocabulary = |seed: u64| -> Vec<String> {
        let mut rng = SplitMix64::new(seed);
        (0..512)
            .map(|_| format!("com.app{}.Class{}", rng.usize(16), rng.usize(64)))
            .collect()
    };
    let handles: Vec<_> = (0..8u64)
        .map(|t| {
            let arena = Arc::clone(&arena);
            std::thread::spawn(move || {
                // Seeds 0..8 share most of their name space, so threads
                // race to intern the same strings.
                vocabulary(t % 4)
                    .into_iter()
                    .map(|text| {
                        let sym = arena.intern(&text);
                        (text, sym)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut bindings = std::collections::HashMap::new();
    for handle in handles {
        for (text, sym) in handle.join().expect("interner thread panicked") {
            assert_eq!(&*arena.resolve(sym), text.as_str(), "symbol round-trip");
            if let Some(prev) = bindings.insert(text.clone(), sym) {
                assert_eq!(prev, sym, "{text:?} interned to two symbols");
            }
        }
    }
    // The arena holds exactly the distinct texts: no duplicate slots.
    assert_eq!(arena.len(), bindings.len());
}
