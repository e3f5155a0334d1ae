//! Summary-store invariants on the edit-pair fixture.
//!
//! The hard invariant of the compositional-summary redesign: an
//! analysis over a warm store is **byte-identical** to a cold one —
//! reuse changes work done, never results. These tests drive the
//! edit-pair fixture (two app versions differing by one method body)
//! through shared stores and assert both the identity and the reuse
//! counters that `tests/golden/counters.txt` also pins.

use corpus::edit_pairs;
use sierra_core::{
    run_jobs, DiskStore, MemoryStore, OpaquePolicy, Report, SessionBuilder, SierraConfig,
    SierraResult, SummaryStore,
};
use std::sync::Arc;

fn run_with_store(
    app: android_model::AndroidApp,
    config: SierraConfig,
    store: Arc<dyn SummaryStore>,
) -> SierraResult {
    SessionBuilder::new(config)
        .app(app)
        .store(store)
        .build()
        .expect("valid app")
        .finish()
        .expect("pipeline runs")
}

fn stable(result: &SierraResult) -> String {
    Report::from_result(result).render_stable()
}

#[test]
fn warm_rerun_is_byte_identical_and_reuses_everything() {
    let store: Arc<dyn SummaryStore> = Arc::new(MemoryStore::new());
    let cfg = SierraConfig::default();

    let cold = run_with_store(edit_pairs::base_app(), cfg, Arc::clone(&store));
    let warm = run_with_store(edit_pairs::base_app(), cfg, Arc::clone(&store));

    assert_eq!(
        stable(&cold),
        stable(&warm),
        "cold vs. warm must be byte-identical"
    );

    let c = cold.metrics.link;
    let w = warm.metrics.link;
    assert_eq!(c.summaries_reused, 0, "cold run sees an empty store");
    assert!(c.summaries_recomputed > 0);
    assert!(!c.analysis_reused);
    assert!(c.pointer_iterations_run > 0);

    assert_eq!(w.summaries_recomputed, 0, "warm run recomputes nothing");
    assert_eq!(w.summaries_reused, c.summaries_recomputed);
    assert!(
        w.analysis_reused,
        "unchanged digests reuse the whole analysis"
    );
    assert_eq!(w.pointer_iterations_run, 0, "no solver work on a full hit");
    // The reported solver stats still describe the (reused) analysis.
    assert_eq!(
        warm.metrics.pointer.worklist_iterations,
        cold.metrics.pointer.worklist_iterations
    );
}

#[test]
fn one_method_edit_recomputes_only_the_changed_method() {
    let store: Arc<dyn SummaryStore> = Arc::new(MemoryStore::new());
    let cfg = SierraConfig::default();

    let base = run_with_store(edit_pairs::base_app(), cfg, Arc::clone(&store));
    let warm_edited = run_with_store(edit_pairs::edited_app(), cfg, Arc::clone(&store));
    let cold_edited = run_with_store(
        edit_pairs::edited_app(),
        cfg,
        Arc::new(MemoryStore::new()) as Arc<dyn SummaryStore>,
    );

    // Byte-identity: warm-over-base-store == cold, on the edited app.
    assert_eq!(stable(&cold_edited), stable(&warm_edited));

    // Exactly the edited helper method is recomputed.
    let w = warm_edited.metrics.link;
    assert_eq!(w.summaries_recomputed, 1, "one body changed");
    assert_eq!(
        w.summaries_reused,
        base.metrics.link.summaries_recomputed - 1,
        "every other method is served from the store"
    );
    // The edit is a points-to no-op, so the analysis artifact is shared
    // and the solver never runs.
    assert!(w.analysis_reused);
    assert_eq!(w.pointer_iterations_run, 0);

    // The edit still changes results: the new write races with the
    // onResume read of `extra`.
    assert!(
        warm_edited.races.len() > base.races.len(),
        "edited version must report the extra race ({} vs {})",
        warm_edited.races.len(),
        base.races.len()
    );
}

#[test]
fn config_change_invalidates_the_whole_store() {
    let store: Arc<dyn SummaryStore> = Arc::new(MemoryStore::new());
    let cfg = SierraConfig::default();
    let changed = SierraConfig::builder()
        .opaque_policy(OpaquePolicy::Havoc)
        .build();

    let first = run_with_store(edit_pairs::base_app(), cfg, Arc::clone(&store));
    let second = run_with_store(edit_pairs::base_app(), changed, Arc::clone(&store));

    let s = second.metrics.link;
    assert_eq!(
        s.summaries_reused, 0,
        "config fingerprint keys every summary"
    );
    assert_eq!(
        s.summaries_recomputed,
        first.metrics.link.summaries_recomputed
    );
    assert!(!s.analysis_reused);
    assert!(s.pointer_iterations_run > 0);
}

#[test]
fn refute_before_prefilter_on_a_warm_session_reuses_summaries() {
    // Regression: stage getters must consume the linked summaries no
    // matter which getter is called first — `refute()` used to force a
    // from-scratch `PrefilterOutcome` when called before `prefilter()`.
    let store: Arc<dyn SummaryStore> = Arc::new(MemoryStore::new());
    let cfg = SierraConfig::default();
    let cold = run_with_store(edit_pairs::base_app(), cfg, Arc::clone(&store));

    let mut session = SessionBuilder::new(cfg)
        .app(edit_pairs::base_app())
        .store(Arc::clone(&store))
        .build()
        .expect("valid app");
    // Out-of-order drive: refutation first.
    let n_races = session.refute().expect("refute runs").len();
    assert_eq!(n_races, cold.races.len());
    let outcome = session.prefilter().expect("prefilter cached");
    assert_eq!(
        outcome.kept.len() + outcome.pruned.len(),
        cold.racy_pairs_with_as
    );
    let link = session.metrics().link;
    assert!(link.analysis_reused);
    assert_eq!(link.summaries_recomputed, 0);
    assert!(link.summaries_reused > 0);
    assert_eq!(
        session.metrics().prefilter.pruned_total(),
        cold.metrics.prefilter.pruned_total()
    );
}

#[test]
fn disk_store_round_trips_across_processes() {
    let dir = std::env::temp_dir().join(format!("sierra-summary-reuse-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = SierraConfig::default();

    // First "process": cold run over the disk store.
    let cold = {
        let store: Arc<dyn SummaryStore> = Arc::new(DiskStore::new(&dir).expect("cache dir"));
        run_with_store(edit_pairs::base_app(), cfg, store)
    };
    // Second "process": fresh DiskStore instance over the same directory
    // (empty memory). The whole analysis rehydrates from its persisted
    // blob, so the solver never runs; summaries live in memory only and
    // are recomputed.
    let warm = {
        let store: Arc<dyn SummaryStore> = Arc::new(DiskStore::new(&dir).expect("cache dir"));
        run_with_store(edit_pairs::base_app(), cfg, store)
    };
    assert_eq!(stable(&cold), stable(&warm));
    let w = warm.metrics.link;
    assert_eq!(w.summaries_reused, 0, "summaries are not persisted");
    assert_eq!(
        w.summaries_recomputed,
        cold.metrics.link.summaries_recomputed
    );
    assert!(w.analysis_reused, "analysis blob persisted to disk");
    assert_eq!(w.pointer_iterations_run, 0, "no solver work cross-process");
    assert_eq!(w.corrupt_misses, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Entry point for [`true_child_processes_reuse_the_artifact_cache`]:
/// runs one full session in *this* process when the spawn env vars are
/// set, and is an immediate no-op during a normal test-suite run.
#[test]
fn spawned_child_runs_one_session() {
    let Ok(role) = std::env::var("SIERRA_SPAWN_ROLE") else {
        return;
    };
    let dir = std::path::PathBuf::from(std::env::var("SIERRA_SPAWN_DIR").expect("spawn dir"));
    let store: Arc<dyn SummaryStore> =
        Arc::new(DiskStore::new(dir.join("cache")).expect("cache dir"));
    let app = match role.as_str() {
        "cold" => edit_pairs::base_app(),
        "warm" => edit_pairs::edited_app(),
        other => panic!("unknown spawn role {other:?}"),
    };
    let result = run_with_store(app, SierraConfig::default(), store);
    let l = result.metrics.link;
    std::fs::write(dir.join(format!("{role}.report")), stable(&result)).expect("write report");
    std::fs::write(
        dir.join(format!("{role}.metrics")),
        format!(
            "analysis_reused={}\npointer_iterations_run={}\nsummaries_reused={}\nsummaries_recomputed={}\n",
            l.analysis_reused, l.pointer_iterations_run, l.summaries_reused, l.summaries_recomputed,
        ),
    )
    .expect("write metrics");
}

#[test]
fn true_child_processes_reuse_the_artifact_cache() {
    let dir = std::env::temp_dir().join(format!("sierra-spawn-reuse-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("spawn dir");

    // Two genuinely separate OS processes against one cache dir: a cold
    // base-version run, then a warm edited-version run (the edit is a
    // points-to no-op, so the digest vector — and the artifact key — is
    // unchanged).
    let exe = std::env::current_exe().expect("test binary path");
    for role in ["cold", "warm"] {
        let status = std::process::Command::new(&exe)
            .args(["spawned_child_runs_one_session", "--exact"])
            .env("SIERRA_SPAWN_ROLE", role)
            .env("SIERRA_SPAWN_DIR", &dir)
            .status()
            .expect("spawn child test process");
        assert!(status.success(), "{role} child process failed");
    }

    let field = |role: &str, name: &str| -> String {
        let metrics = std::fs::read_to_string(dir.join(format!("{role}.metrics")))
            .unwrap_or_else(|e| panic!("{role} metrics: {e}"));
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name}=")))
            .unwrap_or_else(|| panic!("missing {name} in {metrics:?}"))
            .to_string()
    };
    assert_eq!(
        field("warm", "analysis_reused"),
        "true",
        "warm process hit the blob"
    );
    assert_eq!(field("warm", "pointer_iterations_run"), "0");
    // Summaries stay in memory: the new process recomputes every one.
    assert_eq!(field("warm", "summaries_reused"), "0");
    assert_eq!(
        field("warm", "summaries_recomputed"),
        field("cold", "summaries_recomputed")
    );

    // The cross-process warm report is byte-identical to a plain
    // in-memory run of the same app version.
    let in_memory = run_with_store(
        edit_pairs::edited_app(),
        SierraConfig::default(),
        Arc::new(MemoryStore::new()) as Arc<dyn SummaryStore>,
    );
    let warm_report = std::fs::read_to_string(dir.join("warm.report")).expect("warm report");
    assert_eq!(warm_report, stable(&in_memory));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shared_store_computes_framework_summaries_once_corpus_wide() {
    let shared: Arc<dyn SummaryStore> = Arc::new(MemoryStore::new());
    let cfg = SierraConfig::default();
    let run_shared = |app: android_model::AndroidApp| {
        SessionBuilder::new(cfg)
            .app(app)
            .store(Arc::new(MemoryStore::new()) as Arc<dyn SummaryStore>)
            .shared_store(Arc::clone(&shared))
            .build()
            .expect("valid app")
            .finish()
            .expect("pipeline runs")
    };

    // First app: nothing shared yet; its framework summaries are
    // promoted into the shared layer as they are computed.
    let first = run_shared(edit_pairs::base_app());
    assert_eq!(first.metrics.link.summaries_shared, 0, "cold shared layer");

    // Second, *different* app with its own cold per-app store: every
    // framework-origin method with a body is served from the shared
    // layer — i.e. the framework slice is computed once corpus-wide.
    let (app2, _) = corpus::figures::intra_component();
    let framework_methods = app2
        .program
        .methods()
        .iter()
        .filter(|m| m.has_body() && app2.program.class(m.class).origin == apir::Origin::Framework)
        .count();
    assert!(framework_methods >= 1, "fixture must exercise the layer");
    let second = run_shared(app2);
    assert_eq!(
        second.metrics.link.summaries_shared, framework_methods,
        "all framework summaries must come from the shared layer"
    );
    assert!(
        second.metrics.link.summaries_recomputed
            < framework_methods + second.metrics.link.summaries_shared,
        "shared hits must not be recomputed"
    );

    // Sharing changes work done, never results.
    let (app2_again, _) = corpus::figures::intra_component();
    let unshared = run_with_store(
        app2_again,
        cfg,
        Arc::new(MemoryStore::new()) as Arc<dyn SummaryStore>,
    );
    assert_eq!(stable(&second), stable(&unshared));
}

/// The shared layer's lookup and promotion are not atomic, so two
/// workers can miss the same framework key at once and both compute it:
/// under parallel workers the split between shared hits and
/// recomputations depends on scheduling. Each app still accounts for
/// every method with a body exactly once and reports as a serial pass
/// does.
#[test]
fn parallel_pass_over_a_shared_layer_accounts_for_every_method() {
    let cfg = SierraConfig::default();
    let apps = || {
        corpus::twenty::build_all()
            .into_iter()
            .map(|(spec, app, _)| (spec.name.to_owned(), app))
            .collect::<Vec<_>>()
    };
    let serial: Vec<String> = apps()
        .into_iter()
        .map(|(_, app)| stable(&run_with_store(app, cfg, Arc::new(MemoryStore::new()))))
        .collect();
    let shared: Arc<dyn SummaryStore> = Arc::new(MemoryStore::new());
    let rows = run_jobs(2, apps(), |_, app| {
        let result = SessionBuilder::new(cfg)
            .app(app)
            .store(Arc::new(MemoryStore::new()) as Arc<dyn SummaryStore>)
            .shared_store(Arc::clone(&shared))
            .build()
            .expect("valid app")
            .finish()
            .expect("pipeline runs");
        // The harnessed program: the session's generated harness
        // methods are summarized too.
        let methods = result.harness.app.program.methods();
        let bodies = methods.iter().filter(|m| m.has_body()).count();
        (bodies, result.metrics.link, stable(&result))
    });
    assert_eq!(rows.len(), serial.len());
    for (row, serial) in rows.into_iter().zip(serial) {
        let (bodies, link, report) = row.expect("no panic");
        assert_eq!(
            link.summaries_shared + link.summaries_reused + link.summaries_recomputed,
            bodies,
            "{link:?}"
        );
        assert_eq!(report, serial);
    }
}

#[test]
fn figure_apps_are_warm_stable_too() {
    // The invariant holds beyond the purpose-built fixture.
    for (app_fn, name) in [
        (corpus::figures::intra_component as fn() -> _, "fig1"),
        (corpus::figures::inter_component as fn() -> _, "fig2"),
        (corpus::figures::open_sudoku_guard as fn() -> _, "fig8"),
    ] {
        let store: Arc<dyn SummaryStore> = Arc::new(MemoryStore::new());
        let cfg = SierraConfig::default();
        let (app, _) = app_fn();
        let cold = run_with_store(app, cfg, Arc::clone(&store));
        let (app, _) = app_fn();
        let warm = run_with_store(app, cfg, Arc::clone(&store));
        assert_eq!(
            stable(&cold),
            stable(&warm),
            "{name}: warm run must not drift"
        );
        assert!(warm.metrics.link.analysis_reused, "{name}");
        assert_eq!(warm.metrics.link.pointer_iterations_run, 0, "{name}");
    }
}

/// An app whose `onCreate` stores a string constant, built over `app`'s
/// interner.
fn app_with_a_string(mut app: android_model::AndroidAppBuilder) -> android_model::AndroidApp {
    let mut cb = app.activity("com.strings.Main");
    let name = cb.static_field("name", apir::Type::Str);
    let main = cb.build();
    let target = app.program_builder().intern("com.strings.Target");
    let mut mb = app.method(main, "onCreate");
    mb.set_param_count(1);
    let v = mb.fresh_local();
    mb.const_(v, apir::ConstValue::Str(target));
    mb.static_store(name, apir::Operand::Local(v));
    mb.ret(None);
    mb.finish();
    app.finish().expect("valid app")
}

/// Summary and analysis keys do not depend on symbol values: a program
/// with string constants, built once over a private interner and once
/// over an arena that already holds an unrelated name (so every symbol
/// differs), hits the first session's store in full. Checked for an app
/// built in code and for the reflection fixture analyzed from its
/// `.sierra` text through [`SessionBuilder::arena`].
#[test]
fn keys_are_the_same_over_a_private_interner_and_a_seeded_arena() {
    let seeded = || {
        let arena = Arc::new(apir::SymbolArena::new());
        arena.intern("an.unrelated.Name");
        arena
    };
    let (reflection, _) = corpus::reflection_idioms::reflection_idioms_app();
    let text = android_model::asm::render_app(&reflection);
    let name = reflection.name.clone();
    let cfg = SierraConfig::builder()
        .opaque_policy(OpaquePolicy::Resolve)
        .build();
    let template = SessionBuilder::new(cfg);
    let pairs = [
        (
            "built in code",
            template
                .clone()
                .app(app_with_a_string(android_model::AndroidAppBuilder::new(
                    "Strings",
                ))),
            template.clone().app(app_with_a_string(
                android_model::AndroidAppBuilder::with_arena("Strings", seeded()),
            )),
        ),
        (
            "reflection fixture from text",
            template.clone().source(&name, &text),
            template.clone().source(&name, &text).arena(seeded()),
        ),
    ];
    for (label, private, arena) in pairs {
        let store: Arc<dyn SummaryStore> = Arc::new(MemoryStore::new());
        let run = |builder: SessionBuilder| {
            builder
                .store(Arc::clone(&store))
                .build()
                .expect("valid app")
                .finish()
                .expect("pipeline runs")
        };
        let first = run(private);
        let second = run(arena);
        let link = second.metrics.link;
        assert!(
            first.metrics.link.summaries_recomputed > 0,
            "{label}: cold run computes"
        );
        assert_eq!(link.summaries_recomputed, 0, "{label}: no summary misses");
        assert!(link.analysis_reused, "{label}: the analysis is reused");
        assert_eq!(stable(&first), stable(&second), "{label}");
    }
    assert!(text.contains("\"com.reflect.Task\""), "{text}");
}
