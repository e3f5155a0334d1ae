//! Equivalence regression for the pointer-solver performance overhaul.
//!
//! Online cycle collapse is a pure optimization: it may change how much
//! work the solver does, never what it computes. The pipeline is run
//! across the 20-app dataset, the figure apps, and a cycle-bearing
//! fixture with collapse on and off, and the racy-pair counts, candidate
//! pairs, pruned pairs, and final reports must match.

use corpus::twenty;
use pointer::{Access, AnalysisOptions};
use sierra_core::{Sierra, SierraConfig, SierraResult};

fn pair_key(a: &Access, b: &Access) -> String {
    format!("{:?}@{:?} vs {:?}@{:?}", a.addr, a.action, b.addr, b.action)
}

fn race_keys(r: &SierraResult) -> Vec<String> {
    r.races.iter().map(|x| pair_key(&x.a, &x.b)).collect()
}

fn pruned_keys(r: &SierraResult) -> Vec<String> {
    r.pruned.iter().map(|x| pair_key(&x.a, &x.b)).collect()
}

/// The ranked race-report lines of the rendered result (the lines a user
/// reads), excluding the timing/counter preamble, which legitimately
/// varies run to run.
fn report_lines(r: &SierraResult) -> Vec<String> {
    format!("{r}")
        .lines()
        .filter(|l| l.contains("race on"))
        .map(str::to_owned)
        .collect()
}

/// Strips `A<digits>:` action-id prefixes from a report line. Action ids
/// are assigned in op-resolution order, which a different solver
/// schedule may permute; the action's *identity* (kind, callback, view)
/// is what must be preserved.
fn scrub_action_ids(line: &str) -> String {
    let mut out = String::new();
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'A' && i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit() {
            let mut j = i + 1;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                j += 1;
            }
            if j < bytes.len() && bytes[j] == b':' {
                i = j + 1; // drop "A<digits>:"
                continue;
            }
        }
        out.push(bytes[i] as char);
        i += 1;
    }
    out
}

/// A one-activity app whose `onCreate` routes a shared allocation
/// through a copy cycle `a → b → c → a` before publishing it to a field
/// read by a background thread: guarantees the corpus sweep exercises
/// online cycle collapse.
fn cycle_app() -> android_model::AndroidApp {
    use android_model::AndroidAppBuilder;
    use apir::{Operand, Type};
    let mut app = AndroidAppBuilder::new("CycleFixture");
    let fw = app.framework().clone();
    let mut cb = app.subclass("Worker", fw.thread);
    let shared = cb.field("shared", Type::Ref(fw.object));
    let worker = cb.build();
    let mut mb = app.method(worker, "run");
    mb.set_param_count(1);
    let this = mb.param(0);
    let v = mb.fresh_local();
    mb.load(v, this, shared);
    mb.ret(None);
    mb.finish();
    let activity = app.activity("Main").build();
    let mut mb = app.method(activity, "onCreate");
    mb.set_param_count(1);
    let x = mb.fresh_local();
    let a = mb.fresh_local();
    let b = mb.fresh_local();
    let c = mb.fresh_local();
    let w = mb.fresh_local();
    mb.new_(x, fw.object);
    mb.move_(a, x);
    mb.move_(b, a);
    mb.move_(c, b);
    mb.move_(a, c); // closes the a → b → c → a inclusion cycle
    mb.new_(w, worker);
    mb.store(w, shared, Operand::Local(a));
    mb.call(
        None,
        apir::InvokeKind::Virtual,
        fw.thread_start,
        Some(w),
        vec![],
    );
    mb.ret(None);
    mb.finish();
    app.finish().unwrap()
}

fn corpus() -> Vec<(String, android_model::AndroidApp)> {
    let mut apps: Vec<(String, android_model::AndroidApp)> = twenty::build_all()
        .into_iter()
        .map(|(spec, app, _)| (spec.name.to_owned(), app))
        .collect();
    for (name, (app, _)) in [
        ("fig1", corpus::figures::intra_component()),
        ("fig2", corpus::figures::inter_component()),
        ("fig8", corpus::figures::open_sudoku_guard()),
    ] {
        apps.push((name.to_owned(), app));
    }
    apps.push(("cycle-fixture".to_owned(), cycle_app()));
    apps
}

fn assert_same_counts(name: &str, a: &SierraResult, b: &SierraResult) {
    assert_eq!(a.racy_pairs_with_as, b.racy_pairs_with_as, "{name}");
    assert_eq!(a.racy_pairs_without_as, b.racy_pairs_without_as, "{name}");
    assert_eq!(a.action_count, b.action_count, "{name}");
    assert_eq!(a.hb_edges, b.hb_edges, "{name}");
    assert_eq!(
        a.metrics.pointer.cg_edges, b.metrics.pointer.cg_edges,
        "{name}"
    );
    assert_eq!(
        a.metrics.pointer.abstract_objects, b.metrics.pointer.abstract_objects,
        "{name}"
    );
}

#[test]
fn cycle_collapse_is_a_pure_optimization_across_the_corpus() {
    let mut collapsed_anywhere = false;
    for (name, app) in corpus() {
        let on = Sierra::new().analyze_app(app.clone());
        let off = SierraConfig::builder().pointer_options(AnalysisOptions {
            cycle_collapse: false,
            ..AnalysisOptions::default()
        });
        let off = Sierra::with_config(off.build()).analyze_app(app);
        assert_same_counts(&name, &on, &off);
        // Collapse preserves results exactly — down to action numbering.
        assert_eq!(race_keys(&on), race_keys(&off), "{name}");
        assert_eq!(pruned_keys(&on), pruned_keys(&off), "{name}");
        assert_eq!(report_lines(&on), report_lines(&off), "{name}");
        assert_eq!(off.metrics.pointer.collapsed_sccs, 0, "{name}");
        assert!(
            on.metrics.pointer.worklist_iterations <= off.metrics.pointer.worklist_iterations,
            "{name}: collapse must not add worklist iterations ({} > {})",
            on.metrics.pointer.worklist_iterations,
            off.metrics.pointer.worklist_iterations,
        );
        collapsed_anywhere |= on.metrics.pointer.collapsed_sccs > 0;
    }
    assert!(
        collapsed_anywhere,
        "at least one corpus app must exercise cycle collapse"
    );
}

#[test]
fn scrubber_strips_only_action_id_prefixes() {
    assert_eq!(
        scrub_action_ids("race on C.f between A80:onClick@view1 (write) and A7:thread (read)"),
        "race on C.f between onClick@view1 (write) and thread (read)"
    );
    assert_eq!(scrub_action_ids("A1 alone stays"), "A1 alone stays");
}
