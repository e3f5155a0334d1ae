//! Refutation tests on the paper's Figure 8 idiom (OpenSudoku).

use crate::{Outcome, Refuter};
use android_model::{ActionKind, AndroidAppBuilder};
use apir::{ConstValue, FieldId, InvokeKind, MethodId, Operand, Type};
use harness_gen::{generate, HarnessResult};
use pointer::{
    analyze, collect_accesses, method_access_sites, Access, AccessSite, Analysis, SelectorKind,
};
use std::collections::HashMap;

/// The paper's path budget per query direction.
const BUDGET: usize = 5_000;

/// [`collect_accesses`] outside the harness class, over access sites
/// extracted from each reached body.
fn reached_accesses(analysis: &Analysis, harness: &HarnessResult) -> Vec<Access> {
    let program = &harness.app.program;
    let fw = analysis.framework();
    let sites: HashMap<MethodId, Vec<AccessSite>> = analysis
        .reachable
        .iter()
        .map(|&(m, _)| (m, method_access_sites(program, fw, m)))
        .collect();
    collect_accesses(analysis, program, Some(harness.harness_class), |m| {
        &sites[&m]
    })
}

/// Builds the Figure 8 app:
///
/// ```java
/// class Runner implements Runnable {           // action A (posted)
///   void run() {
///     if (outer.mIsRunning) {
///       outer.mAccumTime = 1;                  // αA
///       if (*) { /* re-post */ } else outer.mIsRunning = false;
///     }
///   }
/// }
/// class Act extends Activity {
///   void onResume() { runOnUiThread(new Runner(this)); }
///   void stop() {                              // called from onPause = B
///     if (mIsRunning) { mIsRunning = false; mAccumTime = 2; /* αB */ }
///   }
///   void onPause() { stop(); }
/// }
/// ```
struct Fig8 {
    harness: HarnessResult,
    is_running: FieldId,
    accum: FieldId,
}

fn fig8() -> Fig8 {
    let mut app = AndroidAppBuilder::new("OpenSudoku");
    let fw = app.framework().clone();

    let mut cb = app.activity("Act");
    let is_running = cb.field("mIsRunning", Type::Bool);
    let accum = cb.field("mAccumTime", Type::Int);
    let activity = cb.build();

    let mut cb = app.subclass("Runner", fw.object);
    cb.add_interface(fw.runnable);
    let outer = cb.field("outer", Type::Ref(activity));
    let runner = cb.build();

    // Runner.<init>(outer)
    let mut mb = app.method(runner, "<init>");
    mb.set_param_count(2);
    let (this, o) = (mb.param(0), mb.param(1));
    mb.store(this, outer, Operand::Local(o));
    mb.ret(None);
    let runner_init = mb.finish();

    // Runner.run()
    let mut mb = app.method(runner, "run");
    mb.set_param_count(1);
    let this = mb.param(0);
    let o = mb.fresh_local();
    let t = mb.fresh_local();
    mb.load(o, this, outer);
    mb.load(t, o, is_running);
    let b_then = mb.new_block();
    let b_done = mb.new_block();
    let b_off = mb.new_block();
    let b_exit = mb.new_block();
    mb.if_(t, b_then, b_exit);
    mb.switch_to(b_then);
    mb.store(o, accum, Operand::Const(ConstValue::Int(1))); // αA
    mb.nondet(vec![b_done, b_off]);
    mb.switch_to(b_done);
    mb.goto(b_exit);
    mb.switch_to(b_off);
    mb.store(o, is_running, Operand::Const(ConstValue::Bool(false)));
    mb.goto(b_exit);
    mb.switch_to(b_exit);
    mb.ret(None);
    mb.finish();

    // Act.onResume() { mIsRunning = true; runOnUiThread(new Runner(this)) }
    let mut mb = app.method(activity, "onResume");
    mb.set_param_count(1);
    let this = mb.param(0);
    let r = mb.fresh_local();
    mb.store(this, is_running, Operand::Const(ConstValue::Bool(true)));
    mb.new_(r, runner);
    mb.call(
        None,
        InvokeKind::Special,
        runner_init,
        Some(r),
        vec![Operand::Local(this)],
    );
    mb.call(
        None,
        InvokeKind::Virtual,
        fw.run_on_ui_thread,
        Some(this),
        vec![Operand::Local(r)],
    );
    mb.ret(None);
    mb.finish();

    // Act.stop()
    let mut mb = app.method(activity, "stop");
    mb.set_param_count(1);
    let this = mb.param(0);
    let t = mb.fresh_local();
    mb.load(t, this, is_running);
    let b_then = mb.new_block();
    let b_exit = mb.new_block();
    mb.if_(t, b_then, b_exit);
    mb.switch_to(b_then);
    mb.store(this, is_running, Operand::Const(ConstValue::Bool(false)));
    mb.store(this, accum, Operand::Const(ConstValue::Int(2))); // αB
    mb.goto(b_exit);
    mb.switch_to(b_exit);
    mb.ret(None);
    let stop = mb.finish();

    // Act.onPause() { stop() }
    let mut mb = app.method(activity, "onPause");
    mb.set_param_count(1);
    let this = mb.param(0);
    mb.vcall(stop, this, vec![]);
    mb.ret(None);
    mb.finish();

    let harness = generate(app.finish().unwrap());
    Fig8 {
        harness,
        is_running,
        accum,
    }
}

fn access_in<'a>(
    accesses: &'a [Access],
    analysis: &Analysis,
    field: FieldId,
    is_write: bool,
    kind: impl Fn(&ActionKind) -> bool,
) -> &'a Access {
    accesses
        .iter()
        .find(|a| {
            a.field == field
                && a.is_write == is_write
                && kind(&analysis.actions.action(a.action).kind)
        })
        .expect("access present")
}

#[test]
fn figure_8_accum_time_race_is_refuted() {
    let f = fig8();
    let analysis = analyze(&f.harness, SelectorKind::ActionSensitive(1));
    let accesses = reached_accesses(&analysis, &f.harness);

    let alpha_a = access_in(&accesses, &analysis, f.accum, true, |k| {
        matches!(k, ActionKind::RunnablePost)
    });
    let alpha_b = access_in(&accesses, &analysis, f.accum, true, |k| {
        matches!(
            k,
            ActionKind::Lifecycle {
                event: android_model::LifecycleEvent::Pause,
                ..
            }
        )
    });

    let mut refuter = Refuter::new(&analysis, &f.harness.app.program, BUDGET);
    let outcome = refuter.refute_pair(alpha_a, alpha_b);
    assert_eq!(
        outcome,
        Outcome::Refuted,
        "the mAccumTime pair is guarded by mIsRunning"
    );
    assert_eq!(refuter.stats.refuted, 1);
}

#[test]
fn figure_8_guard_variable_race_is_a_true_positive() {
    let f = fig8();
    let analysis = analyze(&f.harness, SelectorKind::ActionSensitive(1));
    let accesses = reached_accesses(&analysis, &f.harness);

    // The guard itself races: run() reads mIsRunning, stop() writes it.
    let guard_read = access_in(&accesses, &analysis, f.is_running, false, |k| {
        matches!(k, ActionKind::RunnablePost)
    });
    let guard_write = access_in(&accesses, &analysis, f.is_running, true, |k| {
        matches!(
            k,
            ActionKind::Lifecycle {
                event: android_model::LifecycleEvent::Pause,
                ..
            }
        )
    });

    let mut refuter = Refuter::new(&analysis, &f.harness.app.program, BUDGET);
    let outcome = refuter.refute_pair(guard_read, guard_write);
    assert_eq!(
        outcome,
        Outcome::TruePositive,
        "the guard flag itself is racy (benign per §6.5, but reported)"
    );
    assert_eq!(refuter.stats.witnessed, 1);
}

#[test]
fn budget_exhaustion_reports_the_race() {
    let f = fig8();
    let analysis = analyze(&f.harness, SelectorKind::ActionSensitive(1));
    let accesses = reached_accesses(&analysis, &f.harness);
    let alpha_a = access_in(&accesses, &analysis, f.accum, true, |k| {
        matches!(k, ActionKind::RunnablePost)
    });
    let alpha_b = access_in(&accesses, &analysis, f.accum, true, |k| {
        matches!(k, ActionKind::Lifecycle { .. })
    });

    let mut refuter = Refuter::new(&analysis, &f.harness.app.program, 1);
    assert_eq!(refuter.refute_pair(alpha_a, alpha_b), Outcome::Budget);
    assert_eq!(refuter.stats.budget_exhausted, 1);
}

#[test]
fn unguarded_pair_is_witnessed() {
    // Same shape as Figure 8 but with the guard checks removed: both
    // orders are feasible, so the pair must not be refuted.
    let mut app = AndroidAppBuilder::new("T");
    let fw = app.framework().clone();
    let mut cb = app.activity("Act");
    let accum = cb.field("x", Type::Int);
    let activity = cb.build();
    let mut cb = app.subclass("Runner", fw.object);
    cb.add_interface(fw.runnable);
    let outer = cb.field("outer", Type::Ref(activity));
    let runner = cb.build();
    let mut mb = app.method(runner, "<init>");
    mb.set_param_count(2);
    let (this, o) = (mb.param(0), mb.param(1));
    mb.store(this, outer, Operand::Local(o));
    mb.ret(None);
    let runner_init = mb.finish();
    let mut mb = app.method(runner, "run");
    mb.set_param_count(1);
    let this = mb.param(0);
    let o = mb.fresh_local();
    mb.load(o, this, outer);
    mb.store(o, accum, Operand::Const(ConstValue::Int(1)));
    mb.ret(None);
    mb.finish();
    let mut mb = app.method(activity, "onResume");
    mb.set_param_count(1);
    let this = mb.param(0);
    let r = mb.fresh_local();
    mb.new_(r, runner);
    mb.call(
        None,
        InvokeKind::Special,
        runner_init,
        Some(r),
        vec![Operand::Local(this)],
    );
    mb.call(
        None,
        InvokeKind::Virtual,
        fw.run_on_ui_thread,
        Some(this),
        vec![Operand::Local(r)],
    );
    mb.ret(None);
    mb.finish();
    let mut mb = app.method(activity, "onPause");
    mb.set_param_count(1);
    let this = mb.param(0);
    mb.store(this, accum, Operand::Const(ConstValue::Int(2)));
    mb.ret(None);
    mb.finish();

    let harness = generate(app.finish().unwrap());
    let analysis = analyze(&harness, SelectorKind::ActionSensitive(1));
    let accesses = reached_accesses(&analysis, &harness);
    let a = access_in(&accesses, &analysis, accum, true, |k| {
        matches!(k, ActionKind::RunnablePost)
    });
    let b = access_in(&accesses, &analysis, accum, true, |k| {
        matches!(k, ActionKind::Lifecycle { .. })
    });
    let mut refuter = Refuter::new(&analysis, &harness.app.program, BUDGET);
    assert_eq!(refuter.refute_pair(a, b), Outcome::TruePositive);
}

/// A verdict is a function of the pair: asking again, in either
/// orientation, gives the same outcome, and a repeat explores exactly
/// as many paths as the first query did.
#[test]
fn repeat_queries_in_either_orientation_are_answered_afresh() {
    let f = fig8();
    let analysis = analyze(&f.harness, SelectorKind::ActionSensitive(1));
    let accesses = reached_accesses(&analysis, &f.harness);
    let alpha_a = access_in(&accesses, &analysis, f.accum, true, |k| {
        matches!(k, ActionKind::RunnablePost)
    });
    let alpha_b = access_in(&accesses, &analysis, f.accum, true, |k| {
        matches!(k, ActionKind::Lifecycle { .. })
    });
    let mut refuter = Refuter::new(&analysis, &f.harness.app.program, BUDGET);
    for (a, b) in [(alpha_a, alpha_b), (alpha_b, alpha_a)] {
        let mut paths = Vec::new();
        for _ in 0..2 {
            let before = refuter.stats.paths;
            assert_eq!(refuter.refute_pair(a, b), Outcome::Refuted);
            paths.push(refuter.stats.paths - before);
        }
        assert!(paths[0] > 0, "the query explores the program");
        assert_eq!(paths[0], paths[1], "the repeat explores as much");
    }
    assert_eq!(refuter.stats.queries, 4);
    assert_eq!(refuter.stats.refuted, 4);
    assert_eq!(refuter.stats.cache_hits, 0);
}

#[test]
fn refutation_ascends_through_nested_callers() {
    // The guarded write sits two calls below the action entry:
    // onPause → outer() → inner() { if (flag) { flag=false; x=2 } },
    // racing a posted runnable's guarded write. The backward walk must
    // ascend inner → outer → onPause and still find the conflict.
    let mut app = AndroidAppBuilder::new("Nested");
    let fw = app.framework().clone();
    let mut cb = app.activity("Act");
    let flag = cb.field("flag", Type::Bool);
    let x = cb.field("x", Type::Int);
    let activity = cb.build();

    let mut cb = app.subclass("R", fw.object);
    cb.add_interface(fw.runnable);
    let outer_f = cb.field("outer", Type::Ref(activity));
    let runner = cb.build();
    let mut mb = app.method(runner, "<init>");
    mb.set_param_count(2);
    let (this, o) = (mb.param(0), mb.param(1));
    mb.store(this, outer_f, Operand::Local(o));
    mb.ret(None);
    let rinit = mb.finish();
    let mut mb = app.method(runner, "run");
    mb.set_param_count(1);
    let this = mb.param(0);
    let (o, t) = (mb.fresh_local(), mb.fresh_local());
    mb.load(o, this, outer_f);
    mb.load(t, o, flag);
    let b1 = mb.new_block();
    let b2 = mb.new_block();
    mb.if_(t, b1, b2);
    mb.switch_to(b1);
    mb.store(o, x, Operand::Const(ConstValue::Int(1)));
    mb.goto(b2);
    mb.switch_to(b2);
    mb.ret(None);
    mb.finish();

    // inner(): the guarded clear + write.
    let mut mb = app.method(activity, "inner");
    mb.set_param_count(1);
    let this = mb.param(0);
    let t = mb.fresh_local();
    mb.load(t, this, flag);
    let b1 = mb.new_block();
    let b2 = mb.new_block();
    mb.if_(t, b1, b2);
    mb.switch_to(b1);
    mb.store(this, flag, Operand::Const(ConstValue::Bool(false)));
    mb.store(this, x, Operand::Const(ConstValue::Int(2)));
    mb.goto(b2);
    mb.switch_to(b2);
    mb.ret(None);
    let inner = mb.finish();
    // outer() { inner() }
    let mut mb = app.method(activity, "outer");
    mb.set_param_count(1);
    let this = mb.param(0);
    mb.vcall(inner, this, vec![]);
    mb.ret(None);
    let outer = mb.finish();
    // onPause() { outer() }
    let mut mb = app.method(activity, "onPause");
    mb.set_param_count(1);
    let this = mb.param(0);
    mb.vcall(outer, this, vec![]);
    mb.ret(None);
    mb.finish();
    // onResume() { flag = true; runOnUiThread(new R(this)) }
    let mut mb = app.method(activity, "onResume");
    mb.set_param_count(1);
    let this = mb.param(0);
    let r = mb.fresh_local();
    mb.store(this, flag, Operand::Const(ConstValue::Bool(true)));
    mb.new_(r, runner);
    mb.call(
        None,
        InvokeKind::Special,
        rinit,
        Some(r),
        vec![Operand::Local(this)],
    );
    mb.call(
        None,
        InvokeKind::Virtual,
        fw.run_on_ui_thread,
        Some(this),
        vec![Operand::Local(r)],
    );
    mb.ret(None);
    mb.finish();

    let harness = generate(app.finish().unwrap());
    let analysis = analyze(&harness, SelectorKind::ActionSensitive(1));
    let accesses = reached_accesses(&analysis, &harness);
    let xf = harness
        .app
        .program
        .declared_field(harness.app.program.class_by_name("Act").unwrap(), "x")
        .unwrap();
    let a = access_in(&accesses, &analysis, xf, true, |k| {
        matches!(k, ActionKind::RunnablePost)
    });
    let b = access_in(&accesses, &analysis, xf, true, |k| {
        matches!(
            k,
            ActionKind::Lifecycle {
                event: android_model::LifecycleEvent::Pause,
                ..
            }
        )
    });
    let mut refuter = Refuter::new(&analysis, &harness.app.program, BUDGET);
    assert_eq!(
        refuter.refute_pair(a, b),
        Outcome::Refuted,
        "guard conflict must be found two frames deep"
    );
}
