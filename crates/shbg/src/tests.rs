//! SHBG construction tests over small harnessed apps.

use crate::{CallDominance, HbRule, Shbg};
use android_model::{ActionId, ActionKind, AndroidAppBuilder, GuiEventKind, LifecycleEvent};
use apir::{ConstValue, InvokeKind, MethodId, Operand, Type};
use harness_gen::{generate, HarnessResult};
use pointer::{analyze, Analysis, SelectorKind};
use std::collections::HashMap;

/// [`crate::build`] over dominance computed from each reached body.
fn build(a: &Analysis, h: &HarnessResult) -> Shbg {
    let program = &h.app.program;
    let dominance: HashMap<MethodId, CallDominance> = a
        .reachable
        .iter()
        .map(|&(m, _)| (m, CallDominance::compute(program.method(m))))
        .collect();
    crate::build(a, h, |m| &dominance[&m])
}

fn lifecycle_action(a: &Analysis, ev: LifecycleEvent, instance: u8) -> ActionId {
    a.actions
        .actions()
        .iter()
        .find(|x| {
            x.kind
                == ActionKind::Lifecycle {
                    event: ev,
                    instance,
                }
        })
        .unwrap_or_else(|| panic!("missing lifecycle action {ev:?} #{instance}"))
        .id
}

fn action_of_kind(a: &Analysis, pred: impl Fn(&ActionKind) -> bool) -> ActionId {
    a.actions
        .actions()
        .iter()
        .find(|x| pred(&x.kind))
        .expect("action of kind")
        .id
}

/// Minimal activity with a lifecycle override (so the harness exists).
fn bare_activity(app: &mut AndroidAppBuilder) -> apir::ClassId {
    let activity = app.activity("Main").build();
    let mut mb = app.method(activity, "onCreate");
    mb.set_param_count(1);
    mb.ret(None);
    mb.finish();
    activity
}

#[test]
fn lifecycle_rule_orders_figure_5_edges() {
    let mut app = AndroidAppBuilder::new("T");
    bare_activity(&mut app);
    let h = generate(app.finish().unwrap());
    let a = analyze(&h, SelectorKind::ActionSensitive(1));
    let g = build(&a, &h);

    use LifecycleEvent::*;
    let c = lifecycle_action(&a, Create, 1);
    let s1 = lifecycle_action(&a, Start, 1);
    let s2 = lifecycle_action(&a, Start, 2);
    let r1 = lifecycle_action(&a, Resume, 1);
    let r2 = lifecycle_action(&a, Resume, 2);
    let p = lifecycle_action(&a, Pause, 1);
    let st = lifecycle_action(&a, Stop, 1);
    let d = lifecycle_action(&a, Destroy, 1);

    // The paper's Figure 5 edges.
    assert!(g.ordered(c, s1));
    assert!(g.ordered(s1, st), "onStart \"1\" ≺ onStop");
    assert!(g.ordered(r1, p), "onResume \"1\" ≺ onPause");
    assert!(g.ordered(p, r2), "onPause ≺ onResume \"2\"");
    assert!(g.ordered(st, s2), "onStop ≺ onStart \"2\"");
    assert!(g.ordered(c, d));
    // Cycle members are not ordered the other way.
    assert!(!g.ordered(s2, st));
    assert!(!g.ordered(r2, p));
    // Transitivity: onCreate ≺ onResume "2".
    assert!(g.ordered(c, r2));
    assert!(!g.unordered(c, r2));
    assert!(g.edges_by_rule(HbRule::Lifecycle).len() >= 8);
}

#[test]
fn async_task_posting_is_ordered_by_rule_1_and_task_order() {
    let mut app = AndroidAppBuilder::new("T");
    let fw = app.framework().clone();
    let mut cb = app.subclass("Task", fw.async_task);
    let f = cb.field("x", Type::Int);
    let task = cb.build();
    for name in ["doInBackground", "onPostExecute"] {
        let mut mb = app.method(task, name);
        mb.set_param_count(1);
        let this = mb.param(0);
        mb.store(this, f, Operand::Const(ConstValue::Int(1)));
        mb.ret(None);
        mb.finish();
    }
    let activity = app.activity("Main").build();
    let mut mb = app.method(activity, "onCreate");
    mb.set_param_count(1);
    let t = mb.fresh_local();
    mb.new_(t, task);
    mb.call(
        None,
        InvokeKind::Virtual,
        fw.async_task_execute,
        Some(t),
        vec![],
    );
    mb.ret(None);
    mb.finish();

    let h = generate(app.finish().unwrap());
    let a = analyze(&h, SelectorKind::ActionSensitive(1));
    let g = build(&a, &h);

    let create = lifecycle_action(&a, LifecycleEvent::Create, 1);
    let bg = action_of_kind(&a, |k| matches!(k, ActionKind::AsyncTaskBg));
    let post = action_of_kind(&a, |k| matches!(k, ActionKind::AsyncTaskPost));
    assert!(g.ordered(create, bg), "rule 1: poster ≺ posted");
    assert!(
        g.ordered(bg, post),
        "task order: doInBackground ≺ onPostExecute"
    );
    assert!(g.ordered(create, post), "transitivity");
    assert!(!g.edges_by_rule(HbRule::AsyncTaskOrder).is_empty());
    assert!(!g.edges_by_rule(HbRule::ActionInvocation).is_empty());

    // onPostExecute is NOT ordered with later lifecycle events like onStop.
    let stop = lifecycle_action(&a, LifecycleEvent::Stop, 1);
    assert!(g.unordered(post, stop));
}

/// Builds an app whose `onCreate` posts two runnables in sequence via
/// `runOnUiThread` — rule 4 must order them.
#[test]
fn rule_4_orders_sequential_posts() {
    let mut app = AndroidAppBuilder::new("T");
    let fw = app.framework().clone();
    let mut runnables = Vec::new();
    for name in ["R1", "R2"] {
        let mut cb = app.subclass(name, fw.object);
        cb.add_interface(fw.runnable);
        let c = cb.build();
        let mut mb = app.method(c, "run");
        mb.set_param_count(1);
        mb.ret(None);
        mb.finish();
        runnables.push(c);
    }
    let activity = app.activity("Main").build();
    let mut mb = app.method(activity, "onCreate");
    mb.set_param_count(1);
    let this = mb.param(0);
    let r1 = mb.fresh_local();
    let r2 = mb.fresh_local();
    mb.new_(r1, runnables[0]);
    mb.new_(r2, runnables[1]);
    mb.call(
        None,
        InvokeKind::Virtual,
        fw.run_on_ui_thread,
        Some(this),
        vec![Operand::Local(r1)],
    );
    mb.call(
        None,
        InvokeKind::Virtual,
        fw.run_on_ui_thread,
        Some(this),
        vec![Operand::Local(r2)],
    );
    mb.ret(None);
    mb.finish();

    let h = generate(app.finish().unwrap());
    let a = analyze(&h, SelectorKind::ActionSensitive(1));
    let g = build(&a, &h);
    let post1 = a
        .actions
        .actions()
        .iter()
        .find(|x| {
            matches!(x.kind, ActionKind::RunnablePost)
                && h.app.program.class(h.app.program.method(x.entry).class).id == runnables[0]
        })
        .unwrap()
        .id;
    let post2 = a
        .actions
        .actions()
        .iter()
        .find(|x| {
            matches!(x.kind, ActionKind::RunnablePost)
                && h.app.program.class(h.app.program.method(x.entry).class).id == runnables[1]
        })
        .unwrap()
        .id;
    assert!(g.ordered(post1, post2), "rule 4: first post ≺ second post");
    assert!(!g.ordered(post2, post1));
    assert!(!g.edges_by_rule(HbRule::IntraProcDom).is_empty());
}

/// Rule 5: `onCreate` posts R1 and then calls a helper that posts R2; the
/// helper is only reachable through `onCreate`, past the first post.
#[test]
fn rule_5_orders_posts_across_methods() {
    let mut app = AndroidAppBuilder::new("T");
    let fw = app.framework().clone();
    let mut runnables = Vec::new();
    for name in ["R1", "R2"] {
        let mut cb = app.subclass(name, fw.object);
        cb.add_interface(fw.runnable);
        let c = cb.build();
        let mut mb = app.method(c, "run");
        mb.set_param_count(1);
        mb.ret(None);
        mb.finish();
        runnables.push(c);
    }
    let activity = app.activity("Main").build();
    // helper() { runOnUiThread(new R2) }
    let mut mb = app.method(activity, "helper");
    mb.set_param_count(1);
    let this = mb.param(0);
    let r2 = mb.fresh_local();
    mb.new_(r2, runnables[1]);
    mb.call(
        None,
        InvokeKind::Virtual,
        fw.run_on_ui_thread,
        Some(this),
        vec![Operand::Local(r2)],
    );
    mb.ret(None);
    let helper = mb.finish();
    // onCreate() { runOnUiThread(new R1); helper() }
    let mut mb = app.method(activity, "onCreate");
    mb.set_param_count(1);
    let this = mb.param(0);
    let r1 = mb.fresh_local();
    mb.new_(r1, runnables[0]);
    mb.call(
        None,
        InvokeKind::Virtual,
        fw.run_on_ui_thread,
        Some(this),
        vec![Operand::Local(r1)],
    );
    mb.vcall(helper, this, vec![]);
    mb.ret(None);
    mb.finish();

    let h = generate(app.finish().unwrap());
    let a = analyze(&h, SelectorKind::ActionSensitive(1));
    let g = build(&a, &h);
    let find = |class: apir::ClassId| {
        a.actions
            .actions()
            .iter()
            .find(|x| {
                matches!(x.kind, ActionKind::RunnablePost)
                    && h.app.program.method(x.entry).class == class
            })
            .unwrap()
            .id
    };
    let p1 = find(runnables[0]);
    let p2 = find(runnables[1]);
    assert!(g.ordered(p1, p2), "rule 5: e1 de-facto dominates e2");
    assert!(!g.ordered(p2, p1));
    assert!(!g.edges_by_rule(HbRule::InterProcDom).is_empty());
}

/// Figure 7: ordered actions A1 ≺ A2 posting A3 and A4 to the same looper
/// order A3 ≺ A4 (rule 6).
#[test]
fn rule_6_inter_action_transitivity() {
    let mut app = AndroidAppBuilder::new("T");
    let fw = app.framework().clone();
    let mut runnables = Vec::new();
    for name in ["R3", "R4"] {
        let mut cb = app.subclass(name, fw.object);
        cb.add_interface(fw.runnable);
        let c = cb.build();
        let mut mb = app.method(c, "run");
        mb.set_param_count(1);
        mb.ret(None);
        mb.finish();
        runnables.push(c);
    }
    let activity = app.activity("Main").build();
    // A1 = onCreate posts R3; A2 = onStart posts R4. onCreate ≺ onStart by
    // rule 2, so rule 6 gives post(R3) ≺ post(R4).
    for (name, class) in [("onCreate", runnables[0]), ("onStart", runnables[1])] {
        let mut mb = app.method(activity, name);
        mb.set_param_count(1);
        let this = mb.param(0);
        let r = mb.fresh_local();
        mb.new_(r, class);
        mb.call(
            None,
            InvokeKind::Virtual,
            fw.run_on_ui_thread,
            Some(this),
            vec![Operand::Local(r)],
        );
        mb.ret(None);
        mb.finish();
    }

    let h = generate(app.finish().unwrap());
    let a = analyze(&h, SelectorKind::ActionSensitive(1));
    let g = build(&a, &h);
    let find = |class: apir::ClassId| {
        a.actions
            .actions()
            .iter()
            .find(|x| {
                matches!(x.kind, ActionKind::RunnablePost)
                    && h.app.program.method(x.entry).class == class
            })
            .unwrap()
            .id
    };
    let p3 = find(runnables[0]);
    let p4 = find(runnables[1]);
    assert!(g.ordered(p3, p4), "rule 6 (Figure 7): A3 ≺ A4");
    assert!(!g.edges_by_rule(HbRule::InterActionTransitivity).is_empty());
}

#[test]
fn gui_events_are_unordered_with_pause_but_after_resume() {
    let mut app = AndroidAppBuilder::new("T");
    let fw = app.framework().clone();
    let mut cb = app.activity("Main");
    cb.add_interface(fw.on_click_listener);
    let activity = cb.build();
    let mut mb = app.method(activity, "onClick");
    mb.set_param_count(2);
    mb.ret(None);
    mb.finish();
    let mut mb = app.method(activity, "onCreate");
    mb.set_param_count(1);
    let this = mb.param(0);
    let v = mb.fresh_local();
    mb.call(
        Some(v),
        InvokeKind::Virtual,
        fw.find_view_by_id,
        Some(this),
        vec![Operand::Const(ConstValue::Int(1))],
    );
    mb.call(
        None,
        InvokeKind::Virtual,
        fw.set_on_click_listener,
        Some(v),
        vec![Operand::Local(this)],
    );
    mb.ret(None);
    mb.finish();

    let h = generate(app.finish().unwrap());
    let a = analyze(&h, SelectorKind::ActionSensitive(1));
    let g = build(&a, &h);
    let click = action_of_kind(&a, |k| {
        matches!(
            k,
            ActionKind::Gui {
                event: GuiEventKind::Click,
                ..
            }
        )
    });
    let resume1 = lifecycle_action(&a, LifecycleEvent::Resume, 1);
    let pause = lifecycle_action(&a, LifecycleEvent::Pause, 1);
    let destroy = lifecycle_action(&a, LifecycleEvent::Destroy, 1);
    assert!(g.ordered(resume1, click), "Figure 6: onResume ≺ onClick");
    assert!(g.unordered(click, pause), "clicks race with pausing");
    assert!(
        g.unordered(click, destroy),
        "no false UI-after-stop ordering *edges* needed"
    );
    assert!(g.ordered_pair_count() > 0);
    assert!(g.action_count() > 10);
}
