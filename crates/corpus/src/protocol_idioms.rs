//! Fixture apps for the message-history refutation stage.
//!
//! Each app plants exactly one false positive that *only* the histories
//! stage can discharge — the pair survives the SHBG (the actions are
//! unordered), the prefilter (no guard, no constant branch, the fields
//! escape), and the symbolic refuter (the accesses are unguarded) — plus
//! one genuine race the stage must not touch. The four apps cover the
//! protocol idioms of §4 and all three refutation patterns:
//!
//! - [`dialog_dismiss`] — a click handler shows a dialog, `onDestroy`
//!   dismisses it. The interactive `Resumed` loop cannot follow the
//!   terminal `Destroyed` region: **destroy-dominates**.
//! - [`fragment_detach`] — a "fragment" (modelled as a receiver) is
//!   attached in `onStart` and detached in `onStop`; its callback is
//!   quiesced before `onDestroy` can run: **pause-quiesced**.
//! - [`task_cancel`] — an `AsyncTask` is executed and cancelled inside
//!   the same `onCreate`; its `onPostExecute` is dead:
//!   **unregistered-before-posted**.
//! - [`pause_unregister`] — a receiver registered in `onCreate` is
//!   unregistered in `onPause`, so `onReceive` cannot reach the
//!   destroy region: **pause-quiesced**.

use crate::ground_truth::{GroundTruth, RaceLabel};
use android_model::{AndroidApp, AndroidAppBuilder};
use apir::{ClassId, ConstValue, FieldId, InvokeKind, MethodId, Operand, Type};

/// Activity of the dialog show/dismiss app.
pub const DIALOG_ACTIVITY: &str = "com.protocol.DialogHost";
/// Activity of the fragment attach/detach app.
pub const FRAGMENT_ACTIVITY: &str = "com.protocol.FragmentHost";
/// Activity of the async-task cancellation app.
pub const TASK_ACTIVITY: &str = "com.protocol.TaskHost";
/// Activity of the unregister-in-onPause app.
pub const PAUSE_ACTIVITY: &str = "com.protocol.PauseGuard";

/// All four fixture apps with their ground truth.
pub fn build_all() -> Vec<(&'static str, AndroidApp, GroundTruth)> {
    let (a, ta) = dialog_dismiss();
    let (b, tb) = fragment_detach();
    let (c, tc) = task_cancel();
    let (d, td) = pause_unregister();
    vec![
        ("dialog-dismiss", a, ta),
        ("fragment-detach", b, tb),
        ("task-cancel", c, tc),
        ("pause-unregister", d, td),
    ]
}

/// Declares a `Runnable` worker with an `outer` back-reference whose
/// `run` body is supplied by `body`, and starts it on a fresh thread at
/// the current point of `mb` (the worker carries the app's true race).
fn start_worker_thread(
    app: &mut AndroidAppBuilder,
    name: &str,
    outer_class: ClassId,
    body: impl FnOnce(&mut apir::MethodBuilder<'_>, apir::Local),
) -> (ClassId, MethodId) {
    let fw = app.framework().clone();
    let mut cb = app.subclass(name, fw.object);
    cb.add_interface(fw.runnable);
    let outer = cb.field("outer", Type::Ref(outer_class));
    let class = cb.build();
    let mut mb = app.method(class, "<init>");
    mb.set_param_count(2);
    let (this, o) = (mb.param(0), mb.param(1));
    mb.store(this, outer, Operand::Local(o));
    mb.ret(None);
    let init = mb.finish();
    let mut mb = app.method(class, "run");
    mb.set_param_count(1);
    let this = mb.param(0);
    let o = mb.fresh_local();
    mb.load(o, this, outer);
    body(&mut mb, o);
    mb.ret(None);
    mb.finish();
    (class, init)
}

/// Emits `w = new Worker(this); new Thread(w).start()` into `mb`.
fn spawn_worker(
    mb: &mut apir::MethodBuilder<'_>,
    fw: &android_model::FrameworkClasses,
    this: apir::Local,
    worker: ClassId,
    worker_init: MethodId,
) {
    let (w, t) = (mb.fresh_local(), mb.fresh_local());
    mb.new_(w, worker);
    mb.call(
        None,
        InvokeKind::Special,
        worker_init,
        Some(w),
        vec![Operand::Local(this)],
    );
    mb.new_(t, fw.thread);
    mb.call(
        None,
        InvokeKind::Special,
        fw.thread_init,
        Some(t),
        vec![Operand::Local(w)],
    );
    mb.call(None, InvokeKind::Virtual, fw.thread_start, Some(t), vec![]);
}

/// Declares a `BroadcastReceiver` subclass with an `outer` back-reference
/// and an `onReceive` body supplied by `body`.
fn receiver_with_outer(
    app: &mut AndroidAppBuilder,
    name: &str,
    outer_class: ClassId,
    body: impl FnOnce(&mut apir::MethodBuilder<'_>, apir::Local),
) -> (ClassId, MethodId) {
    let fw = app.framework().clone();
    let mut cb = app.subclass(name, fw.broadcast_receiver);
    let outer = cb.field("outer", Type::Ref(outer_class));
    let class = cb.build();
    let mut mb = app.method(class, "<init>");
    mb.set_param_count(2);
    let (this, o) = (mb.param(0), mb.param(1));
    mb.store(this, outer, Operand::Local(o));
    mb.ret(None);
    let init = mb.finish();
    let mut mb = app.method(class, "onReceive");
    mb.set_param_count(2);
    let this = mb.param(0);
    let o = mb.fresh_local();
    mb.load(o, this, outer);
    body(&mut mb, o);
    mb.ret(None);
    mb.finish();
    (class, init)
}

/// Allocates `recv_local = new Recv(this)`, stores it into `field`, and
/// registers it: the registration half of the register/unregister idiom.
fn register_receiver_in(
    mb: &mut apir::MethodBuilder<'_>,
    fw: &android_model::FrameworkClasses,
    this: apir::Local,
    recv_class: ClassId,
    recv_init: MethodId,
    field: FieldId,
) {
    let r = mb.fresh_local();
    mb.new_(r, recv_class);
    mb.call(
        None,
        InvokeKind::Special,
        recv_init,
        Some(r),
        vec![Operand::Local(this)],
    );
    mb.store(this, field, Operand::Local(r));
    mb.call(
        None,
        InvokeKind::Virtual,
        fw.register_receiver,
        Some(this),
        vec![Operand::Local(r)],
    );
}

/// Loads the receiver back from `field` and unregisters it.
fn unregister_receiver_in(
    mb: &mut apir::MethodBuilder<'_>,
    fw: &android_model::FrameworkClasses,
    this: apir::Local,
    field: FieldId,
) {
    let r = mb.fresh_local();
    mb.load(r, this, field);
    mb.call(
        None,
        InvokeKind::Virtual,
        fw.unregister_receiver,
        Some(this),
        vec![Operand::Local(r)],
    );
}

/// Dialog show/dismiss: `onClick` shows a dialog (`dlg` write),
/// `onDestroy` dismisses whatever is showing (`dlg` read). The GUI
/// handler only runs in the `Resumed` loop, which the automaton cannot
/// re-enter from `Destroyed` — the **destroy-dominates** discharge. The
/// true race is a background prefetcher bumping `clicks` while the
/// handler reads it.
pub fn dialog_dismiss() -> (AndroidApp, GroundTruth) {
    let mut app = AndroidAppBuilder::new("DialogDismiss");
    let mut truth = GroundTruth::new();
    let fw = app.framework().clone();

    let mut cb = app.activity(DIALOG_ACTIVITY);
    cb.add_interface(fw.on_click_listener);
    let dlg = cb.field("dlg", Type::Ref(fw.object));
    let clicks = cb.field("clicks", Type::Int);
    let activity = cb.build();

    let (worker, worker_init) = start_worker_thread(
        &mut app,
        &format!("{DIALOG_ACTIVITY}$Prefetch"),
        activity,
        |mb, o| {
            mb.store(o, clicks, Operand::Const(ConstValue::Int(1)));
        },
    );

    let mut mb = app.method(activity, "onCreate");
    mb.set_param_count(1);
    let this = mb.param(0);
    spawn_worker(&mut mb, &fw, this, worker, worker_init);
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

    // onClick: read the click counter, then "show" a dialog.
    let mut mb = app.method(activity, "onClick");
    mb.set_param_count(2);
    let this = mb.param(0);
    let (c, d) = (mb.fresh_local(), mb.fresh_local());
    mb.load(c, this, clicks);
    mb.new_(d, fw.object);
    mb.store(this, dlg, Operand::Local(d));
    mb.ret(None);
    mb.finish();

    // onDestroy: dismiss whatever dialog is showing.
    let mut mb = app.method(activity, "onDestroy");
    mb.set_param_count(1);
    let this = mb.param(0);
    let d = mb.fresh_local();
    mb.load(d, this, dlg);
    mb.ret(None);
    mb.finish();

    truth.plant(DIALOG_ACTIVITY, "dlg", RaceLabel::Refutable);
    truth.plant(DIALOG_ACTIVITY, "clicks", RaceLabel::TrueRace);
    (app.finish().expect("valid dialog fixture"), truth)
}

/// Fragment attach/detach: the "fragment" is attached in `onStart` and
/// detached in `onStop`, so its callback window is `{Started, Resumed,
/// Paused}` — it can never interleave with `onDestroy`'s read of
/// `fragView`: the **pause-quiesced** discharge. The true race is a
/// background loader filling `cache` while the callback reads it.
pub fn fragment_detach() -> (AndroidApp, GroundTruth) {
    let mut app = AndroidAppBuilder::new("FragmentDetach");
    let mut truth = GroundTruth::new();
    let fw = app.framework().clone();

    let mut cb = app.activity(FRAGMENT_ACTIVITY);
    let frag_view = cb.field("fragView", Type::Ref(fw.object));
    let cache = cb.field("cache", Type::Ref(fw.object));
    let activity = cb.build();

    let (frag, frag_init) = receiver_with_outer(
        &mut app,
        &format!("{FRAGMENT_ACTIVITY}$Frag"),
        activity,
        |mb, o| {
            let (v, x) = (mb.fresh_local(), mb.fresh_local());
            mb.new_(v, fw.object);
            mb.store(o, frag_view, Operand::Local(v));
            mb.load(x, o, cache);
        },
    );
    let frag_field = app
        .program_builder()
        .add_field(activity, "frag", Type::Ref(frag), false);

    let (worker, worker_init) = start_worker_thread(
        &mut app,
        &format!("{FRAGMENT_ACTIVITY}$Loader"),
        activity,
        |mb, o| {
            let v = mb.fresh_local();
            mb.new_(v, fw.object);
            mb.store(o, cache, Operand::Local(v));
        },
    );

    let mut mb = app.method(activity, "onCreate");
    mb.set_param_count(1);
    let this = mb.param(0);
    spawn_worker(&mut mb, &fw, this, worker, worker_init);
    mb.ret(None);
    mb.finish();

    let mut mb = app.method(activity, "onStart");
    mb.set_param_count(1);
    let this = mb.param(0);
    register_receiver_in(&mut mb, &fw, this, frag, frag_init, frag_field);
    mb.ret(None);
    mb.finish();

    let mut mb = app.method(activity, "onStop");
    mb.set_param_count(1);
    let this = mb.param(0);
    unregister_receiver_in(&mut mb, &fw, this, frag_field);
    mb.ret(None);
    mb.finish();

    // onDestroy tears down the view the fragment callback writes.
    let mut mb = app.method(activity, "onDestroy");
    mb.set_param_count(1);
    let this = mb.param(0);
    let x = mb.fresh_local();
    mb.load(x, this, frag_view);
    mb.ret(None);
    mb.finish();

    truth.plant(FRAGMENT_ACTIVITY, "fragView", RaceLabel::Refutable);
    truth.plant(FRAGMENT_ACTIVITY, "cache", RaceLabel::TrueRace);
    truth.plant(FRAGMENT_ACTIVITY, "frag", RaceLabel::Ordered);
    (app.finish().expect("valid fragment fixture"), truth)
}

/// Async-task cancellation: `onCreate` executes a task and immediately
/// cancels it, so the posted `onPostExecute` has an empty occurrence
/// window — the **unregistered-before-posted** discharge. Its private
/// `render` helper is reachable only from that dead callback. The true
/// race is a background monitor bumping `status` while `onResume` reads
/// it.
pub fn task_cancel() -> (AndroidApp, GroundTruth) {
    let mut app = AndroidAppBuilder::new("TaskCancel");
    let mut truth = GroundTruth::new();
    let fw = app.framework().clone();

    let mut cb = app.activity(TASK_ACTIVITY);
    let result = cb.field("result", Type::Ref(fw.object));
    let status = cb.field("status", Type::Int);
    let banner = cb.field("banner", Type::Int);
    let activity = cb.build();

    let task_name = format!("{TASK_ACTIVITY}$Fetch");
    let mut cb = app.subclass(&task_name, fw.async_task);
    let outer = cb.field("outer", Type::Ref(activity));
    let task = cb.build();

    let mut mb = app.method(task, "<init>");
    mb.set_param_count(2);
    let (this, o) = (mb.param(0), mb.param(1));
    mb.store(this, outer, Operand::Local(o));
    mb.ret(None);
    let task_init = mb.finish();

    let mut mb = app.method(task, "doInBackground");
    mb.set_param_count(1);
    mb.ret(None);
    mb.finish();

    // render(): dead alongside onPostExecute — it is reachable only from
    // the cancelled post action. Its two blocks and its `banner` load are
    // part of the fixture's pinned counters, so they stay.
    let mut mb = app.method(task, "render");
    mb.set_param_count(1);
    let this = mb.param(0);
    let o = mb.fresh_local();
    mb.load(o, this, outer);
    let b = mb.new_block();
    mb.goto(b);
    mb.switch_to(b);
    let x = mb.fresh_local();
    mb.load(x, o, banner);
    mb.ret(None);
    let render = mb.finish();

    let mut mb = app.method(task, "onPostExecute");
    mb.set_param_count(1);
    let this = mb.param(0);
    let (o, v) = (mb.fresh_local(), mb.fresh_local());
    mb.load(o, this, outer);
    mb.new_(v, fw.object);
    mb.store(o, result, Operand::Local(v));
    mb.call(None, InvokeKind::Virtual, render, Some(this), vec![]);
    mb.ret(None);
    mb.finish();

    let (worker, worker_init) = start_worker_thread(
        &mut app,
        &format!("{TASK_ACTIVITY}$Monitor"),
        activity,
        |mb, o| {
            mb.store(o, status, Operand::Const(ConstValue::Int(1)));
        },
    );

    // onCreate: start the monitor, then execute + cancel the task.
    let mut mb = app.method(activity, "onCreate");
    mb.set_param_count(1);
    let this = mb.param(0);
    spawn_worker(&mut mb, &fw, this, worker, worker_init);
    let t = mb.fresh_local();
    mb.new_(t, task);
    mb.call(
        None,
        InvokeKind::Special,
        task_init,
        Some(t),
        vec![Operand::Local(this)],
    );
    mb.call(
        None,
        InvokeKind::Virtual,
        fw.async_task_execute,
        Some(t),
        vec![],
    );
    mb.call(
        None,
        InvokeKind::Virtual,
        fw.async_task_cancel,
        Some(t),
        vec![],
    );
    mb.ret(None);
    mb.finish();

    let mut mb = app.method(activity, "onResume");
    mb.set_param_count(1);
    let this = mb.param(0);
    let x = mb.fresh_local();
    mb.load(x, this, status);
    mb.ret(None);
    mb.finish();

    let mut mb = app.method(activity, "onPause");
    mb.set_param_count(1);
    let this = mb.param(0);
    let x = mb.fresh_local();
    mb.load(x, this, result);
    mb.ret(None);
    mb.finish();

    truth.plant(TASK_ACTIVITY, "result", RaceLabel::Refutable);
    truth.plant(TASK_ACTIVITY, "status", RaceLabel::TrueRace);
    (app.finish().expect("valid task fixture"), truth)
}

/// Unregister-in-onPause: a receiver registered in `onCreate` is torn
/// down in `onPause`, quiescing `onReceive` before the stop/destroy
/// tail — its `flag` write can never meet `onDestroy`'s read: the
/// **pause-quiesced** discharge. The true race is a background producer
/// filling `buf` while `onReceive` consumes it.
pub fn pause_unregister() -> (AndroidApp, GroundTruth) {
    let mut app = AndroidAppBuilder::new("PauseUnregister");
    let mut truth = GroundTruth::new();
    let fw = app.framework().clone();

    let mut cb = app.activity(PAUSE_ACTIVITY);
    let flag = cb.field("flag", Type::Int);
    let buf = cb.field("buf", Type::Ref(fw.object));
    let activity = cb.build();

    let (recv, recv_init) = receiver_with_outer(
        &mut app,
        &format!("{PAUSE_ACTIVITY}$Recv"),
        activity,
        |mb, o| {
            let x = mb.fresh_local();
            mb.store(o, flag, Operand::Const(ConstValue::Int(1)));
            mb.load(x, o, buf);
        },
    );
    let recv_field = app
        .program_builder()
        .add_field(activity, "recv", Type::Ref(recv), false);

    let (worker, worker_init) = start_worker_thread(
        &mut app,
        &format!("{PAUSE_ACTIVITY}$Producer"),
        activity,
        |mb, o| {
            let v = mb.fresh_local();
            mb.new_(v, fw.object);
            mb.store(o, buf, Operand::Local(v));
        },
    );

    let mut mb = app.method(activity, "onCreate");
    mb.set_param_count(1);
    let this = mb.param(0);
    register_receiver_in(&mut mb, &fw, this, recv, recv_init, recv_field);
    spawn_worker(&mut mb, &fw, this, worker, worker_init);
    mb.ret(None);
    mb.finish();

    let mut mb = app.method(activity, "onPause");
    mb.set_param_count(1);
    let this = mb.param(0);
    unregister_receiver_in(&mut mb, &fw, this, recv_field);
    mb.ret(None);
    mb.finish();

    let mut mb = app.method(activity, "onDestroy");
    mb.set_param_count(1);
    let this = mb.param(0);
    let x = mb.fresh_local();
    mb.load(x, this, flag);
    mb.ret(None);
    mb.finish();

    truth.plant(PAUSE_ACTIVITY, "flag", RaceLabel::Refutable);
    truth.plant(PAUSE_ACTIVITY, "buf", RaceLabel::TrueRace);
    truth.plant(PAUSE_ACTIVITY, "recv", RaceLabel::Ordered);
    (app.finish().expect("valid pause fixture"), truth)
}
