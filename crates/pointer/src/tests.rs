//! End-to-end tests of the points-to analysis over harnessed apps.

use crate::{analyze, collect_accesses, method_access_sites, Access, AccessSite, SelectorKind};
use android_model::{ActionKind, AndroidAppBuilder, GuiEventKind, LifecycleEvent, ThreadKind};
use apir::{ConstValue, InvokeKind, MethodId, Operand, Type};
use harness_gen::{generate, HarnessResult};
use std::collections::HashMap;

/// [`collect_accesses`] outside the harness class, over access sites
/// extracted from each reached body.
fn reached_accesses(a: &crate::Analysis, h: &HarnessResult) -> Vec<Access> {
    let program = &h.app.program;
    let sites: HashMap<MethodId, Vec<AccessSite>> = a
        .reachable
        .iter()
        .map(|&(m, _)| (m, method_access_sites(program, a.framework(), m)))
        .collect();
    collect_accesses(a, program, Some(h.harness_class), |m| &sites[&m])
}

/// Builds the Figure-1 style app: an activity whose `onClick` executes an
/// `AsyncTask` that writes the adapter's data in `doInBackground`, while
/// `onScroll` reads it.
fn news_app() -> harness_gen::HarnessResult {
    let mut app = AndroidAppBuilder::new("News");
    let fw = app.framework().clone();

    let mut cb = app.subclass("NewsAdapter", fw.adapter);
    let data = cb.field("data", Type::Ref(fw.object));
    let adapter_class = cb.build();

    let mut cb = app.subclass("LoaderTask", fw.async_task);
    let task_adapter = cb.field("adapter", Type::Ref(adapter_class));
    let task_class = cb.build();

    let mut cb = app.activity("NewsActivity");
    cb.add_interface(fw.on_click_listener);
    cb.add_interface(fw.on_scroll_listener);
    let act_adapter = cb.field("adapter", Type::Ref(adapter_class));
    let activity = cb.build();

    // LoaderTask.<init>(adapter) { this.adapter = adapter }
    let mut mb = app.method(task_class, "<init>");
    mb.set_param_count(2);
    let (this, a) = (mb.param(0), mb.param(1));
    mb.store(this, task_adapter, Operand::Local(a));
    mb.ret(None);
    let task_init = mb.finish();

    // LoaderTask.doInBackground { news = new Object; this.adapter.data = news }
    let mut mb = app.method(task_class, "doInBackground");
    mb.set_param_count(1);
    let this = mb.param(0);
    let ad = mb.fresh_local();
    let news = mb.fresh_local();
    mb.new_(news, fw.object);
    mb.load(ad, this, task_adapter);
    mb.store(ad, data, Operand::Local(news));
    mb.ret(None);
    mb.finish();

    // LoaderTask.onPostExecute { this.adapter.notifyDataSetChanged() }
    let mut mb = app.method(task_class, "onPostExecute");
    mb.set_param_count(1);
    let this = mb.param(0);
    let ad = mb.fresh_local();
    mb.load(ad, this, task_adapter);
    mb.vcall(fw.notify_data_set_changed, ad, vec![]);
    mb.ret(None);
    mb.finish();

    // Activity.onCreate { rv = findViewById(1); adapter = new NewsAdapter;
    //   this.adapter = adapter; rv.setOnClickListener(this);
    //   rv.setOnScrollListener(this) }
    let mut mb = app.method(activity, "onCreate");
    mb.set_param_count(1);
    let this = mb.param(0);
    let rv = mb.fresh_local();
    let ad = mb.fresh_local();
    mb.call(
        Some(rv),
        InvokeKind::Virtual,
        fw.find_view_by_id,
        Some(this),
        vec![Operand::Const(ConstValue::Int(1))],
    );
    mb.new_(ad, adapter_class);
    mb.store(this, act_adapter, Operand::Local(ad));
    mb.call(
        None,
        InvokeKind::Virtual,
        fw.set_on_click_listener,
        Some(rv),
        vec![Operand::Local(this)],
    );
    mb.call(
        None,
        InvokeKind::Virtual,
        fw.set_on_scroll_listener,
        Some(rv),
        vec![Operand::Local(this)],
    );
    mb.ret(None);
    mb.finish();

    // Activity.onClick { t = new LoaderTask(this.adapter); t.execute() }
    let mut mb = app.method(activity, "onClick");
    mb.set_param_count(2);
    let this = mb.param(0);
    let ad = mb.fresh_local();
    let t = mb.fresh_local();
    mb.load(ad, this, act_adapter);
    mb.new_(t, task_class);
    mb.call(
        None,
        InvokeKind::Special,
        task_init,
        Some(t),
        vec![Operand::Local(ad)],
    );
    mb.call(
        None,
        InvokeKind::Virtual,
        fw.async_task_execute,
        Some(t),
        vec![],
    );
    mb.ret(None);
    mb.finish();

    // Activity.onScroll { x = this.adapter.data }
    let mut mb = app.method(activity, "onScroll");
    mb.set_param_count(2);
    let this = mb.param(0);
    let ad = mb.fresh_local();
    let x = mb.fresh_local();
    mb.load(ad, this, act_adapter);
    mb.load(x, ad, data);
    mb.ret(None);
    mb.finish();

    generate(app.finish().unwrap())
}

#[test]
fn news_app_actions_and_posts() {
    let h = news_app();
    let a = analyze(&h, SelectorKind::ActionSensitive(1));

    let lifecycle = a
        .actions
        .actions()
        .iter()
        .filter(|x| matches!(x.kind, ActionKind::Lifecycle { .. }))
        .count();
    assert_eq!(lifecycle, 9, "9 lifecycle callback instances per Figure 5");

    let gui: Vec<_> = a
        .actions
        .actions()
        .iter()
        .filter(|x| matches!(x.kind, ActionKind::Gui { .. }))
        .collect();
    assert_eq!(gui.len(), 2, "onClick and onScroll registrations");

    let bg = a
        .actions
        .actions()
        .iter()
        .find(|x| matches!(x.kind, ActionKind::AsyncTaskBg))
        .expect("doInBackground action");
    assert!(matches!(bg.thread, ThreadKind::Background(Some(_))));
    let post = a
        .actions
        .actions()
        .iter()
        .find(|x| matches!(x.kind, ActionKind::AsyncTaskPost))
        .expect("onPostExecute action");
    assert_eq!(post.thread, ThreadKind::Main);

    // The onClick action posted the task actions.
    let click = gui
        .iter()
        .find(|x| {
            matches!(
                x.kind,
                ActionKind::Gui {
                    event: GuiEventKind::Click,
                    ..
                }
            )
        })
        .unwrap();
    assert!(a
        .posts
        .iter()
        .any(|p| p.poster == click.id && p.posted == bg.id));
    assert!(a
        .posts
        .iter()
        .any(|p| p.poster == click.id && p.posted == post.id));
}

#[test]
fn news_app_accesses_overlap_between_bg_write_and_scroll_read() {
    let h = news_app();
    let a = analyze(&h, SelectorKind::ActionSensitive(1));
    let accesses = reached_accesses(&a, &h);
    let data_field = h.app.program.class_by_name("NewsAdapter").unwrap();
    let data_field = h.app.program.declared_field(data_field, "data").unwrap();

    let writes: Vec<_> = accesses
        .iter()
        .filter(|x| x.is_write && x.field == data_field)
        .collect();
    let reads: Vec<_> = accesses
        .iter()
        .filter(|x| !x.is_write && x.field == data_field)
        .collect();
    assert!(!writes.is_empty() && !reads.is_empty());
    let w = writes
        .iter()
        .find(|x| matches!(a.actions.action(x.action).kind, ActionKind::AsyncTaskBg))
        .expect("write attributed to doInBackground action");
    let r = reads
        .iter()
        .find(|x| {
            matches!(
                a.actions.action(x.action).kind,
                ActionKind::Gui {
                    event: GuiEventKind::Scroll,
                    ..
                }
            )
        })
        .expect("read attributed to onScroll action");
    assert!(
        w.overlaps(r),
        "bg write and scroll read must alias the adapter"
    );
}

/// Two different GUI actions call the same helper that allocates an object
/// and writes a field on it. Action-sensitivity keeps the two allocations
/// apart; plain hybrid(1) conflates them (§3.3's `foo`/`bar` example).
fn factory_app() -> harness_gen::HarnessResult {
    let mut app = AndroidAppBuilder::new("Factory");
    let fw = app.framework().clone();
    let mut cb = app.subclass("Holder", fw.object);
    let xf = cb.field("x", Type::Int);
    let holder = cb.build();

    let mut cb = app.activity("Main");
    cb.add_interface(fw.on_click_listener);
    cb.add_interface(fw.on_long_click_listener);
    let activity = cb.build();

    // helper() { h = new Holder; h.x = 1 }
    let mut mb = app.method(activity, "helper");
    mb.set_param_count(1);
    let h = mb.fresh_local();
    mb.new_(h, holder);
    mb.store(h, xf, Operand::Const(ConstValue::Int(1)));
    mb.ret(None);
    let helper = mb.finish();

    // onClick / onLongClick both call helperBody().
    for name in ["onClick", "onLongClick"] {
        let mut mb = app.method(activity, name);
        mb.set_param_count(2);
        let this = mb.param(0);
        mb.vcall(helper, this, vec![]);
        mb.ret(None);
        mb.finish();
    }

    // onCreate registers both listeners on a view.
    let mut mb = app.method(activity, "onCreate");
    mb.set_param_count(1);
    let this = mb.param(0);
    let v = mb.fresh_local();
    mb.call(
        Some(v),
        InvokeKind::Virtual,
        fw.find_view_by_id,
        Some(this),
        vec![Operand::Const(ConstValue::Int(9))],
    );
    mb.call(
        None,
        InvokeKind::Virtual,
        fw.set_on_click_listener,
        Some(v),
        vec![Operand::Local(this)],
    );
    mb.call(
        None,
        InvokeKind::Virtual,
        fw.set_on_long_click_listener,
        Some(v),
        vec![Operand::Local(this)],
    );
    mb.ret(None);
    mb.finish();

    generate(app.finish().unwrap())
}

#[test]
fn action_sensitivity_separates_per_action_allocations() {
    let h = factory_app();
    let program = &h.app.program;
    let holder = program.class_by_name("Holder").unwrap();
    let xf = program.declared_field(holder, "x").unwrap();

    let count_holder_writes = |sel: SelectorKind| {
        let a = analyze(&h, sel);
        let accesses = reached_accesses(&a, &h);
        let writes: Vec<_> = accesses
            .into_iter()
            .filter(|x| x.is_write && x.field == xf)
            .collect();
        let mut overlapping_cross_action = 0;
        for i in 0..writes.len() {
            for j in i + 1..writes.len() {
                if writes[i].action != writes[j].action && writes[i].overlaps(&writes[j]) {
                    overlapping_cross_action += 1;
                }
            }
        }
        overlapping_cross_action
    };

    assert!(
        count_holder_writes(SelectorKind::Hybrid(1)) > 0,
        "hybrid(1) conflates the two per-action allocations"
    );
    assert_eq!(
        count_holder_writes(SelectorKind::ActionSensitive(1)),
        0,
        "action-sensitivity separates them"
    );
}

#[test]
fn thread_with_runnable_reaches_run_body() {
    let mut app = AndroidAppBuilder::new("Threads");
    let fw = app.framework().clone();
    let mut cb = app.subclass("Work", fw.object);
    cb.add_interface(fw.runnable);
    let done = cb.field("done", Type::Bool);
    let work = cb.build();
    let mut mb = app.method(work, "run");
    mb.set_param_count(1);
    let this = mb.param(0);
    mb.store(this, done, Operand::Const(ConstValue::Bool(true)));
    mb.ret(None);
    mb.finish();

    let activity = app.activity("Main").build();
    let mut mb = app.method(activity, "onCreate");
    mb.set_param_count(1);
    let r = mb.fresh_local();
    let t = mb.fresh_local();
    mb.new_(r, work);
    mb.new_(t, fw.thread);
    mb.call(
        None,
        InvokeKind::Special,
        fw.thread_init,
        Some(t),
        vec![Operand::Local(r)],
    );
    mb.call(None, InvokeKind::Virtual, fw.thread_start, Some(t), vec![]);
    mb.ret(None);
    mb.finish();

    let h = generate(app.finish().unwrap());
    let a = analyze(&h, SelectorKind::ActionSensitive(1));
    let thread_action = a
        .actions
        .actions()
        .iter()
        .find(|x| matches!(x.kind, ActionKind::ThreadRun))
        .expect("thread action");
    assert!(
        matches!(thread_action.thread, ThreadKind::Background(Some(id)) if id == thread_action.id)
    );

    // Work.run's store must be attributed to the thread action.
    let accesses = reached_accesses(&a, &h);
    let run_writes: Vec<_> = accesses
        .iter()
        .filter(|x| x.is_write && x.field == done)
        .collect();
    assert_eq!(run_writes.len(), 1);
    assert_eq!(run_writes[0].action, thread_action.id);
}

#[test]
fn handler_message_gets_constant_what_and_main_looper() {
    let mut app = AndroidAppBuilder::new("Handlers");
    let fw = app.framework().clone();
    let mut cb = app.subclass("MyHandler", fw.handler);
    let seen = cb.field("seen", Type::Int);
    let my_handler = cb.build();
    let mut mb = app.method(my_handler, "handleMessage");
    mb.set_param_count(2);
    let this = mb.param(0);
    mb.store(this, seen, Operand::Const(ConstValue::Int(1)));
    mb.ret(None);
    mb.finish();

    let mut cb = app.activity("Main");
    let hf = cb.field("h", Type::Ref(my_handler));
    let activity = cb.build();
    let mut mb = app.method(activity, "onCreate");
    mb.set_param_count(1);
    let this = mb.param(0);
    let h = mb.fresh_local();
    mb.new_(h, my_handler);
    mb.store(this, hf, Operand::Local(h));
    mb.ret(None);
    mb.finish();
    let mut mb = app.method(activity, "onResume");
    mb.set_param_count(1);
    let this = mb.param(0);
    let h = mb.fresh_local();
    mb.load(h, this, hf);
    mb.call(
        None,
        InvokeKind::Virtual,
        fw.handler_send_empty_message,
        Some(h),
        vec![Operand::Const(ConstValue::Int(3))],
    );
    mb.ret(None);
    mb.finish();

    let h = generate(app.finish().unwrap());
    let a = analyze(&h, SelectorKind::ActionSensitive(1));
    let msg = a
        .actions
        .actions()
        .iter()
        .find(|x| matches!(x.kind, ActionKind::MessageHandle { .. }))
        .expect("message action");
    assert_eq!(msg.kind, ActionKind::MessageHandle { what: Some(3) });
    assert_eq!(
        msg.thread,
        ThreadKind::Main,
        "handler allocated on the main thread"
    );
}

#[test]
fn find_view_by_id_aliases_across_actions() {
    let mut app = AndroidAppBuilder::new("Views");
    let fw = app.framework().clone();
    let activity = app.activity("Main").build();
    let mut layout = android_model::Layout::new(activity);
    layout.add_view(android_model::ViewDecl::new(5, fw.text_view));
    app.add_layout(layout);

    for cb_name in ["onCreate", "onPause"] {
        let mut mb = app.method(activity, cb_name);
        mb.set_param_count(1);
        let this = mb.param(0);
        let v = mb.fresh_local();
        let s = mb.fresh_local();
        mb.const_(s, ConstValue::Str(apir::Symbol(0)));
        mb.call(
            Some(v),
            InvokeKind::Virtual,
            fw.find_view_by_id,
            Some(this),
            vec![Operand::Const(ConstValue::Int(5))],
        );
        mb.call(
            None,
            InvokeKind::Virtual,
            fw.set_text,
            Some(v),
            vec![Operand::Local(s)],
        );
        mb.ret(None);
        mb.finish();
    }

    let h = generate(app.finish().unwrap());
    let a = analyze(&h, SelectorKind::ActionSensitive(1));
    let accesses = reached_accesses(&a, &h);
    let text_writes: Vec<_> = accesses
        .iter()
        .filter(|x| x.is_write && x.field == fw.text_view_text)
        .collect();
    // setText's store is reached under both caller actions (onCreate and
    // onPause), and in each the base is the *same* single inflated view.
    assert_eq!(text_writes.len(), 2, "one store per caller action context");
    assert_eq!(text_writes[0].base.len(), 1);
    assert_eq!(
        text_writes[0].base, text_writes[1].base,
        "inflated view aliases across actions"
    );
    assert_ne!(text_writes[0].action, text_writes[1].action);
    assert!(text_writes[0].overlaps(text_writes[1]));
}

#[test]
fn lifecycle_actions_cover_both_instances() {
    let h = news_app();
    let a = analyze(&h, SelectorKind::ActionSensitive(1));
    let starts: Vec<u8> = a
        .actions
        .actions()
        .iter()
        .filter_map(|x| match x.kind {
            ActionKind::Lifecycle {
                event: LifecycleEvent::Start,
                instance,
            } => Some(instance),
            _ => None,
        })
        .collect();
    assert_eq!(starts.len(), 2);
    assert!(starts.contains(&1) && starts.contains(&2));
}

#[test]
fn index_sensitive_containers_separate_slots() {
    // onCreate writes buf.setAt(0, ...); onPause reads buf.getAt(1).
    let mut app = AndroidAppBuilder::new("Indexed");
    let fw = app.framework().clone();
    let mut cb = app.activity("Main");
    let buf = cb.field("buf", Type::Ref(fw.array_list));
    let activity = cb.build();
    let mut mb = app.method(activity, "onCreate");
    mb.set_param_count(1);
    let this = mb.param(0);
    let (b, v) = (mb.fresh_local(), mb.fresh_local());
    mb.new_(b, fw.array_list);
    mb.store(this, buf, Operand::Local(b));
    mb.new_(v, fw.object);
    mb.call(
        None,
        InvokeKind::Virtual,
        fw.array_list_set_at,
        Some(b),
        vec![Operand::Const(ConstValue::Int(0)), Operand::Local(v)],
    );
    mb.ret(None);
    mb.finish();
    let mut mb = app.method(activity, "onPause");
    mb.set_param_count(1);
    let this = mb.param(0);
    let (b, x) = (mb.fresh_local(), mb.fresh_local());
    mb.load(b, this, buf);
    mb.call(
        Some(x),
        InvokeKind::Virtual,
        fw.array_list_get_at,
        Some(b),
        vec![Operand::Const(ConstValue::Int(1))],
    );
    mb.ret(None);
    mb.finish();
    let h = generate(app.finish().unwrap());

    // The slot-0 write and slot-1 read touch different fields and cannot
    // overlap.
    let a = analyze(&h, SelectorKind::ActionSensitive(1));
    let accesses = reached_accesses(&a, &h);
    let slot_accs: Vec<_> = accesses
        .iter()
        .filter(|x| {
            let n = h.app.program.field_name(x.field);
            n.starts_with("idx") || n == "contents"
        })
        .collect();
    assert_eq!(slot_accs.len(), 2, "{slot_accs:?}");
    assert!(
        !slot_accs[0].overlaps(slot_accs[1]),
        "different slots must not overlap"
    );
}

#[test]
fn handler_allocated_on_background_thread_binds_its_looper() {
    // A handler created inside Thread.run delivers to that thread's looper
    // (the §4.4 in-thread reachability rule), not to main.
    let mut app = AndroidAppBuilder::new("BgLooper");
    let fw = app.framework().clone();
    let mut cb = app.subclass("BgHandler", fw.handler);
    let seen = cb.field("seen", Type::Int);
    let bg_handler = cb.build();
    let mut mb = app.method(bg_handler, "handleMessage");
    mb.set_param_count(2);
    let this = mb.param(0);
    mb.store(this, seen, Operand::Const(ConstValue::Int(1)));
    mb.ret(None);
    mb.finish();

    // Worker thread: h = new BgHandler(); h.sendEmptyMessage(1).
    let mut cb = app.subclass("Worker", fw.object);
    cb.add_interface(fw.runnable);
    let worker = cb.build();
    let mut mb = app.method(worker, "run");
    mb.set_param_count(1);
    let h = mb.fresh_local();
    mb.new_(h, bg_handler);
    mb.call(
        None,
        InvokeKind::Virtual,
        fw.handler_send_empty_message,
        Some(h),
        vec![Operand::Const(ConstValue::Int(1))],
    );
    mb.ret(None);
    mb.finish();

    let activity = app.activity("Main").build();
    let mut mb = app.method(activity, "onCreate");
    mb.set_param_count(1);
    let (w, t) = (mb.fresh_local(), mb.fresh_local());
    mb.new_(w, worker);
    mb.new_(t, fw.thread);
    mb.call(
        None,
        InvokeKind::Special,
        fw.thread_init,
        Some(t),
        vec![Operand::Local(w)],
    );
    mb.call(None, InvokeKind::Virtual, fw.thread_start, Some(t), vec![]);
    mb.ret(None);
    mb.finish();

    let h = generate(app.finish().unwrap());
    let a = analyze(&h, SelectorKind::ActionSensitive(1));
    let thread_action = a
        .actions
        .actions()
        .iter()
        .find(|x| matches!(x.kind, ActionKind::ThreadRun))
        .expect("thread action")
        .id;
    let msg = a
        .actions
        .actions()
        .iter()
        .find(|x| matches!(x.kind, ActionKind::MessageHandle { .. }))
        .expect("message action");
    assert_eq!(
        msg.thread,
        ThreadKind::Background(Some(thread_action)),
        "the message must deliver to the allocating thread's looper"
    );
    assert!(!msg.on_main());
}

#[test]
fn new_framework_families_mint_their_action_kinds() {
    // Timer / location / media / text-watcher families end to end.
    let mut app = AndroidAppBuilder::new("Families");
    let mut truth = corpus_free_truth();
    corpus_plant(&mut app, "com.fam.Timer", 14, &mut truth); // TimerTick
    corpus_plant(&mut app, "com.fam.Loc", 15, &mut truth); // LocationTracker
    corpus_plant(&mut app, "com.fam.Media", 16, &mut truth); // MediaNotify
    corpus_plant(&mut app, "com.fam.Watch", 17, &mut truth); // WatcherSync
    let h = generate(app.finish().unwrap());
    let a = analyze(&h, SelectorKind::ActionSensitive(1));
    let kinds: Vec<&ActionKind> = a.actions.actions().iter().map(|x| &x.kind).collect();
    assert!(kinds.iter().any(|k| matches!(k, ActionKind::TimerTask)));
    assert!(kinds
        .iter()
        .any(|k| matches!(k, ActionKind::LocationUpdate)));
    assert!(kinds
        .iter()
        .any(|k| matches!(k, ActionKind::MediaCompletion)));
    assert!(kinds.iter().any(|k| matches!(
        k,
        ActionKind::Gui {
            event: GuiEventKind::TextChanged,
            ..
        }
    )));
}

// Small helpers so this test file does not depend on `corpus` (which would
// be a dependency cycle): replicate the idiom dispatch indices.
fn corpus_free_truth() -> Vec<(String, String)> {
    Vec::new()
}

fn corpus_plant(
    app: &mut AndroidAppBuilder,
    name: &str,
    idiom_index: usize,
    _truth: &mut Vec<(String, String)>,
) {
    // Indices follow corpus::Idiom::ALL; we re-build the four families
    // inline to avoid the dependency.
    let fw = app.framework().clone();
    match idiom_index {
        14 => {
            // TimerTick (abridged): timer.schedule(task) in onCreate.
            let mut cb = app.activity(name);
            let ticks = cb.field("ticks", Type::Int);
            let activity = cb.build();
            let task_cls = app.subclass(&format!("{name}$T"), fw.timer_task).build();
            let mut mb = app.method(task_cls, "run");
            mb.set_param_count(1);
            mb.ret(None);
            mb.finish();
            let mut mb = app.method(activity, "onCreate");
            mb.set_param_count(1);
            let (timer, t, x) = (mb.fresh_local(), mb.fresh_local(), mb.fresh_local());
            mb.new_(timer, fw.timer);
            mb.new_(t, task_cls);
            mb.call(
                None,
                InvokeKind::Virtual,
                fw.timer_schedule,
                Some(timer),
                vec![Operand::Local(t), Operand::Const(ConstValue::Int(5))],
            );
            let this = mb.param(0);
            mb.load(x, this, ticks);
            mb.ret(None);
            mb.finish();
        }
        15 => {
            let mut cb = app.activity(name);
            cb.add_interface(fw.location_listener);
            let activity = cb.build();
            let mut mb = app.method(activity, "onLocationChanged");
            mb.set_param_count(2);
            mb.ret(None);
            mb.finish();
            let mut mb = app.method(activity, "onCreate");
            mb.set_param_count(1);
            let this = mb.param(0);
            let lm = mb.fresh_local();
            mb.new_(lm, fw.location_manager);
            mb.call(
                None,
                InvokeKind::Virtual,
                fw.request_location_updates,
                Some(lm),
                vec![Operand::Local(this)],
            );
            mb.ret(None);
            mb.finish();
        }
        16 => {
            let mut cb = app.activity(name);
            cb.add_interface(fw.on_completion_listener);
            let activity = cb.build();
            let mut mb = app.method(activity, "onCompletion");
            mb.set_param_count(2);
            mb.ret(None);
            mb.finish();
            let mut mb = app.method(activity, "onCreate");
            mb.set_param_count(1);
            let this = mb.param(0);
            let mp = mb.fresh_local();
            mb.new_(mp, fw.media_player);
            mb.call(
                None,
                InvokeKind::Virtual,
                fw.set_on_completion_listener,
                Some(mp),
                vec![Operand::Local(this)],
            );
            mb.ret(None);
            mb.finish();
        }
        _ => {
            let mut cb = app.activity(name);
            cb.add_interface(fw.text_watcher);
            let activity = cb.build();
            let mut mb = app.method(activity, "afterTextChanged");
            mb.set_param_count(2);
            mb.ret(None);
            mb.finish();
            let mut mb = app.method(activity, "onCreate");
            mb.set_param_count(1);
            let this = mb.param(0);
            let tv = mb.fresh_local();
            mb.call(
                Some(tv),
                InvokeKind::Virtual,
                fw.find_view_by_id,
                Some(this),
                vec![Operand::Const(ConstValue::Int(1))],
            );
            mb.call(
                None,
                InvokeKind::Virtual,
                fw.add_text_changed_listener,
                Some(tv),
                vec![Operand::Local(this)],
            );
            mb.ret(None);
            mb.finish();
        }
    }
}

// ---- solver determinism over seeded random constraint graphs ----

mod solver_determinism {
    use super::*;
    use crate::solver::Analysis;
    use apir::{Local, MethodId};
    use sierra_prng::SplitMix64;

    /// Canonical, run-independent rendering of a points-to set: object
    /// ids are resolved to their interned [`crate::ObjData`], which is
    /// content-addressed (alloc site, heap context, class) and therefore
    /// stable across solver schedules.
    fn canon_pts(a: &Analysis, m: MethodId, l: Local) -> Vec<String> {
        let mut out: Vec<String> = a
            .contexts_of(m)
            .iter()
            .flat_map(|&ctx| {
                a.pts_var(m, ctx, l)
                    .iter()
                    .map(|o| format!("{:?}", a.objs.get(o)))
            })
            .collect();
        out.sort();
        out
    }

    /// Canonical rendering of every access the analysis extracts.
    fn canon_accesses(a: &Analysis, h: &harness_gen::HarnessResult) -> Vec<String> {
        reached_accesses(a, h)
            .iter()
            .map(|x| {
                let mut base: Vec<String> = x
                    .base
                    .iter()
                    .map(|&o| format!("{:?}", a.objs.get(o)))
                    .collect();
                base.sort();
                format!(
                    "{:?} w={} f={:?} static={} base={base:?}",
                    x.addr, x.is_write, x.field, x.is_static
                )
            })
            .collect()
    }

    /// Emits a random, cycle-rich constraint program: ≤512 locals with
    /// seeded allocations, random copies, guaranteed 3-cycles, and
    /// random field stores/loads (which exercise the pending complex
    /// constraints).
    fn random_harness(seed: u64) -> (harness_gen::HarnessResult, MethodId, Vec<Local>) {
        let mut rng = SplitMix64::new(seed);
        let mut app = AndroidAppBuilder::new("Rand");
        let fw = app.framework().clone();
        let mut cb = app.subclass("Box", fw.object);
        let f = cb.field("f", Type::Ref(fw.object));
        let g = cb.field("g", Type::Ref(fw.object));
        let boxc = cb.build();
        let activity = app.activity("Main").build();
        let mut mb = app.method(activity, "onCreate");
        mb.set_param_count(1);
        let n = 16 + rng.usize(497); // ≤ 512 constraint-graph variables
        let locals: Vec<Local> = (0..n).map(|_| mb.fresh_local()).collect();
        // Seed roughly an eighth of the locals with allocations.
        for &l in locals.iter().take((n / 8).max(2)) {
            mb.new_(l, boxc);
        }
        let pick = |rng: &mut SplitMix64, locals: &[Local]| locals[rng.usize(locals.len())];
        for _ in 0..(2 * n) {
            match rng.usize(10) {
                // Random copy edge.
                0..=4 => {
                    let (d, s) = (pick(&mut rng, &locals), pick(&mut rng, &locals));
                    mb.move_(d, s);
                }
                // Guaranteed copy 3-cycle.
                5..=6 => {
                    let (a, b, c) = (
                        pick(&mut rng, &locals),
                        pick(&mut rng, &locals),
                        pick(&mut rng, &locals),
                    );
                    mb.move_(b, a);
                    mb.move_(c, b);
                    mb.move_(a, c);
                }
                // Field store: o.f = v.
                7..=8 => {
                    let (o, v) = (pick(&mut rng, &locals), pick(&mut rng, &locals));
                    let fld = if rng.bool() { f } else { g };
                    mb.store(o, fld, Operand::Local(v));
                }
                // Field load: d = o.f.
                _ => {
                    let (d, o) = (pick(&mut rng, &locals), pick(&mut rng, &locals));
                    let fld = if rng.bool() { f } else { g };
                    mb.load(d, o, fld);
                }
            }
        }
        mb.ret(None);
        let m = mb.finish();
        (generate(app.finish().unwrap()), m, locals)
    }

    /// The second solve takes its scratch from the pool the first one
    /// returned it to, so this also checks that a recycled scratch leaks
    /// no state into the result.
    #[test]
    fn randomized_graphs_solve_identically_when_repeated() {
        for seed in 0..4u64 {
            let (h, m, locals) = random_harness(seed);
            let first = analyze(&h, SelectorKind::Insensitive);
            let second = analyze(&h, SelectorKind::Insensitive);
            for &l in &locals {
                assert_eq!(
                    canon_pts(&first, m, l),
                    canon_pts(&second, m, l),
                    "seed {seed}: pts diverged for {l:?}"
                );
            }
            assert_eq!(canon_accesses(&first, &h), canon_accesses(&second, &h));
            assert_eq!(first.stats, second.stats, "seed {seed}");
        }
    }
}

mod artifact_roundtrip {
    use super::{news_app, reached_accesses};
    use crate::{analyze, artifact, SelectorKind};

    /// Canonical projection of accesses for equality (Access lacks
    /// PartialEq by design).
    fn canon(a: &crate::Analysis, h: &harness_gen::HarnessResult) -> Vec<String> {
        let mut v: Vec<String> = reached_accesses(a, h)
            .iter()
            .map(|x| {
                format!(
                    "{:?}",
                    (
                        x.action,
                        x.method,
                        x.ctx,
                        x.addr,
                        x.is_write,
                        x.field,
                        &x.base,
                        x.is_static
                    )
                )
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn encode_is_deterministic_and_round_trips() {
        let h = news_app();
        let a = analyze(&h, SelectorKind::ActionSensitive(1));
        let blob = artifact::encode(&a);
        assert_eq!(blob, artifact::encode(&a), "encode must be deterministic");
        assert!(artifact::envelope_is_valid(&blob));
        let d = artifact::decode(&blob, h.app.framework.clone()).expect("round-trip decode");
        // Analysis has no PartialEq; byte-identical re-encode proves every
        // serialized component survived, and stats carry over verbatim.
        assert_eq!(artifact::encode(&d), blob);
        assert_eq!(d.stats, a.stats);
        assert!(
            d.stats.worklist_iterations > 0,
            "stats are the original run's"
        );
    }

    #[test]
    fn decoded_analysis_is_observationally_equivalent() {
        let h = news_app();
        let a = analyze(&h, SelectorKind::ActionSensitive(1));
        let d = artifact::decode(&artifact::encode(&a), h.app.framework.clone()).unwrap();
        assert_eq!(canon(&d, &h), canon(&a, &h));
        assert_eq!(d.reachable, a.reachable);
        assert_eq!(d.cg_edges, a.cg_edges);
        assert_eq!(d.posts, a.posts);
        assert_eq!(d.root_actions, a.root_actions);
        assert_eq!(d.actions.actions().len(), a.actions.actions().len());
    }

    #[test]
    fn envelope_rejects_truncation_corruption_and_version_skew() {
        let h = news_app();
        let a = analyze(&h, SelectorKind::ActionSensitive(1));
        let blob = artifact::encode(&a);
        let fw = h.app.framework.clone();

        // Truncated at every interesting boundary.
        for cut in [0, 7, 8, 27, blob.len() / 2, blob.len() - 1] {
            assert!(!artifact::envelope_is_valid(&blob[..cut]), "cut={cut}");
            assert!(artifact::decode(&blob[..cut], fw.clone()).is_none());
        }

        // Flipped payload byte breaks the checksum.
        let mut torn = blob.clone();
        *torn.last_mut().unwrap() ^= 0xff;
        assert!(!artifact::envelope_is_valid(&torn));
        assert!(artifact::decode(&torn, fw.clone()).is_none());

        // Version bump must read as a miss, not a parse attempt.
        let mut skewed = blob.clone();
        skewed[8] = skewed[8].wrapping_add(1);
        assert!(!artifact::envelope_is_valid(&skewed));
        assert!(artifact::decode(&skewed, fw).is_none());
    }
}
