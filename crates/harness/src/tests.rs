//! The one-graph discovery against the per-activity fixpoint it replaced.
//!
//! [`oracle`] is the former path: a fresh CHA-reachability fixpoint per
//! activity, each virtual call and callback lookup resolved again with
//! `concrete_subtypes` and `dispatch`. The discovery set must not shrink,
//! so the activity → registration-site map must come out identical,
//! including the order of the sites.

use crate::generate::assign_registrations;
use crate::registrations::{self, RegistrationSeed};
use android_model::{AndroidApp, AndroidAppBuilder, FrameworkClasses, FrameworkOp, LifecycleEvent};
use apir::{CallSiteId, ClassId, InvokeKind, MethodId, Operand, Program, Stmt, StmtAddr};
use std::collections::{HashMap, HashSet, VecDeque};

/// The per-activity fixpoint: the CHA-reachable set from `roots`, where
/// `extra_roots` adds the callbacks a newly reached method makes reachable.
fn reachable(
    program: &Program,
    roots: Vec<MethodId>,
    mut extra_roots: impl FnMut(MethodId) -> Vec<MethodId>,
) -> HashSet<MethodId> {
    let mut reachable = HashSet::new();
    let mut queue: VecDeque<MethodId> = roots.into_iter().collect();
    while let Some(m) = queue.pop_front() {
        if !reachable.insert(m) {
            continue;
        }
        for extra in extra_roots(m) {
            if !reachable.contains(&extra) {
                queue.push_back(extra);
            }
        }
        let method = program.method(m);
        if !method.has_body() {
            continue;
        }
        for (_, stmt) in method.iter_stmts() {
            let Stmt::Call { kind, callee, .. } = stmt else {
                continue;
            };
            match kind {
                InvokeKind::Static | InvokeKind::Special => queue.push_back(*callee),
                InvokeKind::Virtual => {
                    let decl_class = program.method(*callee).class;
                    for sub in program.concrete_subtypes(decl_class) {
                        if let Some(target) = program.dispatch(sub, *callee) {
                            queue.push_back(target);
                        }
                    }
                }
            }
        }
    }
    reachable
}

/// Callbacks of listeners `m` registers and task callbacks of the
/// concurrency ops it invokes, each looked up afresh.
fn extra_roots(
    program: &Program,
    fw: &FrameworkClasses,
    m: MethodId,
    by_method: &HashMap<MethodId, Vec<&RegistrationSeed>>,
) -> Vec<MethodId> {
    let mut out = Vec::new();
    for seed in by_method.get(&m).into_iter().flatten() {
        let iface_cb = seed.kind.interface_method(fw);
        let iface = program.method(iface_cb).class;
        for sub in program.concrete_subtypes(iface) {
            out.extend(program.dispatch(sub, iface_cb));
        }
    }
    let method = program.method(m);
    if !method.has_body() {
        return out;
    }
    for (_, stmt) in method.iter_stmts() {
        let Stmt::Call { callee, .. } = stmt else {
            continue;
        };
        use FrameworkOp::*;
        let (base, decls): (ClassId, &[MethodId]) = match FrameworkOp::classify(fw, *callee) {
            Some(ThreadStart) => (fw.thread, &[fw.thread_run]),
            Some(AsyncTaskExecute) => (
                fw.async_task,
                &[
                    fw.async_task_on_pre_execute,
                    fw.async_task_do_in_background,
                    fw.async_task_on_post_execute,
                ],
            ),
            Some(
                ExecutorExecute | HandlerPost | HandlerPostDelayed | ViewPost | ViewPostDelayed
                | RunOnUiThread,
            ) => (fw.runnable, &[fw.runnable_run]),
            Some(HandlerSendMessage | HandlerSendEmptyMessage) => {
                (fw.handler, &[fw.handler_handle_message])
            }
            Some(RegisterReceiver) => (fw.broadcast_receiver, &[fw.on_receive]),
            Some(TimerSchedule) => (fw.timer_task, &[fw.timer_task_run]),
            Some(RequestLocationUpdates) => (fw.location_listener, &[fw.on_location_changed]),
            Some(SetOnCompletionListener) => (fw.on_completion_listener, &[fw.on_completion]),
            Some(BindService) => (
                fw.service_connection,
                &[fw.on_service_connected, fw.on_service_disconnected],
            ),
            Some(StartService) => (
                fw.service,
                &[
                    fw.service_on_start_command,
                    fw.service_on_create,
                    fw.service_on_destroy,
                ],
            ),
            _ => continue,
        };
        for sub in program.concrete_subtypes(base) {
            for &decl in decls {
                if let Some(t) = program.dispatch(sub, decl) {
                    if program.method(t).has_body() {
                        out.push(t);
                    }
                }
            }
        }
    }
    out
}

/// The activity → registration-site map, one fixpoint per activity from
/// its lifecycle, XML-listener, receiver and service roots.
fn oracle(
    app: &AndroidApp,
    seeds: &[(StmtAddr, RegistrationSeed)],
) -> HashMap<ClassId, Vec<CallSiteId>> {
    let (program, fw) = (&app.program, &app.framework);
    let mut by_method: HashMap<MethodId, Vec<&RegistrationSeed>> = HashMap::new();
    for (_, seed) in seeds {
        by_method.entry(seed.in_method).or_default().push(seed);
    }
    let mut out = HashMap::new();
    for &activity in &app.manifest.activities {
        let mut roots: Vec<MethodId> = LifecycleEvent::ALL
            .iter()
            .filter_map(|ev| program.dispatch(activity, ev.declared_callback(fw)))
            .filter(|&m| program.method(m).has_body())
            .collect();
        for v in app.layout_for(activity).into_iter().flat_map(|l| &l.views) {
            roots.extend(v.xml_listeners.iter().map(|&(_, m)| m));
        }
        for &r in &app.manifest.receivers {
            roots.extend(program.dispatch(r, fw.on_receive));
        }
        for &s in &app.manifest.services {
            for decl in [
                fw.service_on_start_command,
                fw.service_on_create,
                fw.service_on_destroy,
            ] {
                roots.extend(program.dispatch(s, decl));
            }
        }
        let reached = reachable(program, roots, |m| extra_roots(program, fw, m, &by_method));
        let sites = seeds
            .iter()
            .filter(|(_, seed)| reached.contains(&seed.in_method))
            .map(|(_, seed)| seed.site)
            .collect();
        out.insert(activity, sites);
    }
    out
}

/// Asserts the one-graph map equals the oracle's on every app; returns the
/// number of (activity, registration) assignments compared.
fn assert_equivalent(apps: impl IntoIterator<Item = (String, AndroidApp)>) -> usize {
    let mut assigned = 0;
    for (name, app) in apps {
        let seeds = registrations::discover_in_app(&app);
        let got = assign_registrations(&app.program, &app.framework, &app, &seeds);
        assert_eq!(got, oracle(&app, &seeds), "{name}: assignments differ");
        assigned += got.values().map(Vec::len).sum::<usize>();
    }
    assigned
}

/// Two activities and two manifest components, where every kind of root
/// and of discovery edge leads to a registration. The receiver and the
/// service register listeners, and `Main` reaches the receiver's helper on
/// its own as well: the shared closure must reach every activity, and
/// `Main`'s traversal must stop at it. The click listener's callback
/// registers a long-click listener (the §3.2 fixpoint), and `Other` posts a
/// runnable whose `run` registers a click listener.
fn components_registering_listeners() -> AndroidApp {
    let mut app = AndroidAppBuilder::new("Components");
    let fw = app.framework().clone();
    // `v = new View; l = new <listener>; v.<setter>(l)`.
    let register = |mb: &mut apir::MethodBuilder<'_>, setter: MethodId, listener: ClassId| {
        let (v, l) = (mb.fresh_local(), mb.fresh_local());
        mb.new_(v, fw.view);
        mb.new_(l, listener);
        mb.call(
            None,
            InvokeKind::Virtual,
            setter,
            Some(v),
            vec![Operand::Local(l)],
        );
    };
    let mut cb = app.subclass("LongClick", fw.object);
    cb.add_interface(fw.on_long_click_listener);
    let long_click = cb.build();
    let mut mb = app.method(long_click, "onLongClick");
    mb.set_param_count(2);
    mb.ret(None);
    mb.finish();
    let mut cb = app.subclass("Click", fw.object);
    cb.add_interface(fw.on_click_listener);
    let click = cb.build();
    let mut mb = app.method(click, "onClick");
    mb.set_param_count(2);
    register(&mut mb, fw.set_on_long_click_listener, long_click);
    mb.ret(None);
    mb.finish();
    let mut cb = app.subclass("Task", fw.object);
    cb.add_interface(fw.runnable);
    let task = cb.build();
    let mut mb = app.method(task, "run");
    mb.set_param_count(1);
    register(&mut mb, fw.set_on_click_listener, click);
    mb.ret(None);
    mb.finish();
    let util = app.subclass("Util", fw.object).build();
    let mut mb = app.method(util, "wire");
    mb.set_static();
    register(&mut mb, fw.set_on_click_listener, click);
    mb.ret(None);
    let wire = mb.finish();

    let main = app.activity("Main").build();
    let mut mb = app.method(main, "onCreate");
    mb.set_param_count(1);
    register(&mut mb, fw.set_on_click_listener, click);
    mb.call(None, InvokeKind::Static, wire, None, vec![]);
    mb.ret(None);
    mb.finish();
    let other = app.activity("Other").build();
    let mut mb = app.method(other, "onCreate");
    mb.set_param_count(1);
    let (h, r) = (mb.fresh_local(), mb.fresh_local());
    mb.new_(h, fw.handler);
    mb.new_(r, task);
    mb.call(
        None,
        InvokeKind::Virtual,
        fw.handler_post,
        Some(h),
        vec![Operand::Local(r)],
    );
    mb.ret(None);
    mb.finish();

    let recv = app.receiver("R").build();
    let mut mb = app.method(recv, "onReceive");
    mb.set_param_count(2);
    mb.call(None, InvokeKind::Static, wire, None, vec![]);
    mb.ret(None);
    mb.finish();
    let svc = app.service("S").build();
    let mut mb = app.method(svc, "onCreate");
    mb.set_param_count(1);
    register(&mut mb, fw.set_on_click_listener, click);
    mb.ret(None);
    mb.finish();
    app.finish().expect("well-formed app")
}

#[test]
fn matches_the_oracle_when_components_register_listeners() {
    let app = components_registering_listeners();
    let seeds = registrations::discover_in_app(&app);
    assert_eq!(seeds.len(), 5);
    let got = assign_registrations(&app.program, &app.framework, &app, &seeds);
    assert_eq!(got, oracle(&app, &seeds));
    // Both activities get the three registrations of the shared closure
    // (the helper's, the service's and the click callback's) plus their
    // own: `Main`'s in `onCreate`, `Other`'s in the posted runnable.
    let per_activity: Vec<usize> = app
        .manifest
        .activities
        .iter()
        .map(|a| got[a].len())
        .collect();
    assert_eq!(per_activity, [4, 4]);
}

#[test]
fn matches_the_oracle_on_the_twenty_apps() {
    let apps = corpus::twenty::build_all()
        .into_iter()
        .map(|(spec, app, _)| (spec.name.to_owned(), app));
    assert!(assert_equivalent(apps) > 0);
}

#[test]
fn matches_the_oracle_on_the_fdroid_apps() {
    let apps = corpus::fdroid::iter_apps().map(|(i, app, _)| (format!("app{i:03}"), app));
    assert!(assert_equivalent(apps) > 0);
}

#[test]
fn matches_the_oracle_on_the_fixtures() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../fixtures");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("fixtures directory")
        .map(|e| e.expect("fixture entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "sierra"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty());
    let apps = paths.into_iter().map(|p| {
        let name = p
            .file_stem()
            .expect("file name")
            .to_string_lossy()
            .into_owned();
        let text = std::fs::read_to_string(&p).expect("readable fixture");
        let app = android_model::parse_app(&name, &text).expect("fixture parses");
        (name, app)
    });
    assert!(assert_equivalent(apps) > 0);
}

/// Synthesized large apps of every `activities` count, for `seeds`.
fn large(activities: &[usize], seeds: &[u64]) -> Vec<(String, AndroidApp)> {
    let mut out = Vec::new();
    for &n in activities {
        for &seed in seeds {
            let name = format!("Large{n}s{seed}");
            out.push((name.clone(), corpus::twenty::synthesize(&name, n, seed).0));
        }
    }
    out
}

#[test]
fn matches_the_oracle_on_large_apps_up_to_128_activities() {
    assert!(assert_equivalent(large(&[96, 112, 128], &[1, 2, 3])) > 0);
}

#[test]
fn matches_the_oracle_on_large_apps_of_144_and_160_activities() {
    assert!(assert_equivalent(large(&[144, 160], &[1, 2, 3])) > 0);
}
