//! Harness method generation (Figures 4, 5, 6).

use crate::cha::{ChaGraph, DispatchTargets, SHARED};
use crate::registrations::{self, Registration, RegistrationSeed};
use android_model::{AndroidApp, FrameworkClasses, FrameworkOp, GuiEventKind, LifecycleEvent};
use apir::{
    AllocSiteId, BlockId, CallSiteId, ClassId, ConstValue, FieldId, InvokeKind, Local, MethodId,
    Operand, Origin, Program, ProgramBuilder, Stmt, StmtAddr,
};
use std::collections::HashMap;

/// What a harness call site invokes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HarnessSiteKind {
    /// A lifecycle callback; `instance` is 1 or 2 (Figure 5's "1"/"2").
    Lifecycle {
        /// The lifecycle event.
        event: LifecycleEvent,
        /// The occurrence within the lifecycle CFG.
        instance: u8,
    },
    /// A GUI callback case in the event loop.
    Gui {
        /// The GUI event kind.
        event: GuiEventKind,
        /// The view resource id, when bound.
        view: Option<i32>,
        /// The originating registration call site (`None` for XML
        /// listeners).
        registration: Option<CallSiteId>,
    },
    /// A statically-declared broadcast receiver's `onReceive`.
    Receive {
        /// The receiver class.
        receiver: ClassId,
    },
    /// A declared service's `onStartCommand`.
    ServiceStart {
        /// The service class.
        service: ClassId,
    },
}

/// One activity's generated harness.
#[derive(Debug, Clone)]
pub struct ActivityHarness {
    /// The activity this harness drives.
    pub activity: ClassId,
    /// The synthetic harness method (`$Harness.$harness$<Activity>`).
    pub method: MethodId,
    /// The allocation site of the activity instance.
    pub activity_alloc: AllocSiteId,
    /// Every callback invocation site with its meaning.
    pub sites: Vec<(CallSiteId, HarnessSiteKind)>,
}

/// The output of harness generation.
#[derive(Debug, Clone)]
pub struct HarnessResult {
    /// The app, with its program replaced by the instrumented program plus
    /// harness class/methods.
    pub app: AndroidApp,
    /// The synthetic `$Harness` class.
    pub harness_class: ClassId,
    /// One harness per manifest activity.
    pub activities: Vec<ActivityHarness>,
    /// Discovered (and instrumented) listener registrations.
    pub registrations: Vec<Registration>,
}

impl HarnessResult {
    /// Total number of harnesses (Table 3, column 2).
    pub fn harness_count(&self) -> usize {
        self.activities.len()
    }
}

/// Generates harnesses for every manifest activity (paper §3.2).
pub fn generate(app: AndroidApp) -> HarnessResult {
    let fw = app.framework.clone();
    let seeds = registrations::discover(&app.program, &fw);

    // Assign registrations to activities by CHA reachability (fixpoint of
    // §3.2: reached registrations contribute listener callbacks as roots).
    let assignment = assign_registrations(&app.program, &fw, &app, &seeds);

    let AndroidApp {
        name,
        program,
        framework,
        manifest,
        layouts,
    } = app;
    let mut pb = ProgramBuilder::from(program);
    let harness_class = pb.class("$Harness", Origin::App).build();
    let regs = registrations::instrument(&mut pb, harness_class, &fw, seeds);
    let reg_by_site: HashMap<CallSiteId, &Registration> =
        regs.iter().map(|r| (r.site, r)).collect();

    let mut activities = Vec::new();
    for (i, &activity) in manifest.activities.iter().enumerate() {
        let assigned: Vec<&Registration> = assignment
            .get(&activity)
            .map(|sites| {
                sites
                    .iter()
                    .filter_map(|s| reg_by_site.get(s).copied())
                    .collect()
            })
            .unwrap_or_default();
        let layout = layouts.iter().find(|l| l.activity == activity);
        let h = emit_harness(
            &mut pb,
            &fw,
            harness_class,
            activity,
            i,
            layout,
            &assigned,
            &manifest.receivers,
            &manifest.services,
        );
        activities.push(h);
    }

    let program = pb.finish();
    debug_assert!(program.validate().is_ok());
    let app = AndroidApp {
        name,
        program,
        framework,
        manifest,
        layouts,
    };
    HarnessResult {
        app,
        harness_class,
        activities,
        registrations: regs,
    }
}

/// Maps each activity to the registration sites reachable from it, in seed
/// discovery order (the order must be deterministic: it fixes the order in
/// which harness call sites are minted).
///
/// One CHA discovery graph serves every activity. The receiver and service
/// roots are the same for every activity, so their closure is marked once;
/// each activity then marks what its lifecycle and XML-listener roots reach
/// beyond it.
pub(crate) fn assign_registrations(
    program: &Program,
    fw: &FrameworkClasses,
    app: &AndroidApp,
    seeds: &[(StmtAddr, RegistrationSeed)],
) -> HashMap<ClassId, Vec<CallSiteId>> {
    let mut by_method: HashMap<MethodId, Vec<&RegistrationSeed>> = HashMap::new();
    for (_, seed) in seeds {
        by_method.entry(seed.in_method).or_default().push(seed);
    }
    let mut graph = ChaGraph::new(program, |dispatch, m| {
        discovery_targets(program, fw, m, &by_method, dispatch)
    });

    let mut shared_roots: Vec<MethodId> = Vec::new();
    for &r in &app.manifest.receivers {
        shared_roots.extend(program.dispatch(r, fw.on_receive));
    }
    for &s in &app.manifest.services {
        for decl in [
            fw.service_on_start_command,
            fw.service_on_create,
            fw.service_on_destroy,
        ] {
            shared_roots.extend(program.dispatch(s, decl));
        }
    }
    graph.mark(shared_roots, SHARED);

    let mut out: HashMap<ClassId, Vec<CallSiteId>> = HashMap::new();
    for (tag, &activity) in (SHARED + 1..).zip(&app.manifest.activities) {
        let mut roots: Vec<MethodId> = Vec::new();
        for ev in LifecycleEvent::ALL {
            if let Some(m) = program.dispatch(activity, ev.declared_callback(fw)) {
                if program.method(m).has_body() {
                    roots.push(m);
                }
            }
        }
        if let Some(layout) = app.layout_for(activity) {
            for v in &layout.views {
                for &(_, m) in &v.xml_listeners {
                    roots.push(m);
                }
            }
        }
        graph.mark(roots, tag);
        let sites: Vec<CallSiteId> = seeds
            .iter()
            .filter(|(_, seed)| graph.reached(seed.in_method, tag))
            .map(|(_, seed)| seed.site)
            .collect();
        out.insert(activity, sites);
    }
    out
}

/// Extra CHA successors of a reached method: callbacks of listeners it
/// registers, and task callbacks of concurrency ops it invokes.
fn discovery_targets(
    program: &Program,
    fw: &FrameworkClasses,
    m: MethodId,
    by_method: &HashMap<MethodId, Vec<&RegistrationSeed>>,
    dispatch: &mut DispatchTargets<'_>,
) -> Vec<MethodId> {
    let mut out = Vec::new();
    if let Some(seeds) = by_method.get(&m) {
        for seed in seeds {
            let iface_cb = seed.kind.interface_method(fw);
            let iface = program.method(iface_cb).class;
            out.extend_from_slice(dispatch.of(iface, iface_cb));
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
        let Some(op) = FrameworkOp::classify(fw, *callee) else {
            continue;
        };
        let mut add_callbacks = |base: ClassId, decls: &[MethodId]| {
            for &decl in decls {
                for &t in dispatch.of(base, decl) {
                    if program.method(t).has_body() {
                        out.push(t);
                    }
                }
            }
        };
        use FrameworkOp::*;
        match op {
            ThreadStart => add_callbacks(fw.thread, &[fw.thread_run]),
            AsyncTaskExecute => add_callbacks(
                fw.async_task,
                &[
                    fw.async_task_on_pre_execute,
                    fw.async_task_do_in_background,
                    fw.async_task_on_post_execute,
                ],
            ),
            ExecutorExecute | HandlerPost | HandlerPostDelayed | ViewPost | ViewPostDelayed
            | RunOnUiThread => add_callbacks(fw.runnable, &[fw.runnable_run]),
            HandlerSendMessage | HandlerSendEmptyMessage => {
                add_callbacks(fw.handler, &[fw.handler_handle_message])
            }
            RegisterReceiver => add_callbacks(fw.broadcast_receiver, &[fw.on_receive]),
            TimerSchedule => add_callbacks(fw.timer_task, &[fw.timer_task_run]),
            RequestLocationUpdates => {
                add_callbacks(fw.location_listener, &[fw.on_location_changed])
            }
            SetOnCompletionListener => {
                add_callbacks(fw.on_completion_listener, &[fw.on_completion])
            }
            BindService => add_callbacks(
                fw.service_connection,
                &[fw.on_service_connected, fw.on_service_disconnected],
            ),
            StartService => add_callbacks(
                fw.service,
                &[
                    fw.service_on_start_command,
                    fw.service_on_create,
                    fw.service_on_destroy,
                ],
            ),
            _ => {}
        }
    }
    out
}

/// How a GUI case invokes its callback.
#[derive(Debug, Clone)]
enum Invoke {
    /// Call the activity's own method (XML listener) on the activity local.
    Direct(MethodId),
    /// Load the listener from the synthetic field and call the interface
    /// callback on it.
    ViaField(FieldId, MethodId),
}

#[derive(Debug, Clone)]
struct GuiCase {
    event: GuiEventKind,
    view: Option<i32>,
    invoke: Invoke,
    registration: Option<CallSiteId>,
}

/// Emits one activity's harness method (the `main` of Figure 4).
#[allow(clippy::too_many_arguments)]
fn emit_harness(
    pb: &mut ProgramBuilder,
    fw: &FrameworkClasses,
    harness_class: ClassId,
    activity: ClassId,
    index: usize,
    layout: Option<&android_model::Layout>,
    regs: &[&Registration],
    receivers: &[ClassId],
    services: &[ClassId],
) -> ActivityHarness {
    // Collect GUI cases: XML listeners first, then registrations.
    let mut cases: Vec<GuiCase> = Vec::new();
    let mut after_of: HashMap<i32, i32> = HashMap::new();
    if let Some(layout) = layout {
        for v in &layout.views {
            if let Some(a) = v.after {
                after_of.insert(v.view_id, a);
            }
            for &(event, m) in &v.xml_listeners {
                cases.push(GuiCase {
                    event,
                    view: Some(v.view_id),
                    invoke: Invoke::Direct(m),
                    registration: None,
                });
            }
        }
    }
    for r in regs {
        cases.push(GuiCase {
            event: r.kind,
            view: r.view_id,
            invoke: Invoke::ViaField(r.field, r.kind.interface_method(fw)),
            registration: Some(r.site),
        });
    }

    let mname = format!("$harness${index}");
    let mut mb = pb.method(harness_class, &mname);
    mb.set_static();
    mb.set_param_count(0);
    let mut sites: Vec<(CallSiteId, HarnessSiteKind)> = Vec::new();

    // --- entry block: allocations ---
    let act = mb.fresh_local();
    let activity_alloc = mb.new_(act, activity);
    let intent = mb.fresh_local();
    mb.new_(intent, fw.intent);
    let recv_locals: Vec<(ClassId, Local)> = receivers
        .iter()
        .map(|&r| {
            let l = mb.fresh_local();
            mb.new_(l, r);
            (r, l)
        })
        .collect();
    let svc_locals: Vec<(ClassId, Local)> = services
        .iter()
        .map(|&s| {
            let l = mb.fresh_local();
            mb.new_(l, s);
            (s, l)
        })
        .collect();

    let lifecycle = |mb: &mut apir::MethodBuilder<'_>,
                     sites: &mut Vec<(CallSiteId, HarnessSiteKind)>,
                     event: LifecycleEvent,
                     instance: u8| {
        let decl = event.declared_callback(fw);
        let site = mb.call(None, InvokeKind::Virtual, decl, Some(act), vec![]);
        sites.push((site, HarnessSiteKind::Lifecycle { event, instance }));
    };

    // onCreate in the entry block.
    lifecycle(&mut mb, &mut sites, LifecycleEvent::Create, 1);

    // Lifecycle CFG (Figure 5).
    let bb_start1 = mb.new_block();
    let bb_resume1 = mb.new_block();
    let loop_head = mb.new_block();
    let bb_pause = mb.new_block();
    let bb_resume2 = mb.new_block();
    let bb_stop = mb.new_block();
    let bb_restart = mb.new_block();
    let bb_destroy = mb.new_block();

    mb.goto(bb_start1);
    mb.switch_to(bb_start1);
    lifecycle(&mut mb, &mut sites, LifecycleEvent::Start, 1);
    mb.goto(bb_resume1);
    mb.switch_to(bb_resume1);
    lifecycle(&mut mb, &mut sites, LifecycleEvent::Resume, 1);
    mb.goto(loop_head);

    // --- GUI cases ---
    // Pre-create a block per case and a sub-head per view with children.
    let case_blocks: Vec<BlockId> = cases.iter().map(|_| mb.new_block()).collect();
    let mut children: HashMap<i32, Vec<usize>> = HashMap::new();
    for (i, c) in cases.iter().enumerate() {
        if let Some(v) = c.view {
            if let Some(&parent) = after_of.get(&v) {
                children.entry(parent).or_default().push(i);
            }
        }
    }
    // Mint sub-head blocks in sorted view order so block ids (and the
    // resulting program) are identical across runs.
    let mut subhead: HashMap<i32, BlockId> = HashMap::new();
    let mut parent_views: Vec<i32> = children.keys().copied().collect();
    parent_views.sort_unstable();
    for &v in &parent_views {
        subhead.insert(v, mb.new_block());
    }

    // Receiver and service case blocks.
    let recv_blocks: Vec<BlockId> = recv_locals.iter().map(|_| mb.new_block()).collect();
    let svc_blocks: Vec<BlockId> = svc_locals.iter().map(|_| mb.new_block()).collect();

    // Fill case blocks.
    for (i, case) in cases.iter().enumerate() {
        mb.switch_to(case_blocks[i]);
        let site = match &case.invoke {
            Invoke::Direct(m) => {
                let argc = mb.program().param_count(*m).saturating_sub(1);
                let args = vec![Operand::Const(ConstValue::Null); argc as usize];
                mb.call(None, InvokeKind::Virtual, *m, Some(act), args)
            }
            Invoke::ViaField(field, iface_cb) => {
                let l = mb.fresh_local();
                mb.static_load(l, *field);
                let argc = mb.program().param_count(*iface_cb).saturating_sub(1);
                let args = vec![Operand::Const(ConstValue::Null); argc as usize];
                mb.call(None, InvokeKind::Virtual, *iface_cb, Some(l), args)
            }
        };
        sites.push((
            site,
            HarnessSiteKind::Gui {
                event: case.event,
                view: case.view,
                registration: case.registration,
            },
        ));
        // Return edge: own sub-head if this case's view has children, else
        // the parent's sub-head if nested, else the main loop.
        let ret = case
            .view
            .and_then(|v| subhead.get(&v).copied())
            .or_else(|| {
                case.view
                    .and_then(|v| after_of.get(&v))
                    .and_then(|p| subhead.get(p).copied())
            })
            .unwrap_or(loop_head);
        mb.goto(ret);
    }

    // Fill sub-heads (sorted order keeps statement emission deterministic).
    for &v in &parent_views {
        let head = subhead[&v];
        let mut targets: Vec<BlockId> = children
            .get(&v)
            .map(|cs| cs.iter().map(|&i| case_blocks[i]).collect())
            .unwrap_or_default();
        targets.push(loop_head);
        mb.switch_to(head);
        mb.nondet(targets);
    }

    // Fill receiver/service blocks.
    for (bi, (r, l)) in recv_blocks.iter().zip(&recv_locals) {
        mb.switch_to(*bi);
        let site = mb.call(
            None,
            InvokeKind::Virtual,
            fw.on_receive,
            Some(*l),
            vec![Operand::Local(intent)],
        );
        sites.push((site, HarnessSiteKind::Receive { receiver: *r }));
        mb.goto(loop_head);
    }
    for (bi, (s, l)) in svc_blocks.iter().zip(&svc_locals) {
        mb.switch_to(*bi);
        let site = mb.call(
            None,
            InvokeKind::Virtual,
            fw.service_on_start_command,
            Some(*l),
            vec![Operand::Local(intent)],
        );
        sites.push((site, HarnessSiteKind::ServiceStart { service: *s }));
        mb.goto(loop_head);
    }

    // Main loop head: nondet over root cases, components, and pausing.
    let mut loop_targets: Vec<BlockId> = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        let nested = case
            .view
            .map(|v| after_of.contains_key(&v))
            .unwrap_or(false);
        if !nested {
            loop_targets.push(case_blocks[i]);
        }
    }
    loop_targets.extend(recv_blocks.iter().copied());
    loop_targets.extend(svc_blocks.iter().copied());
    loop_targets.push(bb_pause);
    mb.switch_to(loop_head);
    mb.nondet(loop_targets);

    // Pause / resume2 / stop / restart / destroy (Figure 5's cycles).
    mb.switch_to(bb_pause);
    lifecycle(&mut mb, &mut sites, LifecycleEvent::Pause, 1);
    mb.nondet(vec![bb_resume2, bb_stop]);
    mb.switch_to(bb_resume2);
    lifecycle(&mut mb, &mut sites, LifecycleEvent::Resume, 2);
    mb.goto(loop_head);
    mb.switch_to(bb_stop);
    lifecycle(&mut mb, &mut sites, LifecycleEvent::Stop, 1);
    mb.nondet(vec![bb_restart, bb_destroy]);
    mb.switch_to(bb_restart);
    lifecycle(&mut mb, &mut sites, LifecycleEvent::Restart, 1);
    lifecycle(&mut mb, &mut sites, LifecycleEvent::Start, 2);
    mb.goto(bb_resume1);
    mb.switch_to(bb_destroy);
    lifecycle(&mut mb, &mut sites, LifecycleEvent::Destroy, 1);
    mb.ret(None);

    let method = mb.finish();
    ActivityHarness {
        activity,
        method,
        activity_alloc,
        sites,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use android_model::{AndroidAppBuilder, Layout, ViewDecl};
    use apir::Dominators;

    fn simple_app() -> AndroidApp {
        let mut app = AndroidAppBuilder::new("T");
        let main = app.activity("Main").build();
        let mut mb = app.method(main, "onCreate");
        mb.set_param_count(1);
        mb.ret(None);
        mb.finish();
        let mut mb = app.method(main, "onClickHome");
        mb.set_param_count(2);
        mb.ret(None);
        let handler = mb.finish();
        let fw = app.framework().clone();
        let mut layout = Layout::new(main);
        layout.add_view(ViewDecl::new(1, fw.view).with_xml_listener(GuiEventKind::Click, handler));
        layout.add_view(
            ViewDecl::new(2, fw.view)
                .with_xml_listener(GuiEventKind::Click, handler)
                .with_after(1),
        );
        app.add_layout(layout);
        app.finish().unwrap()
    }

    #[test]
    fn generates_one_harness_per_activity() {
        let result = generate(simple_app());
        assert_eq!(result.harness_count(), 1);
        assert!(result.app.program.validate().is_ok());
        let h = &result.activities[0];
        // 10 lifecycle sites (create, start1, resume1, pause, resume2,
        // stop, restart, start2, destroy) + 2 GUI sites.
        let lifecycle_sites = h
            .sites
            .iter()
            .filter(|(_, k)| matches!(k, HarnessSiteKind::Lifecycle { .. }))
            .count();
        assert_eq!(lifecycle_sites, 9);
        let gui_sites = h
            .sites
            .iter()
            .filter(|(_, k)| matches!(k, HarnessSiteKind::Gui { .. }))
            .count();
        assert_eq!(gui_sites, 2);
    }

    #[test]
    fn lifecycle_dominance_matches_figure_5() {
        let result = generate(simple_app());
        let h = &result.activities[0];
        let p = &result.app.program;
        let method = p.method(h.method);
        let dom = Dominators::compute(method);
        let addr = |ev: LifecycleEvent, inst: u8| {
            let (site, _) = h
                .sites
                .iter()
                .find(|(_, k)| {
                    matches!(k, HarnessSiteKind::Lifecycle { event, instance }
                        if *event == ev && *instance == inst)
                })
                .unwrap();
            p.call_site_addr(*site)
        };
        use LifecycleEvent::*;
        // onCreate ≺ everything.
        assert!(dom.dominates_stmt(addr(Create, 1), addr(Destroy, 1)));
        // onStart "1" ≺ onStop.
        assert!(dom.dominates_stmt(addr(Start, 1), addr(Stop, 1)));
        // onResume "1" ≺ onPause.
        assert!(dom.dominates_stmt(addr(Resume, 1), addr(Pause, 1)));
        // onPause ≺ onResume "2".
        assert!(dom.dominates_stmt(addr(Pause, 1), addr(Resume, 2)));
        // onStop ≺ onStart "2".
        assert!(dom.dominates_stmt(addr(Stop, 1), addr(Start, 2)));
        // But onStart "2" does NOT dominate onStop (it's in the cycle).
        assert!(!dom.dominates_stmt(addr(Start, 2), addr(Stop, 1)));
        // And onResume "2" does not dominate onPause.
        assert!(!dom.dominates_stmt(addr(Resume, 2), addr(Pause, 1)));
    }

    #[test]
    fn gui_after_constraint_nests_cases() {
        let result = generate(simple_app());
        let h = &result.activities[0];
        let p = &result.app.program;
        let dom = Dominators::compute(p.method(h.method));
        let gui_addr = |view: i32| {
            let (site, _) = h
                .sites
                .iter()
                .find(
                    |(_, k)| matches!(k, HarnessSiteKind::Gui { view: Some(v), .. } if *v == view),
                )
                .unwrap();
            p.call_site_addr(*site)
        };
        // View 2 is only reachable after view 1's click: onClick1 ≺ onClick2.
        assert!(dom.dominates_stmt(gui_addr(1), gui_addr(2)));
        assert!(!dom.dominates_stmt(gui_addr(2), gui_addr(1)));
        // onResume "1" dominates both GUI cases (Figure 6).
        let resume1 = h
            .sites
            .iter()
            .find(|(_, k)| {
                matches!(
                    k,
                    HarnessSiteKind::Lifecycle {
                        event: LifecycleEvent::Resume,
                        instance: 1
                    }
                )
            })
            .unwrap()
            .0;
        assert!(dom.dominates_stmt(p.call_site_addr(resume1), gui_addr(1)));
    }

    #[test]
    fn registration_based_cases_load_from_synthetic_fields() {
        // App registering a listener programmatically in onCreate.
        let mut app = AndroidAppBuilder::new("T");
        let fw = app.framework().clone();
        let main = app.activity("Main").build();
        let mut cb = app.subclass("L", fw.object);
        cb.add_interface(fw.on_click_listener);
        let listener = cb.build();
        let mut mb = app.method(listener, "onClick");
        mb.set_param_count(2);
        mb.ret(None);
        mb.finish();
        let mut mb = app.method(main, "onCreate");
        mb.set_param_count(1);
        let this = mb.param(0);
        let v = mb.fresh_local();
        let l = mb.fresh_local();
        mb.call(
            Some(v),
            InvokeKind::Virtual,
            fw.find_view_by_id,
            Some(this),
            vec![Operand::Const(ConstValue::Int(5))],
        );
        mb.new_(l, listener);
        mb.call(
            None,
            InvokeKind::Virtual,
            fw.set_on_click_listener,
            Some(v),
            vec![Operand::Local(l)],
        );
        mb.ret(None);
        mb.finish();
        let app = app.finish().unwrap();

        let result = generate(app);
        assert_eq!(result.registrations.len(), 1);
        assert_eq!(result.registrations[0].view_id, Some(5));
        let h = &result.activities[0];
        let gui = h.sites.iter().find(|(_, k)| {
            matches!(
                k,
                HarnessSiteKind::Gui {
                    registration: Some(_),
                    ..
                }
            )
        });
        assert!(
            gui.is_some(),
            "registration must produce a harness GUI case"
        );
    }

    #[test]
    fn declared_receivers_get_loop_cases() {
        let mut app = AndroidAppBuilder::new("T");
        let _main = app.activity("Main").build();
        let recv = app.receiver("R").build();
        let mut mb = app.method(recv, "onReceive");
        mb.set_param_count(2);
        mb.ret(None);
        mb.finish();
        let app = app.finish().unwrap();
        let result = generate(app);
        let h = &result.activities[0];
        assert!(h
            .sites
            .iter()
            .any(|(_, k)| matches!(k, HarnessSiteKind::Receive { receiver } if *receiver == recv)));
    }
}
