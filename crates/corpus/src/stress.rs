//! Stress apps that drive one stage far harder than any corpus app.
//!
//! - [`refutation_stress_app`] — candidate pairs that exhaust the
//!   refuter's path budget, next to pairs only the prefilter discharges;
//! - [`pointer_cycle_stress_app`] — a chain of copy cycles that every
//!   delta must circulate through.
//!
//! The Table 4 bench times the refutation stress app, and the counters
//! golden pins the work counters of both.

use android_model::AndroidApp;
use apir::{ConstValue, InvokeKind, Local, Operand, Type};

/// A refutation stress app: every candidate pair drives the backward
/// executor to its path budget, so refutation cost dominates and scales
/// with the worker count.
///
/// The shape is Figure 8's guard idiom with a twist that defeats both of
/// the refuter's early exits:
///
/// - A posted `Runner.run` guards its `fields` stores with `if (flag)`,
///   so the backward walk carries a `flag == true` heap constraint into
///   the earlier action.
/// - `onPause` writes the same fields, clears `flag`, and then runs
///   through `diamonds` nondeterministic diamonds before returning. The
///   backward walk from `onPause`'s exit forks `2^diamonds` paths, and
///   every one of them dies at `flag = false` — so the query can neither
///   witness early nor refute before exploring the whole frontier.
///
/// With `diamonds` ≥ 13 the frontier exceeds the default 5,000-path
/// budget, making each query cost exactly one budget's worth of work —
/// refuted-method caching never kicks in (budgeted queries are not
/// cached), so all `fields` queries stay equally expensive.
///
/// The activity additionally carries two GUI handlers full of
/// statically-prunable pairs — constant-dead writes (`d0..d5`),
/// `inited`-guarded reads of `cfg0..cfg2` — which the pre-refutation
/// prefilter removes but the refuter alone cannot resolve cheaply; the
/// prefilter ablation measures exactly that gap.
pub fn refutation_stress_app(diamonds: usize, fields: usize) -> AndroidApp {
    let mut app = android_model::AndroidAppBuilder::new("RefuteStress");
    let fw = app.framework().clone();

    let mut cb = app.activity("Hot");
    cb.add_interface(fw.on_click_listener);
    cb.add_interface(fw.on_long_click_listener);
    let flag = cb.field("flag", Type::Bool);
    let slots: Vec<_> = (0..fields)
        .map(|i| cb.field(&format!("f{i}"), Type::Int))
        .collect();
    let dead_slots: Vec<_> = (0..6)
        .map(|i| cb.field(&format!("d{i}"), Type::Int))
        .collect();
    let cfg_slots: Vec<_> = (0..3)
        .map(|i| cb.field(&format!("cfg{i}"), Type::Int))
        .collect();
    let inited = cb.field("inited", Type::Bool);
    let activity = cb.build();
    // `Hot`'s methods are reserved ahead of `Runner`'s, the order
    // `render_app` prints them in, so the app's `.sierra` text parses
    // back to the same method ids and reports identically.
    let [on_resume, on_pause, on_create, on_click, on_long_click] = [
        ("onResume", 1),
        ("onPause", 1),
        ("onCreate", 1),
        ("onClick", 2),
        ("onLongClick", 2),
    ]
    .map(|(name, params)| {
        app.program_builder()
            .abstract_method(activity, name, params)
    });

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
    let g = mb.fresh_local();
    mb.load(o, this, outer);
    mb.load(g, o, flag);
    let then_bb = mb.new_block();
    let else_bb = mb.new_block();
    mb.if_(Operand::Local(g), then_bb, else_bb);
    mb.switch_to(then_bb);
    for &f in &slots {
        mb.store(o, f, Operand::Const(ConstValue::Int(1)));
    }
    mb.ret(None);
    mb.switch_to(else_bb);
    mb.ret(None);
    mb.finish();

    let mut mb = app.program_builder().fill_method(on_resume);
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

    let mut mb = app.program_builder().fill_method(on_pause);
    let this = mb.param(0);
    for &f in &slots {
        mb.store(this, f, Operand::Const(ConstValue::Int(2)));
    }
    mb.store(this, flag, Operand::Const(ConstValue::Bool(false)));
    let scratch = mb.fresh_local();
    for _ in 0..diamonds {
        let left = mb.new_block();
        let right = mb.new_block();
        let join = mb.new_block();
        mb.nondet(vec![left, right]);
        mb.switch_to(left);
        mb.const_(scratch, ConstValue::Int(1));
        mb.goto(join);
        mb.switch_to(right);
        mb.const_(scratch, ConstValue::Int(2));
        mb.goto(join);
        mb.switch_to(join);
    }
    mb.ret(None);
    mb.finish();

    // onCreate wires up the two GUI handlers hosting the prunable pairs.
    let mut mb = app.program_builder().fill_method(on_create);
    let this = mb.param(0);
    for (id, register) in [
        (1i64, fw.set_on_click_listener),
        (2, fw.set_on_long_click_listener),
    ] {
        let view = mb.fresh_local();
        mb.call(
            Some(view),
            InvokeKind::Virtual,
            fw.find_view_by_id,
            Some(this),
            vec![Operand::Const(ConstValue::Int(id))],
        );
        mb.call(
            None,
            InvokeKind::Virtual,
            register,
            Some(view),
            vec![Operand::Local(this)],
        );
    }
    mb.ret(None);
    mb.finish();

    // onClick: if (false) write d0..d5; if (inited) read cfg0..cfg2.
    let mut mb = app.program_builder().fill_method(on_click);
    let this = mb.param(0);
    let c = mb.fresh_local();
    mb.const_(c, ConstValue::Bool(false));
    let b_dead = mb.new_block();
    let b_cont = mb.new_block();
    mb.if_(Operand::Local(c), b_dead, b_cont);
    mb.switch_to(b_dead);
    for &d in &dead_slots {
        mb.store(this, d, Operand::Const(ConstValue::Int(1)));
    }
    mb.goto(b_cont);
    mb.switch_to(b_cont);
    let g = mb.fresh_local();
    mb.load(g, this, inited);
    let b_cfg = mb.new_block();
    let b_exit = mb.new_block();
    mb.if_(Operand::Local(g), b_cfg, b_exit);
    mb.switch_to(b_cfg);
    for &f in &cfg_slots {
        let x = mb.fresh_local();
        mb.load(x, this, f);
    }
    mb.goto(b_exit);
    mb.switch_to(b_exit);
    mb.ret(None);
    mb.finish();

    // onLongClick: the live writes, ending with the unique `inited` store.
    let mut mb = app.program_builder().fill_method(on_long_click);
    let this = mb.param(0);
    for &d in &dead_slots {
        mb.store(this, d, Operand::Const(ConstValue::Int(2)));
    }
    for &f in &cfg_slots {
        mb.store(this, f, Operand::Const(ConstValue::Int(3)));
    }
    mb.store(this, inited, Operand::Const(ConstValue::Bool(true)));
    mb.ret(None);
    mb.finish();

    app.finish().expect("valid stress app")
}

/// A pointer-analysis stress app whose constraint graph is a chain of
/// `cycles` copy cycles, each `cycle_len` locals long, with one fresh
/// allocation feeding every cycle.
///
/// Each cycle's entry local also receives the previous cycle's value, so
/// points-to sets grow along the chain: cycle `i` holds `i + 1` objects.
/// Every delta arriving at a cycle circulates through all `cycle_len`
/// members (the worklist fires each member once per incoming object),
/// so `worklist_iterations` and `propagations` grow with the chain; the
/// counters golden pins them.
///
/// All copy statements are emitted before any allocation: `add_edge`
/// eagerly unions the source's current points-to set into the target, so
/// alloc-then-move program order would saturate the whole chain during
/// constraint construction and leave nothing for the worklist to do. Building every edge over still-empty sets forces all
/// flow through worklist propagation, which is the code path under test.
pub fn pointer_cycle_stress_app(cycles: usize, cycle_len: usize) -> AndroidApp {
    assert!(cycle_len >= 2, "a cycle needs at least two locals");
    let mut app = android_model::AndroidAppBuilder::new("PtrCycleStress");
    let fw = app.framework().clone();
    let activity = app.activity("Main").build();
    let mut mb = app.method(activity, "onCreate");
    mb.set_param_count(1);
    let all: Vec<Vec<Local>> = (0..cycles)
        .map(|_| (0..cycle_len).map(|_| mb.fresh_local()).collect())
        .collect();
    let seeds: Vec<Local> = (0..cycles).map(|_| mb.fresh_local()).collect();
    let mut prev: Option<Local> = None;
    for (locals, &seed) in all.iter().zip(&seeds) {
        mb.move_(locals[0], seed);
        if let Some(p) = prev {
            // Chain the cycles so points-to sets accumulate downstream.
            mb.move_(locals[0], p);
        }
        for w in locals.windows(2) {
            mb.move_(w[1], w[0]);
        }
        mb.move_(locals[0], locals[cycle_len - 1]); // close the cycle
        prev = Some(locals[0]);
    }
    for &seed in &seeds {
        mb.new_(seed, fw.object);
    }
    mb.ret(None);
    mb.finish();
    app.finish().expect("valid cycle stress app")
}
