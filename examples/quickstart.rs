//! Quickstart: build a tiny Android app in the IR, run SIERRA on it, and
//! print the ranked race reports.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use sierra::android_model::AndroidAppBuilder;
use sierra::apir::{ConstValue, InvokeKind, Operand, Type};
use sierra::sierra_core::{Sierra, SierraConfig, Stage};

fn main() {
    // An activity whose onClick starts a background thread writing a field
    // that another GUI handler reads — the simplest event-based race.
    let mut app = AndroidAppBuilder::new("Quickstart");
    let fw = app.framework().clone();

    let mut cb = app.activity("com.quickstart.Main");
    cb.add_interface(fw.on_click_listener);
    cb.add_interface(fw.on_long_click_listener);
    let cache = cb.field("cache", Type::Ref(fw.object));
    let activity = cb.build();

    // Worker runnable: outer.cache = new Object().
    let mut cb = app.subclass("com.quickstart.Worker", fw.object);
    cb.add_interface(fw.runnable);
    let outer = cb.field("outer", Type::Ref(activity));
    let worker = cb.build();
    let mut mb = app.method(worker, "<init>");
    mb.set_param_count(2);
    let (this, o) = (mb.param(0), mb.param(1));
    mb.store(this, outer, Operand::Local(o));
    mb.ret(None);
    let worker_init = mb.finish();
    let mut mb = app.method(worker, "run");
    mb.set_param_count(1);
    let this = mb.param(0);
    let (o, v) = (mb.fresh_local(), mb.fresh_local());
    mb.load(o, this, outer);
    mb.new_(v, fw.object);
    mb.store(o, cache, Operand::Local(v));
    mb.ret(None);
    mb.finish();

    // onCreate registers both listeners on two views.
    let mut mb = app.method(activity, "onCreate");
    mb.set_param_count(1);
    let this = mb.param(0);
    for (view_id, register) in [
        (1, fw.set_on_click_listener),
        (2, fw.set_on_long_click_listener),
    ] {
        let view = mb.fresh_local();
        mb.call(
            Some(view),
            InvokeKind::Virtual,
            fw.find_view_by_id,
            Some(this),
            vec![Operand::Const(ConstValue::Int(view_id))],
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

    // onClick: new Thread(new Worker(this)).start().
    let mut mb = app.method(activity, "onClick");
    mb.set_param_count(2);
    let this = mb.param(0);
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
    mb.ret(None);
    mb.finish();

    // onLongClick: read the cache.
    let mut mb = app.method(activity, "onLongClick");
    mb.set_param_count(2);
    let this = mb.param(0);
    let x = mb.fresh_local();
    mb.load(x, this, cache);
    mb.ret(None);
    mb.finish();

    let app = app.finish().expect("well-formed app");

    // Run the full SIERRA pipeline, plus the opt-in comparison pass
    // that counts racy pairs without action sensitivity.
    let config = SierraConfig::builder().with(Stage::Compare).build();
    let result = Sierra::with_config(config).analyze_app(app);
    println!(
        "{}: {} harnesses, {} actions, {} HB edges ({:.1}% of max)",
        result.app_name,
        result.harness_count,
        result.action_count,
        result.hb_edges,
        result.hb_percent()
    );
    println!(
        "racy pairs: {} without action-sensitivity, {} with; {} race(s) after refutation:",
        result.racy_pairs_without_as,
        result.racy_pairs_with_as,
        result.races.len()
    );
    for race in &result.races {
        println!(
            "  {}",
            race.describe(&result.harness.app.program, &result.analysis.actions)
        );
    }
    assert!(
        !result.races.is_empty(),
        "the thread-vs-GUI race must be detected"
    );
}
