//! The paper's figures as timing runs.
//!
//! - Figure 1: detecting the intra-component `AsyncTask` race.
//! - Figure 2: detecting the inter-component receiver race.
//! - Figures 5 & 6: lifecycle/GUI HB construction (harness dominators).
//! - Figure 7: the inter-action transitivity fixpoint (rules 6 + 7).
//! - Figure 8: the refutation query on the guarded-timer pattern.
//!
//! ```sh
//! cargo bench --bench figures
//! ```

use apir::MethodId;
use pointer::SelectorKind;
use shbg::CallDominance;
use sierra_bench::{group, time};
use sierra_core::Sierra;
use std::collections::HashMap;

fn main() {
    group("figures");

    // Figures 1 and 2: end-to-end detection.
    let (fig1, _) = corpus::figures::intra_component();
    time("fig1_intra_component_detection", 20, || {
        Sierra::new().analyze_app(fig1.clone()).races.len()
    });
    let (fig2, _) = corpus::figures::inter_component();
    time("fig2_inter_component_detection", 20, || {
        Sierra::new().analyze_app(fig2.clone()).races.len()
    });

    // Figures 5/6/7: SHBG construction on a prepared analysis and its
    // per-method dominance facts; only `shbg::build` is timed. The
    // corpus's ordered-posts idiom exercises rules 4–7; the lifecycle/GUI
    // rules run on every harness.
    let mut app = android_model::AndroidAppBuilder::new("HbFixture");
    let mut truth = corpus::GroundTruth::new();
    corpus::Idiom::OrderedPosts.plant(&mut app, "com.fix.Posts", &mut truth);
    corpus::Idiom::AsyncUiUpdate.plant(&mut app, "com.fix.News", &mut truth);
    let app = app.finish().expect("fixture builds");
    let harness = harness_gen::generate(app);
    let analysis = pointer::analyze(&harness, SelectorKind::ActionSensitive(1));
    let dominance: HashMap<MethodId, CallDominance> = analysis
        .reachable
        .iter()
        .map(|&(m, _)| (m, CallDominance::compute(harness.app.program.method(m))))
        .collect();
    time("fig5_fig6_fig7_shbg_construction", 30, || {
        shbg::build(&analysis, &harness, |m| &dominance[&m]).ordered_pair_count()
    });

    // Figure 8: the refutation showcase.
    let (fig8, _) = corpus::figures::open_sudoku_guard();
    time("fig8_refutation_pipeline", 20, || {
        let r = Sierra::new().analyze_app(fig8.clone());
        assert!(r.metrics.refuter.refuted > 0);
        r.races.len()
    });
}
