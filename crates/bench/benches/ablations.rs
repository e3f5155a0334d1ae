//! Ablations of the design choices DESIGN.md calls out (§6.5).
//!
//! - **Context sensitivity**: racy-pair counts and analysis time across
//!   insensitive / k-cfa / k-obj / hybrid / action-sensitive abstractions
//!   (the paper's 5× reduction claim).
//! - **Refutation budget**: path budgets from starved to the paper's
//!   5,000-path default.
//!
//! ```sh
//! cargo bench --bench ablations
//! ```

use pointer::SelectorKind;
use sierra_bench::{group, time};
use sierra_core::{SessionBuilder, Sierra, SierraConfig, Stage};
use std::sync::Arc;

fn context_ablation() {
    let (_, app, _) = sierra_bench::size_classes().remove(1); // NPR News
    group("ablation_contexts");
    // The harness is generated once and shared between selector sessions —
    // context sensitivity only changes the pointer stage.
    let harness = Arc::new(harness_gen::generate(app));
    let selectors = [
        SelectorKind::Insensitive,
        SelectorKind::KCfa(1),
        SelectorKind::KObj(1),
        SelectorKind::Hybrid(1),
        SelectorKind::ActionSensitive(1),
        SelectorKind::ActionSensitive(2),
    ];
    for sel in selectors {
        let cfg = SierraConfig::builder()
            .selector(sel)
            .without(Stage::Refute)
            .build();
        time(&format!("analysis/{sel}"), 15, || {
            let mut session = SessionBuilder::new(cfg)
                .harness(harness.clone())
                .build()
                .expect("harness input is valid");
            let candidates = session.candidates().expect("pipeline runs").len();
            (session.metrics().pointer.cg_edges, candidates)
        });
    }
}

fn refutation_budget() {
    let (_, app, _) = sierra_bench::size_classes().remove(1);
    group("ablation_budget");
    for budget in [10usize, 100, 5_000] {
        let cfg = SierraConfig::builder().refuter_budget(budget).build();
        time(&format!("max_paths/{budget}"), 10, || {
            Sierra::with_config(cfg)
                .analyze_app(app.clone())
                .races
                .len()
        });
    }
}

fn schedule_exploration() {
    // Random vs systematic schedule exploration (the §6.4 "efficient ways
    // to explore schedules" discussion) under comparable budgets.
    let (app, _) = corpus::figures::inter_component();
    group("ablation_exploration");
    time("random_64_runs", 15, || {
        eventracer::detect(
            &app,
            &eventracer::EventRacerConfig {
                runs: 64,
                steps_per_episode: 6,
                activity_coverage: 1.0,
                ..Default::default()
            },
        )
        .races
        .len()
    });
    time("systematic_64_runs", 15, || {
        eventracer::detect_systematic(
            &app,
            &eventracer::SystematicConfig {
                max_runs: 64,
                ..Default::default()
            },
        )
        .races
        .len()
    });
}

fn main() {
    context_ablation();
    refutation_budget();
    schedule_exploration();
}
