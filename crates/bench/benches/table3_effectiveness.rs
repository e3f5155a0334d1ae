//! Table 3: effectiveness — the full SIERRA pipeline per app size class.
//!
//! The paper's Table 3 reports, per app: harnesses, actions, HB edges,
//! racy pairs without/with action sensitivity, and races after refutation.
//! This bench times the pipeline producing those numbers, the opt-in
//! comparison pass included, against the default detector without it,
//! and asserts the headline shape (AS reduces pairs; refutation reduces
//! reports).
//!
//! ```sh
//! cargo bench --bench table3_effectiveness
//! ```

use sierra_bench::{group, time};
use sierra_core::{Sierra, SierraConfig, Stage};

fn main() {
    group("table3_effectiveness");
    // Table 3's pipeline: the detector plus the comparison pass.
    let table3 = SierraConfig::builder().with(Stage::Compare).build();
    for (name, app, _) in sierra_bench::size_classes() {
        // Sanity-check the shape once, outside the timed loop.
        let result = Sierra::with_config(table3).analyze_app(app.clone());
        assert!(result.racy_pairs_with_as <= result.racy_pairs_without_as);
        assert!(result.races.len() <= result.racy_pairs_with_as);

        time(&format!("full_pipeline/{name}"), 10, || {
            Sierra::with_config(table3)
                .analyze_app(app.clone())
                .races
                .len()
        });
        time(&format!("pipeline_no_comparison_pass/{name}"), 10, || {
            Sierra::new().analyze_app(app.clone()).races.len()
        });
    }
}
