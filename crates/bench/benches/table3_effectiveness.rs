//! Table 3: effectiveness — the full SIERRA pipeline per app size class.
//!
//! The paper's Table 3 reports, per app: harnesses, actions, HB edges,
//! racy pairs without/with action sensitivity, and races after refutation.
//! This bench times the detector producing those numbers and, apart,
//! the second session under the hybrid selector that counts the pairs
//! without action sensitivity over the same harness, and asserts the
//! headline shape (AS reduces pairs; refutation reduces reports).
//!
//! ```sh
//! cargo bench --bench table3_effectiveness
//! ```

use pointer::SelectorKind;
use sierra_bench::{group, time};
use sierra_core::{SessionBuilder, Sierra, SierraConfig};
use std::sync::Arc;

fn main() {
    group("table3_effectiveness");
    let hybrid = SierraConfig::builder()
        .selector(SelectorKind::Hybrid(1))
        .build();
    for (name, app, _) in sierra_bench::size_classes() {
        let result = Sierra::new().analyze_app(app.clone());
        let without_as = || {
            SessionBuilder::new(hybrid)
                .harness(Arc::clone(&result.harness))
                .build()
                .and_then(|mut session| session.candidates().map(<[_]>::len))
                .expect("pipeline runs")
        };
        // Sanity-check the shape once, outside the timed loop.
        assert!(result.racy_pairs_with_as <= without_as());
        assert!(result.races.len() <= result.racy_pairs_with_as);

        time(&format!("full_pipeline/{name}"), 10, || {
            Sierra::new().analyze_app(app.clone()).races.len()
        });
        time(&format!("hybrid_candidates/{name}"), 10, without_as);
    }
}
