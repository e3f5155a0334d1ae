//! Figure 8 of the paper: symbolic-execution refutation of the OpenSudoku
//! guarded-timer pattern. The `mAccumTime` accesses are protected by the
//! `mIsRunning` flag (ad-hoc synchronization); backward symbolic execution
//! witnesses no feasible path in the "stop first" order and refutes the
//! candidate, while the guard flag itself remains a (benign) true race.
//!
//! ```sh
//! cargo run --example refutation
//! ```

use sierra::corpus::figures;
use sierra::sierra_core::{Sierra, SierraConfig, Stage};

fn main() {
    let (app, _) = figures::open_sudoku_guard();
    let with_refutation = Sierra::new().analyze_app(app);

    let (app, _) = figures::open_sudoku_guard();
    let without = Sierra::with_config(SierraConfig::builder().without(Stage::Refute).build())
        .analyze_app(app);

    println!(
        "candidate racy pairs: {}  → after refutation: {}",
        without.races.len(),
        with_refutation.races.len()
    );
    let rf = &with_refutation.metrics.refuter;
    println!(
        "refuter: {} queries, {} refuted, {} witnessed, {} paths explored",
        rf.queries, rf.refuted, rf.witnessed, rf.paths
    );

    let program = &with_refutation.harness.app.program;
    let fields: Vec<&str> = with_refutation
        .races
        .iter()
        .map(|r| program.field_name(r.field))
        .collect();
    println!("surviving reports: {fields:?}");

    assert!(
        !fields.contains(&"mAccumTime"),
        "the guarded mAccumTime pair must be refuted"
    );
    assert!(
        fields.contains(&"mIsRunning"),
        "the guard flag itself is still a (benign) true race"
    );
    assert!(with_refutation.races.len() < without.races.len());
    println!("Figure 8 reproduced: guarded pair refuted, guard race reported.");
}
