//! Regenerates the paper's evaluation tables (2, 3, 4, 5) in one run.
//!
//! ```sh
//! cargo run --release --example dataset_tables
//! ```

use sierra::eventracer::EventRacerConfig;
use sierra::sierra_core::{SessionBuilder, SierraConfig, Stage};
use sierra_cli::experiments;

fn main() {
    println!("== Table 2: the 20-app dataset ==");
    print!("{}", experiments::table2());

    // Table 3 alone reads the without-AS column, so it alone runs the
    // opt-in comparison pass; the other tables measure the detector.
    let er_cfg = EventRacerConfig::default();
    let compared = SessionBuilder::new(SierraConfig::builder().with(Stage::Compare).build());
    let rows3 = experiments::run_twenty(&compared, &er_cfg, 0);
    println!("\n== Table 3: effectiveness ==");
    print!("{}", experiments::table3(&rows3));

    let template = SessionBuilder::new(SierraConfig::default());
    let rows = experiments::run_twenty(&template, &er_cfg, 0);

    println!("\n== Table 4: efficiency ==");
    print!("{}", experiments::table4(&rows));

    println!("\n== §6.4 comparison with the dynamic detector ==");
    print!("{}", experiments::comparison_summary(&rows));

    println!("\n== Table 5: the 174-app F-Droid dataset (first 40 apps) ==");
    let rows5 = experiments::run_fdroid(40, &template, 0);
    print!("{}", experiments::table5(&rows5));
}
