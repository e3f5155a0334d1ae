//! Regenerates the paper's evaluation tables (2, 3, 4, 5) in one run.
//!
//! ```sh
//! cargo run --release --example dataset_tables
//! ```

use sierra::eventracer::EventRacerConfig;
use sierra::sierra_core::{SessionBuilder, SierraConfig};
use sierra_cli::experiments;

fn main() {
    println!("== Table 2: the 20-app dataset ==");
    print!("{}", experiments::table2());

    let template = SessionBuilder::new(SierraConfig::default());
    let rows = experiments::run_twenty(&template, &EventRacerConfig::default(), 0);

    println!("\n== Table 3: effectiveness ==");
    print!("{}", experiments::table3(&rows));

    println!("\n== Table 4: efficiency ==");
    print!("{}", experiments::table4(&rows));

    println!("\n== §6.4 comparison with the dynamic detector ==");
    print!("{}", experiments::comparison_summary(&rows));

    println!("\n== Table 5: the 174-app F-Droid dataset (first 40 apps) ==");
    let rows5 = experiments::run_fdroid(40, &template, 0);
    print!("{}", experiments::table5(&rows5));
}
