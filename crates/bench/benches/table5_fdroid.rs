//! Table 5: the 174-app F-Droid dataset.
//!
//! Times synthesizing and analyzing a slice of the dataset (the full
//! 174-app sweep is the `sierra-cli table5` command; the bench keeps a
//! fixed 10-app slice so timings are comparable run to run), and compares
//! the engine's worker pool against a serial sweep.
//!
//! ```sh
//! cargo bench --bench table5_fdroid
//! ```

use sierra_bench::{group, time};
use sierra_core::{run_jobs, Sierra};

fn main() {
    group("table5_fdroid");

    time("synthesize_10_apps", 10, || {
        corpus::fdroid::iter_apps()
            .take(10)
            .map(|(_, app, _)| app.size_stmts())
            .sum::<usize>()
    });

    let apps: Vec<_> = corpus::fdroid::iter_apps().take(10).collect();
    time("analyze_10_apps_serial", 5, || {
        apps.iter()
            .map(|(_, app, _)| Sierra::new().analyze_app(app.clone()).races.len())
            .sum::<usize>()
    });

    // The same sweep through the engine: jobs=1 must match the serial
    // numbers, jobs=0 (all cores) shows the pool's speedup.
    for jobs in [1usize, 0] {
        let label = if jobs == 0 {
            "analyze_10_apps_engine_all_cores"
        } else {
            "analyze_10_apps_engine_1_job"
        };
        time(label, 5, || {
            let items: Vec<(String, _)> = apps
                .iter()
                .map(|(idx, app, _)| (format!("fdroid-{idx}"), app.clone()))
                .collect();
            run_jobs(jobs, items, |_, app| {
                Sierra::new().analyze_app(app).races.len()
            })
            .into_iter()
            .map(|r| r.expect("no panics in the sweep"))
            .sum::<usize>()
        });
    }
}
