//! The worker-pool engine must not change results: a parallel sweep has
//! to render byte-identical tables to a serial one, and a poisoned app
//! must surface as an ERROR row without sinking the run.

use eventracer::EventRacerConfig;
use sierra_cli::experiments::{run_fdroid, run_twenty, table3, table5};
use sierra_core::{run_jobs, SessionBuilder, SierraConfig};

#[test]
fn parallel_and_serial_sweeps_render_identical_tables() {
    let template = SessionBuilder::new(SierraConfig::default());
    let er = EventRacerConfig {
        runs: 4,
        ..Default::default()
    };
    let serial = run_twenty(&template, None, &er, 1);
    let parallel = run_twenty(&template, None, &er, 8);

    // Table 3 carries only analysis results — byte-identical.
    assert_eq!(table3(&serial), table3(&parallel));
    // Table 4's wall-clock columns differ run to run; its work counters
    // must not.
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.name, p.name, "input order is preserved");
        let (sm, pm, name) = (&s.report.metrics, &p.report.metrics, &s.name);
        let (sp, pp) = (&sm.pointer, &pm.pointer);
        assert_eq!(sp.worklist_iterations, pp.worklist_iterations, "{name}");
        assert_eq!(sp.cg_edges, pp.cg_edges, "{name}");
        let (sh, ph) = (sm.shbg.total_applications(), pm.shbg.total_applications());
        assert_eq!(sh, ph, "{name}");
        assert_eq!(sm.refuter.paths, pm.refuter.paths, "{name}");
    }
}

#[test]
fn fdroid_slice_is_schedule_independent() {
    let template = SessionBuilder::new(SierraConfig::default());
    let serial = run_fdroid(8, &template, 1);
    let parallel = run_fdroid(8, &template, 4);
    let strip_timings = |rows: &[sierra_cli::experiments::AppRow]| {
        let table = table5(rows);
        table
            .lines()
            .filter(|l| !l.starts_with("Efficiency medians"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip_timings(&serial), strip_timings(&parallel));
}

#[test]
fn race_reports_are_deterministically_ordered() {
    // The same app analyzed twice: the rendered result — including the
    // numbered race list any triage annotations ride on — must be
    // byte-identical, and the list must follow the content-based rank
    // order rather than discovery order.
    let render = || {
        let (app, _truth) = corpus::twenty::build_app(corpus::TWENTY[0]);
        sierra_core::Sierra::with_config(SierraConfig::default()).analyze_app(app)
    };
    let first = render();
    let second = render();
    // Drop the one line that legitimately varies from run to run: the
    // wall clock of "stages:". The harm annotations on the race lines
    // themselves remain under comparison.
    let stable = |r: &sierra_core::SierraResult| {
        format!("{r}")
            .lines()
            .filter(|l| !l.starts_with("stages:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        stable(&first),
        stable(&second),
        "race reports must not depend on the run"
    );
    let keys: Vec<_> = first.races.iter().map(|r| r.rank_key()).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "races must be emitted in rank order");
}

#[test]
fn a_poisoned_app_becomes_an_error_row() {
    let items = vec![
        ("good".to_owned(), 1usize),
        ("poisoned".to_owned(), 2),
        ("also good".to_owned(), 3),
    ];
    let results = run_jobs(4, items, |name, n| {
        if name == "poisoned" {
            panic!("simulated analysis crash");
        }
        n * 10
    });
    assert_eq!(results[0], Ok(10));
    assert_eq!(results[2], Ok(30));
    let err = results[1].as_ref().expect_err("poisoned app fails");
    assert_eq!(err.item, "poisoned");
    assert!(err.message.contains("simulated analysis crash"));
}
