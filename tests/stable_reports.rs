//! Golden stable reports.
//!
//! [`Report::render_stable`] is the pipeline's output contract: every
//! report minus its wall-clock parts. This suite pins it byte for byte
//! for the 20 Table-2 apps and the shipped `fixtures/*.sierra` under the
//! default configuration, for the reflection/intent fixture apps
//! under the `resolve` opaque policy, and for the fixtures plus the
//! prefilter/triage/reflection idiom apps under each stage ablation
//! and `min_harm(NullDeref)`. The goldens live in
//! `tests/golden/`; on a mismatch the actual text is written under
//! `target/golden-actual/` and the test fails naming that path.
//!
//! The comparison runs in three separate child processes. Each process
//! seeds its `HashMap`s afresh, so a report that depends on hash
//! iteration order fails here instead of flaking elsewhere.

use sierra::android_model::{parse_app, AndroidApp};
use sierra::corpus;
use sierra::sierra_core::{Harm, OpaquePolicy, Report, Sierra, SierraConfig, Stage};
use std::path::{Path, PathBuf};

/// Renders each app under `cfg`, one stable report after another.
fn render_all(cfg: SierraConfig, apps: Vec<AndroidApp>) -> String {
    apps.into_iter()
        .map(|app| Report::from_result(&Sierra::with_config(cfg).analyze_app(app)).render_stable())
        .collect::<Vec<_>>()
        .join("\n")
}

fn twenty() -> String {
    let apps = corpus::twenty::build_all()
        .into_iter()
        .map(|(_, app, _)| app)
        .collect();
    render_all(SierraConfig::default(), apps)
}

fn fixture_apps() -> Vec<AndroidApp> {
    [
        "fig1_intra_component",
        "fig2_inter_component",
        "fig8_guarded_timer",
    ]
    .iter()
    .map(|stem| {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(format!("{stem}.sierra"));
        let src = std::fs::read_to_string(&path).expect("fixture readable");
        parse_app(stem, &src).expect("fixture parses")
    })
    .collect()
}

fn fixtures() -> String {
    render_all(SierraConfig::default(), fixture_apps())
}

fn reflection_resolve() -> String {
    let cfg = SierraConfig::builder()
        .opaque_policy(OpaquePolicy::Resolve)
        .build();
    let apps = vec![
        corpus::reflection_idioms::reflection_idioms_app().0,
        corpus::reflection_idioms::intent_idioms_app().0,
    ];
    render_all(cfg, apps)
}

/// Every stage ablation (and `min_harm`) over the fixtures and the
/// prefilter, triage and reflection idiom apps, one section per config.
fn ablations() -> String {
    let configs = [
        (
            "no prefilter",
            SierraConfig::builder().without(Stage::Prefilter),
        ),
        (
            "no histories",
            SierraConfig::builder().without(Stage::Histories),
        ),
        ("no triage", SierraConfig::builder().without(Stage::Triage)),
        (
            "skip refutation",
            SierraConfig::builder().without(Stage::Refute),
        ),
        (
            "no compare",
            SierraConfig::builder().without(Stage::Compare),
        ),
        (
            "min harm null-deref",
            SierraConfig::builder().min_harm(Harm::NullDeref),
        ),
    ];
    configs
        .into_iter()
        .map(|(label, builder)| {
            let mut apps = fixture_apps();
            apps.push(corpus::prefilter_idioms::prefilter_idioms_app().0);
            apps.push(corpus::triage_idioms::triage_idioms_app().0);
            apps.push(corpus::reflection_idioms::reflection_idioms_app().0);
            format!("== {label}\n{}", render_all(builder.build(), apps))
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Compares `actual` with `tests/golden/<name>`; on a mismatch writes
/// `actual` under `target/golden-actual/` and returns that path.
fn check(name: &str, actual: &str) -> Result<(), PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(root.join("tests/golden").join(name)).unwrap_or_default();
    if golden == actual {
        return Ok(());
    }
    let out = root.join("target/golden-actual").join(name);
    std::fs::create_dir_all(out.parent().expect("has a parent")).expect("create output dir");
    std::fs::write(&out, actual).expect("write actual report");
    Err(out)
}

/// The comparison itself; ignored in a plain run because
/// [`stable_reports_match_goldens_in_three_processes`] runs it in child
/// processes.
#[test]
#[ignore = "run in child processes by stable_reports_match_goldens_in_three_processes"]
fn stable_reports_match_goldens() {
    let mismatches: Vec<String> = [
        ("twenty.txt", twenty()),
        ("fixtures.txt", fixtures()),
        ("reflection_resolve.txt", reflection_resolve()),
        ("ablations.txt", ablations()),
    ]
    .iter()
    .filter_map(|(name, actual)| check(name, actual).err())
    .map(|path| path.display().to_string())
    .collect();
    assert!(
        mismatches.is_empty(),
        "stable reports differ from tests/golden; actual output written to {mismatches:?}"
    );
}

#[test]
fn stable_reports_match_goldens_in_three_processes() {
    let exe = std::env::current_exe().expect("test binary path");
    for run in 1..=3 {
        let out = std::process::Command::new(&exe)
            .args(["stable_reports_match_goldens", "--exact", "--ignored"])
            .output()
            .expect("spawn child test process");
        assert!(
            out.status.success(),
            "process {run} of 3 failed:\n{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
