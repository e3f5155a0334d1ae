//! The SHBG's closure is exactly reachability over its direct edges.
//!
//! For every app, [`Shbg::ordered`] must answer `a ≺ b` iff `b` is
//! reachable from `a` through at least one edge of [`Shbg::edges`]: the
//! in-place condensation closure may neither drop an order nor invent
//! one. Checked for every pair of actions on the 20 Table-2 apps, the
//! 174 F-Droid apps, the shipped fixtures and synthesized apps of 96 to
//! 160 activities, each built by a default-configuration session.

use sierra::android_model::{parse_app, ActionId, AndroidApp};
use sierra::corpus;
use sierra::sierra_core::{AnalysisSession, SierraConfig};

/// Asserts the closure of each app's SHBG against a BFS over its edges;
/// returns how many apps had at least one edge.
fn assert_exact(apps: impl IntoIterator<Item = (String, AndroidApp)>) -> usize {
    let mut with_edges = 0;
    for (name, app) in apps {
        let mut session = AnalysisSession::new(SierraConfig::default(), app);
        let g = session.shbg().expect("SHBG");
        let n = g.action_count();
        let mut succs = vec![Vec::new(); n];
        for e in &g.edges {
            succs[e.src.index()].push(e.dst.index());
        }
        with_edges += usize::from(!g.edges.is_empty());
        let mut reached = vec![false; n];
        let mut stack = Vec::new();
        for a in 0..n {
            reached.fill(false);
            stack.extend_from_slice(&succs[a]);
            while let Some(x) = stack.pop() {
                if !reached[x] {
                    reached[x] = true;
                    stack.extend_from_slice(&succs[x]);
                }
            }
            for (b, &expected) in reached.iter().enumerate() {
                let (ia, ib) = (ActionId(a as u32), ActionId(b as u32));
                assert_eq!(g.ordered(ia, ib), expected, "{name}: ({a}, {b})");
            }
        }
    }
    with_edges
}

#[test]
fn closure_is_reachability_on_the_twenty_apps() {
    let apps = corpus::twenty::build_all()
        .into_iter()
        .map(|(spec, app, _)| (spec.name.to_owned(), app));
    assert!(assert_exact(apps) > 0);
}

#[test]
fn closure_is_reachability_on_the_fdroid_apps() {
    let apps = corpus::fdroid::iter_apps().map(|(i, app, _)| (format!("app{i:03}"), app));
    assert!(assert_exact(apps) > 0);
}

#[test]
fn closure_is_reachability_on_the_fixtures() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("fixtures directory")
        .map(|e| e.expect("fixture entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "sierra"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty());
    let apps = paths.into_iter().map(|p| {
        let name = p
            .file_stem()
            .expect("file name")
            .to_string_lossy()
            .into_owned();
        let text = std::fs::read_to_string(&p).expect("readable fixture");
        let app = parse_app(&name, &text).expect("fixture parses");
        (name, app)
    });
    assert!(assert_exact(apps) > 0);
}

/// Synthesized large apps of every `activities` count, for `seeds`.
fn large(activities: &[usize], seeds: &[u64]) -> Vec<(String, AndroidApp)> {
    let mut out = Vec::new();
    for &n in activities {
        for &seed in seeds {
            let name = format!("Large{n}s{seed}");
            out.push((name.clone(), corpus::twenty::synthesize(&name, n, seed).0));
        }
    }
    out
}

#[test]
fn closure_is_reachability_on_large_apps_up_to_128_activities() {
    assert!(assert_exact(large(&[96, 112, 128], &[1, 2, 3])) > 0);
}

#[test]
fn closure_is_reachability_on_large_apps_of_144_and_160_activities() {
    assert!(assert_exact(large(&[144, 160], &[1, 2, 3])) > 0);
}
