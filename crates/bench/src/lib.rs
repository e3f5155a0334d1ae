//! # sierra-bench — benchmark support
//!
//! The timing binaries in `benches/` regenerate the measurements behind
//! every table and figure of the paper's evaluation; this library hosts
//! shared fixtures and the std-only timing harness they use.

use android_model::AndroidApp;
use corpus::GroundTruth;
use std::time::{Duration, Instant};

/// A small, a medium, and a large Table 2 app (by synthesized size).
pub fn size_classes() -> Vec<(&'static str, AndroidApp, GroundTruth)> {
    ["VuDroid", "NPR News", "Astrid"]
        .into_iter()
        .map(|name| {
            let spec = corpus::TWENTY
                .iter()
                .find(|s| s.name == name)
                .expect("known app");
            let (app, truth) = corpus::twenty::build_app(*spec);
            (name, app, truth)
        })
        .collect()
}

/// Times `f` over `iters` iterations after one untimed warm-up run,
/// prints a `label  min/mean` line, and returns the mean per-iteration
/// duration. The result of each call is passed through
/// [`std::hint::black_box`] so the work is not optimized away.
pub fn time<T>(label: &str, iters: usize, mut f: impl FnMut() -> T) -> Duration {
    assert!(iters > 0, "at least one iteration");
    std::hint::black_box(f());
    let mut min = Duration::MAX;
    let mut total = Duration::ZERO;
    for _ in 0..iters {
        let start = Instant::now();
        std::hint::black_box(f());
        let elapsed = start.elapsed();
        total += elapsed;
        min = min.min(elapsed);
    }
    let mean = total / iters as u32;
    println!("{label:<46} min {min:>12.3?}  mean {mean:>12.3?}  ({iters} iters)");
    mean
}

/// Prints a section header for a group of [`time`] measurements.
pub fn group(name: &str) {
    println!("\n== {name} ==");
}

#[cfg(test)]
mod tests {
    use corpus::stress::refutation_stress_app;
    use pointer::Access;
    use sierra_core::{Sierra, SierraConfig, Stage};
    use std::collections::HashSet;

    fn pair_key(a: &Access, b: &Access) -> String {
        format!("{:?}@{:?} vs {:?}@{:?}", a.addr, a.action, b.addr, b.action)
    }

    /// Acceptance: on the figure apps plus the refutation stress app the
    /// prefilter removes at least 20% of candidate pairs, and the
    /// surviving reports equal the `--no-prefilter` run minus exactly
    /// the pruned pairs.
    #[test]
    fn prefilter_prunes_a_fifth_of_candidates_without_changing_verdicts() {
        // A small diamond count keeps refutation fast; the candidate set
        // and prune decisions are identical to the benchmark shape.
        let apps = vec![
            corpus::figures::intra_component().0,
            corpus::figures::inter_component().0,
            corpus::figures::open_sudoku_guard().0,
            refutation_stress_app(4, 8),
        ];
        let (mut total, mut pruned_total) = (0usize, 0usize);
        for app in apps {
            let with = Sierra::new().analyze_app(app.clone());
            let without =
                Sierra::with_config(SierraConfig::builder().without(Stage::Prefilter).build())
                    .analyze_app(app);
            total += with.racy_pairs_with_as;
            pruned_total += with.pruned.len();
            assert_eq!(with.racy_pairs_with_as, without.racy_pairs_with_as);
            assert!(without.pruned.is_empty());
            let pruned_keys: HashSet<String> =
                with.pruned.iter().map(|p| pair_key(&p.a, &p.b)).collect();
            let with_keys: Vec<String> = with.races.iter().map(|r| pair_key(&r.a, &r.b)).collect();
            let expected: Vec<String> = without
                .races
                .iter()
                .map(|r| pair_key(&r.a, &r.b))
                .filter(|k| !pruned_keys.contains(k))
                .collect();
            assert_eq!(with_keys, expected, "{}", with.app_name);
        }
        assert!(
            pruned_total * 5 >= total,
            "prefilter must prune ≥20% of candidates, got {pruned_total}/{total}"
        );
    }

    /// The stress app's prunable content lands on the intended rules:
    /// six constant-dead pairs, the `inited`-guarded cfg pairs, and the
    /// `flag`-guarded budget-exhausting pairs.
    #[test]
    fn stress_app_prune_counts_by_verdict() {
        let result = Sierra::new().analyze_app(refutation_stress_app(2, 8));
        let s = result.metrics.prefilter;
        assert_eq!(s.pruned_constprop, 6, "d0..d5 constant-dead pairs");
        assert!(
            s.pruned_guarded >= 3,
            "cfg0..cfg2 guarded pairs, got {}",
            s.pruned_guarded
        );
        assert_eq!(s.pruned_total(), result.pruned.len());
    }
}
