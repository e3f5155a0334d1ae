//! Ground-truth labels for planted concurrency idioms.
//!
//! The paper's evaluation classifies reported races by manual inspection
//! (§6.1, §6.5). Our synthetic apps plant each idiom deliberately, so the
//! classification is known by construction: each planted race is keyed by
//! the `(declaring class, field)` it manifests on.

use std::collections::HashSet;

/// The expected verdict for a planted race.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RaceLabel {
    /// A genuine, harmful event-based race; SIERRA should report it.
    TrueRace,
    /// A true race on a guard variable — reported, but benign (§6.5: 74.8%
    /// of true reports fit this pattern).
    BenignGuard,
    /// A pair protected by ad-hoc synchronization; refutation should
    /// eliminate it. Reporting it is a false positive.
    Refutable,
    /// Accesses ordered by happens-before; must not even become a racy
    /// pair. Reporting it is a false positive.
    Ordered,
    /// An implicit-dependency pattern SIERRA cannot see (§6.5 OpenManager):
    /// SIERRA is *expected* to report it, and manual inspection counts it
    /// as a false positive.
    ImplicitDep,
}

impl RaceLabel {
    /// Whether a report on this field counts as a true race under manual
    /// inspection.
    pub fn is_true_race(self) -> bool {
        matches!(self, RaceLabel::TrueRace | RaceLabel::BenignGuard)
    }

    /// Whether SIERRA is expected to emit a report for this field.
    pub fn expect_report(self) -> bool {
        matches!(
            self,
            RaceLabel::TrueRace | RaceLabel::BenignGuard | RaceLabel::ImplicitDep
        )
    }
}

/// The expected *harm* of a planted race — the manual-inspection severity
/// taxonomy of Table 2 (§6.1), which the triage classifier reproduces
/// automatically. Coarser than `triage::Harm`: ground truth only pins
/// down what the classifier is scored on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HarmLabel {
    /// Crash-capable: a null dereference or use-before-init is reachable
    /// (the classifier must say `NullDeref` or `UseBeforeInit`).
    Crash,
    /// The racy value feeds a branch or sink in another action; wrong
    /// ordering yields inconsistent behavior but no crash.
    Value,
    /// Idempotent or guard-style store; the race is real but harmless.
    Benign,
}

/// One planted race site.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlantedRace {
    /// Declaring class of the racy field.
    pub class: String,
    /// Field name.
    pub field: String,
    /// Expected verdict.
    pub label: RaceLabel,
    /// Expected harm class, where the idiom determines it by
    /// construction; `None` leaves the site unscored for triage.
    pub harm: Option<HarmLabel>,
}

/// All planted races of one app.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// The planted races.
    pub planted: Vec<PlantedRace>,
}

impl GroundTruth {
    /// Creates an empty ground truth.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a planted race (duplicate `(class, field)` keys are merged;
    /// shared substrate classes can be planted by several activities).
    pub fn plant(&mut self, class: &str, field: &str, label: RaceLabel) {
        self.plant_with_harm(class, field, label, None);
    }

    /// Records a planted race together with its expected harm class.
    pub fn plant_harm(&mut self, class: &str, field: &str, label: RaceLabel, harm: HarmLabel) {
        self.plant_with_harm(class, field, label, Some(harm));
    }

    fn plant_with_harm(
        &mut self,
        class: &str,
        field: &str,
        label: RaceLabel,
        harm: Option<HarmLabel>,
    ) {
        if self
            .planted
            .iter()
            .any(|p| p.class == class && p.field == field)
        {
            return;
        }
        self.planted.push(PlantedRace {
            class: class.to_owned(),
            field: field.to_owned(),
            label,
            harm,
        });
    }

    /// Merges another app fragment's truth into this one.
    pub fn extend(&mut self, other: GroundTruth) {
        self.planted.extend(other.planted);
    }

    /// The label planted on `(class, field)`, if any.
    pub fn classify(&self, class: &str, field: &str) -> Option<RaceLabel> {
        self.planted
            .iter()
            .find(|p| p.class == class && p.field == field)
            .map(|p| p.label)
    }

    /// The expected harm of `(class, field)`, if scored. Explicit
    /// [`plant_harm`](Self::plant_harm) labels win; absent one, a
    /// `BenignGuard` race derives `Benign` (a guard store is harmless by
    /// definition), and every other site stays unscored.
    pub fn expected_harm(&self, class: &str, field: &str) -> Option<HarmLabel> {
        let p = self
            .planted
            .iter()
            .find(|p| p.class == class && p.field == field)?;
        p.harm.or(match p.label {
            RaceLabel::BenignGuard => Some(HarmLabel::Benign),
            _ => None,
        })
    }

    /// Number of planted sites SIERRA is expected to report.
    pub fn expected_reports(&self) -> usize {
        self.planted
            .iter()
            .filter(|p| p.label.expect_report())
            .count()
    }

    /// Scores a set of reported `(class, field)` race groups against the
    /// truth (the "After Manual Inspection" columns of Table 3).
    pub fn evaluate<'a>(
        &self,
        reports: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> EvalCounts {
        let distinct: HashSet<(String, String)> = reports
            .into_iter()
            .map(|(c, f)| (c.to_owned(), f.to_owned()))
            .collect();
        let mut counts = EvalCounts {
            reported: distinct.len(),
            ..Default::default()
        };
        for (c, f) in &distinct {
            match self.classify(c, f) {
                Some(l) if l.is_true_race() => counts.true_races += 1,
                Some(RaceLabel::ImplicitDep) => counts.false_positives += 1,
                Some(_) => counts.false_positives += 1,
                None => counts.unplanted += 1,
            }
        }
        // Missed true races (false negatives).
        for p in &self.planted {
            if p.label.is_true_race() && !distinct.contains(&(p.class.clone(), p.field.clone())) {
                counts.missed += 1;
            }
        }
        counts
    }

    /// Scores triage verdicts against the harm ground truth. Each input is
    /// a reported `(class, field, is_crash_verdict)` triple, where
    /// `is_crash_verdict` says the classifier flagged the race as
    /// crash-capable (`NullDeref`/`UseBeforeInit`). Only sites with an
    /// expected harm participate; unscored sites are skipped, so synthetic
    /// noise cannot dilute precision.
    pub fn evaluate_harm<'a>(
        &self,
        verdicts: impl IntoIterator<Item = (&'a str, &'a str, bool)>,
    ) -> HarmEval {
        let mut eval = HarmEval::default();
        let mut seen: HashSet<(String, String)> = HashSet::new();
        for (c, f, is_crash) in verdicts {
            let Some(expected) = self.expected_harm(c, f) else {
                continue;
            };
            if !seen.insert((c.to_owned(), f.to_owned())) {
                continue;
            }
            eval.scored += 1;
            match (expected, is_crash) {
                (HarmLabel::Crash, true) => eval.crash_tp += 1,
                (HarmLabel::Crash, false) => eval.crash_fn += 1,
                (_, true) => eval.crash_fp += 1,
                (_, false) => {}
            }
        }
        eval
    }
}

/// Evaluation counters over one app's reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalCounts {
    /// Distinct reported `(class, field)` groups.
    pub reported: usize,
    /// Groups matching a planted true race (incl. benign guards).
    pub true_races: usize,
    /// Groups matching a planted false-positive pattern.
    pub false_positives: usize,
    /// Groups on fields not planted (noise from shared substrates).
    pub unplanted: usize,
    /// Planted true races that went unreported (false negatives).
    pub missed: usize,
}

/// Triage-classifier score over harm-labelled sites: precision/recall of
/// the crash-capable verdicts (the counters golden holds precision at
/// 90% or above).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HarmEval {
    /// Crash-labelled sites the classifier flagged crash-capable.
    pub crash_tp: usize,
    /// Non-crash sites wrongly flagged crash-capable.
    pub crash_fp: usize,
    /// Crash-labelled sites the classifier missed.
    pub crash_fn: usize,
    /// Harm-scored sites that were reported at all.
    pub scored: usize,
}

impl HarmEval {
    /// Precision of crash-capable verdicts (1.0 when none were emitted).
    pub fn precision(&self) -> f64 {
        let flagged = self.crash_tp + self.crash_fp;
        if flagged == 0 {
            1.0
        } else {
            self.crash_tp as f64 / flagged as f64
        }
    }

    /// Recall of crash-capable verdicts (1.0 when none were expected).
    pub fn recall(&self) -> f64 {
        let expected = self.crash_tp + self.crash_fn;
        if expected == 0 {
            1.0
        } else {
            self.crash_tp as f64 / expected as f64
        }
    }

    /// Merges another app's score into this one.
    pub fn merge(&mut self, other: HarmEval) {
        self.crash_tp += other.crash_tp;
        self.crash_fp += other.crash_fp;
        self.crash_fn += other.crash_fn;
        self.scored += other.scored;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_splits_true_and_false_positives() {
        let mut t = GroundTruth::new();
        t.plant("A", "x", RaceLabel::TrueRace);
        t.plant("A", "g", RaceLabel::BenignGuard);
        t.plant("A", "p", RaceLabel::Refutable);
        t.plant("A", "d", RaceLabel::ImplicitDep);
        t.plant("A", "o", RaceLabel::Ordered);
        assert_eq!(t.expected_reports(), 3);

        let reports = vec![("A", "x"), ("A", "g"), ("A", "d"), ("A", "z")];
        let c = t.evaluate(reports);
        assert_eq!(c.reported, 4);
        assert_eq!(c.true_races, 2);
        assert_eq!(c.false_positives, 1, "implicit dependency counts as FP");
        assert_eq!(c.unplanted, 1);
        assert_eq!(c.missed, 0);
    }

    #[test]
    fn missed_true_races_are_counted() {
        let mut t = GroundTruth::new();
        t.plant("A", "x", RaceLabel::TrueRace);
        t.plant("A", "y", RaceLabel::TrueRace);
        let c = t.evaluate(vec![("A", "x")]);
        assert_eq!(c.true_races, 1);
        assert_eq!(c.missed, 1);
    }

    #[test]
    fn harm_labels_derive_and_score() {
        let mut t = GroundTruth::new();
        t.plant_harm("A", "conn", RaceLabel::TrueRace, HarmLabel::Crash);
        t.plant_harm("A", "count", RaceLabel::TrueRace, HarmLabel::Value);
        t.plant("A", "flag", RaceLabel::BenignGuard);
        t.plant("A", "x", RaceLabel::TrueRace);
        assert_eq!(t.expected_harm("A", "conn"), Some(HarmLabel::Crash));
        assert_eq!(
            t.expected_harm("A", "flag"),
            Some(HarmLabel::Benign),
            "benign guards derive Benign"
        );
        assert_eq!(t.expected_harm("A", "x"), None, "unscored without a label");

        let eval = t.evaluate_harm(vec![
            ("A", "conn", true),
            ("A", "conn", true), // duplicate report is scored once
            ("A", "count", false),
            ("A", "flag", true), // false crash alarm
            ("A", "x", true),    // unscored: skipped entirely
        ]);
        assert_eq!(eval.scored, 3);
        assert_eq!(eval.crash_tp, 1);
        assert_eq!(eval.crash_fp, 1);
        assert_eq!(eval.crash_fn, 0);
        assert!((eval.precision() - 0.5).abs() < 1e-9);
        assert!((eval.recall() - 1.0).abs() < 1e-9);

        let mut total = HarmEval::default();
        total.merge(eval);
        total.merge(HarmEval {
            crash_tp: 1,
            crash_fp: 0,
            crash_fn: 1,
            scored: 2,
        });
        assert_eq!(total.crash_tp, 2);
        assert!((total.recall() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(HarmEval::default().precision(), 1.0);
    }

    #[test]
    fn labels_behave() {
        assert!(RaceLabel::TrueRace.is_true_race());
        assert!(RaceLabel::BenignGuard.is_true_race());
        assert!(!RaceLabel::Refutable.is_true_race());
        assert!(RaceLabel::ImplicitDep.expect_report());
        assert!(!RaceLabel::Ordered.expect_report());
    }
}
