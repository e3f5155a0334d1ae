//! The correctness oracle: every op's reported races are scored against
//! the planted ground truth, which the corpus generator records without
//! consulting the analyzer, and every repeat's stable report is compared
//! with the first report of the same app.

use corpus::GroundTruth;
use sierra_core::{Json, SierraResult};

/// Why an op counts as failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The analyzer returned an error (or an `error` event).
    Error(String),
    /// Planted true races that went unreported.
    Missed(usize),
    /// Reported `(class, field)` groups the ground truth never planted.
    Unplanted(usize),
    /// A repeat's stable report differs from the app's first report.
    ReportChanged,
    /// A report could not be read back from the serve protocol.
    Malformed(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Error(e) => write!(f, "error: {e}"),
            Failure::Missed(n) => write!(f, "{n} planted race(s) missed"),
            Failure::Unplanted(n) => write!(f, "{n} unplanted race group(s) reported"),
            Failure::ReportChanged => f.write_str("stable report differs from the first report"),
            Failure::Malformed(e) => write!(f, "malformed report: {e}"),
        }
    }
}

/// Scores reported `(class, field)` race groups: an op passes only when
/// it reports every planted true race and nothing unplanted.
pub fn score<'a>(
    truth: &GroundTruth,
    groups: impl IntoIterator<Item = (&'a str, &'a str)>,
) -> Result<(), Failure> {
    let eval = truth.evaluate(groups);
    if eval.missed > 0 {
        Err(Failure::Missed(eval.missed))
    } else if eval.unplanted > 0 {
        Err(Failure::Unplanted(eval.unplanted))
    } else {
        Ok(())
    }
}

/// Scores an in-process result by its races' `(class, field)` groups.
pub fn score_result(truth: &GroundTruth, result: &SierraResult) -> Result<(), Failure> {
    let program = &result.harness.app.program;
    let groups: Vec<(&str, &str)> = result
        .races
        .iter()
        .map(|race| {
            let field = program.field(race.field);
            (program.class_name(field.class), program.name(field.name))
        })
        .collect();
    score(truth, groups)
}

/// The `(class, field)` group of one rendered race line
/// (`race on <class>.<field> between ...`).
pub fn line_group(line: &str) -> Option<(&str, &str)> {
    let location = line.strip_prefix("race on ")?.split(" between ").next()?;
    location.rsplit_once('.')
}

/// Scores a rendered report (the serve protocol's `report` payload)
/// against the ground truth by its race lines.
pub fn score_report(truth: &GroundTruth, report: &Json) -> Result<(), Failure> {
    let lines = report
        .get("races")
        .and_then(Json::as_arr)
        .ok_or_else(|| Failure::Malformed("no races array".to_owned()))?;
    let mut groups = Vec::with_capacity(lines.len());
    for line in lines {
        let text = line
            .as_str()
            .ok_or_else(|| Failure::Malformed("race line is not a string".to_owned()))?;
        groups.push(
            line_group(text)
                .ok_or_else(|| Failure::Malformed(format!("unreadable race line {text:?}")))?,
        );
    }
    score(truth, groups)
}

/// The stable form of a rendered report: the text without the two
/// groups that describe the run rather than the result (`link` and
/// `timings_ms`), so a cold and a warm analysis of one app agree. It
/// works on the text as serve sends it, without parsing: both groups
/// hold only numbers and booleans, so each ends at its first `}`, and
/// an unescaped quote cannot occur inside a JSON string, so the key
/// match is structural.
pub fn stable_text(report: &str) -> Option<String> {
    let mut text = report.to_owned();
    for key in [",\"link\":{", ",\"timings_ms\":{"] {
        let start = text.find(key)?;
        let end = start + text[start..].find('}')? + 1;
        text.replace_range(start..end, "");
    }
    Some(text)
}

/// Compares a repeat's stable report with the app's first one.
pub fn same_report(first: &str, repeat: &str) -> Result<(), Failure> {
    if first == repeat {
        Ok(())
    } else {
        Err(Failure::ReportChanged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sierra_core::{Report, SessionBuilder, SierraConfig};

    fn analyzed() -> (GroundTruth, Json) {
        let spec = corpus::TWENTY
            .iter()
            .find(|s| s.name == "TippyTipper")
            .expect("corpus app");
        let (app, truth) = corpus::twenty::build_app(*spec);
        let result = SessionBuilder::new(SierraConfig::default())
            .app(app)
            .build()
            .and_then(|s| s.finish())
            .expect("analysis runs");
        (truth, Report::from_result(&result).render_json())
    }

    fn with_races(report: &Json, races: Vec<Json>) -> Json {
        let mut edited = report.clone();
        if let Json::Obj(members) = &mut edited {
            for (key, value) in members.iter_mut() {
                if key == "races" {
                    *value = Json::Arr(races.clone());
                }
            }
        }
        edited
    }

    fn races(report: &Json) -> Vec<Json> {
        report
            .get("races")
            .and_then(Json::as_arr)
            .expect("races array")
            .to_vec()
    }

    #[test]
    fn the_unedited_report_passes() {
        let (truth, report) = analyzed();
        assert!(truth.expected_reports() > 0, "the app plants races");
        assert_eq!(score_report(&truth, &report), Ok(()));
    }

    #[test]
    fn a_dropped_report_counts_as_failed() {
        let (truth, report) = analyzed();
        let victim = truth
            .planted
            .iter()
            .find(|p| p.label.is_true_race())
            .expect("a planted true race");
        let mut kept = races(&report);
        kept.retain(|line| {
            line_group(line.as_str().expect("line")) != Some((&victim.class, &victim.field))
        });
        let dropped = with_races(&report, kept);
        assert_eq!(score_report(&truth, &dropped), Err(Failure::Missed(1)));
    }

    #[test]
    fn an_extra_report_counts_as_failed() {
        let (truth, report) = analyzed();
        let mut extra = races(&report);
        extra.push(Json::Str(
            "race on com.example.Nowhere.ghost between 1:onClick (write) and 2:post (read)"
                .to_owned(),
        ));
        let extra = with_races(&report, extra);
        assert_eq!(score_report(&truth, &extra), Err(Failure::Unplanted(1)));
    }

    #[test]
    fn a_changed_repeat_counts_as_failed() {
        let (_, report) = analyzed();
        let first = stable_text(&report.render()).expect("stable form");
        let mut changed = report.clone();
        if let Json::Obj(members) = &mut changed {
            members.push(("extra".to_owned(), Json::Bool(true)));
        }
        let repeat = stable_text(&changed.render()).expect("stable form");
        assert_eq!(same_report(&first, &first), Ok(()));
        assert_eq!(same_report(&first, &repeat), Err(Failure::ReportChanged));
    }

    #[test]
    fn the_stable_form_drops_exactly_the_run_groups() {
        let (_, report) = analyzed();
        let mut expected = report.clone();
        if let Json::Obj(members) = &mut expected {
            members.retain(|(key, _)| key != "timings_ms" && key != "link");
        }
        assert_eq!(stable_text(&report.render()), Some(expected.render()));
    }

    #[test]
    fn race_lines_split_at_the_last_dot_of_the_location() {
        assert_eq!(
            line_group("race on com.a.Main.count between 3:onClick (write) and 4:post (read)"),
            Some(("com.a.Main", "count"))
        );
        assert_eq!(line_group("pair on A.b between"), None);
    }
}
