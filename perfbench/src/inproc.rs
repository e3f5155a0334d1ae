//! In-process runs of one analysis: the default `analyze` path and
//! serve's call sequence (both untraced), and the stage-by-stage traced
//! path that wraps every stage call in a span.

use crate::trace::Recorder;
use sierra_core::{AnalysisSession, Report, SessionError, SierraResult};

/// The report as `analyze` and serve produce it: built from the result
/// and rendered to JSON text.
fn render(result: &SierraResult) -> String {
    Report::from_result(result).render_json().render()
}

/// The default `analyze` path: `finish()` forces every stage (running
/// the comparison pass beside refutation), then the report is rendered.
pub fn analyze(session: AnalysisSession) -> Result<(SierraResult, String), SessionError> {
    let result = session.finish()?;
    let report = render(&result);
    Ok((result, report))
}

/// Serve's call sequence: each stage getter in order, then `finish()`
/// (which now runs only the comparison pass), then the report.
pub fn serve_sequence(
    mut session: AnalysisSession,
) -> Result<(SierraResult, String), SessionError> {
    session.harness()?;
    session.pointer()?;
    session.shbg()?;
    session.candidates()?;
    session.prefilter()?;
    session.refute()?;
    analyze(session)
}

fn count(n: usize) -> f64 {
    n as f64
}

/// Drives `session` stage by stage, each call in a span under `root`
/// carrying the counters the stage recorded. `finish()` runs last, once
/// every other stage is forced, so its span is the comparison pass.
pub fn traced(
    rec: &mut Recorder,
    op: usize,
    root: usize,
    mut session: AnalysisSession,
) -> Result<(SierraResult, String), SessionError> {
    let (id, actions) = rec.span("harness", op, root, || {
        session
            .harness()
            .map(|h| h.activities.iter().map(|a| a.sites.len()).sum::<usize>())
    });
    rec.counters(id, vec![("actions", count(actions?))]);

    let (id, done) = rec.span("pointer", op, root, || session.pointer().map(|_| ()));
    done?;
    let m = session.metrics();
    rec.counters(
        id,
        vec![
            ("iterations", count(m.link.pointer_iterations_run)),
            ("propagations", count(m.pointer.propagations)),
            ("cg_edges", count(m.pointer.cg_edges)),
            ("summaries_reused", count(m.link.summaries_reused)),
            ("summaries_shared", count(m.link.summaries_shared)),
            ("summaries_recomputed", count(m.link.summaries_recomputed)),
            (
                "analysis_reused",
                count(usize::from(m.link.analysis_reused)),
            ),
        ],
    );

    let (id, done) = rec.span("shbg", op, root, || session.shbg().map(|_| ()));
    done?;
    let m = session.metrics();
    rec.counters(
        id,
        vec![
            ("rule_applications", count(m.shbg.total_applications())),
            ("closure_sccs", count(m.shbg.closure_sccs)),
        ],
    );

    let (id, pairs) = rec.span("candidates", op, root, || {
        session.candidates().map(|c| c.len())
    });
    rec.counters(id, vec![("pairs", count(pairs?))]);

    let (id, sizes) = rec.span("prefilter", op, root, || {
        session.prefilter().map(|p| (p.kept.len(), p.pruned.len()))
    });
    let (kept, pruned) = sizes?;
    rec.counters(
        id,
        vec![
            ("candidates", count(kept + pruned)),
            ("pruned", count(pruned)),
        ],
    );

    let (id, done) = rec.span("refute", op, root, || session.refute().map(|_| ()));
    done?;
    let r = session.metrics().refuter;
    rec.counters(
        id,
        vec![
            ("queries", count(r.queries)),
            ("refuted", count(r.refuted)),
            ("paths", count(r.paths)),
            ("cache_hits", count(r.cache_hits)),
        ],
    );

    let (id, done) = rec.span("histories", op, root, || session.histories().map(|_| ()));
    done?;
    let checked = session.metrics().histories.pairs_checked;
    rec.counters(id, vec![("pairs_checked", count(checked))]);

    let (id, done) = rec.span("triage", op, root, || session.triage().map(|_| ()));
    done?;
    let iterations = session.metrics().triage.dataflow_iterations;
    rec.counters(id, vec![("dataflow_iterations", count(iterations))]);

    let (id, result) = rec.span("compare", op, root, || session.finish());
    let result = result?;
    rec.counters(id, vec![("pairs", count(result.racy_pairs_without_as))]);

    let (id, report) = rec.span("render", op, root, || render(&result));
    rec.counters(id, vec![("bytes", count(report.len()))]);
    Ok((result, report))
}
