//! The unified, serializable analysis report.
//!
//! One [`Report`] value backs every result surface: the CLI's text
//! output ([`Report::render_text`], which `SierraResult`'s `Display`
//! delegates to), the timing-free form the determinism tests compare
//! ([`Report::render_stable`]), and the JSON object the server streams
//! ([`Report::render_json`]). Rendering a report needs no `Program` or
//! `Analysis` — descriptions are resolved when the report is built — so
//! it can cross threads and sockets freely.

use crate::counters::COUNTER_GROUPS;
use crate::json::{num, obj, Json};
use crate::pipeline::{SierraResult, Stage, StageMetrics, StageSet};
use shbg::HbRule;
use std::time::Duration;

/// A fully-resolved analysis report: every number and description the
/// result surfaces print, independent of the analysis artifacts.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The analyzed app's name.
    pub app_name: String,
    /// Number of generated harnesses (activities).
    pub harness_count: usize,
    /// Number of actions (SHBG nodes).
    pub action_count: usize,
    /// Ordered pairs in the transitively-closed SHBG.
    pub hb_edges: usize,
    /// Theoretical maximum ordered pairs.
    pub hb_max: usize,
    /// Candidate racy pairs without action sensitivity; `None` when the
    /// opt-in comparison pass did not run.
    pub racy_pairs_without_as: Option<usize>,
    /// Candidate racy pairs with action sensitivity.
    pub racy_pairs_with_as: usize,
    /// Ranked race descriptions (one line per surviving race).
    pub race_lines: Vec<String>,
    /// Pruned pairs as `(pair description, verdict description)`.
    pub pruned_lines: Vec<(String, String)>,
    /// The stages that ran.
    pub stages: StageSet,
    /// Whether the soundness audit is part of the report surface (true
    /// under the `resolve`/`havoc` opaque policies; `ignore` keeps the
    /// pre-soundness-modes output byte-identical).
    pub soundness_audited: bool,
    /// Per-stage timings and counters.
    pub metrics: StageMetrics,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Report {
    /// Builds the report from a finished result, resolving every race
    /// and pruned-pair description against the result's program.
    pub fn from_result(result: &SierraResult) -> Report {
        let program = &result.harness.app.program;
        let actions = &result.analysis.actions;
        let compared = result.stages.contains(Stage::Compare);
        Report {
            app_name: result.app_name.clone(),
            harness_count: result.harness_count,
            action_count: result.action_count,
            hb_edges: result.hb_edges,
            hb_max: result.hb_max,
            racy_pairs_without_as: compared.then_some(result.racy_pairs_without_as),
            racy_pairs_with_as: result.racy_pairs_with_as,
            race_lines: result
                .races
                .iter()
                .map(|race| race.describe(program, actions))
                .collect(),
            pruned_lines: result
                .pruned
                .iter()
                .map(|p| {
                    (
                        crate::report::describe_pair(program, actions, &p.a, &p.b),
                        p.verdict.describe(program),
                    )
                })
                .collect(),
            stages: result.stages,
            soundness_audited: result.analysis.opaque_policy != pointer::OpaquePolicy::Ignore,
            metrics: result.metrics,
        }
    }

    /// Fraction of the theoretical maximum HB edges found.
    pub fn hb_percent(&self) -> f64 {
        if self.hb_max == 0 {
            0.0
        } else {
            100.0 * self.hb_edges as f64 / self.hb_max as f64
        }
    }

    /// The complete human-readable report (the CLI's `analyze` format).
    pub fn render_text(&self) -> String {
        self.render(true)
    }

    /// The report with every wall-clock-dependent part removed (no
    /// `stages:` line): byte-identical across runs of identical inputs,
    /// so cold-vs-warm and determinism tests compare this form.
    pub fn render_stable(&self) -> String {
        self.render(false)
    }

    fn render(&self, with_timings: bool) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}: {} harnesses, {} actions, {} HB edges ({:.1}% of max)",
            self.app_name,
            self.harness_count,
            self.action_count,
            self.hb_edges,
            self.hb_percent()
        );
        // The without-AS count and the comparison pass's time appear
        // only when the opt-in pass ran.
        let _ = write!(out, "racy pairs: {}", self.racy_pairs_with_as);
        if let Some(without_as) = self.racy_pairs_without_as {
            let _ = write!(out, " (without action-sensitivity: {without_as})");
        }
        let _ = writeln!(out, "; {} race(s) after refutation", self.race_lines.len());
        if with_timings {
            let listing = self.metrics.timings.listing(self.stages);
            let times: Vec<String> = listing
                .map(|(_, label, t)| format!("{label} {:.2} ms", ms(t)))
                .collect();
            let _ = writeln!(out, "stages: {}", times.join(", "));
        }
        let pa = &self.metrics.pointer;
        let _ = writeln!(
            out,
            "pointer: {} worklist iterations, {} propagations, {} CG edges, {} contexts, {} objects, {} pts-set bytes",
            pa.worklist_iterations,
            pa.propagations,
            pa.cg_edges,
            pa.reachable_contexts,
            pa.abstract_objects,
            pa.pts_set_bytes
        );
        let hb = &self.metrics.shbg;
        let _ = write!(out, "shbg: {} rule applications (", hb.total_applications());
        for (i, rule) in HbRule::ALL.iter().enumerate() {
            if i > 0 {
                let _ = write!(out, ", ");
            }
            let _ = write!(
                out,
                "{} {}",
                rule.short_name(),
                hb.applications[rule.index()]
            );
        }
        let _ = writeln!(
            out,
            "), {} fixpoint rounds, {} closure SCCs",
            hb.fixpoint_rounds, hb.closure_sccs
        );
        let pf = &self.metrics.prefilter;
        let _ = writeln!(
            out,
            "prefilter: {} of {} candidate pairs pruned (escape {}, guarded {}, constprop {})",
            pf.pruned_total(),
            self.racy_pairs_with_as,
            pf.pruned_escape,
            pf.pruned_guarded,
            pf.pruned_constprop,
        );
        let rf = &self.metrics.refuter;
        let _ = writeln!(
            out,
            "refuter: {} paths over {} queries ({} refuted, {} witnessed, {} budget-exhausted, {} cache hits)",
            rf.paths,
            rf.queries,
            rf.refuted,
            rf.witnessed,
            rf.budget_exhausted,
            rf.cache_hits
        );
        // Only emitted when the stage ran, so `--no-histories` output
        // stays byte-identical to the histories-free pipeline.
        if self.stages.contains(Stage::Histories) {
            let hs = &self.metrics.histories;
            let _ = writeln!(
                out,
                "histories: {} of {} pair(s) discharged (unregistered {}, destroy {}, pause {}), {} automaton states / {} edges over {} component(s), {} product edges, {} dead callback(s)",
                hs.discharged_total(),
                hs.pairs_checked,
                hs.discharged_unregistered,
                hs.discharged_destroy,
                hs.discharged_pause,
                hs.automaton_states,
                hs.automaton_edges,
                hs.components,
                hs.product_edges,
                hs.dead_callbacks,
            );
        }
        // Only emitted when the stage ran, so `--no-triage` output stays
        // byte-identical to the pre-triage pipeline.
        if self.stages.contains(Stage::Triage) {
            let tg = &self.metrics.triage;
            let _ = writeln!(
                out,
                "triage: {} race(s) classified ({} null-deref, {} use-before-init, {} value-inconsistency, {} likely-benign), {} dataflow iterations over {} method(s)",
                tg.classified,
                tg.null_deref,
                tg.use_before_init,
                tg.value_inconsistency,
                tg.likely_benign,
                tg.dataflow_iterations,
                tg.methods_analyzed,
            );
        }
        // Only emitted under `resolve`/`havoc`, so `--opaque-policy
        // ignore` output stays byte-identical to the pre-soundness-modes
        // pipeline.
        if self.soundness_audited {
            let sn = &self.metrics.soundness;
            let _ = writeln!(
                out,
                "soundness: {:.1}% callback recall ({} of {} reachable), {} unresolved site(s) (reflective {}, intent {}, bodyless-framework {}, no-receiver-targets {})",
                sn.recall_pct(),
                sn.reachable_callbacks,
                sn.known_callbacks,
                sn.unresolved_sites,
                sn.reflective_sites,
                sn.intent_sites,
                sn.bodyless_framework_sites,
                sn.no_receiver_sites,
            );
        }
        for (i, line) in self.race_lines.iter().enumerate() {
            let _ = writeln!(out, "{:>3}. {}", i + 1, line);
        }
        for (pair, reason) in &self.pruned_lines {
            let _ = writeln!(out, "  – pruned: {pair} [{reason}]");
        }
        out
    }

    /// The report as a structured JSON object (the serve protocol's
    /// `report` payload; also the bench/tables serialization base).
    ///
    /// Two groups describe the *run* rather than the result and so
    /// legitimately differ between a cold and a warm analysis:
    /// `timings_ms` (wall clock) and `link` (store-reuse telemetry).
    /// Clients comparing reports for identity should drop both.
    pub fn render_json(&self) -> Json {
        let mut fields = vec![
            ("app".to_owned(), Json::Str(self.app_name.clone())),
            ("harnesses".to_owned(), num(self.harness_count)),
            ("actions".to_owned(), num(self.action_count)),
            ("hb_edges".to_owned(), num(self.hb_edges)),
            ("hb_max".to_owned(), num(self.hb_max)),
            ("hb_percent".to_owned(), Json::Num(self.hb_percent())),
            (
                "racy_pairs_with_as".to_owned(),
                num(self.racy_pairs_with_as),
            ),
        ];
        if let Some(without_as) = self.racy_pairs_without_as {
            fields.push(("racy_pairs_without_as".to_owned(), num(without_as)));
        }
        let ran = |stage| Json::Bool(self.stages.contains(stage));
        fields.extend([
            (
                "races".to_owned(),
                Json::Arr(self.race_lines.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "pruned".to_owned(),
                Json::Arr(
                    self.pruned_lines
                        .iter()
                        .map(|(pair, reason)| {
                            obj(vec![
                                ("pair", Json::Str(pair.clone())),
                                ("reason", Json::Str(reason.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("triage_ran".to_owned(), ran(Stage::Triage)),
            ("histories_ran".to_owned(), ran(Stage::Histories)),
        ]);
        fields.reserve_exact(COUNTER_GROUPS.len() + 1);
        for group in COUNTER_GROUPS.iter().filter(|g| !g.audited_only) {
            fields.push((group.name.to_owned(), group.to_json(&self.metrics)));
        }
        let listing = self.metrics.timings.listing(self.stages);
        let timings = listing.map(|(name, _, t)| (name, Json::Num(ms(t))));
        fields.push(("timings_ms".to_owned(), Json::Obj(timings.collect())));
        // The audit's groups appear only under `resolve`/`havoc`.
        if self.soundness_audited {
            for group in COUNTER_GROUPS.iter().filter(|g| g.audited_only) {
                fields.push((group.name.to_owned(), group.to_json(&self.metrics)));
            }
        }
        Json::Obj(fields)
    }
}
