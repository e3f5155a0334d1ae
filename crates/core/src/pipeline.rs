//! The end-to-end SIERRA pipeline (Figure 3).
//!
//! `app → harness generation → pointer analysis (action-sensitive) →
//! SHBG → racy pairs → prefilter → symbolic refutation → message
//! histories → harm triage → prioritized race reports`. Table 3's count
//! without action sensitivity (column 6) is an evaluation, not a stage:
//! `sierra-cli table3` reads it from a second session under the hybrid
//! selector over the same harness.
//!
//! The pipeline is staged: [`crate::AnalysisSession`] runs the stages
//! (`harness → pointer → shbg → candidates → prefilter → refute →
//! histories → triage`, the [`Stage`] order) through one
//! driver, so callers can stop early, share a generated harness across
//! passes, or collect per-stage [`StageMetrics`]. A [`StageSet`] in the
//! config says which stages run. [`Sierra::analyze_app`] remains the
//! one-shot entry point and is a thin wrapper over a session.

use crate::link::LinkStats;
use crate::report::RaceReport;
use crate::session::AnalysisSession;
use android_model::AndroidApp;
use harness_gen::HarnessResult;
use histories::HistoryStats;
use pointer::{Analysis, OpaquePolicy, SelectorKind, SolverStats};
use prefilter::{PrefilterStats, PrunedPair};
use shbg::{Shbg, ShbgStats};
use soundness::SoundnessStats;
use std::sync::Arc;
use std::time::Duration;
use symexec::RefuterStats;

/// A pipeline stage. The variants are in driver order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Harness generation (§3.2).
    Harness,
    /// Summary linking, call graph + pointer analysis (§3.3), and the
    /// call-graph soundness audit.
    Pointer,
    /// SHBG construction (§4).
    Shbg,
    /// Candidate racy-pair generation (§4.1).
    Candidates,
    /// Pre-refutation static pruning.
    Prefilter,
    /// Symbolic refutation (§5) and prioritization (§3.1).
    Refute,
    /// Message-history refutation.
    Histories,
    /// Harm triage.
    Triage,
}

impl Stage {
    /// Every stage, in driver order.
    pub const ALL: [Stage; 8] = [
        Stage::Harness,
        Stage::Pointer,
        Stage::Shbg,
        Stage::Candidates,
        Stage::Prefilter,
        Stage::Refute,
        Stage::Histories,
        Stage::Triage,
    ];

    const fn bit(self) -> u16 {
        1 << self as u16
    }

    /// The stage's human label, the text `stages:` line's and the
    /// tables' (`CG+PA` and `HBG` are the paper's Table 4 names).
    pub fn label(self) -> &'static str {
        match self {
            Stage::Harness => "Harness",
            Stage::Pointer => "CG+PA",
            Stage::Shbg => "HBG",
            Stage::Candidates => "Candidates",
            Stage::Prefilter => "Prefilter",
            Stage::Refute => "Refute",
            Stage::Histories => "Histories",
            Stage::Triage => "Triage",
        }
    }
}

/// The machine name, the lowercase variant name (`harness`, …): serve's
/// `stage` events and the report's `timings_ms` keys use it.
impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&format!("{self:?}").to_ascii_lowercase())
    }
}

/// The stages a session runs (a config's default: [`StageSet::ALL`]; the
/// `Default` set is empty). An ablation is a stage removed with
/// [`StageSet::without`]; the driver then stores that stage's identity
/// output instead of running it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageSet(u16);

impl StageSet {
    /// Every stage.
    pub const ALL: StageSet = StageSet((Stage::Triage.bit() << 1) - 1);

    /// The stages every later stage consumes; they cannot be removed.
    const CORE: u16 =
        Stage::Harness.bit() | Stage::Pointer.bit() | Stage::Shbg.bit() | Stage::Candidates.bit();

    /// Whether `stage` runs.
    pub fn contains(self, stage: Stage) -> bool {
        self.0 & stage.bit() != 0
    }

    /// The set without `stage`. The one dependency rule: removing
    /// `Refute` also removes `Prefilter` and `Histories`, since an
    /// unrefuted run reports raw candidate pairs. The core stages
    /// (`Harness`, `Pointer`, `Shbg`, `Candidates`) stay in the set.
    pub fn without(self, stage: Stage) -> StageSet {
        let mut dropped = stage.bit();
        if stage == Stage::Refute {
            dropped |= Stage::Prefilter.bit() | Stage::Histories.bit();
        }
        StageSet((self.0 & !dropped) | Self::CORE)
    }

    /// The stages in the set, in driver order.
    pub(crate) fn iter(self) -> impl Iterator<Item = Stage> {
        Stage::ALL.into_iter().filter(move |&s| self.contains(s))
    }
}

/// Pipeline configuration. Construct with [`SierraConfig::builder`].
#[derive(Debug, Clone, Copy)]
pub struct SierraConfig {
    /// Context-sensitivity for the main run (default: action-sensitive).
    pub selector: SelectorKind,
    /// The refuter's path budget: forked paths per query direction
    /// (default: the paper's 5,000).
    pub refuter_budget: usize,
    /// The stages that run (default: [`StageSet::ALL`]). A removed
    /// stage's output is byte-identical to a pipeline that never had it.
    pub stages: StageSet,
    /// Soundness policy for opaque calls (reflection and intent
    /// dispatch).
    pub opaque_policy: OpaquePolicy,
    /// Drop reports classified below this harm level (`--min-harm`).
    /// `None` keeps everything. Ignored without the `Triage` stage,
    /// which is what classifies.
    pub min_harm: Option<triage::Harm>,
}

impl Default for SierraConfig {
    fn default() -> Self {
        Self {
            selector: SelectorKind::ActionSensitive(1),
            refuter_budget: 5_000,
            stages: StageSet::ALL,
            opaque_policy: OpaquePolicy::default(),
            min_harm: None,
        }
    }
}

impl SierraConfig {
    /// Starts a builder from the default configuration.
    pub fn builder() -> SierraConfigBuilder {
        SierraConfigBuilder::default()
    }
}

/// Fluent builder for [`SierraConfig`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SierraConfigBuilder {
    cfg: SierraConfig,
}

impl SierraConfigBuilder {
    /// Sets the context selector for the main pass.
    pub fn selector(mut self, selector: SelectorKind) -> Self {
        self.cfg.selector = selector;
        self
    }

    /// Sets the refuter path budget.
    pub fn refuter_budget(mut self, max_paths: usize) -> Self {
        self.cfg.refuter_budget = max_paths;
        self
    }

    /// Removes `stage` from the run (see [`StageSet::without`]).
    pub fn without(mut self, stage: Stage) -> Self {
        self.cfg.stages = self.cfg.stages.without(stage);
        self
    }

    /// Sets the opaque-call soundness policy (reflection and intent
    /// dispatch): `ignore` (default), `resolve`, or `havoc`.
    pub fn opaque_policy(mut self, policy: OpaquePolicy) -> Self {
        self.cfg.opaque_policy = policy;
        self
    }

    /// Drops reports triaged below `level` (no-op without `Triage`).
    pub fn min_harm(mut self, level: triage::Harm) -> Self {
        self.cfg.min_harm = Some(level);
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> SierraConfig {
        self.cfg
    }
}

/// Wall-clock time of each pipeline stage (Table 4). A stage that did
/// not run records zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Each stage's time, indexed in [`Stage::ALL`] order.
    stages: [Duration; Stage::ALL.len()],
    /// End-to-end, from session start: the stages plus
    /// [`Self::unattributed`].
    pub total: Duration,
}

impl StageTimings {
    /// The time recorded for `stage`.
    pub fn of(&self, stage: Stage) -> Duration {
        self.stages[stage as usize]
    }

    /// Adds `time` to `stage`.
    pub(crate) fn add(&mut self, stage: Stage, time: Duration) {
        self.stages[stage as usize] += time;
    }

    /// The part of [`Self::total`] no stage accounts for: session setup
    /// and the driver's own work between stages.
    pub fn unattributed(&self) -> Duration {
        self.total.saturating_sub(self.stages.iter().sum())
    }

    /// The listing every timing surface renders, as `(name, label,
    /// time)`: each stage of `stages` in driver order (its `Display`
    /// name and [`Stage::label`]), then `unattributed`, then `total`.
    pub fn listing(
        self,
        stages: StageSet,
    ) -> impl Iterator<Item = (String, &'static str, Duration)> {
        let ran = stages
            .iter()
            .map(move |s| (s.to_string(), s.label(), self.of(s)));
        ran.chain([
            (
                "unattributed".to_owned(),
                "Unattributed",
                self.unattributed(),
            ),
            ("total".to_owned(), "Total", self.total),
        ])
    }
}

/// Per-stage wall-clock timings plus the work counters each stage
/// recorded: points-to worklist iterations and call-graph size from the
/// solver, HB-rule application counts from SHBG construction, and path
/// budgets from the refuter.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageMetrics {
    /// Wall-clock stage timings.
    pub timings: StageTimings,
    /// Pointer-analysis counters.
    pub pointer: SolverStats,
    /// SHBG rule-application counters.
    pub shbg: ShbgStats,
    /// Pre-refutation pruning counters.
    pub prefilter: PrefilterStats,
    /// Refutation counters.
    pub refuter: RefuterStats,
    /// Message-history refutation counters (all zero without the
    /// `Histories` stage).
    pub histories: HistoryStats,
    /// Harm-triage counters (all zero without the `Triage` stage).
    pub triage: triage::TriageStats,
    /// Call-graph soundness audit: unresolved-site classification and
    /// reachable-callback recall (computed after the pointer stage
    /// regardless of policy; only *rendered* under `resolve`/`havoc`).
    pub soundness: SoundnessStats,
    /// Reuse counters of the pointer stage: whether the whole points-to
    /// `Analysis` artifact was reused, and how many summaries of the
    /// methods it reached were served from the store vs. recomputed.
    /// Never affects results — reuse changes work done, not answers — so
    /// it is excluded from the stable report rendering.
    pub link: LinkStats,
}

/// The result of analyzing one app.
#[derive(Debug)]
pub struct SierraResult {
    /// The analyzed app's name.
    pub app_name: String,
    /// Number of generated harnesses (activities).
    pub harness_count: usize,
    /// Number of actions (SHBG nodes).
    pub action_count: usize,
    /// Ordered pairs in the transitively-closed SHBG ("HB edges").
    pub hb_edges: usize,
    /// Theoretical maximum ordered pairs: `n·(n−1)/2` over all `n` of the
    /// app's actions, cross-harness pairs included.
    pub hb_max: usize,
    /// Always 0: no stage counts racy pairs without action sensitivity.
    /// Kept for callers that still read it; Table 3's count comes from a
    /// second session under the hybrid selector (`sierra-cli table3`).
    pub racy_pairs_without_as: usize,
    /// Candidate racy pairs with action sensitivity.
    pub racy_pairs_with_as: usize,
    /// Races surviving refutation, ranked by priority. When the triage
    /// stage ran, each carries a [`triage::TriageVerdict`] and reports
    /// below `min_harm` have been dropped.
    pub races: Vec<RaceReport>,
    /// The stages that ran.
    pub stages: StageSet,
    /// Candidate pairs the prefilter and the histories stage removed,
    /// each with its machine-checkable reason (prefilter pairs first,
    /// each stage's in candidate order).
    pub pruned: Vec<PrunedPair>,
    /// Per-stage timings and counters.
    pub metrics: StageMetrics,
    /// The main (action-sensitive) analysis, for downstream inspection.
    /// Shared: the session's summary store may also hold a reference for
    /// warm re-analysis.
    pub analysis: Arc<Analysis>,
    /// The SHBG.
    pub shbg: Shbg,
    /// The harnessed app (shareable with further sessions through
    /// [`crate::SessionBuilder::harness`]).
    pub harness: Arc<HarnessResult>,
}

impl SierraResult {
    /// Fraction of the theoretical maximum HB edges found (Table 3 col 5).
    pub fn hb_percent(&self) -> f64 {
        if self.hb_max == 0 {
            0.0
        } else {
            100.0 * self.hb_edges as f64 / self.hb_max as f64
        }
    }

    /// The SHBG in Graphviz DOT format with readable action labels.
    pub fn shbg_dot(&self) -> String {
        self.shbg
            .to_dot(|a| crate::report::describe_action(&self.analysis.actions, a))
    }
}

impl std::fmt::Display for SierraResult {
    /// The complete human-readable report: summary line, stage timings,
    /// per-stage counters, and the ranked race list (the CLI's `analyze`
    /// output format). Delegates to [`crate::Report::render_text`] so
    /// every result surface shares one renderer.
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        out.write_str(&crate::render::Report::from_result(self).render_text())
    }
}

/// The SIERRA detector.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sierra {
    /// Pipeline configuration.
    pub config: SierraConfig,
}

impl Sierra {
    /// Creates a detector with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a detector with the given configuration.
    pub fn with_config(config: SierraConfig) -> Self {
        Self { config }
    }

    /// Starts a staged session on an app (run stages individually).
    pub fn session(&self, app: AndroidApp) -> AnalysisSession {
        AnalysisSession::new(self.config, app)
    }

    /// Runs the full pipeline on an app. Panics on an internal stage
    /// failure (an app input never yields `InvalidApp`/`MissingInput`);
    /// use [`crate::SessionBuilder`] + `finish()` for typed errors.
    pub fn analyze_app(&self, app: AndroidApp) -> SierraResult {
        AnalysisSession::new(self.config, app)
            .finish()
            .unwrap_or_else(|e| panic!("{e}"))
    }
}
