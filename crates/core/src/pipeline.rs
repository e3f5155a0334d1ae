//! The end-to-end SIERRA pipeline (Figure 3).
//!
//! `app → harness generation → pointer analysis (action-sensitive) →
//! SHBG → racy pairs → symbolic refutation → prioritized race reports`.
//!
//! The pipeline is staged: [`crate::AnalysisSession`] exposes each stage
//! (`harness → pointer → shbg → candidates → refute`) so drivers can stop
//! early, share a generated harness across passes, or collect per-stage
//! [`StageMetrics`]. [`Sierra::analyze_app`] remains the one-shot
//! entry point and is a thin wrapper over a session.

use crate::link::LinkStats;
use crate::report::RaceReport;
use crate::session::{AnalysisSession, Stage};
use android_model::AndroidApp;
use harness_gen::HarnessResult;
use histories::HistoryStats;
use pointer::{Analysis, AnalysisOptions, OpaquePolicy, SelectorKind, SolverStats};
use prefilter::{PrefilterStats, PrunedPair};
use shbg::{Shbg, ShbgStats};
use soundness::SoundnessStats;
use std::sync::Arc;
use std::time::Duration;
use symexec::{RefuterConfig, RefuterStats};

/// Pipeline configuration. Construct with [`SierraConfig::builder`].
#[derive(Debug, Clone, Copy)]
pub struct SierraConfig {
    /// Context-sensitivity for the main run (default: action-sensitive).
    pub selector: SelectorKind,
    /// Refutation knobs.
    pub refuter: RefuterConfig,
    /// Also run a non-action-sensitive pass to report "racy pairs w/o AS"
    /// (Table 3, column 6). The comparison selector is hybrid with the
    /// same k.
    pub compare_without_as: bool,
    /// Skip the refutation stage (reports every racy pair; used by
    /// ablations). Implies `no_prefilter`: ablations count raw
    /// candidates.
    pub skip_refutation: bool,
    /// Disable the pre-refutation static pruning stage (escape, guard,
    /// and constant-branch analyses), restoring the old
    /// `candidates → refute` pipeline for A/B measurement.
    pub no_prefilter: bool,
    /// Pointer-analysis options for the main pass (cycle collapse,
    /// opaque-call policy, index sensitivity). The comparison pass inherits
    /// them, so an ablation flips both runs together.
    pub pointer_options: AnalysisOptions,
    /// Disable the post-refutation harm-triage stage (the `--no-triage`
    /// ablation). Race reports then carry no harm annotation and every
    /// output is byte-identical to the pre-triage pipeline.
    pub no_triage: bool,
    /// Disable the message-history refutation stage (the
    /// `--no-histories` ablation), restoring the `refute → triage`
    /// pipeline byte-identically. The stage is also skipped under
    /// `skip_refutation`, whose ablations count raw pairs.
    pub no_histories: bool,
    /// Drop reports classified below this harm level (`--min-harm`).
    /// `None` keeps everything. Ignored under `no_triage`, which never
    /// classifies.
    pub min_harm: Option<triage::Harm>,
    /// Disable persisting/loading serialized `Analysis` artifact blobs
    /// (the `--no-artifact-cache` ablation). In-memory artifact reuse
    /// and summary files are unaffected. Cache plumbing never enters
    /// the config fingerprint, so flipping this cannot change keys.
    pub no_artifact_cache: bool,
}

impl Default for SierraConfig {
    fn default() -> Self {
        Self {
            selector: SelectorKind::ActionSensitive(1),
            refuter: RefuterConfig::default(),
            compare_without_as: true,
            skip_refutation: false,
            no_prefilter: false,
            pointer_options: AnalysisOptions::default(),
            no_triage: false,
            no_histories: false,
            min_harm: None,
            no_artifact_cache: false,
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

    /// Sets the refuter configuration.
    pub fn refuter(mut self, refuter: RefuterConfig) -> Self {
        self.cfg.refuter = refuter;
        self
    }

    /// Sets the refuter path budget, keeping the other refuter knobs.
    pub fn refuter_budget(mut self, max_paths: usize) -> Self {
        self.cfg.refuter.max_paths = max_paths;
        self
    }

    /// Enables or disables the comparison pass without action sensitivity.
    pub fn compare_without_as(mut self, yes: bool) -> Self {
        self.cfg.compare_without_as = yes;
        self
    }

    /// Disables the refutation stage.
    pub fn skip_refutation(mut self) -> Self {
        self.cfg.skip_refutation = true;
        self
    }

    /// Enables or disables the pre-refutation static pruning stage.
    pub fn no_prefilter(mut self, yes: bool) -> Self {
        self.cfg.no_prefilter = yes;
        self
    }

    /// Replaces the pointer-analysis options wholesale.
    pub fn pointer_options(mut self, options: AnalysisOptions) -> Self {
        self.cfg.pointer_options = options;
        self
    }

    /// Disables (or re-enables) online cycle collapse in the solver
    /// (the `--no-cycle-collapse` ablation).
    pub fn no_cycle_collapse(mut self, yes: bool) -> Self {
        self.cfg.pointer_options.cycle_collapse = !yes;
        self
    }

    /// Sets the opaque-call soundness policy (reflection and intent
    /// dispatch): `ignore` (default), `resolve`, or `havoc`.
    pub fn opaque_policy(mut self, policy: OpaquePolicy) -> Self {
        self.cfg.pointer_options.opaque_policy = policy;
        self
    }

    /// Disables (or re-enables) the post-refutation harm-triage stage.
    pub fn no_triage(mut self, yes: bool) -> Self {
        self.cfg.no_triage = yes;
        self
    }

    /// Disables (or re-enables) the message-history refutation stage.
    pub fn no_histories(mut self, yes: bool) -> Self {
        self.cfg.no_histories = yes;
        self
    }

    /// Drops reports triaged below `level` (no-op under `no_triage`).
    pub fn min_harm(mut self, level: triage::Harm) -> Self {
        self.cfg.min_harm = Some(level);
        self
    }

    /// Disables (or re-enables) durable `Analysis` artifact blobs (the
    /// `--no-artifact-cache` ablation).
    pub fn no_artifact_cache(mut self, yes: bool) -> Self {
        self.cfg.no_artifact_cache = yes;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> SierraConfig {
        self.cfg
    }
}

/// Wall-clock time of each pipeline stage (Table 4).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Harness generation.
    pub harness: Duration,
    /// Call-graph + pointer analysis ("CG+PA").
    pub cg_pa: Duration,
    /// SHBG construction ("HBG").
    pub hbg: Duration,
    /// Pre-refutation static pruning.
    pub prefilter: Duration,
    /// Symbolic-execution refutation.
    pub refutation: Duration,
    /// Message-history refutation (automaton build + product checks).
    pub histories: Duration,
    /// Post-refutation harm triage.
    pub triage: Duration,
    /// The comparison pass (`racy pairs w/o AS`).
    pub compare: Duration,
    /// End-to-end.
    pub total: Duration,
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
    /// Message-history refutation counters (all zero under
    /// `no_histories` or `skip_refutation`).
    pub histories: HistoryStats,
    /// Harm-triage counters (all zero under `no_triage`).
    pub triage: triage::TriageStats,
    /// Call-graph soundness audit: unresolved-site classification and
    /// reachable-callback recall (computed after the pointer stage
    /// regardless of policy; only *rendered* under `resolve`/`havoc`).
    pub soundness: SoundnessStats,
    /// Summary-store counters from the linking pass: how many per-method
    /// summaries were served from the store vs. recomputed, and whether
    /// the whole points-to `Analysis` artifact was reused. Never affects
    /// results — reuse changes work done, not answers — so it is excluded
    /// from the stable report rendering.
    pub link: LinkStats,
    /// The last pipeline stage that ran (for progress reporting and
    /// typed errors; `None` before the first stage).
    pub last_stage: Option<Stage>,
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
    /// Theoretical maximum ordered pairs (per-harness `n·(n−1)/2` summed).
    pub hb_max: usize,
    /// Candidate racy pairs without action sensitivity (0 when the
    /// comparison pass is disabled).
    pub racy_pairs_without_as: usize,
    /// Candidate racy pairs with action sensitivity.
    pub racy_pairs_with_as: usize,
    /// Races surviving refutation, ranked by priority. When the triage
    /// stage ran, each carries a [`triage::TriageVerdict`] and reports
    /// below `min_harm` have been dropped.
    pub races: Vec<RaceReport>,
    /// Whether the harm-triage stage ran (false under `no_triage`).
    pub triage_ran: bool,
    /// Whether the message-history stage ran (false under
    /// `no_histories` or `skip_refutation`).
    pub histories_ran: bool,
    /// Candidate pairs the prefilter removed before refutation, each
    /// with its machine-checkable reason (empty under `no_prefilter`).
    pub pruned: Vec<PrunedPair>,
    /// Per-stage timings and counters.
    pub metrics: StageMetrics,
    /// The main (action-sensitive) analysis, for downstream inspection.
    /// Shared: the session's summary store may also hold a reference for
    /// warm re-analysis.
    pub analysis: Arc<Analysis>,
    /// The SHBG.
    pub shbg: Shbg,
    /// The harnessed app (shared with any comparison pass).
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
