//! The staged analysis session over a content-addressed summary store.
//!
//! [`AnalysisSession`] splits the pipeline into explicitly-driven
//! stages, each computed once on first request and cached:
//!
//! ```text
//! harness() → pointer() → shbg() → candidates() → prefilter() →
//! refute() → histories() → triage() → finish()
//! ```
//!
//! Calling a later stage forces the earlier ones, so `finish()` alone
//! reproduces the one-shot [`crate::Sierra::analyze_app`] behaviour —
//! but the forcing is explicit now: every getter returns
//! `Result<_, SessionError>` and records the [`Stage`] it ran, so
//! out-of-band drivers (the `sierra serve` worker pool) get typed
//! errors instead of panics.
//!
//! Sessions are constructed with [`SessionBuilder`] (mirroring
//! [`SierraConfig::builder`]) from an app, a pre-generated harness, or
//! inline `.sierra` source, optionally over a shared
//! [`SummaryStore`]. The pointer stage runs the **linking pass**: every
//! method's facts are pulled from the store by content hash (or
//! recomputed and stored on miss), and the whole points-to `Analysis`
//! is reused outright when no method's solver-relevant statements
//! changed. Downstream stages consume the linked facts — dominance
//! pairs, access sites, const-prop facts — instead of re-deriving them,
//! so a warm session re-analyzes only what an edit actually touched
//! while producing byte-identical reports. Reuse is observable in
//! [`StageMetrics::link`].
//!
//! Each stage records its wall-clock time and work counters into
//! [`StageMetrics`].

use crate::link::LinkedSummaries;
use crate::pipeline::{SierraConfig, SierraResult, StageMetrics};
use crate::report::{priority_of, RaceReport};
use crate::summary::{
    config_fingerprint, load_or_summarize, structural_fingerprint, MemoryStore, SummaryStore,
};
use android_model::AndroidApp;
use apir::InfeasibleEdges;
use harness_gen::HarnessResult;
use histories::HistoryModel;
use pointer::{collect_accesses_from_sites, Access, Analysis, SelectorKind};
use prefilter::{PrunedPair, Verdict};
use shbg::Shbg;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;
use symexec::{Outcome, Refuter, RefuterStats};

/// A pipeline stage, for error reporting and progress metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Harness generation (§3.2).
    Harness,
    /// Summary linking (store lookups + recomputation of changed
    /// methods).
    Link,
    /// Call graph + pointer analysis (§3.3).
    Pointer,
    /// SHBG construction (§4).
    Shbg,
    /// Candidate racy-pair generation (§4.1).
    Candidates,
    /// Pre-refutation static pruning.
    Prefilter,
    /// Symbolic refutation (§5).
    Refute,
    /// Message-history refutation.
    Histories,
    /// Harm triage.
    Triage,
    /// The comparison pass without action sensitivity.
    Compare,
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Stage::Harness => "harness",
            Stage::Link => "link",
            Stage::Pointer => "pointer",
            Stage::Shbg => "shbg",
            Stage::Candidates => "candidates",
            Stage::Prefilter => "prefilter",
            Stage::Refute => "refute",
            Stage::Histories => "histories",
            Stage::Triage => "triage",
            Stage::Compare => "compare",
        };
        f.write_str(name)
    }
}

/// Why a session could not run (or be built).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The input app was invalid (e.g. inline `.sierra` source failed
    /// to parse or validate).
    InvalidApp {
        /// Parser/validator diagnostic.
        message: String,
    },
    /// A stage was requested but its input is absent (e.g. a builder
    /// finished without an app, harness, or source).
    MissingInput {
        /// The stage that could not start.
        stage: Stage,
    },
    /// A stage failed.
    StageFailed {
        /// The failing stage.
        stage: Stage,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::InvalidApp { message } => write!(f, "invalid app: {message}"),
            SessionError::MissingInput { stage } => {
                write!(
                    f,
                    "stage {stage} has no input: session built without an app"
                )
            }
            SessionError::StageFailed { stage, message } => {
                write!(f, "stage {stage} failed: {message}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// What a session analyzes.
#[derive(Debug)]
enum SessionInput {
    /// A built app (harness generation still to run). Boxed: an
    /// `AndroidApp` is hundreds of bytes and would dominate the enum.
    App(Box<AndroidApp>),
    /// An already-generated harness (its generation time is *not*
    /// charged to the session) — ablation drivers share one harness
    /// across sessions this way.
    Harness(Arc<HarnessResult>),
    /// Inline `.sierra` source, parsed at `build()`.
    Source {
        /// App name for the report.
        name: String,
        /// The `.sierra` text.
        text: String,
    },
}

/// Builder for [`AnalysisSession`], mirroring [`SierraConfig::builder`].
///
/// ```no_run
/// use sierra_core::{SessionBuilder, SierraConfig};
/// # let app = android_model::AndroidAppBuilder::new("Demo").finish().unwrap();
/// let mut session = SessionBuilder::new(SierraConfig::default())
///     .app(app)
///     .build()
///     .expect("valid input");
/// let races = session.refute().expect("pipeline runs");
/// ```
#[derive(Debug)]
pub struct SessionBuilder {
    config: SierraConfig,
    store: Option<Arc<dyn SummaryStore>>,
    shared: Option<Arc<dyn SummaryStore>>,
    input: Option<SessionInput>,
    arena: Option<Arc<apir::SymbolArena>>,
}

impl SessionBuilder {
    /// Starts a builder with the given pipeline configuration.
    pub fn new(config: SierraConfig) -> Self {
        Self {
            config,
            store: None,
            shared: None,
            input: None,
            arena: None,
        }
    }

    /// Analyzes a built app.
    pub fn app(mut self, app: AndroidApp) -> Self {
        self.input = Some(SessionInput::App(Box::new(app)));
        self
    }

    /// Analyzes an already-generated harness (shared, not re-generated).
    pub fn harness(mut self, harness: Arc<HarnessResult>) -> Self {
        self.input = Some(SessionInput::Harness(harness));
        self
    }

    /// Analyzes inline `.sierra` source (parsed at [`Self::build`]).
    pub fn source(mut self, name: impl Into<String>, text: impl Into<String>) -> Self {
        self.input = Some(SessionInput::Source {
            name: name.into(),
            text: text.into(),
        });
        self
    }

    /// Uses a shared summary store (warm-cache re-analysis). Without
    /// this the session gets a private in-memory store.
    pub fn store(mut self, store: Arc<dyn SummaryStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Consults (and feeds) a corpus-shared store for framework-origin
    /// method summaries, ahead of the per-app store (see
    /// [`crate::summary::load_or_summarize`]). The shared store may be
    /// the same object as the per-app store: the key spaces are
    /// disjoint by fingerprint.
    pub fn shared_store(mut self, shared: Arc<dyn SummaryStore>) -> Self {
        self.shared = Some(shared);
        self
    }

    /// Interns class/method/field names into a shared [`apir::SymbolArena`]
    /// when building from inline source, so framework names are stored once
    /// per process across sessions (the serve loop passes its arena here).
    /// Only affects [`Self::source`] input — pre-built apps keep whatever
    /// interner they were constructed with. Reports and summary keys are
    /// identical with or without a shared arena.
    pub fn arena(mut self, arena: Arc<apir::SymbolArena>) -> Self {
        self.arena = Some(arena);
        self
    }

    /// Finishes the builder. Fails with [`SessionError::InvalidApp`] if
    /// inline source does not parse, or [`SessionError::MissingInput`]
    /// if no input was supplied.
    pub fn build(self) -> Result<AnalysisSession, SessionError> {
        let store = self
            .store
            .unwrap_or_else(|| Arc::new(MemoryStore::new()) as Arc<dyn SummaryStore>);
        let (app, harness) = match self.input {
            Some(SessionInput::App(app)) => (Some(*app), None),
            Some(SessionInput::Harness(h)) => (None, Some(h)),
            Some(SessionInput::Source { name, text }) => {
                let app = android_model::asm::parse_app_with(&name, &text, self.arena.clone())
                    .map_err(|e| SessionError::InvalidApp {
                        message: e.to_string(),
                    })?;
                (Some(app), None)
            }
            None => {
                return Err(SessionError::MissingInput {
                    stage: Stage::Harness,
                })
            }
        };
        let app_name = app
            .as_ref()
            .map(|a| a.name.clone())
            .or_else(|| harness.as_ref().map(|h| h.app.name.clone()))
            .expect("input resolved above");
        Ok(AnalysisSession {
            config: self.config,
            app_name,
            started: Instant::now(),
            metrics: StageMetrics::default(),
            store,
            shared: self.shared,
            app,
            harness,
            linked: None,
            analysis: None,
            shbg: None,
            candidates: None,
            prefilter: None,
            races: None,
            histories_model: None,
            history_pruned: Vec::new(),
            histories_done: false,
            triaged: false,
        })
    }
}

/// A staged run of the pipeline over one app. See the module docs.
#[derive(Debug)]
pub struct AnalysisSession {
    config: SierraConfig,
    app_name: String,
    started: Instant,
    metrics: StageMetrics,
    store: Arc<dyn SummaryStore>,
    /// Corpus-shared framework-summary layer, when configured.
    shared: Option<Arc<dyn SummaryStore>>,
    /// Present until the harness stage consumes it (absent for
    /// harness-input sessions).
    app: Option<AndroidApp>,
    harness: Option<Arc<HarnessResult>>,
    linked: Option<LinkedSummaries>,
    analysis: Option<Arc<Analysis>>,
    shbg: Option<Shbg>,
    candidates: Option<Vec<(Access, Access)>>,
    prefilter: Option<PrefilterOutcome>,
    races: Option<Vec<RaceReport>>,
    histories_model: Option<Arc<HistoryModel>>,
    history_pruned: Vec<PrunedPair>,
    histories_done: bool,
    triaged: bool,
}

/// Cached output of the prefilter stage.
#[derive(Debug)]
pub struct PrefilterOutcome {
    /// Candidate pairs that survive to refutation, in candidate order.
    pub kept: Vec<(Access, Access)>,
    /// Pruned pairs with their verdicts, in candidate order.
    pub pruned: Vec<PrunedPair>,
    /// Statically-infeasible branch edges, shared with the refuter.
    pub infeasible: Arc<InfeasibleEdges>,
}

impl AnalysisSession {
    /// Starts a session on an app with a private in-memory store.
    pub fn new(config: SierraConfig, app: AndroidApp) -> Self {
        SessionBuilder::new(config)
            .app(app)
            .build()
            .expect("app input is always valid")
    }

    /// The configuration the session runs with.
    pub fn config(&self) -> &SierraConfig {
        &self.config
    }

    /// The metrics recorded by the stages run so far.
    pub fn metrics(&self) -> &StageMetrics {
        &self.metrics
    }

    /// Stage 1: harness generation (§3.2).
    pub fn harness(&mut self) -> Result<&Arc<HarnessResult>, SessionError> {
        if self.harness.is_none() {
            let Some(app) = self.app.take() else {
                return Err(SessionError::MissingInput {
                    stage: Stage::Harness,
                });
            };
            let t = Instant::now();
            let harness = harness_gen::generate(app);
            self.metrics.timings.harness = t.elapsed();
            self.metrics.last_stage = Some(Stage::Harness);
            self.harness = Some(Arc::new(harness));
        }
        Ok(self.harness.as_ref().expect("just generated"))
    }

    /// Stage 2: summary linking + call graph + pointer analysis (§3.3).
    ///
    /// Links per-method summaries through the store (recomputing only
    /// methods whose content key misses), then either reuses the cached
    /// whole-program `Analysis` — when every method's pointer digest is
    /// unchanged — or runs the solver and caches the artifact. Both the
    /// link work and the solve are charged to the CG+PA timing.
    pub fn pointer(&mut self) -> Result<&Arc<Analysis>, SessionError> {
        if self.analysis.is_none() {
            self.harness()?;
            let harness = Arc::clone(self.harness.as_ref().expect("stage 1 ran"));
            let t = Instant::now();
            let program = &harness.app.program;
            let structural_fp = structural_fingerprint(program);
            let config_fp = config_fingerprint(self.config.selector, self.config.pointer_options);
            let (corrupt_before, evicted_before) =
                (self.store.corrupt_misses(), self.store.evictions());
            let (methods, reused, recomputed, shared_hits) = load_or_summarize(
                program,
                &harness.app.framework,
                self.config.pointer_options.index_sensitive,
                structural_fp,
                config_fp,
                self.store.as_ref(),
                self.shared.as_deref(),
            );
            let linked = LinkedSummaries {
                methods,
                structural_fp,
                config_fp,
            };
            self.metrics.link.summaries_reused = reused;
            self.metrics.link.summaries_recomputed = recomputed;
            self.metrics.link.summaries_shared = shared_hits;
            self.metrics.last_stage = Some(Stage::Link);

            let (analysis, reused) =
                self.load_or_solve(&harness, linked.analysis_key(), self.config.selector);
            // A reused artifact keeps its producing run's stats (reports
            // stay byte-identical); this session's work is in `link`.
            self.metrics.link.analysis_reused = reused;
            self.metrics.link.pointer_iterations_run = if reused {
                0
            } else {
                analysis.stats.worklist_iterations
            };
            self.metrics.link.corrupt_misses = self.store.corrupt_misses() - corrupt_before;
            self.metrics.link.evictions = self.store.evictions() - evicted_before;
            self.metrics.timings.cg_pa = t.elapsed();
            self.metrics.pointer = analysis.stats;
            // Audit the solved call graph while the program is at hand;
            // the stats ride StageMetrics into tables and gates. Runs
            // under every policy (it is how `ignore`'s gap is measured).
            self.metrics.soundness = soundness::audit(&harness.app.program, &analysis);
            self.metrics.last_stage = Some(Stage::Pointer);
            self.linked = Some(linked);
            self.analysis = Some(analysis);
        }
        Ok(self.analysis.as_ref().expect("just analyzed"))
    }

    /// Gets the points-to `Analysis` cached under `key` — in memory, else
    /// from a durable artifact blob — or solves it with `selector` and
    /// caches it. Returns the analysis and whether it was reused.
    fn load_or_solve(
        &self,
        harness: &HarnessResult,
        key: u64,
        selector: SelectorKind,
    ) -> (Arc<Analysis>, bool) {
        let store = self.store.as_ref();
        if let Some(cached) = store.get_analysis(key) {
            return (cached, true);
        }
        // Cold-process path: rehydrate the artifact blob the durable
        // store persisted. A blob that fails the deep decode (e.g.
        // written by a different build) is a plain miss; the re-solve
        // below rewrites it.
        let use_blobs = !self.config.no_artifact_cache && store.persists_artifacts();
        let decoded = use_blobs
            .then(|| store.get_artifact(key))
            .flatten()
            .and_then(|blob| pointer::artifact::decode(&blob, harness.app.framework.clone()));
        if let Some(decoded) = decoded {
            let decoded = Arc::new(decoded);
            store.put_analysis(key, Arc::clone(&decoded));
            return (decoded, true);
        }
        let analysis = Arc::new(pointer::analyze_opts(
            harness,
            selector,
            self.config.pointer_options,
        ));
        store.put_analysis(key, Arc::clone(&analysis));
        if use_blobs {
            store.put_artifact(key, &pointer::artifact::encode(&analysis));
        }
        (analysis, false)
    }

    /// Stage 3: SHBG construction (§4), over the linked dominance facts.
    pub fn shbg(&mut self) -> Result<&Shbg, SessionError> {
        if self.shbg.is_none() {
            self.pointer()?;
            let harness = self.harness.as_ref().expect("stage 1 ran");
            let analysis = self.analysis.as_ref().expect("stage 2 ran");
            let linked = self.linked.as_ref().expect("stage 2 linked");
            let t = Instant::now();
            let graph = shbg::build_with_dominance(analysis, harness, &linked.dominance_map());
            self.metrics.timings.hbg = t.elapsed();
            self.metrics.shbg = graph.stats;
            self.metrics.last_stage = Some(Stage::Shbg);
            self.shbg = Some(graph);
        }
        Ok(self.shbg.as_ref().expect("just built"))
    }

    /// Stage 4: candidate racy pairs — same harness, different unordered
    /// actions, overlapping locations, at least one write (§4.1). Access
    /// sites come from the linked summaries; only their points-to
    /// instantiation runs here.
    pub fn candidates(&mut self) -> Result<&[(Access, Access)], SessionError> {
        if self.candidates.is_none() {
            self.shbg()?;
            let harness = self.harness.as_ref().expect("stage 1 ran");
            let analysis = self.analysis.as_ref().expect("stage 2 ran");
            let linked = self.linked.as_ref().expect("stage 2 linked");
            let graph = self.shbg.as_ref().expect("stage 3 ran");
            let accesses = linked_accesses(harness, analysis, linked);
            let pairs = racy_pairs(&accesses, analysis, graph)
                .into_iter()
                .map(|(a, b)| (a.clone(), b.clone()))
                .collect();
            self.metrics.last_stage = Some(Stage::Candidates);
            self.candidates = Some(pairs);
        }
        Ok(self.candidates.as_ref().expect("just computed"))
    }

    /// Stage 5: pre-refutation static pruning (escape analysis, guard
    /// detection, constant/branch pruning) over the linked const-prop
    /// facts. A passthrough under `no_prefilter` — and under
    /// `skip_refutation`, whose ablations count raw candidate pairs.
    pub fn prefilter(&mut self) -> Result<&PrefilterOutcome, SessionError> {
        if self.prefilter.is_none() {
            self.candidates()?;
            let harness = self.harness.as_ref().expect("stage 1 ran");
            let analysis = self.analysis.as_ref().expect("stage 2 ran");
            let linked = self.linked.as_ref().expect("stage 2 linked");
            let graph = self.shbg.as_ref().expect("stage 3 ran");
            let candidates = self.candidates.as_ref().expect("stage 4 ran");
            let t = Instant::now();
            let outcome = if self.config.no_prefilter || self.config.skip_refutation {
                PrefilterOutcome {
                    kept: candidates.clone(),
                    pruned: Vec::new(),
                    infeasible: Arc::new(InfeasibleEdges::new()),
                }
            } else {
                let run = prefilter::run_with_const_facts(
                    &harness.app.program,
                    analysis,
                    graph,
                    candidates,
                    &linked.const_facts_for(analysis),
                );
                self.metrics.prefilter = run.stats;
                PrefilterOutcome {
                    kept: run.kept,
                    pruned: run.pruned,
                    infeasible: Arc::new(run.infeasible),
                }
            };
            self.metrics.timings.prefilter = t.elapsed();
            self.metrics.last_stage = Some(Stage::Prefilter);
            self.prefilter = Some(outcome);
        }
        Ok(self.prefilter.as_ref().expect("just prefiltered"))
    }

    /// Whether the message-history stage participates in this run.
    fn histories_enabled(&self) -> bool {
        !self.config.no_histories && !self.config.skip_refutation
    }

    /// Builds (once) the message-history model: the lifecycle automaton
    /// plus per-action occurrence sets. Forced by [`Self::refute`] when
    /// the stage is enabled (the refuter consumes its dead-callback
    /// edges) and by [`Self::histories`].
    fn history_model(&mut self) -> Result<Arc<HistoryModel>, SessionError> {
        if self.histories_model.is_none() {
            self.pointer()?;
            let harness = self.harness.as_ref().expect("stage 1 ran");
            let analysis = self.analysis.as_ref().expect("stage 2 ran");
            let t = Instant::now();
            let model = Arc::new(HistoryModel::build(
                &harness.app.program,
                &harness.app.framework,
                analysis,
            ));
            self.metrics.histories = model.stats();
            self.metrics.timings.histories = t.elapsed();
            self.histories_model = Some(model);
        }
        Ok(Arc::clone(
            self.histories_model.as_ref().expect("just built"),
        ))
    }

    /// Stage 6: refutation (§5) + prioritization (§3.1). With
    /// `skip_refutation` every candidate survives.
    pub fn refute(&mut self) -> Result<&[RaceReport], SessionError> {
        if self.races.is_none() {
            self.prefilter()?;
            // When the histories stage is on, its dead-callback CFG
            // edges join the prefilter's statically-infeasible edges in
            // the refuter's shared prefilter channel — except for
            // methods holding a surviving pair's accesses, which stage
            // 8 must judge itself (a machine-checkable History verdict
            // beats a silent symbolic refutation of the same pair).
            let model = if self.histories_enabled() {
                Some(self.history_model()?)
            } else {
                None
            };
            let harness = self.harness.as_ref().expect("stage 1 ran");
            let analysis = self.analysis.as_ref().expect("stage 2 ran");
            let prefilter = self.prefilter.as_ref().expect("stage 5 ran");
            let candidates = &prefilter.kept;
            let infeasible = match &model {
                Some(model) if !model.dead_edges().is_empty() => {
                    let kept_methods: HashSet<apir::MethodId> = candidates
                        .iter()
                        .flat_map(|(a, b)| [a.method, b.method])
                        .collect();
                    let mut merged = (*prefilter.infeasible).clone();
                    let mut exported = 0usize;
                    for (m, from, to) in model.dead_edges().iter_sorted() {
                        if !kept_methods.contains(&m) && merged.insert(m, from, to) {
                            exported += 1;
                        }
                    }
                    self.metrics.histories.infeasible_exported = exported;
                    Arc::new(merged)
                }
                _ => Arc::clone(&prefilter.infeasible),
            };
            let t = Instant::now();
            let program = &harness.app.program;
            let (outcomes, refuter_stats) = if self.config.skip_refutation {
                (
                    vec![Outcome::Budget; candidates.len()],
                    RefuterStats::default(),
                )
            } else {
                let mut refuter = Refuter::new(analysis, program, self.config.refuter)
                    .with_message_model(harness.app.framework.message_what)
                    .with_infeasible_edges(infeasible);
                (refuter.refute_all(candidates), refuter.stats)
            };
            let mut races: Vec<RaceReport> = Vec::new();
            for ((a, b), outcome) in candidates.iter().zip(outcomes) {
                if outcome == Outcome::Refuted {
                    continue;
                }
                let field = a.field;
                let pointer_field = program.field(field).ty.is_reference();
                let priority = priority_of(program, a, b);
                races.push(RaceReport {
                    a: a.clone(),
                    b: b.clone(),
                    field,
                    outcome,
                    priority,
                    pointer_field,
                    triage: None,
                });
            }
            races.sort_by_key(|r| r.rank_key());
            self.metrics.refuter = refuter_stats;
            self.metrics.timings.refutation = t.elapsed();
            self.metrics.last_stage = Some(Stage::Refute);
            self.races = Some(races);
        }
        Ok(self.races.as_ref().expect("just refuted"))
    }

    /// Stage 7: message-history refutation. Checks each surviving pair's
    /// two callbacks for joint reachability under a realizable event
    /// history of the lifecycle automaton; unrealizable pairs move from
    /// the race list into the pruned list with a machine-checkable
    /// [`Verdict::History`]. A no-op under `no_histories` or
    /// `skip_refutation`.
    pub fn histories(&mut self) -> Result<&[RaceReport], SessionError> {
        self.refute()?;
        if !self.histories_done {
            self.histories_done = true;
            if self.histories_enabled() {
                let model = self.history_model()?;
                let t = Instant::now();
                let races = self.races.as_mut().expect("stage 6 ran");
                let mut kept = Vec::with_capacity(races.len());
                let mut pruned = Vec::new();
                let mut pairs_checked = 0usize;
                let mut product_edges = 0usize;
                let (mut unregistered, mut destroy, mut pause) = (0usize, 0usize, 0usize);
                for race in std::mem::take(races) {
                    let check = model.check_pair(race.a.action, race.b.action);
                    if check.checked {
                        pairs_checked += 1;
                        product_edges += check.product_edges;
                    }
                    match check.refuted {
                        Some((pattern, action)) => {
                            match pattern {
                                histories::HistoryPattern::UnregisteredBeforePosted => {
                                    unregistered += 1
                                }
                                histories::HistoryPattern::DestroyDominates => destroy += 1,
                                histories::HistoryPattern::PauseQuiesced => pause += 1,
                            }
                            pruned.push(PrunedPair {
                                a: race.a,
                                b: race.b,
                                verdict: Verdict::History { pattern, action },
                            });
                        }
                        None => kept.push(race),
                    }
                }
                *races = kept;
                self.history_pruned = pruned;
                self.metrics.histories.pairs_checked = pairs_checked;
                self.metrics.histories.product_edges = product_edges;
                self.metrics.histories.discharged_unregistered = unregistered;
                self.metrics.histories.discharged_destroy = destroy;
                self.metrics.histories.discharged_pause = pause;
                self.metrics.timings.histories += t.elapsed();
                self.metrics.last_stage = Some(Stage::Histories);
            }
        }
        Ok(self.races.as_ref().expect("stage 6 ran"))
    }

    /// Stage 8: harm triage — classifies every surviving race with a
    /// [`triage::Harm`] verdict (nullness/taint dataflow on the read
    /// side, constant comparison on write/write pairs) and drops reports
    /// below `min_harm`. A no-op under `no_triage`, leaving every report
    /// annotation-free.
    pub fn triage(&mut self) -> Result<&[RaceReport], SessionError> {
        self.histories()?;
        if !self.triaged {
            self.triaged = true;
            if !self.config.no_triage {
                let harness = self.harness.as_ref().expect("stage 1 ran");
                let analysis = self.analysis.as_ref().expect("stage 2 ran");
                let graph = self.shbg.as_ref().expect("stage 3 ran");
                let races = self.races.as_mut().expect("stage 6 ran");
                let t = Instant::now();
                let pairs: Vec<(Access, Access)> =
                    races.iter().map(|r| (r.a.clone(), r.b.clone())).collect();
                let (verdicts, stats) = triage::classify_races(
                    &harness.app.program,
                    analysis,
                    graph,
                    Some(harness.harness_class),
                    &pairs,
                );
                for (race, verdict) in races.iter_mut().zip(verdicts) {
                    race.triage = Some(verdict);
                }
                if let Some(min) = self.config.min_harm {
                    races.retain(|r| r.triage.as_ref().is_some_and(|t| t.harm >= min));
                }
                self.metrics.timings.triage = t.elapsed();
                self.metrics.triage = stats;
                self.metrics.last_stage = Some(Stage::Triage);
            }
        }
        Ok(self.races.as_ref().expect("stage 6 ran"))
    }

    /// The comparison pass without action sensitivity (Table 3 col 6):
    /// the candidate-pair count under the hybrid selector of the same k.
    /// It reuses this session's linked summaries — `summarize_method`
    /// reads no selector, so they are the hybrid config's summaries too
    /// — and re-keys only the points-to `Analysis`, under the hybrid
    /// config fingerprint, so that solve is cached like the main one.
    fn compare_without_as(&self) -> usize {
        let harness = self.harness.as_ref().expect("stage 1 ran");
        let linked = self.linked.as_ref().expect("stage 2 linked");
        let selector = match self.config.selector {
            SelectorKind::ActionSensitive(k) => SelectorKind::Hybrid(k),
            other => other,
        };
        let key =
            linked.analysis_key_for(config_fingerprint(selector, self.config.pointer_options));
        let (analysis, _) = self.load_or_solve(harness, key, selector);
        let graph = shbg::build_with_dominance(&analysis, harness, &linked.dominance_map());
        let accesses = linked_accesses(harness, &analysis, linked);
        racy_pairs(&accesses, &analysis, &graph).len()
    }

    /// Runs every remaining stage (plus the comparison pass when
    /// configured) and assembles the [`SierraResult`].
    pub fn finish(mut self) -> Result<SierraResult, SessionError> {
        self.triage()?;
        let harness = self.harness.clone().expect("stages ran");
        let racy_pairs_without_as = if self.config.compare_without_as {
            let t = Instant::now();
            let count = self.compare_without_as();
            self.metrics.timings.compare = t.elapsed();
            self.metrics.last_stage = Some(Stage::Compare);
            count
        } else {
            0
        };

        let analysis = self.analysis.expect("stages ran");
        let graph = self.shbg.expect("stages ran");
        let races = self.races.expect("stages ran");
        let candidates = self.candidates.expect("stages ran");
        let mut pruned = self.prefilter.expect("stages ran").pruned;
        // History-pruned pairs follow the prefilter's, preserving each
        // stage's own candidate order.
        pruned.extend(self.history_pruned);

        // Theoretical maximum of ordered pairs: the paper's `N·(N−1)/2`
        // over all of the app's actions (cross-harness pairs included in
        // the denominator even though our model never orders them).
        let n = analysis.actions.len();
        let hb_max = n * n.saturating_sub(1) / 2;

        let mut metrics = self.metrics;
        metrics.timings.total = self.started.elapsed();

        Ok(SierraResult {
            app_name: self.app_name,
            harness_count: harness.harness_count(),
            action_count: n,
            hb_edges: graph.ordered_pair_count(),
            hb_max,
            racy_pairs_without_as,
            racy_pairs_with_as: candidates.len(),
            races,
            triage_ran: !self.config.no_triage,
            histories_ran: !self.config.no_histories && !self.config.skip_refutation,
            pruned,
            metrics,
            analysis,
            shbg: graph,
            harness,
        })
    }
}

/// Instantiates the linked access sites against `analysis`, one
/// representative per `(action, addr)`.
fn linked_accesses(
    harness: &HarnessResult,
    analysis: &Analysis,
    linked: &LinkedSummaries,
) -> Vec<Access> {
    dedupe(collect_accesses_from_sites(
        analysis,
        &harness.app.program,
        Some(harness.harness_class),
        &linked.sites_map(),
    ))
}

/// Deduplicates accesses to one representative per `(action, addr)`.
fn dedupe(accesses: Vec<Access>) -> Vec<Access> {
    let mut seen: HashMap<(android_model::ActionId, apir::StmtAddr), Access> = HashMap::new();
    for a in accesses {
        seen.entry((a.action, a.addr))
            .and_modify(|e| {
                // Merge base points-to across contexts of the same action.
                merge_sorted_bases(&mut e.base, &a.base);
            })
            .or_insert(a);
    }
    let mut out: Vec<Access> = seen.into_values().collect();
    out.sort_by_key(|a| (a.addr, a.action));
    out
}

/// Set union of two sorted object lists into `dst`, as a linear
/// two-pointer merge. `Access::base` is sorted ascending by
/// construction (see [`Access::base`]) and this is its only mutation
/// site, so the invariant is preserved.
fn merge_sorted_bases(dst: &mut Vec<pointer::ObjId>, src: &[pointer::ObjId]) {
    debug_assert!(dst.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(src.windows(2).all(|w| w[0] < w[1]));
    // Common case: nothing new to add — detect with the same linear
    // walk before allocating a merged vector.
    let mut i = 0;
    if src.iter().all(|o| {
        while i < dst.len() && dst[i] < *o {
            i += 1;
        }
        i < dst.len() && dst[i] == *o
    }) {
        return;
    }
    let mut merged = Vec::with_capacity(dst.len() + src.len());
    let (mut i, mut j) = (0, 0);
    while i < dst.len() && j < src.len() {
        match dst[i].cmp(&src[j]) {
            std::cmp::Ordering::Less => {
                merged.push(dst[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                merged.push(src[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                merged.push(dst[i]);
                i += 1;
                j += 1;
            }
        }
    }
    merged.extend_from_slice(&dst[i..]);
    merged.extend_from_slice(&src[j..]);
    *dst = merged;
}

/// Candidate racy pairs: same harness, different unordered actions,
/// overlapping locations, at least one write (§4.1).
fn racy_pairs<'a>(
    accesses: &'a [Access],
    analysis: &Analysis,
    graph: &Shbg,
) -> Vec<(&'a Access, &'a Access)> {
    // Group by field: only same-field accesses can overlap.
    let mut by_field: HashMap<apir::FieldId, Vec<&Access>> = HashMap::new();
    for a in accesses {
        by_field.entry(a.field).or_default().push(a);
    }
    let mut out = Vec::new();
    for group in by_field.values() {
        for i in 0..group.len() {
            for j in i + 1..group.len() {
                let (a, b) = (group[i], group[j]);
                if a.action == b.action {
                    continue;
                }
                if !(a.is_write || b.is_write) {
                    continue;
                }
                let (ha, hb) = (
                    analysis.actions.action(a.action).harness,
                    analysis.actions.action(b.action).harness,
                );
                if ha != hb {
                    continue; // races are detected per harness
                }
                if !a.overlaps(b) {
                    continue;
                }
                if !graph.unordered(a.action, b.action) {
                    continue;
                }
                out.push((a, b));
            }
        }
    }
    out.sort_by_key(|(a, b)| (a.addr, b.addr, a.action, b.action));
    out
}
