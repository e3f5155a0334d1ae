//! The staged analysis session over a content-addressed summary store.
//!
//! [`AnalysisSession`] runs the pipeline through one driver that walks
//! the [`Stage`] order (`harness → pointer → shbg → candidates →
//! prefilter → refute → histories → triage`). Each stage body
//! (see `stages.rs`) maps typed inputs to an output plus work counters;
//! the driver times every stage at one site and stores each output
//! once for the later stages. A stage outside [`SierraConfig::stages`]
//! stores its identity output instead, untimed: no prefilter keeps every
//! candidate, no refute reports every kept pair as [`Outcome::Budget`],
//! no histories or triage passes the races through, and the result's
//! `stages` leave it out.
//!
//! The getters (`harness()` … `triage()`) drive through their stage and
//! return its output, so `finish()` alone reproduces
//! [`crate::Sierra::analyze_app`]; [`AnalysisSession::finish_with`] also
//! reports each stage as it completes (the `sierra serve` stream).
//! Table 3's count without action sensitivity is a second session under
//! the hybrid selector, built with [`SessionBuilder::harness`] from the
//! first session's harness and stopped at [`AnalysisSession::candidates`].
//!
//! Sessions are built with [`SessionBuilder`] from an app, a generated
//! harness, or inline `.sierra` source, optionally over a shared
//! [`SummaryStore`]. The pointer stage solves first and links after: it
//! digests the program, reuses the whole points-to `Analysis` cached
//! under the program's analysis key (or solves and caches it), audits
//! it, and then its **linking pass** pulls the facts of each method the
//! analysis reached from the store by content hash, summarizing only
//! misses. Later stages read only those facts, so a warm session redoes
//! only what an edit touched, with byte-identical reports. Reuse is
//! observable in [`StageMetrics::link`].

use crate::link::LinkedSummaries;
use crate::pipeline::{SierraConfig, SierraResult, Stage, StageMetrics, StageSet};
use crate::report::RaceReport;
use crate::stages::{
    discharge_histories, link_and_solve, linked_accesses, race_reports, racy_pairs, triage_races,
};
use crate::summary::{MemoryStore, SummaryStore};
use android_model::AndroidApp;
use harness_gen::HarnessResult;
use histories::HistoryModel;
use pointer::{Access, Analysis};
use prefilter::PrunedPair;
use shbg::Shbg;
use std::sync::Arc;
use std::time::Instant;
use symexec::{Outcome, Refuter};

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
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::InvalidApp { message } => write!(f, "invalid app: {message}"),
            SessionError::MissingInput { stage } => write!(f, "stage {stage} has no input"),
        }
    }
}

impl std::error::Error for SessionError {}

/// A session with no app, harness or source: its harness cannot start.
const NO_INPUT: SessionError = SessionError::MissingInput {
    stage: Stage::Harness,
};

/// What a session analyzes.
#[derive(Debug, Clone)]
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
/// A builder with no input is a per-process session template: it holds
/// the config, the store, the shared layer and the arena, and each
/// analysis clones it and adds its input
/// (`template.clone().app(app).build()`).
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
#[derive(Debug, Clone)]
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

    /// The pipeline configuration sessions from this builder run with.
    pub fn config(&self) -> &SierraConfig {
        &self.config
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
    /// method summaries, ahead of the per-app store (see the linking
    /// step of [`AnalysisSession::pointer`]). The shared store may be
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
    /// interner they were constructed with. Reports, summary keys and
    /// analysis keys are identical with or without a shared arena, and
    /// whatever the arena held before: keys hash names and string
    /// constants by their text, never by symbol value.
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
        let (app_name, app, harness) = match self.input {
            Some(SessionInput::App(app)) => (app.name.clone(), Some(*app), None),
            Some(SessionInput::Harness(h)) => (h.app.name.clone(), None, Some(h)),
            Some(SessionInput::Source { name, text }) => {
                let app = android_model::asm::parse_app_with(&name, &text, self.arena.clone())
                    .map_err(|e| SessionError::InvalidApp {
                        message: e.to_string(),
                    })?;
                (app.name.clone(), Some(app), None)
            }
            None => return Err(NO_INPUT),
        };
        Ok(AnalysisSession {
            config: self.config,
            app_name,
            started: Instant::now(),
            metrics: StageMetrics::default(),
            store,
            shared: self.shared,
            app,
            out: Outputs {
                harness,
                ..Outputs::default()
            },
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
    out: Outputs,
}

/// Every stage's output, stored once by the driver; `None` until the
/// driver reaches the stage.
#[derive(Debug, Default)]
struct Outputs {
    harness: Option<Arc<HarnessResult>>,
    pointer: Option<(Arc<Analysis>, LinkedSummaries)>,
    shbg: Option<Shbg>,
    candidates: Option<Candidates>,
    prefilter: Option<PrefilterOutcome>,
    refute: Option<Vec<RaceReport>>,
    /// The races left, and the pairs no event history realizes.
    histories: Option<(Vec<RaceReport>, Vec<PrunedPair>)>,
    triage: Option<Vec<RaceReport>>,
}

/// Output of the candidates stage.
#[derive(Debug)]
struct Candidates {
    /// Every access of the reachable program outside the harness class,
    /// one per `(action, statement)`; triage reads their writes.
    accesses: Vec<Access>,
    /// The candidate racy pairs drawn from them.
    pairs: Vec<(Access, Access)>,
}

/// Cached output of the prefilter stage.
#[derive(Debug)]
pub struct PrefilterOutcome {
    /// Candidate pairs that survive to refutation, in candidate order.
    pub kept: Vec<(Access, Access)>,
    /// Pruned pairs with their verdicts, in candidate order.
    pub pruned: Vec<PrunedPair>,
}

impl AnalysisSession {
    /// Starts a session on an app with a private in-memory store.
    pub fn new(config: SierraConfig, app: AndroidApp) -> Self {
        SessionBuilder::new(config)
            .app(app)
            .build()
            .expect("app input is always valid")
    }

    /// The metrics recorded by the stages run so far.
    pub fn metrics(&self) -> &StageMetrics {
        &self.metrics
    }

    /// Runs the driver through `stage` and returns `stage`'s output,
    /// which is absent only when there was no input to start from.
    fn through<T: ?Sized>(
        &mut self,
        stage: Stage,
        output: impl FnOnce(&Outputs) -> Option<&T>,
    ) -> Result<&T, SessionError> {
        self.walk(stage, &mut |_, _| {});
        output(&self.out).ok_or(NO_INPUT)
    }

    /// Stage 1: harness generation (§3.2).
    pub fn harness(&mut self) -> Result<&Arc<HarnessResult>, SessionError> {
        self.through(Stage::Harness, |o| o.harness.as_ref())
    }

    /// Stage 2: call graph + pointer analysis (§3.3), then summary
    /// linking. Reuses the whole cached `Analysis` when no method's
    /// pointer digest changed, audits the call graph, and links the
    /// summaries of the methods the analysis reached, recomputing only
    /// those whose content key misses the store.
    pub fn pointer(&mut self) -> Result<&Arc<Analysis>, SessionError> {
        self.through(Stage::Pointer, |o| o.pointer.as_ref().map(|(a, _)| a))
    }

    /// Stage 3: SHBG construction (§4), over the linked dominance facts.
    pub fn shbg(&mut self) -> Result<&Shbg, SessionError> {
        self.through(Stage::Shbg, |o| o.shbg.as_ref())
    }

    /// Stage 4: candidate racy pairs — same harness, different unordered
    /// actions, overlapping locations, at least one write (§4.1).
    pub fn candidates(&mut self) -> Result<&[(Access, Access)], SessionError> {
        self.through(Stage::Candidates, |o| {
            o.candidates.as_ref().map(|c| c.pairs.as_slice())
        })
    }

    /// Stage 5: pre-refutation static pruning (escape, guard and
    /// constant/branch analyses). Keeps every candidate without the
    /// `Prefilter` stage.
    pub fn prefilter(&mut self) -> Result<&PrefilterOutcome, SessionError> {
        self.through(Stage::Prefilter, |o| o.prefilter.as_ref())
    }

    /// Stage 6: refutation (§5) + prioritization (§3.1). Without the
    /// `Refute` stage every kept pair survives.
    pub fn refute(&mut self) -> Result<&[RaceReport], SessionError> {
        self.through(Stage::Refute, |o| o.refute.as_deref())
    }

    /// Stage 7: message-history refutation. A race whose two callbacks
    /// no realizable event history of the lifecycle automaton reaches
    /// together moves to the pruned list with a
    /// [`prefilter::Verdict::History`].
    pub fn histories(&mut self) -> Result<&[RaceReport], SessionError> {
        self.through(Stage::Histories, |o| {
            o.histories.as_ref().map(|(races, _)| races.as_slice())
        })
    }

    /// Stage 8: harm triage — gives every race a [`triage::Harm`] verdict
    /// and drops reports below `min_harm`. Without the `Triage` stage
    /// every report stays annotation-free.
    pub fn triage(&mut self) -> Result<&[RaceReport], SessionError> {
        self.through(Stage::Triage, |o| o.triage.as_deref())
    }

    /// Runs every remaining stage and assembles the [`SierraResult`].
    pub fn finish(self) -> Result<SierraResult, SessionError> {
        self.finish_with(|_, _| {})
    }

    /// [`Self::finish`], calling `on_stage` with the metrics so far
    /// after each stage that runs, in driver order.
    pub fn finish_with(
        mut self,
        mut on_stage: impl FnMut(Stage, &StageMetrics),
    ) -> Result<SierraResult, SessionError> {
        self.walk(Stage::Triage, &mut on_stage);
        let Outputs {
            harness: Some(harness),
            pointer: Some((analysis, _)),
            shbg: Some(graph),
            candidates: Some(Candidates {
                pairs: candidates, ..
            }),
            prefilter: Some(prefilter),
            histories: Some((_, history_pruned)),
            triage: Some(races),
            ..
        } = self.out
        else {
            return Err(NO_INPUT);
        };
        // History-pruned pairs follow the prefilter's, preserving each
        // stage's own candidate order.
        let mut pruned = prefilter.pruned;
        pruned.extend(history_pruned);

        // Theoretical maximum of ordered pairs: the paper's `N·(N−1)/2`
        // over all of the app's actions (cross-harness pairs included in
        // the denominator even though our model never orders them).
        let n = analysis.actions.len();
        let mut metrics = self.metrics;
        metrics.timings.total = self.started.elapsed();
        Ok(SierraResult {
            app_name: self.app_name,
            harness_count: harness.harness_count(),
            action_count: n,
            hb_edges: graph.ordered_pair_count(),
            hb_max: n * n.saturating_sub(1) / 2,
            racy_pairs_without_as: 0,
            racy_pairs_with_as: candidates.len(),
            races,
            stages: self.config.stages,
            pruned,
            metrics,
            analysis,
            shbg: graph,
            harness,
        })
    }

    /// The stage driver: walks the [`Stage`] order through `last`,
    /// running each stage whose output is not stored yet (see
    /// [`Driver::step`]) on the outputs stored before it. `None` once
    /// it passes `last` (or finds no input).
    fn walk(&mut self, last: Stage, on_stage: &mut dyn FnMut(Stage, &StageMetrics)) -> Option<()> {
        let (config, store, shared) = (self.config, self.store.as_ref(), self.shared.as_deref());
        let (app, out) = (&mut self.app, &mut self.out);
        let mut d = Driver {
            stages: config.stages,
            last,
            metrics: &mut self.metrics,
            on_stage,
        };

        let harness = d.step(Stage::Harness, &mut out.harness, |_| {
            app.take().map(|app| Arc::new(harness_gen::generate(app)))
        })?;
        let (analysis, linked) = d.step(Stage::Pointer, &mut out.pointer, |m| {
            Some(link_and_solve(&config, store, shared, harness, m))
        })?;
        let graph = d.step(Stage::Shbg, &mut out.shbg, |m| {
            let graph = shbg::build(analysis, harness, |m| &linked.summary(m).dominance);
            m.shbg = graph.stats;
            Some(graph)
        })?;
        let Candidates {
            accesses,
            pairs: candidates,
        } = d.step(Stage::Candidates, &mut out.candidates, |_| {
            let accesses = linked_accesses(harness, analysis, linked);
            let pairs = racy_pairs(&accesses, analysis, graph).into_iter();
            let pairs = pairs.map(|(a, b)| (a.clone(), b.clone())).collect();
            Some(Candidates { accesses, pairs })
        })?;
        let prefilter = d.step_or(
            Stage::Prefilter,
            &mut out.prefilter,
            |m| {
                let run = prefilter::run(&harness.app.program, analysis, graph, candidates, |m| {
                    &linked.summary(m).consts
                });
                m.prefilter = run.stats;
                Some(PrefilterOutcome {
                    kept: run.kept,
                    pruned: run.pruned,
                })
            },
            || PrefilterOutcome {
                kept: candidates.clone(),
                pruned: Vec::new(),
            },
        )?;

        let program = &harness.app.program;
        let races = d.step_or(
            Stage::Refute,
            &mut out.refute,
            |m| {
                let mut refuter = Refuter::new(analysis, program, config.refuter_budget)
                    .with_message_model(harness.app.framework.message_what);
                let outcomes = (prefilter.kept.iter())
                    .map(|(a, b)| refuter.refute_pair(a, b))
                    .collect();
                m.refuter = refuter.stats;
                Some(race_reports(program, &prefilter.kept, outcomes))
            },
            || {
                let outcomes = vec![Outcome::Budget; prefilter.kept.len()];
                race_reports(program, &prefilter.kept, outcomes)
            },
        )?;
        let (races, _) = d.step_or(
            Stage::Histories,
            &mut out.histories,
            |m| {
                let model = HistoryModel::build(program, &harness.app.framework, analysis);
                m.histories = model.stats();
                Some(discharge_histories(&model, races, &mut m.histories))
            },
            || (races.clone(), Vec::new()),
        )?;
        d.step_or(
            Stage::Triage,
            &mut out.triage,
            |m| {
                let (races, stats) =
                    triage_races(program, analysis, graph, accesses, races, config.min_harm);
                m.triage = stats;
                Some(races)
            },
            || races.clone(),
        )?;
        Some(())
    }
}

/// One walk of the driver over the stages through `last`.
struct Driver<'a> {
    stages: StageSet,
    last: Stage,
    metrics: &'a mut StageMetrics,
    on_stage: &'a mut dyn FnMut(Stage, &StageMetrics),
}

impl Driver<'_> {
    /// `stage`'s stored output. On first reach (at or before `last`)
    /// runs `body`, adds its wall-clock time to `stage` (the one place
    /// the pipeline's stages are timed) and, when it yields an output,
    /// reports the stage and stores the output. `None` when there is no
    /// output: `stage` lies past `last`, or `body` had no input.
    fn step<'s, T>(
        &mut self,
        stage: Stage,
        slot: &'s mut Option<T>,
        body: impl FnOnce(&mut StageMetrics) -> Option<T>,
    ) -> Option<&'s mut T> {
        if slot.is_none() && stage <= self.last {
            let t = Instant::now();
            *slot = body(self.metrics);
            self.metrics.timings.add(stage, t.elapsed());
            if slot.is_some() {
                (self.on_stage)(stage, self.metrics);
            }
        }
        slot.as_mut()
    }

    /// [`Self::step`] for a stage that may be outside the set: then the
    /// stage stores its `identity` output, untimed and unreported.
    fn step_or<'s, T>(
        &mut self,
        stage: Stage,
        slot: &'s mut Option<T>,
        body: impl FnOnce(&mut StageMetrics) -> Option<T>,
        identity: impl FnOnce() -> T,
    ) -> Option<&'s mut T> {
        if !self.stages.contains(stage) && slot.is_none() && stage <= self.last {
            *slot = Some(identity());
        }
        self.step(stage, slot, body)
    }
}
