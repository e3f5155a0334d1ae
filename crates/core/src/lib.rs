//! # sierra-core — the SIERRA static event-based race detector
//!
//! End-to-end reproduction of the detection pipeline of *Static Detection
//! of Event-based Races in Android Apps* (Hu & Neamtiu, ASPLOS 2018),
//! Figure 3:
//!
//! 1. **Harness generation** (`harness-gen`): per-activity entrypoints that
//!    drive lifecycle and GUI callbacks.
//! 2. **Call graph + pointer analysis** (`pointer`): action-sensitive,
//!    field-sensitive Andersen analysis embedding the Android concurrency
//!    model (actions, Table 1).
//! 3. **SHBG** (`shbg`): static happens-before over actions, rules 1–7.
//! 4. **Racy pairs**: unordered same-harness access pairs on overlapping
//!    locations with at least one write.
//! 5. **Prefilter** (`prefilter`): cheap flow-aware static pruning —
//!    escape analysis, write-once guard detection, and constant/branch
//!    pruning — removes pairs that cannot race before the refuter runs.
//! 6. **Refutation** (`symexec`): goal-directed backward symbolic
//!    execution rules out ad-hoc-synchronized pairs, then
//!    **prioritization** (§3.1) ranks app code above framework code and
//!    pointer fields above primitives.
//! 7. **Message histories** (`histories`) prune pairs whose callbacks no
//!    realizable lifecycle event history reaches together; **harm
//!    triage** (`triage`) gives each race a harm verdict.
//!
//! [`AnalysisSession`] runs these [`Stage`]s through one driver. Table 3's
//! candidate pairs without action sensitivity are not a stage: they are a
//! second session under the hybrid selector over the same harness.
//!
//! ```no_run
//! use android_model::AndroidAppBuilder;
//! use sierra_core::Sierra;
//!
//! let app = AndroidAppBuilder::new("Demo").finish().expect("valid app");
//! let result = Sierra::new().analyze_app(app);
//! for race in &result.races {
//!     println!("{}", race.describe(&result.harness.app.program, &result.analysis.actions));
//! }
//! ```

mod counters;
pub mod engine;
pub mod json;
mod link;
mod pipeline;
mod render;
mod report;
mod session;
mod stages;
mod summary;

pub use counters::{Counter, CounterGroup, ReadCounter, COUNTER_GROUPS};
pub use engine::{run_jobs, EngineError};
pub use histories::{HistoryPattern, HistoryStats};
pub use json::Json;
pub use link::LinkStats;
pub use pipeline::{
    Sierra, SierraConfig, SierraConfigBuilder, SierraResult, Stage, StageMetrics, StageSet,
    StageTimings,
};
pub use pointer::OpaquePolicy;
pub use prefilter::{PrefilterStats, PrunedPair, Verdict};
pub use render::Report;
pub use report::{describe_action, describe_pair, priority_of, Priority, RaceReport};
pub use session::{AnalysisSession, PrefilterOutcome, SessionBuilder, SessionError};
pub use soundness::SoundnessStats;
pub use summary::{
    config_fingerprint, summary_key, DiskStore, MemoryStore, MethodSummary, SummaryStore,
};
pub use triage::{Harm, TriageStats, TriageVerdict, Witness};

#[cfg(test)]
mod tests;
