//! # pointer — context-sensitive points-to analysis and call graph
//!
//! This crate is the WALA substitute: an inclusion-based (Andersen)
//! field-sensitive points-to analysis with on-the-fly call-graph
//! construction over the `apir` IR, parameterized by a context-sensitivity
//! policy ([`SelectorKind`]):
//!
//! - classic k-cfa / k-obj / hybrid abstractions, and
//! - the paper's **action-sensitivity** (§3.3), which adds the enclosing
//!   concurrency action to every abstract heap object so that objects
//!   allocated by different actions never conflate;
//! - the **inflated-view context**: `findViewById(id)` returns a single
//!   abstract view per `(activity, id)`, aliasing across actions exactly
//!   like the framework's view cache.
//!
//! The analysis embeds the Android concurrency model: framework ops mint
//! [`android_model::Action`]s and the posted callback bodies are analyzed
//! under fresh action contexts, producing the action set, posting records,
//! and per-action memory accesses that the SHBG and race detector consume.

pub mod artifact;
mod ctx;
mod ptsset;
mod result;
mod solver;
mod summary;

pub use ctx::{
    CtxData, CtxElem, CtxId, CtxTable, ObjData, ObjId, ObjTable, ParseSelectorError, SelectorKind,
};
pub use ptsset::PtsSet;
pub use result::{collect_accesses, collect_accesses_from_sites, Access, AccessLoc};
pub use solver::{
    analyze, analyze_opts, scratch_pool_stats, Analysis, AnalysisOptions, OpaquePolicy, PostRecord,
    SolverStats,
};
pub use summary::{method_access_sites, AccessSite};

#[cfg(test)]
mod tests;
