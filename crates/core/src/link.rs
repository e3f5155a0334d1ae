//! The linking pass: recombines per-method summaries into the
//! whole-program inputs each stage consumes.
//!
//! Linking is deliberately cheap — map construction and hashing, no
//! analysis. The division of labor is:
//!
//! 1. [`crate::summary::load_or_summarize`] produces one summary per
//!    method, pulling unchanged methods from the store and recomputing
//!    only methods whose content key misses (i.e. whose body changed);
//! 2. [`LinkedSummaries`] recombines them: each stage looks its
//!    per-method facts up in place ([`LinkedSummaries::summary`]) —
//!    dominance for the SHBG, const facts for the prefilter, access
//!    sites for the candidate stage — and the **analysis key**, the hash
//!    of all pointer digests, keys the whole points-to `Analysis`;
//! 3. the session replays only what the changed inputs require: an
//!    analysis-key hit skips the solver outright (zero worklist
//!    iterations), and the remaining stages are deterministic functions
//!    of the reused artifacts, so cold and warm runs are byte-identical.

use crate::summary::MethodSummary;
use apir::{Fnv64, MethodId, ProgramDigest};
use std::sync::Arc;

/// Work counters of the linking pass, reported in
/// [`crate::StageMetrics`] and asserted by the summary-reuse tests and
/// the counters golden. Excluded from the stable report
/// rendering: reuse changes work done, never results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Summaries served from the store (unchanged methods).
    pub summaries_reused: usize,
    /// Summaries recomputed (changed or first-seen methods).
    pub summaries_recomputed: usize,
    /// Summaries served from the corpus-shared framework layer (see
    /// [`crate::summary::load_or_summarize`]); disjoint from
    /// `summaries_reused`, which counts only per-app store hits. The
    /// layer's lookup and promotion are not one atomic step, so when
    /// parallel workers share a cold layer, two of them can both miss a
    /// framework key and both recompute it: the split between this and
    /// `summaries_recomputed` then depends on scheduling, while their
    /// sum with `summaries_reused` is always the number of methods with
    /// a body. Results never depend on it.
    pub summaries_shared: usize,
    /// Whether the whole points-to `Analysis` artifact was reused.
    pub analysis_reused: bool,
    /// Solver worklist iterations actually run this session (zero on an
    /// analysis-artifact hit).
    pub pointer_iterations_run: usize,
    /// Store lookups this session that found an analysis blob but could
    /// not decode it (torn, truncated, version-mismatched or with a bad
    /// payload); each costs one re-solve, never correctness.
    pub corrupt_misses: usize,
    /// Analysis blobs evicted this session to enforce `--cache-max-mb`.
    pub evictions: usize,
}

/// Per-method summaries linked for one program + config, with the
/// lookups and keys the downstream stages use.
#[derive(Debug)]
pub struct LinkedSummaries {
    /// The program's digests: its fingerprints and, per method with a
    /// body in id order, the body and pointer digests.
    pub digest: ProgramDigest,
    /// One summary per method with a body, index-aligned with
    /// `digest.methods`.
    pub summaries: Vec<Arc<MethodSummary>>,
    /// The config fingerprint the summaries were keyed with.
    pub config_fp: u64,
}

impl LinkedSummaries {
    /// The cache key of the whole points-to `Analysis`: structural and
    /// config fingerprints plus every method's pointer digest in id
    /// order. Methods whose digests all match a previous run build the
    /// identical constraint graph, so the artifact is interchangeable.
    pub fn analysis_key(&self) -> u64 {
        self.analysis_key_for(self.config_fp)
    }

    /// [`Self::analysis_key`] under another config fingerprint. Valid for
    /// any config that differs only in axes summaries do not read (the
    /// context selector): the comparison pass keys its hybrid-selector
    /// `Analysis` this way over the main pass's summaries.
    pub fn analysis_key_for(&self, config_fp: u64) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.digest.structural).write_u64(config_fp);
        for m in &self.digest.methods {
            h.write_u32(m.id.0).write_u64(m.digest.pointer);
        }
        h.finish()
    }

    /// The summary of `method`, or `None` when it has no body.
    pub fn summary(&self, method: MethodId) -> Option<&MethodSummary> {
        let i = self
            .digest
            .methods
            .binary_search_by_key(&method, |m| m.id)
            .ok()?;
        Some(&self.summaries[i])
    }
}
