//! The linking pass. The pointer stage solves first and links after:
//!
//! 1. digest the program ([`ProgramDigest::of`]);
//! 2. derive the [`analysis_key`] from the digest and the config
//!    fingerprint;
//! 3. reuse the points-to `Analysis` cached under that key, or solve and
//!    cache it; then audit its call graph;
//! 4. link ([`link_reached`]) the summary of each method with a body that
//!    the analysis reached, in ascending id order, from the store by
//!    content key; only a changed or first-seen body is summarized.
//!
//! As in the paper, HB edges (§4) and racy accesses (§4.1) come only from
//! reached code, so the later stages look their facts up in
//! [`LinkedSummaries`] with no fallback. Cold and warm runs link the same
//! summaries, so their reports are byte-identical.

use crate::summary::{summarize_method, summary_key, MethodSummary, SummaryStore};
use apir::{Fnv64, MethodId, ProgramDigest};
use harness_gen::HarnessResult;
use pointer::Analysis;
use std::sync::Arc;

/// Work counters of the pointer stage's reuse, reported in
/// [`crate::StageMetrics`] and asserted by the summary-reuse tests and
/// the counters golden. Excluded from the stable report
/// rendering: reuse changes work done, never results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Summaries of reached methods served from the store (unchanged
    /// methods).
    pub summaries_reused: usize,
    /// Summaries of reached methods computed this session (changed or
    /// first-seen methods).
    pub summaries_recomputed: usize,
    /// Summaries of reached methods served from the corpus-shared
    /// framework layer ([`crate::SessionBuilder::shared_store`]);
    /// disjoint from `summaries_reused`, which counts only per-app store
    /// hits. The layer's lookup and promotion are not one atomic step,
    /// so when parallel workers share a cold layer, two of them can both
    /// miss a framework key and both recompute it: the split between
    /// this and `summaries_recomputed` then depends on scheduling, while
    /// their sum with `summaries_reused` is always the number of reached
    /// methods with a body. Results never depend on it.
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

/// The cache key of the whole points-to `Analysis` under config
/// fingerprint `config_fp` ([`crate::summary::config_fingerprint`]): the
/// structural and config fingerprints plus every method's pointer digest
/// in id order. Methods whose digests all match a previous run build the
/// identical constraint graph, so the artifact is interchangeable. The
/// main and comparison passes both key their analyses here.
pub(crate) fn analysis_key(digest: &ProgramDigest, config_fp: u64) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(digest.structural).write_u64(config_fp);
    for m in &digest.methods {
        h.write_u32(m.id.0).write_u64(m.digest.pointer);
    }
    h.finish()
}

/// The summaries of the methods with a body that one points-to analysis
/// reached, in ascending id order.
#[derive(Debug)]
pub(crate) struct LinkedSummaries {
    summaries: Vec<(MethodId, Arc<MethodSummary>)>,
}

impl LinkedSummaries {
    /// The summary of `method`.
    ///
    /// # Panics
    ///
    /// If `method` has no body or the analysis did not reach it: every
    /// stage asks only about reached bodies.
    pub(crate) fn summary(&self, method: MethodId) -> &MethodSummary {
        let i = self
            .summaries
            .binary_search_by_key(&method, |(m, _)| *m)
            .unwrap_or_else(|_| panic!("method {method:?} is not a reached body"));
        &self.summaries[i].1
    }
}

/// Links the summary of every method with a body that `analysis`
/// reached, in ascending id order, consulting `store` by content key
/// and, for framework methods whose bodies name only framework
/// entities, `shared` first under the framework-scoped key. A miss
/// summarizes the method and puts it in `store`; a shared miss also
/// promotes the summary into `shared`, so across a corpus each reached
/// framework method is summarized once. Shared-layer hits count toward
/// `summaries_shared` only, keeping `summaries_reused` comparable with
/// and without a shared store.
pub(crate) fn link_reached(
    harness: &HarnessResult,
    digest: &ProgramDigest,
    analysis: &Analysis,
    store: &dyn SummaryStore,
    shared: Option<&dyn SummaryStore>,
) -> (LinkedSummaries, LinkStats) {
    let program = &harness.app.program;
    let mut reached = vec![false; program.methods().len()];
    for &(m, _) in &analysis.reachable {
        reached[m.index()] = true;
    }
    let mut stats = LinkStats::default();
    let mut summaries = Vec::new();
    // `digest.methods` lists exactly the methods with a body, in id order.
    for m in digest.methods.iter().filter(|m| reached[m.id.index()]) {
        let key = summary_key(digest.structural, m.digest.body);
        // Framework methods additionally live in the shared layer under
        // a key independent of this app's app/library code.
        let shared_key = shared
            .filter(|_| m.framework_only)
            .map(|sh| (sh, summary_key(digest.framework, m.digest.body)));
        if let Some(s) = shared_key.and_then(|(sh, sk)| sh.get(sk)) {
            stats.summaries_shared += 1;
            summaries.push((m.id, s));
            continue;
        }
        let summary = match store.get(key) {
            Some(s) => {
                stats.summaries_reused += 1;
                s
            }
            None => {
                stats.summaries_recomputed += 1;
                let s = Arc::new(summarize_method(program, &harness.app.framework, m.id));
                store.put(key, Arc::clone(&s));
                s
            }
        };
        if let Some((sh, sk)) = shared_key {
            sh.put(sk, Arc::clone(&summary));
        }
        summaries.push((m.id, summary));
    }
    (LinkedSummaries { summaries }, stats)
}
