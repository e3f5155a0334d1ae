//! The linking pass: recombines per-method summaries into the
//! whole-program inputs each stage consumes.
//!
//! Linking is deliberately cheap — map construction and hashing, no
//! analysis. The division of labor is:
//!
//! 1. [`crate::summary::load_or_summarize`] produces one summary per
//!    method, pulling unchanged methods from the store and recomputing
//!    only methods whose content key misses (i.e. whose body changed);
//! 2. [`LinkedSummaries`] recombines them: a dominance map for the SHBG,
//!    const facts for the prefilter, access sites for the candidate
//!    stage, and the **analysis key** — the hash of all pointer digests
//!    — under which the whole points-to `Analysis` is cached;
//! 3. the session replays only what the changed inputs require: an
//!    analysis-key hit skips the solver outright (zero worklist
//!    iterations), and the remaining stages are deterministic functions
//!    of the reused artifacts, so cold and warm runs are byte-identical.

use crate::summary::MethodSummary;
use apir::MethodId;
use pointer::{AccessSite, Analysis, Fnv64};
use prefilter::constprop::ConstFacts;
use shbg::CallDominance;
use std::collections::{HashMap, HashSet};
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
    /// `summaries_reused`, which counts only per-app store hits.
    pub summaries_shared: usize,
    /// Whether the whole points-to `Analysis` artifact was reused.
    pub analysis_reused: bool,
    /// Solver worklist iterations actually run this session (zero on an
    /// analysis-artifact hit).
    pub pointer_iterations_run: usize,
    /// Store lookups this session that found an entry but could not
    /// parse it (torn/truncated/version-mismatched cache files); each
    /// corrupt entry costs one recomputation, never correctness.
    pub corrupt_misses: usize,
    /// Store entries evicted this session to enforce `--cache-max-mb`.
    pub evictions: usize,
}

/// Per-method summaries linked for one program + config, with the
/// recombination views the downstream stages consume.
#[derive(Debug)]
pub struct LinkedSummaries {
    /// One summary per method with a body, in method-id order.
    pub methods: Vec<(MethodId, Arc<MethodSummary>)>,
    /// The program's structural fingerprint.
    pub structural_fp: u64,
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
        h.write_u64(self.structural_fp).write_u64(config_fp);
        for (id, s) in &self.methods {
            h.write_u64(u64::from(id.0)).write_u64(s.pointer_digest);
        }
        h.finish()
    }

    /// Dominance facts keyed by method, for
    /// [`shbg::build_with_dominance`].
    pub fn dominance_map(&self) -> HashMap<MethodId, CallDominance> {
        self.methods
            .iter()
            .map(|(id, s)| (*id, s.dominance.clone()))
            .collect()
    }

    /// Access sites keyed by method, for
    /// [`pointer::collect_accesses_from_sites`].
    pub fn sites_map(&self) -> HashMap<MethodId, Vec<AccessSite>> {
        self.methods
            .iter()
            .map(|(id, s)| (*id, s.sites.clone()))
            .collect()
    }

    /// Constant-propagation facts for the methods reachable in
    /// `analysis`, replicating [`prefilter::constprop::analyze_reachable`]
    /// exactly (reachable methods only, empty fact sets omitted) so the
    /// prefilter's verdicts and infeasible-edge export are identical to
    /// the non-summary path.
    pub fn const_facts_for(&self, analysis: &Analysis) -> HashMap<MethodId, ConstFacts> {
        let reachable: HashSet<MethodId> = analysis.reachable.iter().map(|&(m, _)| m).collect();
        let mut out = HashMap::new();
        for (id, s) in &self.methods {
            if !reachable.contains(id) {
                continue;
            }
            if s.consts.infeasible.is_empty() && s.consts.dead_blocks.is_empty() {
                continue;
            }
            out.insert(*id, s.consts.clone());
        }
        out
    }
}
