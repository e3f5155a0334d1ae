//! # prefilter — pre-refutation static pruning of candidate racy pairs
//!
//! SIERRA's pipeline spends most of its time in backward symbolic
//! refutation (§5), yet many candidate pairs are refutable by far cheaper
//! flow-aware static reasoning. This crate sits between candidate
//! generation and the refuter (`harness → pointer → shbg → candidates →
//! prefilter → refute`) and runs three cooperating analyses:
//!
//! 1. **Action-local escape analysis** ([`escape`]): an object whose
//!    points-to closure never leaves the locals of its allocating action's
//!    transitive call region cannot be touched by two different actions,
//!    so candidate pairs whose shared base objects are all non-escaping
//!    are pruned with [`Verdict::NonEscaping`].
//! 2. **Dominator-based guard detection** ([`guard`]): an access dominated
//!    by a branch on a *write-once* boolean / null-checked field whose
//!    only assignment is HB-ordered against the access's action is either
//!    dead or one-sided-ordered against its partner; such pairs are pruned
//!    with [`Verdict::Guarded`].
//! 3. **Intraprocedural constant/branch pruning** ([`constprop`]): a
//!    sparse conditional constant propagation marks statically-infeasible
//!    branch edges. Accesses in dead blocks are pruned with
//!    [`Verdict::ConstProp`], and the edge set is exported (as
//!    [`apir::InfeasibleEdges`]) so the symbolic refuter skips infeasible
//!    paths and converges in fewer steps.
//!
//! Every pruned pair carries a machine-checkable [`Verdict`] so that
//! reports (and the soundness regression tests) can audit exactly why a
//! pair never reached the refuter.

pub mod constprop;
pub mod escape;
pub mod guard;

use android_model::ActionId;
use apir::{FieldId, InfeasibleEdges, MethodId, Program, StmtAddr};
use pointer::{Access, Analysis, ObjId};
use shbg::Shbg;
use std::collections::HashSet;

/// Why a candidate pair was pruned before refutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every base object shared by the two accesses is confined to its
    /// allocating action: it is never published to the heap, never the
    /// receiver of a posted action, and never handed to an unmodeled or
    /// cross-action callee.
    NonEscaping {
        /// A witness confined object (the smallest shared base).
        obj: ObjId,
    },
    /// One access is dominated by a branch on a write-once guard field
    /// whose unique store is HB-ordered such that the guarded path (or
    /// one whole pair direction) is infeasible.
    Guarded {
        /// The write-once guard field.
        guard: FieldId,
        /// The action containing the guard's unique store.
        writer: ActionId,
    },
    /// One access sits in a block proven unreachable by intraprocedural
    /// constant propagation (e.g. under an always-false branch).
    ConstProp {
        /// The dead access.
        dead: StmtAddr,
    },
    /// The pair's two callbacks are not jointly reachable in both
    /// orders under any realizable message history of the lifecycle
    /// automaton (discharged by the `histories` stage, which runs
    /// *after* the symbolic refuter).
    History {
        /// The refutation pattern that discharged the pair.
        pattern: histories::HistoryPattern,
        /// The action the pattern blames (the unpostable, quiesced, or
        /// destroy-separated side).
        action: ActionId,
    },
}

impl Verdict {
    /// Human-readable reason, resolving ids against `program`.
    pub fn describe(&self, program: &Program) -> String {
        match *self {
            Verdict::NonEscaping { obj } => {
                format!("non-escaping object obj{}", obj.0)
            }
            Verdict::Guarded { guard, writer } => {
                let f = program.field(guard);
                format!(
                    "guarded by write-once {}.{} (writer action {})",
                    program.class_name(f.class),
                    program.name(f.name),
                    writer.index()
                )
            }
            Verdict::ConstProp { dead } => {
                format!(
                    "constant-dead access at {}:bb{}:{}",
                    program.method_name(dead.method),
                    dead.block.index(),
                    dead.stmt
                )
            }
            Verdict::History { pattern, action } => {
                format!(
                    "unrealizable ordering ({}, action {})",
                    pattern.tag(),
                    action.index()
                )
            }
        }
    }

    /// Short machine tag (`escape` / `guarded` / `constprop` / `history`).
    pub fn tag(&self) -> &'static str {
        match self {
            Verdict::NonEscaping { .. } => "escape",
            Verdict::Guarded { .. } => "guarded",
            Verdict::ConstProp { .. } => "constprop",
            Verdict::History { .. } => "history",
        }
    }
}

/// A candidate pair removed by the prefilter, with its reason.
#[derive(Debug, Clone)]
pub struct PrunedPair {
    /// First access of the pruned pair.
    pub a: Access,
    /// Second access of the pruned pair.
    pub b: Access,
    /// Why the pair cannot race.
    pub verdict: Verdict,
}

/// Counters for the prefilter stage (flows into Table 4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefilterStats {
    /// Pairs pruned by the escape analysis.
    pub pruned_escape: usize,
    /// Pairs pruned by guard detection.
    pub pruned_guarded: usize,
    /// Pairs pruned by constant/branch pruning.
    pub pruned_constprop: usize,
    /// Statically-infeasible branch edges found (exported to the refuter).
    pub infeasible_edges: usize,
}

impl PrefilterStats {
    /// Total pairs pruned across all three analyses.
    pub fn pruned_total(&self) -> usize {
        self.pruned_escape + self.pruned_guarded + self.pruned_constprop
    }
}

/// The outcome of running the prefilter over a candidate set.
#[derive(Debug, Clone)]
pub struct PrefilterResult {
    /// Candidate pairs that survive to refutation, in input order.
    pub kept: Vec<(Access, Access)>,
    /// Pruned pairs with their verdicts, in input order.
    pub pruned: Vec<PrunedPair>,
    /// Statically-infeasible branch edges over all reachable methods.
    pub infeasible: InfeasibleEdges,
    /// Stage counters.
    pub stats: PrefilterStats,
}

/// Runs the three pruning analyses over `candidates`, with each
/// method's constant-propagation facts supplied by the summary layer
/// (`None` for a method without a body).
///
/// The result partitions the input: `kept ∪ pruned == candidates`, order
/// preserved within each part. Analyses are tried per pair in a fixed
/// order (escape, then guard, then constprop) so verdict counts are
/// deterministic. Infeasible edges are exported for every method
/// reachable in `analysis`.
pub fn run<'f>(
    program: &Program,
    analysis: &Analysis,
    graph: &Shbg,
    candidates: &[(Access, Access)],
    const_facts: impl Fn(MethodId) -> Option<&'f constprop::ConstFacts>,
) -> PrefilterResult {
    let confined = escape::non_escaping_objects(program, analysis);
    let mut guards = guard::GuardAnalysis::new(program, analysis, graph);

    let mut infeasible = InfeasibleEdges::new();
    let reachable: HashSet<MethodId> = analysis.reachable.iter().map(|&(m, _)| m).collect();
    for m in reachable {
        for &(from, to) in const_facts(m).map_or(&[][..], |f| &f.infeasible) {
            infeasible.insert(m, from, to);
        }
    }

    let mut stats = PrefilterStats {
        infeasible_edges: infeasible.len(),
        ..PrefilterStats::default()
    };
    let mut kept = Vec::new();
    let mut pruned = Vec::new();
    for (a, b) in candidates {
        let verdict = escape_verdict(&confined, a, b)
            .or_else(|| guards.pair_verdict(a, b))
            .or_else(|| constprop_verdict(&const_facts, a, b));
        match verdict {
            Some(verdict) => {
                match verdict {
                    Verdict::NonEscaping { .. } => stats.pruned_escape += 1,
                    Verdict::Guarded { .. } => stats.pruned_guarded += 1,
                    Verdict::ConstProp { .. } => stats.pruned_constprop += 1,
                    // The prefilter's own analyses never emit History;
                    // the histories stage appends those pairs later.
                    Verdict::History { .. } => {}
                }
                pruned.push(PrunedPair {
                    a: a.clone(),
                    b: b.clone(),
                    verdict,
                });
            }
            None => kept.push((a.clone(), b.clone())),
        }
    }
    PrefilterResult {
        kept,
        pruned,
        infeasible,
        stats,
    }
}

/// Escape check: all shared base objects confined ⇒ the two actions can
/// never alias a concrete instance, so the pair cannot race.
fn escape_verdict(
    confined: &std::collections::HashSet<ObjId>,
    a: &Access,
    b: &Access,
) -> Option<Verdict> {
    if a.is_static || b.is_static {
        return None;
    }
    let shared: Vec<ObjId> = a
        .base
        .iter()
        .filter(|o| b.base.contains(o))
        .copied()
        .collect();
    if shared.is_empty() || !shared.iter().all(|o| confined.contains(o)) {
        return None;
    }
    let obj = shared.into_iter().min_by_key(|o| o.0)?;
    Some(Verdict::NonEscaping { obj })
}

/// Constant-propagation check: an access inside a dead block never
/// executes, so any pair containing it is vacuous.
fn constprop_verdict<'f>(
    facts: &impl Fn(MethodId) -> Option<&'f constprop::ConstFacts>,
    a: &Access,
    b: &Access,
) -> Option<Verdict> {
    for x in [a, b] {
        if let Some(f) = facts(x.method) {
            if f.is_dead(x.addr.block) {
                return Some(Verdict::ConstProp { dead: x.addr });
            }
        }
    }
    None
}

#[cfg(test)]
mod tests;
