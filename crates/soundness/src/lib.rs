//! # soundness — call-graph soundness audit
//!
//! Samhi et al. ("Call Graph Soundness in Android Static Analysis") show
//! that Android call graphs silently drop large fractions of app methods
//! behind reflection, intent dispatch, and bodyless framework calls —
//! and that published analyses rarely *measure* the gap. This crate is
//! the measuring stage: after the pointer solve it walks the solved call
//! graph and
//!
//! 1. classifies every call site the solver left without targets by
//!    *reason* — reflective lookup, inter-component intent dispatch,
//!    bodyless framework method, or an ordinary virtual call whose
//!    receiver points-to set stayed empty — and
//! 2. computes **reachable-callback recall**: of the app-declared
//!    framework-callback overrides (the harness's known-callback ground
//!    truth — every method the Android framework could invoke), what
//!    fraction did the call graph actually reach?
//!
//! The counters land in [`SoundnessStats`], which the pipeline carries
//! through `StageMetrics` into the experiments tables and the counters
//! golden (`tests/golden/counters.txt`), making the `ignore`/`resolve`/
//! `havoc` opaque-policy tradeoff measurable instead of implicit.

use android_model::FrameworkOp;
use apir::{ClassId, MethodId, Origin, Program, Stmt, Symbol};
use pointer::Analysis;
use std::collections::HashSet;

/// Counters of one app's call-graph soundness audit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SoundnessStats {
    /// App-declared framework-callback overrides with bodies — methods
    /// the framework could invoke, known soundly by construction.
    pub known_callbacks: usize,
    /// Known callbacks the solved call graph reached.
    pub reachable_callbacks: usize,
    /// Call sites in reachable code with no resolved targets (the sum of
    /// the four reason counters below).
    pub unresolved_sites: usize,
    /// Unresolved reflective sites (`Class.forName`/`newInstance`/
    /// `invoke`) the active policy did not discharge.
    pub reflective_sites: usize,
    /// Unresolved inter-component intent dispatches (`setClass`/
    /// `startActivity`/`sendBroadcast`) the active policy did not
    /// discharge.
    pub intent_sites: usize,
    /// Calls to bodyless framework methods outside the modeled
    /// [`FrameworkOp`] set — opaque by construction.
    pub bodyless_framework_sites: usize,
    /// Ordinary calls whose receiver points-to set produced no concrete
    /// target (empty points-to set or bodyless app declaration).
    pub no_receiver_sites: usize,
}

impl SoundnessStats {
    /// Reachable-callback recall in percent (100 when no callbacks are
    /// known — an app the framework cannot call into has nothing to
    /// miss).
    pub fn recall_pct(&self) -> f64 {
        if self.known_callbacks == 0 {
            100.0
        } else {
            100.0 * self.reachable_callbacks as f64 / self.known_callbacks as f64
        }
    }
}

/// Audits a solved analysis against its program.
///
/// `program` must be the program the analysis was solved over (the
/// harnessed app), so method/class ids line up.
pub fn audit(program: &Program, analysis: &Analysis) -> SoundnessStats {
    let mut stats = SoundnessStats::default();
    let fw = analysis.framework();

    // Known-callback ground truth: app-origin methods with bodies that
    // override a framework-declared method somewhere in their class's
    // super/interface hierarchy.
    let reachable_methods: HashSet<MethodId> = analysis.reachable.iter().map(|&(m, _)| m).collect();
    for class in program.classes() {
        if class.origin != Origin::App {
            continue;
        }
        let decls = framework_decl_names(program, class.id);
        for &m in &class.methods {
            let method = program.method(m);
            if !method.has_body() || !decls.contains(&method.name) {
                continue;
            }
            stats.known_callbacks += 1;
            if reachable_methods.contains(&m) {
                stats.reachable_callbacks += 1;
            }
        }
    }

    // Sites with at least one resolved callee, in any context.
    let resolved_by_cg: HashSet<apir::CallSiteId> = analysis
        .cg_edges
        .iter()
        .filter(|(_, callees)| !callees.is_empty())
        .map(|(&(_, _, site), _)| site)
        .collect();

    for &m in &reachable_methods {
        let method = program.method(m);
        if !method.has_body() {
            continue;
        }
        for (_, stmt) in method.iter_stmts() {
            let Stmt::Call { site, callee, .. } = stmt else {
                continue;
            };
            if let Some(op) = FrameworkOp::classify(fw, *callee) {
                if !op.is_policy_gated() || analysis.resolved_sites.contains(site) {
                    continue;
                }
                stats.unresolved_sites += 1;
                if op.is_reflective() {
                    stats.reflective_sites += 1;
                } else {
                    stats.intent_sites += 1;
                }
                continue;
            }
            if resolved_by_cg.contains(site) {
                continue;
            }
            stats.unresolved_sites += 1;
            let target = program.method(*callee);
            if !target.has_body() && program.class(target.class).origin == Origin::Framework {
                stats.bodyless_framework_sites += 1;
            } else {
                stats.no_receiver_sites += 1;
            }
        }
    }
    stats
}

/// All method names declared by framework-origin classes in `class`'s
/// super/interface hierarchy (the override surface the framework can
/// call through).
fn framework_decl_names(program: &Program, class: ClassId) -> HashSet<Symbol> {
    let mut names = HashSet::new();
    let mut stack = vec![class];
    let mut seen = HashSet::new();
    while let Some(c) = stack.pop() {
        if !seen.insert(c) {
            continue;
        }
        let data = program.class(c);
        if data.origin == Origin::Framework {
            for &m in &data.methods {
                names.insert(program.method(m).name);
            }
        }
        stack.extend(data.super_class);
        stack.extend(data.interfaces.iter().copied());
    }
    names
}

#[cfg(test)]
mod tests;
