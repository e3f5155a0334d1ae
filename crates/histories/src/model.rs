//! The per-app history model: occurrence sets, dead callbacks, and the
//! pair-level product check.

use crate::automaton::{LifeState, LifecycleAutomaton, StateSet};
use crate::discover::{discover, Discovered};
use crate::{HistoryPattern, HistoryStats};
use android_model::{ActionId, ActionKind, FrameworkClasses};
use apir::{ClassId, Program};
use pointer::Analysis;
use std::collections::HashSet;

/// Per-action facts derived from the automaton.
#[derive(Debug, Clone, Copy)]
struct ActionFacts {
    /// States in which the action can be dispatched (empty = dead).
    occ: StateSet,
    /// Whether a discovered closing call narrowed the occurrence set
    /// below the plain closure of its sources.
    narrowed: bool,
    /// Whether the action participates in history checks at all
    /// (main-looper, not the harness root).
    relevant: bool,
    /// Whether the action is itself a lifecycle callback.
    lifecycle: bool,
    /// The harness (component) the action belongs to.
    harness: ClassId,
}

/// Result of checking one pair against the history model.
#[derive(Debug, Clone, Copy, Default)]
pub struct PairCheck {
    /// Whether the pair was actually subjected to the product check
    /// (both sides relevant, same component, not lifecycle-vs-lifecycle).
    pub checked: bool,
    /// Size of the occurrence-set product explored (`|occ(a)|·|occ(b)|`).
    pub product_edges: usize,
    /// A refutation, when one order (or both) is unrealizable:
    /// the discharging pattern and the action it blames.
    pub refuted: Option<(HistoryPattern, ActionId)>,
}

/// The history model of one app: the shared event-order automaton plus
/// an occurrence set per action.
#[derive(Debug)]
pub struct HistoryModel {
    automaton: LifecycleAutomaton,
    facts: Vec<ActionFacts>,
    stats: HistoryStats,
}

impl HistoryModel {
    /// Builds the model: discovers closing calls, solves the occurrence
    /// recursion over the action graph, and counts dead callbacks.
    pub fn build(program: &Program, fw: &FrameworkClasses, analysis: &Analysis) -> HistoryModel {
        let automaton = LifecycleAutomaton::new();
        let discovered = discover(program, fw, analysis);
        let n = analysis.actions.len();
        let mut occ: Vec<Option<StateSet>> = vec![None; n];
        let mut narrowed = vec![false; n];
        let mut visiting = vec![false; n];
        for id in analysis.actions.ids() {
            solve_occ(
                &automaton,
                analysis,
                &discovered,
                id,
                &mut occ,
                &mut narrowed,
                &mut visiting,
            );
        }

        let mut facts = Vec::with_capacity(n);
        let mut components: HashSet<ClassId> = HashSet::new();
        for id in analysis.actions.ids() {
            let act = analysis.actions.action(id);
            components.insert(act.harness);
            let relevant = act.on_main() && !matches!(act.kind, ActionKind::HarnessRoot);
            facts.push(ActionFacts {
                occ: occ[id.index()].unwrap_or(StateSet::FULL),
                narrowed: narrowed[id.index()],
                relevant,
                // Instance 0 marks a policy-spawned component launch
                // (intent resolution): its ordering is *not* fixed by
                // this harness's lifecycle chain, so it must not hide
                // behind the lifecycle-vs-lifecycle exclusion below.
                lifecycle: matches!(
                    act.kind,
                    ActionKind::Lifecycle { instance, .. } if instance > 0
                ),
                harness: act.harness,
            });
        }

        // Dead callbacks: relevant actions whose occurrence set is
        // empty. Their bodies never execute under any realizable history.
        let dead = analysis
            .actions
            .ids()
            .filter(|id| facts[id.index()].relevant && facts[id.index()].occ.is_empty())
            .count();
        let stats = HistoryStats {
            automaton_states: automaton.state_count() * components.len(),
            automaton_edges: automaton.edge_count() * components.len(),
            components: components.len(),
            dead_callbacks: dead,
            ..HistoryStats::default()
        };
        HistoryModel {
            automaton,
            facts,
            stats,
        }
    }

    /// Build-time counters (automaton size, components, dead callbacks).
    pub fn stats(&self) -> HistoryStats {
        self.stats
    }

    /// Checks one surviving pair for joint reachability under a
    /// realizable history.
    ///
    /// The product construction degenerates pleasantly under the
    /// bounded history abstraction: order `a → b` is realizable iff
    /// some state where `b` can be dispatched is automaton-reachable
    /// from some state where `a` can be — i.e. `closure(occ(a))`
    /// intersects `occ(b)`. A pair is refuted when at least one of the
    /// two orders is unrealizable (the pair is then protocol-ordered or
    /// dead, not racy).
    pub fn check_pair(&self, a: ActionId, b: ActionId) -> PairCheck {
        let fa = self.facts[a.index()];
        let fb = self.facts[b.index()];
        // Lifecycle-vs-lifecycle pairs are the harness CFG's own
        // ordering problem (the happens-before graph already models
        // it exactly); re-judging them here would double-count.
        if a == b
            || !fa.relevant
            || !fb.relevant
            || fa.harness != fb.harness
            || (fa.lifecycle && fb.lifecycle)
        {
            return PairCheck::default();
        }
        if fa.occ.is_empty() {
            return PairCheck {
                checked: true,
                product_edges: 0,
                refuted: Some((HistoryPattern::UnregisteredBeforePosted, a)),
            };
        }
        if fb.occ.is_empty() {
            return PairCheck {
                checked: true,
                product_edges: 0,
                refuted: Some((HistoryPattern::UnregisteredBeforePosted, b)),
            };
        }
        let product_edges = fa.occ.len() * fb.occ.len();
        let ab = self.automaton.closure(fa.occ).intersects(fb.occ);
        let ba = self.automaton.closure(fb.occ).intersects(fa.occ);
        if ab && ba {
            return PairCheck {
                checked: true,
                product_edges,
                refuted: None,
            };
        }
        // One order is unrealizable. Blame the action that cannot come
        // first, and classify: a window narrowed by a discovered
        // closing call is the pause-quiesced shape; otherwise the
        // separation comes from the terminal destroy region.
        let blamed = if !ab { a } else { b };
        let pattern = if fa.narrowed || fb.narrowed {
            HistoryPattern::PauseQuiesced
        } else {
            HistoryPattern::DestroyDominates
        };
        let action = if pattern == HistoryPattern::PauseQuiesced {
            if fa.narrowed {
                a
            } else {
                b
            }
        } else {
            blamed
        };
        PairCheck {
            checked: true,
            product_edges,
            refuted: Some((pattern, action)),
        }
    }
}

/// Memoized occurrence recursion over the action graph.
///
/// - Lifecycle callbacks of the harness's own chain (instance ≥ 1)
///   occur exactly in their automaton target state; GUI callbacks occur
///   in the interactive `Resumed` loop. Policy-spawned component
///   launches (lifecycle instance 0) are posted actions, not chain
///   members, and take the posted-action rule below.
/// - Background actions and the harness root occur "anywhere" (FULL) —
///   they are also marked irrelevant, so FULL only matters when they
///   appear as posters of main-looper actions, where it is the sound
///   choice.
/// - A posted/registered main-looper action occurs in the forward
///   closure of its sources' occurrence states; when *all* sources are
///   lifecycle/GUI callbacks (so the seed states are exact, not already
///   closed) and a closing call was discovered, the closure is replaced
///   by the registration window, which may be empty (dead).
/// - Post cycles (mutually-posting runnables) are cut conservatively:
///   an in-progress action contributes FULL.
fn solve_occ(
    automaton: &LifecycleAutomaton,
    analysis: &Analysis,
    discovered: &Discovered,
    id: ActionId,
    occ: &mut [Option<StateSet>],
    narrowed: &mut [bool],
    visiting: &mut [bool],
) -> StateSet {
    if let Some(v) = occ[id.index()] {
        return v;
    }
    if visiting[id.index()] {
        return StateSet::FULL;
    }
    visiting[id.index()] = true;
    let act = analysis.actions.action(id);
    let v = match act.kind {
        // Instance 0 is a spawned *other* component's lifecycle entry
        // (intent resolution under the resolve/havoc policies): the
        // sender's automaton says nothing about when the launched
        // component runs, so it is treated like any posted action —
        // deliverable in the forward closure of its posters' states
        // (the default arm below).
        ActionKind::Lifecycle { event, instance } if instance > 0 => {
            StateSet::singleton(automaton.target_of(event, instance))
        }
        ActionKind::Gui { .. } => StateSet::singleton(LifeState::Resumed),
        ActionKind::HarnessRoot
        | ActionKind::ThreadRun
        | ActionKind::AsyncTaskBg
        | ActionKind::ExecutorRun
        | ActionKind::TimerTask => StateSet::FULL,
        _ => {
            let mut sources: Vec<ActionId> = act.posters.clone();
            if let Some(p) = act.parent {
                sources.push(p);
            }
            sources.sort();
            sources.dedup();
            sources.retain(|&s| s != id);
            if sources.is_empty() {
                StateSet::FULL
            } else {
                let exact_sources = sources.iter().all(|&s| {
                    matches!(
                        analysis.actions.action(s).kind,
                        ActionKind::Lifecycle { .. } | ActionKind::Gui { .. }
                    )
                });
                let seed = sources.iter().fold(StateSet::EMPTY, |acc, &s| {
                    acc.union(solve_occ(
                        automaton, analysis, discovered, s, occ, narrowed, visiting,
                    ))
                });
                match discovered.kills.get(&id) {
                    Some(events) if exact_sources && !events.is_empty() => {
                        narrowed[id.index()] = true;
                        let kill = events.iter().fold(StateSet::EMPTY, |acc, &e| {
                            acc.with(automaton.target_of(e, 1))
                        });
                        automaton.window(seed, kill)
                    }
                    _ => automaton.closure(seed),
                }
            }
        }
    };
    visiting[id.index()] = false;
    occ[id.index()] = Some(v);
    v
}
