//! The stage bodies the [`crate::AnalysisSession`] driver runs. Each
//! is a function from the stage's typed inputs to its output, writing
//! its work counters into the stats it is handed.

use crate::link::{analysis_key, link_reached, LinkStats, LinkedSummaries};
use crate::pipeline::{SierraConfig, StageMetrics};
use crate::report::{priority_of, RaceReport};
use crate::summary::{config_fingerprint, SummaryStore};
use apir::ProgramDigest;
use harness_gen::HarnessResult;
use histories::{HistoryModel, HistoryPattern, HistoryStats};
use pointer::{collect_accesses, Access, Analysis};
use prefilter::{PrunedPair, Verdict};
use shbg::Shbg;
use std::collections::HashMap;
use std::sync::Arc;
use symexec::Outcome;

/// The pointer stage: digests the program, reuses or solves the
/// points-to analysis under its key, audits its call graph, and then
/// links the summaries of the methods it reached (see `link.rs`).
/// Returns the analysis and the linked summaries.
pub(crate) fn link_and_solve(
    config: &SierraConfig,
    store: &dyn SummaryStore,
    shared: Option<&dyn SummaryStore>,
    harness: &HarnessResult,
    m: &mut StageMetrics,
) -> (Arc<Analysis>, LinkedSummaries) {
    let program = &harness.app.program;
    let (corrupt_before, evicted_before) = (store.corrupt_misses(), store.evictions());
    let digest = ProgramDigest::of(program);
    let (analysis, reused) = load_or_solve(config, store, harness, &digest);
    m.pointer = analysis.stats;
    // The audit runs under every policy (it is how `ignore`'s gap is
    // measured); its stats ride StageMetrics into tables and gates.
    m.soundness = soundness::audit(program, &analysis);
    let (linked, link) = link_reached(harness, &digest, &analysis, store, shared);
    // A reused analysis keeps its producing run's stats (reports stay
    // byte-identical); this session's work is in `link`.
    m.link = LinkStats {
        analysis_reused: reused,
        pointer_iterations_run: if reused {
            0
        } else {
            m.pointer.worklist_iterations
        },
        corrupt_misses: store.corrupt_misses() - corrupt_before,
        evictions: store.evictions() - evicted_before,
        ..link
    };
    (analysis, linked)
}

/// Gets the points-to `Analysis` of the config's selector and opaque
/// policy cached under its analysis key, or solves and caches it.
/// Returns the analysis and whether it was reused.
fn load_or_solve(
    config: &SierraConfig,
    store: &dyn SummaryStore,
    harness: &HarnessResult,
    digest: &ProgramDigest,
) -> (Arc<Analysis>, bool) {
    let fingerprint = config_fingerprint(config.selector, config.opaque_policy);
    let key = analysis_key(digest, fingerprint);
    if let Some(cached) = store.get_analysis(key, &harness.app.framework) {
        return (cached, true);
    }
    let analysis = Arc::new(pointer::analyze_opts(
        harness,
        config.selector,
        config.opaque_policy,
    ));
    store.put_analysis(key, Arc::clone(&analysis));
    (analysis, false)
}

/// Ranked race reports for the kept pairs that `outcomes` did not
/// refute.
pub(crate) fn race_reports(
    program: &apir::Program,
    kept: &[(Access, Access)],
    outcomes: Vec<Outcome>,
) -> Vec<RaceReport> {
    let mut races: Vec<RaceReport> = kept
        .iter()
        .zip(outcomes)
        .filter(|(_, outcome)| *outcome != Outcome::Refuted)
        .map(|((a, b), outcome)| RaceReport {
            a: a.clone(),
            b: b.clone(),
            field: a.field,
            outcome,
            priority: priority_of(program, a, b),
            pointer_field: program.field(a.field).ty.is_reference(),
            triage: None,
        })
        .collect();
    races.sort_by_key(|r| r.rank_key());
    races
}

/// Splits `races` into those whose two callbacks some realizable event
/// history reaches together and the pairs none does, each with its
/// [`Verdict::History`].
pub(crate) fn discharge_histories(
    model: &HistoryModel,
    races: &[RaceReport],
    stats: &mut HistoryStats,
) -> (Vec<RaceReport>, Vec<PrunedPair>) {
    let mut kept = Vec::with_capacity(races.len());
    let mut pruned = Vec::new();
    for race in races {
        let check = model.check_pair(race.a.action, race.b.action);
        if check.checked {
            stats.pairs_checked += 1;
            stats.product_edges += check.product_edges;
        }
        let Some((pattern, action)) = check.refuted else {
            kept.push(race.clone());
            continue;
        };
        *match pattern {
            HistoryPattern::UnregisteredBeforePosted => &mut stats.discharged_unregistered,
            HistoryPattern::DestroyDominates => &mut stats.discharged_destroy,
            HistoryPattern::PauseQuiesced => &mut stats.discharged_pause,
        } += 1;
        pruned.push(PrunedPair {
            a: race.a.clone(),
            b: race.b.clone(),
            verdict: Verdict::History { pattern, action },
        });
    }
    (kept, pruned)
}

/// Annotates each race with its harm verdict and drops those below
/// `min_harm`.
pub(crate) fn triage_races(
    program: &apir::Program,
    analysis: &Analysis,
    graph: &Shbg,
    accesses: &[Access],
    races: &[RaceReport],
    min_harm: Option<triage::Harm>,
) -> (Vec<RaceReport>, triage::TriageStats) {
    let pairs: Vec<(Access, Access)> = races.iter().map(|r| (r.a.clone(), r.b.clone())).collect();
    let (verdicts, stats) = triage::classify_races(program, analysis, graph, accesses, &pairs);
    let mut races = races.to_vec();
    for (race, verdict) in races.iter_mut().zip(verdicts) {
        race.triage = Some(verdict);
    }
    if let Some(min) = min_harm {
        races.retain(|r| r.triage.as_ref().is_some_and(|t| t.harm >= min));
    }
    (races, stats)
}

/// Instantiates the linked access sites against `analysis`, one
/// representative per `(action, addr)`.
pub(crate) fn linked_accesses(
    harness: &HarnessResult,
    analysis: &Analysis,
    linked: &LinkedSummaries,
) -> Vec<Access> {
    dedupe(collect_accesses(
        analysis,
        &harness.app.program,
        Some(harness.harness_class),
        |m| &linked.summary(m).sites,
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
pub(crate) fn racy_pairs<'a>(
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
