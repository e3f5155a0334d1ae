//! The work counters each stage records, listed once.
//!
//! [`COUNTER_GROUPS`] names every [`StageMetrics`] counter a result
//! surface shows as a number. The report JSON's groups, serve's `stage`
//! events and the counters golden (`tests/golden/counters.txt`) all
//! read it, so a counter added here appears in all three. The text
//! rendering stays hand-written prose.

use crate::json::Json;
use crate::pipeline::{Stage, StageMetrics};
use Counter::{Count, Flag, Percent};

/// One counter's value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Counter {
    /// An amount of work done or of things found.
    Count(usize),
    /// A yes/no fact about the run.
    Flag(bool),
    /// A percentage.
    Percent(f64),
}

impl Counter {
    /// The value as JSON: a number or a boolean.
    pub fn to_json(self) -> Json {
        match self {
            Count(n) => Json::Num(n as f64),
            Flag(b) => Json::Bool(b),
            Percent(p) => Json::Num(p),
        }
    }

    /// The value as a number; a flag reads 1 or 0.
    pub fn value(self) -> f64 {
        match self {
            Count(n) => n as f64,
            Flag(b) => f64::from(u8::from(b)),
            Percent(p) => p,
        }
    }
}

/// The value as the report JSON renders it.
impl std::fmt::Display for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_json().render())
    }
}

/// Reads one counter from a run's metrics.
pub type ReadCounter = fn(&StageMetrics) -> Counter;

/// The counters one stage records under one name: one object of the
/// report JSON.
#[derive(Debug)]
pub struct CounterGroup {
    /// The group's key in the report JSON.
    pub name: &'static str,
    /// The stage that records these counters.
    pub stage: Stage,
    /// Each counter's key and how to read it, in output order.
    pub counters: &'static [(&'static str, ReadCounter)],
    /// Shown only when the run audits call-graph soundness (the
    /// `resolve`/`havoc` opaque-call policies).
    pub audited_only: bool,
}

impl CounterGroup {
    /// The group the report JSON keys `name`.
    pub fn named(name: &str) -> Option<&'static CounterGroup> {
        COUNTER_GROUPS.iter().find(|g| g.name == name)
    }

    /// Whether a run shows this group; `audited` says whether it
    /// audited call-graph soundness.
    pub fn shown(&self, audited: bool) -> bool {
        audited || !self.audited_only
    }

    /// The group's counters read from `m`, in output order.
    pub fn read<'a>(
        &'a self,
        m: &'a StageMetrics,
    ) -> impl ExactSizeIterator<Item = (&'static str, Counter)> + 'a {
        self.counters.iter().map(move |(key, read)| (*key, read(m)))
    }

    /// The group as a JSON object.
    pub fn to_json(&self, m: &StageMetrics) -> Json {
        Json::Obj(
            self.read(m)
                .map(|(key, value)| (key.to_owned(), value.to_json()))
                .collect(),
        )
    }
}

/// Every counter group, in report-JSON order; the report places the
/// `audited_only` groups after its timings.
pub static COUNTER_GROUPS: [CounterGroup; 8] = [
    CounterGroup {
        name: "pointer",
        stage: Stage::Pointer,
        counters: &[
            ("worklist_iterations", |m| {
                Count(m.pointer.worklist_iterations)
            }),
            ("propagations", |m| Count(m.pointer.propagations)),
            ("cg_edges", |m| Count(m.pointer.cg_edges)),
            ("contexts", |m| Count(m.pointer.reachable_contexts)),
            ("objects", |m| Count(m.pointer.abstract_objects)),
            ("pts_set_bytes", |m| Count(m.pointer.pts_set_bytes)),
        ],
        audited_only: false,
    },
    CounterGroup {
        name: "shbg",
        stage: Stage::Shbg,
        counters: &[
            ("rule_applications", |m| Count(m.shbg.total_applications())),
            ("accepted", |m| Count(m.shbg.total_accepted())),
            ("fixpoint_rounds", |m| Count(m.shbg.fixpoint_rounds)),
            ("closure_sccs", |m| Count(m.shbg.closure_sccs)),
        ],
        audited_only: false,
    },
    CounterGroup {
        name: "prefilter",
        stage: Stage::Prefilter,
        counters: &[
            ("pruned_escape", |m| Count(m.prefilter.pruned_escape)),
            ("pruned_guarded", |m| Count(m.prefilter.pruned_guarded)),
            ("pruned_constprop", |m| Count(m.prefilter.pruned_constprop)),
            ("pruned", |m| Count(m.prefilter.pruned_total())),
        ],
        audited_only: false,
    },
    CounterGroup {
        name: "refuter",
        stage: Stage::Refute,
        counters: &[
            ("paths", |m| Count(m.refuter.paths)),
            ("queries", |m| Count(m.refuter.queries)),
            ("refuted", |m| Count(m.refuter.refuted)),
            ("witnessed", |m| Count(m.refuter.witnessed)),
            ("budget_exhausted", |m| Count(m.refuter.budget_exhausted)),
        ],
        audited_only: false,
    },
    CounterGroup {
        name: "histories",
        stage: Stage::Histories,
        counters: &[
            ("automaton_states", |m| Count(m.histories.automaton_states)),
            ("automaton_edges", |m| Count(m.histories.automaton_edges)),
            ("components", |m| Count(m.histories.components)),
            ("pairs_checked", |m| Count(m.histories.pairs_checked)),
            ("product_edges", |m| Count(m.histories.product_edges)),
            ("discharged_unregistered", |m| {
                Count(m.histories.discharged_unregistered)
            }),
            ("discharged_destroy", |m| {
                Count(m.histories.discharged_destroy)
            }),
            ("discharged_pause", |m| Count(m.histories.discharged_pause)),
            ("dead_callbacks", |m| Count(m.histories.dead_callbacks)),
            ("discharged", |m| Count(m.histories.discharged_total())),
        ],
        audited_only: false,
    },
    CounterGroup {
        name: "triage",
        stage: Stage::Triage,
        counters: &[
            ("classified", |m| Count(m.triage.classified)),
            ("null_deref", |m| Count(m.triage.null_deref)),
            ("use_before_init", |m| Count(m.triage.use_before_init)),
            ("value_inconsistency", |m| {
                Count(m.triage.value_inconsistency)
            }),
            ("likely_benign", |m| Count(m.triage.likely_benign)),
            ("dataflow_iterations", |m| {
                Count(m.triage.dataflow_iterations)
            }),
            ("methods_analyzed", |m| Count(m.triage.methods_analyzed)),
        ],
        audited_only: false,
    },
    CounterGroup {
        name: "link",
        stage: Stage::Pointer,
        counters: &[
            ("summaries_reused", |m| Count(m.link.summaries_reused)),
            ("summaries_recomputed", |m| {
                Count(m.link.summaries_recomputed)
            }),
            ("analysis_reused", |m| Flag(m.link.analysis_reused)),
            ("pointer_iterations_run", |m| {
                Count(m.link.pointer_iterations_run)
            }),
            ("summaries_shared", |m| Count(m.link.summaries_shared)),
        ],
        audited_only: false,
    },
    CounterGroup {
        name: "soundness",
        stage: Stage::Pointer,
        counters: &[
            ("known_callbacks", |m| Count(m.soundness.known_callbacks)),
            ("reachable_callbacks", |m| {
                Count(m.soundness.reachable_callbacks)
            }),
            ("recall_pct", |m| Percent(m.soundness.recall_pct())),
            ("unresolved_sites", |m| Count(m.soundness.unresolved_sites)),
            ("reflective_sites", |m| Count(m.soundness.reflective_sites)),
            ("intent_sites", |m| Count(m.soundness.intent_sites)),
            ("bodyless_framework_sites", |m| {
                Count(m.soundness.bodyless_framework_sites)
            }),
            ("no_receiver_sites", |m| {
                Count(m.soundness.no_receiver_sites)
            }),
        ],
        audited_only: true,
    },
];
