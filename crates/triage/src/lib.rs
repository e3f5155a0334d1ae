//! # triage — static race-harm classification
//!
//! SIERRA's refutation stage (§5) decides *whether* a candidate pair can
//! race; it says nothing about whether the race matters. This crate adds
//! the severity-triage layer: every surviving race is classified into a
//! [`Harm`] verdict by a set of cheap static analyses built on the
//! [`apir::dataflow`] framework.
//!
//! ## The harm taxonomy
//!
//! Ordered least- to most-severe:
//!
//! 1. [`Harm::LikelyBenign`] — e.g. both sides store the same constant
//!    (idempotent flag writes), or the racy value provably flows nowhere.
//! 2. [`Harm::ValueInconsistency`] — the racy value steers a branch, is
//!    stored onward, or conflicting values are written; behavior differs
//!    across interleavings but no crash is implied.
//! 3. [`Harm::UseBeforeInit`] — the read may observe the field's type
//!    default (no initializing write happens-before it) and the default
//!    escapes to a sink (framework call, field store, return).
//! 4. [`Harm::NullDeref`] — as above, but the possibly-`null` default is
//!    *dereferenced* (field access or virtual call receiver): the classic
//!    event-race NPE crash the paper's §6.5 case studies describe.
//!
//! ## How a verdict is reached
//!
//! For a read/write pair the read side is the victim: a forward
//! interprocedural [`nullness::NullnessAnalysis`] taints the racy load and
//! tracks nullness, [`apir::dataflow::solve_interprocedural`] pushes the
//! taint into app-local callees, and the evidence collector walks the
//! fixpoint looking for dereferences, sinks, and tainted branches. The
//! crash-capable verdicts additionally require `may_default`: no write to
//! the field is ordered happens-before (or within the same action as) the
//! reader, so the type default is actually observable. Write/write pairs
//! are compared by stored constant value. Results are cached per
//! `(reader method, field, may_default)` so multi-pair fields classify
//! once.

pub mod nullness;

use apir::dataflow::{self, CallOracle, InterResults, ProgramPoint};
use apir::{
    local_defs, CallSiteId, ClassId, MethodId, Operand, Origin, Program, Stmt, StmtAddr, Terminator,
};
use nullness::NullnessAnalysis;
use pointer::{Access, Analysis};
use shbg::Shbg;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::str::FromStr;

use android_model::ActionId;
use apir::FieldId;

/// Severity verdict for one race, least- to most-severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Harm {
    /// No observable consequence found (e.g. idempotent stores).
    LikelyBenign,
    /// The racy value influences behavior (branch, onward store) but no
    /// crash is implied.
    ValueInconsistency,
    /// An uninitialized (type-default) value can escape to a sink.
    UseBeforeInit,
    /// A possibly-null default can be dereferenced: crash-capable.
    NullDeref,
}

impl Harm {
    /// Whether this verdict predicts a crash-capable outcome.
    pub fn is_crash(self) -> bool {
        matches!(self, Harm::UseBeforeInit | Harm::NullDeref)
    }

    /// Stable kebab-case name (used by reports and `--min-harm`).
    pub fn name(self) -> &'static str {
        match self {
            Harm::LikelyBenign => "likely-benign",
            Harm::ValueInconsistency => "value-inconsistency",
            Harm::UseBeforeInit => "use-before-init",
            Harm::NullDeref => "null-deref",
        }
    }
}

impl fmt::Display for Harm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown harm name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseHarmError(pub String);

impl fmt::Display for ParseHarmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown harm level `{}` (expected benign, value, use-before-init, or null-deref)",
            self.0
        )
    }
}

impl std::error::Error for ParseHarmError {}

impl FromStr for Harm {
    type Err = ParseHarmError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "benign" | "likely-benign" => Ok(Harm::LikelyBenign),
            "value" | "value-inconsistency" => Ok(Harm::ValueInconsistency),
            "use-before-init" => Ok(Harm::UseBeforeInit),
            "null-deref" | "crash" => Ok(Harm::NullDeref),
            other => Err(ParseHarmError(other.to_string())),
        }
    }
}

/// Why the classifier reached its verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// The contested field.
    pub field: FieldId,
    /// The action performing the racy read (`None` for write/write pairs).
    pub reading_action: Option<ActionId>,
    /// Human-readable flow summary (e.g. the dereference site).
    pub summary: String,
}

/// The classifier's output for one race.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriageVerdict {
    /// Severity class.
    pub harm: Harm,
    /// Supporting evidence.
    pub witness: Witness,
}

/// Counters for the triage stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TriageStats {
    /// Races classified (one verdict each).
    pub classified: usize,
    /// Verdict histogram.
    pub null_deref: usize,
    /// See [`Harm::UseBeforeInit`].
    pub use_before_init: usize,
    /// See [`Harm::ValueInconsistency`].
    pub value_inconsistency: usize,
    /// See [`Harm::LikelyBenign`].
    pub likely_benign: usize,
    /// Total dataflow worklist iterations across all solves.
    pub dataflow_iterations: usize,
    /// Methods reached by the interprocedural nullness solves (summed,
    /// after caching).
    pub methods_analyzed: usize,
}

impl TriageStats {
    /// Records one verdict in the histogram.
    fn record(&mut self, harm: Harm) {
        self.classified += 1;
        match harm {
            Harm::NullDeref => self.null_deref += 1,
            Harm::UseBeforeInit => self.use_before_init += 1,
            Harm::ValueInconsistency => self.value_inconsistency += 1,
            Harm::LikelyBenign => self.likely_benign += 1,
        }
    }

    /// Merges another app's counters into this one (corpus totals).
    pub fn merge(&mut self, other: &TriageStats) {
        self.classified += other.classified;
        self.null_deref += other.null_deref;
        self.use_before_init += other.use_before_init;
        self.value_inconsistency += other.value_inconsistency;
        self.likely_benign += other.likely_benign;
        self.dataflow_iterations += other.dataflow_iterations;
        self.methods_analyzed += other.methods_analyzed;
    }
}

/// Deterministic call oracle over the pointer analysis' call graph:
/// context projected away, callees restricted to app-origin methods with
/// bodies (framework and library calls are sinks, not flows), sorted and
/// deduplicated so triage output is independent of `HashMap` iteration.
struct CgOracle {
    targets: BTreeMap<(MethodId, CallSiteId), Vec<MethodId>>,
}

impl CgOracle {
    fn build(program: &Program, analysis: &Analysis) -> CgOracle {
        let mut targets: BTreeMap<(MethodId, CallSiteId), Vec<MethodId>> = BTreeMap::new();
        for (&(caller, _ctx, site), callees) in &analysis.cg_edges {
            for &(callee, _cctx) in callees {
                if program.method_origin(callee) == Origin::App && program.method(callee).has_body()
                {
                    targets.entry((caller, site)).or_default().push(callee);
                }
            }
        }
        for v in targets.values_mut() {
            v.sort_unstable();
            v.dedup();
        }
        CgOracle { targets }
    }
}

impl CallOracle for CgOracle {
    fn callees(&self, addr: StmtAddr, stmt: &Stmt) -> Vec<MethodId> {
        let Stmt::Call { site, .. } = stmt else {
            return Vec::new();
        };
        self.targets
            .get(&(addr.method, *site))
            .cloned()
            .unwrap_or_default()
    }
}

/// Flow evidence harvested from one nullness fixpoint, keyed by what the
/// harm resolution needs. Each summary is the first (block-order,
/// method-id-order) site of its kind.
#[derive(Debug, Clone, Default)]
struct Flows {
    /// A tainted, possibly-null value is dereferenced here.
    deref: Option<String>,
    /// A tainted value escapes (framework/library call, onward store,
    /// return to the dispatcher).
    sink: Option<String>,
    /// A tainted value decides a branch here.
    branch: Option<String>,
    /// Worklist iterations spent.
    iterations: usize,
    /// Methods reached.
    methods: usize,
}

/// Classifies every surviving race. `pairs` are the (a, b) access pairs of
/// the surviving reports, in report order; the returned verdicts are
/// index-aligned with them. `exclude_class` is the synthetic harness class
/// (its accesses never participate).
pub fn classify_races(
    program: &Program,
    analysis: &Analysis,
    graph: &Shbg,
    exclude_class: Option<ClassId>,
    pairs: &[(Access, Access)],
) -> (Vec<TriageVerdict>, TriageStats) {
    let mut stats = TriageStats::default();
    if pairs.is_empty() {
        return (Vec::new(), stats);
    }

    let oracle = CgOracle::build(program, analysis);

    // Every write in the program, per field: the happens-before evidence
    // for `may_default` (can the reader observe the type default?).
    let all_accesses = pointer::collect_accesses(analysis, program, exclude_class);
    let mut writes_by_field: HashMap<FieldId, Vec<&Access>> = HashMap::new();
    for a in &all_accesses {
        if a.is_write {
            writes_by_field.entry(a.field).or_default().push(a);
        }
    }

    // (reader method, field, may_default) → flow evidence. Distinct pairs
    // on the same field frequently share a reader.
    let mut cache: HashMap<(MethodId, FieldId, bool), Flows> = HashMap::new();

    let verdicts = pairs
        .iter()
        .map(|(a, b)| {
            let verdict = classify_pair(
                program,
                graph,
                &oracle,
                &writes_by_field,
                &mut cache,
                &mut stats,
                a,
                b,
            );
            stats.record(verdict.harm);
            verdict
        })
        .collect();
    (verdicts, stats)
}

/// Whether a read at `reader` can observe `field`'s type default: true iff
/// no write to the field is in the reader's own action or ordered
/// happens-before it.
fn may_observe_default(
    graph: &Shbg,
    writes_by_field: &HashMap<FieldId, Vec<&Access>>,
    reader: &Access,
) -> bool {
    let Some(writes) = writes_by_field.get(&reader.field) else {
        return true;
    };
    !writes.iter().any(|w| {
        w.overlaps(reader) && (w.action == reader.action || graph.ordered(w.action, reader.action))
    })
}

#[allow(clippy::too_many_arguments)]
fn classify_pair(
    program: &Program,
    graph: &Shbg,
    oracle: &CgOracle,
    writes_by_field: &HashMap<FieldId, Vec<&Access>>,
    cache: &mut HashMap<(MethodId, FieldId, bool), Flows>,
    stats: &mut TriageStats,
    a: &Access,
    b: &Access,
) -> TriageVerdict {
    let field = a.field;
    if a.is_write && b.is_write {
        return classify_write_write(program, a, b);
    }

    // Read/write: the read side is the victim. (A pair always has at least
    // one write; candidate generation never emits read/read.)
    let (read, _write) = if a.is_write { (b, a) } else { (a, b) };
    let may_default = may_observe_default(graph, writes_by_field, read);
    let ref_field = program.field(field).ty.is_reference();

    let key = (read.method, field, may_default);
    cache
        .entry(key)
        .or_insert_with(|| analyze_read_side(program, oracle, read.method, field, stats));
    let flows = &cache[&key];

    let (harm, summary) = if ref_field && may_default {
        if let Some(s) = &flows.deref {
            (Harm::NullDeref, s.clone())
        } else if let Some(s) = &flows.sink {
            (Harm::UseBeforeInit, s.clone())
        } else if let Some(s) = &flows.branch {
            (Harm::ValueInconsistency, s.clone())
        } else {
            (
                Harm::LikelyBenign,
                "racy read value does not flow to a deref, sink, or branch".to_string(),
            )
        }
    } else if let Some(s) = flows.branch.as_ref().or(flows.sink.as_ref()) {
        // Initialized-before or primitive: stale-value trouble at worst.
        (Harm::ValueInconsistency, s.clone())
    } else {
        (
            Harm::LikelyBenign,
            "racy read value does not flow to a deref, sink, or branch".to_string(),
        )
    };

    TriageVerdict {
        harm,
        witness: Witness {
            field,
            reading_action: Some(read.action),
            summary,
        },
    }
}

/// Write/write pair: idempotent if both sides store the same resolvable
/// constant, value-inconsistent otherwise.
fn classify_write_write(program: &Program, a: &Access, b: &Access) -> TriageVerdict {
    let stored = |acc: &Access| -> Option<apir::ConstValue> {
        let m = program.method(acc.method);
        let value = match m.stmt_at(acc.addr)? {
            Stmt::Store { value, .. } | Stmt::StaticStore { value, .. } => *value,
            _ => return None,
        };
        local_defs::resolve_const_operand(m, acc.addr, value)
    };
    let (harm, summary) = match (stored(a), stored(b)) {
        (Some(va), Some(vb)) if va == vb => (
            Harm::LikelyBenign,
            format!("both writes store the same constant {va:?}"),
        ),
        _ => (
            Harm::ValueInconsistency,
            "conflicting writes: final value depends on interleaving".to_string(),
        ),
    };
    TriageVerdict {
        harm,
        witness: Witness {
            field: a.field,
            reading_action: None,
            summary,
        },
    }
}

/// Runs the interprocedural nullness/taint analysis rooted at the reading
/// method and harvests flow evidence from the fixpoint.
fn analyze_read_side(
    program: &Program,
    oracle: &CgOracle,
    reader: MethodId,
    field: FieldId,
    stats: &mut TriageStats,
) -> Flows {
    let analysis = NullnessAnalysis { racy_field: field };
    let results = dataflow::solve_interprocedural(program, oracle, &[reader], &analysis);

    let mut flows = Flows {
        methods: results.per_method.len(),
        ..Flows::default()
    };
    for res in results.per_method.values() {
        flows.iterations += res.iterations;
    }
    stats.dataflow_iterations += flows.iterations;
    stats.methods_analyzed += flows.methods;

    collect_evidence(program, oracle, &analysis, &results, &mut flows);
    flows
}

/// Walks every reached method's fixpoint in deterministic order, recording
/// the first dereference, sink, and branch the tainted value reaches.
fn collect_evidence(
    program: &Program,
    oracle: &CgOracle,
    analysis: &NullnessAnalysis,
    results: &InterResults<nullness::NullState>,
    flows: &mut Flows,
) {
    for (&mid, res) in &results.per_method {
        let method = program.method(mid);
        let site = |addr: StmtAddr| {
            format!(
                "{}.{} at {addr:?}",
                program.class_name(method.class),
                program.name(method.name)
            )
        };
        dataflow::visit_forward(method, analysis, res, |point, state| match point {
            ProgramPoint::Stmt(addr, stmt) => {
                // A Store is both a potential dereference (of its base)
                // and a potential sink (of its stored value).
                if let Stmt::Load { obj, .. } | Stmt::Store { obj, .. } = stmt {
                    let v = state.get(*obj);
                    if v.racy && v.nullness.may_be_null() && flows.deref.is_none() {
                        flows.deref = Some(format!("possibly-null field access in {}", site(addr)));
                    }
                }
                match stmt {
                    Stmt::Call { receiver, args, .. } => {
                        if let Some(r) = receiver {
                            let v = state.get(*r);
                            if v.racy && v.nullness.may_be_null() && flows.deref.is_none() {
                                flows.deref =
                                    Some(format!("possibly-null call receiver in {}", site(addr)));
                            }
                        }
                        // Args flowing into calls we do not follow escape.
                        if oracle.callees(addr, stmt).is_empty()
                            && args.iter().any(|a| state.eval(*a).racy)
                            && flows.sink.is_none()
                        {
                            flows.sink = Some(format!(
                                "racy value passed to opaque call in {}",
                                site(addr)
                            ));
                        }
                    }
                    Stmt::Store { value, .. } | Stmt::StaticStore { value, .. }
                        if state.eval(*value).racy && flows.sink.is_none() =>
                    {
                        flows.sink = Some(format!("racy value stored onward in {}", site(addr)));
                    }
                    _ => {}
                }
            }
            ProgramPoint::Terminator(block, term) => match term {
                Terminator::If {
                    cond: Operand::Local(c),
                    ..
                } if state.get(*c).racy && flows.branch.is_none() => {
                    flows.branch = Some(format!(
                        "racy value decides branch in {}.{} at {:?}",
                        program.class_name(method.class),
                        program.name(method.name),
                        block
                    ));
                }
                Terminator::Return(Some(Operand::Local(l)))
                    if state.get(*l).racy && flows.sink.is_none() =>
                {
                    flows.sink = Some(format!(
                        "racy value returned from {}.{}",
                        program.class_name(method.class),
                        program.name(method.name)
                    ));
                }
                _ => {}
            },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harm_severity_and_parse_round_trip() {
        assert!(Harm::LikelyBenign < Harm::ValueInconsistency);
        assert!(Harm::ValueInconsistency < Harm::UseBeforeInit);
        assert!(Harm::UseBeforeInit < Harm::NullDeref);
        assert!(Harm::NullDeref.is_crash() && Harm::UseBeforeInit.is_crash());
        assert!(!Harm::ValueInconsistency.is_crash() && !Harm::LikelyBenign.is_crash());
        for h in [
            Harm::LikelyBenign,
            Harm::ValueInconsistency,
            Harm::UseBeforeInit,
            Harm::NullDeref,
        ] {
            assert_eq!(h.name().parse::<Harm>().unwrap(), h);
            assert_eq!(h.to_string(), h.name());
        }
        assert_eq!("benign".parse::<Harm>().unwrap(), Harm::LikelyBenign);
        assert_eq!("value".parse::<Harm>().unwrap(), Harm::ValueInconsistency);
        assert_eq!("crash".parse::<Harm>().unwrap(), Harm::NullDeref);
        assert!("bogus".parse::<Harm>().is_err());
    }

    #[test]
    fn stats_histogram_and_merge() {
        let mut s = TriageStats::default();
        s.record(Harm::NullDeref);
        s.record(Harm::LikelyBenign);
        s.record(Harm::LikelyBenign);
        assert_eq!(s.classified, 3);
        assert_eq!(s.null_deref, 1);
        assert_eq!(s.likely_benign, 2);
        let mut t = TriageStats::default();
        t.record(Harm::ValueInconsistency);
        s.merge(&t);
        assert_eq!(s.classified, 4);
        assert_eq!(s.value_inconsistency, 1);
    }
}
