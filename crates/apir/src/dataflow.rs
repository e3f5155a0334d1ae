//! A generic monotone dataflow framework over `apir` method CFGs.
//!
//! The framework factors the fixpoint machinery out of the ad-hoc
//! worklist walks scattered through the pipeline (the prefilter's SCCP
//! loop, the triage classifiers): an analysis supplies a join-semilattice
//! of abstract states plus transfer functions, and [`solve`] iterates a
//! deterministic block worklist to the least fixed point.
//!
//! Two levels of generality are provided:
//!
//! - [`DataflowAnalysis`] — the full interface: per-statement transfer,
//!   per-edge transfer (which may refute an edge outright, giving
//!   SCCP-style executable-edge semantics). Every lattice it is used
//!   with has finite height, so the ascent always terminates. Facts flow
//!   forward from the entry block.
//! - [`solve_interprocedural`] — a summary-free interprocedural driver:
//!   callee boundary states are joined over all call sites discovered
//!   through a client-provided [`CallOracle`] (in practice the pointer
//!   analysis' call graph), iterating method solves to a global fixpoint.
//!
//! Unreached blocks are represented as `None` rather than requiring an
//! explicit bottom element, so `Option<State>` is the real lattice and
//! every analysis state is attached to a path from the boundary.

use crate::ids::{BlockId, MethodId, StmtAddr};
use crate::method::{Method, Terminator};
use crate::program::Program;
use crate::stmt::Stmt;
use std::collections::{BTreeMap, VecDeque};

/// A join-semilattice of abstract states.
///
/// `join` must be commutative, associative, and idempotent; [`solve`]
/// reaches a fixpoint only when the transfer functions are monotone with
/// respect to the order induced by `join` (`a ≤ b` iff `a ∨ b = b`).
pub trait JoinSemiLattice: Clone {
    /// In-place least upper bound; returns whether `self` changed.
    fn join(&mut self, other: &Self) -> bool;

    /// The partial order induced by `join`: `self ≤ other` iff joining
    /// `self` into `other` changes nothing.
    fn le(&self, other: &Self) -> bool {
        let mut o = other.clone();
        !o.join(self)
    }
}

/// A monotone dataflow analysis: lattice + transfer functions.
pub trait DataflowAnalysis {
    /// The abstract state attached to each block boundary.
    type State: JoinSemiLattice;

    /// The state at the flow boundary: the entry block.
    fn boundary_state(&self, method: &Method) -> Self::State;

    /// Applies one statement to the state, in execution order.
    fn transfer_stmt(&self, addr: StmtAddr, stmt: &Stmt, state: &mut Self::State);

    /// Applies a block terminator to the state. Runs after the block's
    /// statements. Default: no effect.
    fn transfer_terminator(&self, block: BlockId, term: &Terminator, state: &mut Self::State) {
        let _ = (block, term, state);
    }

    /// Refines the state along the CFG edge `from → to`. Returning
    /// `None` marks the edge
    /// statically infeasible under `state` — the SCCP executable-edge
    /// semantics; such edges transmit nothing and never become
    /// executable. Default: every edge is feasible and unrefined.
    fn transfer_edge(
        &self,
        method: &Method,
        from: BlockId,
        term: &Terminator,
        to: BlockId,
        state: &Self::State,
    ) -> Option<Self::State> {
        let _ = (method, from, term, to);
        Some(state.clone())
    }
}

/// The fixpoint of one method solve.
#[derive(Debug, Clone)]
pub struct DataflowResults<S> {
    /// Per-block input state at block entry. `None` = the block is
    /// unreached from the boundary.
    inputs: Vec<Option<S>>,
    /// Executable CFG edges `(from, to)`, sorted. An edge missing here
    /// while `from` is reached is statically infeasible.
    exec_edges: Vec<(BlockId, BlockId)>,
    /// Worklist iterations (block visits) the solve took.
    pub iterations: usize,
}

impl<S> DataflowResults<S> {
    /// The entry state of `block`; `None` when the block is unreached.
    pub fn block_input(&self, block: BlockId) -> Option<&S> {
        self.inputs[block.index()].as_ref()
    }

    /// Whether `block` is reached from the flow boundary.
    pub fn reached(&self, block: BlockId) -> bool {
        self.inputs[block.index()].is_some()
    }

    /// Whether the CFG edge `(from, to)` became executable.
    pub fn edge_executable(&self, from: BlockId, to: BlockId) -> bool {
        self.exec_edges.binary_search(&(from, to)).is_ok()
    }

    /// All executable edges, sorted by `(from, to)`.
    pub fn executable_edges(&self) -> &[(BlockId, BlockId)] {
        &self.exec_edges
    }
}

/// A program point paired with its abstract state during a results walk.
#[derive(Debug, Clone, Copy)]
pub enum ProgramPoint<'a> {
    /// A statement.
    Stmt(StmtAddr, &'a Stmt),
    /// A block terminator.
    Terminator(BlockId, &'a Terminator),
}

/// Replays a forward analysis over its fixpoint, calling `visit` with the
/// state *before* each program point of every reached block, in block
/// order. This is how clients read out per-statement facts without the
/// solver having to store a state per statement.
pub fn visit_forward<A: DataflowAnalysis>(
    method: &Method,
    analysis: &A,
    results: &DataflowResults<A::State>,
    mut visit: impl FnMut(ProgramPoint<'_>, &A::State),
) {
    for (bid, block) in method.iter_blocks() {
        let Some(input) = results.block_input(bid) else {
            continue;
        };
        let mut state = input.clone();
        for (i, stmt) in block.stmts.iter().enumerate() {
            let addr = StmtAddr::new(method.id, bid, i as u32);
            visit(ProgramPoint::Stmt(addr, stmt), &state);
            analysis.transfer_stmt(addr, stmt, &mut state);
        }
        visit(ProgramPoint::Terminator(bid, &block.terminator), &state);
    }
}

/// Solves `analysis` over `method` from the analysis' own boundary state.
pub fn solve<A: DataflowAnalysis>(method: &Method, analysis: &A) -> DataflowResults<A::State> {
    solve_with_boundary(method, analysis, analysis.boundary_state(method))
}

/// Solves `analysis` over `method` from an explicit boundary state (used
/// by the interprocedural driver, which joins boundary states over call
/// sites).
pub fn solve_with_boundary<A: DataflowAnalysis>(
    method: &Method,
    analysis: &A,
    boundary: A::State,
) -> DataflowResults<A::State> {
    let n = method.blocks.len();
    let mut inputs: Vec<Option<A::State>> = vec![None; n];
    let mut exec: Vec<(BlockId, BlockId)> = Vec::new();
    let mut worklist: VecDeque<BlockId> = VecDeque::new();
    inputs[method.entry().index()] = Some(boundary);
    worklist.push_back(method.entry());

    let mut iterations = 0usize;
    while let Some(b) = worklist.pop_front() {
        iterations += 1;
        let mut state = match &inputs[b.index()] {
            Some(s) => s.clone(),
            None => continue,
        };
        let block = method.block(b);
        for (i, stmt) in block.stmts.iter().enumerate() {
            let addr = StmtAddr::new(method.id, b, i as u32);
            analysis.transfer_stmt(addr, stmt, &mut state);
        }
        analysis.transfer_terminator(b, &block.terminator, &mut state);
        for &succ in method.succs(b) {
            let Some(es) = analysis.transfer_edge(method, b, &block.terminator, succ, &state)
            else {
                continue;
            };
            if propagate(&mut inputs, &mut exec, (b, succ), es) {
                worklist.push_back(succ);
            }
        }
    }

    exec.sort_unstable();
    exec.dedup();
    DataflowResults {
        inputs,
        exec_edges: exec,
        iterations,
    }
}

/// Joins `incoming` into the input of the `edge`'s target. Returns
/// whether the target needs re-processing (first arrival over this
/// edge, or a state change).
fn propagate<S: JoinSemiLattice>(
    inputs: &mut [Option<S>],
    exec: &mut Vec<(BlockId, BlockId)>,
    edge: (BlockId, BlockId),
    incoming: S,
) -> bool {
    let target = edge.1;
    let newly_exec = !exec.contains(&edge);
    if newly_exec {
        exec.push(edge);
    }
    let slot = &mut inputs[target.index()];
    let changed = match slot {
        None => {
            *slot = Some(incoming);
            true
        }
        Some(cur) => cur.join(&incoming),
    };
    newly_exec || changed
}

// ---------------------------------------------------------------------------
// Interprocedural driver
// ---------------------------------------------------------------------------

/// Client-provided call-graph view: which method bodies the call at
/// `addr` may reach. `apir` knows nothing about dispatch or contexts —
/// the oracle is implemented above it (over the pointer analysis' call
/// graph), which keeps unsound name-only resolution out of the framework.
/// Callee lists must be deterministic for a given input.
pub trait CallOracle {
    /// Possible callees with bodies; empty = opaque call.
    fn callees(&self, addr: StmtAddr, stmt: &Stmt) -> Vec<MethodId>;
}

/// A forward [`DataflowAnalysis`] that can carry its state across call
/// edges.
pub trait InterproceduralAnalysis: DataflowAnalysis {
    /// Maps the caller's state at a call site into the callee's boundary
    /// (entry) state — typically argument facts onto parameter locals.
    fn enter_call(&self, call: &Stmt, caller: &Self::State, callee: &Method) -> Self::State;
}

/// The global fixpoint of an interprocedural solve.
#[derive(Debug)]
pub struct InterResults<S> {
    /// Per-method fixpoints, for every method reached from the roots.
    pub per_method: BTreeMap<MethodId, DataflowResults<S>>,
    /// Total method (re-)solves the driver performed.
    pub solves: usize,
}

/// Runs a forward analysis across method boundaries: each root starts
/// from the analysis' boundary state; every discovered call site joins an
/// [`InterproceduralAnalysis::enter_call`] state into its callees'
/// boundaries, and methods re-solve until no boundary grows. Contexts are
/// merged per method (a context-insensitive summary of the boundary),
/// which is sound for the triage classifiers this drives: joins only lose
/// precision, never soundness, for a monotone analysis.
pub fn solve_interprocedural<A: InterproceduralAnalysis>(
    program: &Program,
    oracle: &impl CallOracle,
    roots: &[MethodId],
    analysis: &A,
) -> InterResults<A::State> {
    let mut boundaries: BTreeMap<MethodId, A::State> = BTreeMap::new();
    let mut results: BTreeMap<MethodId, DataflowResults<A::State>> = BTreeMap::new();
    let mut worklist: VecDeque<MethodId> = VecDeque::new();
    let mut queued: Vec<MethodId> = Vec::new();

    for &root in roots {
        let method = program.method(root);
        if !method.has_body() {
            continue;
        }
        let entry = analysis.boundary_state(method);
        join_boundary::<A>(&mut boundaries, root, entry);
        if !queued.contains(&root) {
            queued.push(root);
            worklist.push_back(root);
        }
    }

    let mut solves = 0usize;
    while let Some(m) = worklist.pop_front() {
        queued.retain(|&q| q != m);
        let method = program.method(m);
        let boundary = boundaries.get(&m).expect("queued methods have a boundary");
        let fixed = solve_with_boundary(method, analysis, boundary.clone());
        solves += 1;
        // Propagate call-site states into callee boundaries.
        let mut grew: Vec<MethodId> = Vec::new();
        visit_forward(method, analysis, &fixed, |point, state| {
            let ProgramPoint::Stmt(addr, stmt) = point else {
                return;
            };
            if !matches!(stmt, Stmt::Call { .. }) {
                return;
            }
            for callee in oracle.callees(addr, stmt) {
                let callee_method = program.method(callee);
                if !callee_method.has_body() {
                    continue;
                }
                let entry = analysis.enter_call(stmt, state, callee_method);
                if join_boundary::<A>(&mut boundaries, callee, entry) {
                    grew.push(callee);
                }
            }
        });
        results.insert(m, fixed);
        for callee in grew {
            if !queued.contains(&callee) {
                queued.push(callee);
                worklist.push_back(callee);
            }
        }
    }

    InterResults {
        per_method: results,
        solves,
    }
}

/// Joins `incoming` into `boundaries[m]`; returns whether it changed (or
/// was new).
fn join_boundary<A: DataflowAnalysis>(
    boundaries: &mut BTreeMap<MethodId, A::State>,
    m: MethodId,
    incoming: A::State,
) -> bool {
    match boundaries.get_mut(&m) {
        None => {
            boundaries.insert(m, incoming);
            true
        }
        Some(cur) => cur.join(&incoming),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Local;
    use crate::method::BasicBlock;
    use crate::stmt::{ConstValue, Operand};
    use crate::{InvokeKind, Origin, ProgramBuilder};

    /// Flat constant environment used by the framework tests: locals
    /// mapped to a known constant (absent = unknown), intersection join.
    #[derive(Debug, Clone, PartialEq, Default)]
    struct Consts(std::collections::HashMap<Local, ConstValue>);

    impl JoinSemiLattice for Consts {
        fn join(&mut self, other: &Self) -> bool {
            let before = self.0.len();
            self.0.retain(|l, v| other.0.get(l) == Some(v));
            self.0.len() != before
        }
    }

    struct ConstAnalysis;

    impl DataflowAnalysis for ConstAnalysis {
        type State = Consts;

        fn boundary_state(&self, _method: &Method) -> Consts {
            Consts::default()
        }

        fn transfer_stmt(&self, _addr: StmtAddr, stmt: &Stmt, state: &mut Consts) {
            match stmt {
                Stmt::Const { dst, value } => {
                    state.0.insert(*dst, *value);
                }
                other => {
                    if let Some(d) = other.def() {
                        state.0.remove(&d);
                    }
                }
            }
        }

        fn transfer_edge(
            &self,
            _method: &Method,
            _from: BlockId,
            term: &Terminator,
            to: BlockId,
            state: &Consts,
        ) -> Option<Consts> {
            if let Terminator::If {
                cond,
                then_bb,
                else_bb,
            } = term
            {
                if then_bb != else_bb {
                    let known = match cond {
                        Operand::Const(c) => Some(*c),
                        Operand::Local(l) => state.0.get(l).copied(),
                    };
                    if let Some(ConstValue::Bool(v)) = known {
                        let taken = if v { *then_bb } else { *else_bb };
                        if to != taken {
                            return None;
                        }
                    }
                }
            }
            Some(state.clone())
        }
    }

    fn diamond(cond: Operand) -> Method {
        // b0: x = 1; if cond -> b1 else b2; b1: goto b3; b2: x = 2, goto b3; b3: ret
        let mut b0 = BasicBlock::new();
        b0.stmts.push(Stmt::Const {
            dst: Local(0),
            value: ConstValue::Int(1),
        });
        b0.terminator = Terminator::If {
            cond,
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        let mut b1 = BasicBlock::new();
        b1.terminator = Terminator::Goto(BlockId(3));
        let mut b2 = BasicBlock::new();
        b2.stmts.push(Stmt::Const {
            dst: Local(0),
            value: ConstValue::Int(2),
        });
        b2.terminator = Terminator::Goto(BlockId(3));
        let b3 = BasicBlock::new();
        let blocks = vec![b0, b1, b2, b3];
        Method {
            id: MethodId(0),
            class: crate::ClassId(0),
            name: crate::Symbol(0),
            param_count: 0,
            ret: None,
            is_static: true,
            is_abstract: false,
            local_count: 1,
            cfg: crate::Cfg::build(&blocks),
            blocks,
        }
    }

    #[test]
    fn forward_join_loses_conflicting_constants() {
        let m = diamond(Operand::Local(Local(0)));
        let r = solve(&m, &ConstAnalysis);
        // Join point: x is 1 on one edge, 2 on the other → unknown.
        assert!(r.block_input(BlockId(3)).unwrap().0.is_empty());
        assert!(r.reached(BlockId(1)) && r.reached(BlockId(2)));
        assert_eq!(r.executable_edges().len(), 4);
    }

    #[test]
    fn infeasible_edge_keeps_constant_and_dead_block() {
        let m = diamond(Operand::Const(ConstValue::Bool(false)));
        let r = solve(&m, &ConstAnalysis);
        assert!(!r.reached(BlockId(1)), "then-branch is dead");
        assert!(!r.edge_executable(BlockId(0), BlockId(1)));
        assert!(r.edge_executable(BlockId(0), BlockId(2)));
        // Only the else path reaches the join: x = 2 survives.
        assert_eq!(
            r.block_input(BlockId(3)).unwrap().0.get(&Local(0)),
            Some(&ConstValue::Int(2))
        );
    }

    #[test]
    fn visit_forward_exposes_per_statement_states() {
        let m = diamond(Operand::Const(ConstValue::Bool(true)));
        let r = solve(&m, &ConstAnalysis);
        let mut terminator_states = Vec::new();
        visit_forward(&m, &ConstAnalysis, &r, |point, state| {
            if let ProgramPoint::Terminator(b, _) = point {
                terminator_states.push((b, state.0.get(&Local(0)).copied()));
            }
        });
        // Unreached b2 is skipped; every other terminator sees x = 1.
        assert_eq!(
            terminator_states,
            vec![
                (BlockId(0), Some(ConstValue::Int(1))),
                (BlockId(1), Some(ConstValue::Int(1))),
                (BlockId(3), Some(ConstValue::Int(1))),
            ]
        );
    }

    /// Interprocedural constant flow: `main` passes a constant to
    /// `callee`, whose parameter should pick it up through `enter_call`.
    struct InterConsts;

    impl DataflowAnalysis for InterConsts {
        type State = Consts;

        fn boundary_state(&self, _method: &Method) -> Consts {
            Consts::default()
        }

        fn transfer_stmt(&self, addr: StmtAddr, stmt: &Stmt, state: &mut Consts) {
            ConstAnalysis.transfer_stmt(addr, stmt, state);
        }
    }

    impl InterproceduralAnalysis for InterConsts {
        fn enter_call(&self, call: &Stmt, caller: &Consts, callee: &Method) -> Consts {
            let mut entry = Consts::default();
            if let Stmt::Call { args, .. } = call {
                // Static call: parameter i receives argument i.
                for (i, arg) in args.iter().enumerate() {
                    if i >= callee.param_count as usize {
                        break;
                    }
                    let known = match arg {
                        Operand::Const(c) => Some(*c),
                        Operand::Local(l) => caller.0.get(l).copied(),
                    };
                    if let Some(c) = known {
                        entry.0.insert(Local(i as u32), c);
                    }
                }
            }
            entry
        }
    }

    struct StaticCalls;

    impl CallOracle for StaticCalls {
        fn callees(&self, _addr: StmtAddr, stmt: &Stmt) -> Vec<MethodId> {
            match stmt {
                Stmt::Call { callee, .. } => vec![*callee],
                _ => Vec::new(),
            }
        }
    }

    #[test]
    fn interprocedural_boundary_joins_over_call_sites() {
        let mut pb = ProgramBuilder::new();
        let class = pb.class("T", Origin::App).build();

        let mut mb = pb.method(class, "callee");
        mb.set_param_count(1);
        let p = mb.param(0);
        let echo = mb.fresh_local();
        mb.move_(echo, p);
        mb.ret(None);
        let callee = mb.finish();

        let mut mb = pb.method(class, "main");
        mb.set_param_count(0);
        let x = mb.fresh_local();
        mb.const_(x, ConstValue::Int(7));
        mb.call(
            None,
            InvokeKind::Static,
            callee,
            None,
            vec![Operand::Local(x)],
        );
        mb.call(
            None,
            InvokeKind::Static,
            callee,
            None,
            vec![Operand::Const(ConstValue::Int(7))],
        );
        mb.ret(None);
        let main = mb.finish();
        let program = pb.finish();

        let r = solve_interprocedural(&program, &StaticCalls, &[main], &InterConsts);
        // Both call sites pass 7, so the joined boundary keeps it.
        let callee_entry = r.per_method[&callee]
            .block_input(BlockId(0))
            .expect("callee reached");
        assert_eq!(callee_entry.0.get(&Local(0)), Some(&ConstValue::Int(7)));
        assert!(r.solves >= 2);

        // A third site with a different constant would demote it to ⊤ —
        // simulate by re-entering with 8.
        let callee_m = program.method(callee);
        let call = Stmt::Call {
            site: crate::CallSiteId(999),
            dst: None,
            kind: InvokeKind::Static,
            callee,
            receiver: None,
            args: vec![Operand::Const(ConstValue::Int(8))],
        };
        let mut joined = callee_entry.clone();
        let other = InterConsts.enter_call(&call, &Consts::default(), callee_m);
        assert!(joined.join(&other));
        assert!(joined.0.is_empty());
    }

    /// The resolve-aware oracle shape the triage stage uses: a call
    /// site whose callee has no body yields an empty list (opaque —
    /// unresolved reflection, a havoc-smashed site, or a framework
    /// stub); everything else resolves statically.
    struct BodyAwareCalls;

    impl CallOracle for BodyAwareCalls {
        fn callees(&self, _addr: StmtAddr, stmt: &Stmt) -> Vec<MethodId> {
            match stmt {
                Stmt::Call { callee, .. } => vec![*callee],
                _ => Vec::new(),
            }
        }
    }

    #[test]
    fn opaque_call_drops_result_facts_but_keeps_the_rest() {
        // main: x = 7; y = opaque(x); sink(x, y)
        //
        // `opaque` has no body — the case every opaque-policy leaves at
        // a call site it cannot (or chooses not to) resolve. The driver
        // must not solve it, the caller must keep unrelated facts (x is
        // still 7 after the call), and the facts about the call's own
        // result must drop to ⊤ (havoc transfer: y is unknown in sink).
        let mut pb = ProgramBuilder::new();
        let class = pb.class("T", Origin::App).build();
        let opaque = pb.abstract_method(class, "opaque", 1);

        let mut mb = pb.method(class, "sink");
        mb.set_param_count(2);
        mb.ret(None);
        let sink = mb.finish();

        let mut mb = pb.method(class, "main");
        mb.set_param_count(0);
        let x = mb.fresh_local();
        let y = mb.fresh_local();
        mb.const_(x, ConstValue::Int(7));
        mb.call(
            Some(y),
            InvokeKind::Static,
            opaque,
            None,
            vec![Operand::Local(x)],
        );
        mb.call(
            None,
            InvokeKind::Static,
            sink,
            None,
            vec![Operand::Local(x), Operand::Local(y)],
        );
        mb.ret(None);
        let main = mb.finish();
        let program = pb.finish();

        let r = solve_interprocedural(&program, &BodyAwareCalls, &[main], &InterConsts);
        assert!(
            !r.per_method.contains_key(&opaque),
            "a bodyless callee is never solved"
        );
        assert_eq!(r.per_method.len(), 2, "main and sink only");
        let sink_entry = r.per_method[&sink]
            .block_input(BlockId(0))
            .expect("sink reached past the opaque site");
        assert_eq!(
            sink_entry.0.get(&Local(0)),
            Some(&ConstValue::Int(7)),
            "facts not flowing through the opaque callee survive it"
        );
        assert_eq!(
            sink_entry.0.get(&Local(1)),
            None,
            "the opaque call's result enters the callee as ⊤"
        );
    }

    #[test]
    fn empty_root_and_all_opaque_calls_yield_no_results() {
        // A root whose every call is opaque produces exactly one solve:
        // the driver must terminate without inventing callee boundaries.
        struct NoCalls;
        impl CallOracle for NoCalls {
            fn callees(&self, _addr: StmtAddr, _stmt: &Stmt) -> Vec<MethodId> {
                Vec::new()
            }
        }
        let mut pb = ProgramBuilder::new();
        let class = pb.class("T", Origin::App).build();
        let opaque = pb.abstract_method(class, "opaque", 0);
        let mut mb = pb.method(class, "main");
        mb.set_param_count(0);
        mb.call(None, InvokeKind::Static, opaque, None, vec![]);
        mb.ret(None);
        let main = mb.finish();
        let program = pb.finish();

        let r = solve_interprocedural(&program, &NoCalls, &[main], &InterConsts);
        assert_eq!(r.solves, 1);
        assert_eq!(r.per_method.len(), 1);
        assert!(r.per_method.contains_key(&main));
    }
}
