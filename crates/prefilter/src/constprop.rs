//! Sparse conditional constant propagation over `apir` locals.
//!
//! A small SCCP-style analysis per method, expressed as an instance of
//! the generic monotone framework in [`apir::dataflow`]: block entry
//! states map locals to known constants (absent = unknown, intersection
//! join), and the edge transfer refutes the untaken side of an `If`
//! whose condition folds to a constant — the framework's executable-edge
//! semantics. At the fixpoint, an `If` edge of an executable block that
//! was never taken is statically infeasible, and a block with no
//! executable in-edge is dead.
//!
//! Both facts are consumed twice: the prefilter drops candidate accesses
//! in dead blocks ([`crate::Verdict::ConstProp`]), and the infeasible
//! edges are exported to the symbolic refuter so backward path search
//! never crosses them.

use apir::dataflow::{self, DataflowAnalysis, JoinSemiLattice};
use apir::{
    BinOp, BlockId, CmpOp, ConstValue, Local, Method, Operand, Stmt, StmtAddr, Terminator, UnOp,
};
use std::collections::HashMap;

/// Per-method constant-propagation facts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConstFacts {
    /// `If` edges that can never be taken, in `(from, to)` block order.
    pub infeasible: Vec<(BlockId, BlockId)>,
    /// Blocks that never execute (no feasible in-edge), sorted.
    pub dead_blocks: Vec<BlockId>,
}

impl ConstFacts {
    /// Whether `block` was proven dead.
    pub fn is_dead(&self, block: BlockId) -> bool {
        self.dead_blocks.binary_search(&block).is_ok()
    }
}

/// Known-constant environment at a program point (absent local =
/// unknown). The lattice order is pointwise: a state is *lower* the more
/// constants it pins down, and the join intersects agreeing bindings.
#[derive(Debug, Clone, Default)]
struct ConstState(HashMap<Local, ConstValue>);

impl JoinSemiLattice for ConstState {
    fn join(&mut self, other: &Self) -> bool {
        let before = self.0.len();
        self.0.retain(|l, v| other.0.get(l) == Some(v));
        self.0.len() != before
    }
}

/// The SCCP instance: forward constant folding with branch refutation.
struct Sccp;

impl DataflowAnalysis for Sccp {
    type State = ConstState;

    fn boundary_state(&self, _method: &Method) -> ConstState {
        ConstState::default()
    }

    fn transfer_stmt(&self, _addr: StmtAddr, stmt: &Stmt, state: &mut ConstState) {
        transfer(stmt, &mut state.0);
    }

    fn transfer_edge(
        &self,
        _method: &Method,
        _from: BlockId,
        term: &Terminator,
        to: BlockId,
        state: &ConstState,
    ) -> Option<ConstState> {
        if let Terminator::If {
            cond,
            then_bb,
            else_bb,
        } = *term
        {
            if then_bb != else_bb {
                if let Some(ConstValue::Bool(v)) = eval(cond, &state.0) {
                    let taken = if v { then_bb } else { else_bb };
                    if to != taken {
                        return None;
                    }
                }
            }
        }
        Some(state.clone())
    }
}

/// Analyzes one method body.
pub fn analyze_method(method: &Method) -> ConstFacts {
    let results = dataflow::solve(method, &Sccp);
    let mut facts = ConstFacts::default();
    for (b, block) in method.iter_blocks() {
        if !results.reached(b) {
            facts.dead_blocks.push(b);
            continue;
        }
        if let Terminator::If {
            then_bb, else_bb, ..
        } = block.terminator
        {
            if then_bb != else_bb {
                for succ in [then_bb, else_bb] {
                    if !results.edge_executable(b, succ) {
                        facts.infeasible.push((b, succ));
                    }
                }
            }
        }
    }
    facts
}

fn eval(op: Operand, state: &HashMap<Local, ConstValue>) -> Option<ConstValue> {
    match op {
        Operand::Const(c) => Some(c),
        Operand::Local(l) => state.get(&l).copied(),
    }
}

fn transfer(stmt: &Stmt, state: &mut HashMap<Local, ConstValue>) {
    match stmt {
        Stmt::Const { dst, value } => {
            state.insert(*dst, *value);
        }
        Stmt::Move { dst, src } => match state.get(src).copied() {
            Some(v) => {
                state.insert(*dst, v);
            }
            None => {
                state.remove(dst);
            }
        },
        Stmt::UnOp { dst, op, src } => {
            let v = match (op, eval(*src, state)) {
                (UnOp::Not, Some(ConstValue::Bool(b))) => Some(ConstValue::Bool(!b)),
                (UnOp::Neg, Some(ConstValue::Int(i))) => Some(ConstValue::Int(i.wrapping_neg())),
                _ => None,
            };
            set_or_clear(state, *dst, v);
        }
        Stmt::BinOp { dst, op, lhs, rhs } => {
            let v = apply_binop(*op, eval(*lhs, state), eval(*rhs, state));
            set_or_clear(state, *dst, v);
        }
        Stmt::New { dst, .. } | Stmt::Load { dst, .. } | Stmt::StaticLoad { dst, .. } => {
            state.remove(dst);
        }
        Stmt::Call { dst, .. } => {
            if let Some(d) = dst {
                state.remove(d);
            }
        }
        Stmt::Store { .. } | Stmt::StaticStore { .. } => {}
    }
}

fn set_or_clear(state: &mut HashMap<Local, ConstValue>, dst: Local, v: Option<ConstValue>) {
    match v {
        Some(v) => {
            state.insert(dst, v);
        }
        None => {
            state.remove(&dst);
        }
    }
}

fn apply_binop(op: BinOp, lhs: Option<ConstValue>, rhs: Option<ConstValue>) -> Option<ConstValue> {
    let (l, r) = (lhs?, rhs?);
    match (op, l, r) {
        (BinOp::Add, ConstValue::Int(a), ConstValue::Int(b)) => {
            Some(ConstValue::Int(a.wrapping_add(b)))
        }
        (BinOp::Sub, ConstValue::Int(a), ConstValue::Int(b)) => {
            Some(ConstValue::Int(a.wrapping_sub(b)))
        }
        (BinOp::Mul, ConstValue::Int(a), ConstValue::Int(b)) => {
            Some(ConstValue::Int(a.wrapping_mul(b)))
        }
        (BinOp::And, ConstValue::Bool(a), ConstValue::Bool(b)) => Some(ConstValue::Bool(a && b)),
        (BinOp::Or, ConstValue::Bool(a), ConstValue::Bool(b)) => Some(ConstValue::Bool(a || b)),
        (BinOp::Cmp(CmpOp::Eq), a, b) => Some(ConstValue::Bool(a == b)),
        (BinOp::Cmp(CmpOp::Ne), a, b) => Some(ConstValue::Bool(a != b)),
        (BinOp::Cmp(CmpOp::Lt), ConstValue::Int(a), ConstValue::Int(b)) => {
            Some(ConstValue::Bool(a < b))
        }
        (BinOp::Cmp(CmpOp::Le), ConstValue::Int(a), ConstValue::Int(b)) => {
            Some(ConstValue::Bool(a <= b))
        }
        _ => None,
    }
}
