//! Goal-directed backward symbolic execution (§5).
//!
//! A candidate race ⟨αA, αB⟩ is a **true positive** iff *both* orderings of
//! the two actions admit a feasible witness path:
//!
//! - order "B before A": a backward path from αA through action A's code to
//!   A's entry, then from action B's exit backward *through αB* to B's
//!   entry, with all accumulated path constraints simultaneously
//!   satisfiable (strong updates conflict-checked along the way);
//! - and symmetrically for "A before B".
//!
//! If either direction has no witness, the candidate is refuted — the
//! accesses are protected by ad-hoc synchronization. Budget exhaustion
//! reports the race (over-approximation, §5 "Caching").
//!
//! The search crosses every CFG predecessor edge. What prunes a path is
//! the search's own state: a conflicting constraint or the per-path
//! block-visit bound. Nothing carries over from one query to the next.

use crate::constraints::{Constraint, ConstraintStore, SymLoc};
use android_model::{ActionId, ActionKind};
use apir::{
    BlockId, CallSiteId, ConstValue, FieldId, Local, MethodId, Operand, Program, Stmt, StmtAddr,
    Terminator,
};
use pointer::{Access, Analysis, CtxId};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Per-path bound on re-visiting one basic block (backward loop
/// unrolling).
const BLOCK_VISIT_LIMIT: u32 = 2;

/// Maximum backward steps per query direction.
const MAX_STEPS: usize = 200_000;

/// Outcome of a refutation query on a candidate race.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// One direction has no feasible witness: the pair is ordered by
    /// ad-hoc synchronization — not a race.
    Refuted,
    /// Both directions witnessed: reported as a race.
    TruePositive,
    /// Budget exhausted: reported as a (possibly false-positive) race.
    Budget,
}

/// Aggregate statistics across queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefuterStats {
    /// Queries issued.
    pub queries: usize,
    /// Queries refuted.
    pub refuted: usize,
    /// Queries witnessed in both directions.
    pub witnessed: usize,
    /// Queries that ran out of budget.
    pub budget_exhausted: usize,
    /// Always 0: kept only for callers that still read it. There is no
    /// refuted-node cache, so no query is answered from one.
    pub cache_hits: usize,
    /// Total paths explored.
    pub paths: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Backward from the later access to its action entry.
    Later,
    /// Backward from the earlier action's exit through the earlier access.
    Earlier,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WitnessResult {
    Witness,
    NoWitness,
    Budget,
}

#[derive(Debug, Clone)]
struct State {
    m: MethodId,
    ctx: CtxId,
    block: BlockId,
    /// Index of the next statement to process, walking down to `-1`.
    next: i32,
    store: ConstraintStore,
    /// Resume points for backward descents into callees.
    ret_stack: Vec<(MethodId, CtxId, BlockId, i32)>,
    visits: HashMap<(MethodId, BlockId), u32>,
    seen_target: bool,
    phase: Phase,
}

/// Inverse call-graph index: callee frame → (caller frame, call site).
type CallerIndex = HashMap<(MethodId, CtxId), Vec<(MethodId, CtxId, CallSiteId)>>;

/// The backward symbolic-execution refuter.
#[derive(Debug)]
pub struct Refuter<'a> {
    program: &'a Program,
    analysis: &'a Analysis,
    /// Maximum forked paths per query direction.
    max_paths: usize,
    /// Inverse call graph: callee frame → (caller frame, site). Behind
    /// an `Arc` so the backward search can walk it while `self` is
    /// mutably borrowed.
    callers: Arc<CallerIndex>,
    /// `Message.what`'s field id, enabling the §5 on-demand
    /// constant-propagation facts for `handleMessage` actions.
    message_what_field: Option<FieldId>,
    /// Aggregate statistics.
    pub stats: RefuterStats,
}

impl<'a> Refuter<'a> {
    /// Creates a refuter over a finished analysis, exploring at most
    /// `max_paths` forked paths per query direction (the paper uses
    /// 5,000).
    pub fn new(analysis: &'a Analysis, program: &'a Program, max_paths: usize) -> Self {
        let mut callers: CallerIndex = HashMap::new();
        for (&(cm, cctx, site), callees) in &analysis.cg_edges {
            for &(m, ctx) in callees {
                callers.entry((m, ctx)).or_default().push((cm, cctx, site));
            }
        }
        // The source map iterates in hash order, which varies per
        // process; sorted caller lists keep path exploration (and its
        // budget counters) identical from run to run.
        for list in callers.values_mut() {
            list.sort_unstable();
        }
        Self {
            program,
            analysis,
            max_paths,
            callers: Arc::new(callers),
            message_what_field: None,
            stats: RefuterStats::default(),
        }
    }

    /// Enables `Message.what` constant-propagation facts: a
    /// `handleMessage` action with a known message code contributes
    /// `msg.what = code` to every query touching it.
    pub fn with_message_model(mut self, message_what: FieldId) -> Self {
        self.message_what_field = Some(message_what);
        self
    }

    /// Checks store consistency against the action's known facts at its
    /// entry boundary (currently: the constant message code).
    fn action_facts_ok(&self, store: &ConstraintStore, action: ActionId, ctx: CtxId) -> bool {
        let Some(wf) = self.message_what_field else {
            return true;
        };
        let a = self.analysis.actions.action(action);
        let ActionKind::MessageHandle { what: Some(w) } = a.kind else {
            return true;
        };
        let pts = self.analysis.pts_var(a.entry, ctx, Local(1));
        for (loc, c) in store.iter() {
            if let SymLoc::Heap(o, f) = loc {
                if f == wf && pts.contains(o) && !c.admits(ConstValue::Int(w)) {
                    return false;
                }
            }
        }
        true
    }

    /// Queries a candidate racy pair.
    pub fn refute_pair(&mut self, a: &Access, b: &Access) -> Outcome {
        self.stats.queries += 1;
        let d1 = self.witness(a, b);
        let d2 = if d1 == WitnessResult::NoWitness {
            d1
        } else {
            self.witness(b, a)
        };
        if d2 == WitnessResult::NoWitness {
            self.stats.refuted += 1;
            Outcome::Refuted
        } else if d1 == WitnessResult::Budget || d2 == WitnessResult::Budget {
            self.stats.budget_exhausted += 1;
            Outcome::Budget
        } else {
            self.stats.witnessed += 1;
            Outcome::TruePositive
        }
    }

    /// Searches for a witness of the schedule "`earlier`'s action completes,
    /// then `later`'s action runs up to its access".
    fn witness(&mut self, later: &Access, earlier: &Access) -> WitnessResult {
        let later_action = later.action;
        let earlier_action = earlier.action;
        let mut steps = 0usize;
        let mut paths = 1usize;

        // Which frames of the earlier action can reach the target access's
        // frame (used to decide backward descents into callees).
        let reach_target = self.frames_reaching(earlier.method, earlier.ctx, earlier_action);

        let mut stack: Vec<State> = vec![State {
            m: later.method,
            ctx: later.ctx,
            block: later.addr.block,
            next: later.addr.stmt as i32 - 1,
            store: ConstraintStore::new(),
            ret_stack: Vec::new(),
            visits: HashMap::new(),
            seen_target: false,
            phase: Phase::Later,
        }];

        while let Some(mut st) = stack.pop() {
            steps += 1;
            if steps > MAX_STEPS || paths > self.max_paths {
                self.stats.paths += paths;
                return WitnessResult::Budget;
            }

            if st.next >= 0 {
                let method = self.program.method(st.m);
                let stmt = method.block(st.block).stmts[st.next as usize].clone();
                let here = StmtAddr::new(st.m, st.block, st.next as u32);
                if st.phase == Phase::Earlier && here == earlier.addr {
                    st.seen_target = true;
                }
                // Backward descent into callees (earlier phase only, and
                // only while hunting for the target access).
                if let Stmt::Call { site, dst, .. } = &stmt {
                    if st.phase == Phase::Earlier && !st.seen_target {
                        if let Some(callees) = self.analysis.cg_edges.get(&(st.m, st.ctx, *site)) {
                            let mut descended = false;
                            for &(cm, cctx) in callees {
                                if self.analysis.action_of(cctx) != earlier_action
                                    || !reach_target.contains(&(cm, cctx))
                                {
                                    continue;
                                }
                                for exit in self.exit_blocks(cm) {
                                    let mut forked = st.clone();
                                    forked.next -= 1; // resume before the call
                                    let resume = (st.m, st.ctx, st.block, forked.next);
                                    let mut child = State {
                                        m: cm,
                                        ctx: cctx,
                                        block: exit,
                                        next: self.program.method(cm).block(exit).stmts.len()
                                            as i32
                                            - 1,
                                        store: st.store.clone(),
                                        ret_stack: {
                                            let mut r = st.ret_stack.clone();
                                            r.push(resume);
                                            r
                                        },
                                        visits: st.visits.clone(),
                                        seen_target: st.seen_target,
                                        phase: st.phase,
                                    };
                                    // Return-value constraint transfers to
                                    // the return operand.
                                    if let Some(d) = dst {
                                        if let Some(c) = child.store.take(SymLoc::Local(*d)) {
                                            let term =
                                                &self.program.method(cm).block(exit).terminator;
                                            if let Terminator::Return(Some(op)) = term {
                                                if !add_operand_constraint(&mut child.store, *op, c)
                                                {
                                                    continue;
                                                }
                                            }
                                        }
                                    }
                                    paths += 1;
                                    descended = true;
                                    stack.push(child);
                                }
                            }
                            if descended {
                                continue; // the descents replace this state
                            }
                        }
                    }
                }
                if !self.transfer(&mut st, &stmt) {
                    continue; // infeasible
                }
                st.next -= 1;
                stack.push(st);
                continue;
            }

            // next < 0: cross to predecessors or handle method entry.
            let method = self.program.method(st.m);
            let pred_list = method.preds(st.block);
            if !pred_list.is_empty() {
                for &p in pred_list {
                    let count = st.visits.get(&(st.m, p)).copied().unwrap_or(0);
                    if count >= BLOCK_VISIT_LIMIT {
                        continue;
                    }
                    let mut forked = st.clone();
                    *forked.visits.entry((st.m, p)).or_insert(0) += 1;
                    // Branch condition constraint.
                    if let Terminator::If {
                        cond,
                        then_bb,
                        else_bb,
                    } = &method.block(p).terminator
                    {
                        let want = if *then_bb == st.block && *else_bb == st.block {
                            None
                        } else if *then_bb == st.block {
                            Some(true)
                        } else {
                            Some(false)
                        };
                        if let Some(b) = want {
                            if !add_operand_constraint(
                                &mut forked.store,
                                *cond,
                                Constraint::Eq(ConstValue::Bool(b)),
                            ) {
                                continue;
                            }
                        }
                    }
                    forked.block = p;
                    forked.next = method.block(p).stmts.len() as i32 - 1;
                    paths += 1;
                    stack.push(forked);
                }
                continue;
            }

            // Method entry reached.
            if let Some((rm, rctx, rblock, rnext)) = st.ret_stack.last().copied() {
                // Pop a backward descent: substitute params at the call.
                let call_stmt = self
                    .call_stmt_at(rm, rblock, rnext + 1)
                    .expect("resume points at a call statement");
                let mut store = st.store.clone();
                if !self.substitute_params(&mut store, st.m, rm, rctx, &call_stmt) {
                    continue;
                }
                let mut resumed = st.clone();
                resumed.ret_stack.pop();
                resumed.m = rm;
                resumed.ctx = rctx;
                resumed.block = rblock;
                resumed.next = rnext;
                resumed.store = store;
                stack.push(resumed);
                continue;
            }

            match st.phase {
                Phase::Later => {
                    let entry = self.analysis.actions.action(later_action).entry;
                    if st.m == entry {
                        if !self.action_facts_ok(&st.store, later_action, st.ctx) {
                            continue; // contradicts the known message code
                        }
                        // Phase boundary: start the earlier action's
                        // backward walk from its exits.
                        let mut store = st.store.clone();
                        store.drop_locals();
                        for ectx in self.action_entry_ctxs(earlier_action) {
                            let em = self.analysis.actions.action(earlier_action).entry;
                            for exit in self.exit_blocks(em) {
                                paths += 1;
                                stack.push(State {
                                    m: em,
                                    ctx: ectx,
                                    block: exit,
                                    next: self.program.method(em).block(exit).stmts.len() as i32
                                        - 1,
                                    store: store.clone(),
                                    ret_stack: Vec::new(),
                                    visits: HashMap::new(),
                                    seen_target: false,
                                    phase: Phase::Earlier,
                                });
                            }
                        }
                    } else {
                        // Ascend to same-action callers.
                        let callers = Arc::clone(&self.callers);
                        let Some(callers) = callers.get(&(st.m, st.ctx)) else {
                            continue;
                        };
                        for &(cm, cctx, site) in callers {
                            if self.analysis.action_of(cctx) != later_action {
                                continue;
                            }
                            let Some(addr) = self.site_addr(site) else {
                                continue;
                            };
                            let Some(call_stmt) =
                                self.call_stmt_at(cm, addr.block, addr.stmt as i32)
                            else {
                                continue;
                            };
                            let mut store = st.store.clone();
                            if !self.substitute_params(&mut store, st.m, cm, cctx, &call_stmt) {
                                continue;
                            }
                            paths += 1;
                            stack.push(State {
                                m: cm,
                                ctx: cctx,
                                block: addr.block,
                                next: addr.stmt as i32 - 1,
                                store,
                                ret_stack: Vec::new(),
                                visits: st.visits.clone(),
                                seen_target: st.seen_target,
                                phase: st.phase,
                            });
                        }
                    }
                }
                Phase::Earlier => {
                    let entry = self.analysis.actions.action(earlier_action).entry;
                    if st.m == entry
                        && st.seen_target
                        && self.action_facts_ok(&st.store, earlier_action, st.ctx)
                    {
                        self.stats.paths += paths;
                        return WitnessResult::Witness;
                    }
                    // Without the target on the path, this path does not
                    // witness αB executing — dead end.
                }
            }
        }
        self.stats.paths += paths;
        WitnessResult::NoWitness
    }

    // ---- helpers ----

    fn exit_blocks(&self, m: MethodId) -> Vec<BlockId> {
        self.program
            .method(m)
            .iter_blocks()
            .filter(|(_, b)| matches!(b.terminator, Terminator::Return(_)))
            .map(|(id, _)| id)
            .collect()
    }

    fn site_addr(&self, site: CallSiteId) -> Option<StmtAddr> {
        Some(self.program.call_site_addr(site))
    }

    fn call_stmt_at(&self, m: MethodId, block: BlockId, stmt: i32) -> Option<Stmt> {
        if stmt < 0 {
            return None;
        }
        self.program
            .method(m)
            .block(block)
            .stmts
            .get(stmt as usize)
            .filter(|s| matches!(s, Stmt::Call { .. }))
            .cloned()
    }

    /// All contexts of `action`'s entry method that belong to the action.
    fn action_entry_ctxs(&self, action: ActionId) -> Vec<CtxId> {
        let entry = self.analysis.actions.action(action).entry;
        let mut out: Vec<CtxId> = self
            .analysis
            .reachable
            .iter()
            .filter(|&&(m, ctx)| m == entry && self.analysis.action_of(ctx) == action)
            .map(|&(_, ctx)| ctx)
            .collect();
        out.sort_unstable();
        out
    }

    /// Frames of `action` that can reach `(tm, tctx)` in the call graph.
    fn frames_reaching(
        &self,
        tm: MethodId,
        tctx: CtxId,
        action: ActionId,
    ) -> HashSet<(MethodId, CtxId)> {
        let mut out: HashSet<(MethodId, CtxId)> = HashSet::new();
        let mut stack = vec![(tm, tctx)];
        while let Some(f) = stack.pop() {
            if !out.insert(f) {
                continue;
            }
            if let Some(callers) = self.callers.get(&f) {
                for &(cm, cctx, _) in callers {
                    if self.analysis.action_of(cctx) == action {
                        stack.push((cm, cctx));
                    }
                }
            }
        }
        out
    }

    /// Backward transfer of one statement; `false` means infeasible.
    fn transfer(&self, st: &mut State, stmt: &Stmt) -> bool {
        let store = &mut st.store;
        match stmt {
            Stmt::Const { dst, value } => store.discharge_const(SymLoc::Local(*dst), *value),
            Stmt::Move { dst, src } => match store.take(SymLoc::Local(*dst)) {
                Some(c) => store.add(SymLoc::Local(*src), c),
                None => true,
            },
            Stmt::UnOp { dst, op, src } => {
                let Some(c) = store.take(SymLoc::Local(*dst)) else {
                    return true;
                };
                match (op, c.normalized()) {
                    (apir::UnOp::Not, Constraint::Eq(ConstValue::Bool(b))) => {
                        add_operand_constraint(store, *src, Constraint::Eq(ConstValue::Bool(!b)))
                    }
                    _ => true, // arithmetic negation: drop
                }
            }
            Stmt::BinOp { dst, op, lhs, rhs } => {
                let Some(c) = store.take(SymLoc::Local(*dst)) else {
                    return true;
                };
                let Constraint::Eq(ConstValue::Bool(b)) = c.normalized() else {
                    return true;
                };
                let eq_holds = match op {
                    apir::BinOp::Cmp(apir::CmpOp::Eq) => b,
                    apir::BinOp::Cmp(apir::CmpOp::Ne) => !b,
                    _ => return true, // orderings/arithmetic: drop
                };
                match (lhs, rhs) {
                    (Operand::Local(l), Operand::Const(v))
                    | (Operand::Const(v), Operand::Local(l)) => {
                        let cc = if eq_holds {
                            Constraint::Eq(*v)
                        } else {
                            Constraint::Ne(*v)
                        };
                        store.add(SymLoc::Local(*l), cc)
                    }
                    (Operand::Const(a), Operand::Const(b2)) => (a == b2) == eq_holds,
                    _ => true,
                }
            }
            Stmt::New { dst, .. } => match store.take(SymLoc::Local(*dst)) {
                Some(Constraint::Eq(ConstValue::Null)) => false, // fresh ≠ null
                _ => true,
            },
            Stmt::Load { dst, obj, field } => {
                let Some(c) = store.take(SymLoc::Local(*dst)) else {
                    return true;
                };
                let pts = self.analysis.pts_var(st.m, st.ctx, *obj);
                if let Some(o) = pts.as_singleton() {
                    store.add(SymLoc::Heap(o, *field), c)
                } else {
                    true // may-alias base: drop the constraint
                }
            }
            Stmt::Store { obj, field, value } => {
                let pts = self.analysis.pts_var(st.m, st.ctx, *obj);
                if let Some(o) = pts.as_singleton() {
                    match store.take(SymLoc::Heap(o, *field)) {
                        None => true,
                        Some(c) => match value {
                            Operand::Const(v) => c.admits(*v),
                            Operand::Local(l) => store.add(SymLoc::Local(*l), c),
                        },
                    }
                } else {
                    true // weak update: constraint neither discharged nor conflicted
                }
            }
            Stmt::StaticLoad { dst, field } => match store.take(SymLoc::Local(*dst)) {
                Some(c) => store.add(SymLoc::Static(*field), c),
                None => true,
            },
            Stmt::StaticStore { field, value } => match store.take(SymLoc::Static(*field)) {
                None => true,
                Some(c) => match value {
                    Operand::Const(v) => c.admits(*v),
                    Operand::Local(l) => store.add(SymLoc::Local(*l), c),
                },
            },
            Stmt::Call { dst, .. } => {
                if let Some(d) = dst {
                    store.take(SymLoc::Local(*d)); // opaque return value
                }
                true
            }
        }
    }

    /// Rewrites callee-parameter constraints into caller-side constraints
    /// when crossing a method entry backwards.
    fn substitute_params(
        &self,
        store: &mut ConstraintStore,
        callee: MethodId,
        _caller: MethodId,
        _cctx: CtxId,
        call_stmt: &Stmt,
    ) -> bool {
        let Stmt::Call { receiver, args, .. } = call_stmt else {
            return true;
        };
        let callee_m = self.program.method(callee);
        let mut transfers: Vec<(Operand, Constraint)> = Vec::new();
        let shift = if callee_m.is_static { 0 } else { 1 };
        for p in 0..callee_m.param_count {
            let Some(c) = store.take(SymLoc::Local(Local(p))) else {
                continue;
            };
            if !callee_m.is_static && p == 0 {
                if let Some(r) = receiver {
                    transfers.push((Operand::Local(*r), c))
                }
            } else if let Some(a) = args.get((p - shift) as usize) {
                transfers.push((*a, c));
            }
        }
        store.drop_locals(); // non-parameter locals are dead before entry
        for (op, c) in transfers {
            if !add_operand_constraint(store, op, c) {
                return false;
            }
        }
        true
    }
}

/// Adds a constraint on an operand: checks constants, constrains locals.
fn add_operand_constraint(store: &mut ConstraintStore, op: Operand, c: Constraint) -> bool {
    match op {
        Operand::Const(v) => c.admits(v),
        Operand::Local(l) => store.add(SymLoc::Local(l), c),
    }
}
