//! The seven happens-before rules of §4.3 and SHBG construction.

use crate::bitmat::BitMatrix;
use android_model::{ActionId, ActionKind};
use apir::{BlockId, CallSiteId, Dominators, Method, MethodId, Stmt, StmtAddr};
use harness_gen::HarnessResult;
use pointer::{Analysis, CtxId};
use std::collections::{BTreeMap, HashMap, HashSet};

/// The per-method dominance fact the HB rules consume: which call
/// statements of one method dominate which others. Rules 2–4 only ever
/// query dominance between pairs of `Call` statements (harness callback
/// invocation sites and posting sites), so the full dominator tree
/// compresses to this pair list — a pure function of the method body,
/// cacheable by content hash in the summary store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CallDominance {
    /// Sorted `(dominator block, dominator stmt, dominated block,
    /// dominated stmt)` tuples over distinct call-statement pairs.
    pub pairs: Vec<(u32, u32, u32, u32)>,
}

impl CallDominance {
    /// Computes the call-pair dominance fact of one method body.
    pub fn compute(method: &Method) -> Self {
        if !method.has_body() {
            return Self::default();
        }
        let calls: Vec<StmtAddr> = method
            .iter_stmts()
            .filter(|(_, s)| matches!(s, Stmt::Call { .. }))
            .map(|(a, _)| a)
            .collect();
        let dom = Dominators::compute(method);
        let mut pairs = Vec::new();
        for &a in &calls {
            for &b in &calls {
                if a != b && dom.dominates_stmt(a, b) {
                    pairs.push(Self::key(a, b));
                }
            }
        }
        pairs.sort_unstable();
        Self { pairs }
    }

    fn key(a: StmtAddr, b: StmtAddr) -> (u32, u32, u32, u32) {
        (
            a.block.index() as u32,
            a.stmt,
            b.block.index() as u32,
            b.stmt,
        )
    }

    /// Whether call statement `a` dominates call statement `b` (both must
    /// be `Call` statements of the method this fact was computed for).
    pub fn dominates(&self, a: StmtAddr, b: StmtAddr) -> bool {
        self.pairs.binary_search(&Self::key(a, b)).is_ok()
    }
}

/// Which rule introduced an HB edge (for reports and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HbRule {
    /// Rule 1: action invocation (poster ≺ posted).
    ActionInvocation,
    /// AsyncTask internal order (onPreExecute ≺ doInBackground ≺
    /// onPostExecute for the same `execute()` site).
    AsyncTaskOrder,
    /// Rule 2: lifecycle dominance in the harness CFG.
    Lifecycle,
    /// Rule 3: GUI-model dominance in the harness CFG.
    Gui,
    /// Rule 4: intra-procedural domination of posting sites.
    IntraProcDom,
    /// Rule 5: inter-procedural, intra-action domination of posting sites.
    InterProcDom,
    /// Rule 6: inter-action transitivity (Figure 7).
    InterActionTransitivity,
}

impl HbRule {
    /// Every rule, in presentation order.
    pub const ALL: [HbRule; 7] = [
        HbRule::ActionInvocation,
        HbRule::AsyncTaskOrder,
        HbRule::Lifecycle,
        HbRule::Gui,
        HbRule::IntraProcDom,
        HbRule::InterProcDom,
        HbRule::InterActionTransitivity,
    ];

    /// Dense index of the rule (position in [`HbRule::ALL`]).
    pub fn index(self) -> usize {
        match self {
            HbRule::ActionInvocation => 0,
            HbRule::AsyncTaskOrder => 1,
            HbRule::Lifecycle => 2,
            HbRule::Gui => 3,
            HbRule::IntraProcDom => 4,
            HbRule::InterProcDom => 5,
            HbRule::InterActionTransitivity => 6,
        }
    }

    /// Short column label for tables.
    pub fn short_name(self) -> &'static str {
        match self {
            HbRule::ActionInvocation => "invoke",
            HbRule::AsyncTaskOrder => "atask",
            HbRule::Lifecycle => "life",
            HbRule::Gui => "gui",
            HbRule::IntraProcDom => "dom4",
            HbRule::InterProcDom => "dom5",
            HbRule::InterActionTransitivity => "trans6",
        }
    }
}

/// Counters recorded while building the SHBG: how often each HB rule
/// fired and how many distinct edges it contributed, plus how many
/// rounds the rule-6/7 fixpoint needed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShbgStats {
    /// Rule applications attempted (an `add` call), indexed by
    /// [`HbRule::index`]. Re-derivations of an existing edge count.
    pub applications: [usize; 7],
    /// Distinct edges accepted per rule, indexed by [`HbRule::index`].
    pub accepted: [usize; 7],
    /// Rounds of the inter-action-transitivity fixpoint (rules 6 & 7).
    pub fixpoint_rounds: usize,
    /// Strongly-connected components of the HB edge relation at the
    /// final closure (reported by the SCC-condensed closure; equals the
    /// action count when the graph is acyclic).
    pub closure_sccs: usize,
}

impl ShbgStats {
    /// Total rule applications across all rules.
    pub fn total_applications(&self) -> usize {
        self.applications.iter().sum()
    }

    /// Total accepted edges across all rules.
    pub fn total_accepted(&self) -> usize {
        self.accepted.iter().sum()
    }
}

/// One direct HB edge with provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HbEdge {
    /// Earlier action.
    pub src: ActionId,
    /// Later action.
    pub dst: ActionId,
    /// The rule that introduced the edge.
    pub rule: HbRule,
}

/// The Static Happens-Before Graph: direct edges plus reachability closure.
#[derive(Debug)]
pub struct Shbg {
    /// Direct edges with provenance.
    pub edges: Vec<HbEdge>,
    /// Rule-application counters recorded during construction.
    pub stats: ShbgStats,
    closure: BitMatrix,
    n: usize,
}

impl Shbg {
    /// Whether `a ≺ b` (transitively).
    pub fn ordered(&self, a: ActionId, b: ActionId) -> bool {
        self.closure.get(a.index(), b.index())
    }

    /// Whether neither `a ≺ b` nor `b ≺ a`.
    pub fn unordered(&self, a: ActionId, b: ActionId) -> bool {
        a != b && !self.ordered(a, b) && !self.ordered(b, a)
    }

    /// Number of ordered pairs in the closure (Table 3's "HB edges").
    pub fn ordered_pair_count(&self) -> usize {
        self.closure.count_ones()
    }

    /// Number of actions.
    pub fn action_count(&self) -> usize {
        self.n
    }

    /// Direct edges introduced by `rule`.
    pub fn edges_by_rule(&self, rule: HbRule) -> Vec<HbEdge> {
        self.edges
            .iter()
            .copied()
            .filter(|e| e.rule == rule)
            .collect()
    }

    /// Renders the direct-edge graph in Graphviz DOT format, labeling each
    /// edge with the rule that introduced it. `label` names each action.
    pub fn to_dot(&self, mut label: impl FnMut(ActionId) -> String) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph shbg {\n  rankdir=TB;\n");
        let mut named: HashSet<ActionId> = HashSet::new();
        for e in &self.edges {
            for a in [e.src, e.dst] {
                if named.insert(a) {
                    let _ = writeln!(out, "  n{} [label=\"{}\"];", a.0, label(a));
                }
            }
        }
        for e in &self.edges {
            let _ = writeln!(
                out,
                "  n{} -> n{} [label=\"{:?}\"];",
                e.src.0, e.dst.0, e.rule
            );
        }
        out.push_str("}\n");
        out
    }
}

/// Builds the SHBG from a points-to analysis over a harnessed app.
pub fn build(analysis: &Analysis, harness: &HarnessResult) -> Shbg {
    build_with_dominance(analysis, harness, |_| None)
}

/// Looks up a method's [`CallDominance`] from the summary layer,
/// falling back to a locally-computed (and cached) fact for methods the
/// caller did not supply — e.g. every method under plain [`build`].
fn dom_of<'c, 'd: 'c>(
    provided: &impl Fn(MethodId) -> Option<&'d CallDominance>,
    cache: &'c mut HashMap<MethodId, CallDominance>,
    program: &apir::Program,
    m: MethodId,
) -> &'c CallDominance {
    if let Some(d) = provided(m) {
        return d;
    }
    cache
        .entry(m)
        .or_insert_with(|| CallDominance::compute(program.method(m)))
}

/// [`build`] with per-method dominance facts supplied by the summary
/// layer, looked up by method. Methods the lookup does not supply get
/// their fact computed locally, so any partial lookup is sound; results
/// are identical to [`build`] by construction.
pub fn build_with_dominance<'d>(
    analysis: &Analysis,
    harness: &HarnessResult,
    dominance: impl Fn(MethodId) -> Option<&'d CallDominance>,
) -> Shbg {
    let n = analysis.actions.len();
    let mut closure = BitMatrix::new(n);
    let mut edges: Vec<HbEdge> = Vec::new();
    let mut stats = ShbgStats::default();
    let mut edge_set: HashSet<(ActionId, ActionId)> = HashSet::new();
    let mut add = |edges: &mut Vec<HbEdge>,
                   stats: &mut ShbgStats,
                   closure: &mut BitMatrix,
                   src: ActionId,
                   dst: ActionId,
                   rule: HbRule| {
        if src == dst {
            return;
        }
        stats.applications[rule.index()] += 1;
        if edge_set.insert((src, dst)) {
            stats.accepted[rule.index()] += 1;
            edges.push(HbEdge { src, dst, rule });
            closure.set(src.index(), dst.index());
        }
    };

    let program = &harness.app.program;

    // --- Rule 1: action invocation (unique poster ≺ posted). ---
    for a in analysis.actions.actions() {
        if let Some(p) = a.parent {
            add(
                &mut edges,
                &mut stats,
                &mut closure,
                p,
                a.id,
                HbRule::ActionInvocation,
            );
        }
    }

    // --- AsyncTask order: pre ≺ bg ≺ post for the same execute() site. ---
    type TaskKey = (Option<CallSiteId>, Option<apir::AllocSiteId>);
    let mut tasks: BTreeMap<TaskKey, [Option<ActionId>; 3]> = BTreeMap::new();
    for a in analysis.actions.actions() {
        let slot = match a.kind {
            ActionKind::AsyncTaskPre => 0,
            ActionKind::AsyncTaskBg => 1,
            ActionKind::AsyncTaskPost => 2,
            _ => continue,
        };
        tasks.entry((a.origin_site, a.recv_site)).or_default()[slot] = Some(a.id);
    }
    for trio in tasks.values() {
        let present: Vec<ActionId> = trio.iter().flatten().copied().collect();
        for w in present.windows(2) {
            add(
                &mut edges,
                &mut stats,
                &mut closure,
                w[0],
                w[1],
                HbRule::AsyncTaskOrder,
            );
        }
        if present.len() == 3 {
            add(
                &mut edges,
                &mut stats,
                &mut closure,
                present[0],
                present[2],
                HbRule::AsyncTaskOrder,
            );
        }
    }

    // --- Rules 2 & 3: harness-CFG dominance orders lifecycle/GUI actions. ---
    let mut dom_cache: HashMap<MethodId, CallDominance> = HashMap::new();
    for h in &harness.activities {
        let dom = dom_of(&dominance, &mut dom_cache, program, h.method);
        let site_actions: Vec<(CallSiteId, ActionId, bool)> = h
            .sites
            .iter()
            .filter_map(|(site, kind)| {
                let action = analysis.harness_actions.get(site)?;
                let is_lifecycle = matches!(kind, harness_gen::HarnessSiteKind::Lifecycle { .. });
                Some((*site, *action, is_lifecycle))
            })
            .collect();
        for &(s1, a1, l1) in &site_actions {
            for &(s2, a2, l2) in &site_actions {
                if s1 == s2 {
                    continue;
                }
                let addr1 = program.call_site_addr(s1);
                let addr2 = program.call_site_addr(s2);
                if dom.dominates(addr1, addr2) {
                    let rule = if l1 && l2 {
                        HbRule::Lifecycle
                    } else {
                        HbRule::Gui
                    };
                    add(&mut edges, &mut stats, &mut closure, a1, a2, rule);
                }
            }
        }
    }

    // --- Rules 4 & 5: domination among posting sites of one action. ---
    // Keyed by a BTreeMap so the rule-6 fixpoint below visits posters in
    // action order — edge order (and so the recorded stats) must not
    // depend on hash-map iteration, which varies across threads.
    let mut posts_by_poster: BTreeMap<ActionId, Vec<(CallSiteId, ActionId)>> = BTreeMap::new();
    for p in &analysis.posts {
        posts_by_poster
            .entry(p.poster)
            .or_default()
            .push((p.site, p.posted));
    }
    for (&poster, posts) in &posts_by_poster {
        for i in 0..posts.len() {
            for j in 0..posts.len() {
                if i == j {
                    continue;
                }
                let (s1, a1) = posts[i];
                let (s2, a2) = posts[j];
                if a1 == a2 {
                    continue;
                }
                let t1 = analysis.actions.action(a1).thread;
                let t2 = analysis.actions.action(a2).thread;
                if !t1.same_looper(t2) {
                    continue; // posting order only fixes same-queue execution order
                }
                let addr1 = program.call_site_addr(s1);
                let addr2 = program.call_site_addr(s2);
                if addr1.method == addr2.method {
                    // Rule 4: plain intra-procedural dominance.
                    let dom = dom_of(&dominance, &mut dom_cache, program, addr1.method);
                    if dom.dominates(addr1, addr2) {
                        add(
                            &mut edges,
                            &mut stats,
                            &mut closure,
                            a1,
                            a2,
                            HbRule::IntraProcDom,
                        );
                    }
                } else {
                    // Rule 5: remove e1 from the action's ICFG; if e2 is no
                    // longer reachable, e1 de-facto dominates e2.
                    if !icfg_reachable_avoiding(analysis, program, poster, addr2, Some(addr1))
                        && icfg_reachable_avoiding(analysis, program, poster, addr2, None)
                    {
                        add(
                            &mut edges,
                            &mut stats,
                            &mut closure,
                            a1,
                            a2,
                            HbRule::InterProcDom,
                        );
                    }
                }
            }
        }
    }

    // --- Rules 6 & 7: inter-action transitivity + transitive closure, to a
    //     fixpoint (rule 6 can enable more rule 6 edges). ---
    let mut reach_buf: Vec<usize> = Vec::new();
    loop {
        stats.fixpoint_rounds += 1;
        stats.closure_sccs = closure.transitive_closure();
        let mut grew = false;
        for (p1, posts1) in &posts_by_poster {
            // Walk p1's closure row instead of probing every other
            // poster; buffered because `add` mutates the closure while
            // we iterate. Row bits ascend, matching the BTreeMap order
            // the probing loop visited posters in.
            reach_buf.clear();
            reach_buf.extend(closure.row_bits(p1.index()));
            for &p2_idx in &reach_buf {
                let p2 = ActionId(p2_idx as u32);
                if *p1 == p2 {
                    continue;
                }
                let Some(posts2) = posts_by_poster.get(&p2) else {
                    continue;
                };
                for &(_, a3) in posts1 {
                    // Hoist the row bounds check: a3 is fixed across the
                    // whole a4 sweep, so validate its row once instead of
                    // re-checking both indices on every probe.
                    let row3 = closure.checked_row(a3.index());
                    for &(_, a4) in posts2 {
                        if a3 == a4 {
                            continue;
                        }
                        let t3 = analysis.actions.action(a3).thread;
                        let t4 = analysis.actions.action(a4).thread;
                        if !t3.same_looper(t4) {
                            continue;
                        }
                        if !closure.get_in_row(row3, a4.index()) {
                            add(
                                &mut edges,
                                &mut stats,
                                &mut closure,
                                a3,
                                a4,
                                HbRule::InterActionTransitivity,
                            );
                            grew = true;
                        }
                    }
                }
            }
        }
        if !grew {
            break;
        }
    }

    Shbg {
        edges,
        stats,
        closure,
        n,
    }
}

/// Whether `target` is reachable in `action`'s interprocedural CFG from the
/// action's entry, optionally treating `avoid` as removed (paths may not
/// execute past it).
fn icfg_reachable_avoiding(
    analysis: &Analysis,
    program: &apir::Program,
    action: ActionId,
    target: StmtAddr,
    avoid: Option<StmtAddr>,
) -> bool {
    // Entry contexts: reachable contexts of the action's entry method that
    // belong to the action.
    let entry = analysis.actions.action(action).entry;
    let mut stack: Vec<(MethodId, CtxId, BlockId)> = Vec::new();
    let mut visited: HashSet<(MethodId, CtxId, BlockId)> = HashSet::new();
    for &(m, ctx) in &analysis.reachable {
        if m == entry && analysis.action_of(ctx) == action {
            stack.push((m, ctx, BlockId(0)));
        }
    }
    while let Some((m, ctx, block)) = stack.pop() {
        if !visited.insert((m, ctx, block)) {
            continue;
        }
        let method = program.method(m);
        if !method.has_body() || block.index() >= method.blocks.len() {
            continue;
        }
        let bb = method.block(block);
        let mut cut = false;
        for (i, stmt) in bb.stmts.iter().enumerate() {
            let here = StmtAddr::new(m, block, i as u32);
            if here == target {
                return true;
            }
            if Some(here) == avoid {
                cut = true;
                break; // cannot execute past the removed node
            }
            if let Stmt::Call { site, .. } = stmt {
                if let Some(callees) = analysis.cg_edges.get(&(m, ctx, *site)) {
                    for &(cm, cctx) in callees {
                        // Stay within the action.
                        if analysis.action_of(cctx) == action {
                            stack.push((cm, cctx, BlockId(0)));
                        }
                    }
                }
            }
        }
        if !cut {
            for succ in bb.terminator.successors() {
                stack.push((m, ctx, succ));
            }
        }
    }
    false
}
