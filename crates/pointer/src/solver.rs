//! The context-sensitive Andersen solver with on-the-fly call graph.
//!
//! Standard inclusion-based points-to analysis (difference propagation over
//! a constraint graph), extended with:
//!
//! - **on-the-fly dispatch**: virtual calls resolve per receiver object as
//!   its points-to set grows;
//! - **the Android concurrency model**: calls classified as
//!   [`FrameworkOp`]s mint [`Action`]s (Table 1) and analyze the posted
//!   callback bodies under fresh action contexts;
//! - **harness sites**: the generated harness's callback invocation sites
//!   each start a lifecycle/GUI/system action;
//! - **inflated views**: `findViewById(const)` returns the per-`(activity,
//!   id)` view object (§3.3's `InflatedViewContext`).

use crate::ctx::{CtxData, CtxId, CtxTable, ObjData, ObjId, ObjTable, SelectorKind};
use crate::ptsset::PtsSet;
use android_model::{
    ActionId, ActionKind, ActionRegistry, FrameworkClasses, FrameworkOp, ThreadKind,
};
use apir::{
    local_defs, CallSiteId, ClassId, ConstValue, FieldId, InvokeKind, Local, MethodId, Operand,
    Program, Stmt, StmtAddr, Terminator,
};
use harness_gen::{HarnessResult, HarnessSiteKind};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, HashSet};

/// Soundness policy for opaque call edges — reflection lookups and
/// inter-component intent dispatch ([`FrameworkOp::is_policy_gated`]).
///
/// Android call graphs silently drop methods behind these edges (Samhi
/// et al.); the policy makes that unsoundness explicit and selectable:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OpaquePolicy {
    /// Leave every policy-gated site unmodeled. Byte-identical to the
    /// pipeline before soundness modes existed.
    #[default]
    Ignore,
    /// Everything `Resolve` does, plus conservative fallbacks at sites
    /// the table cannot prove: pointer arguments are smashed into the
    /// published-heap set and type-compatible component callbacks are
    /// marked reachable. Over-approximates `Resolve`.
    Havoc,
    /// Resolve constant class-name strings and manifest-declared intent
    /// targets to concrete callees via the resolve table; sites the
    /// table cannot prove stay silent (per-site fallback to `Ignore`).
    Resolve,
}

impl OpaquePolicy {
    /// Stable lowercase name (used by CLI flags and metrics output).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            OpaquePolicy::Ignore => "ignore",
            OpaquePolicy::Havoc => "havoc",
            OpaquePolicy::Resolve => "resolve",
        }
    }

    /// All policies, ordered from least to most sound.
    pub const ALL: [OpaquePolicy; 3] = [
        OpaquePolicy::Ignore,
        OpaquePolicy::Resolve,
        OpaquePolicy::Havoc,
    ];
}

impl std::str::FromStr for OpaquePolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ignore" => Ok(OpaquePolicy::Ignore),
            "havoc" => Ok(OpaquePolicy::Havoc),
            "resolve" => Ok(OpaquePolicy::Resolve),
            other => Err(format!(
                "unknown opaque policy `{other}` (expected `ignore`, `havoc`, or `resolve`)"
            )),
        }
    }
}

impl std::fmt::Display for OpaquePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Analysis options beyond the context selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisOptions {
    /// Model `ArrayList.setAt`/`getAt` with per-constant-index slot fields
    /// (the §6.5 future-work extension after Dillig et al.). When off,
    /// every indexed access folds onto the summarized `contents` field.
    pub index_sensitive: bool,
    /// Soundness policy for reflection and intent-dispatch edges.
    pub opaque_policy: OpaquePolicy,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        Self {
            index_sensitive: true,
            opaque_policy: OpaquePolicy::default(),
        }
    }
}

/// A record of one action posting another (consumed by HB rules 1 and 4–6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PostRecord {
    /// The action whose code contains the posting site.
    pub poster: ActionId,
    /// The posting call site.
    pub site: CallSiteId,
    /// The posted action.
    pub posted: ActionId,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum NodeKey {
    Var {
        method: MethodId,
        ctx: CtxId,
        local: Local,
    },
    Ret {
        method: MethodId,
        ctx: CtxId,
    },
    Field {
        obj: ObjId,
        field: FieldId,
    },
    Static {
        field: FieldId,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct NodeId(pub(crate) u32);

/// Counters recorded while the solver runs, reported per stage by the
/// pipeline's metrics. All counts are deterministic: the solver visits
/// work in a sorted order, so the same app yields the same counters on
/// every run and every thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Worklist pops that carried a non-empty delta (i.e. real
    /// propagation rounds, not spurious re-queues).
    pub worklist_iterations: usize,
    /// Objects newly inserted into some points-to set.
    pub propagations: usize,
    /// Total call-graph edges discovered.
    pub cg_edges: usize,
    /// Reachable `(method, context)` pairs.
    pub reachable_contexts: usize,
    /// Distinct abstract objects minted.
    pub abstract_objects: usize,
    /// Heap bytes held by all points-to sets at the fixpoint (the
    /// footprint of the hybrid [`PtsSet`] representation).
    pub pts_set_bytes: usize,
}

#[derive(Debug, Clone)]
enum Pending {
    Load {
        field: FieldId,
        dst: NodeId,
    },
    Store {
        field: FieldId,
        src: SrcValue,
    },
    VCall(CallInfo),
    HarnessCall(CallInfo),
    Op(OpInfo),
    /// `havoc`-policy smash: every object reaching this node is treated
    /// as published to the heap (it escaped through an unresolved
    /// opaque call).
    Havoc,
}

#[derive(Debug, Clone, Copy)]
enum SrcValue {
    Node(NodeId),
    // Constants stored to pointer fields carry no objects; recorded for
    // completeness so stores of `null` don't create nodes.
    Nothing,
}

#[derive(Debug, Clone)]
struct CallInfo {
    site: CallSiteId,
    caller_method: MethodId,
    caller_ctx: CtxId,
    callee: MethodId,
    dst: Option<Local>,
    args: Vec<Operand>,
}

#[derive(Debug, Clone)]
struct OpInfo {
    op: FrameworkOp,
    site: CallSiteId,
    caller_method: MethodId,
    caller_ctx: CtxId,
    recv_node: Option<NodeId>,
    args: Vec<Operand>,
    /// Pre-resolved constant `Message.what`, for message ops.
    what: Option<i64>,
    /// Result destination, for ops that produce a value (reflection).
    dst: Option<Local>,
    /// Pre-resolved constant method-name string, for `MethodInvoke`.
    name_const: Option<apir::Symbol>,
}

/// The finished analysis (points-to sets, call graph, actions, posts).
#[derive(Debug)]
pub struct Analysis {
    /// The selector the analysis ran with.
    pub selector: SelectorKind,
    /// The options the analysis ran with.
    pub options: AnalysisOptions,
    /// The framework ids of the analyzed app (needed to re-recognize
    /// container ops when extracting accesses).
    pub(crate) framework: FrameworkClasses,
    /// All minted actions.
    pub actions: ActionRegistry,
    /// Method-context table.
    pub ctxs: CtxTable,
    /// Abstract-object table.
    pub objs: ObjTable,
    /// Reachable method contexts.
    pub reachable: HashSet<(MethodId, CtxId)>,
    /// Per-method reachable contexts, sorted (cached from `reachable`
    /// so [`Analysis::contexts_of`] never re-scans or re-sorts).
    pub(crate) contexts_by_method: HashMap<MethodId, Vec<CtxId>>,
    /// Call-graph edges: `(caller, ctx, site) → callees`.
    pub cg_edges: HashMap<(MethodId, CtxId, CallSiteId), Vec<(MethodId, CtxId)>>,
    /// Action-posting records.
    pub posts: Vec<PostRecord>,
    /// Harness callback site → its action.
    pub harness_actions: HashMap<CallSiteId, ActionId>,
    /// Per activity: the harness-root action.
    pub root_actions: Vec<(ClassId, ActionId)>,
    /// Opaque (reflection/intent) call sites the active policy's resolve
    /// table discharged to concrete targets. Empty under `ignore`.
    pub resolved_sites: HashSet<CallSiteId>,
    /// Objects conservatively published by the `havoc` policy: pointer
    /// arguments smashed at opaque sites the table could not resolve.
    /// Empty under `ignore` and `resolve`.
    pub havoc_escaped: HashSet<ObjId>,
    /// Counters recorded during solving.
    pub stats: SolverStats,
    pub(crate) nodes: HashMap<NodeKey, NodeId>,
    pub(crate) pts: Vec<PtsSet>,
}

static EMPTY_PTS: PtsSet = PtsSet::new();

impl Analysis {
    /// Points-to set of a local under a context.
    pub fn pts_var(&self, method: MethodId, ctx: CtxId, local: Local) -> &PtsSet {
        let key = NodeKey::Var { method, ctx, local };
        match self.nodes.get(&key) {
            Some(n) => &self.pts[n.0 as usize],
            None => &EMPTY_PTS,
        }
    }

    /// The action a context belongs to.
    pub fn action_of(&self, ctx: CtxId) -> ActionId {
        self.ctxs.get(ctx).action
    }

    /// Every reachable context of a method, in sorted order (cached at
    /// solve time; this is a map lookup, not a scan).
    pub fn contexts_of(&self, method: MethodId) -> &[CtxId] {
        self.contexts_by_method
            .get(&method)
            .map_or(&[], Vec::as_slice)
    }

    /// Total call-graph edges (for stats).
    pub fn cg_edge_count(&self) -> usize {
        self.cg_edges.values().map(Vec::len).sum()
    }

    /// The call graph without contexts: every `(caller, site, callee)`
    /// triple. Contexts are numbered in run-dependent order, so the
    /// call graphs of two runs compare over this projection.
    pub fn context_insensitive_edges(&self) -> BTreeSet<(MethodId, CallSiteId, MethodId)> {
        let edges = self
            .cg_edges
            .iter()
            .flat_map(|(&(caller, _, site), callees)| {
                callees
                    .iter()
                    .map(move |&(callee, _)| (caller, site, callee))
            });
        edges.collect()
    }

    /// The analyzed app's framework ids.
    pub fn framework(&self) -> &FrameworkClasses {
        &self.framework
    }

    /// Every object that appears in at least one instance-field or
    /// static-field points-to set — i.e. every object published to the
    /// heap. An object absent from this set is reachable only through
    /// locals (and return values), which is the load-bearing fact behind
    /// the prefilter's escape analysis: a reference can only cross from
    /// one action to another via the heap, via a posted receiver, or via
    /// an unmodeled callee.
    pub fn heap_published(&self) -> HashSet<ObjId> {
        let mut out = HashSet::new();
        for (key, node) in &self.nodes {
            if matches!(key, NodeKey::Field { .. } | NodeKey::Static { .. }) {
                out.extend(self.pts[node.0 as usize].iter());
            }
        }
        // `havoc` publishes smashed arguments of unresolved opaque
        // calls: the unknown callee may store them anywhere.
        out.extend(self.havoc_escaped.iter().copied());
        out
    }

    /// Call sites in `(method, ctx)` that resolved to no analyzed callee
    /// (framework ops, body-less targets, empty receiver sets). The
    /// escape analysis treats pointer arguments at such sites as having
    /// escaped, since the callee's effect on them is unmodeled. A site
    /// the opaque-policy table resolved is *not* opaque even when its
    /// effect is purely model-level (e.g. `Class.forName` minting a
    /// token without a call edge).
    pub fn is_opaque_call(&self, method: MethodId, ctx: CtxId, site: CallSiteId) -> bool {
        if self.resolved_sites.contains(&site) {
            return false;
        }
        self.cg_edges
            .get(&(method, ctx, site))
            .is_none_or(Vec::is_empty)
    }
}

/// Runs the analysis over a harnessed app with default options.
pub fn analyze(harness: &HarnessResult, selector: SelectorKind) -> Analysis {
    analyze_opts(harness, selector, AnalysisOptions::default())
}

/// Runs the analysis with explicit options (ablation entry point).
pub fn analyze_opts(
    harness: &HarnessResult,
    selector: SelectorKind,
    options: AnalysisOptions,
) -> Analysis {
    Solver::new(harness, selector, options).run()
}

/// The propagation worklist: a min-heap on `(last_fired_stamp, node)`.
/// A node that has not fired yet (or fired longest ago) pops first, so
/// deltas flow downstream before upstream nodes re-fire; node ids break ties, so the order is
/// deterministic. The solver's `queued` flags keep at most one live
/// entry per node.
type Worklist = BinaryHeap<Reverse<(u64, NodeId)>>;

/// Reusable solver working memory: every per-node side table that does
/// *not* flow into the final [`Analysis`] (those are `nodes` and `pts`).
///
/// A corpus run solves hundreds of apps back to back; taking the scratch
/// from a process-wide pool lets each solve inherit the previous app's
/// vector capacities instead of growing them from zero again. Slots are
/// cleared lazily as nodes are minted (`Solver::node`), so taking a
/// scratch is O(1) regardless of how big the previous solve was.
///
/// Reuse is invisible to results: only capacities survive between
/// solves, never values, so reports stay byte-identical with or without
/// a warm pool.
#[derive(Debug, Default)]
struct SolverScratch {
    keys: Vec<NodeKey>,
    delta: Vec<Vec<ObjId>>,
    succ: Vec<Vec<NodeId>>,
    pending: Vec<Vec<Pending>>,
    queued: Vec<bool>,
    last_fired: Vec<u64>,
    worklist: Worklist,
}

/// Upper bound on idle scratches kept alive — about one per worker
/// thread; anything beyond that is dropped instead of pooled.
const MAX_POOLED_SCRATCH: usize = 16;

struct ScratchPool {
    free: std::sync::Mutex<Vec<SolverScratch>>,
    reused: std::sync::atomic::AtomicU64,
    fresh: std::sync::atomic::AtomicU64,
}

fn scratch_pool() -> &'static ScratchPool {
    static POOL: std::sync::OnceLock<ScratchPool> = std::sync::OnceLock::new();
    POOL.get_or_init(|| ScratchPool {
        free: std::sync::Mutex::new(Vec::new()),
        reused: std::sync::atomic::AtomicU64::new(0),
        fresh: std::sync::atomic::AtomicU64::new(0),
    })
}

impl ScratchPool {
    fn take(&self) -> SolverScratch {
        use std::sync::atomic::Ordering;
        let popped = self.free.lock().expect("scratch pool lock").pop();
        match popped {
            Some(s) => {
                self.reused.fetch_add(1, Ordering::Relaxed);
                s
            }
            None => {
                self.fresh.fetch_add(1, Ordering::Relaxed);
                SolverScratch::default()
            }
        }
    }

    fn give(&self, scratch: SolverScratch) {
        let mut free = self.free.lock().expect("scratch pool lock");
        if free.len() < MAX_POOLED_SCRATCH {
            free.push(scratch);
        }
    }
}

/// `(reused, fresh)` counts of solver-scratch checkouts since process
/// start. `reused > 0` on a multi-app run confirms warm working memory
/// is flowing between solves. Process-wide (not per-app) so per-app
/// [`SolverStats`] stay deterministic regardless of scheduling.
pub fn scratch_pool_stats() -> (u64, u64) {
    use std::sync::atomic::Ordering;
    let p = scratch_pool();
    (
        p.reused.load(Ordering::Relaxed),
        p.fresh.load(Ordering::Relaxed),
    )
}

struct Solver<'a> {
    program: &'a Program,
    fw: &'a FrameworkClasses,
    harness: &'a HarnessResult,
    selector: SelectorKind,
    options: AnalysisOptions,
    ctxs: CtxTable,
    objs: ObjTable,
    actions: ActionRegistry,
    nodes: HashMap<NodeKey, NodeId>,
    keys: Vec<NodeKey>,
    pts: Vec<PtsSet>,
    delta: Vec<Vec<ObjId>>,
    /// Successor lists, kept sorted so the worklist loop needs no
    /// per-pop collect-and-sort.
    succ: Vec<Vec<NodeId>>,
    pending: Vec<Vec<Pending>>,
    worklist: Worklist,
    queued: Vec<bool>,
    /// Monotone stamp of each node's last worklist firing (feeds the
    /// least-recently-fired priority).
    last_fired: Vec<u64>,
    /// Firing clock behind `last_fired`.
    clock: u64,
    reachable: HashSet<(MethodId, CtxId)>,
    cg_edges: HashMap<(MethodId, CtxId, CallSiteId), Vec<(MethodId, CtxId)>>,
    cg_edge_set: HashSet<(MethodId, CtxId, CallSiteId, MethodId, CtxId)>,
    posts: Vec<PostRecord>,
    post_set: HashSet<PostRecord>,
    harness_actions: HashMap<CallSiteId, ActionId>,
    harness_site_kinds: HashMap<CallSiteId, HarnessSiteKind>,
    alloc_action: HashMap<ObjId, ActionId>,
    resolved: HashSet<(CallSiteId, CtxId, ObjId)>,
    op_resolved: HashSet<(CallSiteId, CtxId, ObjId, ObjId)>,
    root_actions: Vec<(ClassId, ActionId)>,
    resolved_sites: HashSet<CallSiteId>,
    havoc_escaped: HashSet<ObjId>,
    stats: SolverStats,
}

/// Sentinel "no object" id for op dedup pairs.
const NO_OBJ: ObjId = ObjId(u32::MAX);

/// Splits one set out of `v` immutably and another mutably; `a != b`.
fn pair_mut(v: &mut [PtsSet], a: usize, b: usize) -> (&PtsSet, &mut PtsSet) {
    debug_assert_ne!(a, b);
    if a < b {
        let (lo, hi) = v.split_at_mut(b);
        (&lo[a], &mut hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(a);
        (&hi[0], &mut lo[b])
    }
}

impl<'a> Solver<'a> {
    fn new(harness: &'a HarnessResult, selector: SelectorKind, options: AnalysisOptions) -> Self {
        let mut harness_site_kinds = HashMap::new();
        for h in &harness.activities {
            for (site, kind) in &h.sites {
                harness_site_kinds.insert(*site, kind.clone());
            }
        }
        let SolverScratch {
            keys,
            delta,
            succ,
            pending,
            queued,
            last_fired,
            mut worklist,
        } = scratch_pool().take();
        worklist.clear();
        Self {
            program: &harness.app.program,
            fw: &harness.app.framework,
            harness,
            selector,
            options,
            ctxs: CtxTable::new(),
            objs: ObjTable::new(),
            actions: ActionRegistry::new(),
            nodes: HashMap::new(),
            keys,
            pts: Vec::new(),
            delta,
            succ,
            pending,
            worklist,
            queued,
            last_fired,
            clock: 0,
            reachable: HashSet::new(),
            cg_edges: HashMap::new(),
            cg_edge_set: HashSet::new(),
            posts: Vec::new(),
            post_set: HashSet::new(),
            harness_actions: HashMap::new(),
            harness_site_kinds,
            alloc_action: HashMap::new(),
            resolved: HashSet::new(),
            op_resolved: HashSet::new(),
            root_actions: Vec::new(),
            resolved_sites: HashSet::new(),
            havoc_escaped: HashSet::new(),
            stats: SolverStats::default(),
        }
    }

    fn run(mut self) -> Analysis {
        for h in &self.harness.activities {
            let (root, _) = self.actions.obtain(
                h.activity,
                ActionKind::HarnessRoot,
                None,
                None,
                h.method,
                ThreadKind::Main,
                None,
            );
            self.root_actions.push((h.activity, root));
            let ctx = self.ctxs.intern(CtxData {
                action: root,
                elems: Vec::new(),
            });
            self.mark_reachable(h.method, ctx);
        }
        while let Some(Reverse((_, n))) = self.worklist.pop() {
            let n_idx = n.0 as usize;
            self.queued[n_idx] = false;
            let delta = std::mem::take(&mut self.delta[n_idx]);
            if delta.is_empty() {
                // Spurious entry: a node re-queued with nothing left to do.
                continue;
            }
            self.stats.worklist_iterations += 1;
            self.clock += 1;
            self.last_fired[n_idx] = self.clock;
            // Successor lists are kept sorted, so id-order traversal —
            // required for thread-independent counters and tie-breaks —
            // is an index walk over the stored list. `add_obj` never
            // mutates successor lists, so the length is stable across the
            // loop.
            let mut i = 0;
            while i < self.succ[n_idx].len() {
                let s = self.succ[n_idx][i];
                i += 1;
                for &o in &delta {
                    self.add_obj(s, o);
                }
            }
            // Drain the pending list instead of cloning it: entries
            // added while processing (always for *other* nodes, or
            // already self-processed by `add_pending`) accumulate in the
            // emptied slot and are re-appended after the drained list so
            // the order matches what the clone-based loop produced.
            let taken = std::mem::take(&mut self.pending[n_idx]);
            for p in &taken {
                self.process_pending(p, &delta);
            }
            let added = std::mem::replace(&mut self.pending[n_idx], taken);
            self.pending[n_idx].extend(added);
        }
        self.stats.cg_edges = self.cg_edges.values().map(Vec::len).sum();
        self.stats.reachable_contexts = self.reachable.len();
        self.stats.abstract_objects = self.objs.len();
        self.stats.pts_set_bytes = self.pts.iter().map(PtsSet::heap_bytes).sum();
        let mut contexts_by_method: HashMap<MethodId, Vec<CtxId>> = HashMap::new();
        for &(m, c) in &self.reachable {
            contexts_by_method.entry(m).or_default().push(c);
        }
        for ctxs in contexts_by_method.values_mut() {
            ctxs.sort_unstable();
        }
        // Hand the working memory back for the next solve. Values never
        // survive the round trip (slots are reset as nodes are minted),
        // only capacities do.
        scratch_pool().give(SolverScratch {
            keys: std::mem::take(&mut self.keys),
            delta: std::mem::take(&mut self.delta),
            succ: std::mem::take(&mut self.succ),
            pending: std::mem::take(&mut self.pending),
            queued: std::mem::take(&mut self.queued),
            last_fired: std::mem::take(&mut self.last_fired),
            worklist: std::mem::take(&mut self.worklist),
        });
        Analysis {
            selector: self.selector,
            options: self.options,
            framework: self.fw.clone(),
            actions: self.actions,
            ctxs: self.ctxs,
            objs: self.objs,
            reachable: self.reachable,
            contexts_by_method,
            cg_edges: self.cg_edges,
            posts: self.posts,
            harness_actions: self.harness_actions,
            root_actions: self.root_actions,
            resolved_sites: self.resolved_sites,
            havoc_escaped: self.havoc_escaped,
            stats: self.stats,
            nodes: self.nodes,
            pts: self.pts,
        }
    }

    // ---- node & graph plumbing ----

    fn node(&mut self, key: NodeKey) -> NodeId {
        if let Some(&n) = self.nodes.get(&key) {
            return n;
        }
        // `pts` is the node-count authority: it starts empty every solve,
        // while the scratch-backed side tables may be longer (recycled
        // from a bigger previous solve) and are reset slot by slot here.
        let idx = self.pts.len();
        let n = NodeId(u32::try_from(idx).expect("node overflow"));
        self.nodes.insert(key.clone(), n);
        self.pts.push(PtsSet::new());
        if idx < self.keys.len() {
            self.keys[idx] = key;
            self.delta[idx].clear();
            self.succ[idx].clear();
            self.pending[idx].clear();
            self.queued[idx] = false;
            self.last_fired[idx] = 0;
        } else {
            self.keys.push(key);
            self.delta.push(Vec::new());
            self.succ.push(Vec::new());
            self.pending.push(Vec::new());
            self.queued.push(false);
            self.last_fired.push(0);
        }
        n
    }

    fn var(&mut self, method: MethodId, ctx: CtxId, local: Local) -> NodeId {
        self.node(NodeKey::Var { method, ctx, local })
    }

    fn add_obj(&mut self, n: NodeId, o: ObjId) {
        if self.pts[n.0 as usize].insert(o) {
            self.stats.propagations += 1;
            self.delta[n.0 as usize].push(o);
            if !self.queued[n.0 as usize] {
                self.queued[n.0 as usize] = true;
                self.worklist
                    .push(Reverse((self.last_fired[n.0 as usize], n)));
            }
        }
    }

    fn add_edge(&mut self, from: NodeId, to: NodeId) {
        if from == to {
            return;
        }
        let succs = &mut self.succ[from.0 as usize];
        let Err(pos) = succs.binary_search(&to) else {
            return;
        };
        succs.insert(pos, to);
        let (f, t) = (from.0 as usize, to.0 as usize);
        let Self {
            pts,
            delta,
            stats,
            queued,
            worklist,
            last_fired,
            ..
        } = self;
        let (src, dst) = pair_mut(pts, f, t);
        // Two passes, both allocation-free: record the genuinely new
        // objects in the target's delta (ascending, like add_obj would),
        // then union at word level.
        let d = &mut delta[t];
        let before = d.len();
        for o in src.iter() {
            if !dst.contains(o) {
                d.push(o);
            }
        }
        if d.len() > before {
            dst.union_in_place(src);
            stats.propagations += d.len() - before;
            if !queued[t] {
                queued[t] = true;
                worklist.push(Reverse((last_fired[t], to)));
            }
        }
    }

    fn add_pending(&mut self, n: NodeId, p: Pending) {
        // PtsSet iterates ascending, so no sort is needed.
        let objs: Vec<ObjId> = self.pts[n.0 as usize].iter().collect();
        self.pending[n.0 as usize].push(p.clone());
        if !objs.is_empty() {
            self.process_pending(&p, &objs);
        }
    }

    fn operand_node(&mut self, method: MethodId, ctx: CtxId, op: Operand) -> Option<NodeId> {
        op.as_local().map(|l| self.var(method, ctx, l))
    }

    // ---- reachability & body processing ----

    fn mark_reachable(&mut self, method: MethodId, ctx: CtxId) {
        if !self.reachable.insert((method, ctx)) {
            return;
        }
        if !self.program.method(method).has_body() {
            return;
        }
        self.process_body(method, ctx);
    }

    fn process_body(&mut self, method: MethodId, ctx: CtxId) {
        // The body is read in place: `program` outlives the solver, so
        // no per-method copy is needed across contexts.
        let body = self.program.method(method);
        for (_, block) in body.iter_blocks() {
            if let Terminator::Return(Some(r)) = block.terminator {
                if let Some(src) = self.operand_node(method, ctx, r) {
                    let ret = self.node(NodeKey::Ret { method, ctx });
                    self.add_edge(src, ret);
                }
            }
        }
        for (addr, stmt) in body.iter_stmts() {
            match *stmt {
                Stmt::Move { dst, src } => {
                    let s = self.var(method, ctx, src);
                    let d = self.var(method, ctx, dst);
                    self.add_edge(s, d);
                }
                Stmt::New { dst, class, site } => {
                    let (action, elems) = self.selector.heap_ctx(self.ctxs.get(ctx));
                    let obj = self.objs.intern(ObjData::Site {
                        site,
                        action,
                        elems: elems.into_owned(),
                        class,
                    });
                    let cur = self.ctxs.get(ctx).action;
                    self.alloc_action.entry(obj).or_insert(cur);
                    let d = self.var(method, ctx, dst);
                    self.add_obj(d, obj);
                }
                Stmt::Load { dst, obj, field } => {
                    let base = self.var(method, ctx, obj);
                    let d = self.var(method, ctx, dst);
                    self.add_pending(base, Pending::Load { field, dst: d });
                }
                Stmt::Store { obj, field, value } => {
                    let base = self.var(method, ctx, obj);
                    let src = match self.operand_node(method, ctx, value) {
                        Some(n) => SrcValue::Node(n),
                        None => SrcValue::Nothing,
                    };
                    self.add_pending(base, Pending::Store { field, src });
                }
                Stmt::StaticLoad { dst, field } => {
                    let s = self.node(NodeKey::Static { field });
                    let d = self.var(method, ctx, dst);
                    self.add_edge(s, d);
                }
                Stmt::StaticStore { field, value } => {
                    if let Some(src) = self.operand_node(method, ctx, value) {
                        let d = self.node(NodeKey::Static { field });
                        self.add_edge(src, d);
                    }
                }
                Stmt::Call {
                    site,
                    dst,
                    kind,
                    callee,
                    receiver,
                    ref args,
                } => {
                    let args = args.clone();
                    self.process_call(method, ctx, addr, site, dst, kind, callee, receiver, args);
                }
                Stmt::Const { .. } | Stmt::UnOp { .. } | Stmt::BinOp { .. } => {}
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn process_call(
        &mut self,
        method: MethodId,
        ctx: CtxId,
        addr: StmtAddr,
        site: CallSiteId,
        dst: Option<Local>,
        kind: InvokeKind,
        callee: MethodId,
        receiver: Option<Local>,
        args: Vec<Operand>,
    ) {
        // 1. Harness callback invocation sites mint lifecycle/GUI/system
        //    actions per receiver object.
        if self.harness_site_kinds.contains_key(&site) {
            if let Some(r) = receiver {
                let rn = self.var(method, ctx, r);
                self.add_pending(
                    rn,
                    Pending::HarnessCall(CallInfo {
                        site,
                        caller_method: method,
                        caller_ctx: ctx,
                        callee,
                        dst,
                        args,
                    }),
                );
            }
            return;
        }
        // 2. Framework ops.
        if let Some(op) = FrameworkOp::classify(self.fw, callee) {
            self.process_op(method, ctx, addr, site, dst, op, receiver, args);
            return;
        }
        // 3. Ordinary calls.
        match kind {
            InvokeKind::Virtual => {
                if let Some(r) = receiver {
                    let rn = self.var(method, ctx, r);
                    self.add_pending(
                        rn,
                        Pending::VCall(CallInfo {
                            site,
                            caller_method: method,
                            caller_ctx: ctx,
                            callee,
                            dst,
                            args,
                        }),
                    );
                }
            }
            InvokeKind::Static | InvokeKind::Special => {
                let target = callee;
                if !self.program.method(target).has_body() {
                    return;
                }
                let data = self.ctxs.get(ctx);
                let action = data.action;
                let elems = self.selector.static_elems(&data.elems, site).into_owned();
                let tctx = self.ctxs.intern(CtxData { action, elems });
                self.record_cg_edge(method, ctx, site, target, tctx);
                self.mark_reachable(target, tctx);
                let mut param = 0u32;
                if kind == InvokeKind::Special {
                    if let Some(r) = receiver {
                        let rn = self.var(method, ctx, r);
                        let p0 = self.var(target, tctx, Local(0));
                        self.add_edge(rn, p0);
                    }
                    param = 1;
                }
                for (i, a) in args.iter().enumerate() {
                    if let Some(an) = self.operand_node(method, ctx, *a) {
                        let pn = self.var(target, tctx, Local(param + i as u32));
                        self.add_edge(an, pn);
                    }
                }
                if let Some(d) = dst {
                    let ret = self.node(NodeKey::Ret {
                        method: target,
                        ctx: tctx,
                    });
                    let dn = self.var(method, ctx, d);
                    self.add_edge(ret, dn);
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn process_op(
        &mut self,
        method: MethodId,
        ctx: CtxId,
        addr: StmtAddr,
        site: CallSiteId,
        dst: Option<Local>,
        op: FrameworkOp,
        receiver: Option<Local>,
        args: Vec<Operand>,
    ) {
        use FrameworkOp::*;
        match op {
            FindViewById => {
                let Some(d) = dst else { return };
                let m = self.program.method(method);
                let view_id = args
                    .first()
                    .and_then(|a| local_defs::resolve_const_operand(m, addr, *a))
                    .and_then(|c| match c {
                        ConstValue::Int(v) => Some(v),
                        _ => None,
                    })
                    .unwrap_or(-(site.0 as i64) - 1);
                let action = self.ctxs.get(ctx).action;
                let activity = self.actions.action(action).harness;
                let class = i32::try_from(view_id)
                    .ok()
                    .and_then(|id| self.harness.app.view_class(activity, id))
                    .unwrap_or(self.fw.view);
                let obj = self.objs.intern(ObjData::View {
                    activity,
                    view_id,
                    class,
                });
                self.alloc_action.entry(obj).or_insert(action);
                let dn = self.var(method, ctx, d);
                self.add_obj(dn, obj);
            }
            SetListener(_) | UnregisterReceiver | RemoveUpdates | AsyncTaskCancel | HandlerInit
            | GetMainLooper | MyLooper | StartService => {}
            ClassForName | ClassNewInstance | MethodInvoke | IntentSetClass | StartActivity
            | SendBroadcast => {
                self.process_opaque_op(method, ctx, addr, site, dst, op, receiver, args);
            }
            ArrayListSetAt => {
                let Some(r) = receiver else { return };
                let rn = self.var(method, ctx, r);
                let field = self.index_field(method, addr, args.first().copied());
                let src = match args.get(1).and_then(|a| self.operand_node(method, ctx, *a)) {
                    Some(n) => SrcValue::Node(n),
                    None => SrcValue::Nothing,
                };
                self.add_pending(rn, Pending::Store { field, src });
            }
            ArrayListGetAt => {
                let (Some(r), Some(d)) = (receiver, dst) else {
                    return;
                };
                let rn = self.var(method, ctx, r);
                let dn = self.var(method, ctx, d);
                let field = self.index_field(method, addr, args.first().copied());
                self.add_pending(rn, Pending::Load { field, dst: dn });
            }
            HandlerSendMessage | HandlerSendEmptyMessage => {
                let what = self.message_what(method, addr, op, &args);
                if let Some(r) = receiver {
                    let rn = self.var(method, ctx, r);
                    self.add_pending(
                        rn,
                        Pending::Op(OpInfo {
                            op,
                            site,
                            caller_method: method,
                            caller_ctx: ctx,
                            recv_node: Some(rn),
                            args,
                            what,
                            dst: None,
                            name_const: None,
                        }),
                    );
                }
            }
            ThreadStart | AsyncTaskExecute => {
                if let Some(r) = receiver {
                    let rn = self.var(method, ctx, r);
                    self.add_pending(
                        rn,
                        Pending::Op(OpInfo {
                            op,
                            site,
                            caller_method: method,
                            caller_ctx: ctx,
                            recv_node: Some(rn),
                            args,
                            what: None,
                            dst: None,
                            name_const: None,
                        }),
                    );
                }
            }
            HandlerPost | HandlerPostDelayed => {
                // Cross-product op: handler receiver × runnable argument.
                let Some(r) = receiver else { return };
                let rn = self.var(method, ctx, r);
                let Some(an) = args
                    .first()
                    .and_then(|a| self.operand_node(method, ctx, *a))
                else {
                    return;
                };
                let info = OpInfo {
                    op,
                    site,
                    caller_method: method,
                    caller_ctx: ctx,
                    recv_node: Some(rn),
                    args,
                    what: None,
                    dst: None,
                    name_const: None,
                };
                self.add_pending(rn, Pending::Op(info.clone()));
                self.add_pending(an, Pending::Op(info));
            }
            TimerSchedule
            | RequestLocationUpdates
            | SetOnCompletionListener
            | ExecutorExecute
            | ViewPost
            | ViewPostDelayed
            | RunOnUiThread => {
                let Some(an) = args
                    .first()
                    .and_then(|a| self.operand_node(method, ctx, *a))
                else {
                    return;
                };
                self.add_pending(
                    an,
                    Pending::Op(OpInfo {
                        op,
                        site,
                        caller_method: method,
                        caller_ctx: ctx,
                        recv_node: None,
                        args,
                        what: None,
                        dst: None,
                        name_const: None,
                    }),
                );
            }
            RegisterReceiver => {
                let Some(an) = args
                    .first()
                    .and_then(|a| self.operand_node(method, ctx, *a))
                else {
                    return;
                };
                self.add_pending(
                    an,
                    Pending::Op(OpInfo {
                        op,
                        site,
                        caller_method: method,
                        caller_ctx: ctx,
                        recv_node: None,
                        args,
                        what: None,
                        dst: None,
                        name_const: None,
                    }),
                );
            }
            BindService => {
                let Some(an) = args.get(1).and_then(|a| self.operand_node(method, ctx, *a)) else {
                    return;
                };
                self.add_pending(
                    an,
                    Pending::Op(OpInfo {
                        op,
                        site,
                        caller_method: method,
                        caller_ctx: ctx,
                        recv_node: None,
                        args,
                        what: None,
                        dst: None,
                        name_const: None,
                    }),
                );
            }
        }
    }

    /// Policy-gated opaque ops: reflection and inter-component intent
    /// dispatch. Under `ignore` every site is left unmodeled (the
    /// pre-soundness-modes behavior, bit for bit). `resolve` consults
    /// the resolve table — constant class-name strings against the
    /// program's class list, intent targets against the manifest — and
    /// `havoc` adds conservative fallbacks at sites the table cannot
    /// discharge.
    #[allow(clippy::too_many_arguments)]
    fn process_opaque_op(
        &mut self,
        method: MethodId,
        ctx: CtxId,
        addr: StmtAddr,
        site: CallSiteId,
        dst: Option<Local>,
        op: FrameworkOp,
        receiver: Option<Local>,
        args: Vec<Operand>,
    ) {
        use FrameworkOp::*;
        if self.options.opaque_policy == OpaquePolicy::Ignore {
            return;
        }
        let havoc = self.options.opaque_policy == OpaquePolicy::Havoc;
        match op {
            ClassForName => {
                let Some(d) = dst else { return };
                let action = self.ctxs.get(ctx).action;
                let dn = self.var(method, ctx, d);
                match self.const_class_arg(method, addr, args.first().copied()) {
                    Some(target) => {
                        let token = self.conjure(target, site, action);
                        self.add_obj(dn, token);
                        self.resolved_sites.insert(site);
                    }
                    None if havoc => {
                        // Any manifest component could be the reflected
                        // class: conjure a token per candidate so
                        // type-compatible callbacks become reachable
                        // through downstream flow.
                        for target in self.manifest_components() {
                            let token = self.conjure(target, site, action);
                            self.add_obj(dn, token);
                        }
                    }
                    None => {}
                }
            }
            ClassNewInstance => {
                let Some(rn) = receiver.map(|r| self.var(method, ctx, r)) else {
                    return;
                };
                self.add_pending(
                    rn,
                    Pending::Op(OpInfo {
                        op,
                        site,
                        caller_method: method,
                        caller_ctx: ctx,
                        recv_node: Some(rn),
                        args,
                        what: None,
                        dst,
                        name_const: None,
                    }),
                );
            }
            MethodInvoke => {
                // invoke(name, target): resolve the name constant here
                // (statement addresses are unavailable later) and pend on
                // the target-object argument.
                let name_const = self.const_str_arg(method, addr, args.first().copied());
                let Some(an) = args.get(1).and_then(|a| self.operand_node(method, ctx, *a)) else {
                    return;
                };
                self.add_pending(
                    an,
                    Pending::Op(OpInfo {
                        op,
                        site,
                        caller_method: method,
                        caller_ctx: ctx,
                        recv_node: None,
                        args,
                        what: None,
                        dst,
                        name_const,
                    }),
                );
            }
            IntentSetClass => {
                // Pure binding marker: `intent_target` reads the bound
                // class off the IR at the dispatch site. A constant
                // binding means the site is table-resolved, not opaque.
                if self
                    .const_class_arg(method, addr, args.first().copied())
                    .is_some()
                {
                    self.resolved_sites.insert(site);
                }
            }
            StartActivity | SendBroadcast => {
                match self.intent_target(method, addr, args.first().copied(), op) {
                    Some(target) => {
                        self.spawn_component(method, ctx, site, target, op);
                        self.resolved_sites.insert(site);
                    }
                    None if havoc => {
                        // Unknown target: launch every type-compatible
                        // manifest component and smash the intent — its
                        // contents escape to an unknown callee.
                        let fallback = if op == StartActivity {
                            self.harness.app.manifest.activities.clone()
                        } else {
                            self.harness.app.manifest.receivers.clone()
                        };
                        for target in fallback {
                            self.spawn_component(method, ctx, site, target, op);
                        }
                        if let Some(an) = args
                            .first()
                            .and_then(|a| self.operand_node(method, ctx, *a))
                        {
                            self.add_pending(an, Pending::Havoc);
                        }
                    }
                    None => {}
                }
            }
            _ => unreachable!("not a policy-gated op: {op:?}"),
        }
    }

    /// A constant string argument, via SCCP-lite local constant tracing.
    fn const_str_arg(
        &self,
        method: MethodId,
        addr: StmtAddr,
        arg: Option<Operand>,
    ) -> Option<apir::Symbol> {
        let m = self.program.method(method);
        match arg.and_then(|op| local_defs::resolve_const_operand(m, addr, op))? {
            ConstValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A constant class-name argument resolved against the program's
    /// class list — the string half of the resolve table.
    fn const_class_arg(
        &self,
        method: MethodId,
        addr: StmtAddr,
        arg: Option<Operand>,
    ) -> Option<ClassId> {
        let sym = self.const_str_arg(method, addr, arg)?;
        self.program.class_by_name(self.program.name(sym))
    }

    /// Every manifest-declared component class (the `havoc` fallback
    /// candidate set for unresolved reflective lookups).
    fn manifest_components(&self) -> Vec<ClassId> {
        let m = &self.harness.app.manifest;
        m.activities
            .iter()
            .chain(&m.receivers)
            .chain(&m.services)
            .copied()
            .collect()
    }

    /// Mints a policy-conjured object and pins its allocating action.
    fn conjure(&mut self, class: ClassId, site: CallSiteId, action: ActionId) -> ObjId {
        let obj = self.objs.intern(ObjData::Conjured { class, site });
        self.alloc_action.entry(obj).or_insert(action);
        obj
    }

    /// The intent-dispatch half of the resolve table: traces the intent
    /// operand to its allocation, finds the unique constant
    /// `Intent.setClass` binding on the same allocation, and checks the
    /// bound class is manifest-declared for the dispatch kind. Mirrors
    /// the `message_what` origin-tracing discipline: any ambiguity
    /// (no binding, conflicting bindings, non-constant name) is
    /// unresolved.
    fn intent_target(
        &self,
        method: MethodId,
        addr: StmtAddr,
        intent: Option<Operand>,
        op: FrameworkOp,
    ) -> Option<ClassId> {
        let m = self.program.method(method);
        let l = intent?.as_local()?;
        let (origin_addr, _) = local_defs::find_value_origin(m, addr, l)?;
        let mut found: Option<ClassId> = None;
        for (saddr, stmt) in m.iter_stmts() {
            let Stmt::Call {
                callee,
                receiver: Some(r),
                args,
                ..
            } = stmt
            else {
                continue;
            };
            if *callee != self.fw.intent_set_class {
                continue;
            }
            let Some((oaddr, _)) = local_defs::find_value_origin(m, saddr, *r) else {
                continue;
            };
            if oaddr != origin_addr {
                continue;
            }
            match args
                .first()
                .and_then(|a| local_defs::resolve_const_operand(m, saddr, *a))
            {
                Some(ConstValue::Str(s)) => {
                    let class = self.program.class_by_name(self.program.name(s))?;
                    if found.is_none() || found == Some(class) {
                        found = Some(class);
                    } else {
                        return None;
                    }
                }
                _ => return None,
            }
        }
        let class = found?;
        let manifest = &self.harness.app.manifest;
        let declared = if op == FrameworkOp::StartActivity {
            manifest.activities.contains(&class)
        } else {
            manifest.receivers.contains(&class)
        };
        declared.then_some(class)
    }

    /// Launches an intent target: mints the component's entry action
    /// (`onCreate` for activities, `onReceive` for receivers) *within
    /// the sender's harness*, conjures the component instance, and
    /// analyzes the entry body under the new action — the solver-side
    /// mirror of [`Solver::spawn`] for components without an allocation
    /// site.
    fn spawn_component(
        &mut self,
        method: MethodId,
        ctx: CtxId,
        site: CallSiteId,
        target: ClassId,
        op: FrameworkOp,
    ) {
        let (decl, kind) = if op == FrameworkOp::StartActivity {
            (
                self.fw.activity_on_create,
                ActionKind::Lifecycle {
                    event: android_model::LifecycleEvent::Create,
                    instance: 0,
                },
            )
        } else {
            (self.fw.on_receive, ActionKind::Receive)
        };
        let Some(entry) = self.program.dispatch(target, decl) else {
            return;
        };
        let cur = self.ctxs.get(ctx).action;
        let harness = self.actions.action(cur).harness;
        let recv = self.conjure(target, site, cur);
        let (action, _) = self.actions.obtain(
            harness,
            kind,
            Some(site),
            None,
            entry,
            ThreadKind::Main,
            Some(cur),
        );
        let rec = PostRecord {
            poster: cur,
            site,
            posted: action,
        };
        if self.post_set.insert(rec) {
            self.posts.push(rec);
        }
        if !self.program.method(entry).has_body() {
            return;
        }
        let elems = self
            .selector
            .virtual_elems(&self.ctxs.get(ctx).elems, site, self.objs.get(recv))
            .into_owned();
        let tctx = self.ctxs.intern(CtxData { action, elems });
        self.record_cg_edge(method, ctx, site, entry, tctx);
        self.mark_reachable(entry, tctx);
        let p0 = self.var(entry, tctx, Local(0));
        self.add_obj(p0, recv);
    }

    /// Reflective method lookup: the named method with a body on the
    /// receiver's class or its nearest superclass.
    fn reflect_lookup(&self, recv_class: ClassId, name: apir::Symbol) -> Option<MethodId> {
        let mut cur = Some(recv_class);
        while let Some(c) = cur {
            let class = self.program.class(c);
            if let Some(&m) = class.methods.iter().find(|&&m| {
                let mm = self.program.method(m);
                mm.name == name && mm.has_body()
            }) {
                return Some(m);
            }
            cur = class.super_class;
        }
        None
    }

    /// Resolves a container index operand to its slot field: `idx0..idx7`
    /// for small constants under the index-sensitive model, otherwise the
    /// summarized `contents` field.
    fn index_field(&self, method: MethodId, addr: StmtAddr, idx: Option<Operand>) -> FieldId {
        if !self.options.index_sensitive {
            return self.fw.array_list_contents;
        }
        let m = self.program.method(method);
        match idx.and_then(|op| local_defs::resolve_const_operand(m, addr, op)) {
            Some(ConstValue::Int(k)) if (0..8).contains(&k) => self.fw.index_slots[k as usize],
            _ => self.fw.array_list_contents,
        }
    }

    /// On-demand constant propagation for message codes (§5).
    fn message_what(
        &self,
        method: MethodId,
        addr: StmtAddr,
        op: FrameworkOp,
        args: &[Operand],
    ) -> Option<i64> {
        let m = self.program.method(method);
        match op {
            FrameworkOp::HandlerSendEmptyMessage => {
                match local_defs::resolve_const_operand(m, addr, *args.first()?)? {
                    ConstValue::Int(v) => Some(v),
                    _ => None,
                }
            }
            FrameworkOp::HandlerSendMessage => {
                // Trace the message operand to its origin, then look for a
                // unique constant store to `.what` on the same origin.
                let msg = args.first()?.as_local()?;
                let (origin_addr, _) = local_defs::find_value_origin(m, addr, msg)?;
                let mut found: Option<i64> = None;
                for (saddr, stmt) in m.iter_stmts() {
                    let Stmt::Store { obj, field, value } = stmt else {
                        continue;
                    };
                    if *field != self.fw.message_what {
                        continue;
                    }
                    let Some((oaddr, _)) = local_defs::find_value_origin(m, saddr, *obj) else {
                        continue;
                    };
                    if oaddr != origin_addr {
                        continue;
                    }
                    match local_defs::resolve_const_operand(m, saddr, *value) {
                        Some(ConstValue::Int(v)) if found.is_none() || found == Some(v) => {
                            found = Some(v)
                        }
                        _ => return None,
                    }
                }
                found
            }
            _ => None,
        }
    }

    // ---- pending resolution ----

    fn process_pending(&mut self, p: &Pending, delta: &[ObjId]) {
        match p {
            Pending::Load { field, dst } => {
                for &o in delta {
                    let f = self.node(NodeKey::Field {
                        obj: o,
                        field: *field,
                    });
                    self.add_edge(f, *dst);
                }
            }
            Pending::Store { field, src } => {
                if let SrcValue::Node(src) = src {
                    for &o in delta {
                        let f = self.node(NodeKey::Field {
                            obj: o,
                            field: *field,
                        });
                        self.add_edge(*src, f);
                    }
                }
            }
            Pending::VCall(info) => {
                for &o in delta {
                    if !self.resolved.insert((info.site, info.caller_ctx, o)) {
                        continue;
                    }
                    self.resolve_virtual(info, o);
                }
            }
            Pending::HarnessCall(info) => {
                for &o in delta {
                    if !self.resolved.insert((info.site, info.caller_ctx, o)) {
                        continue;
                    }
                    self.resolve_harness(info, o);
                }
            }
            Pending::Op(info) => self.resolve_op(info),
            Pending::Havoc => {
                for &o in delta {
                    self.havoc_escaped.insert(o);
                }
            }
        }
    }

    fn resolve_virtual(&mut self, info: &CallInfo, recv: ObjId) {
        let recv_class = self.objs.get(recv).class();
        let Some(target) = self.program.dispatch(recv_class, info.callee) else {
            return;
        };
        if !self.program.method(target).has_body() {
            return;
        }
        let data = self.ctxs.get(info.caller_ctx);
        let action = data.action;
        let elems = self
            .selector
            .virtual_elems(&data.elems, info.site, self.objs.get(recv))
            .into_owned();
        let tctx = self.ctxs.intern(CtxData { action, elems });
        self.record_cg_edge(info.caller_method, info.caller_ctx, info.site, target, tctx);
        self.mark_reachable(target, tctx);
        let p0 = self.var(target, tctx, Local(0));
        self.add_obj(p0, recv);
        self.bind_args_and_ret(info, target, tctx);
    }

    fn bind_args_and_ret(&mut self, info: &CallInfo, target: MethodId, tctx: CtxId) {
        for (i, a) in info.args.iter().enumerate() {
            if let Some(an) = self.operand_node(info.caller_method, info.caller_ctx, *a) {
                let pn = self.var(target, tctx, Local(1 + i as u32));
                self.add_edge(an, pn);
            }
        }
        if let Some(d) = info.dst {
            let ret = self.node(NodeKey::Ret {
                method: target,
                ctx: tctx,
            });
            let dn = self.var(info.caller_method, info.caller_ctx, d);
            self.add_edge(ret, dn);
        }
    }

    fn resolve_harness(&mut self, info: &CallInfo, recv: ObjId) {
        let kind = match &self.harness_site_kinds[&info.site] {
            HarnessSiteKind::Lifecycle { event, instance } => ActionKind::Lifecycle {
                event: *event,
                instance: *instance,
            },
            HarnessSiteKind::Gui { event, view, .. } => ActionKind::Gui {
                event: *event,
                view: *view,
            },
            HarnessSiteKind::Receive { .. } => ActionKind::Receive,
            HarnessSiteKind::ServiceStart { .. } => ActionKind::ServiceStart,
        };
        let cur = self.ctxs.get(info.caller_ctx).action;
        let harness_activity = self.actions.action(cur).harness;
        let recv_class = self.objs.get(recv).class();
        let entry = self
            .program
            .dispatch(recv_class, info.callee)
            .unwrap_or(info.callee);
        let (action, _) = self.actions.obtain(
            harness_activity,
            kind,
            Some(info.site),
            self.objs.get(recv).site(),
            entry,
            ThreadKind::Main,
            Some(cur),
        );
        self.harness_actions.insert(info.site, action);
        if !self.program.method(entry).has_body() {
            return;
        }
        let elems = self
            .selector
            .virtual_elems(
                &self.ctxs.get(info.caller_ctx).elems,
                info.site,
                self.objs.get(recv),
            )
            .into_owned();
        let tctx = self.ctxs.intern(CtxData { action, elems });
        self.record_cg_edge(info.caller_method, info.caller_ctx, info.site, entry, tctx);
        self.mark_reachable(entry, tctx);
        let p0 = self.var(entry, tctx, Local(0));
        self.add_obj(p0, recv);
        self.bind_args_and_ret(info, entry, tctx);
    }

    /// Resolves an action-creating framework op over the cross product of
    /// its driver points-to sets.
    fn resolve_op(&mut self, info: &OpInfo) {
        use FrameworkOp::*;
        // Both object lists come out of PtsSet iteration already sorted.
        let recv_objs: Vec<ObjId> = match info.recv_node {
            Some(n) => self.pts[n.0 as usize].iter().collect(),
            None => vec![NO_OBJ],
        };
        let arg_objs: Vec<ObjId> = match info.op {
            HandlerPost
            | HandlerPostDelayed
            | ExecutorExecute
            | ViewPost
            | ViewPostDelayed
            | RunOnUiThread
            | RegisterReceiver
            | TimerSchedule
            | RequestLocationUpdates
            | SetOnCompletionListener => {
                let idx = 0;
                match info.args.get(idx).and_then(|a| a.as_local()) {
                    Some(l) => {
                        let n = self.var(info.caller_method, info.caller_ctx, l);
                        self.pts[n.0 as usize].iter().collect()
                    }
                    None => Vec::new(),
                }
            }
            BindService | MethodInvoke => match info.args.get(1).and_then(|a| a.as_local()) {
                Some(l) => {
                    let n = self.var(info.caller_method, info.caller_ctx, l);
                    self.pts[n.0 as usize].iter().collect()
                }
                None => Vec::new(),
            },
            _ => vec![NO_OBJ],
        };
        for &r in &recv_objs {
            for &a in &arg_objs {
                if !self.op_resolved.insert((info.site, info.caller_ctx, r, a)) {
                    continue;
                }
                self.dispatch_op(info, r, a);
            }
        }
    }

    fn dispatch_op(&mut self, info: &OpInfo, recv: ObjId, arg: ObjId) {
        use FrameworkOp::*;
        let cur = self.ctxs.get(info.caller_ctx).action;
        let harness = self.actions.action(cur).harness;
        match info.op {
            ThreadStart => {
                self.spawn(
                    info,
                    recv,
                    self.fw.thread_run,
                    ActionKind::ThreadRun,
                    None,
                    true,
                );
            }
            AsyncTaskExecute => {
                self.spawn(
                    info,
                    recv,
                    self.fw.async_task_on_pre_execute,
                    ActionKind::AsyncTaskPre,
                    Some(ThreadKind::Main),
                    false,
                );
                self.spawn(
                    info,
                    recv,
                    self.fw.async_task_do_in_background,
                    ActionKind::AsyncTaskBg,
                    None,
                    true,
                );
                self.spawn(
                    info,
                    recv,
                    self.fw.async_task_on_post_execute,
                    ActionKind::AsyncTaskPost,
                    Some(ThreadKind::Main),
                    false,
                );
            }
            ExecutorExecute => {
                self.spawn(
                    info,
                    arg,
                    self.fw.runnable_run,
                    ActionKind::ExecutorRun,
                    None,
                    true,
                );
            }
            HandlerPost | HandlerPostDelayed => {
                let looper = self.looper_of(recv);
                self.spawn(
                    info,
                    arg,
                    self.fw.runnable_run,
                    ActionKind::RunnablePost,
                    Some(looper),
                    false,
                );
            }
            ViewPost | ViewPostDelayed | RunOnUiThread => {
                self.spawn(
                    info,
                    arg,
                    self.fw.runnable_run,
                    ActionKind::RunnablePost,
                    Some(ThreadKind::Main),
                    false,
                );
            }
            HandlerSendMessage | HandlerSendEmptyMessage => {
                let looper = self.looper_of(recv);
                let kind = ActionKind::MessageHandle { what: info.what };
                let posted = self.spawn(
                    info,
                    recv,
                    self.fw.handler_handle_message,
                    kind,
                    Some(looper),
                    false,
                );
                // Bind the message argument to handleMessage's parameter.
                if info.op == HandlerSendMessage {
                    if let (Some((entry, tctx)), Some(l)) =
                        (posted, info.args.first().and_then(|a| a.as_local()))
                    {
                        let an = self.var(info.caller_method, info.caller_ctx, l);
                        let pn = self.var(entry, tctx, Local(1));
                        self.add_edge(an, pn);
                    }
                }
            }
            RegisterReceiver => {
                self.spawn(
                    info,
                    arg,
                    self.fw.on_receive,
                    ActionKind::Receive,
                    Some(ThreadKind::Main),
                    false,
                );
            }
            TimerSchedule => {
                self.spawn(
                    info,
                    arg,
                    self.fw.timer_task_run,
                    ActionKind::TimerTask,
                    None,
                    true,
                );
            }
            RequestLocationUpdates => {
                self.spawn(
                    info,
                    arg,
                    self.fw.on_location_changed,
                    ActionKind::LocationUpdate,
                    Some(ThreadKind::Main),
                    false,
                );
            }
            SetOnCompletionListener => {
                self.spawn(
                    info,
                    arg,
                    self.fw.on_completion,
                    ActionKind::MediaCompletion,
                    Some(ThreadKind::Main),
                    false,
                );
            }
            BindService => {
                self.spawn(
                    info,
                    arg,
                    self.fw.on_service_connected,
                    ActionKind::ServiceConnected,
                    Some(ThreadKind::Main),
                    false,
                );
                self.spawn(
                    info,
                    arg,
                    self.fw.on_service_disconnected,
                    ActionKind::ServiceDisconnected,
                    Some(ThreadKind::Main),
                    false,
                );
            }
            ClassNewInstance => {
                // The receiver is a reflective class token; conjure an
                // instance of the class it denotes. Ordinary virtual
                // dispatch takes over from there.
                let ObjData::Conjured { class, .. } = *self.objs.get(recv) else {
                    return;
                };
                let Some(d) = info.dst else { return };
                let inst = self.conjure(class, info.site, cur);
                let dn = self.var(info.caller_method, info.caller_ctx, d);
                self.add_obj(dn, inst);
                self.resolved_sites.insert(info.site);
            }
            MethodInvoke => {
                if arg == NO_OBJ {
                    return;
                }
                let Some(name) = info.name_const else {
                    // Unknown method name: under havoc the target object
                    // escapes into the unknown callee.
                    if self.options.opaque_policy == OpaquePolicy::Havoc {
                        self.havoc_escaped.insert(arg);
                    }
                    return;
                };
                let recv_class = self.objs.get(arg).class();
                let Some(target) = self.reflect_lookup(recv_class, name) else {
                    if self.options.opaque_policy == OpaquePolicy::Havoc {
                        self.havoc_escaped.insert(arg);
                    }
                    return;
                };
                let data = self.ctxs.get(info.caller_ctx);
                let elems = self
                    .selector
                    .virtual_elems(&data.elems, info.site, self.objs.get(arg))
                    .into_owned();
                let tctx = self.ctxs.intern(CtxData { action: cur, elems });
                self.record_cg_edge(info.caller_method, info.caller_ctx, info.site, target, tctx);
                self.mark_reachable(target, tctx);
                let p0 = self.var(target, tctx, Local(0));
                self.add_obj(p0, arg);
                if let Some(d) = info.dst {
                    let ret = self.node(NodeKey::Ret {
                        method: target,
                        ctx: tctx,
                    });
                    let dn = self.var(info.caller_method, info.caller_ctx, d);
                    self.add_edge(ret, dn);
                }
                self.resolved_sites.insert(info.site);
            }
            _ => {
                let _ = harness;
            }
        }
    }

    /// Mints an action for `decl` dispatched on `recv`, analyzes its body
    /// under the new action context, and records the post.
    ///
    /// Returns the entry and its context when a body was analyzed.
    fn spawn(
        &mut self,
        info: &OpInfo,
        recv: ObjId,
        decl: MethodId,
        kind: ActionKind,
        thread: Option<ThreadKind>,
        own_thread: bool,
    ) -> Option<(MethodId, CtxId)> {
        if recv == NO_OBJ {
            return None;
        }
        let recv_class = self.objs.get(recv).class();
        let entry = self.program.dispatch(recv_class, decl)?;
        let cur = self.ctxs.get(info.caller_ctx).action;
        let harness = self.actions.action(cur).harness;
        let thread = thread.unwrap_or_else(|| kind.default_thread());
        let (action, _) = self.actions.obtain(
            harness,
            kind,
            Some(info.site),
            self.objs.get(recv).site(),
            entry,
            thread,
            Some(cur),
        );
        if own_thread {
            self.actions.bind_own_thread(action);
        }
        let rec = PostRecord {
            poster: cur,
            site: info.site,
            posted: action,
        };
        if self.post_set.insert(rec) {
            self.posts.push(rec);
        }
        if !self.program.method(entry).has_body() {
            return None;
        }
        let elems = self
            .selector
            .virtual_elems(
                &self.ctxs.get(info.caller_ctx).elems,
                info.site,
                self.objs.get(recv),
            )
            .into_owned();
        let tctx = self.ctxs.intern(CtxData { action, elems });
        self.record_cg_edge(info.caller_method, info.caller_ctx, info.site, entry, tctx);
        self.mark_reachable(entry, tctx);
        let p0 = self.var(entry, tctx, Local(0));
        self.add_obj(p0, recv);
        Some((entry, tctx))
    }

    /// The looper a handler object delivers to: the thread of the action
    /// that allocated the handler (the paper's in-thread reachability
    /// pre-processing, §4.4).
    fn looper_of(&self, handler: ObjId) -> ThreadKind {
        match self.alloc_action.get(&handler) {
            Some(&a) => self.actions.action(a).thread,
            None => ThreadKind::Main,
        }
    }

    fn record_cg_edge(
        &mut self,
        caller: MethodId,
        cctx: CtxId,
        site: CallSiteId,
        callee: MethodId,
        tctx: CtxId,
    ) {
        if self.cg_edge_set.insert((caller, cctx, site, callee, tctx)) {
            self.cg_edges
                .entry((caller, cctx, site))
                .or_default()
                .push((callee, tctx));
        }
    }
}
