//! Versioned binary serialization of a finished [`Analysis`] — the
//! on-disk form of the whole-analysis cache, the one thing
//! `--cache-dir` persists. Only the core crate's `DiskStore` reads and
//! writes these blobs.
//!
//! [`encode`] flattens everything the linking pass reuses on an
//! analysis-key hit (points-to solution, call graph, context/object
//! tables, actions, posting records, solver stats) into a
//! self-validating blob; [`decode`] rebuilds an `Analysis` that is
//! observationally identical to the one the solver produced, so a cold
//! *process* warm-starts exactly like a warm in-memory session: zero
//! worklist iterations and byte-identical reports.
//!
//! Design constraints, in order:
//!
//! - **Determinism.** The same `Analysis` always encodes to the same
//!   bytes: every hash-map is emitted in sorted key order, every table
//!   in id order. (Decode does not depend on this, but deterministic
//!   blobs make caches diffable and tests exact.)
//! - **Versioned envelope.** The payload is wrapped in a header of
//!   magic, version, length, and FNV-1a checksum, which [`decode`]
//!   checks before reading the payload, so truncated or
//!   version-mismatched blobs are rejected without decoding. Bump
//!   `VERSION` on any layout change so stale caches miss instead of
//!   misparse.
//! - **No interned names.** Ids (`MethodId`, `FieldId`, `CtxId`, …) are
//!   table positions, stable for a fixed program structure; the cache
//!   key (the analysis key) pins the structural fingerprint, so a blob
//!   is only ever decoded against the id assignment it was built from.
//!   The one non-positional input, the [`FrameworkClasses`] id table, is
//!   supplied by the caller at decode time rather than serialized.
//! - **Stats verbatim.** [`SolverStats`] are carried through unchanged —
//!   a decoded artifact reports the counters of the run that produced
//!   it, which is what keeps warm reports byte-identical to cold ones.
//!
//! Any deviation during decode — bad envelope, short buffer, unknown
//! tag, out-of-range index — returns `None`; the store counts it as a
//! corrupt miss and the session re-solves.

use crate::ctx::{CtxData, CtxElem, CtxTable, ObjData, ObjTable, SelectorKind};
use crate::ptsset::PtsSet;
use crate::solver::{Analysis, AnalysisOptions, NodeId, NodeKey, PostRecord, SolverStats};
use crate::OpaquePolicy;
use android_model::{
    Action, ActionId, ActionKind, ActionRegistry, FrameworkClasses, GuiEventKind, LifecycleEvent,
    ThreadKind,
};
use apir::{AllocSiteId, CallSiteId, ClassId, FieldId, Local, MethodId};
use std::collections::{HashMap, HashSet};

/// Envelope magic: identifies a sierra analysis artifact.
const MAGIC: &[u8; 8] = b"SIERRART";

/// Artifact layout version; bump on any payload format change.
const VERSION: u32 = 4;

/// Envelope header length: magic + version + payload length + checksum.
const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// Whether `bytes` carries a well-formed artifact envelope: correct
/// magic, current version, exact payload length, and matching payload
/// checksum. A `false` means the blob is truncated, torn, or from
/// another format version.
pub(crate) fn envelope_is_valid(bytes: &[u8]) -> bool {
    if bytes.len() < HEADER_LEN || &bytes[..8] != MAGIC {
        return false;
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return false;
    }
    let len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
    let checksum = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
    let payload = &bytes[HEADER_LEN..];
    payload.len() == len && apir::fnv64(payload) == checksum
}

/// Serializes an analysis into a self-validating artifact blob.
pub fn encode(analysis: &Analysis) -> Vec<u8> {
    let mut w = Writer::default();
    w.selector(analysis.selector);
    w.options(analysis.options);

    let actions = analysis.actions.actions();
    w.len(actions.len());
    for a in actions {
        w.action(a);
    }

    w.len(analysis.ctxs.entries().len());
    for c in analysis.ctxs.entries() {
        w.ctx_data(c);
    }
    w.len(analysis.objs.entries().len());
    for o in analysis.objs.entries() {
        w.obj_data(o);
    }

    let mut reachable: Vec<(MethodId, crate::CtxId)> = analysis.reachable.iter().copied().collect();
    reachable.sort_unstable_by_key(|&(m, c)| (m.0, c.0));
    w.len(reachable.len());
    for (m, c) in reachable {
        w.u32(m.0);
        w.u32(c.0);
    }

    let mut edges: Vec<_> = analysis.cg_edges.iter().collect();
    edges.sort_unstable_by_key(|&(&(m, c, s), _)| (m.0, c.0, s.0));
    w.len(edges.len());
    for (&(m, c, s), callees) in edges {
        w.u32(m.0);
        w.u32(c.0);
        w.u32(s.0);
        w.len(callees.len());
        for &(cm, cc) in callees {
            w.u32(cm.0);
            w.u32(cc.0);
        }
    }

    w.len(analysis.posts.len());
    for p in &analysis.posts {
        w.u32(p.poster.0);
        w.u32(p.site.0);
        w.u32(p.posted.0);
    }

    let mut harness_actions: Vec<(CallSiteId, ActionId)> = analysis
        .harness_actions
        .iter()
        .map(|(&s, &a)| (s, a))
        .collect();
    harness_actions.sort_unstable_by_key(|&(s, _)| s.0);
    w.len(harness_actions.len());
    for (s, a) in harness_actions {
        w.u32(s.0);
        w.u32(a.0);
    }

    w.len(analysis.root_actions.len());
    for &(c, a) in &analysis.root_actions {
        w.u32(c.0);
        w.u32(a.0);
    }

    w.stats(&analysis.stats);

    let mut nodes: Vec<(&NodeKey, NodeId)> = analysis.nodes.iter().map(|(k, &n)| (k, n)).collect();
    nodes.sort_unstable_by_key(|&(k, _)| node_sort_key(k));
    w.len(nodes.len());
    for (key, node) in nodes {
        w.node_key(key);
        w.u32(node.0);
    }

    w.len(analysis.pts.len());
    for set in &analysis.pts {
        w.len(set.iter().count());
        for obj in set.iter() {
            w.u32(obj.0);
        }
    }

    let mut resolved: Vec<CallSiteId> = analysis.resolved_sites.iter().copied().collect();
    resolved.sort_unstable_by_key(|s| s.0);
    w.len(resolved.len());
    for s in resolved {
        w.u32(s.0);
    }

    let mut havoc: Vec<crate::ObjId> = analysis.havoc_escaped.iter().copied().collect();
    havoc.sort_unstable_by_key(|o| o.0);
    w.len(havoc.len());
    for o in havoc {
        w.u32(o.0);
    }

    let payload = w.0;
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&apir::fnv64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Rebuilds an analysis from an artifact blob. `framework` supplies the
/// one input the blob does not carry: the framework id table of the app
/// the artifact was keyed against (the analysis key pins the structural
/// fingerprint, so the ids are guaranteed to line up). Returns `None`
/// on any envelope or payload deviation — the caller re-solves.
pub fn decode(bytes: &[u8], framework: FrameworkClasses) -> Option<Analysis> {
    if !envelope_is_valid(bytes) {
        return None;
    }
    let mut r = Reader {
        bytes: &bytes[HEADER_LEN..],
        pos: 0,
    };
    let selector = r.selector()?;
    let options = r.options()?;

    let n_actions = r.len()?;
    let mut actions = Vec::with_capacity(n_actions);
    for i in 0..n_actions {
        actions.push(r.action(ActionId(i as u32))?);
    }
    let actions = ActionRegistry::from_actions(actions);

    let n_ctxs = r.len()?;
    let mut ctxs = Vec::with_capacity(n_ctxs);
    for _ in 0..n_ctxs {
        ctxs.push(r.ctx_data()?);
    }
    let ctxs = CtxTable::from_entries(ctxs);

    let n_objs = r.len()?;
    let mut objs = Vec::with_capacity(n_objs);
    for _ in 0..n_objs {
        objs.push(r.obj_data()?);
    }
    let objs = ObjTable::from_entries(objs);

    let n_reachable = r.len()?;
    let mut reachable = HashSet::with_capacity(n_reachable);
    let mut contexts_by_method: HashMap<MethodId, Vec<crate::CtxId>> = HashMap::new();
    for _ in 0..n_reachable {
        let m = MethodId(r.u32()?);
        let c = crate::CtxId(r.u32()?);
        reachable.insert((m, c));
        contexts_by_method.entry(m).or_default().push(c);
    }
    // The solver sorts each method's context list after building it;
    // re-establish that invariant regardless of blob emission order.
    for ctxs in contexts_by_method.values_mut() {
        ctxs.sort_unstable();
    }

    let n_edges = r.len()?;
    let mut cg_edges = HashMap::with_capacity(n_edges);
    for _ in 0..n_edges {
        let key = (
            MethodId(r.u32()?),
            crate::CtxId(r.u32()?),
            CallSiteId(r.u32()?),
        );
        let n_callees = r.len()?;
        let mut callees = Vec::with_capacity(n_callees);
        for _ in 0..n_callees {
            callees.push((MethodId(r.u32()?), crate::CtxId(r.u32()?)));
        }
        cg_edges.insert(key, callees);
    }

    let n_posts = r.len()?;
    let mut posts = Vec::with_capacity(n_posts);
    for _ in 0..n_posts {
        posts.push(PostRecord {
            poster: ActionId(r.u32()?),
            site: CallSiteId(r.u32()?),
            posted: ActionId(r.u32()?),
        });
    }

    let n_harness = r.len()?;
    let mut harness_actions = HashMap::with_capacity(n_harness);
    for _ in 0..n_harness {
        harness_actions.insert(CallSiteId(r.u32()?), ActionId(r.u32()?));
    }

    let n_roots = r.len()?;
    let mut root_actions = Vec::with_capacity(n_roots);
    for _ in 0..n_roots {
        root_actions.push((ClassId(r.u32()?), ActionId(r.u32()?)));
    }

    let stats = r.stats()?;

    let n_nodes = r.len()?;
    let mut nodes = HashMap::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        let key = r.node_key()?;
        let node = NodeId(r.u32()?);
        nodes.insert(key, node);
    }

    let n_pts = r.len()?;
    let mut pts = Vec::with_capacity(n_pts);
    for _ in 0..n_pts {
        let n_objs = r.len()?;
        let mut set = PtsSet::new();
        for _ in 0..n_objs {
            set.insert(crate::ObjId(r.u32()?));
        }
        pts.push(set);
    }
    // Every node must index into the points-to vector.
    if nodes.values().any(|n| n.0 as usize >= pts.len()) {
        return None;
    }

    let n_resolved = r.len()?;
    let mut resolved_sites = HashSet::with_capacity(n_resolved);
    for _ in 0..n_resolved {
        resolved_sites.insert(CallSiteId(r.u32()?));
    }

    let n_havoc = r.len()?;
    let mut havoc_escaped = HashSet::with_capacity(n_havoc);
    for _ in 0..n_havoc {
        havoc_escaped.insert(crate::ObjId(r.u32()?));
    }

    if !r.at_end() {
        return None;
    }

    Some(Analysis {
        selector,
        options,
        framework,
        actions,
        ctxs,
        objs,
        reachable,
        contexts_by_method,
        cg_edges,
        posts,
        harness_actions,
        root_actions,
        resolved_sites,
        havoc_escaped,
        stats,
        nodes,
        pts,
    })
}

/// Total order over node keys for deterministic emission.
fn node_sort_key(key: &NodeKey) -> (u8, u32, u32, u32) {
    match *key {
        NodeKey::Var { method, ctx, local } => (0, method.0, ctx.0, local.0),
        NodeKey::Ret { method, ctx } => (1, method.0, ctx.0, 0),
        NodeKey::Field { obj, field } => (2, obj.0, field.0, 0),
        NodeKey::Static { field } => (3, field.0, 0, 0),
    }
}

#[derive(Default)]
struct Writer(Vec<u8>);

impl Writer {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u32(x);
            }
            None => self.u8(0),
        }
    }

    fn selector(&mut self, s: SelectorKind) {
        let (tag, k) = match s {
            SelectorKind::Insensitive => (0, 0),
            SelectorKind::KCfa(k) => (1, k),
            SelectorKind::KObj(k) => (2, k),
            SelectorKind::Hybrid(k) => (3, k),
            SelectorKind::ActionSensitive(k) => (4, k),
        };
        self.u8(tag);
        self.u32(k);
    }

    fn options(&mut self, o: AnalysisOptions) {
        self.u8(o.index_sensitive as u8);
        self.u8(match o.opaque_policy {
            OpaquePolicy::Ignore => 0,
            OpaquePolicy::Resolve => 1,
            OpaquePolicy::Havoc => 2,
        });
    }

    fn action(&mut self, a: &Action) {
        self.action_kind(a.kind);
        self.opt_u32(a.parent.map(|p| p.0));
        self.len(a.posters.len());
        for p in &a.posters {
            self.u32(p.0);
        }
        match a.thread {
            ThreadKind::Main => self.u8(0),
            ThreadKind::Background(root) => {
                self.u8(1);
                self.opt_u32(root.map(|r| r.0));
            }
        }
        self.u32(a.entry.0);
        self.opt_u32(a.recv_site.map(|s| s.0));
        self.u32(a.harness.0);
        self.opt_u32(a.origin_site.map(|s| s.0));
    }

    fn action_kind(&mut self, kind: ActionKind) {
        match kind {
            ActionKind::HarnessRoot => self.u8(0),
            ActionKind::Lifecycle { event, instance } => {
                self.u8(1);
                self.u8(lifecycle_tag(event));
                self.u8(instance);
            }
            ActionKind::Gui { event, view } => {
                self.u8(2);
                self.u8(gui_tag(event));
                match view {
                    Some(v) => {
                        self.u8(1);
                        self.u32(v as u32);
                    }
                    None => self.u8(0),
                }
            }
            ActionKind::ThreadRun => self.u8(3),
            ActionKind::AsyncTaskPre => self.u8(4),
            ActionKind::AsyncTaskBg => self.u8(5),
            ActionKind::AsyncTaskPost => self.u8(6),
            ActionKind::ExecutorRun => self.u8(7),
            ActionKind::RunnablePost => self.u8(8),
            ActionKind::MessageHandle { what } => {
                self.u8(9);
                match what {
                    Some(w) => {
                        self.u8(1);
                        self.i64(w);
                    }
                    None => self.u8(0),
                }
            }
            ActionKind::Receive => self.u8(10),
            ActionKind::ServiceConnected => self.u8(11),
            ActionKind::ServiceDisconnected => self.u8(12),
            ActionKind::ServiceStart => self.u8(13),
            ActionKind::TimerTask => self.u8(14),
            ActionKind::LocationUpdate => self.u8(15),
            ActionKind::MediaCompletion => self.u8(16),
        }
    }

    fn ctx_elem(&mut self, e: CtxElem) {
        match e {
            CtxElem::Alloc(s) => {
                self.u8(0);
                self.u32(s.0);
            }
            CtxElem::Call(s) => {
                self.u8(1);
                self.u32(s.0);
            }
        }
    }

    fn ctx_data(&mut self, c: &CtxData) {
        self.u32(c.action.0);
        self.len(c.elems.len());
        for &e in &c.elems {
            self.ctx_elem(e);
        }
    }

    fn obj_data(&mut self, o: &ObjData) {
        match o {
            ObjData::Site {
                site,
                action,
                elems,
                class,
            } => {
                self.u8(0);
                self.u32(site.0);
                self.opt_u32(action.map(|a| a.0));
                self.len(elems.len());
                for &e in elems {
                    self.ctx_elem(e);
                }
                self.u32(class.0);
            }
            ObjData::View {
                activity,
                view_id,
                class,
            } => {
                self.u8(1);
                self.u32(activity.0);
                self.i64(*view_id);
                self.u32(class.0);
            }
            ObjData::Conjured { class, site } => {
                self.u8(2);
                self.u32(class.0);
                self.u32(site.0);
            }
        }
    }

    fn stats(&mut self, s: &SolverStats) {
        self.u64(s.worklist_iterations as u64);
        self.u64(s.propagations as u64);
        self.u64(s.cg_edges as u64);
        self.u64(s.reachable_contexts as u64);
        self.u64(s.abstract_objects as u64);
        self.u64(s.pts_set_bytes as u64);
    }

    fn node_key(&mut self, key: &NodeKey) {
        match *key {
            NodeKey::Var { method, ctx, local } => {
                self.u8(0);
                self.u32(method.0);
                self.u32(ctx.0);
                self.u32(local.0);
            }
            NodeKey::Ret { method, ctx } => {
                self.u8(1);
                self.u32(method.0);
                self.u32(ctx.0);
            }
            NodeKey::Field { obj, field } => {
                self.u8(2);
                self.u32(obj.0);
                self.u32(field.0);
            }
            NodeKey::Static { field } => {
                self.u8(3);
                self.u32(field.0);
            }
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn i64(&mut self) -> Option<i64> {
        Some(i64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn len(&mut self) -> Option<usize> {
        let v = self.u64()?;
        // A length cannot exceed the remaining payload (each element is
        // at least one byte), so a corrupt giant length fails here
        // instead of driving a huge allocation.
        let v = usize::try_from(v).ok()?;
        (v <= self.bytes.len().saturating_sub(self.pos)).then_some(v)
    }

    fn opt_u32(&mut self) -> Option<Option<u32>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(self.u32()?)),
            _ => None,
        }
    }

    fn selector(&mut self) -> Option<SelectorKind> {
        let tag = self.u8()?;
        let k = self.u32()?;
        Some(match tag {
            0 => SelectorKind::Insensitive,
            1 => SelectorKind::KCfa(k),
            2 => SelectorKind::KObj(k),
            3 => SelectorKind::Hybrid(k),
            4 => SelectorKind::ActionSensitive(k),
            _ => return None,
        })
    }

    fn options(&mut self) -> Option<AnalysisOptions> {
        Some(AnalysisOptions {
            index_sensitive: self.bool()?,
            opaque_policy: self.opaque_policy()?,
        })
    }

    fn opaque_policy(&mut self) -> Option<OpaquePolicy> {
        match self.u8()? {
            0 => Some(OpaquePolicy::Ignore),
            1 => Some(OpaquePolicy::Resolve),
            2 => Some(OpaquePolicy::Havoc),
            _ => None,
        }
    }

    fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    fn action(&mut self, id: ActionId) -> Option<Action> {
        let kind = self.action_kind()?;
        let parent = self.opt_u32()?.map(ActionId);
        let n_posters = self.len()?;
        let mut posters = Vec::with_capacity(n_posters);
        for _ in 0..n_posters {
            posters.push(ActionId(self.u32()?));
        }
        let thread = match self.u8()? {
            0 => ThreadKind::Main,
            1 => ThreadKind::Background(self.opt_u32()?.map(ActionId)),
            _ => return None,
        };
        Some(Action {
            id,
            kind,
            parent,
            posters,
            thread,
            entry: MethodId(self.u32()?),
            recv_site: self.opt_u32()?.map(AllocSiteId),
            harness: ClassId(self.u32()?),
            origin_site: self.opt_u32()?.map(CallSiteId),
        })
    }

    fn action_kind(&mut self) -> Option<ActionKind> {
        Some(match self.u8()? {
            0 => ActionKind::HarnessRoot,
            1 => ActionKind::Lifecycle {
                event: lifecycle_from_tag(self.u8()?)?,
                instance: self.u8()?,
            },
            2 => {
                let event = gui_from_tag(self.u8()?)?;
                let view = match self.u8()? {
                    0 => None,
                    1 => Some(self.u32()? as i32),
                    _ => return None,
                };
                ActionKind::Gui { event, view }
            }
            3 => ActionKind::ThreadRun,
            4 => ActionKind::AsyncTaskPre,
            5 => ActionKind::AsyncTaskBg,
            6 => ActionKind::AsyncTaskPost,
            7 => ActionKind::ExecutorRun,
            8 => ActionKind::RunnablePost,
            9 => {
                let what = match self.u8()? {
                    0 => None,
                    1 => Some(self.i64()?),
                    _ => return None,
                };
                ActionKind::MessageHandle { what }
            }
            10 => ActionKind::Receive,
            11 => ActionKind::ServiceConnected,
            12 => ActionKind::ServiceDisconnected,
            13 => ActionKind::ServiceStart,
            14 => ActionKind::TimerTask,
            15 => ActionKind::LocationUpdate,
            16 => ActionKind::MediaCompletion,
            _ => return None,
        })
    }

    fn ctx_elem(&mut self) -> Option<CtxElem> {
        match self.u8()? {
            0 => Some(CtxElem::Alloc(AllocSiteId(self.u32()?))),
            1 => Some(CtxElem::Call(CallSiteId(self.u32()?))),
            _ => None,
        }
    }

    fn ctx_data(&mut self) -> Option<CtxData> {
        let action = ActionId(self.u32()?);
        let n = self.len()?;
        let mut elems = Vec::with_capacity(n);
        for _ in 0..n {
            elems.push(self.ctx_elem()?);
        }
        Some(CtxData { action, elems })
    }

    fn obj_data(&mut self) -> Option<ObjData> {
        match self.u8()? {
            0 => {
                let site = AllocSiteId(self.u32()?);
                let action = self.opt_u32()?.map(ActionId);
                let n = self.len()?;
                let mut elems = Vec::with_capacity(n);
                for _ in 0..n {
                    elems.push(self.ctx_elem()?);
                }
                let class = ClassId(self.u32()?);
                Some(ObjData::Site {
                    site,
                    action,
                    elems,
                    class,
                })
            }
            1 => Some(ObjData::View {
                activity: ClassId(self.u32()?),
                view_id: self.i64()?,
                class: ClassId(self.u32()?),
            }),
            2 => Some(ObjData::Conjured {
                class: ClassId(self.u32()?),
                site: CallSiteId(self.u32()?),
            }),
            _ => None,
        }
    }

    fn stats(&mut self) -> Option<SolverStats> {
        Some(SolverStats {
            worklist_iterations: self.u64()? as usize,
            propagations: self.u64()? as usize,
            cg_edges: self.u64()? as usize,
            reachable_contexts: self.u64()? as usize,
            abstract_objects: self.u64()? as usize,
            pts_set_bytes: self.u64()? as usize,
        })
    }

    fn node_key(&mut self) -> Option<NodeKey> {
        Some(match self.u8()? {
            0 => NodeKey::Var {
                method: MethodId(self.u32()?),
                ctx: crate::CtxId(self.u32()?),
                local: Local(self.u32()?),
            },
            1 => NodeKey::Ret {
                method: MethodId(self.u32()?),
                ctx: crate::CtxId(self.u32()?),
            },
            2 => NodeKey::Field {
                obj: crate::ObjId(self.u32()?),
                field: FieldId(self.u32()?),
            },
            3 => NodeKey::Static {
                field: FieldId(self.u32()?),
            },
            _ => return None,
        })
    }
}

fn lifecycle_tag(e: LifecycleEvent) -> u8 {
    match e {
        LifecycleEvent::Create => 0,
        LifecycleEvent::Start => 1,
        LifecycleEvent::Restart => 2,
        LifecycleEvent::Resume => 3,
        LifecycleEvent::Pause => 4,
        LifecycleEvent::Stop => 5,
        LifecycleEvent::Destroy => 6,
    }
}

fn lifecycle_from_tag(tag: u8) -> Option<LifecycleEvent> {
    Some(match tag {
        0 => LifecycleEvent::Create,
        1 => LifecycleEvent::Start,
        2 => LifecycleEvent::Restart,
        3 => LifecycleEvent::Resume,
        4 => LifecycleEvent::Pause,
        5 => LifecycleEvent::Stop,
        6 => LifecycleEvent::Destroy,
        _ => return None,
    })
}

fn gui_tag(e: GuiEventKind) -> u8 {
    match e {
        GuiEventKind::Click => 0,
        GuiEventKind::LongClick => 1,
        GuiEventKind::Scroll => 2,
        GuiEventKind::ItemClick => 3,
        GuiEventKind::TextChanged => 4,
    }
}

fn gui_from_tag(tag: u8) -> Option<GuiEventKind> {
    Some(match tag {
        0 => GuiEventKind::Click,
        1 => GuiEventKind::LongClick,
        2 => GuiEventKind::Scroll,
        3 => GuiEventKind::ItemClick,
        4 => GuiEventKind::TextChanged,
        _ => return None,
    })
}
