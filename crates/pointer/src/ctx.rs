//! Context abstractions (§3.3).
//!
//! A method context is always `(action, elems)`: the enclosing concurrency
//! action plus a selector-managed string of allocation/call sites. The
//! *selector* decides how `elems` evolve at calls and — crucially — whether
//! abstract heap objects carry the allocating action. Carrying the action is
//! the paper's **action-sensitivity**: objects allocated at the same site in
//! two different actions stay distinct, which is what cuts racy pairs ~5×
//! in Table 3.

use android_model::ActionId;
use apir::{AllocSiteId, CallSiteId, ClassId};
use std::borrow::Cow;
use std::collections::HashMap;

/// One element of a context string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CtxElem {
    /// An allocation site (object-sensitivity).
    Alloc(AllocSiteId),
    /// A call site (call-site-sensitivity).
    Call(CallSiteId),
}

/// An interned method context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CtxId(pub u32);

/// The data behind a [`CtxId`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CtxData {
    /// The enclosing action (always tracked, for access attribution).
    pub action: ActionId,
    /// The selector-managed context string.
    pub elems: Vec<CtxElem>,
}

/// Interns method contexts.
#[derive(Debug, Default)]
pub struct CtxTable {
    data: Vec<CtxData>,
    map: HashMap<CtxData, CtxId>,
}

impl CtxTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a context.
    pub fn intern(&mut self, data: CtxData) -> CtxId {
        if let Some(&id) = self.map.get(&data) {
            return id;
        }
        let id = CtxId(u32::try_from(self.data.len()).expect("ctx overflow"));
        self.data.push(data.clone());
        self.map.insert(data, id);
        id
    }

    /// Resolves a context id.
    pub fn get(&self, id: CtxId) -> &CtxData {
        &self.data[id.0 as usize]
    }

    /// Every interned context, in id order (`CtxId(i)` is position `i`).
    pub fn entries(&self) -> &[CtxData] {
        &self.data
    }

    /// Rebuilds a table from an id-ordered entry list (the inverse of
    /// [`Self::entries`], for artifact deserialization). Interning the
    /// same data afterwards resolves to the original ids.
    pub fn from_entries(data: Vec<CtxData>) -> Self {
        let map = data
            .iter()
            .enumerate()
            .map(|(i, d)| (d.clone(), CtxId(i as u32)))
            .collect();
        Self { data, map }
    }

    /// Number of distinct contexts.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// An interned abstract object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjId(pub u32);

/// The data behind an [`ObjId`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ObjData {
    /// An allocation-site object with its heap context.
    Site {
        /// The allocation site.
        site: AllocSiteId,
        /// The allocating action — `Some` only under action-sensitivity.
        action: Option<ActionId>,
        /// Selector-truncated heap context string.
        elems: Vec<CtxElem>,
        /// The allocated class.
        class: ClassId,
    },
    /// An inflated view (the `InflatedViewContext` of §3.3): identified by
    /// activity and resource id, so `findViewById` calls with the same id
    /// alias across actions.
    View {
        /// The activity whose layout declares the view.
        activity: ClassId,
        /// The view resource id (negative synthetic ids for unresolved
        /// `findViewById` arguments, unique per call site).
        view_id: i64,
        /// The view's class per the layout (or the base `View`).
        class: ClassId,
    },
    /// A soundness-policy-conjured object with no program allocation
    /// site: a reflective class token (`Class.forName`), a reflective
    /// instance (`Class.newInstance`), or an intent-launched component.
    /// Keyed by the conjuring call site so tokens and instances from
    /// different sites stay distinct.
    Conjured {
        /// The denoted (token) or instantiated class.
        class: ClassId,
        /// The call site that conjured the object.
        site: CallSiteId,
    },
}

impl ObjData {
    /// The object's dynamic class.
    pub fn class(&self) -> ClassId {
        match self {
            ObjData::Site { class, .. }
            | ObjData::View { class, .. }
            | ObjData::Conjured { class, .. } => *class,
        }
    }

    /// The allocation site, for site-keyed objects.
    pub fn site(&self) -> Option<AllocSiteId> {
        match self {
            ObjData::Site { site, .. } => Some(*site),
            ObjData::View { .. } | ObjData::Conjured { .. } => None,
        }
    }

    /// The heap context string (empty for views).
    pub fn elems(&self) -> &[CtxElem] {
        match self {
            ObjData::Site { elems, .. } => elems,
            ObjData::View { .. } | ObjData::Conjured { .. } => &[],
        }
    }
}

/// Interns abstract objects.
#[derive(Debug, Default)]
pub struct ObjTable {
    data: Vec<ObjData>,
    map: HashMap<ObjData, ObjId>,
}

impl ObjTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns an object.
    pub fn intern(&mut self, data: ObjData) -> ObjId {
        if let Some(&id) = self.map.get(&data) {
            return id;
        }
        let id = ObjId(u32::try_from(self.data.len()).expect("obj overflow"));
        self.data.push(data.clone());
        self.map.insert(data, id);
        id
    }

    /// Resolves an object id.
    pub fn get(&self, id: ObjId) -> &ObjData {
        &self.data[id.0 as usize]
    }

    /// Every interned object, in id order (`ObjId(i)` is position `i`).
    pub fn entries(&self) -> &[ObjData] {
        &self.data
    }

    /// Rebuilds a table from an id-ordered entry list (the inverse of
    /// [`Self::entries`], for artifact deserialization). Interning the
    /// same data afterwards resolves to the original ids.
    pub fn from_entries(data: Vec<ObjData>) -> Self {
        let map = data
            .iter()
            .enumerate()
            .map(|(i, d)| (d.clone(), ObjId(i as u32)))
            .collect();
        Self { data, map }
    }

    /// Number of distinct objects.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// The context-sensitivity policy (§3.3 and the ablations of §6.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectorKind {
    /// Context-insensitive.
    Insensitive,
    /// k-call-site sensitivity (k-cfa).
    KCfa(u32),
    /// k-object sensitivity (k-obj).
    KObj(u32),
    /// Hybrid: k-obj at virtual dispatch, k-cfa at static calls.
    Hybrid(u32),
    /// The paper's action-sensitivity: hybrid + the allocating action on
    /// every heap object.
    ActionSensitive(u32),
}

/// Error from parsing a context-selector spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSelectorError(String);

impl std::fmt::Display for ParseSelectorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid context spec {:?}: expected \"insensitive\" or \"action|k-cfa|k-obj|hybrid:K\"",
            self.0
        )
    }
}

impl std::error::Error for ParseSelectorError {}

impl std::fmt::Display for SelectorKind {
    /// The canonical spec syntax, re-parsable by [`FromStr`](std::str::FromStr):
    /// `insensitive`, `action:K`, `k-cfa:K`, `k-obj:K`, `hybrid:K`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectorKind::Insensitive => write!(f, "insensitive"),
            SelectorKind::KCfa(k) => write!(f, "k-cfa:{k}"),
            SelectorKind::KObj(k) => write!(f, "k-obj:{k}"),
            SelectorKind::Hybrid(k) => write!(f, "hybrid:{k}"),
            SelectorKind::ActionSensitive(k) => write!(f, "action:{k}"),
        }
    }
}

impl std::str::FromStr for SelectorKind {
    type Err = ParseSelectorError;

    /// Parses the spec syntax rendered by [`Display`](std::fmt::Display):
    /// `insensitive`, or one of `action`/`k-cfa`/`k-obj`/`hybrid`
    /// followed by `:K` (`K` defaults to 1 when omitted).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseSelectorError(s.to_owned());
        let (kind, k) = match s.split_once(':') {
            Some((kind, k)) => (kind, Some(k.parse::<u32>().map_err(|_| err())?)),
            None => (s, None),
        };
        match (kind, k) {
            ("insensitive", None) => Ok(SelectorKind::Insensitive),
            ("action", k) => Ok(SelectorKind::ActionSensitive(k.unwrap_or(1))),
            ("k-cfa", k) => Ok(SelectorKind::KCfa(k.unwrap_or(1))),
            ("k-obj", k) => Ok(SelectorKind::KObj(k.unwrap_or(1))),
            ("hybrid", k) => Ok(SelectorKind::Hybrid(k.unwrap_or(1))),
            _ => Err(err()),
        }
    }
}

impl SelectorKind {
    /// Human-readable name (used in ablation tables).
    pub fn name(self) -> String {
        match self {
            SelectorKind::Insensitive => "insensitive".into(),
            SelectorKind::KCfa(k) => format!("{k}-cfa"),
            SelectorKind::KObj(k) => format!("{k}-obj"),
            SelectorKind::Hybrid(k) => format!("hybrid({k})"),
            SelectorKind::ActionSensitive(k) => format!("action+hybrid({k})"),
        }
    }

    /// Stable `(tag, k)` code of the selector: the artifact encoding and
    /// the config fingerprint's input.
    pub fn code(self) -> (u8, u32) {
        match self {
            SelectorKind::Insensitive => (0, 0),
            SelectorKind::KCfa(k) => (1, k),
            SelectorKind::KObj(k) => (2, k),
            SelectorKind::Hybrid(k) => (3, k),
            SelectorKind::ActionSensitive(k) => (4, k),
        }
    }

    fn k(self) -> usize {
        self.code().1 as usize
    }

    /// Whether heap objects carry the allocating action.
    pub fn action_sensitive(self) -> bool {
        matches!(self, SelectorKind::ActionSensitive(_))
    }

    /// Context string for a virtually-dispatched callee, given the caller's
    /// string and the receiver object.
    ///
    /// Returns a [`Cow`] so selectors that pass an existing string
    /// through unchanged (insensitive, already-short k-obj chains)
    /// borrow instead of allocating; callers that need ownership use
    /// `into_owned`.
    pub fn virtual_elems<'a>(
        self,
        caller: &'a [CtxElem],
        site: CallSiteId,
        recv: &'a ObjData,
    ) -> Cow<'a, [CtxElem]> {
        match self {
            SelectorKind::Insensitive => Cow::Borrowed(&[]),
            SelectorKind::KCfa(_) => truncate_last(caller, Some(CtxElem::Call(site)), self.k()),
            SelectorKind::KObj(_) | SelectorKind::Hybrid(_) | SelectorKind::ActionSensitive(_) => {
                let alloc = recv.site().map(CtxElem::Alloc);
                truncate_last(recv.elems(), alloc, self.k())
            }
        }
    }

    /// Context string for a static/special callee. See
    /// [`SelectorKind::virtual_elems`] for the borrowing contract.
    pub fn static_elems<'a>(self, caller: &'a [CtxElem], site: CallSiteId) -> Cow<'a, [CtxElem]> {
        match self {
            SelectorKind::Insensitive => Cow::Borrowed(&[]),
            SelectorKind::KObj(_) => Cow::Borrowed(caller),
            SelectorKind::KCfa(_) | SelectorKind::Hybrid(_) | SelectorKind::ActionSensitive(_) => {
                truncate_last(caller, Some(CtxElem::Call(site)), self.k())
            }
        }
    }

    /// Heap context for an allocation in `ctx`. The string borrows from
    /// `ctx` whenever truncation is a no-op.
    pub fn heap_ctx<'a>(self, ctx: &'a CtxData) -> (Option<ActionId>, Cow<'a, [CtxElem]>) {
        let action = if self.action_sensitive() {
            Some(ctx.action)
        } else {
            None
        };
        (action, truncate_last(&ctx.elems, None, self.k()))
    }
}

/// Keeps the last `k` elements of `base ++ [extra]`, borrowing `base`
/// when the result is exactly `base` (no append, no truncation).
fn truncate_last(base: &[CtxElem], extra: Option<CtxElem>, k: usize) -> Cow<'_, [CtxElem]> {
    match extra {
        None if base.len() <= k => Cow::Borrowed(base),
        None => Cow::Owned(base[base.len() - k..].to_vec()),
        Some(_) if k == 0 => Cow::Borrowed(&[]),
        Some(e) => {
            let keep_base = (k - 1).min(base.len());
            let mut v = Vec::with_capacity(keep_base + 1);
            v.extend_from_slice(&base[base.len() - keep_base..]);
            v.push(e);
            Cow::Owned(v)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(site: u32, elems: Vec<CtxElem>) -> ObjData {
        ObjData::Site {
            site: AllocSiteId(site),
            action: None,
            elems,
            class: ClassId(0),
        }
    }

    #[test]
    fn tables_intern_and_deduplicate() {
        let mut ctxs = CtxTable::new();
        let a = ctxs.intern(CtxData {
            action: ActionId(0),
            elems: vec![],
        });
        let b = ctxs.intern(CtxData {
            action: ActionId(0),
            elems: vec![],
        });
        let c = ctxs.intern(CtxData {
            action: ActionId(1),
            elems: vec![],
        });
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(ctxs.len(), 2);

        let mut objs = ObjTable::new();
        let o1 = objs.intern(obj(0, vec![]));
        let o2 = objs.intern(obj(0, vec![]));
        assert_eq!(o1, o2);
        assert_eq!(objs.len(), 1);
        assert_eq!(objs.get(o1).class(), ClassId(0));
    }

    #[test]
    fn kcfa_appends_call_sites_and_truncates() {
        let s = SelectorKind::KCfa(2);
        let caller = vec![CtxElem::Call(CallSiteId(1)), CtxElem::Call(CallSiteId(2))];
        let got = s.static_elems(&caller, CallSiteId(3));
        assert_eq!(
            got,
            vec![CtxElem::Call(CallSiteId(2)), CtxElem::Call(CallSiteId(3))]
        );
    }

    #[test]
    fn kobj_uses_receiver_allocation_chain() {
        let s = SelectorKind::KObj(2);
        let recv = obj(9, vec![CtxElem::Alloc(AllocSiteId(5))]);
        let got = s.virtual_elems(&[], CallSiteId(0), &recv);
        assert_eq!(
            got,
            vec![
                CtxElem::Alloc(AllocSiteId(5)),
                CtxElem::Alloc(AllocSiteId(9))
            ]
        );
        // Static calls pass the caller context through.
        let caller = vec![CtxElem::Alloc(AllocSiteId(1))];
        assert_eq!(s.static_elems(&caller, CallSiteId(0)), caller);
    }

    #[test]
    fn hybrid_mixes_obj_and_cfa() {
        let s = SelectorKind::Hybrid(1);
        let recv = obj(9, vec![]);
        assert_eq!(
            s.virtual_elems(&[], CallSiteId(0), &recv),
            vec![CtxElem::Alloc(AllocSiteId(9))]
        );
        assert_eq!(
            s.static_elems(&[], CallSiteId(4)),
            vec![CtxElem::Call(CallSiteId(4))]
        );
    }

    #[test]
    fn action_sensitivity_tags_heap_objects() {
        let plain = SelectorKind::Hybrid(1);
        let action = SelectorKind::ActionSensitive(1);
        let ctx = CtxData {
            action: ActionId(7),
            elems: vec![CtxElem::Call(CallSiteId(1))],
        };
        assert_eq!(plain.heap_ctx(&ctx).0, None);
        assert_eq!(action.heap_ctx(&ctx).0, Some(ActionId(7)));
        assert!(plain.name().starts_with("hybrid"));
        assert!(action.action_sensitive());
    }

    #[test]
    fn insensitive_contexts_are_empty() {
        let s = SelectorKind::Insensitive;
        let recv = obj(9, vec![CtxElem::Alloc(AllocSiteId(5))]);
        assert!(s
            .virtual_elems(&[CtxElem::Call(CallSiteId(1))], CallSiteId(0), &recv)
            .is_empty());
        assert!(s
            .static_elems(&[CtxElem::Call(CallSiteId(1))], CallSiteId(0))
            .is_empty());
        let ctx = CtxData {
            action: ActionId(0),
            elems: vec![CtxElem::Call(CallSiteId(1))],
        };
        let (action, elems) = s.heap_ctx(&ctx);
        assert_eq!(action, None);
        assert!(elems.is_empty());
    }

    #[test]
    fn pass_through_context_strings_borrow() {
        // The no-op cases must not allocate: KObj static calls and
        // already-short heap contexts borrow the input string.
        let caller = vec![CtxElem::Alloc(AllocSiteId(1))];
        assert!(matches!(
            SelectorKind::KObj(2).static_elems(&caller, CallSiteId(0)),
            Cow::Borrowed(_)
        ));
        assert!(matches!(
            SelectorKind::Insensitive.virtual_elems(&caller, CallSiteId(0), &obj(9, vec![])),
            Cow::Borrowed(_)
        ));
        let ctx = CtxData {
            action: ActionId(0),
            elems: vec![CtxElem::Call(CallSiteId(1))],
        };
        assert!(matches!(
            SelectorKind::ActionSensitive(2).heap_ctx(&ctx).1,
            Cow::Borrowed(_)
        ));
        // Truncation still owns.
        assert!(matches!(
            SelectorKind::KCfa(1).static_elems(&caller, CallSiteId(3)),
            Cow::Owned(_)
        ));
    }
}
