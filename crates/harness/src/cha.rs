//! The class-hierarchy-analysis discovery graph.
//!
//! Harness generation needs a cheap over-approximation of "which methods can
//! run once this activity is alive" to decide which listener registrations
//! belong to which activity's harness. CHA resolves every virtual call
//! against all concrete subtypes of the static receiver class — coarse, but
//! sound for discovery purposes (the precise call graph is built later by
//! the pointer analysis).
//!
//! The §3.2 fixpoint is one graph per app, not one traversal per activity:
//! a method's successors (CHA call targets plus the callbacks it makes
//! reachable) depend only on the method, so each list is built once, on
//! first reach, and every dispatch lookup goes through one memo. Marks are
//! tagged per traversal: the closure every activity shares is marked once.

use apir::{ClassId, InvokeKind, MethodId, Program, Stmt};
use std::collections::HashMap;

/// The mark of the closure every activity shares; activity tags are larger.
pub(crate) const SHARED: u32 = 1;

/// Memo of CHA dispatch targets keyed by `(base class, declared method)`.
pub(crate) struct DispatchTargets<'p> {
    program: &'p Program,
    memo: HashMap<(ClassId, MethodId), Box<[MethodId]>>,
}

impl DispatchTargets<'_> {
    /// The distinct methods `decl` dispatches to on the concrete subtypes
    /// of `base`, ascending; computed once per key.
    pub(crate) fn of(&mut self, base: ClassId, decl: MethodId) -> &[MethodId] {
        let program = self.program;
        self.memo.entry((base, decl)).or_insert_with(|| {
            let mut targets: Vec<MethodId> = program
                .concrete_subtypes(base)
                .into_iter()
                .filter_map(|sub| program.dispatch(sub, decl))
                .collect();
            targets.sort_unstable();
            targets.dedup();
            targets.into()
        })
    }
}

/// The CHA discovery graph of one program, with per-method reachability
/// marks.
///
/// `discover` yields the extra successors of a reached method (e.g.
/// callbacks of listeners registered in it), which is how the §3.2 fixpoint
/// enters the graph.
pub(crate) struct ChaGraph<'p, D> {
    dispatch: DispatchTargets<'p>,
    discover: D,
    /// Each reached method's successors as a range of `edges`, by method
    /// index; built on first reach.
    spans: Vec<Option<(usize, usize)>>,
    edges: Vec<MethodId>,
    /// The tag of the traversal that last reached each method; 0 = never.
    marks: Vec<u32>,
}

impl<'p, D> ChaGraph<'p, D>
where
    D: FnMut(&mut DispatchTargets<'p>, MethodId) -> Vec<MethodId>,
{
    pub(crate) fn new(program: &'p Program, discover: D) -> Self {
        let n = program.methods().len();
        Self {
            dispatch: DispatchTargets {
                program,
                memo: HashMap::new(),
            },
            discover,
            spans: vec![None; n],
            edges: Vec::new(),
            marks: vec![0; n],
        }
    }

    /// Marks with `tag` every method reachable from `roots`, stopping at
    /// methods in the [`SHARED`] closure or already marked `tag`. Run the
    /// shared traversal first: every later tag must exceed [`SHARED`].
    ///
    /// This is exact: closure(A ∪ S) = closure(A) ∪ closure(S), and the
    /// shared closure S is closed under successors, so whatever lies behind
    /// a method of S is already in S.
    pub(crate) fn mark(&mut self, roots: impl IntoIterator<Item = MethodId>, tag: u32) {
        let mut stack: Vec<MethodId> = Vec::new();
        let visit = |marks: &mut [u32], m: MethodId, stack: &mut Vec<MethodId>| {
            let mark = &mut marks[m.index()];
            if *mark != SHARED && *mark != tag {
                *mark = tag;
                stack.push(m);
            }
        };
        for root in roots {
            visit(&mut self.marks, root, &mut stack);
        }
        while let Some(m) = stack.pop() {
            let (start, end) = match self.spans[m.index()] {
                Some(span) => span,
                None => self.build_successors(m),
            };
            for &s in &self.edges[start..end] {
                visit(&mut self.marks, s, &mut stack);
            }
        }
    }

    /// Whether `m` is in the shared closure or was reached by the latest
    /// traversal tagged `tag`.
    pub(crate) fn reached(&self, m: MethodId, tag: u32) -> bool {
        let mark = self.marks[m.index()];
        mark == SHARED || mark == tag
    }

    /// Appends `m`'s CHA call targets plus its discovery targets,
    /// deduplicated, to `edges`, and records and returns their range.
    fn build_successors(&mut self, m: MethodId) -> (usize, usize) {
        let mut out = (self.discover)(&mut self.dispatch, m);
        let program = self.dispatch.program;
        let method = program.method(m);
        if method.has_body() {
            for (_, stmt) in method.iter_stmts() {
                let Stmt::Call { kind, callee, .. } = stmt else {
                    continue;
                };
                match kind {
                    InvokeKind::Static | InvokeKind::Special => out.push(*callee),
                    InvokeKind::Virtual => {
                        let decl_class = program.method(*callee).class;
                        out.extend_from_slice(self.dispatch.of(decl_class, *callee));
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        let start = self.edges.len();
        self.edges.extend(out);
        let span = (start, self.edges.len());
        self.spans[m.index()] = Some(span);
        span
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apir::{Origin, ProgramBuilder};

    #[test]
    fn virtual_dispatch_reaches_overrides() {
        let mut pb = ProgramBuilder::new();
        let base = pb.class("Base", Origin::App).build();
        let mut cb = pb.class("Derived", Origin::App);
        cb.set_super(base);
        let derived = cb.build();
        let base_f = pb.abstract_method(base, "f", 1);
        let mut mb = pb.method(derived, "f");
        mb.set_param_count(1);
        mb.ret(None);
        let derived_f = mb.finish();
        let mut mb = pb.method(base, "root");
        mb.set_param_count(1);
        let this = mb.param(0);
        mb.vcall(base_f, this, vec![]);
        mb.ret(None);
        let root = mb.finish();
        let p = pb.finish();
        let mut g = ChaGraph::new(&p, |_, _| Vec::new());
        g.mark([root], SHARED);
        assert!(g.reached(root, SHARED));
        assert!(g.reached(derived_f, SHARED), "CHA must reach the override");
    }

    #[test]
    fn extra_roots_feed_the_fixpoint() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C", Origin::App).build();
        let mut mb = pb.method(c, "root");
        mb.set_param_count(1);
        mb.ret(None);
        let root = mb.finish();
        let mut mb = pb.method(c, "callback");
        mb.set_param_count(1);
        mb.ret(None);
        let callback = mb.finish();
        let p = pb.finish();
        let mut g = ChaGraph::new(&p, |_, m| {
            if m == root {
                vec![callback]
            } else {
                Vec::new()
            }
        });
        g.mark([root], SHARED + 1);
        assert!(g.reached(callback, SHARED + 1));
        assert!(!g.reached(callback, SHARED + 2), "another activity's tag");
    }

    #[test]
    fn activity_traversals_stop_at_the_shared_closure() {
        // shared → s; a → s (already shared) and a → t.
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C", Origin::App).build();
        let mut leaf = |name: &str| {
            let mut mb = pb.method(c, name);
            mb.set_param_count(0);
            mb.set_static();
            mb.ret(None);
            mb.finish()
        };
        let (s, t) = (leaf("s"), leaf("t"));
        let mut mb = pb.method(c, "shared");
        mb.set_static();
        mb.call(None, InvokeKind::Static, s, None, vec![]);
        mb.ret(None);
        let shared = mb.finish();
        let mut mb = pb.method(c, "a");
        mb.set_static();
        mb.call(None, InvokeKind::Static, s, None, vec![]);
        mb.call(None, InvokeKind::Static, t, None, vec![]);
        mb.ret(None);
        let a = mb.finish();
        let p = pb.finish();
        let mut g = ChaGraph::new(&p, |_, _| Vec::new());
        g.mark([shared], SHARED);
        g.mark([a], SHARED + 1);
        for m in [shared, s, a, t] {
            assert!(g.reached(m, SHARED + 1));
        }
        // The next activity sees the shared closure but not `a`'s marks.
        g.mark([], SHARED + 2);
        assert!(g.reached(s, SHARED + 2));
        assert!(!g.reached(a, SHARED + 2));
        assert!(!g.reached(t, SHARED + 2));
    }
}
