//! Memory-access extraction (§4.1's ⟨x, τ, A⟩ bundles).

use crate::ctx::{CtxId, ObjId};
use crate::solver::Analysis;
use crate::summary::AccessSite;
use android_model::ActionId;
use apir::{ClassId, FieldId, MethodId, Program, StmtAddr};

/// One memory access attributed to an action.
#[derive(Debug, Clone)]
pub struct Access {
    /// The action performing the access.
    pub action: ActionId,
    /// The method containing the access.
    pub method: MethodId,
    /// The method context.
    pub ctx: CtxId,
    /// The statement address.
    pub addr: StmtAddr,
    /// `true` for stores.
    pub is_write: bool,
    /// The accessed field.
    pub field: FieldId,
    /// Points-to set of the base object (empty for statics). Always
    /// sorted ascending with no duplicates: [`collect_accesses`] fills
    /// it from a [`crate::PtsSet`]'s ascending iterator, and downstream
    /// merges (the session's access dedupe) keep it sorted.
    pub base: Vec<ObjId>,
    /// Whether this is a static-field access.
    pub is_static: bool,
}

impl Access {
    /// Whether two accesses may touch a common location. Both base sets
    /// are sorted (see [`Access::base`]), so the intersection test is a
    /// linear two-pointer walk instead of a quadratic scan.
    pub fn overlaps(&self, other: &Access) -> bool {
        if self.field != other.field || self.is_static != other.is_static {
            return false;
        }
        if self.is_static {
            return true;
        }
        debug_assert!(self.base.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(other.base.windows(2).all(|w| w[0] < w[1]));
        let (mut i, mut j) = (0, 0);
        while i < self.base.len() && j < other.base.len() {
            match self.base[i].cmp(&other.base[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }
}

/// Instantiates per-method [`AccessSite`]s against the points-to result:
/// one [`Access`] per reachable `(method, ctx)` per site, with the base
/// local resolved to its abstract objects and attributed to its action.
/// `sites` looks up the sites of a reached method with a body (the
/// summary layer's facts). Accesses inside `exclude_class` (the
/// synthetic `$Harness`) or to its fields are skipped. Opaque container
/// ops (`ArrayList.setAt`/`getAt`) contribute accesses on their
/// (possibly index-sensitive) slot fields.
pub fn collect_accesses<'s>(
    analysis: &Analysis,
    program: &Program,
    exclude_class: Option<ClassId>,
    sites: impl Fn(MethodId) -> &'s [AccessSite],
) -> Vec<Access> {
    let mut out = Vec::new();
    for &(method, ctx) in &analysis.reachable {
        let m = program.method(method);
        if !m.has_body() || Some(m.class) == exclude_class {
            continue; // bodyless, or the harness body itself
        }
        let action = analysis.action_of(ctx);
        for site in sites(method) {
            if Some(program.field(site.field).class) == exclude_class {
                continue; // synthetic registration fields
            }
            let base = match site.base {
                // PtsSet iterates in ascending id order already.
                Some(l) => analysis.pts_var(method, ctx, l).iter().collect(),
                None => Vec::new(),
            };
            if !site.is_static && base.is_empty() {
                continue; // no resolvable target — cannot race
            }
            out.push(Access {
                action,
                method,
                ctx,
                addr: site.addr,
                is_write: site.is_write,
                field: site.field,
                base,
                is_static: site.is_static,
            });
        }
    }
    out.sort_by_key(|a| (a.addr, a.ctx, a.is_write));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_accesses_always_overlap_on_same_field() {
        let a = Access {
            action: ActionId(0),
            method: MethodId(0),
            ctx: CtxId(0),
            addr: StmtAddr::new(MethodId(0), apir::BlockId(0), 0),
            is_write: true,
            field: FieldId(3),
            base: vec![],
            is_static: true,
        };
        let mut b = a.clone();
        b.is_write = false;
        assert!(a.overlaps(&b));
        b.field = FieldId(4);
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn instance_accesses_overlap_only_on_shared_objects() {
        let mk = |base: Vec<u32>| Access {
            action: ActionId(0),
            method: MethodId(0),
            ctx: CtxId(0),
            addr: StmtAddr::new(MethodId(0), apir::BlockId(0), 0),
            is_write: true,
            field: FieldId(1),
            base: base.into_iter().map(ObjId).collect(),
            is_static: false,
        };
        let a = mk(vec![1, 2]);
        let b = mk(vec![2, 3]);
        let c = mk(vec![4]);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }
}
