//! Memory-access extraction (§4.1's ⟨x, τ, A⟩ bundles).

use crate::ctx::{CtxId, ObjId};
use crate::solver::Analysis;
use crate::summary::{reachable_access_sites, AccessSite};
use android_model::ActionId;
use apir::{ClassId, FieldId, MethodId, Program, StmtAddr};

/// An abstract memory location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccessLoc {
    /// An instance field of an abstract object.
    Field(ObjId, FieldId),
    /// A static field.
    Static(FieldId),
}

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
    /// The abstract locations this access may touch.
    pub fn locs(&self) -> Vec<AccessLoc> {
        if self.is_static {
            vec![AccessLoc::Static(self.field)]
        } else {
            self.base
                .iter()
                .map(|&o| AccessLoc::Field(o, self.field))
                .collect()
        }
    }

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

/// Extracts every heap access from the reachable program, attributed to its
/// action. Accesses to fields declared on `exclude_class` (the synthetic
/// `$Harness`) are skipped. Opaque container ops (`ArrayList.setAt`/`getAt`)
/// contribute accesses on their (possibly index-sensitive) slot fields.
pub fn collect_accesses(
    analysis: &Analysis,
    program: &Program,
    exclude_class: Option<ClassId>,
) -> Vec<Access> {
    let sites = reachable_access_sites(analysis, program);
    collect_accesses_from_sites(analysis, program, exclude_class, |m| {
        sites.get(&m).map(Vec::as_slice)
    })
}

/// Instantiates per-method [`AccessSite`]s against the points-to result:
/// one [`Access`] per reachable `(method, ctx)` per site, with the base
/// local resolved to its abstract objects. This is the linking half of
/// [`collect_accesses`]; the summary layer feeds it cached sites,
/// looked up by method (`None` for a method without a body).
pub fn collect_accesses_from_sites<'s>(
    analysis: &Analysis,
    program: &Program,
    exclude_class: Option<ClassId>,
    sites: impl Fn(MethodId) -> Option<&'s [AccessSite]>,
) -> Vec<Access> {
    let mut out = Vec::new();
    for &(method, ctx) in &analysis.reachable {
        let Some(method_sites) = sites(method) else {
            continue; // bodyless
        };
        if Some(program.method(method).class) == exclude_class {
            continue; // harness body itself
        }
        let action = analysis.action_of(ctx);
        for site in method_sites {
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
        assert_eq!(a.locs().len(), 2);
    }
}
