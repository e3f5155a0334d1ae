//! Per-method access sites.
//!
//! [`AccessSite`] is the per-method half of access collection
//! ([`crate::collect_accesses`]): the field-access statements of one body
//! with their base locals, before any context/points-to instantiation.
//! Access sites are pure functions of the body (given the framework
//! table), so they are cacheable per method hash.

use android_model::{FrameworkClasses, FrameworkOp};
use apir::{
    local_defs, ConstValue, FieldId, Local, Method, MethodId, Operand, Program, Stmt, StmtAddr,
};

/// One field-access statement of a method body, before context
/// instantiation: the per-method half of [`crate::collect_accesses`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessSite {
    /// The accessing statement.
    pub addr: StmtAddr,
    /// The accessed field (container ops resolve to their slot field).
    pub field: FieldId,
    /// Base local for instance accesses, `None` for statics.
    pub base: Option<Local>,
    /// `true` for stores.
    pub is_write: bool,
    /// Whether this is a static-field access.
    pub is_static: bool,
}

/// Extracts the field-access sites of one method body, in statement
/// order. Pure in the body given the framework table, so cacheable by
/// body hash.
pub fn method_access_sites(
    program: &Program,
    fw: &FrameworkClasses,
    method: MethodId,
) -> Vec<AccessSite> {
    let m = program.method(method);
    if !m.has_body() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (addr, stmt) in m.iter_stmts() {
        let (is_write, field, base, is_static) = match stmt {
            Stmt::Load { obj, field, .. } => (false, *field, Some(*obj), false),
            Stmt::Store { obj, field, .. } => (true, *field, Some(*obj), false),
            Stmt::StaticLoad { field, .. } => (false, *field, None, true),
            Stmt::StaticStore { field, .. } => (true, *field, None, true),
            Stmt::Call {
                callee,
                receiver,
                args,
                ..
            } => {
                // Container ops are heap accesses in disguise.
                let (w, idx_op) = match FrameworkOp::classify(fw, *callee) {
                    Some(FrameworkOp::ArrayListSetAt) => (true, args.first().copied()),
                    Some(FrameworkOp::ArrayListGetAt) => (false, args.first().copied()),
                    _ => continue,
                };
                let Some(base) = receiver else { continue };
                let field = resolve_index_field(fw, m, addr, idx_op);
                (w, field, Some(*base), false)
            }
            _ => continue,
        };
        out.push(AccessSite {
            addr,
            field,
            base,
            is_write,
            is_static,
        });
    }
    out
}

/// The slot field an indexed container access touches: `idx0..idx7` for
/// small constant indices (the §6.5 index-sensitive container model),
/// otherwise the summarized `contents` field. The solver and access-site
/// extraction both resolve through here.
pub(crate) fn resolve_index_field(
    fw: &FrameworkClasses,
    method: &Method,
    addr: StmtAddr,
    idx: Option<Operand>,
) -> FieldId {
    match idx.and_then(|op| local_defs::resolve_const_operand(method, addr, op)) {
        Some(ConstValue::Int(k)) if (0..8).contains(&k) => fw.index_slots[k as usize],
        _ => fw.array_list_contents,
    }
}
