//! The whole-program container and class-hierarchy queries.

use crate::class::{Class, Field, Origin};
use crate::ids::{AllocSiteId, CallSiteId, ClassId, FieldId, MethodId, StmtAddr};
use crate::interner::{Interner, Symbol};
use crate::method::Method;
use crate::stmt::Stmt;
use std::collections::HashMap;

/// A complete program: classes, methods, fields, and site tables.
///
/// Built with [`crate::ProgramBuilder`]; immutable afterwards (analyses
/// never mutate the program).
#[derive(Debug, Clone)]
pub struct Program {
    pub(crate) interner: Interner,
    pub(crate) classes: Vec<Class>,
    pub(crate) methods: Vec<Method>,
    pub(crate) fields: Vec<Field>,
    /// Statement address of every allocation site.
    pub(crate) alloc_sites: Vec<StmtAddr>,
    /// Statement address of every call site.
    pub(crate) call_sites: Vec<StmtAddr>,
    pub(crate) class_by_name: HashMap<Symbol, ClassId>,
}

impl Program {
    /// All classes.
    pub fn classes(&self) -> &[Class] {
        &self.classes
    }

    /// All methods.
    pub fn methods(&self) -> &[Method] {
        &self.methods
    }

    /// All fields.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// The class with the given id.
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.index()]
    }

    /// The method with the given id.
    pub fn method(&self, id: MethodId) -> &Method {
        &self.methods[id.index()]
    }

    /// The field with the given id.
    pub fn field(&self, id: FieldId) -> &Field {
        &self.fields[id.index()]
    }

    /// Resolves an interned symbol to text.
    pub fn name(&self, sym: Symbol) -> &str {
        self.interner.resolve(sym)
    }

    /// The fully-qualified name of a class.
    pub fn class_name(&self, id: ClassId) -> &str {
        self.name(self.class(id).name)
    }

    /// `Class.method`-style display name of a method.
    pub fn method_name(&self, id: MethodId) -> String {
        let m = self.method(id);
        format!("{}.{}", self.class_name(m.class), self.name(m.name))
    }

    /// The simple name of a field.
    pub fn field_name(&self, id: FieldId) -> &str {
        self.name(self.field(id).name)
    }

    /// Finds a class by fully-qualified name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        let sym = self.interner.get(name)?;
        self.class_by_name.get(&sym).copied()
    }

    /// Finds a field declared directly on `class` by simple name.
    pub fn declared_field(&self, class: ClassId, name: &str) -> Option<FieldId> {
        let sym = self.interner.get(name)?;
        self.class(class)
            .fields
            .iter()
            .copied()
            .find(|&f| self.field(f).name == sym)
    }

    /// Whether `sub` equals `sup` or transitively extends/implements it.
    pub fn is_subtype(&self, sub: ClassId, sup: ClassId) -> bool {
        if sub == sup {
            return true;
        }
        let c = self.class(sub);
        if let Some(s) = c.super_class {
            if self.is_subtype(s, sup) {
                return true;
            }
        }
        c.interfaces.iter().any(|&i| self.is_subtype(i, sup))
    }

    /// Virtual dispatch: resolves the implementation of `decl`'s name when
    /// the receiver's dynamic class is `recv_class`, walking up the
    /// superclass chain from `recv_class`.
    ///
    /// Returns `None` if no class in the chain declares a method with that
    /// name (e.g. an abstract method with no override on this path).
    pub fn dispatch(&self, recv_class: ClassId, decl: MethodId) -> Option<MethodId> {
        let name = self.method(decl).name;
        let mut cur = Some(recv_class);
        while let Some(c) = cur {
            let class = self.class(c);
            if let Some(&m) = class
                .methods
                .iter()
                .find(|&&m| self.method(m).name == name && self.method(m).has_body())
            {
                return Some(m);
            }
            cur = class.super_class;
        }
        // Fall back to any declaration (possibly abstract) so callers can
        // at least see the signature.
        let mut cur = Some(recv_class);
        while let Some(c) = cur {
            let class = self.class(c);
            if let Some(&m) = class.methods.iter().find(|&&m| self.method(m).name == name) {
                return Some(m);
            }
            cur = class.super_class;
        }
        None
    }

    /// All concrete (instantiable) classes that are subtypes of `class`.
    pub fn concrete_subtypes(&self, class: ClassId) -> Vec<ClassId> {
        self.classes
            .iter()
            .filter(|c| c.is_instantiable() && self.is_subtype(c.id, class))
            .map(|c| c.id)
            .collect()
    }

    /// The statement address of an allocation site.
    pub fn alloc_site_addr(&self, site: AllocSiteId) -> StmtAddr {
        self.alloc_sites[site.index()]
    }

    /// The statement address of a call site.
    pub fn call_site_addr(&self, site: CallSiteId) -> StmtAddr {
        self.call_sites[site.index()]
    }

    /// The class allocated at `site`.
    pub fn alloc_site_class(&self, site: AllocSiteId) -> ClassId {
        let addr = self.alloc_site_addr(site);
        match self.method(addr.method).stmt_at(addr) {
            Some(Stmt::New { class, .. }) => *class,
            other => panic!("alloc site {site} does not address a New statement: {other:?}"),
        }
    }

    /// The call statement at `site`.
    pub fn call_site_stmt(&self, site: CallSiteId) -> &Stmt {
        let addr = self.call_site_addr(site);
        self.method(addr.method)
            .stmt_at(addr)
            .expect("call site addresses a statement")
    }

    /// The origin of the class declaring `method`.
    pub fn method_origin(&self, method: MethodId) -> Origin {
        self.class(self.method(method).class).origin
    }

    /// Total number of statements across all method bodies (a rough
    /// "bytecode size" measure used by the corpus and the tables).
    pub fn stmt_count(&self) -> usize {
        self.methods
            .iter()
            .map(|m| m.blocks.iter().map(|b| b.stmts.len() + 1).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::ProgramBuilder;
    use crate::class::Origin;
    use crate::ty::Type;

    #[test]
    fn subtype_and_dispatch_follow_the_hierarchy() {
        let mut pb = ProgramBuilder::new();
        let object = pb.class("java.lang.Object", Origin::Framework).build();
        let mut base = pb.class("Base", Origin::App);
        base.set_super(object);
        let base = base.build();
        let mut derived = pb.class("Derived", Origin::App);
        derived.set_super(base);
        let derived = derived.build();

        let mut mb = pb.method(base, "run");
        mb.set_param_count(1);
        mb.ret(None);
        let base_run = mb.finish();

        let mut mb = pb.method(derived, "run");
        mb.set_param_count(1);
        mb.ret(None);
        let derived_run = mb.finish();

        let p = pb.finish();
        assert!(p.is_subtype(derived, base));
        assert!(p.is_subtype(derived, object));
        assert!(!p.is_subtype(base, derived));
        assert_eq!(p.dispatch(derived, base_run), Some(derived_run));
        assert_eq!(p.dispatch(base, base_run), Some(base_run));
        assert_eq!(p.concrete_subtypes(base), vec![base, derived]);
    }

    #[test]
    fn lookups_by_name() {
        let mut pb = ProgramBuilder::new();
        let mut cb = pb.class("A", Origin::App);
        let f = cb.field("x", Type::Int);
        let a = cb.build();
        let mut mb = pb.method(a, "m");
        mb.set_param_count(1);
        mb.ret(None);
        let m = mb.finish();
        let p = pb.finish();
        assert_eq!(p.class_by_name("A"), Some(a));
        assert_eq!(p.declared_field(a, "x"), Some(f));
        assert_eq!(p.method_name(m), "A.m");
        assert_eq!(p.field_name(f), "x");
        assert!(p.class_by_name("Z").is_none());
    }
}
