//! Content digests of the IR: the keys of the per-method summary store.
//!
//! [`ProgramDigest::of`] is one walk over a [`Program`] that feeds the
//! IR's own fields to [`Fnv64`]; it prints no text and builds no
//! `String`. It yields:
//!
//! - the **structural fingerprint**: the class, field and method tables
//!   without bodies. It hashes every name by its text, so it fixes the
//!   id → name mapping of the program;
//! - the **framework fingerprint**: the same, restricted to classes of
//!   [`Origin::Framework`] and the fields and methods they declare;
//! - per method with a body, a [`MethodDigest`]: the **body digest**
//!   over every field of the body, and the **pointer digest** over the
//!   part of it the points-to solver reads.
//!
//! Inside a body, class, field and method references are hashed as ids,
//! which the fingerprint a key is prefixed with already maps to names;
//! string constants are hashed by their text. No digest depends on raw
//! symbol values, so keys are the same whichever interner or
//! [`crate::SymbolArena`] built the program, and in whatever order it
//! interned its names.
//!
//! Every `Stmt`, `Terminator`, `Operand` and `ConstValue` is matched
//! exhaustively, with no catch-all arm: a new IR variant does not compile
//! until the walk hashes it.

use crate::class::Origin;
use crate::ids::{ClassId, FieldId, MethodId};
use crate::method::{Method, Terminator};
use crate::program::Program;
use crate::stmt::{BinOp, ConstValue, Operand, Stmt};
use crate::ty::Type;

/// 64-bit FNV-1a, the repo-wide content hash: interner and arena
/// lookups, summary keys and artifact checksums.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Absorbs a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// Absorbs a `u32` (little-endian bytes).
    pub fn write_u32(&mut self, v: u32) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// Absorbs a string, length first, so adjacent strings cannot run
    /// into each other.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64).write(s.as_bytes())
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a over a byte string.
pub fn fnv64(bytes: &[u8]) -> u64 {
    Fnv64::new().write(bytes).finish()
}

/// The two digests of one method body, from one walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodDigest {
    /// Every field of the body and of the method's own record: equal
    /// digests (under one fingerprint) mean equal bodies.
    pub body: u64,
    /// The part of the body the points-to solver reads: every statement
    /// but a constant `StaticStore`, each with its position, plus the
    /// block successors and returned operands. Equal pointer digests
    /// guarantee the solver builds the same constraints for the method.
    pub pointer: u64,
}

/// The digests of a whole program (see the module docs).
#[derive(Debug, Clone)]
pub struct ProgramDigest {
    /// Fingerprint of the class, field and method tables.
    pub structural: u64,
    /// [`Self::structural`] restricted to framework entities. Apps built
    /// from one framework model share it, since the framework installs
    /// first and its ids are the same in every app.
    pub framework: u64,
    /// One entry per method with a body, in id order.
    pub methods: Vec<MethodEntry>,
}

/// One method's entry in a [`ProgramDigest`].
#[derive(Debug, Clone, Copy)]
pub struct MethodEntry {
    /// The method.
    pub id: MethodId,
    /// Its body and pointer digests.
    pub digest: MethodDigest,
    /// Whether the method and every class, field and method its body
    /// names are framework entities, so [`ProgramDigest::framework`]
    /// fixes what its body digest means.
    pub framework_only: bool,
}

impl ProgramDigest {
    /// Walks `program` once.
    pub fn of(program: &Program) -> Self {
        let framework_class = |c: ClassId| program.class(c).origin == Origin::Framework;
        let (mut all, mut fw) = (Fnv64::new(), Fnv64::new());
        let mut absorb = |entity: &Fnv64, framework: bool| {
            all.write_u64(entity.finish());
            if framework {
                fw.write_u64(entity.finish());
            }
        };
        for c in program.classes() {
            let mut h = Fnv64::new();
            h.write(b"c")
                .write_u32(c.id.0)
                .write_str(program.name(c.name));
            option(&mut h, c.super_class.map(|s| s.0));
            h.write_u64(c.interfaces.len() as u64);
            for i in &c.interfaces {
                h.write_u32(i.0);
            }
            h.write(&[u8::from(c.is_interface), c.origin as u8]);
            absorb(&h, c.origin == Origin::Framework);
        }
        for f in program.fields() {
            let mut h = Fnv64::new();
            h.write(b"f").write_u32(f.id.0).write_u32(f.class.0);
            h.write_str(program.name(f.name));
            ty(&mut h, f.ty);
            h.write(&[u8::from(f.is_static)]);
            absorb(&h, framework_class(f.class));
        }
        let mut methods = Vec::new();
        for m in program.methods() {
            let mut h = Fnv64::new();
            h.write(b"m").write_u32(m.id.0).write_u32(m.class.0);
            h.write_str(program.name(m.name)).write_u32(m.param_count);
            ret(&mut h, m.ret);
            h.write(&[u8::from(m.is_static), u8::from(m.is_abstract)]);
            absorb(&h, framework_class(m.class));
            if m.has_body() {
                methods.push(MethodEntry {
                    id: m.id,
                    digest: MethodDigest::of(program, m),
                    framework_only: framework_class(m.class) && names_only_framework(program, m),
                });
            }
        }
        ProgramDigest {
            structural: all.finish(),
            framework: fw.finish(),
            methods,
        }
    }
}

impl MethodDigest {
    /// Digests one method body.
    fn of(program: &Program, m: &Method) -> Self {
        let mut body = Fnv64::new();
        body.write_u32(m.id.0).write_u32(m.param_count);
        body.write_u32(m.local_count);
        ret(&mut body, m.ret);
        body.write(&[u8::from(m.is_static), u8::from(m.is_abstract)]);
        body.write_u64(m.blocks.len() as u64);
        let mut pointer = Fnv64::new();
        for (bid, block) in m.iter_blocks() {
            body.write(b"B").write_u32(bid.0);
            body.write_u64(block.stmts.len() as u64);
            for (i, s) in block.stmts.iter().enumerate() {
                let h = stmt(program, s);
                body.write_u64(h);
                // A constant static store creates no node and no edge in
                // the solver (a constant operand has no node), so it is
                // the one statement the pointer digest leaves out.
                let solver_noop = matches!(
                    s,
                    Stmt::StaticStore {
                        value: Operand::Const(_),
                        ..
                    }
                );
                if !solver_noop {
                    pointer.write_u32(bid.0).write_u32(i as u32).write_u64(h);
                }
            }
            // The solver reads successors (constant resolution follows
            // unique predecessors) and returned operands, never a branch
            // condition.
            let (solver, cond) = terminator(program, &block.terminator);
            body.write_u64(solver);
            if let Some(cond) = cond {
                operand(program, &mut body, cond);
            }
            pointer.write(b"T").write_u32(bid.0).write_u64(solver);
        }
        MethodDigest {
            body: body.finish(),
            pointer: pointer.finish(),
        }
    }
}

/// Hash of one statement, every field included.
fn stmt(program: &Program, s: &Stmt) -> u64 {
    let mut h = Fnv64::new();
    match s {
        Stmt::Const { dst, value } => {
            h.write(b"const").write_u32(dst.0);
            constant(program, &mut h, *value);
        }
        Stmt::Move { dst, src } => {
            h.write(b"move").write_u32(dst.0).write_u32(src.0);
        }
        Stmt::UnOp { dst, op, src } => {
            h.write(b"unop").write_u32(dst.0).write(&[*op as u8]);
            operand(program, &mut h, *src);
        }
        Stmt::BinOp { dst, op, lhs, rhs } => {
            h.write(b"binop").write_u32(dst.0);
            match op {
                BinOp::Add => h.write(b"+"),
                BinOp::Sub => h.write(b"-"),
                BinOp::Mul => h.write(b"*"),
                BinOp::Cmp(c) => h.write(&[b'c', *c as u8]),
                BinOp::And => h.write(b"&"),
                BinOp::Or => h.write(b"|"),
            };
            operand(program, &mut h, *lhs);
            operand(program, &mut h, *rhs);
        }
        Stmt::New { dst, class, site } => {
            h.write(b"new").write_u32(dst.0).write_u32(class.0);
            h.write_u32(site.0);
        }
        Stmt::Load { dst, obj, field } => {
            h.write(b"load").write_u32(dst.0).write_u32(obj.0);
            h.write_u32(field.0);
        }
        Stmt::Store { obj, field, value } => {
            h.write(b"store").write_u32(obj.0).write_u32(field.0);
            operand(program, &mut h, *value);
        }
        Stmt::StaticLoad { dst, field } => {
            h.write(b"sload").write_u32(dst.0).write_u32(field.0);
        }
        Stmt::StaticStore { field, value } => {
            h.write(b"sstore").write_u32(field.0);
            operand(program, &mut h, *value);
        }
        Stmt::Call {
            site,
            dst,
            kind,
            callee,
            receiver,
            args,
        } => {
            h.write(b"call").write_u32(site.0);
            option(&mut h, dst.map(|l| l.0));
            h.write(&[*kind as u8]).write_u32(callee.0);
            option(&mut h, receiver.map(|l| l.0));
            h.write_u64(args.len() as u64);
            for a in args {
                operand(program, &mut h, *a);
            }
        }
    }
    h.finish()
}

/// Hash of the terminator fields the solver reads (successors and the
/// returned operand), and the one it does not: an `if` condition.
fn terminator(program: &Program, t: &Terminator) -> (u64, Option<Operand>) {
    let mut h = Fnv64::new();
    match t {
        Terminator::Goto(b) => {
            h.write(b"goto").write_u32(b.0);
        }
        Terminator::If {
            cond,
            then_bb,
            else_bb,
        } => {
            h.write(b"if").write_u32(then_bb.0).write_u32(else_bb.0);
            return (h.finish(), Some(*cond));
        }
        Terminator::NonDet(targets) => {
            h.write(b"nondet").write_u64(targets.len() as u64);
            for b in targets {
                h.write_u32(b.0);
            }
        }
        Terminator::Return(value) => {
            h.write(b"ret");
            if let Some(v) = value {
                operand(program, &mut h, *v);
            }
        }
    }
    (h.finish(), None)
}

fn operand(program: &Program, h: &mut Fnv64, op: Operand) {
    match op {
        Operand::Local(l) => {
            h.write(b"l").write_u32(l.0);
        }
        Operand::Const(c) => constant(program, h, c),
    }
}

fn constant(program: &Program, h: &mut Fnv64, c: ConstValue) {
    match c {
        ConstValue::Int(v) => h.write(b"i").write_u64(v as u64),
        ConstValue::Bool(v) => h.write(&[b'b', u8::from(v)]),
        ConstValue::Null => h.write(b"n"),
        ConstValue::Str(s) => h.write(b"s").write_str(program.name(s)),
    };
}

fn ty(h: &mut Fnv64, t: Type) {
    match t {
        Type::Int => h.write(b"I"),
        Type::Bool => h.write(b"Z"),
        Type::Str => h.write(b"S"),
        Type::Ref(c) => h.write(b"L").write_u32(c.0),
    };
}

fn ret(h: &mut Fnv64, t: Option<Type>) {
    match t {
        Some(t) => ty(h.write(b"r"), t),
        None => {
            h.write(b"v");
        }
    }
}

fn option(h: &mut Fnv64, v: Option<u32>) {
    match v {
        Some(v) => h.write(b"+").write_u32(v),
        None => h.write(b"-"),
    };
}

/// Whether every class, field and method `m`'s body names is a
/// framework entity.
fn names_only_framework(program: &Program, m: &Method) -> bool {
    let framework = |c: ClassId| program.class(c).origin == Origin::Framework;
    let field = |f: FieldId| framework(program.field(f).class);
    m.iter_stmts().all(|(_, s)| match s {
        Stmt::New { class, .. } => framework(*class),
        Stmt::Load { field: f, .. }
        | Stmt::Store { field: f, .. }
        | Stmt::StaticLoad { field: f, .. }
        | Stmt::StaticStore { field: f, .. } => field(*f),
        Stmt::Call { callee, .. } => framework(program.method(*callee).class),
        Stmt::Const { .. } | Stmt::Move { .. } | Stmt::UnOp { .. } | Stmt::BinOp { .. } => true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::ids::Local;
    use crate::interner::Symbol;
    use crate::stmt::{InvokeKind, UnOp};
    use crate::SymbolArena;
    use std::sync::Arc;

    /// A program whose method `A.m` uses every statement kind (the
    /// static store twice: of a local and of a constant) in block 0, and
    /// every terminator: `if` in bb0, `goto` in bb1, `nondet` in bb2 and
    /// `return` in bb3. Returns the method and a second string symbol.
    fn sample(mut pb: ProgramBuilder) -> (Program, MethodId, Symbol) {
        let mut cb = pb.class("A", Origin::App);
        let f = cb.field("x", Type::Int);
        let g = cb.static_field("g", Type::Int);
        let a = cb.build();
        let callee = pb.abstract_method(a, "cb", 2);
        let target = pb.intern("com.example.Target");
        let other = pb.intern("com.example.Other");
        let mut mb = pb.method(a, "m");
        mb.set_param_count(2);
        let (this, p) = (mb.param(0), mb.param(1));
        let (v, w, u) = (mb.fresh_local(), mb.fresh_local(), mb.fresh_local());
        mb.const_(v, ConstValue::Str(target));
        mb.move_(w, v);
        mb.un_op(u, UnOp::Neg, p);
        mb.bin_op(u, BinOp::Add, p, ConstValue::Int(1));
        mb.new_(w, a);
        mb.load(u, this, f);
        mb.store(this, f, u);
        mb.static_load(u, g);
        mb.static_store(g, u);
        mb.static_store(g, ConstValue::Int(7));
        mb.call(
            Some(u),
            InvokeKind::Virtual,
            callee,
            Some(this),
            vec![p.into()],
        );
        let (b1, b2, b3) = (mb.new_block(), mb.new_block(), mb.new_block());
        mb.if_(p, b1, b2);
        mb.switch_to(b1).goto(b3);
        mb.switch_to(b2).nondet(vec![b3, b1]);
        mb.switch_to(b3).ret(Some(u.into()));
        let m = mb.finish();
        (pb.finish(), m, other)
    }

    fn stmt_at(m: &mut Method, i: usize) -> &mut Stmt {
        &mut m.blocks[0].stmts[i]
    }

    fn term_at(m: &mut Method, b: usize) -> &mut Terminator {
        &mut m.blocks[b].terminator
    }

    fn bump(l: &mut Local) {
        l.0 += 1;
    }

    fn bump_op(op: &mut Operand) {
        *op = match *op {
            Operand::Local(l) => Operand::Local(Local(l.0 + 1)),
            Operand::Const(_) => Operand::Const(ConstValue::Int(99)),
        };
    }

    /// One edit of the sample method: what it changes, whether the
    /// solver reads that field, and the edit (given the second symbol).
    type Edit = (&'static str, bool, fn(&mut Method, Symbol));

    const EDITS: &[Edit] = &[
        ("method.local_count", false, |m, _| m.local_count += 1),
        ("Const.dst", true, |m, _| match stmt_at(m, 0) {
            Stmt::Const { dst, .. } => bump(dst),
            s => panic!("{s:?}"),
        }),
        ("Const.value text", true, |m, other| match stmt_at(m, 0) {
            Stmt::Const { value, .. } => *value = ConstValue::Str(other),
            s => panic!("{s:?}"),
        }),
        ("Move.dst", true, |m, _| match stmt_at(m, 1) {
            Stmt::Move { dst, .. } => bump(dst),
            s => panic!("{s:?}"),
        }),
        ("Move.src", true, |m, _| match stmt_at(m, 1) {
            Stmt::Move { src, .. } => bump(src),
            s => panic!("{s:?}"),
        }),
        ("UnOp.dst", true, |m, _| match stmt_at(m, 2) {
            Stmt::UnOp { dst, .. } => bump(dst),
            s => panic!("{s:?}"),
        }),
        ("UnOp.op", true, |m, _| match stmt_at(m, 2) {
            Stmt::UnOp { op, .. } => *op = UnOp::Not,
            s => panic!("{s:?}"),
        }),
        ("UnOp.src", true, |m, _| match stmt_at(m, 2) {
            Stmt::UnOp { src, .. } => bump_op(src),
            s => panic!("{s:?}"),
        }),
        ("BinOp.dst", true, |m, _| match stmt_at(m, 3) {
            Stmt::BinOp { dst, .. } => bump(dst),
            s => panic!("{s:?}"),
        }),
        ("BinOp.op", true, |m, _| match stmt_at(m, 3) {
            Stmt::BinOp { op, .. } => *op = BinOp::Sub,
            s => panic!("{s:?}"),
        }),
        ("BinOp.lhs", true, |m, _| match stmt_at(m, 3) {
            Stmt::BinOp { lhs, .. } => bump_op(lhs),
            s => panic!("{s:?}"),
        }),
        ("BinOp.rhs", true, |m, _| match stmt_at(m, 3) {
            Stmt::BinOp { rhs, .. } => bump_op(rhs),
            s => panic!("{s:?}"),
        }),
        ("New.dst", true, |m, _| match stmt_at(m, 4) {
            Stmt::New { dst, .. } => bump(dst),
            s => panic!("{s:?}"),
        }),
        ("New.class", true, |m, _| match stmt_at(m, 4) {
            Stmt::New { class, .. } => class.0 += 1,
            s => panic!("{s:?}"),
        }),
        ("New.site", true, |m, _| match stmt_at(m, 4) {
            Stmt::New { site, .. } => site.0 += 1,
            s => panic!("{s:?}"),
        }),
        ("Load.dst", true, |m, _| match stmt_at(m, 5) {
            Stmt::Load { dst, .. } => bump(dst),
            s => panic!("{s:?}"),
        }),
        ("Load.obj", true, |m, _| match stmt_at(m, 5) {
            Stmt::Load { obj, .. } => bump(obj),
            s => panic!("{s:?}"),
        }),
        ("Load.field", true, |m, _| match stmt_at(m, 5) {
            Stmt::Load { field, .. } => field.0 += 1,
            s => panic!("{s:?}"),
        }),
        ("Store.obj", true, |m, _| match stmt_at(m, 6) {
            Stmt::Store { obj, .. } => bump(obj),
            s => panic!("{s:?}"),
        }),
        ("Store.field", true, |m, _| match stmt_at(m, 6) {
            Stmt::Store { field, .. } => field.0 += 1,
            s => panic!("{s:?}"),
        }),
        ("Store.value", true, |m, _| match stmt_at(m, 6) {
            Stmt::Store { value, .. } => bump_op(value),
            s => panic!("{s:?}"),
        }),
        ("StaticLoad.dst", true, |m, _| match stmt_at(m, 7) {
            Stmt::StaticLoad { dst, .. } => bump(dst),
            s => panic!("{s:?}"),
        }),
        ("StaticLoad.field", true, |m, _| match stmt_at(m, 7) {
            Stmt::StaticLoad { field, .. } => field.0 += 1,
            s => panic!("{s:?}"),
        }),
        ("StaticStore.field", true, |m, _| match stmt_at(m, 8) {
            Stmt::StaticStore { field, .. } => field.0 += 1,
            s => panic!("{s:?}"),
        }),
        ("StaticStore.value", true, |m, _| match stmt_at(m, 8) {
            Stmt::StaticStore { value, .. } => bump_op(value),
            s => panic!("{s:?}"),
        }),
        (
            "StaticStore of a constant: value",
            false,
            |m, _| match stmt_at(m, 9) {
                Stmt::StaticStore { value, .. } => bump_op(value),
                s => panic!("{s:?}"),
            },
        ),
        ("Call.site", true, |m, _| match stmt_at(m, 10) {
            Stmt::Call { site, .. } => site.0 += 1,
            s => panic!("{s:?}"),
        }),
        ("Call.dst", true, |m, _| match stmt_at(m, 10) {
            Stmt::Call { dst, .. } => *dst = None,
            s => panic!("{s:?}"),
        }),
        ("Call.kind", true, |m, _| match stmt_at(m, 10) {
            Stmt::Call { kind, .. } => *kind = InvokeKind::Special,
            s => panic!("{s:?}"),
        }),
        ("Call.callee", true, |m, _| match stmt_at(m, 10) {
            Stmt::Call { callee, .. } => callee.0 += 1,
            s => panic!("{s:?}"),
        }),
        ("Call.receiver", true, |m, _| match stmt_at(m, 10) {
            Stmt::Call { receiver, .. } => *receiver = None,
            s => panic!("{s:?}"),
        }),
        ("Call.args", true, |m, _| match stmt_at(m, 10) {
            Stmt::Call { args, .. } => bump_op(&mut args[0]),
            s => panic!("{s:?}"),
        }),
        ("If.cond", false, |m, _| match term_at(m, 0) {
            Terminator::If { cond, .. } => bump_op(cond),
            t => panic!("{t:?}"),
        }),
        ("If.then_bb", true, |m, _| match term_at(m, 0) {
            Terminator::If { then_bb, .. } => then_bb.0 = 3,
            t => panic!("{t:?}"),
        }),
        ("If.else_bb", true, |m, _| match term_at(m, 0) {
            Terminator::If { else_bb, .. } => else_bb.0 = 3,
            t => panic!("{t:?}"),
        }),
        ("Goto", true, |m, _| match term_at(m, 1) {
            Terminator::Goto(b) => b.0 = 2,
            t => panic!("{t:?}"),
        }),
        ("NonDet", true, |m, _| match term_at(m, 2) {
            Terminator::NonDet(targets) => {
                targets.pop();
            }
            t => panic!("{t:?}"),
        }),
        ("Return", true, |m, _| match term_at(m, 3) {
            Terminator::Return(value) => *value = None,
            t => panic!("{t:?}"),
        }),
    ];

    #[test]
    fn every_field_reaches_the_body_digest_and_solver_fields_the_pointer_digest() {
        let (program, m, other) = sample(ProgramBuilder::new());
        let base = MethodDigest::of(&program, program.method(m));
        for (label, solver_reads, edit) in EDITS {
            let mut edited = program.clone();
            edit(&mut edited.methods[m.index()], other);
            let d = MethodDigest::of(&edited, edited.method(m));
            assert_ne!(d.body, base.body, "{label} must change the body digest");
            if *solver_reads {
                assert_ne!(
                    d.pointer, base.pointer,
                    "{label} must change the pointer digest"
                );
            } else {
                assert_eq!(d.pointer, base.pointer, "{label} is not read by the solver");
            }
        }
    }

    /// Any builder may give a framework class a method whose body names
    /// an app entity; the framework fingerprint cannot key that body.
    #[test]
    fn framework_bodies_naming_app_entities_are_not_framework_only() {
        let mut pb = ProgramBuilder::new();
        let fw = pb.class("android.Fw", Origin::Framework).build();
        let app = pb.class("com.App", Origin::App).build();
        for (name, class) in [("own", fw), ("app", app)] {
            let mut mb = pb.method(fw, name);
            let v = mb.fresh_local();
            mb.new_(v, class);
            mb.ret(None);
            mb.finish();
        }
        let digest = ProgramDigest::of(&pb.finish());
        let only: Vec<bool> = digest.methods.iter().map(|m| m.framework_only).collect();
        assert_eq!(only, [true, false]);
    }

    #[test]
    fn digests_do_not_depend_on_symbol_values() {
        let arena = Arc::new(SymbolArena::new());
        arena.intern("an.unrelated.Name");
        let (private, m, _) = sample(ProgramBuilder::new());
        let (shared, _, _) = sample(ProgramBuilder::with_arena(arena));
        let body = |p: &Program| match p.method(m).blocks[0].stmts[0] {
            Stmt::Const {
                value: ConstValue::Str(s),
                ..
            } => s,
            ref s => panic!("{s:?}"),
        };
        assert_ne!(body(&private), body(&shared), "symbols differ");
        let (a, b) = (ProgramDigest::of(&private), ProgramDigest::of(&shared));
        assert_eq!((a.structural, a.framework), (b.structural, b.framework));
        let digests = |d: &ProgramDigest| d.methods.iter().map(|e| e.digest).collect::<Vec<_>>();
        assert_eq!(digests(&a), digests(&b));
    }

    #[test]
    fn fnv_is_deterministic_and_input_sensitive() {
        assert_eq!(fnv64(b"abc"), fnv64(b"abc"));
        assert_ne!(fnv64(b"abc"), fnv64(b"abd"));
        assert_ne!(
            Fnv64::new().write_u64(1).finish(),
            Fnv64::new().write_u64(2).finish()
        );
        assert_ne!(
            Fnv64::new().write_str("ab").write_str("c").finish(),
            Fnv64::new().write_str("a").write_str("bc").finish()
        );
    }
}
