//! # apir — an Android-app intermediate representation
//!
//! `apir` is the program-representation substrate of the SIERRA
//! reproduction. It plays the role that Dalvik bytecode plus WALA's IR play
//! in the original system: a typed, register-based, three-address
//! representation of an Android app, with explicit allocation sites, call
//! sites, field accesses, and per-method control-flow graphs.
//!
//! The crate deliberately knows nothing about Android semantics: classes and
//! methods carry *names* and an [`Origin`] (app / framework / library), and
//! the `android-model` crate recognizes framework API calls by name, exactly
//! as bytecode-level tools do.
//!
//! ## Example
//!
//! ```
//! use apir::{ProgramBuilder, Origin, ConstValue, Operand, Type};
//!
//! let mut pb = ProgramBuilder::new();
//! let object = pb.class("java.lang.Object", Origin::Framework).build();
//! let mut cb = pb.class("com.example.Counter", Origin::App);
//! cb.set_super(object);
//! let field = cb.field("count", Type::Int);
//! let class = cb.build();
//!
//! let mut mb = pb.method(class, "tick");
//! mb.set_param_count(1); // `this`
//! let this = mb.param(0);
//! let one = mb.fresh_local();
//! mb.const_(one, ConstValue::Int(1));
//! mb.store(this, field, Operand::Local(one));
//! mb.ret(None);
//! let _tick = mb.finish();
//!
//! let program = pb.finish();
//! assert!(program.validate().is_ok());
//! ```

mod arena;
mod builder;
mod class;
pub mod dataflow;
mod digest;
mod dom;
mod edges;
mod ids;
mod interner;
pub mod local_defs;
mod method;
mod program;
#[cfg(test)]
mod proptests;
mod stmt;
mod ty;
mod validate;

pub use arena::SymbolArena;
pub use builder::{ClassBuilder, MethodBuilder, ProgramBuilder};
pub use class::{Class, Field, Origin};
pub use digest::{fnv64, Fnv64, MethodDigest, MethodEntry, ProgramDigest};
pub use dom::Dominators;
pub use edges::{BranchEdge, InfeasibleEdges};
pub use ids::{AllocSiteId, BlockId, CallSiteId, ClassId, FieldId, Local, MethodId, StmtAddr};
pub use interner::{Interner, Symbol};
pub use method::{BasicBlock, Cfg, Method, Terminator};
pub use program::Program;
pub use stmt::{BinOp, CmpOp, ConstValue, InvokeKind, Operand, Stmt, UnOp};
pub use ty::Type;
pub use validate::ValidateError;
