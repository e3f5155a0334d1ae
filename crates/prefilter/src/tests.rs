//! Unit tests for the three pruning analyses on hand-built methods.

use crate::constprop;
use apir::{
    BinOp, BlockId, CmpOp, ConstValue, Local, Operand, Origin, ProgramBuilder, StmtAddr, Type,
};

#[test]
fn constant_false_branch_is_infeasible_and_then_block_dead() {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("A", Origin::App).build();
    let f = {
        let mut cb = pb.class("B", Origin::App);
        cb.field("x", Type::Int)
    };
    let _ = pb.class("B2", Origin::App);
    let mut mb = pb.method(c, "m");
    mb.set_param_count(1);
    let this = mb.param(0);
    let cond = mb.fresh_local();
    mb.const_(cond, ConstValue::Bool(false));
    let t = mb.new_block();
    let e = mb.new_block();
    mb.if_(cond, t, e);
    mb.switch_to(t);
    let one = mb.fresh_local();
    mb.const_(one, ConstValue::Int(1));
    mb.store(this, f, Operand::Local(one));
    mb.ret(None);
    mb.switch_to(e);
    mb.ret(None);
    let m = mb.finish();
    let p = pb.finish();

    let facts = constprop::analyze_method(p.method(m));
    assert_eq!(facts.dead_blocks, vec![t]);
    assert!(facts.is_dead(t));
    assert!(!facts.is_dead(e));
}

#[test]
fn unknown_branch_prunes_nothing() {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("A", Origin::App).build();
    let mut mb = pb.method(c, "m");
    mb.set_param_count(2);
    let arg = mb.param(1);
    let t = mb.new_block();
    let e = mb.new_block();
    mb.if_(arg, t, e);
    mb.switch_to(t);
    mb.ret(None);
    mb.switch_to(e);
    mb.ret(None);
    let m = mb.finish();
    let p = pb.finish();

    let facts = constprop::analyze_method(p.method(m));
    assert!(facts.dead_blocks.is_empty());
}

#[test]
fn constants_survive_joins_only_when_they_agree() {
    // b0: if (unknown) { x = 1 } else { x = 1 }; join: if (x == 1) {dead?}
    // Both arms assign the same constant, so the join keeps x = 1 and the
    // second branch folds.
    let mut pb = ProgramBuilder::new();
    let c = pb.class("A", Origin::App).build();
    let mut mb = pb.method(c, "m");
    mb.set_param_count(2);
    let arg = mb.param(1);
    let x = mb.fresh_local();
    let t = mb.new_block();
    let e = mb.new_block();
    let join = mb.new_block();
    mb.if_(arg, t, e);
    mb.switch_to(t);
    mb.const_(x, ConstValue::Int(1));
    mb.goto(join);
    mb.switch_to(e);
    mb.const_(x, ConstValue::Int(1));
    mb.goto(join);
    mb.switch_to(join);
    let cmp = mb.fresh_local();
    mb.bin_op(
        cmp,
        BinOp::Cmp(CmpOp::Eq),
        Operand::Local(x),
        Operand::Const(ConstValue::Int(1)),
    );
    let t2 = mb.new_block();
    let e2 = mb.new_block();
    mb.if_(cmp, t2, e2);
    mb.switch_to(t2);
    mb.ret(None);
    mb.switch_to(e2);
    mb.ret(None);
    let m = mb.finish();
    let p = pb.finish();

    let facts = constprop::analyze_method(p.method(m));
    assert_eq!(facts.dead_blocks, vec![e2]);
}

#[test]
fn disagreeing_joins_reach_bottom() {
    // Arms assign different constants; the join must not fold the test.
    let mut pb = ProgramBuilder::new();
    let c = pb.class("A", Origin::App).build();
    let mut mb = pb.method(c, "m");
    mb.set_param_count(2);
    let arg = mb.param(1);
    let x = mb.fresh_local();
    let t = mb.new_block();
    let e = mb.new_block();
    let join = mb.new_block();
    mb.if_(arg, t, e);
    mb.switch_to(t);
    mb.const_(x, ConstValue::Int(1));
    mb.goto(join);
    mb.switch_to(e);
    mb.const_(x, ConstValue::Int(2));
    mb.goto(join);
    mb.switch_to(join);
    let cmp = mb.fresh_local();
    mb.bin_op(
        cmp,
        BinOp::Cmp(CmpOp::Eq),
        Operand::Local(x),
        Operand::Const(ConstValue::Int(1)),
    );
    let t2 = mb.new_block();
    let e2 = mb.new_block();
    mb.if_(cmp, t2, e2);
    mb.switch_to(t2);
    mb.ret(None);
    mb.switch_to(e2);
    mb.ret(None);
    let m = mb.finish();
    let p = pb.finish();

    let facts = constprop::analyze_method(p.method(m));
    assert!(facts.dead_blocks.is_empty());
}

#[test]
fn negated_bool_and_arithmetic_fold() {
    // y = !(false); z = 2 * 3; if (y && z == 6) then else — else is dead.
    let mut pb = ProgramBuilder::new();
    let c = pb.class("A", Origin::App).build();
    let mut mb = pb.method(c, "m");
    mb.set_param_count(1);
    let y = mb.fresh_local();
    mb.un_op(y, apir::UnOp::Not, Operand::Const(ConstValue::Bool(false)));
    let z = mb.fresh_local();
    mb.bin_op(
        z,
        BinOp::Mul,
        Operand::Const(ConstValue::Int(2)),
        Operand::Const(ConstValue::Int(3)),
    );
    let zeq = mb.fresh_local();
    mb.bin_op(
        zeq,
        BinOp::Cmp(CmpOp::Eq),
        Operand::Local(z),
        Operand::Const(ConstValue::Int(6)),
    );
    let both = mb.fresh_local();
    mb.bin_op(both, BinOp::And, Operand::Local(y), Operand::Local(zeq));
    let t = mb.new_block();
    let e = mb.new_block();
    mb.if_(both, t, e);
    mb.switch_to(t);
    mb.ret(None);
    mb.switch_to(e);
    mb.ret(None);
    let m = mb.finish();
    let p = pb.finish();

    let facts = constprop::analyze_method(p.method(m));
    assert_eq!(facts.dead_blocks, vec![e]);
}

#[test]
fn verdict_descriptions_are_stable() {
    use crate::Verdict;
    let mut pb = ProgramBuilder::new();
    let g = {
        let mut cb = pb.class("com.x.A", Origin::App);
        cb.field("ready", Type::Bool)
    };
    let c = pb.class("com.x.B", Origin::App).build();
    let mut mb = pb.method(c, "m");
    mb.set_param_count(1);
    mb.ret(None);
    let m = mb.finish();
    let p = pb.finish();

    let v = Verdict::NonEscaping {
        obj: pointer::ObjId(7),
    };
    assert_eq!(v.describe(&p), "non-escaping object obj7");
    assert_eq!(v.tag(), "escape");
    let v = Verdict::Guarded {
        guard: g,
        writer: android_model::ActionId(3),
    };
    assert!(
        v.describe(&p).contains("com.x.A.ready"),
        "{}",
        v.describe(&p)
    );
    assert_eq!(v.tag(), "guarded");
    let v = Verdict::ConstProp {
        dead: StmtAddr::new(m, BlockId(0), 0),
    };
    assert!(v.describe(&p).contains("bb0"), "{}", v.describe(&p));
    assert_eq!(v.tag(), "constprop");
    let _ = Local(0);
}
