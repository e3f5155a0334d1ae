//! Branch-edge identification: the outgoing edges of `If` terminators,
//! with the condition each one assumes (the prefilter's guard analysis
//! reads them).

use crate::ids::BlockId;
use crate::method::{Method, Terminator};
use crate::stmt::Operand;

/// One outgoing edge of a conditional branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchEdge {
    /// Block ending in the `If` terminator.
    pub from: BlockId,
    /// The successor this edge leads to.
    pub to: BlockId,
    /// The branch condition operand.
    pub cond: Operand,
    /// `true` for the then-edge, `false` for the else-edge.
    pub taken: bool,
}

impl Method {
    /// Every edge leaving an `If` terminator, in block order (then-edge
    /// before else-edge). Degenerate branches whose arms coincide are
    /// skipped: such an edge is taken under either condition value, so
    /// no condition fact can make it infeasible.
    pub fn branch_edges(&self) -> Vec<BranchEdge> {
        let mut out = Vec::new();
        for (from, block) in self.iter_blocks() {
            if let Terminator::If {
                cond,
                then_bb,
                else_bb,
            } = block.terminator
            {
                if then_bb == else_bb {
                    continue;
                }
                out.push(BranchEdge {
                    from,
                    to: then_bb,
                    cond,
                    taken: true,
                });
                out.push(BranchEdge {
                    from,
                    to: else_bb,
                    cond,
                    taken: false,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::ProgramBuilder;
    use crate::class::Origin;
    use crate::stmt::ConstValue;

    #[test]
    fn branch_edges_enumerate_if_arms_only() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("A", Origin::App).build();
        let mut mb = pb.method(c, "m");
        mb.set_param_count(1);
        let flag = mb.fresh_local();
        mb.const_(flag, ConstValue::Bool(true));
        let t = mb.new_block();
        let e = mb.new_block();
        mb.if_(flag, t, e);
        mb.switch_to(t);
        mb.ret(None);
        mb.switch_to(e);
        mb.ret(None);
        let m = mb.finish();
        let p = pb.finish();
        let edges = p.method(m).branch_edges();
        assert_eq!(edges.len(), 2);
        assert!(edges[0].taken && !edges[1].taken);
        assert_eq!(edges[0].from, edges[1].from);
        assert_ne!(edges[0].to, edges[1].to);
    }

    #[test]
    fn degenerate_branches_are_skipped() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("A", Origin::App).build();
        let mut mb = pb.method(c, "m");
        mb.set_param_count(1);
        let flag = mb.fresh_local();
        mb.const_(flag, ConstValue::Bool(true));
        let j = mb.new_block();
        mb.if_(flag, j, j);
        mb.switch_to(j);
        mb.ret(None);
        let m = mb.finish();
        let p = pb.finish();
        assert!(p.method(m).branch_edges().is_empty());
    }
}
