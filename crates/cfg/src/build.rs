//! Construction of a [`Cfg`] from an MPSL [`Program`].
//!
//! Shapes produced:
//!
//! * `if c { T } else { E }` — a [`NodeKind::Branch`] with a `True` edge
//!   into `T`, a `False` edge into `E`, both converging on a
//!   [`NodeKind::Join`].
//! * `while c { B }` — a `Branch` whose `True` edge enters `B`, whose
//!   `False` edge leaves the loop; the end of `B` has a *backward edge*
//!   to the `Branch` (in the paper's terms: the branch node dominates the
//!   body, so the closing edge is a backward edge, identifying the loop).
//! * `for v in a..b { B }` — desugared to
//!   `v := a; while v < b { B; v := v + 1; }`.
//! * Collectives (`bcast`, `exchange`) are lowered to point-to-point
//!   send/recv first (§3.2's reduction), via
//!   [`Program::lower_collectives`].

use crate::graph::{Cfg, EdgeLabel, NodeId, NodeKind};
use acfc_mpsl::{BinOp, Block, Expr, Program, StmtKind};

/// Builds the control-flow graph of `program`.
///
/// The program is cloned and collectives are lowered before translation,
/// so the caller's program is untouched. Statement ids recorded on the
/// nodes refer to the *lowered* program, which is returned alongside the
/// graph.
///
/// # Examples
///
/// ```
/// use acfc_cfg::build_cfg;
/// let p = acfc_mpsl::parse("program t; var i; for i in 0..3 { checkpoint; }").unwrap();
/// let (cfg, lowered) = build_cfg(&p);
/// assert_eq!(cfg.checkpoint_nodes().len(), 1);
/// assert_eq!(lowered.name, "t");
/// ```
pub fn build_cfg(program: &Program) -> (Cfg, Program) {
    let mut lowered = program.clone();
    if lowered.has_collectives() {
        lowered.lower_collectives();
    }
    let cfg = build_cfg_prelowered(&lowered);
    (cfg, lowered)
}

/// Builds the CFG of a program that has **already** had its collectives
/// lowered, without cloning it. Statement ids on the nodes refer to
/// `program` itself. This is the hot-loop entry point for Phase III,
/// which lowers once and then rebuilds the CFG after every checkpoint
/// relocation.
///
/// # Panics
///
/// Panics if the program still contains collectives.
pub fn build_cfg_prelowered(program: &Program) -> Cfg {
    assert!(
        !program.has_collectives(),
        "build_cfg_prelowered requires a collective-free program"
    );
    let mut cfg = Cfg::new(program.name.clone());
    let entry = cfg.entry();
    let last = build_block(&mut cfg, &program.body, entry, EdgeLabel::Seq);
    cfg.add_edge(last.0, cfg.exit(), last.1);
    debug_assert_eq!(cfg.check_invariants(), Ok(()));
    cfg
}

/// Translates `block`, chaining from `(pred, label)`; returns the dangling
/// tail `(node, label)` that the caller must connect onward.
fn build_block(
    cfg: &mut Cfg,
    block: &Block,
    pred: NodeId,
    label: EdgeLabel,
) -> (NodeId, EdgeLabel) {
    let mut cursor = (pred, label);
    for stmt in block {
        let sid = Some(stmt.id);
        cursor = match &stmt.kind {
            StmtKind::Compute { cost } => {
                let n = cfg.add_node(NodeKind::Compute { cost: cost.clone() }, sid);
                cfg.add_edge(cursor.0, n, cursor.1);
                (n, EdgeLabel::Seq)
            }
            StmtKind::Assign { var, value } => {
                let n = cfg.add_node(
                    NodeKind::Assign {
                        var: var.clone(),
                        value: value.clone(),
                    },
                    sid,
                );
                cfg.add_edge(cursor.0, n, cursor.1);
                (n, EdgeLabel::Seq)
            }
            StmtKind::Send { dest, size_bits } => {
                let n = cfg.add_node(
                    NodeKind::Send {
                        dest: dest.clone(),
                        size_bits: size_bits.clone(),
                    },
                    sid,
                );
                cfg.add_edge(cursor.0, n, cursor.1);
                (n, EdgeLabel::Seq)
            }
            StmtKind::Recv { src } => {
                let n = cfg.add_node(NodeKind::Recv { src: src.clone() }, sid);
                cfg.add_edge(cursor.0, n, cursor.1);
                (n, EdgeLabel::Seq)
            }
            StmtKind::Checkpoint { label: l } => {
                let n = cfg.add_node(NodeKind::Checkpoint { label: l.clone() }, sid);
                cfg.add_edge(cursor.0, n, cursor.1);
                (n, EdgeLabel::Seq)
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let b = cfg.add_node(NodeKind::Branch { cond: cond.clone() }, sid);
                cfg.add_edge(cursor.0, b, cursor.1);
                // The join carries the `if`'s statement id so that
                // analyses can map it back to "right after this
                // statement" in the AST (Phase III moves checkpoints to
                // such positions).
                let join = cfg.add_node(NodeKind::Join, sid);
                let t_end = build_block(cfg, then_branch, b, EdgeLabel::True);
                cfg.add_edge(t_end.0, join, t_end.1);
                let e_end = build_block(cfg, else_branch, b, EdgeLabel::False);
                cfg.add_edge(e_end.0, join, e_end.1);
                (join, EdgeLabel::Seq)
            }
            StmtKind::While { cond, body } => {
                let b = cfg.add_node(NodeKind::Branch { cond: cond.clone() }, sid);
                cfg.add_edge(cursor.0, b, cursor.1);
                let body_end = build_block(cfg, body, b, EdgeLabel::True);
                // The closing edge of the loop: a backward edge, because
                // the branch node dominates everything in the body.
                cfg.add_edge(body_end.0, b, body_end.1);
                (b, EdgeLabel::False)
            }
            StmtKind::For {
                var,
                from,
                to,
                body,
            } => {
                // v := from
                let init = cfg.add_node(
                    NodeKind::Assign {
                        var: var.clone(),
                        value: from.clone(),
                    },
                    sid,
                );
                cfg.add_edge(cursor.0, init, cursor.1);
                // while v < to
                let cond = Expr::bin(BinOp::Lt, Expr::Var(var.clone()), to.clone());
                let b = cfg.add_node(NodeKind::Branch { cond }, sid);
                cfg.add_edge(init, b, EdgeLabel::Seq);
                let body_end = build_block(cfg, body, b, EdgeLabel::True);
                // v := v + 1
                let incr = cfg.add_node(
                    NodeKind::Assign {
                        var: var.clone(),
                        value: Expr::bin(BinOp::Add, Expr::Var(var.clone()), Expr::Int(1)),
                    },
                    sid,
                );
                cfg.add_edge(body_end.0, incr, body_end.1);
                cfg.add_edge(incr, b, EdgeLabel::Seq);
                (b, EdgeLabel::False)
            }
            StmtKind::Bcast { .. } | StmtKind::Exchange { .. } => {
                unreachable!("collectives are lowered before CFG construction")
            }
        };
    }
    cursor
}

#[cfg(test)]
mod tests {
    use super::*;
    use acfc_mpsl::parse;

    fn cfg_of(src: &str) -> Cfg {
        build_cfg(&parse(src).unwrap()).0
    }

    #[test]
    fn straight_line_chains() {
        let cfg = cfg_of("program t; compute 1; checkpoint; compute 2;");
        // entry -> compute -> chkpt -> compute -> exit
        assert_eq!(cfg.len(), 5);
        assert_eq!(cfg.edge_count(), 4);
        let mut cur = cfg.entry();
        let order = ["compute", "chkpt", "compute", "exit"];
        for tag in order {
            let (next, _) = cfg.succs(cur)[0];
            assert_eq!(cfg.node(next).kind.tag(), tag);
            cur = next;
        }
    }

    #[test]
    fn if_produces_branch_and_join() {
        let cfg = cfg_of("program t; if rank == 0 { compute 1; } else { compute 2; }");
        let branches = cfg.branch_nodes();
        assert_eq!(branches.len(), 1);
        let b = branches[0];
        assert_eq!(cfg.succs(b).len(), 2);
        let labels: Vec<EdgeLabel> = cfg.succs(b).iter().map(|&(_, l)| l).collect();
        assert!(labels.contains(&EdgeLabel::True));
        assert!(labels.contains(&EdgeLabel::False));
        let joins = cfg.nodes_where(|k| matches!(k, NodeKind::Join));
        assert_eq!(joins.len(), 1);
        assert_eq!(cfg.preds(joins[0]).len(), 2);
    }

    #[test]
    fn empty_else_goes_straight_to_join() {
        let cfg = cfg_of("program t; if rank == 0 { compute 1; }");
        let b = cfg.branch_nodes()[0];
        let join = cfg.nodes_where(|k| matches!(k, NodeKind::Join))[0];
        assert!(cfg
            .succs(b)
            .iter()
            .any(|&(to, l)| to == join && l == EdgeLabel::False));
    }

    #[test]
    fn while_creates_back_edge_to_branch() {
        let cfg = cfg_of("program t; var i; while i < 3 { i := i + 1; }");
        let b = cfg.branch_nodes()[0];
        // The increment node loops back to the branch.
        let back_preds: Vec<_> = cfg
            .preds(b)
            .iter()
            .filter(|&&(from, _)| matches!(cfg.node(from).kind, NodeKind::Assign { .. }))
            .collect();
        assert_eq!(back_preds.len(), 1);
        // False edge exits toward exit.
        assert!(cfg
            .succs(b)
            .iter()
            .any(|&(to, l)| l == EdgeLabel::False && to == cfg.exit()));
    }

    #[test]
    fn for_desugars_to_init_branch_incr() {
        let cfg = cfg_of("program t; var i; for i in 0..3 { compute 1; }");
        // entry -> assign(init) -> branch -> [true] compute -> assign(incr) -> branch
        //                                   [false] -> exit
        let assigns = cfg.nodes_where(|k| matches!(k, NodeKind::Assign { .. }));
        assert_eq!(assigns.len(), 2);
        let b = cfg.branch_nodes()[0];
        assert_eq!(cfg.preds(b).len(), 2); // init + incr
    }

    #[test]
    fn empty_while_body_self_loops() {
        let p = parse("program t; while 0 { }").unwrap();
        let (cfg, _) = build_cfg(&p);
        let b = cfg.branch_nodes()[0];
        assert!(
            cfg.succs(b).iter().any(|&(to, _)| to == b),
            "self back edge"
        );
    }

    #[test]
    fn collectives_are_lowered() {
        let (cfg, lowered) = build_cfg(&parse("program t; exchange with rank + 1;").unwrap());
        assert_eq!(cfg.send_nodes().len(), 1);
        assert_eq!(cfg.recv_nodes().len(), 1);
        assert!(!lowered.has_collectives());
    }

    #[test]
    fn jacobi_fig1_shape() {
        let (cfg, _) = build_cfg(&acfc_mpsl::programs::jacobi(5));
        assert_eq!(cfg.checkpoint_nodes().len(), 1);
        assert_eq!(cfg.send_nodes().len(), 2);
        assert_eq!(cfg.recv_nodes().len(), 2);
        assert_eq!(cfg.branch_nodes().len(), 1); // the for loop
    }

    #[test]
    fn jacobi_odd_even_fig2_shape() {
        let (cfg, _) = build_cfg(&acfc_mpsl::programs::jacobi_odd_even(5));
        assert_eq!(cfg.checkpoint_nodes().len(), 2);
        assert_eq!(cfg.send_nodes().len(), 4);
        assert_eq!(cfg.recv_nodes().len(), 4);
        assert_eq!(cfg.branch_nodes().len(), 2); // loop + odd/even if
    }

    #[test]
    fn node_stmt_backrefs_resolve() {
        let p = parse("program t; checkpoint \"x\";").unwrap();
        let (cfg, lowered) = build_cfg(&p);
        let c = cfg.checkpoint_nodes()[0];
        let sid = cfg.node(c).stmt.expect("checkpoint has stmt id");
        let stmt = lowered.stmt(sid).expect("stmt resolves");
        assert!(matches!(
            &stmt.kind,
            StmtKind::Checkpoint { label: Some(l) } if l == "x"
        ));
    }
}
