//! Backward edges and natural loops.
//!
//! §2: *an edge `⟨a, b⟩` is a backward edge if `b` dominates `a`; the
//! loop of a backward edge consists of all nodes on paths from `b` to
//! `a`, including both*. The Phase III loop optimization needs to know
//! which checkpoint nodes live inside loops and which Ĝ-paths cross
//! backward edges.

use crate::dfs::dfs;
use crate::dominators::{dominators_with, Dominators};
use crate::graph::{Cfg, EdgeLabel, NodeId};

/// A natural loop: its header and member set.
#[derive(Debug, Clone)]
pub struct NaturalLoop {
    /// The loop header (target of the backward edge; dominates all
    /// members).
    pub header: NodeId,
    /// The backward edge that defines the loop (`latch → header`).
    pub back_edge: (NodeId, NodeId),
    /// Membership bitmap over node indices.
    pub members: Vec<bool>,
}

impl NaturalLoop {
    /// `true` iff `n` belongs to the loop.
    pub fn contains(&self, n: NodeId) -> bool {
        self.members[n.index()]
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.members.iter().filter(|&&b| b).count()
    }

    /// `true` if the loop has no members (cannot happen for well-formed
    /// loops; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Loop structure of a CFG: backward edges, natural loops, and per-node
/// loop depth.
#[derive(Debug, Clone)]
pub struct LoopInfo {
    /// All backward edges `(a, b)` (i.e. `b` dominates `a`), in
    /// ascending order of the source `a`.
    pub back_edges: Vec<(NodeId, NodeId, EdgeLabel)>,
    /// Natural loops, one per backward edge (loops sharing a header are
    /// kept separate, as in the paper's definition).
    pub loops: Vec<NaturalLoop>,
    /// `depth[n]` = number of natural loops containing `n`.
    pub depth: Vec<u32>,
}

impl LoopInfo {
    /// `true` iff `n` is inside at least one loop.
    pub fn in_loop(&self, n: NodeId) -> bool {
        self.depth[n.index()] > 0
    }
}

/// Computes backward edges and natural loops.
pub fn loop_info(cfg: &Cfg) -> LoopInfo {
    let orders = dfs(cfg);
    let dom = dominators_with(cfg, &orders);
    loop_info_with(cfg, &dom)
}

/// Same as [`loop_info`], reusing a dominator tree.
pub fn loop_info_with(cfg: &Cfg, dom: &Dominators) -> LoopInfo {
    let n = cfg.len();
    let mut back_edges = Vec::new();
    for a in cfg.node_ids() {
        for &(b, label) in cfg.succs(a) {
            if dom.dominates(b, a) {
                back_edges.push((a, b, label));
            }
        }
    }
    let mut loops = Vec::new();
    let mut depth = vec![0u32; n];
    for &(latch, header, _) in &back_edges {
        // Natural loop: header + all nodes that reach latch without
        // passing through header (reverse flood fill from latch).
        let mut members = vec![false; n];
        members[header.index()] = true;
        let mut stack = Vec::new();
        if !members[latch.index()] {
            members[latch.index()] = true;
            stack.push(latch);
        }
        while let Some(x) = stack.pop() {
            for &(p, _) in cfg.preds(x) {
                if !members[p.index()] {
                    members[p.index()] = true;
                    stack.push(p);
                }
            }
        }
        for (i, &m) in members.iter().enumerate() {
            if m {
                depth[i] += 1;
            }
        }
        loops.push(NaturalLoop {
            header,
            back_edge: (latch, header),
            members,
        });
    }
    LoopInfo {
        back_edges,
        loops,
        depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_cfg;
    use acfc_mpsl::parse;

    #[test]
    fn straight_line_has_no_loops() {
        let (cfg, _) = build_cfg(&parse("program t; compute 1; checkpoint;").unwrap());
        let li = loop_info(&cfg);
        assert!(li.back_edges.is_empty());
        assert!(li.loops.is_empty());
        for id in cfg.node_ids() {
            assert!(!li.in_loop(id));
        }
    }

    #[test]
    fn while_loop_detected() {
        let (cfg, _) =
            build_cfg(&parse("program t; var i; while i < 3 { checkpoint; i := i + 1; }").unwrap());
        let li = loop_info(&cfg);
        assert_eq!(li.back_edges.len(), 1);
        assert_eq!(li.loops.len(), 1);
        let header = cfg.branch_nodes()[0];
        assert_eq!(li.loops[0].header, header);
        let chk = cfg.checkpoint_nodes()[0];
        assert!(li.in_loop(chk));
        assert!(li.in_loop(header));
        assert!(!li.in_loop(cfg.entry()));
        assert!(!li.in_loop(cfg.exit()));
    }

    #[test]
    fn nested_loops_have_depth_two() {
        let (cfg, _) = build_cfg(
            &parse(
                "program t; var i, j;
                 while i < 3 {
                   j := 0;
                   while j < 2 { checkpoint; j := j + 1; }
                   i := i + 1;
                 }",
            )
            .unwrap(),
        );
        let li = loop_info(&cfg);
        assert_eq!(li.loops.len(), 2);
        let chk = cfg.checkpoint_nodes()[0];
        let mut containing: Vec<&NaturalLoop> =
            li.loops.iter().filter(|l| l.contains(chk)).collect();
        containing.sort_by_key(|l| l.len());
        assert_eq!(containing.len(), 2);
        assert!(containing[0].len() < containing[1].len());
    }

    #[test]
    fn for_loop_counts_as_loop() {
        let (cfg, _) =
            build_cfg(&parse("program t; var i; for i in 0..3 { checkpoint; }").unwrap());
        let li = loop_info(&cfg);
        assert_eq!(li.loops.len(), 1);
        assert!(li.in_loop(cfg.checkpoint_nodes()[0]));
    }

    #[test]
    fn checkpoint_outside_loop_not_in_loop() {
        let (cfg, _) = build_cfg(&acfc_mpsl::programs::fig6(3));
        let li = loop_info(&cfg);
        let chks = cfg.checkpoint_nodes();
        assert_eq!(chks.len(), 2);
        // Fig. 6: checkpoint A is inside the loop, checkpoint B outside.
        let in_loop: Vec<bool> = chks.iter().map(|&c| li.in_loop(c)).collect();
        assert_eq!(in_loop.iter().filter(|&&b| b).count(), 1);
    }
}
