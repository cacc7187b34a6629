//! Dominator computation.
//!
//! §2 of the paper: *a node `a` dominates `b` if every path from the entry
//! node to `b` includes `a`*; backward edges and loops are defined through
//! dominance. We implement the Cooper–Harvey–Kennedy iterative algorithm
//! over reverse postorder, plus a naive dataflow fixpoint used as a test
//! oracle.

use crate::dfs::{dfs, DfsOrders};
use crate::graph::{Cfg, NodeId};

/// The dominator tree of a [`Cfg`] (rooted at entry).
#[derive(Debug, Clone)]
pub struct Dominators {
    /// `idom[n]` is the immediate dominator of node `n`; entry maps to
    /// itself; unreachable nodes map to `None`.
    idom: Vec<Option<NodeId>>,
    entry: NodeId,
    /// `span[n]` = `n`'s (entry, exit) times in a depth-first walk of
    /// the dominator tree: `a` dominates `b` iff `a`'s interval encloses
    /// `b`'s. `None` for unreachable nodes.
    span: Vec<Option<(u32, u32)>>,
}

impl Dominators {
    /// Immediate dominator of `n` (`None` for unreachable nodes; the
    /// entry node is its own immediate dominator).
    pub fn idom(&self, n: NodeId) -> Option<NodeId> {
        self.idom[n.index()]
    }

    /// `true` iff `a` dominates `b` (every node dominates itself).
    pub fn dominates(&self, a: NodeId, b: NodeId) -> bool {
        match (self.span[a.index()], self.span[b.index()]) {
            (Some((a_in, a_out)), Some((b_in, b_out))) => a_in <= b_in && b_out <= a_out,
            _ => false,
        }
    }

    /// The dominator chain of `n` from entry down to `n` itself
    /// (inclusive); empty for unreachable nodes.
    ///
    /// Algorithm 3.2 walks this chain when looking for the edge
    /// `⟨a, b⟩` to move a checkpoint onto.
    pub fn chain(&self, n: NodeId) -> Vec<NodeId> {
        if self.idom[n.index()].is_none() {
            return Vec::new();
        }
        let mut chain = vec![n];
        let mut cur = n;
        while cur != self.entry {
            cur = self.idom[cur.index()].expect("reachable node chain");
            chain.push(cur);
        }
        chain.reverse();
        chain
    }
}

/// Computes the dominator tree with the Cooper–Harvey–Kennedy algorithm.
pub fn dominators(cfg: &Cfg) -> Dominators {
    let orders = dfs(cfg);
    dominators_with(cfg, &orders)
}

/// Same as [`dominators`], reusing precomputed DFS orders.
pub fn dominators_with(cfg: &Cfg, orders: &DfsOrders) -> Dominators {
    let n = cfg.len();
    let rpo = orders.reverse_postorder();
    let entry = cfg.entry();
    let mut idom: Vec<Option<NodeId>> = vec![None; n];
    idom[entry.index()] = Some(entry);

    let intersect = |idom: &[Option<NodeId>], orders: &DfsOrders, mut a: NodeId, mut b: NodeId| {
        let num = |x: NodeId| orders.rpo_index[x.index()].expect("reachable");
        while a != b {
            while num(a) > num(b) {
                a = idom[a.index()].expect("processed");
            }
            while num(b) > num(a) {
                b = idom[b.index()].expect("processed");
            }
        }
        a
    };

    let mut changed = true;
    while changed {
        changed = false;
        for &node in rpo.iter().skip(1) {
            // First processed predecessor.
            let mut new_idom: Option<NodeId> = None;
            for &(p, _) in cfg.preds(node) {
                if !orders.is_reachable(p) {
                    continue;
                }
                if idom[p.index()].is_some() {
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, orders, p, cur),
                    });
                }
            }
            if let Some(ni) = new_idom {
                if idom[node.index()] != Some(ni) {
                    idom[node.index()] = Some(ni);
                    changed = true;
                }
            }
        }
    }
    let span = tree_spans(&idom, entry);
    Dominators { idom, entry, span }
}

/// Entry/exit numbering of the dominator tree given by `idom`, by an
/// iterative depth-first walk from `entry`.
fn tree_spans(idom: &[Option<NodeId>], entry: NodeId) -> Vec<Option<(u32, u32)>> {
    const NONE: usize = usize::MAX;
    // The tree as child lists threaded through two flat arrays.
    let mut first_child = vec![NONE; idom.len()];
    let mut next_sibling = vec![NONE; idom.len()];
    for (n, parent) in idom.iter().enumerate().rev() {
        match parent {
            Some(p) if n != entry.index() => {
                next_sibling[n] = first_child[p.index()];
                first_child[p.index()] = n;
            }
            _ => {}
        }
    }
    let mut span = vec![None; idom.len()];
    let mut clock = 0u32;
    // Stack of (node, entry time); `first_child[node]` is consumed as
    // the node's cursor over its children.
    let mut stack = vec![(entry.index(), clock)];
    while let Some(&(node, entered)) = stack.last() {
        let child = first_child[node];
        if child == NONE {
            span[node] = Some((entered, clock));
            stack.pop();
        } else {
            first_child[node] = next_sibling[child];
            clock += 1;
            stack.push((child, clock));
        }
    }
    span
}

/// Naive O(V·E·V) dominator computation by dataflow fixpoint:
/// `dom(n) = {n} ∪ ⋂_{p∈preds(n)} dom(p)`. Exposed for use as a test
/// oracle against [`dominators`].
pub fn dominators_naive(cfg: &Cfg) -> Vec<Vec<bool>> {
    let n = cfg.len();
    let orders = dfs(cfg);
    let mut dom = vec![vec![true; n]; n];
    for (i, row) in dom.iter_mut().enumerate() {
        if !orders.is_reachable(NodeId(i as u32)) {
            row.iter_mut().for_each(|b| *b = false);
        }
    }
    let e = cfg.entry().index();
    dom[e] = vec![false; n];
    dom[e][e] = true;
    let mut changed = true;
    while changed {
        changed = false;
        for id in cfg.node_ids() {
            let i = id.index();
            if i == e || !orders.is_reachable(id) {
                continue;
            }
            let mut new_row = vec![true; n];
            let mut any_pred = false;
            for &(p, _) in cfg.preds(id) {
                if !orders.is_reachable(p) {
                    continue;
                }
                any_pred = true;
                for (k, slot) in new_row.iter_mut().enumerate() {
                    *slot = *slot && dom[p.index()][k];
                }
            }
            if !any_pred {
                new_row = vec![false; n];
            }
            new_row[i] = true;
            if new_row != dom[i] {
                dom[i] = new_row;
                changed = true;
            }
        }
    }
    dom
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_cfg;
    use acfc_mpsl::parse;

    fn agree(src: &str) {
        let (cfg, _) = build_cfg(&parse(src).unwrap());
        let fast = dominators(&cfg);
        let slow = dominators_naive(&cfg);
        for a in cfg.node_ids() {
            for b in cfg.node_ids() {
                assert_eq!(
                    fast.dominates(a, b),
                    slow[b.index()][a.index()],
                    "dominates({a},{b}) disagrees in {src}"
                );
            }
        }
    }

    #[test]
    fn fast_matches_naive_on_straight_line() {
        agree("program t; compute 1; checkpoint; compute 2;");
    }

    #[test]
    fn fast_matches_naive_on_branching() {
        agree("program t; if rank == 0 { compute 1; } else { checkpoint; compute 2; }");
    }

    #[test]
    fn fast_matches_naive_on_loops() {
        agree(
            "program t; var i, j;
             while i < 3 {
               if rank % 2 == 0 { send to rank + 1; } else { recv from rank - 1; }
               while j < 2 { j := j + 1; }
               i := i + 1;
             }",
        );
    }

    #[test]
    fn entry_dominates_everything() {
        let (cfg, _) = build_cfg(&acfc_mpsl::programs::jacobi_odd_even(3));
        let dom = dominators(&cfg);
        for id in cfg.node_ids() {
            assert!(dom.dominates(cfg.entry(), id));
        }
    }

    #[test]
    fn loop_header_dominates_body() {
        let (cfg, _) =
            build_cfg(&parse("program t; var i; while i < 3 { checkpoint; i := i + 1; }").unwrap());
        let dom = dominators(&cfg);
        let header = cfg.branch_nodes()[0];
        let chk = cfg.checkpoint_nodes()[0];
        assert!(dom.dominates(header, chk));
        assert!(!dom.dominates(chk, header));
    }

    #[test]
    fn branch_arms_do_not_dominate_join() {
        let (cfg, _) = build_cfg(
            &parse("program t; if rank == 0 { compute 1; } else { compute 2; } checkpoint;")
                .unwrap(),
        );
        let dom = dominators(&cfg);
        let chk = cfg.checkpoint_nodes()[0];
        let b = cfg.branch_nodes()[0];
        assert!(dom.dominates(b, chk));
        for c in cfg.nodes_where(|k| matches!(k, crate::graph::NodeKind::Compute { .. })) {
            assert!(!dom.dominates(c, chk));
        }
    }

    #[test]
    fn chain_runs_entry_to_node() {
        let (cfg, _) = build_cfg(&parse("program t; compute 1; checkpoint;").unwrap());
        let dom = dominators(&cfg);
        let chk = cfg.checkpoint_nodes()[0];
        let chain = dom.chain(chk);
        assert_eq!(chain.first(), Some(&cfg.entry()));
        assert_eq!(chain.last(), Some(&chk));
        // Every adjacent pair in the chain is (idom, node).
        for w in chain.windows(2) {
            assert_eq!(dom.idom(w[1]), Some(w[0]));
        }
    }
}
