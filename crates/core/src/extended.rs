//! The extended CFG `Ĝ`: the CFG plus message edges.
//!
//! §2: *we extend a CFG representation to include message edges that
//! represent the communication between every two corresponding send and
//! receive nodes* (Figure 4). Phase III's Condition 1 is a reachability
//! question over `Ĝ`; this module materialises the combined graph and
//! its reachability closures (with and without CFG backward edges, which
//! the loop optimization distinguishes).

use crate::matching::{Matching, MessageEdge};
use acfc_cfg::{dominators, loop_info_with, to_dot, Cfg, Dominators, LoopInfo, NodeId, Reach};
use std::collections::HashMap;

/// The extended CFG of a program.
#[derive(Debug, Clone)]
pub struct ExtendedCfg {
    /// The underlying CFG (unchanged).
    pub cfg: Cfg,
    /// Message edges from Phase II.
    pub message_edges: Vec<MessageEdge>,
    /// Loop structure of the CFG (backward edges, natural loops).
    pub loops: LoopInfo,
    /// Dominator tree of the CFG (what `loops` was derived from, kept
    /// for Algorithm 3.2's walk up a checkpoint's dominator chain).
    pub(crate) dom: Dominators,
    /// Reachability over all edges of `Ĝ`.
    full: Closure,
    /// Reachability over `Ĝ` minus the CFG's backward edges (message
    /// edges retained). `None` when the CFG has no backward edge: the
    /// relation is then `full` itself and is not computed twice.
    forward: Option<Closure>,
}

/// A reachability relation over `Ĝ` with its per-checkpoint
/// "message-reach" rows: bit `b` of `msg[c]` is set iff some message
/// edge `e` satisfies `c ⇝= e.send` and `e.recv ⇝= b`. Condition 1
/// probes these rows instead of scanning every message edge per
/// checkpoint pair.
#[derive(Debug, Clone)]
struct Closure {
    reach: Reach,
    msg: HashMap<NodeId, Vec<u64>>,
}

impl Closure {
    /// Closes `succs` and OR-precomputes the message-reach rows: for
    /// each checkpoint `c`, the union over admissible message edges of
    /// `{e.recv} ∪ row(e.recv)` — whole-row bitset unions via
    /// [`Reach::row`], not per-bit probes.
    fn compute(succs: &[Vec<usize>], checkpoints: &[NodeId], edges: &[MessageEdge]) -> Closure {
        let reach = Reach::compute(succs);
        let words = reach.row_words();
        let msg = checkpoints
            .iter()
            .map(|&c| {
                let mut row = vec![0u64; words];
                for e in edges {
                    if !reach.reachable_or_eq(c.index(), e.send.index()) {
                        continue;
                    }
                    let r = e.recv.index();
                    row[r / 64] |= 1u64 << (r % 64);
                    for (dst, src) in row.iter_mut().zip(reach.row(r)) {
                        *dst |= src;
                    }
                }
                (c, row)
            })
            .collect();
        Closure { reach, msg }
    }

    /// `true` iff a path from `a` to `b` in this relation crosses at
    /// least one of `edges`.
    fn reaches_via_message(&self, edges: &[MessageEdge], a: NodeId, b: NodeId) -> bool {
        match self.msg.get(&a) {
            // Checkpoint sources (Condition 1's only callers) hit the
            // precomputed row: a single bit probe.
            Some(row) => row[b.index() / 64] & (1u64 << (b.index() % 64)) != 0,
            None => edges.iter().any(|e| {
                self.reach.reachable_or_eq(a.index(), e.send.index())
                    && self.reach.reachable_or_eq(e.recv.index(), b.index())
            }),
        }
    }
}

impl ExtendedCfg {
    /// Builds `Ĝ` from a CFG and a matching.
    pub fn build(cfg: Cfg, matching: &Matching) -> ExtendedCfg {
        let dom = dominators(&cfg);
        let loops = loop_info_with(&cfg, &dom);
        let n = cfg.len();
        let mut full: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (a, b, _) in cfg.edges() {
            full[a.index()].push(b.index());
        }
        for e in &matching.edges {
            full[e.send.index()].push(e.recv.index());
        }
        let checkpoints = cfg.checkpoint_nodes();
        let forward = (!loops.back_edges.is_empty()).then(|| {
            let mut forward = full.clone();
            for &(a, b, _) in &loops.back_edges {
                let at = forward[a.index()]
                    .iter()
                    .position(|&t| t == b.index())
                    .expect("a backward edge is a CFG edge");
                forward[a.index()].remove(at);
            }
            Closure::compute(&forward, &checkpoints, &matching.edges)
        });
        ExtendedCfg {
            full: Closure::compute(&full, &checkpoints, &matching.edges),
            forward,
            cfg,
            message_edges: matching.edges.clone(),
            loops,
            dom,
        }
    }

    fn forward(&self) -> &Closure {
        self.forward.as_ref().unwrap_or(&self.full)
    }

    /// `true` iff a path of length ≥ 1 exists from `a` to `b` in `Ĝ`
    /// (backward edges included).
    pub fn reaches(&self, a: NodeId, b: NodeId) -> bool {
        self.full.reach.reachable(a.index(), b.index())
    }

    /// `true` iff a path exists from `a` to `b` in `Ĝ` that uses **no
    /// CFG backward edge** (message edges allowed).
    pub fn reaches_forward(&self, a: NodeId, b: NodeId) -> bool {
        self.forward().reach.reachable(a.index(), b.index())
    }

    /// `true` iff a `Ĝ`-path from `a` to `b` exists that crosses at
    /// least one **message edge**. Happened-before between checkpoints
    /// of *different* processes (the only pairs a cut contains) always
    /// involves a message, so Condition 1 only needs these paths;
    /// message-free CFG paths between checkpoints with disjoint rank
    /// attributes are not cross-process causality.
    pub fn reaches_via_message(&self, a: NodeId, b: NodeId) -> bool {
        self.full.reaches_via_message(&self.message_edges, a, b)
    }

    /// Like [`ExtendedCfg::reaches_via_message`], using no CFG backward
    /// edges.
    pub fn reaches_forward_via_message(&self, a: NodeId, b: NodeId) -> bool {
        self.forward()
            .reaches_via_message(&self.message_edges, a, b)
    }

    /// Adjacency of `Ĝ` (all edges) as raw lists, for path finding.
    pub fn adjacency_full(&self) -> Vec<Vec<usize>> {
        let n = self.cfg.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (a, b, _) in self.cfg.edges() {
            adj[a.index()].push(b.index());
        }
        for e in &self.message_edges {
            adj[e.send.index()].push(e.recv.index());
        }
        adj
    }

    /// Graphviz rendering with message edges dashed (Figure 4 style).
    pub fn to_dot(&self) -> String {
        let extra: Vec<(NodeId, NodeId)> = self
            .message_edges
            .iter()
            .map(|e| (e.send, e.recv))
            .collect();
        to_dot(&self.cfg, &extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::compute_attrs;
    use crate::iddep::analyze_iddep;
    use crate::matching::{match_send_recv, MatchingMode};
    use acfc_cfg::build_cfg;
    use acfc_mpsl::parse;

    fn extended(src: &str, n: usize) -> ExtendedCfg {
        let p = parse(src).unwrap();
        let (cfg, lowered) = build_cfg(&p);
        let iddep = analyze_iddep(&cfg, &lowered);
        let attrs = compute_attrs(&cfg, n, &iddep);
        let m = match_send_recv(&cfg, &attrs, &iddep, MatchingMode::Conservative);
        ExtendedCfg::build(cfg, &m)
    }

    #[test]
    fn message_edge_creates_cross_path_reachability() {
        let g = extended(
            "program t;
             if rank % 2 == 0 { checkpoint; send to rank + 1; }
             else { recv from rank - 1; checkpoint; }",
            4,
        );
        let chks = g.cfg.checkpoint_nodes();
        let (even_c, odd_c) = (chks[0], chks[1]);
        // Without the message edge there is no path between branch arms;
        // with it, the even checkpoint reaches the odd one (Figure 5).
        assert!(g.reaches(even_c, odd_c));
        assert!(g.reaches_forward(even_c, odd_c));
        assert!(!g.reaches(odd_c, even_c));
    }

    #[test]
    fn forward_reach_excludes_back_edges() {
        let g = extended(
            "program t; var i;
             for i in 0..3 { compute 1; checkpoint; }",
            2,
        );
        let c = g.cfg.checkpoint_nodes()[0];
        // Via the back edge the checkpoint reaches itself...
        assert!(g.reaches(c, c));
        // ...but not on forward edges alone.
        assert!(!g.reaches_forward(c, c));
    }

    #[test]
    fn fig6_back_edge_path_detected() {
        let g = {
            let p = acfc_mpsl::programs::fig6(3);
            let (cfg, lowered) = build_cfg(&p);
            let iddep = analyze_iddep(&cfg, &lowered);
            let attrs = compute_attrs(&cfg, 4, &iddep);
            let m = match_send_recv(&cfg, &attrs, &iddep, MatchingMode::Conservative);
            ExtendedCfg::build(cfg, &m)
        };
        let chks = g.cfg.checkpoint_nodes();
        assert_eq!(chks.len(), 2);
        // Path A's checkpoint (in the loop) vs B's (before its loop):
        // B reaches A only through a backward edge.
        let a = chks[0]; // loop checkpoint ("A" arm appears first)
        let b = chks[1];
        assert!(g.reaches(b, a), "B must reach A through the loop");
        assert!(
            !g.reaches_forward(b, a),
            "the only path crosses the back edge"
        );
    }

    #[test]
    fn dot_includes_dashed_message_edges() {
        let g = extended(
            "program t; if rank == 0 { send to 1; } else { recv from 0; }",
            2,
        );
        assert_eq!(g.message_edges.len(), 1);
        let dot = g.to_dot();
        assert!(dot.contains("style=dashed"));
    }

    #[test]
    fn message_rows_agree_with_edge_scan() {
        let g = extended(
            "program t; var i;
             for i in 0..3 {
               if rank % 2 == 0 { checkpoint; send to rank + 1; recv from rank + 1; }
               else { recv from rank - 1; checkpoint; send to rank - 1; }
             }",
            4,
        );
        assert!(!g.message_edges.is_empty());
        for c in g.cfg.checkpoint_nodes() {
            for b in g.cfg.node_ids() {
                let scan_full = g.message_edges.iter().any(|e| {
                    g.full.reach.reachable_or_eq(c.index(), e.send.index())
                        && g.full.reach.reachable_or_eq(e.recv.index(), b.index())
                });
                assert_eq!(g.reaches_via_message(c, b), scan_full, "full ({c},{b})");
                let forward = &g.forward.as_ref().expect("the loop has a back edge").reach;
                let scan_fwd = g.message_edges.iter().any(|e| {
                    forward.reachable_or_eq(c.index(), e.send.index())
                        && forward.reachable_or_eq(e.recv.index(), b.index())
                });
                assert_eq!(
                    g.reaches_forward_via_message(c, b),
                    scan_fwd,
                    "forward ({c},{b})"
                );
            }
        }
    }

    #[test]
    fn full_adjacency_agrees_with_reach() {
        let g = extended(
            "program t; var i; for i in 0..2 { send to (rank+1)%nprocs; recv from (rank-1)%nprocs; checkpoint; }",
            4,
        );
        let full = g.adjacency_full();
        let r_full = acfc_cfg::Reach::compute(&full);
        for a in 0..full.len() {
            for b in 0..full.len() {
                assert_eq!(
                    r_full.reachable(a, b),
                    g.reaches(NodeId(a as u32), NodeId(b as u32))
                );
            }
        }
    }
}
