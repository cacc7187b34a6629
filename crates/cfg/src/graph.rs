//! The control-flow-graph data structure.
//!
//! §2 of the paper: the CFG of a message-passing program is a directed
//! graph with nodes for loops and conditions **plus** nodes for the
//! `send`, `receive`, and `checkpoint` statements, and two distinguished
//! `entry` and `exit` nodes. This module stores exactly that, as an
//! index-based arena (stable [`NodeId`]s survive edits, which Phase III
//! relies on when it moves checkpoint nodes).

use acfc_mpsl::{Expr, RecvSrc, StmtId};
use std::fmt;

/// Index of a node in a [`Cfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a CFG node represents.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// The unique start node.
    Entry,
    /// The unique termination node.
    Exit,
    /// A condition expression (from `if`, `while`, or a desugared `for`).
    /// Out-edges are labelled [`EdgeLabel::True`] / [`EdgeLabel::False`].
    Branch {
        /// The condition; nonzero means the `True` edge is taken.
        cond: Expr,
    },
    /// A merge point after an `if`.
    Join,
    /// A `send` statement.
    Send {
        /// Destination rank expression.
        dest: Expr,
        /// Message size in bits.
        size_bits: Expr,
    },
    /// A `recv` statement.
    Recv {
        /// Source specification.
        src: RecvSrc,
    },
    /// A `checkpoint` statement.
    Checkpoint {
        /// Optional label from the source.
        label: Option<String>,
    },
    /// A `compute` statement.
    Compute {
        /// Cost expression (simulated milliseconds).
        cost: Expr,
    },
    /// An assignment (including the init/increment of desugared `for`s).
    Assign {
        /// Target variable.
        var: String,
        /// Right-hand side.
        value: Expr,
    },
}

impl NodeKind {
    /// Short tag used by `Debug`/DOT output.
    pub fn tag(&self) -> &'static str {
        match self {
            NodeKind::Entry => "entry",
            NodeKind::Exit => "exit",
            NodeKind::Branch { .. } => "branch",
            NodeKind::Join => "join",
            NodeKind::Send { .. } => "send",
            NodeKind::Recv { .. } => "recv",
            NodeKind::Checkpoint { .. } => "chkpt",
            NodeKind::Compute { .. } => "compute",
            NodeKind::Assign { .. } => "assign",
        }
    }
}

/// A CFG node: its kind plus the statement it came from (if any).
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// What the node represents.
    pub kind: NodeKind,
    /// The originating statement, when the node maps 1:1 to source.
    /// Synthetic nodes (entry/exit/join, `for` init/increment) have `None`.
    pub stmt: Option<StmtId>,
}

/// Label on a CFG edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeLabel {
    /// Ordinary fallthrough.
    Seq,
    /// Branch taken.
    True,
    /// Branch not taken.
    False,
}

/// A control-flow graph.
///
/// Nodes are stored in an arena; edges as forward and reverse adjacency
/// lists kept in sync by [`Cfg::add_edge`] / [`Cfg::remove_edge`].
#[derive(Debug, Clone)]
pub struct Cfg {
    name: String,
    nodes: Vec<Node>,
    succs: Vec<Vec<(NodeId, EdgeLabel)>>,
    preds: Vec<Vec<(NodeId, EdgeLabel)>>,
    entry: NodeId,
    exit: NodeId,
}

impl Cfg {
    /// Creates an empty CFG containing only `entry` and `exit` nodes.
    pub fn new(name: impl Into<String>) -> Cfg {
        let mut cfg = Cfg {
            name: name.into(),
            nodes: Vec::new(),
            succs: Vec::new(),
            preds: Vec::new(),
            entry: NodeId(0),
            exit: NodeId(0),
        };
        cfg.entry = cfg.add_node(NodeKind::Entry, None);
        cfg.exit = cfg.add_node(NodeKind::Exit, None);
        cfg
    }

    /// The program name this CFG was built from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The entry node.
    pub fn entry(&self) -> NodeId {
        self.entry
    }

    /// The exit node.
    pub fn exit(&self) -> NodeId {
        self.exit
    }

    /// Number of nodes (including entry/exit).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the graph has only entry and exit.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 2
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, kind: NodeKind, stmt: Option<StmtId>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { kind, stmt });
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        id
    }

    /// Adds a labelled edge.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or the identical labelled
    /// edge already exists (CFGs have no parallel identical edges).
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, label: EdgeLabel) {
        assert!(from.index() < self.nodes.len(), "bad edge source");
        assert!(to.index() < self.nodes.len(), "bad edge target");
        assert!(
            !self.succs[from.index()].contains(&(to, label)),
            "duplicate edge {from} -> {to}"
        );
        self.succs[from.index()].push((to, label));
        self.preds[to.index()].push((from, label));
    }

    /// Removes the edge `from → to` with the given label (if present);
    /// returns whether an edge was removed.
    pub fn remove_edge(&mut self, from: NodeId, to: NodeId, label: EdgeLabel) -> bool {
        let s = &mut self.succs[from.index()];
        let before = s.len();
        s.retain(|&(t, l)| !(t == to && l == label));
        let removed = s.len() != before;
        if removed {
            self.preds[to.index()].retain(|&(f, l)| !(f == from && l == label));
        }
        removed
    }

    /// The node data for `id`.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Successor edges of `id`.
    pub fn succs(&self, id: NodeId) -> &[(NodeId, EdgeLabel)] {
        &self.succs[id.index()]
    }

    /// Predecessor edges of `id`.
    pub fn preds(&self, id: NodeId) -> &[(NodeId, EdgeLabel)] {
        &self.preds[id.index()]
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// All nodes of a given tag, in id order.
    pub fn nodes_where(&self, pred: impl Fn(&NodeKind) -> bool) -> Vec<NodeId> {
        self.node_ids()
            .filter(|id| pred(&self.node(*id).kind))
            .collect()
    }

    /// All checkpoint nodes, in id order.
    pub fn checkpoint_nodes(&self) -> Vec<NodeId> {
        self.nodes_where(|k| matches!(k, NodeKind::Checkpoint { .. }))
    }

    /// All send nodes, in id order.
    pub fn send_nodes(&self) -> Vec<NodeId> {
        self.nodes_where(|k| matches!(k, NodeKind::Send { .. }))
    }

    /// All recv nodes, in id order.
    pub fn recv_nodes(&self) -> Vec<NodeId> {
        self.nodes_where(|k| matches!(k, NodeKind::Recv { .. }))
    }

    /// All branch nodes, in id order.
    pub fn branch_nodes(&self) -> Vec<NodeId> {
        self.nodes_where(|k| matches!(k, NodeKind::Branch { .. }))
    }

    /// Splices a new node onto the edge `from → to` (with label `label`),
    /// so that `from → new → to`; the incoming label is preserved and the
    /// outgoing edge is [`EdgeLabel::Seq`].
    ///
    /// This is the primitive Phase III uses to *move a checkpoint node*
    /// onto a dominating edge (Algorithm 3.2, Step 2).
    ///
    /// # Panics
    ///
    /// Panics if the edge does not exist.
    pub fn split_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        label: EdgeLabel,
        kind: NodeKind,
        stmt: Option<StmtId>,
    ) -> NodeId {
        assert!(
            self.succs(from).contains(&(to, label)),
            "split_edge: edge {from} -> {to} not present"
        );
        let mid = self.add_node(kind, stmt);
        self.remove_edge(from, to, label);
        self.add_edge(from, mid, label);
        self.add_edge(mid, to, EdgeLabel::Seq);
        mid
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(|v| v.len()).sum()
    }

    /// All edges as `(from, to, label)` triples.
    pub fn edges(&self) -> Vec<(NodeId, NodeId, EdgeLabel)> {
        let mut out = Vec::with_capacity(self.edge_count());
        for id in self.node_ids() {
            for &(to, label) in self.succs(id) {
                out.push((id, to, label));
            }
        }
        out
    }

    /// Checks structural invariants; returns a description of the first
    /// violation found, if any. Used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        for id in self.node_ids() {
            for &(to, label) in self.succs(id) {
                if !self.preds(to).contains(&(id, label)) {
                    return Err(format!("succ edge {id}->{to} missing from preds"));
                }
            }
            for &(from, label) in self.preds(id) {
                if !self.succs(from).contains(&(id, label)) {
                    return Err(format!("pred edge {from}->{id} missing from succs"));
                }
            }
        }
        if !self.succs(self.exit).is_empty() {
            return Err("exit has successors".into());
        }
        if !self.preds(self.entry).is_empty() {
            return Err("entry has predecessors".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_has_entry_and_exit() {
        let cfg = Cfg::new("t");
        assert_eq!(cfg.len(), 2);
        assert!(cfg.is_empty());
        assert!(matches!(cfg.node(cfg.entry()).kind, NodeKind::Entry));
        assert!(matches!(cfg.node(cfg.exit()).kind, NodeKind::Exit));
    }

    #[test]
    fn add_and_remove_edges() {
        let mut cfg = Cfg::new("t");
        let a = cfg.add_node(NodeKind::Join, None);
        cfg.add_edge(cfg.entry(), a, EdgeLabel::Seq);
        cfg.add_edge(a, cfg.exit(), EdgeLabel::Seq);
        assert_eq!(cfg.edge_count(), 2);
        assert!(cfg.remove_edge(cfg.entry(), a, EdgeLabel::Seq));
        assert!(!cfg.remove_edge(cfg.entry(), a, EdgeLabel::Seq));
        assert_eq!(cfg.edge_count(), 1);
        cfg.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edge_panics() {
        let mut cfg = Cfg::new("t");
        let a = cfg.add_node(NodeKind::Join, None);
        cfg.add_edge(cfg.entry(), a, EdgeLabel::Seq);
        cfg.add_edge(cfg.entry(), a, EdgeLabel::Seq);
    }

    #[test]
    fn split_edge_inserts_between() {
        let mut cfg = Cfg::new("t");
        cfg.add_edge(cfg.entry(), cfg.exit(), EdgeLabel::Seq);
        let mid = cfg.split_edge(
            cfg.entry(),
            cfg.exit(),
            EdgeLabel::Seq,
            NodeKind::Checkpoint { label: None },
            None,
        );
        assert_eq!(cfg.succs(cfg.entry()), &[(mid, EdgeLabel::Seq)]);
        assert_eq!(cfg.succs(mid), &[(cfg.exit(), EdgeLabel::Seq)]);
        cfg.check_invariants().unwrap();
    }

    #[test]
    fn branch_and_join_classification() {
        let mut cfg = Cfg::new("t");
        let b = cfg.add_node(NodeKind::Branch { cond: Expr::Int(1) }, None);
        let j = cfg.add_node(NodeKind::Join, None);
        cfg.add_edge(cfg.entry(), b, EdgeLabel::Seq);
        cfg.add_edge(b, j, EdgeLabel::True);
        cfg.add_edge(b, j, EdgeLabel::False);
        cfg.add_edge(j, cfg.exit(), EdgeLabel::Seq);
        assert_eq!(cfg.branch_nodes(), vec![b]);
        assert_eq!(cfg.preds(j).len(), 2);
        assert_eq!(cfg.preds(b).len(), 1);
    }
}
