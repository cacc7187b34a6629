//! Checkpoint enumeration — the static straight cuts `S_i`.
//!
//! §2: checkpoint nodes are enumerated along every path from `entry` to
//! `exit`; `C_i^γ` is the `i`-th checkpoint node along path `γ`, and
//! `S_i` collects the `C_i`'s of every path. A checkpoint statement in a
//! loop keeps the same index in every iteration, so a loop body's
//! checkpoints are counted **once** (and code after the loop continues
//! from that count — the paper's programs always enter their sweep
//! loops, and non-ID-dependent loops trip identically in every process,
//! so dynamic sequence numbers stay aligned with these static indices).
//!
//! A checkpoint node can still have different ordinals along different
//! paths (below a branch whose arms hold different numbers of
//! checkpoints); we therefore compute an index **interval**
//! `[min_index, max_index]` per node by a structural walk of the
//! program, and define `S_i` as all nodes whose interval contains `i`.
//! Phase I's equalisation collapses the intervals to points; §3.1: *"we
//! may add/remove some of the checkpoints to ensure that every path of
//! the CFG has the same number of checkpoint nodes."*

use acfc_cfg::{Cfg, NodeId};
use acfc_mpsl::{Block, Program, StmtId, StmtKind};
use std::collections::HashMap;

/// Index interval of a checkpoint node (1-based, inclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexRange {
    /// Smallest index this node can have on any path.
    pub min: u32,
    /// Largest index this node can have on any path.
    pub max: u32,
}

impl IndexRange {
    /// `true` when the node has a unique index on every path.
    pub fn is_exact(&self) -> bool {
        self.min == self.max
    }

    /// `true` when two intervals overlap (the nodes can share an index).
    pub fn overlaps(&self, other: &IndexRange) -> bool {
        self.min <= other.max && other.min <= self.max
    }
}

/// The static checkpoint structure of a program/CFG pair.
#[derive(Debug, Clone)]
pub struct CheckpointIndex {
    /// Index interval per checkpoint node.
    pub ranges: HashMap<NodeId, IndexRange>,
    /// Checkpoints seen along complete executions: `[min, max]` of the
    /// per-path totals (`m` in Algorithm 3.2 when exact).
    pub total: IndexRange,
}

impl CheckpointIndex {
    /// The largest index any node can take.
    pub fn max_index(&self) -> u32 {
        self.ranges.values().map(|r| r.max).max().unwrap_or(0)
    }

    /// `true` iff every checkpoint node has an exact index **and** every
    /// entry→exit path sees the same number of checkpoints — the §3.1
    /// well-formedness Phase I establishes.
    pub fn is_exact(&self) -> bool {
        self.total.is_exact() && self.ranges.values().all(|r| r.is_exact())
    }

    /// Pairs of distinct checkpoint nodes that can share an index — the
    /// pairs Condition 1 must check.
    pub fn same_index_pairs(&self) -> Vec<(NodeId, NodeId)> {
        let mut nodes: Vec<(NodeId, IndexRange)> =
            self.ranges.iter().map(|(&n, &r)| (n, r)).collect();
        nodes.sort_by_key(|&(n, _)| n);
        let mut out = Vec::new();
        for (i, &(a, ra)) in nodes.iter().enumerate() {
            for &(b, rb) in nodes.iter().skip(i + 1) {
                if ra.overlaps(&rb) {
                    out.push((a, b));
                }
            }
        }
        out
    }
}

/// Computes checkpoint index intervals by a structural walk of the
/// (lowered) program, then maps them onto the CFG's checkpoint nodes
/// through their statement ids.
///
/// # Panics
///
/// Panics if a checkpoint node of the CFG has no statement id or its
/// statement is missing from the program (the CFG must have been built
/// from this exact program).
pub fn index_checkpoints(cfg: &Cfg, program: &Program) -> CheckpointIndex {
    let mut by_stmt: HashMap<StmtId, IndexRange> = HashMap::new();
    let total = walk(&program.body, (0, 0), &mut by_stmt);
    let mut ranges = HashMap::new();
    for c in cfg.checkpoint_nodes() {
        // Checkpoint nodes detached by Phase III edits are stale arena
        // entries; skip them.
        if cfg.preds(c).is_empty() && cfg.succs(c).is_empty() {
            continue;
        }
        let sid = cfg
            .node(c)
            .stmt
            .expect("checkpoint nodes carry statement ids");
        let range = by_stmt
            .get(&sid)
            .unwrap_or_else(|| panic!("checkpoint stmt {sid} not found in program"));
        ranges.insert(c, *range);
    }
    CheckpointIndex {
        ranges,
        total: IndexRange {
            min: total.0,
            max: total.1,
        },
    }
}

/// Walks a block with a running `(min, max)` count of checkpoints seen
/// so far; records each checkpoint statement's index interval; returns
/// the updated running count.
fn walk(
    block: &Block,
    mut running: (u32, u32),
    out: &mut HashMap<StmtId, IndexRange>,
) -> (u32, u32) {
    for stmt in block {
        match &stmt.kind {
            StmtKind::Checkpoint { .. } => {
                out.insert(
                    stmt.id,
                    IndexRange {
                        min: running.0 + 1,
                        max: running.1 + 1,
                    },
                );
                running = (running.0 + 1, running.1 + 1);
            }
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                let t = walk(then_branch, running, out);
                let e = walk(else_branch, running, out);
                running = (t.0.min(e.0), t.1.max(e.1));
            }
            StmtKind::While { body, .. } | StmtKind::For { body, .. } => {
                // Loop checkpoints keep one static index per statement;
                // code after the loop continues from the body's count.
                running = walk(body, running, out);
            }
            _ => {}
        }
    }
    running
}

#[cfg(test)]
mod tests {
    use super::*;
    use acfc_cfg::build_cfg;
    use acfc_mpsl::parse;

    fn index_of(src: &str) -> (acfc_cfg::Cfg, CheckpointIndex) {
        let p = parse(src).unwrap();
        let (cfg, lowered) = build_cfg(&p);
        let idx = index_checkpoints(&cfg, &lowered);
        (cfg, idx)
    }

    #[test]
    fn sequential_checkpoints_numbered_in_order() {
        let (cfg, idx) = index_of("program t; checkpoint; compute 1; checkpoint;");
        let chks = cfg.checkpoint_nodes();
        assert_eq!(idx.ranges[&chks[0]], IndexRange { min: 1, max: 1 });
        assert_eq!(idx.ranges[&chks[1]], IndexRange { min: 2, max: 2 });
        assert_eq!(idx.total, IndexRange { min: 2, max: 2 });
        assert!(idx.is_exact());
        assert_eq!(idx.max_index(), 2);
    }

    #[test]
    fn branch_arms_share_the_index() {
        // Figure 2 pattern: one checkpoint in each arm, both are C_1.
        let (cfg, idx) = index_of(
            "program t;
             if rank % 2 == 0 { checkpoint; } else { compute 1; checkpoint; }",
        );
        let chks = cfg.checkpoint_nodes();
        for c in &chks {
            assert_eq!(idx.ranges[c], IndexRange { min: 1, max: 1 });
        }
        assert_eq!(idx.same_index_pairs().len(), 1);
        assert!(idx.is_exact());
    }

    #[test]
    fn loop_checkpoint_counted_once() {
        let (cfg, idx) = index_of(
            "program t; var i;
             for i in 0..5 { checkpoint; }
             checkpoint;",
        );
        let chks = cfg.checkpoint_nodes();
        assert_eq!(idx.ranges[&chks[0]], IndexRange { min: 1, max: 1 });
        assert_eq!(idx.ranges[&chks[1]], IndexRange { min: 2, max: 2 });
        assert!(idx.is_exact());
        assert_eq!(idx.total, IndexRange { min: 2, max: 2 });
    }

    #[test]
    fn unbalanced_arms_produce_intervals() {
        let (cfg, idx) = index_of(
            "program t; var x;
             if x > 0 { checkpoint; checkpoint; }
             checkpoint;",
        );
        let chks = cfg.checkpoint_nodes();
        // The trailing checkpoint is 1st on the false path, 3rd on the
        // true path.
        assert_eq!(idx.ranges[&chks[2]], IndexRange { min: 1, max: 3 });
        assert!(!idx.is_exact());
        assert_eq!(idx.total, IndexRange { min: 1, max: 3 });
        // It can share an index with the first in-arm checkpoint (both
        // can be C_1? no: in-arm first is always 1, trailing covers 1) —
        // and with the second (index 2 within 1..3). The two in-arm
        // checkpoints have disjoint exact indices.
        assert_eq!(idx.same_index_pairs().len(), 2);
    }

    #[test]
    fn nested_loops_still_exact() {
        let (cfg, idx) = index_of(
            "program t; var i, j;
             for i in 0..2 {
               checkpoint;
               for j in 0..2 { checkpoint; }
             }",
        );
        let chks = cfg.checkpoint_nodes();
        assert_eq!(idx.ranges[&chks[0]], IndexRange { min: 1, max: 1 });
        assert_eq!(idx.ranges[&chks[1]], IndexRange { min: 2, max: 2 });
        assert!(idx.is_exact());
    }

    #[test]
    fn fig2_jacobi_both_checkpoints_are_c1() {
        let p = acfc_mpsl::programs::jacobi_odd_even(3);
        let (cfg, lowered) = build_cfg(&p);
        let idx = index_checkpoints(&cfg, &lowered);
        let chks = cfg.checkpoint_nodes();
        assert_eq!(chks.len(), 2);
        for c in &chks {
            assert_eq!(idx.ranges[c], IndexRange { min: 1, max: 1 });
        }
        assert_eq!(idx.same_index_pairs().len(), 1);
    }

    #[test]
    fn no_checkpoints_yields_empty_index() {
        let (_, idx) = index_of("program t; compute 1;");
        assert!(idx.ranges.is_empty());
        assert_eq!(idx.max_index(), 0);
        assert_eq!(idx.total, IndexRange { min: 0, max: 0 });
    }

    #[test]
    fn range_overlap_logic() {
        let a = IndexRange { min: 1, max: 2 };
        let b = IndexRange { min: 2, max: 3 };
        let c = IndexRange { min: 3, max: 4 };
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(!a.is_exact());
        assert!(IndexRange { min: 2, max: 2 }.is_exact());
    }
}
