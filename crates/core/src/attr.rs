//! Rank attributes.
//!
//! §3.2: *every control path from a branch node is characterised by an
//! attribute driven from the condition expression* — e.g. after
//! `if rank % 2 == 0`, the true path has the attribute "even ranks".
//! We represent attributes concretely as **rank sets**: for an analysis
//! instantiated at `n` processes, the attribute of a node is the set of
//! ranks that can possibly execute it. Attributes are computed by a
//! forward may-analysis; branch edges constrain the set whenever the
//! branch condition is rank-determined.

use crate::iddep::IdDepInfo;
use acfc_cfg::{dfs, Cfg, EdgeLabel, NodeId, NodeKind};
use acfc_mpsl::{rank_eval, RankVal};
use std::fmt;

/// Maximum number of processes an analysis instance supports (rank sets
/// are a `u128` bitmask).
pub const MAX_ANALYSIS_RANKS: usize = 128;

/// A set of ranks `⊆ {0, …, n−1}`, `n ≤ 128`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RankSet {
    bits: u128,
    n: u32,
}

impl RankSet {
    /// The empty set for `n` ranks.
    pub fn empty(n: usize) -> RankSet {
        assert!(n <= MAX_ANALYSIS_RANKS, "analysis supports n ≤ 128");
        RankSet {
            bits: 0,
            n: n as u32,
        }
    }

    /// The full set `{0, …, n−1}`.
    pub fn full(n: usize) -> RankSet {
        assert!(n <= MAX_ANALYSIS_RANKS, "analysis supports n ≤ 128");
        let bits = if n == 128 {
            u128::MAX
        } else {
            (1u128 << n) - 1
        };
        RankSet { bits, n: n as u32 }
    }

    /// A singleton set.
    pub fn singleton(n: usize, r: usize) -> RankSet {
        let mut s = RankSet::empty(n);
        s.insert(r);
        s
    }

    /// The universe size `n`.
    pub fn universe(&self) -> usize {
        self.n as usize
    }

    /// Inserts a rank.
    ///
    /// # Panics
    ///
    /// Panics if `r ≥ n`.
    pub fn insert(&mut self, r: usize) {
        assert!((r as u32) < self.n, "rank out of range");
        self.bits |= 1u128 << r;
    }

    /// Membership test.
    pub fn contains(&self, r: usize) -> bool {
        (r as u32) < self.n && self.bits & (1u128 << r) != 0
    }

    /// Set union.
    pub fn union(&self, other: &RankSet) -> RankSet {
        assert_eq!(self.n, other.n, "universe mismatch");
        RankSet {
            bits: self.bits | other.bits,
            n: self.n,
        }
    }

    /// Set intersection.
    pub fn intersect(&self, other: &RankSet) -> RankSet {
        assert_eq!(self.n, other.n, "universe mismatch");
        RankSet {
            bits: self.bits & other.bits,
            n: self.n,
        }
    }

    /// `true` if no rank is in the set.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Number of ranks in the set.
    pub fn len(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Iterates over member ranks, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let n = self.n as usize;
        let bits = self.bits;
        (0..n).filter(move |r| bits & (1u128 << r) != 0)
    }
}

impl fmt::Display for RankSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

/// Per-node rank attributes of a CFG, at a concrete `n`.
#[derive(Debug, Clone)]
pub struct NodeAttrs {
    /// `attrs[node.index()]` = ranks that can execute the node.
    attrs: Vec<RankSet>,
    n: usize,
}

impl NodeAttrs {
    /// The attribute of `node`.
    pub fn of(&self, node: NodeId) -> RankSet {
        self.attrs[node.index()]
    }

    /// The analysis `n`.
    pub fn nprocs(&self) -> usize {
        self.n
    }
}

/// Computes node attributes for `n` processes.
///
/// Entry has the full set. An edge out of a branch node keeps rank `r`
/// only if the condition is rank-determined at `r` and its truth value
/// matches the edge label; conditions the analysis cannot resolve
/// (loop counters, input data) impose no constraint. Join is set union;
/// loops iterate to a fixpoint (the lattice is finite and the transfer
/// monotone, so this terminates).
pub fn compute_attrs(cfg: &Cfg, n: usize, iddep: &IdDepInfo) -> NodeAttrs {
    let mut attrs = vec![RankSet::empty(n); cfg.len()];
    attrs[cfg.entry().index()] = RankSet::full(n);
    // Reverse postorder puts a join after both its arms, so a loop-free
    // CFG settles in one sweep (plus the one that sees no change); node
    // ids would need a sweep per `if` in sequence, because a join is
    // numbered before its arms.
    let order = dfs(cfg).reverse_postorder();
    let mut changed = true;
    while changed {
        changed = false;
        for &a in &order {
            if attrs[a.index()].is_empty() {
                continue;
            }
            for &(b, label) in cfg.succs(a) {
                let contribution = constrain_edge(cfg, iddep, a, label, attrs[a.index()]);
                let merged = attrs[b.index()].union(&contribution);
                if merged != attrs[b.index()] {
                    attrs[b.index()] = merged;
                    changed = true;
                }
            }
        }
    }
    NodeAttrs { attrs, n }
}

fn constrain_edge(
    cfg: &Cfg,
    iddep: &IdDepInfo,
    a: NodeId,
    label: EdgeLabel,
    incoming: RankSet,
) -> RankSet {
    let NodeKind::Branch { cond } = &cfg.node(a).kind else {
        return incoming;
    };
    let want_true = match label {
        EdgeLabel::True => true,
        EdgeLabel::False => false,
        EdgeLabel::Seq => return incoming,
    };
    let n = incoming.universe();
    let mut out = RankSet::empty(n);
    for r in incoming.iter() {
        match rank_eval(cond, &iddep.rank_env(a, r, n)) {
            RankVal::Known(v) => {
                if (v != 0) == want_true {
                    out.insert(r);
                }
            }
            // Unresolvable: both outcomes possible for this rank.
            RankVal::Unknown | RankVal::Irregular => out.insert(r),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iddep::analyze_iddep;
    use acfc_cfg::build_cfg;
    use acfc_mpsl::parse;

    fn attrs_for(src: &str, n: usize) -> (acfc_cfg::Cfg, NodeAttrs) {
        let p = parse(src).unwrap();
        let (cfg, lowered) = build_cfg(&p);
        let iddep = analyze_iddep(&cfg, &lowered);
        let a = compute_attrs(&cfg, n, &iddep);
        (cfg, a)
    }

    #[test]
    fn rankset_basics() {
        let mut s = RankSet::empty(8);
        assert!(s.is_empty());
        s.insert(3);
        s.insert(5);
        assert!(s.contains(3));
        assert!(!s.contains(4));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 5]);
        assert_eq!(s.to_string(), "{3,5}");
        let full = RankSet::full(8);
        assert_eq!(full.len(), 8);
        assert_eq!(s.union(&full), full);
        assert_eq!(s.intersect(&full), s);
        assert_eq!(RankSet::singleton(8, 2).len(), 1);
    }

    #[test]
    fn full_at_128_does_not_overflow() {
        let s = RankSet::full(128);
        assert_eq!(s.len(), 128);
        assert!(s.contains(127));
    }

    #[test]
    #[should_panic(expected = "n ≤ 128")]
    fn oversized_universe_panics() {
        let _ = RankSet::full(129);
    }

    #[test]
    fn odd_even_branch_splits_ranks() {
        let (cfg, attrs) = attrs_for(
            "program t;
             if rank % 2 == 0 { send to rank + 1; } else { recv from rank - 1; }",
            6,
        );
        let send = cfg.send_nodes()[0];
        let recv = cfg.recv_nodes()[0];
        assert_eq!(attrs.of(send).iter().collect::<Vec<_>>(), vec![0, 2, 4]);
        assert_eq!(attrs.of(recv).iter().collect::<Vec<_>>(), vec![1, 3, 5]);
        assert_eq!(attrs.of(cfg.entry()).len(), 6);
        assert_eq!(attrs.of(cfg.exit()).len(), 6);
    }

    #[test]
    fn nested_id_branches_intersect() {
        let (cfg, attrs) = attrs_for(
            "program t;
             if rank > 1 {
               if rank < 4 { checkpoint; }
             }",
            6,
        );
        let c = cfg.checkpoint_nodes()[0];
        assert_eq!(attrs.of(c).iter().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn rank_independent_branch_keeps_full_set() {
        let (cfg, attrs) = attrs_for(
            "program t; var x;
             if x > 0 { send to 0; } else { recv from any; }",
            4,
        );
        // `x` is unknown: both arms possible for every rank.
        let send = cfg.send_nodes()[0];
        let recv = cfg.recv_nodes()[0];
        assert_eq!(attrs.of(send).len(), 4);
        assert_eq!(attrs.of(recv).len(), 4);
    }

    #[test]
    fn loop_body_gets_full_set_via_fixpoint() {
        let (cfg, attrs) = attrs_for(
            "program t; var i;
             while i < 3 { checkpoint; i := i + 1; }",
            4,
        );
        let c = cfg.checkpoint_nodes()[0];
        assert_eq!(attrs.of(c).len(), 4);
    }

    #[test]
    fn propagated_variable_constraint_applies() {
        // `me := rank % 2` is resolvable, so `if me == 0` splits ranks.
        let (cfg, attrs) = attrs_for(
            "program t; var me;
             me := rank % 2;
             if me == 0 { send to rank + 1; }",
            4,
        );
        let send = cfg.send_nodes()[0];
        assert_eq!(attrs.of(send).iter().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn irregular_condition_constrains_nothing() {
        let (cfg, attrs) = attrs_for(
            "program t;
             if input(0) % 2 == 0 { send to 0; }",
            4,
        );
        let send = cfg.send_nodes()[0];
        assert_eq!(attrs.of(send).len(), 4);
    }

    #[test]
    fn unreachable_branch_prunes_ranks() {
        let (cfg, attrs) = attrs_for(
            "program t;
             if rank == 0 {
               if rank == 1 { checkpoint; }
             }",
            4,
        );
        let c = cfg.checkpoint_nodes()[0];
        assert!(attrs.of(c).is_empty(), "{}", attrs.of(c));
    }
}
