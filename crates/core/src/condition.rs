//! Phase III, part 1 — checking Condition 1.
//!
//! **Condition 1** (§3.3): if for every `i` there is no path in the
//! extended CFG between any two checkpoint nodes of `S_i`, then in any
//! further execution `R_i` is a recovery line.
//!
//! Two policies are provided:
//!
//! * [`LoopPolicy::Strict`] — Condition 1 verbatim: *any* `Ĝ`-path
//!   between distinct same-index checkpoint nodes is a violation.
//!   Algorithm 3.2 under this policy may move checkpoints out of loops
//!   (the drawback the paper notes).
//! * [`LoopPolicy::Optimized`] — the paper's loop optimization: a path
//!   that crosses a CFG backward edge is tolerated **when both endpoint
//!   checkpoints sit inside loops** (their per-iteration instances are
//!   then aligned by the blocking FIFO semantics and recovery uses
//!   sequence-aligned straight cuts); it is still a violation when
//!   either endpoint is outside every loop — exactly the Figure 6
//!   situation, where B checkpoints once while A's index repeats.
//!
//! The checker reports one witness path per violating pair for
//! diagnostics; Phase III (Algorithm 3.2) consumes the violations'
//! endpoints and skips the path search.

use crate::cuts::CheckpointIndex;
use crate::extended::ExtendedCfg;
use acfc_cfg::{find_path, NodeId};

/// The loop-handling policy for Condition 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoopPolicy {
    /// Condition 1 exactly as stated (no path at all).
    Strict,
    /// The paper's loop optimization (see module docs). Default.
    #[default]
    Optimized,
}

/// A violation of Condition 1: a `Ĝ`-path between two same-index
/// checkpoint nodes.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Path source (`C_i^A` in the paper's notation).
    pub from: NodeId,
    /// Path target (`C_i^B`; Algorithm 3.2 moves this one back).
    pub to: NodeId,
    /// A shared index of the two nodes.
    pub index: u32,
    /// Whether every witness path crosses a CFG backward edge (i.e. the
    /// violation exists only under [`LoopPolicy::Strict`], or because an
    /// endpoint is outside all loops).
    pub only_via_back_edge: bool,
    /// One witness path (node sequence from `from` to `to`), for
    /// diagnostics.
    pub witness: Vec<NodeId>,
}

/// Checks Condition 1 over all same-index checkpoint pairs.
///
/// Returns all violating ordered pairs (empty = the condition holds and
/// Theorem 3.2 applies), each with a witness path.
pub fn check_condition1(
    g: &ExtendedCfg,
    index: &CheckpointIndex,
    policy: LoopPolicy,
) -> Vec<Violation> {
    let mut out = violating_pairs(g, index, policy);
    if out.is_empty() {
        return out;
    }
    let adj_full = g.adjacency_full();
    for v in &mut out {
        v.witness = find_path(&adj_full, v.from.index(), v.to.index(), &|_, _| true)
            .map(|p| p.into_iter().map(|i| NodeId(i as u32)).collect())
            .unwrap_or_default();
    }
    out
}

/// [`check_condition1`] without the path search: every violation's
/// `witness` is left empty. Algorithm 3.2 relocates one checkpoint per
/// round from a violation's endpoints alone, so it asks this.
pub(crate) fn violating_pairs(
    g: &ExtendedCfg,
    index: &CheckpointIndex,
    policy: LoopPolicy,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (a, b) in index.same_index_pairs() {
        for (from, to) in [(a, b), (b, a)] {
            // Only message-crossing paths witness cross-process
            // happened-before (a cut holds one checkpoint per process),
            // so message-free CFG paths between same-index nodes with
            // disjoint attributes are not violations.
            if !g.reaches_via_message(from, to) {
                continue;
            }
            let forward = g.reaches_forward_via_message(from, to);
            let violation = match policy {
                LoopPolicy::Strict => true,
                LoopPolicy::Optimized => forward || !(g.loops.in_loop(from) && g.loops.in_loop(to)),
            };
            if !violation {
                continue;
            }
            out.push(Violation {
                from,
                to,
                index: index.ranges[&from].min.max(index.ranges[&to].min),
                only_via_back_edge: !forward,
                witness: Vec::new(),
            });
        }
    }
    out
}

/// `true` iff Condition 1 holds under the given policy.
pub fn condition1_holds(g: &ExtendedCfg, index: &CheckpointIndex, policy: LoopPolicy) -> bool {
    check_condition1(g, index, policy).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::compute_attrs;
    use crate::cuts::index_checkpoints;
    use crate::iddep::analyze_iddep;
    use crate::matching::{match_send_recv, MatchingMode};
    use acfc_cfg::build_cfg;
    use acfc_mpsl::{parse, programs, Program};

    fn setup(p: &Program, n: usize) -> (ExtendedCfg, CheckpointIndex) {
        let (cfg, lowered) = build_cfg(p);
        let iddep = analyze_iddep(&cfg, &lowered);
        let attrs = compute_attrs(&cfg, n, &iddep);
        let m = match_send_recv(&cfg, &attrs, &iddep, MatchingMode::Conservative);
        let idx = index_checkpoints(&cfg, &lowered);
        (ExtendedCfg::build(cfg, &m), idx)
    }

    #[test]
    fn uniform_jacobi_satisfies_condition1() {
        let p = programs::jacobi(3);
        let (g, idx) = setup(&p, 4);
        assert!(condition1_holds(&g, &idx, LoopPolicy::Optimized));
        // Strictly, the single checkpoint node has no distinct pair, so
        // even Strict holds for Figure 1.
        assert!(condition1_holds(&g, &idx, LoopPolicy::Strict));
    }

    #[test]
    fn fig5_violates_under_both_policies() {
        let p = programs::fig5();
        let (g, idx) = setup(&p, 4);
        let strict = check_condition1(&g, &idx, LoopPolicy::Strict);
        let opt = check_condition1(&g, &idx, LoopPolicy::Optimized);
        assert!(!strict.is_empty());
        assert!(!opt.is_empty());
        // The witness runs A -> send -> recv -> B with no back edge.
        let v = &opt[0];
        assert!(!v.only_via_back_edge);
        assert!(v.witness.len() >= 3);
        assert_eq!(v.witness.first(), Some(&v.from));
        assert_eq!(v.witness.last(), Some(&v.to));
    }

    #[test]
    fn fig2_jacobi_violates() {
        let p = programs::jacobi_odd_even(3);
        let (g, idx) = setup(&p, 4);
        let v = check_condition1(&g, &idx, LoopPolicy::Optimized);
        assert!(!v.is_empty(), "Figure 2's odd/even placement must violate");
        // Exactly the even→odd direction violates within one iteration
        // (even checkpoints, sends; odd receives, checkpoints); the
        // reverse direction only crosses a back edge between *adjacent*
        // indices, which the loop optimization admits.
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v.iter().all(|x| x.index == 1));
        assert!(v.iter().all(|x| !x.only_via_back_edge));
    }

    #[test]
    fn fig6_violates_optimized_because_b_is_loopless() {
        let p = programs::fig6(3);
        let (g, idx) = setup(&p, 4);
        let v = check_condition1(&g, &idx, LoopPolicy::Optimized);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].only_via_back_edge,
            "Figure 6's path crosses the loop's backward edge"
        );
    }

    #[test]
    fn symmetric_loop_exchange_allowed_by_optimization() {
        // chkpt-then-send / chkpt-then-recv in loops on both sides:
        // the only cross paths go through back edges and both endpoints
        // are in loops. Optimized accepts, Strict rejects.
        let p = parse(
            "program t; var i;
             for i in 0..3 {
               if rank % 2 == 0 {
                 checkpoint;
                 send to rank + 1;
                 recv from rank + 1;
               } else {
                 checkpoint;
                 recv from rank - 1;
                 send to rank - 1;
               }
             }",
        )
        .unwrap();
        let (g, idx) = setup(&p, 4);
        let strict = check_condition1(&g, &idx, LoopPolicy::Strict);
        let opt = check_condition1(&g, &idx, LoopPolicy::Optimized);
        assert!(!strict.is_empty(), "back-edge paths exist");
        assert!(strict.iter().all(|v| v.only_via_back_edge));
        assert!(
            opt.is_empty(),
            "loop optimization admits aligned in-loop checkpoints: {opt:?}"
        );
    }

    #[test]
    fn skewed_pipeline_violates_forward() {
        let p = programs::pipeline_skewed(3);
        let (g, idx) = setup(&p, 4);
        let v = check_condition1(&g, &idx, LoopPolicy::Optimized);
        assert!(!v.is_empty());
        assert!(v.iter().any(|x| !x.only_via_back_edge));
    }

    #[test]
    fn no_checkpoints_trivially_holds() {
        let p = parse("program t; send to (rank + 1) % nprocs; recv from (rank - 1) % nprocs;")
            .unwrap();
        let (g, idx) = setup(&p, 4);
        assert!(condition1_holds(&g, &idx, LoopPolicy::Strict));
    }
}
