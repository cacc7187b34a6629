//! Incremental re-analysis across Algorithm 3.2 iterations.
//!
//! Phase III is a fixpoint loop: check Condition 1, relocate one
//! checkpoint, rebuild, repeat. The expensive per-iteration work —
//! ID-dependence dataflow, rank attributes, and Algorithm 3.1 send/recv
//! matching — depends only on the program's *communication structure*,
//! and a checkpoint relocation cannot change that structure: checkpoint
//! statements contain no expressions, no sends, and no receives, so
//! moving or removing one leaves every send/recv statement, its
//! destination/source expressions, and their relative program order
//! untouched. Only node **identities** change when the CFG is rebuilt.
//!
//! [`ReanalysisCache`] exploits this: it records the Phase II matching
//! once, with each edge endpoint expressed as an *ordinal* (the k-th
//! send node / k-th recv node in CFG creation order, which follows the
//! program's pre-order traversal), and replays it against every rebuilt
//! CFG by mapping ordinals back to the new node ids. The invalidation
//! rule is conservative: if the rebuilt CFG's send or receive node
//! counts differ from the cached signature — something other than a
//! checkpoint edit happened — the cache refuses and the caller recomputes
//! from scratch.

use crate::matching::{match_send_recv, Matching, MatchingMode, MessageEdge};
use crate::{analyze_iddep_at, compute_attrs};
use acfc_cfg::{Cfg, NodeId};
use acfc_mpsl::Program;

/// A replayable Phase II result, keyed on the communication-structure
/// signature of the CFG it was computed from.
#[derive(Debug, Clone)]
pub struct ReanalysisCache {
    send_count: usize,
    recv_count: usize,
    /// `(send_ordinal, recv_ordinal)` per message edge.
    edges: Vec<(usize, usize)>,
    /// Witnesses of the original matching, parallel to `edges`.
    witnesses: Vec<crate::matching::MatchWitness>,
    /// Ordinals of receives that had no matching send.
    unmatched_recvs: Vec<usize>,
}

impl ReanalysisCache {
    /// Runs Phase II in full (ID-dependence, attributes, matching) and
    /// returns the matching together with a cache that can replay it on
    /// later CFGs of checkpoint-edited variants of the same program.
    pub fn compute(
        cfg: &Cfg,
        lowered: &Program,
        nprocs: usize,
        mode: MatchingMode,
    ) -> (ReanalysisCache, Matching) {
        // Branches are classified at the analysis `n`, not at a fixed
        // sample: `rank % 16 < 8` is uniform over 8 ranks and not over 64.
        let iddep = analyze_iddep_at(cfg, lowered, nprocs.max(2));
        let attrs = compute_attrs(cfg, nprocs, &iddep);
        let matching = match_send_recv(cfg, &attrs, &iddep, mode);
        let cache = ReanalysisCache::from_matching(cfg, &matching);
        (cache, matching)
    }

    /// Encodes an existing matching as ordinals against its own CFG.
    pub fn from_matching(cfg: &Cfg, matching: &Matching) -> ReanalysisCache {
        let sends = cfg.send_nodes();
        let recvs = cfg.recv_nodes();
        let send_ord = ordinal_map(&sends);
        let recv_ord = ordinal_map(&recvs);
        let edges = matching
            .edges
            .iter()
            .map(|e| (send_ord(e.send), recv_ord(e.recv)))
            .collect();
        let unmatched_recvs = matching
            .unmatched_recvs
            .iter()
            .map(|&r| recv_ord(r))
            .collect();
        ReanalysisCache {
            send_count: sends.len(),
            recv_count: recvs.len(),
            edges,
            witnesses: matching.witnesses.clone(),
            unmatched_recvs,
        }
    }

    /// Replays the cached matching against a rebuilt CFG, remapping
    /// every edge endpoint by ordinal. Returns `None` when the CFG's
    /// communication signature no longer matches the cache (the caller
    /// must recompute — and should refresh the cache).
    pub fn matching_for(&self, cfg: &Cfg) -> Option<Matching> {
        let sends = cfg.send_nodes();
        let recvs = cfg.recv_nodes();
        if sends.len() != self.send_count || recvs.len() != self.recv_count {
            return None;
        }
        let edges: Vec<MessageEdge> = self
            .edges
            .iter()
            .map(|&(s, r)| MessageEdge {
                send: sends[s],
                recv: recvs[r],
            })
            .collect();
        let witnesses = self
            .witnesses
            .iter()
            .zip(&edges)
            .map(|(w, &edge)| crate::matching::MatchWitness { edge, ..w.clone() })
            .collect();
        Some(Matching {
            edges,
            witnesses,
            unmatched_recvs: self.unmatched_recvs.iter().map(|&r| recvs[r]).collect(),
        })
    }
}

/// NodeId → position within a creation-ordered (hence id-sorted) node
/// list.
fn ordinal_map(nodes: &[NodeId]) -> impl Fn(NodeId) -> usize + '_ {
    move |id| {
        nodes
            .binary_search(&id)
            .expect("matching references a node absent from its own CFG")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_iddep;
    use acfc_cfg::{build_cfg, build_cfg_prelowered};
    use acfc_mpsl::{parse, programs, Stmt, StmtKind};

    fn full_matching(cfg: &Cfg, lowered: &Program, n: usize) -> Matching {
        let iddep = analyze_iddep(cfg, lowered);
        let attrs = compute_attrs(cfg, n, &iddep);
        match_send_recv(cfg, &attrs, &iddep, MatchingMode::FifoOrdered)
    }

    #[test]
    fn replay_on_same_cfg_is_identity() {
        let p = programs::jacobi_odd_even(3);
        let (cfg, lowered) = build_cfg(&p);
        let (cache, matching) =
            ReanalysisCache::compute(&cfg, &lowered, 4, MatchingMode::FifoOrdered);
        let replayed = cache.matching_for(&cfg).expect("signature matches");
        assert_eq!(replayed.edges, matching.edges);
        assert_eq!(replayed.unmatched_recvs, matching.unmatched_recvs);
        assert_eq!(replayed.witnesses.len(), matching.witnesses.len());
    }

    #[test]
    fn replay_after_checkpoint_move_equals_full_recompute() {
        let p = programs::fig5();
        let (cfg, mut lowered) = build_cfg(&p);
        let (cache, _) = ReanalysisCache::compute(&cfg, &lowered, 4, MatchingMode::FifoOrdered);
        // Simulate an Algorithm 3.2 edit: pull the first checkpoint
        // statement out of wherever it is and put it at program start.
        let ckpt_ids = lowered.checkpoint_ids();
        let moved =
            crate::phase3::remove_stmt(&mut lowered.body, ckpt_ids[0]).expect("checkpoint exists");
        lowered.body.insert(0, moved);
        lowered.renumber();
        let cfg2 = build_cfg_prelowered(&lowered);
        let replayed = cache.matching_for(&cfg2).expect("comm structure unchanged");
        let recomputed = full_matching(&cfg2, &lowered, 4);
        assert_eq!(replayed.edges, recomputed.edges);
        assert_eq!(replayed.unmatched_recvs, recomputed.unmatched_recvs);
    }

    #[test]
    fn replay_after_checkpoint_removal_still_valid() {
        let p = programs::jacobi_odd_even(2);
        let (cfg, mut lowered) = build_cfg(&p);
        let (cache, _) = ReanalysisCache::compute(&cfg, &lowered, 4, MatchingMode::FifoOrdered);
        let ckpt_ids = lowered.checkpoint_ids();
        let _ = crate::phase3::remove_stmt(&mut lowered.body, ckpt_ids[0]);
        lowered.renumber();
        let cfg2 = build_cfg_prelowered(&lowered);
        let replayed = cache.matching_for(&cfg2).expect("comm structure unchanged");
        let recomputed = full_matching(&cfg2, &lowered, 4);
        assert_eq!(replayed.edges, recomputed.edges);
    }

    #[test]
    fn signature_mismatch_is_refused() {
        let p = parse("program t; if rank == 0 { send to 1; } else { recv from 0; }").unwrap();
        let (cfg, lowered) = build_cfg(&p);
        let (cache, _) = ReanalysisCache::compute(&cfg, &lowered, 2, MatchingMode::FifoOrdered);
        // Add a second send: the comm signature changes.
        let mut grown = lowered.clone();
        grown.body.push(Stmt::new(StmtKind::Send {
            dest: acfc_mpsl::Expr::Int(1),
            size_bits: acfc_mpsl::Expr::Int(8),
        }));
        grown.renumber();
        let cfg2 = build_cfg_prelowered(&grown);
        assert!(cache.matching_for(&cfg2).is_none());
    }
}
