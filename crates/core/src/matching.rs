//! Phase II — matching send and receive nodes (Algorithm 3.1).
//!
//! For every `recv` node, find the `send` node(s) that could have
//! produced the message it consumes, by comparing the *source attribute*
//! (which ranks can execute the receive, and which sender its `source`
//! parameter names) against each candidate send's *destination
//! attribute*. A pair matches when the attributes do not contradict:
//!
//! > ∃ sender rank `p`, receiver rank `q`, `p ≠ q`, such that `p` can
//! > execute the send, `q` can execute the receive, the send's
//! > destination at `p` is `q` (or irregular/unresolvable), and the
//! > receive's source at `q` is `p` (or irregular/unresolvable).
//!
//! Irregular patterns (§3.2) — parameters involving `input(·)` or
//! `recv from any` — match every non-contradicting candidate; regular
//! patterns can optionally follow the paper's "prefer not-yet-matched
//! sends" rule ([`MatchingMode::PreferUnmatched`]). The default,
//! [`MatchingMode::Conservative`], matches all non-contradicting pairs —
//! an over-approximation that preserves Lemma 3.1 (the true sender is
//! always among the matches) and errs toward more message edges, i.e.
//! toward *more* conservative checkpoint placement in Phase III.

use crate::attr::{NodeAttrs, RankSet};
use crate::iddep::IdDepInfo;
use acfc_cfg::{dfs, Cfg, NodeId, NodeKind};
use acfc_mpsl::{rank_eval, Expr, RankVal, RecvSrc};
use std::collections::{HashMap, HashSet};

/// How aggressively to match (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchingMode {
    /// Match every non-contradicting (send, recv) pair. Sound
    /// over-approximation, but imprecise: in programs with several
    /// communication phases it cross-matches phase `k`'s sends with
    /// phase `j ≠ k`'s receives, which FIFO channels rule out, and the
    /// spurious edges can make Condition 1 unsatisfiable.
    Conservative,
    /// Algorithm 3.1 as written: a regular receive prefers send nodes
    /// that are not yet matched, falling back to matched ones only when
    /// no unmatched candidate exists (preserving Lemma 3.1).
    PreferUnmatched,
    /// Per-channel FIFO sequence matching (the default). Under the §2
    /// model — reliable FIFO channels, blocking receives, deterministic
    /// SPMD — the `k`-th receive on channel `(p, q)` consumes exactly
    /// the `k`-th send on it. For every concrete rank pair the matcher
    /// therefore lists the channel's send and receive statements in
    /// program order and pairs them positionally; a channel whose
    /// statements cannot all be resolved exactly (irregular or unknown
    /// patterns) or whose send/receive statement counts differ falls
    /// back to all-pairs matching, preserving Lemma 3.1.
    #[default]
    FifoOrdered,
}

/// A message edge `send → recv` in the extended CFG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MessageEdge {
    /// The send node.
    pub send: NodeId,
    /// The recv node.
    pub recv: NodeId,
}

/// One matching decision with its witness, for diagnostics.
#[derive(Debug, Clone)]
pub struct MatchWitness {
    /// The matched edge.
    pub edge: MessageEdge,
    /// A `(sender_rank, receiver_rank)` pair realising the match.
    pub witness: (usize, usize),
    /// `true` if either side's pattern was irregular or unresolvable.
    pub irregular: bool,
}

/// Result of Phase II.
#[derive(Debug, Clone)]
pub struct Matching {
    /// All message edges found.
    pub edges: Vec<MessageEdge>,
    /// Witnesses, parallel to `edges`.
    pub witnesses: Vec<MatchWitness>,
    /// Receive nodes with no matching send at all (in a correct SPMD
    /// program this indicates a receive that can never be satisfied at
    /// this `n` — surfaced as a diagnostic).
    pub unmatched_recvs: Vec<NodeId>,
}

/// Where a statement's peer expression (a send's destination, a
/// receive's source) points at one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Peer {
    /// Exactly this rank (`< n ≤ MAX_ANALYSIS_RANKS`, so it fits).
    Exactly(u8),
    /// Irregular or unresolvable: possibly any rank.
    AnyRank,
    /// The rank cannot execute the statement, or the expression
    /// evaluates outside `0..n`.
    Nowhere,
}

impl Peer {
    /// `Some(exact)` if a message to/from `rank` is possible.
    fn admits(self, rank: usize) -> Option<bool> {
        match self {
            Peer::Exactly(v) => (usize::from(v) == rank).then_some(true),
            Peer::AnyRank => Some(false),
            Peer::Nowhere => None,
        }
    }
}

/// One side of the program's communication — all its sends, or all its
/// receives — with every peer expression evaluated once per rank that
/// can execute the statement. A destination depends only on the sender's
/// rank and a source only on the receiver's, so this is all the
/// rank-expression evaluation matching needs: at most `n` per statement.
struct Side {
    /// The statements' nodes, in program (source) order.
    nodes: Vec<NodeId>,
    /// `at[i][rank]`: where `nodes[i]`'s peer expression points.
    at: Vec<Vec<Peer>>,
    /// `reach[rank]`: the peers `rank`'s statements may address.
    reach: Vec<RankSet>,
    /// Rank-expression evaluations performed.
    evals: usize,
}

impl Side {
    /// Resolves the statements among `reachable` that `peer_expr` selects
    /// (`Some(None)` for a wildcard peer, `None` for other nodes).
    fn resolve<'c>(
        cfg: &'c Cfg,
        reachable: &[NodeId],
        attrs: &NodeAttrs,
        iddep: &IdDepInfo,
        peer_expr: impl Fn(&'c NodeKind) -> Option<Option<&'c Expr>>,
    ) -> Side {
        let n = attrs.nprocs();
        // Order the statements by *statement* id — i.e. source order.
        // CFG depth-first preorder dives through one branch arm into
        // everything after the join before visiting the sibling arm,
        // which is not the order in which a process executes
        // statements; FIFO pairing must follow program order.
        let mut nodes: Vec<NodeId> = reachable
            .iter()
            .copied()
            .filter(|&id| peer_expr(&cfg.node(id).kind).is_some())
            .collect();
        nodes.sort_by_key(|&id| cfg.node(id).stmt.expect("comm nodes carry stmt ids"));
        let mut reach = vec![RankSet::empty(n); n];
        let mut evals = 0;
        let at = nodes
            .iter()
            .map(|&id| {
                let expr = peer_expr(&cfg.node(id).kind).expect("filtered above");
                let mut row = vec![Peer::Nowhere; n];
                for rank in attrs.of(id).iter() {
                    let peer = match expr {
                        None => Peer::AnyRank,
                        Some(expr) => {
                            evals += 1;
                            match rank_eval(expr, &iddep.rank_env(id, rank, n)) {
                                RankVal::Known(v) if v >= 0 && (v as usize) < n => {
                                    Peer::Exactly(v as u8)
                                }
                                RankVal::Known(_) => Peer::Nowhere,
                                RankVal::Unknown | RankVal::Irregular => Peer::AnyRank,
                            }
                        }
                    };
                    match peer {
                        Peer::Exactly(v) => reach[rank].insert(usize::from(v)),
                        Peer::AnyRank => reach[rank] = RankSet::full(n),
                        Peer::Nowhere => {}
                    }
                    row[rank] = peer;
                }
                row
            })
            .collect();
        Side {
            nodes,
            at,
            reach,
            evals,
        }
    }

    fn sends(cfg: &Cfg, reachable: &[NodeId], attrs: &NodeAttrs, iddep: &IdDepInfo) -> Side {
        Side::resolve(cfg, reachable, attrs, iddep, |kind| match kind {
            NodeKind::Send { dest, .. } => Some(Some(dest)),
            _ => None,
        })
    }

    fn recvs(cfg: &Cfg, reachable: &[NodeId], attrs: &NodeAttrs, iddep: &IdDepInfo) -> Side {
        Side::resolve(cfg, reachable, attrs, iddep, |kind| match kind {
            NodeKind::Recv {
                src: RecvSrc::Rank(e),
            } => Some(Some(e)),
            NodeKind::Recv { src: RecvSrc::Any } => Some(None),
            _ => None,
        })
    }

    /// The statements of `rank` that may address `peer`, in program
    /// order, each with whether it names `peer` exactly.
    fn channel(&self, rank: usize, peer: usize) -> Vec<(NodeId, bool)> {
        self.nodes
            .iter()
            .zip(&self.at)
            .filter_map(|(&id, row)| row[rank].admits(peer).map(|exact| (id, exact)))
            .collect()
    }
}

fn is_irregular_side(expr: &Expr) -> bool {
    expr.mentions_input()
}

/// Runs Algorithm 3.1 on a CFG with precomputed attributes.
pub fn match_send_recv(
    cfg: &Cfg,
    attrs: &NodeAttrs,
    iddep: &IdDepInfo,
    mode: MatchingMode,
) -> Matching {
    // Only nodes reachable from entry take part (DFS, as the algorithm
    // prescribes).
    let reachable = dfs(cfg).preorder;
    let sends = Side::sends(cfg, &reachable, attrs, iddep);
    let recvs = Side::recvs(cfg, &reachable, attrs, iddep);
    acfc_obs::count(
        "core/matching/rank_evals",
        (sends.evals + recvs.evals) as u64,
    );
    match mode {
        MatchingMode::FifoOrdered => match_fifo_ordered(&sends, &recvs),
        MatchingMode::Conservative | MatchingMode::PreferUnmatched => {
            match_all_pairs(cfg, &sends, &recvs, mode)
        }
    }
}

/// Algorithm 3.1 proper: every receive against every send
/// ([`MatchingMode::Conservative`] / [`MatchingMode::PreferUnmatched`]).
fn match_all_pairs(cfg: &Cfg, sends: &Side, recvs: &Side, mode: MatchingMode) -> Matching {
    let mut edges = Vec::new();
    let mut witnesses = Vec::new();
    let mut unmatched_recvs = Vec::new();
    let mut send_matched: HashMap<NodeId, bool> = sends.nodes.iter().map(|&s| (s, false)).collect();

    for (&r, src_at) in recvs.nodes.iter().zip(&recvs.at) {
        let NodeKind::Recv { src } = &cfg.node(r).kind else {
            unreachable!()
        };
        let recv_irregular = src.is_irregular();
        // Candidate evaluation for every send.
        let mut candidates: Vec<(NodeId, (usize, usize), bool)> = Vec::new();
        for (&s, dest_at) in sends.nodes.iter().zip(&sends.at) {
            let NodeKind::Send { dest, .. } = &cfg.node(s).kind else {
                unreachable!()
            };
            let send_irregular = is_irregular_side(dest);
            // First sender rank p and receiver rank q ≠ p such that the
            // send's destination attribute at p admits q and the
            // receive's source attribute at q admits p.
            let found = dest_at.iter().enumerate().find_map(|(p, dest)| {
                (0..src_at.len())
                    .find(|&q| p != q && dest.admits(q).is_some() && src_at[q].admits(p).is_some())
                    .map(|q| (p, q))
            });
            if let Some(w) = found {
                candidates.push((s, w, recv_irregular || send_irregular));
            }
        }
        if candidates.is_empty() {
            unmatched_recvs.push(r);
            continue;
        }
        let chosen = if mode == MatchingMode::PreferUnmatched && !recv_irregular {
            // A regular receive prefers sends no earlier receive took;
            // irregular receives match all candidates (step 3, first
            // bullet).
            let unmatched: Vec<_> = candidates
                .iter()
                .filter(|(s, _, irr)| *irr || !send_matched[s])
                .cloned()
                .collect();
            if unmatched.is_empty() {
                // Fall back to everything so Lemma 3.1 holds.
                candidates
            } else {
                unmatched
            }
        } else {
            candidates
        };
        for (s, witness, irregular) in chosen {
            send_matched.insert(s, true);
            edges.push(MessageEdge { send: s, recv: r });
            witnesses.push(MatchWitness {
                edge: MessageEdge { send: s, recv: r },
                witness,
                irregular,
            });
        }
    }
    Matching {
        edges,
        witnesses,
        unmatched_recvs,
    }
}

/// Per-channel FIFO sequence matching (see [`MatchingMode::FifoOrdered`]).
fn match_fifo_ordered(sends: &Side, recvs: &Side) -> Matching {
    let n = sends.reach.len();
    let mut edges: Vec<MessageEdge> = Vec::new();
    let mut witnesses: Vec<MatchWitness> = Vec::new();
    let mut seen: HashSet<(NodeId, NodeId)> = HashSet::new();
    let mut push = |s: NodeId, r: NodeId, witness: (usize, usize), irregular: bool| {
        if seen.insert((s, r)) {
            edges.push(MessageEdge { send: s, recv: r });
            witnesses.push(MatchWitness {
                edge: MessageEdge { send: s, recv: r },
                witness,
                irregular,
            });
        }
    };

    for p in 0..n {
        for q in 0..n {
            // Most channels carry nothing: skip them without listing.
            if p == q || !sends.reach[p].contains(q) || !recvs.reach[q].contains(p) {
                continue;
            }
            // The channel's send statements at sender rank p and its
            // receive statements at receiver rank q, with whether each
            // resolves exactly to the other end.
            let chan_sends = sends.channel(p, q);
            let chan_recvs = recvs.channel(q, p);
            let all_exact =
                chan_sends.iter().all(|&(_, e)| e) && chan_recvs.iter().all(|&(_, e)| e);
            if all_exact && chan_sends.len() == chan_recvs.len() {
                // FIFO positional pairing.
                for (&(s, _), &(r, _)) in chan_sends.iter().zip(&chan_recvs) {
                    push(s, r, (p, q), false);
                }
            } else {
                // Irregular membership or count mismatch: all pairs
                // (Lemma 3.1 fallback).
                for &(s, se) in &chan_sends {
                    for &(r, re) in &chan_recvs {
                        push(s, r, (p, q), !(se && re));
                    }
                }
            }
        }
    }
    let matched: HashSet<NodeId> = edges.iter().map(|e| e.recv).collect();
    let unmatched_recvs = recvs
        .nodes
        .iter()
        .copied()
        .filter(|r| !matched.contains(r))
        .collect();
    Matching {
        edges,
        witnesses,
        unmatched_recvs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::compute_attrs;
    use crate::iddep::analyze_iddep;
    use acfc_cfg::build_cfg;
    use acfc_mpsl::parse;

    fn matched(src: &str, n: usize, mode: MatchingMode) -> (acfc_cfg::Cfg, Matching) {
        let p = parse(src).unwrap();
        let (cfg, lowered) = build_cfg(&p);
        let iddep = analyze_iddep(&cfg, &lowered);
        let attrs = compute_attrs(&cfg, n, &iddep);
        let m = match_send_recv(&cfg, &attrs, &iddep, mode);
        (cfg, m)
    }

    #[test]
    fn simple_pair_matches() {
        let (cfg, m) = matched(
            "program t;
             if rank == 0 { send to 1; } else { recv from 0; }",
            2,
            MatchingMode::Conservative,
        );
        assert_eq!(m.edges.len(), 1);
        assert_eq!(m.edges[0].send, cfg.send_nodes()[0]);
        assert_eq!(m.edges[0].recv, cfg.recv_nodes()[0]);
        assert_eq!(m.witnesses[0].witness, (0, 1));
        assert!(m.unmatched_recvs.is_empty());
    }

    #[test]
    fn contradicting_parameters_do_not_match() {
        // The recv names source 2, but the send targets rank 1.
        let (_, m) = matched(
            "program t;
             if rank == 0 { send to 1; } else { recv from 2; }",
            4,
            MatchingMode::Conservative,
        );
        assert!(m.edges.is_empty());
        assert_eq!(m.unmatched_recvs.len(), 1);
    }

    #[test]
    fn self_messages_never_match() {
        // dest == source rank for every rank: p == q always.
        let (_, m) = matched(
            "program t; send to rank; recv from rank;",
            4,
            MatchingMode::Conservative,
        );
        assert!(m.edges.is_empty());
    }

    #[test]
    fn jacobi_ring_matches_neighbours() {
        // Uniform Jacobi: sends to both neighbours, recvs from both.
        let (cfg, m) = matched(
            "program t; var i;
             for i in 0..3 {
               send to (rank + 1) % nprocs;
               send to (rank - 1) % nprocs;
               recv from (rank - 1) % nprocs;
               recv from (rank + 1) % nprocs;
             }",
            4,
            MatchingMode::Conservative,
        );
        // Each recv matches exactly the one compatible send.
        assert_eq!(m.edges.len(), 2, "{:?}", m.edges);
        let sends = cfg.send_nodes();
        let recvs = cfg.recv_nodes();
        // send-to-right matches recv-from-left and vice versa.
        assert!(m.edges.contains(&MessageEdge {
            send: sends[0],
            recv: recvs[0]
        }));
        assert!(m.edges.contains(&MessageEdge {
            send: sends[1],
            recv: recvs[1]
        }));
    }

    #[test]
    fn recv_any_matches_all_sends() {
        let (_, m) = matched(
            "program t;
             if rank == 0 { recv from any; recv from any; } else { send to 0; }",
            3,
            MatchingMode::Conservative,
        );
        // Both `recv from any` match the one send node.
        assert_eq!(m.edges.len(), 2);
        assert!(m.witnesses.iter().all(|w| w.irregular));
    }

    #[test]
    fn irregular_send_matches_conservatively() {
        let (_, m) = matched(
            "program t;
             if rank == 0 { send to 1 + input(0); } else { recv from 0; }",
            4,
            MatchingMode::Conservative,
        );
        assert_eq!(m.edges.len(), 1);
        assert!(m.witnesses[0].irregular);
    }

    #[test]
    fn prefer_unmatched_limits_regular_fanout() {
        // Two identical regular sends, two identical regular recvs.
        let src = "program t;
             if rank == 0 { send to 1; send to 1; } else {
               if rank == 1 { recv from 0; recv from 0; } }";
        let (_, conservative) = matched(src, 2, MatchingMode::Conservative);
        let (_, prefer) = matched(src, 2, MatchingMode::PreferUnmatched);
        // Conservative: all 4 pairs. PreferUnmatched: first recv takes
        // both unmatched sends? No: it matches all unmatched candidates
        // (2), then the second recv falls back to matched ones (2).
        assert_eq!(conservative.edges.len(), 4);
        assert!(prefer.edges.len() <= conservative.edges.len());
        // Lemma 3.1: every recv retains at least one match.
        assert!(prefer.unmatched_recvs.is_empty());
    }

    #[test]
    fn fig4_odd_even_jacobi_cross_matches() {
        // Figure 4: even sends match odd recvs and vice versa (plus
        // even-even / odd-odd neighbour pairs where they exist at n=4:
        // with ring neighbours, parity alternates, so matches are
        // strictly cross-parity).
        let p = acfc_mpsl::programs::jacobi_odd_even(2);
        let (cfg, lowered) = build_cfg(&p);
        let iddep = analyze_iddep(&cfg, &lowered);
        let attrs = compute_attrs(&cfg, 4, &iddep);
        let m = match_send_recv(&cfg, &attrs, &iddep, MatchingMode::Conservative);
        assert!(!m.edges.is_empty());
        assert!(m.unmatched_recvs.is_empty());
        // Every edge crosses the parity branch: the send and recv are in
        // different arms of the odd/even if.
        for e in &m.edges {
            let s_even = attrs.of(e.send).contains(0);
            let r_even = attrs.of(e.recv).contains(0);
            assert_ne!(s_even, r_even, "edge {:?} does not cross parity arms", e);
        }
    }

    #[test]
    fn out_of_range_destination_never_matches() {
        let (_, m) = matched(
            "program t;
             if rank == 0 { send to nprocs + 5; } else { recv from 0; }",
            3,
            MatchingMode::Conservative,
        );
        assert!(m.edges.is_empty());
    }
}
