//! Property tests for the CFG machinery on randomly generated
//! structured programs: the CHK dominator algorithm against the naive
//! fixpoint, loop/back-edge invariants, reachability against path
//! finding, SCC-condensed closure against the per-node BFS oracle, and
//! structural invariants of construction.

use acfc_cfg::{build_cfg, dominators, dominators_naive, find_path, loop_info, Cfg, NodeId, Reach};
use acfc_mpsl::{Expr, Program, Stmt, StmtKind};
use acfc_util::check::{forall, Gen};

/// Random structured statement trees (control flow only; the leaf
/// statements don't matter for graph algorithms).
fn arb_stmt(g: &mut Gen, depth: u32) -> Stmt {
    let leaf = |g: &mut Gen| match g.usize_in(0, 4) {
        0 => Stmt::new(StmtKind::Compute { cost: Expr::Int(1) }),
        1 => Stmt::new(StmtKind::Checkpoint { label: None }),
        2 => Stmt::new(StmtKind::Send {
            dest: Expr::Int(0),
            size_bits: Expr::Int(8),
        }),
        _ => Stmt::new(StmtKind::Recv {
            src: acfc_mpsl::RecvSrc::Any,
        }),
    };
    if depth == 0 || g.prob(0.4) {
        return leaf(g);
    }
    match g.usize_in(0, 3) {
        0 => Stmt::new(StmtKind::If {
            cond: Expr::Rank,
            then_branch: g.vec_of(0, 4, |g| arb_stmt(g, depth - 1)),
            else_branch: g.vec_of(0, 4, |g| arb_stmt(g, depth - 1)),
        }),
        1 => Stmt::new(StmtKind::While {
            cond: Expr::Var("i".into()),
            body: g.vec_of(0, 4, |g| arb_stmt(g, depth - 1)),
        }),
        _ => Stmt::new(StmtKind::For {
            var: "i".into(),
            from: Expr::Int(0),
            to: Expr::Int(3),
            body: g.vec_of(1, 4, |g| arb_stmt(g, depth - 1)),
        }),
    }
}

fn arb_body(g: &mut Gen) -> Vec<Stmt> {
    g.vec_of(0, 8, |g| arb_stmt(g, 4))
}

fn arb_cfg(g: &mut Gen) -> Cfg {
    let p = Program::new("g", vec![], vec!["i".into()], arb_body(g));
    build_cfg(&p).0
}

fn adjacency(cfg: &Cfg) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); cfg.len()];
    for (a, b, _) in cfg.edges() {
        adj[a.index()].push(b.index());
    }
    adj
}

#[test]
fn construction_invariants_hold() {
    forall("construction_invariants_hold", 64, |g| {
        let cfg = arb_cfg(g);
        assert_eq!(cfg.check_invariants(), Ok(()));
        // Exit reachable from entry.
        let adj = adjacency(&cfg);
        let r = Reach::compute(&adj);
        assert!(r.reachable_or_eq(cfg.entry().index(), cfg.exit().index()));
    });
}

#[test]
fn fast_dominators_match_naive() {
    forall("fast_dominators_match_naive", 64, |g| {
        let cfg = arb_cfg(g);
        let fast = dominators(&cfg);
        let slow = dominators_naive(&cfg);
        for a in cfg.node_ids() {
            for b in cfg.node_ids() {
                assert_eq!(
                    fast.dominates(a, b),
                    slow[b.index()][a.index()],
                    "dominates({a},{b})"
                );
            }
        }
    });
}

#[test]
fn back_edge_targets_are_loop_headers_dominating_their_latch() {
    forall(
        "back_edge_targets_are_loop_headers_dominating_their_latch",
        64,
        |g| {
            let cfg = arb_cfg(g);
            let dom = dominators(&cfg);
            let li = loop_info(&cfg);
            for &(latch, header, _) in &li.back_edges {
                assert!(dom.dominates(header, latch));
            }
            for l in &li.loops {
                assert!(l.contains(l.header));
                assert!(l.contains(l.back_edge.0));
                // Every member is dominated by the header.
                for m in cfg.node_ids().filter(|&m| l.contains(m)) {
                    assert!(dom.dominates(l.header, m));
                }
            }
        },
    );
}

#[test]
fn reach_agrees_with_path_finding() {
    forall("reach_agrees_with_path_finding", 64, |g| {
        let cfg = arb_cfg(g);
        let adj = adjacency(&cfg);
        let r = Reach::compute(&adj);
        for a in cfg.node_ids() {
            for b in cfg.node_ids() {
                let has_path = find_path(&adj, a.index(), b.index(), &|_, _| true).is_some();
                assert_eq!(
                    r.reachable(a.index(), b.index()),
                    has_path,
                    "reach vs path at ({a},{b})"
                );
            }
        }
    });
}

/// The SCC-condensed closure equals the per-node BFS oracle, on raw
/// random digraphs (not just CFG-shaped ones): arbitrary density, self
/// loops, unreachable parts, multi-edges.
/// The per-node BFS closure `Reach::compute` replaced; `O(V·(V+E))`.
/// Returns one bitset row per node in `Reach::row`'s word layout, so
/// the two compare row for row (padding bits included).
fn naive_closure(succs: &[Vec<usize>]) -> Vec<Vec<u64>> {
    let n = succs.len();
    let words = n.div_ceil(64);
    let mut rows = vec![vec![0u64; words]; n];
    let mut stack = Vec::new();
    let mut seen = vec![false; n];
    for (start, row) in rows.iter_mut().enumerate() {
        seen.iter_mut().for_each(|b| *b = false);
        stack.clear();
        for &s in &succs[start] {
            if !seen[s] {
                seen[s] = true;
                stack.push(s);
            }
        }
        while let Some(x) = stack.pop() {
            row[x / 64] |= 1u64 << (x % 64);
            for &s in &succs[x] {
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
    }
    rows
}

#[test]
fn condensed_closure_matches_naive_bfs_on_random_digraphs() {
    forall("condensed_closure_matches_naive_bfs", 128, |g| {
        let n = g.usize_in(1, 40);
        let mut succs = vec![Vec::new(); n];
        let density = g.f64_in(0.02, 0.35);
        for row in &mut succs {
            for b in 0..n {
                if g.prob(density) {
                    row.push(b);
                }
            }
            // Occasional duplicate edge to exercise multi-edge handling.
            if g.prob(0.1) && !row.is_empty() {
                let dup = row[0];
                row.push(dup);
            }
        }
        let condensed = Reach::compute(&succs);
        let naive = naive_closure(&succs);
        assert_eq!(condensed.len(), naive.len());
        for (i, row) in naive.iter().enumerate() {
            assert_eq!(condensed.row(i), &row[..], "row {i} differs (n={n})");
        }
    });
}

#[test]
fn dominator_chains_are_consistent() {
    forall("dominator_chains_are_consistent", 64, |g| {
        let cfg = arb_cfg(g);
        let dom = dominators(&cfg);
        for n in cfg.node_ids() {
            let chain = dom.chain(n);
            if chain.is_empty() {
                continue;
            }
            assert_eq!(chain[0], cfg.entry());
            assert_eq!(*chain.last().unwrap(), n);
            for w in chain.windows(2) {
                assert_eq!(dom.idom(w[1]), Some(w[0]));
                assert!(dom.dominates(w[0], w[1]));
            }
        }
    });
}

#[test]
fn checkpoint_nodes_match_statement_count() {
    forall("checkpoint_nodes_match_statement_count", 64, |g| {
        let p = Program::new("g", vec![], vec!["i".into()], arb_body(g));
        let (cfg, lowered) = build_cfg(&p);
        assert_eq!(cfg.checkpoint_nodes().len(), lowered.checkpoint_ids().len());
        assert_eq!(cfg.send_nodes().len(), lowered.send_ids().len());
        assert_eq!(cfg.recv_nodes().len(), lowered.recv_ids().len());
    });
}

/// The helper `NodeId` ordering is stable under arena growth.
#[test]
fn node_ids_are_ordered_by_insertion() {
    let p = Program::new(
        "g",
        vec![],
        vec![],
        vec![
            Stmt::new(StmtKind::Compute { cost: Expr::Int(1) }),
            Stmt::new(StmtKind::Checkpoint { label: None }),
        ],
    );
    let (cfg, _) = build_cfg(&p);
    let ids: Vec<NodeId> = cfg.node_ids().collect();
    let mut sorted = ids.clone();
    sorted.sort();
    assert_eq!(ids, sorted);
}
