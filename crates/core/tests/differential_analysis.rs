//! Differential tests of the ID-dependence dataflow and the send/recv
//! matcher against the implementations they replaced.
//!
//! The references in [`oracle`] are the earlier code kept verbatim in
//! spirit: a round-robin fixpoint over per-node `HashMap<String, Expr>`
//! environments whose bindings are fully substituted trees, an
//! evaluator that walks those trees, and matchers that resolve every
//! send and receive again for every rank pair. They are quadratic and
//! obviously right; the library versions must give the same
//! environments, the same branch classes, and the same message edges
//! **in the same order** with the same witnesses — Phase III's move
//! trajectory, and so the transformed program, follows from that order.

use acfc_cfg::{build_cfg, Cfg};
use acfc_core::{
    analyze_iddep_at, compute_attrs, match_send_recv, BranchClass, Matching, MatchingMode,
};
use acfc_mpsl::{parse, programs, BinOp, Expr, Program, RecvSrc, Stmt, StmtKind, UnOp};
use acfc_util::check::{forall, Gen};
use std::fmt::Write as _;

mod oracle {
    use acfc_cfg::{dfs, Cfg, NodeId, NodeKind};
    use acfc_core::{BranchClass, MatchingMode, NodeAttrs};
    use acfc_mpsl::{eval, BinOp, Env, Expr, Program, RecvSrc, UnOp};
    use std::collections::{HashMap, HashSet};

    pub type TreeEnv = HashMap<String, Expr>;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Val {
        Known(i64),
        Irregular,
        Unknown,
    }

    /// What the evaluator needs besides the expression.
    pub struct Ctx<'a> {
        pub rank: usize,
        pub nprocs: usize,
        pub params: &'a HashMap<String, i64>,
        pub vars: &'a TreeEnv,
    }

    const MAX_SUBST_DEPTH: u32 = 64;

    pub fn rank_eval(expr: &Expr, ctx: &Ctx<'_>, depth: u32) -> Val {
        if depth > MAX_SUBST_DEPTH {
            return Val::Unknown;
        }
        match expr {
            Expr::Int(v) => Val::Known(*v),
            Expr::Rank => Val::Known(ctx.rank as i64),
            Expr::NProcs => Val::Known(ctx.nprocs as i64),
            Expr::Param(p) => ctx.params.get(p).map_or(Val::Unknown, |v| Val::Known(*v)),
            Expr::Var(v) => match ctx.vars.get(v) {
                Some(e) => rank_eval(e, ctx, depth + 1),
                None => Val::Unknown,
            },
            Expr::Input(_) => Val::Irregular,
            Expr::Unary(op, e) => match rank_eval(e, ctx, depth + 1) {
                Val::Known(v) => match op {
                    UnOp::Neg => v.checked_neg().map_or(Val::Unknown, Val::Known),
                    UnOp::Not => Val::Known(i64::from(v == 0)),
                },
                other => other,
            },
            Expr::Binary(op, a, b) => {
                match (rank_eval(a, ctx, depth + 1), rank_eval(b, ctx, depth + 1)) {
                    (Val::Known(x), Val::Known(y)) => apply(*op, x, y),
                    (Val::Irregular, _) | (_, Val::Irregular) => Val::Irregular,
                    _ => Val::Unknown,
                }
            }
        }
    }

    /// One binary operation through the concrete evaluator (the
    /// arithmetic is not what is under test).
    fn apply(op: BinOp, x: i64, y: i64) -> Val {
        let e = Expr::bin(op, Expr::Int(x), Expr::Int(y));
        eval(&e, &Env::new(0, 1)).map_or(Val::Unknown, Val::Known)
    }

    pub struct IdDep {
        pub envs: Vec<TreeEnv>,
        pub classes: HashMap<NodeId, BranchClass>,
        pub params: HashMap<String, i64>,
    }

    /// The round-robin dataflow: every visited node re-transferred on
    /// every sweep, environments cloned and compared whole.
    pub fn iddep(cfg: &Cfg, program: &Program, sample_n: usize) -> IdDep {
        let params: HashMap<String, i64> = program.params.iter().cloned().collect();
        let mut envs: Vec<Option<TreeEnv>> = vec![None; cfg.len()];
        envs[cfg.entry().index()] = Some(HashMap::new());
        let mut changed = true;
        while changed {
            changed = false;
            for a in cfg.node_ids() {
                let Some(mut env) = envs[a.index()].clone() else {
                    continue;
                };
                if let NodeKind::Assign { var, value } = &cfg.node(a).kind {
                    let substituted = value.substitute(&|name| env.get(name).cloned());
                    if substituted.mentions_var() {
                        env.remove(var);
                    } else {
                        env.insert(var.clone(), substituted);
                    }
                }
                for &(b, _) in cfg.succs(a) {
                    let merged = match &envs[b.index()] {
                        None => env.clone(),
                        Some(cur) => cur
                            .iter()
                            .filter(|(k, v)| env.get(*k) == Some(v))
                            .map(|(k, v)| (k.clone(), v.clone()))
                            .collect(),
                    };
                    if envs[b.index()].as_ref() != Some(&merged) {
                        envs[b.index()] = Some(merged);
                        changed = true;
                    }
                }
            }
        }
        let envs: Vec<TreeEnv> = envs.into_iter().map(Option::unwrap_or_default).collect();
        let mut classes = HashMap::new();
        for b in cfg.branch_nodes() {
            let NodeKind::Branch { cond } = &cfg.node(b).kind else {
                unreachable!()
            };
            let vals: Vec<Val> = (0..sample_n)
                .map(|rank| {
                    let ctx = Ctx {
                        rank,
                        nprocs: sample_n,
                        params: &params,
                        vars: &envs[b.index()],
                    };
                    rank_eval(cond, &ctx, 0)
                })
                .collect();
            let truth = |v: &Val| matches!(v, Val::Known(x) if *x != 0);
            let class = if vals.contains(&Val::Irregular) {
                BranchClass::Irregular
            } else if vals.contains(&Val::Unknown) {
                BranchClass::Unresolved
            } else if vals.windows(2).all(|w| truth(&w[0]) == truth(&w[1])) {
                BranchClass::Uniform
            } else {
                BranchClass::IdDependent
            };
            classes.insert(b, class);
        }
        IdDep {
            envs,
            classes,
            params,
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Resolved {
        Exactly(usize),
        AnyRank,
        OutOfRange,
    }

    fn resolve(expr: &Expr, rank: usize, n: usize, info: &IdDep, node: NodeId) -> Resolved {
        let ctx = Ctx {
            rank,
            nprocs: n,
            params: &info.params,
            vars: &info.envs[node.index()],
        };
        match rank_eval(expr, &ctx, 0) {
            Val::Known(v) if v >= 0 && (v as usize) < n => Resolved::Exactly(v as usize),
            Val::Known(_) => Resolved::OutOfRange,
            Val::Unknown | Val::Irregular => Resolved::AnyRank,
        }
    }

    /// `(send, recv, witness ranks, irregular)` per edge, and the
    /// unmatched receives.
    pub type Edges = (Vec<(NodeId, NodeId, (usize, usize), bool)>, Vec<NodeId>);

    fn comm_nodes(cfg: &Cfg, want: impl Fn(&NodeKind) -> bool) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = dfs(cfg)
            .preorder
            .into_iter()
            .filter(|&id| want(&cfg.node(id).kind))
            .collect();
        nodes.sort_by_key(|&id| cfg.node(id).stmt.expect("comm nodes carry stmt ids"));
        nodes
    }

    pub fn matching(cfg: &Cfg, attrs: &NodeAttrs, info: &IdDep, mode: MatchingMode) -> Edges {
        let sends = comm_nodes(cfg, |k| matches!(k, NodeKind::Send { .. }));
        let recvs = comm_nodes(cfg, |k| matches!(k, NodeKind::Recv { .. }));
        if mode == MatchingMode::FifoOrdered {
            fifo(cfg, attrs, info, &sends, &recvs)
        } else {
            all_pairs(cfg, attrs, info, &sends, &recvs, mode)
        }
    }

    fn dest_of(cfg: &Cfg, s: NodeId) -> &Expr {
        match &cfg.node(s).kind {
            NodeKind::Send { dest, .. } => dest,
            _ => unreachable!(),
        }
    }

    fn src_of(cfg: &Cfg, r: NodeId) -> &RecvSrc {
        match &cfg.node(r).kind {
            NodeKind::Recv { src } => src,
            _ => unreachable!(),
        }
    }

    /// Per-channel FIFO matching, resolving every statement inside the
    /// rank-pair loop.
    fn fifo(
        cfg: &Cfg,
        attrs: &NodeAttrs,
        info: &IdDep,
        sends: &[NodeId],
        recvs: &[NodeId],
    ) -> Edges {
        let n = attrs.nprocs();
        let mut edges = Vec::new();
        let mut seen = HashSet::new();
        for p in 0..n {
            for q in 0..n {
                if p == q {
                    continue;
                }
                let mut chan_sends: Vec<(NodeId, bool)> = Vec::new();
                for &s in sends {
                    if !attrs.of(s).contains(p) {
                        continue;
                    }
                    match resolve(dest_of(cfg, s), p, n, info, s) {
                        Resolved::Exactly(v) if v == q => chan_sends.push((s, true)),
                        Resolved::AnyRank => chan_sends.push((s, false)),
                        _ => {}
                    }
                }
                let mut chan_recvs: Vec<(NodeId, bool)> = Vec::new();
                for &r in recvs {
                    if !attrs.of(r).contains(q) {
                        continue;
                    }
                    match src_of(cfg, r) {
                        RecvSrc::Any => chan_recvs.push((r, false)),
                        RecvSrc::Rank(e) => match resolve(e, q, n, info, r) {
                            Resolved::Exactly(v) if v == p => chan_recvs.push((r, true)),
                            Resolved::AnyRank => chan_recvs.push((r, false)),
                            _ => {}
                        },
                    }
                }
                if chan_sends.is_empty() || chan_recvs.is_empty() {
                    continue;
                }
                let all_exact =
                    chan_sends.iter().all(|&(_, e)| e) && chan_recvs.iter().all(|&(_, e)| e);
                let mut push = |s, r, irregular| {
                    if seen.insert((s, r)) {
                        edges.push((s, r, (p, q), irregular));
                    }
                };
                if all_exact && chan_sends.len() == chan_recvs.len() {
                    for (&(s, _), &(r, _)) in chan_sends.iter().zip(&chan_recvs) {
                        push(s, r, false);
                    }
                } else {
                    for &(s, se) in &chan_sends {
                        for &(r, re) in &chan_recvs {
                            push(s, r, !(se && re));
                        }
                    }
                }
            }
        }
        let matched: HashSet<NodeId> = edges.iter().map(|e| e.1).collect();
        let unmatched = recvs
            .iter()
            .copied()
            .filter(|r| !matched.contains(r))
            .collect();
        (edges, unmatched)
    }

    /// Algorithm 3.1's every-receive-against-every-send loop.
    fn all_pairs(
        cfg: &Cfg,
        attrs: &NodeAttrs,
        info: &IdDep,
        sends: &[NodeId],
        recvs: &[NodeId],
        mode: MatchingMode,
    ) -> Edges {
        let n = attrs.nprocs();
        let mut edges = Vec::new();
        let mut unmatched = Vec::new();
        let mut send_matched: HashSet<NodeId> = HashSet::new();
        for &r in recvs {
            let src = src_of(cfg, r);
            let recv_irregular = src.is_irregular();
            let mut candidates = Vec::new();
            for &s in sends {
                let dest = dest_of(cfg, s);
                let mut found = None;
                'search: for p in attrs.of(s).iter() {
                    for q in attrs.of(r).iter() {
                        if p == q {
                            continue;
                        }
                        let dest_ok = match resolve(dest, p, n, info, s) {
                            Resolved::Exactly(v) => v == q,
                            Resolved::AnyRank => true,
                            Resolved::OutOfRange => false,
                        };
                        let src_ok = match src {
                            RecvSrc::Any => true,
                            RecvSrc::Rank(e) => match resolve(e, q, n, info, r) {
                                Resolved::Exactly(v) => v == p,
                                Resolved::AnyRank => true,
                                Resolved::OutOfRange => false,
                            },
                        };
                        if dest_ok && src_ok {
                            found = Some((p, q));
                            break 'search;
                        }
                    }
                }
                if let Some(w) = found {
                    candidates.push((s, r, w, recv_irregular || dest.mentions_input()));
                }
            }
            if candidates.is_empty() {
                unmatched.push(r);
                continue;
            }
            if mode == MatchingMode::PreferUnmatched && !recv_irregular {
                let fresh: Vec<_> = candidates
                    .iter()
                    .filter(|(s, _, _, irr)| *irr || !send_matched.contains(s))
                    .cloned()
                    .collect();
                if !fresh.is_empty() {
                    candidates = fresh;
                }
            }
            for c in candidates {
                send_matched.insert(c.0);
                edges.push(c);
            }
        }
        (edges, unmatched)
    }
}

/// Everything the two implementations must agree on for `program` at
/// `n` processes.
fn assert_same_analysis(what: &str, program: &Program, n: usize) {
    let (cfg, lowered) = build_cfg(program);
    let sample_n = n.max(2);
    let want = oracle::iddep(&cfg, &lowered, sample_n);
    let got = analyze_iddep_at(&cfg, &lowered, sample_n);
    for node in cfg.node_ids() {
        assert_eq!(
            got.env_at(node),
            want.envs[node.index()],
            "{what} n={n}: environment at {node}"
        );
        assert_eq!(
            got.branch_class(node),
            want.classes.get(&node).copied(),
            "{what} n={n}: class of {node}"
        );
    }
    assert_eq!(got.params, want.params, "{what}: params");
    let attrs = compute_attrs(&cfg, n, &got);
    for mode in [
        MatchingMode::FifoOrdered,
        MatchingMode::Conservative,
        MatchingMode::PreferUnmatched,
    ] {
        let got = match_send_recv(&cfg, &attrs, &got, mode);
        let want = oracle::matching(&cfg, &attrs, &want, mode);
        assert_same_matching(&format!("{what} n={n} {mode:?}"), &cfg, &got, &want);
    }
}

fn assert_same_matching(what: &str, cfg: &Cfg, got: &Matching, want: &oracle::Edges) {
    let edges: Vec<_> = got.edges.iter().map(|e| (e.send, e.recv)).collect();
    let want_edges: Vec<_> = want.0.iter().map(|e| (e.0, e.1)).collect();
    assert_eq!(edges, want_edges, "{what}: edges, in order\n{cfg:?}");
    let witnesses: Vec<_> = got
        .witnesses
        .iter()
        .map(|w| (w.edge.send, w.edge.recv, w.witness, w.irregular))
        .collect();
    assert_eq!(witnesses, want.0, "{what}: witnesses");
    assert_eq!(got.unmatched_recvs, want.1, "{what}: unmatched receives");
}

#[test]
fn stock_programs_analyse_as_before() {
    let stock = programs::all_stock();
    assert_eq!(stock.len(), 16);
    for p in &stock {
        for n in [2, 4, 8, 64] {
            assert_same_analysis(&p.name, p, n);
        }
    }
}

// The four program families the benchmark's analysis corpus is made of,
// re-created small (sizes and constants fixed; the benchmark's are
// seeded).

fn ladder(m: usize) -> String {
    let mut s = String::from("program ladder;\n");
    for k in 0..m {
        let _ = write!(
            s,
            "if rank % 2 == 0 {{ checkpoint; compute {w}; send to rank + 1 size 512; recv from rank + 1; }}\n\
             else {{ recv from rank - 1; compute {w}; checkpoint; send to rank - 1 size 512; }}\n",
            w = 10 + k
        );
    }
    s
}

fn branch_tree(depth: u32, rounds: usize) -> String {
    fn node(s: &mut String, level: u32, depth: u32) {
        if level == depth {
            let _ = writeln!(s, "compute {}; acc := acc + {level};", 5 + level);
            return;
        }
        let modulus = 2i64 << level;
        let _ = writeln!(s, "if rank % {modulus} < {} {{", modulus / 2);
        node(s, level + 1, depth);
        s.push_str("} else {\n");
        node(s, level + 1, depth);
        s.push_str("}\n");
    }
    let mut s = String::from("program branch_tree;\nvar acc;\nacc := 0;\n");
    for _ in 0..rounds {
        node(&mut s, 0, depth);
        s.push_str(
            "send to (rank + 1) % nprocs size 256;\nrecv from (rank - 1) % nprocs;\ncheckpoint;\n",
        );
    }
    s
}

fn rotation_loops(blocks: usize) -> String {
    let mut s = String::from("program rotation_loops;\nparam iters = 4;\nvar i;\n");
    for block in 0..blocks {
        let k = 1 + block % 3;
        let _ = write!(
            s,
            "for i in 0..iters {{\n  compute 20;\n  send to (rank + {k}) % nprocs size 1024;\n  \
             recv from (rank - {k}) % nprocs;\n  checkpoint;\n}}\n"
        );
    }
    s
}

fn straight_line(stmts: usize) -> String {
    let mut s = String::from("program straight_line;\nvar acc;\nacc := 0;\n");
    for n in 1..stmts {
        s.push_str(match n % 5 {
            0 => "compute 7;\n",
            1 => "acc := acc + 3;\n",
            2 => "send to (rank + 1) % nprocs size 128;\n",
            3 => "recv from (rank - 1) % nprocs;\n",
            _ => "checkpoint;\n",
        });
    }
    s
}

/// `links` rebindings of `x`, then a branch, a send and a receive that
/// all depend on it.
fn chain(links: usize) -> String {
    format!(
        "program chain; var x; x := rank; {}\n\
         if x % 2 == 0 {{ send to (x + 1) % nprocs; }} else {{ recv from (x - 1) % nprocs; }}\n\
         send to x % nprocs; recv from x;",
        "x := x + 1; ".repeat(links)
    )
}

#[test]
fn generated_families_analyse_as_before() {
    let all = &[4, 8, 64][..];
    let mut cases = vec![
        ("ladder/3", ladder(3), all),
        ("ladder/8", ladder(8), all),
        ("branch_tree/3x2", branch_tree(3, 2), all),
        ("branch_tree/5x2", branch_tree(5, 2), all),
        ("rotation_loops/4", rotation_loops(4), all),
        ("rotation_loops/9", rotation_loops(9), all),
        ("straight_line/60", straight_line(60), all),
        // Past the evaluator's depth limit: `acc` is 68 additions deep.
        // (One `n`: the references are quadratic in all of this.)
        ("straight_line/340", straight_line(340), &[8][..]),
    ];
    // Either side of every place the depth limit can bite: the branch,
    // the peers under `%`, the bare peer.
    cases.extend((58..=66).map(|links| ("chain", chain(links), &[4, 8][..])));
    for (name, text, ns) in &cases {
        let p = parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        for &n in *ns {
            assert_same_analysis(name, &p, n);
        }
    }
}

// Random SPMD programs. Nothing here has to run, or even be
// deadlock-free: only the static analysis looks at it. What matters is
// variety in what the dataflow and the matcher see — variables rebound
// along chains and inside loops, bindings that differ across the arms
// of a branch, peers named through variables, irregular and
// out-of-range peers, wildcard receives, unreachable statements.

const VARS: [&str; 3] = ["a", "b", "c"];

fn arb_expr(g: &mut Gen, depth: u32) -> Expr {
    if depth == 0 || g.prob(0.35) {
        return match g.weighted(&[3, 3, 2, 4, 1, 1]) {
            0 => Expr::Int(g.i64_in(-2, 9)),
            1 => Expr::Rank,
            2 => Expr::NProcs,
            3 => Expr::Var(g.pick(&VARS).to_string()),
            4 => Expr::Param("k".into()),
            _ => Expr::Input(0),
        };
    }
    if g.prob(0.1) {
        let op = *g.pick(&[UnOp::Neg, UnOp::Not]);
        return Expr::Unary(op, Box::new(arb_expr(g, depth - 1)));
    }
    let op = *g.pick(&[
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Mod,
        BinOp::Mod,
        BinOp::Eq,
        BinOp::Lt,
        BinOp::And,
    ]);
    Expr::bin(op, arb_expr(g, depth - 1), arb_expr(g, depth - 1))
}

/// A peer expression: mostly a neighbour of some kind.
fn arb_peer(g: &mut Gen) -> Expr {
    let ring = |off: i64| {
        Expr::bin(
            BinOp::Mod,
            Expr::bin(BinOp::Add, Expr::Rank, Expr::Int(off)),
            Expr::NProcs,
        )
    };
    match g.weighted(&[4, 2, 2, 2, 1]) {
        0 => ring(g.i64_in(-2, 3)),
        1 => Expr::bin(BinOp::Add, Expr::Rank, Expr::Int(g.i64_in(-1, 2))),
        2 => Expr::Var(g.pick(&VARS).to_string()),
        3 => Expr::Int(g.i64_in(0, 3)),
        _ => arb_expr(g, 2),
    }
}

fn arb_cond(g: &mut Gen) -> Expr {
    match g.weighted(&[3, 2, 2, 1]) {
        0 => {
            let m = *g.pick(&[2, 3, 4, 16]);
            Expr::bin(
                BinOp::Lt,
                Expr::bin(BinOp::Mod, Expr::Rank, Expr::Int(m)),
                Expr::Int(g.i64_in(1, m)),
            )
        }
        1 => Expr::bin(
            BinOp::Eq,
            Expr::bin(
                BinOp::Mod,
                Expr::Var(g.pick(&VARS).to_string()),
                Expr::Int(2),
            ),
            Expr::Int(0),
        ),
        2 => Expr::bin(BinOp::Lt, Expr::Rank, Expr::Int(g.i64_in(0, 5))),
        _ => arb_expr(g, 2),
    }
}

fn arb_stmt(g: &mut Gen, depth: u32) -> Stmt {
    let kind = match g.weighted(&[5, 4, 4, 1, 2, if depth > 0 { 5 } else { 0 }]) {
        0 => StmtKind::Assign {
            var: g.pick(&VARS).to_string(),
            value: arb_expr(g, 2),
        },
        1 => StmtKind::Send {
            dest: arb_peer(g),
            size_bits: Expr::Int(64),
        },
        2 => StmtKind::Recv {
            src: if g.prob(0.15) {
                RecvSrc::Any
            } else {
                RecvSrc::Rank(arb_peer(g))
            },
        },
        3 => StmtKind::Compute { cost: Expr::Int(1) },
        4 => StmtKind::Checkpoint { label: None },
        _ => match g.usize_in(0, 3) {
            0 | 1 => StmtKind::If {
                cond: arb_cond(g),
                then_branch: g.vec_of(0, 4, |g| arb_stmt(g, depth - 1)),
                else_branch: g.vec_of(0, 4, |g| arb_stmt(g, depth - 1)),
            },
            _ => StmtKind::While {
                cond: arb_cond(g),
                body: g.vec_of(1, 4, |g| arb_stmt(g, depth - 1)),
            },
        },
    };
    Stmt::new(kind)
}

/// A chain of rebindings of one variable, sometimes long enough to
/// cross the evaluator's depth limit.
fn arb_chain(g: &mut Gen) -> Vec<Stmt> {
    let var = g.pick(&VARS).to_string();
    let links = if g.prob(0.2) {
        g.usize_in(55, 75)
    } else {
        g.usize_in(1, 6)
    };
    let step = |v: &str| {
        Stmt::new(StmtKind::Assign {
            var: v.to_string(),
            value: Expr::bin(BinOp::Add, Expr::Var(v.to_string()), Expr::Int(1)),
        })
    };
    let mut out = vec![Stmt::new(StmtKind::Assign {
        var: var.clone(),
        value: Expr::Rank,
    })];
    out.extend((0..links).map(|_| step(&var)));
    out
}

fn arb_program(g: &mut Gen) -> Program {
    let mut body = Vec::new();
    for _ in 0..g.usize_in(2, 9) {
        if g.prob(0.25) {
            body.extend(arb_chain(g));
        } else {
            body.push(arb_stmt(g, 3));
        }
    }
    let vars = VARS.iter().map(|v| v.to_string()).collect();
    let mut p = Program::new("random", vec![("k".into(), 3)], vars, body);
    p.renumber();
    p
}

#[test]
fn random_programs_analyse_as_before() {
    forall("random_programs_analyse_as_before", 240, |g| {
        let p = arb_program(g);
        let n = *g.pick(&[2, 3, 4, 8, 17, 64]);
        assert_same_analysis(&format!("case {}", g.case), &p, n);
    });
}

/// The generator reaches what it is meant to reach: some random
/// program has an ID-dependent branch on a propagated variable, some
/// has an unresolved one, and some matching is non-trivial.
#[test]
fn random_programs_are_not_all_trivial() {
    let (mut id_dependent, mut unresolved, mut edges) = (0, 0, 0);
    forall("random_programs_analyse_as_before", 240, |g| {
        let p = arb_program(g);
        let (cfg, lowered) = build_cfg(&p);
        let info = analyze_iddep_at(&cfg, &lowered, 8);
        for b in cfg.branch_nodes() {
            match info.branch_class(b) {
                Some(BranchClass::IdDependent) => id_dependent += 1,
                Some(BranchClass::Unresolved) => unresolved += 1,
                _ => {}
            }
        }
        let attrs = compute_attrs(&cfg, 8, &info);
        edges += match_send_recv(&cfg, &attrs, &info, MatchingMode::FifoOrdered)
            .edges
            .len();
    });
    assert!(id_dependent > 50, "{id_dependent} ID-dependent branches");
    assert!(unresolved > 50, "{unresolved} unresolved branches");
    assert!(edges > 200, "{edges} message edges");
}
