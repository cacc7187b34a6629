//! ID-dependence analysis.
//!
//! §3.2: *using any data flow analysis technique, we can specify whether
//! each branch is ID-dependent or not: we first determine the variables
//! and constants that depend on process IDs, and then determine whether
//! each condition expression is ID-dependent.* This module implements
//! that dataflow as a **must constant-propagation of rank expressions**:
//! a per-node environment mapping variables to closed expressions over
//! `rank` / `nprocs` / parameters / `input(·)`, plus a classification of
//! every branch node.

use acfc_cfg::{Cfg, NodeId, NodeKind};
use acfc_mpsl::{rank_eval, Expr, Program, RankEnv, RankExprId, RankExprs, RankVal};
use std::collections::HashMap;
use std::sync::Arc;

/// Classification of a branch node's condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchClass {
    /// The condition is rank-determined and its truth value differs
    /// across ranks: the paper's *ID-dependent* branch.
    IdDependent,
    /// Rank-determined but identical for every rank (e.g. `0 == 1`):
    /// all processes take the same arm.
    Uniform,
    /// Depends on run-time state the analysis does not track (loop
    /// counters, unresolved variables): still identical across
    /// processes in SPMD (deterministic, same inputs), but the arm
    /// taken is unknown statically.
    Unresolved,
    /// Depends on input data (*irregular*).
    Irregular,
}

/// A must-environment: variables resolved to closed rank expressions
/// (over `rank`, `nprocs`, params, ints, `input`), as ids into the
/// analysis's [`RankExprs`] pool.
type Env = HashMap<String, RankExprId>;

/// Result of the ID-dependence dataflow.
#[derive(Debug, Clone)]
pub struct IdDepInfo {
    /// The closed expressions every environment points into.
    exprs: RankExprs,
    /// Per-node must-environment. A run of nodes that see the same
    /// bindings shares one map: only an assignment that changes a
    /// binding, or a join that drops one, makes a new map.
    envs: Vec<Arc<Env>>,
    /// Per-branch-node classification (indexed by node).
    classes: HashMap<NodeId, BranchClass>,
    /// Program parameter defaults (needed by downstream evaluation).
    pub params: HashMap<String, i64>,
}

impl IdDepInfo {
    /// The resolved-variable environment holding **at entry to** `node`,
    /// with every binding written out as a plain expression tree (for
    /// diagnostics and tests; the analysis evaluates through
    /// [`IdDepInfo::rank_env`] without copying anything out).
    pub fn env_at(&self, node: NodeId) -> HashMap<String, Expr> {
        self.envs[node.index()]
            .iter()
            .map(|(var, &id)| (var.clone(), self.exprs.to_expr(id)))
            .collect()
    }

    /// The environment [`rank_eval`] needs to evaluate an expression of
    /// `node` at `rank` of `nprocs`.
    pub fn rank_env(&self, node: NodeId, rank: usize, nprocs: usize) -> RankEnv<'_> {
        RankEnv {
            rank: rank as i64,
            nprocs: nprocs as i64,
            params: &self.params,
            vars: &self.envs[node.index()],
            exprs: &self.exprs,
        }
    }

    /// Classification of a branch node (`None` for non-branch nodes).
    pub fn branch_class(&self, node: NodeId) -> Option<BranchClass> {
        self.classes.get(&node).copied()
    }
}

/// Runs the dataflow at a sample `n` (used only to classify branches;
/// environments are symbolic and `n`-independent).
pub fn analyze_iddep(cfg: &Cfg, program: &Program) -> IdDepInfo {
    analyze_iddep_at(cfg, program, 8)
}

/// Like [`analyze_iddep`] with an explicit sample `n` for branch
/// classification (`n ≥ 2`; classification compares the condition's
/// truth value across ranks `0..n`).
///
/// The dataflow costs `O(nodes + assignments · (|rhs| + bindings))`:
/// a node's transfer runs again only when its input environment was
/// replaced, environments are shared rather than copied along
/// straight-line code, and a rebinding adds `|rhs|` pool nodes however
/// large the expression it extends has grown.
pub fn analyze_iddep_at(cfg: &Cfg, program: &Program, sample_n: usize) -> IdDepInfo {
    assert!(sample_n >= 2, "need n >= 2 to witness rank dependence");
    let mut exprs = RankExprs::default();
    // Must-analysis lattice: ⊤ = "unvisited" (None), otherwise a map;
    // meet = intersection of equal bindings. A node's environment only
    // ever loses bindings once set, so the sweep below reaches the same
    // greatest fixpoint in whatever order nodes are taken.
    let mut envs: Vec<Option<Arc<Env>>> = vec![None; cfg.len()];
    envs[cfg.entry().index()] = Some(Arc::default());
    // `dirty[a]`: a's environment was replaced since a was last pushed
    // through its transfer function.
    let mut dirty = vec![false; cfg.len()];
    dirty[cfg.entry().index()] = true;
    let mut copied = 0usize;
    let mut changed = true;
    while changed {
        changed = false;
        for a in cfg.node_ids() {
            if !std::mem::take(&mut dirty[a.index()]) {
                continue;
            }
            let env_in = envs[a.index()].clone().expect("dirty nodes are visited");
            let env_out = transfer(cfg, a, env_in, &mut exprs, &mut copied);
            for &(b, _) in cfg.succs(a) {
                let merged = match &envs[b.index()] {
                    None => Some(env_out.clone()),
                    Some(cur) => meet(cur, &env_out, &mut copied),
                };
                if let Some(merged) = merged {
                    envs[b.index()] = Some(merged);
                    dirty[b.index()] = true;
                    changed = true;
                }
            }
        }
    }
    acfc_obs::count("core/iddep/cloned", (copied + exprs.len()) as u64);
    let mut info = IdDepInfo {
        exprs,
        envs: envs.into_iter().map(Option::unwrap_or_default).collect(),
        classes: HashMap::new(),
        params: program.params.iter().cloned().collect(),
    };
    for b in cfg.branch_nodes() {
        let class = classify(cfg, &info, b, sample_n);
        info.classes.insert(b, class);
    }
    info
}

/// The environment after `node`: `env` itself unless the node is an
/// assignment that changes a binding. `copied` counts the bindings
/// carried over into new maps.
fn transfer(
    cfg: &Cfg,
    node: NodeId,
    env: Arc<Env>,
    exprs: &mut RankExprs,
    copied: &mut usize,
) -> Arc<Env> {
    let NodeKind::Assign { var, value } = &cfg.node(node).kind else {
        return env;
    };
    // Substitute known bindings into the RHS; keep only if closed.
    let bound = exprs.close(value, &env);
    if env.get(var).copied() == bound {
        return env;
    }
    *copied += env.len();
    let mut out = Env::clone(&env);
    match bound {
        Some(id) => out.insert(var.clone(), id),
        None => out.remove(var),
    };
    Arc::new(out)
}

/// `cur ⊓ incoming` when that differs from `cur`, `None` when `cur`
/// already holds nothing `incoming` lacks.
fn meet(cur: &Arc<Env>, incoming: &Arc<Env>, copied: &mut usize) -> Option<Arc<Env>> {
    if Arc::ptr_eq(cur, incoming) {
        return None;
    }
    let agrees = |(var, id): &(&String, &RankExprId)| incoming.get(*var) == Some(*id);
    let kept = cur.iter().filter(agrees).count();
    if kept == cur.len() {
        return None;
    }
    if kept == incoming.len() {
        // Everything `incoming` binds survives: the meet *is* `incoming`.
        return Some(incoming.clone());
    }
    *copied += kept;
    Some(Arc::new(
        cur.iter()
            .filter(agrees)
            .map(|(var, &id)| (var.clone(), id))
            .collect(),
    ))
}

/// Classifies branch `b` by its condition's value at ranks `0..sample_n`.
fn classify(cfg: &Cfg, info: &IdDepInfo, b: NodeId, sample_n: usize) -> BranchClass {
    let NodeKind::Branch { cond } = &cfg.node(b).kind else {
        unreachable!("branch_nodes yields branch nodes")
    };
    let mut vals = Vec::with_capacity(sample_n);
    let mut any_unknown = false;
    let mut any_irregular = false;
    for r in 0..sample_n {
        match rank_eval(cond, &info.rank_env(b, r, sample_n)) {
            RankVal::Known(v) => vals.push(v != 0),
            RankVal::Unknown => any_unknown = true,
            RankVal::Irregular => any_irregular = true,
        }
    }
    if any_irregular {
        BranchClass::Irregular
    } else if any_unknown {
        BranchClass::Unresolved
    } else if vals.windows(2).all(|w| w[0] == w[1]) {
        BranchClass::Uniform
    } else {
        BranchClass::IdDependent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acfc_cfg::build_cfg;
    use acfc_mpsl::parse;

    fn info_for(src: &str) -> (acfc_cfg::Cfg, IdDepInfo) {
        let p = parse(src).unwrap();
        let (cfg, lowered) = build_cfg(&p);
        let info = analyze_iddep(&cfg, &lowered);
        (cfg, info)
    }

    #[test]
    fn direct_rank_branch_is_id_dependent() {
        let (cfg, info) = info_for("program t; if rank % 2 == 0 { compute 1; }");
        let b = cfg.branch_nodes()[0];
        assert_eq!(info.branch_class(b), Some(BranchClass::IdDependent));
    }

    #[test]
    fn constant_branch_is_uniform() {
        let (cfg, info) = info_for("program t; param k = 3; if k > 1 { compute 1; }");
        let b = cfg.branch_nodes()[0];
        assert_eq!(info.branch_class(b), Some(BranchClass::Uniform));
    }

    #[test]
    fn loop_counter_branch_is_unresolved() {
        let (cfg, info) = info_for("program t; var i; while i < 3 { i := i + 1; }");
        let b = cfg.branch_nodes()[0];
        assert_eq!(info.branch_class(b), Some(BranchClass::Unresolved));
    }

    #[test]
    fn input_branch_is_irregular() {
        let (cfg, info) = info_for("program t; if input(0) > 0 { compute 1; }");
        let b = cfg.branch_nodes()[0];
        assert_eq!(info.branch_class(b), Some(BranchClass::Irregular));
    }

    #[test]
    fn propagated_rank_var_is_id_dependent() {
        let (cfg, info) = info_for("program t; var me; me := rank % 2; if me == 0 { compute 1; }");
        let b = cfg.branch_nodes()[0];
        assert_eq!(info.branch_class(b), Some(BranchClass::IdDependent));
        // The environment at the branch resolves `me`.
        assert!(info.env_at(b).contains_key("me"));
    }

    #[test]
    fn reassigned_var_in_loop_is_dropped() {
        let (cfg, info) = info_for(
            "program t; var i; i := rank; while i < 9 { i := i + 1; } if i == 0 { compute 1; }",
        );
        // After the loop, `i`'s value is iteration-dependent: must-env
        // drops it, so the final branch is Unresolved, not IdDependent.
        let branches = cfg.branch_nodes();
        let last = *branches.last().unwrap();
        assert_eq!(info.branch_class(last), Some(BranchClass::Unresolved));
    }

    #[test]
    fn join_keeps_only_agreeing_bindings() {
        let (cfg, info) = info_for(
            "program t; var a, b;
             a := 7;
             if rank == 0 { b := 1; } else { b := 2; }
             if a == 7 { compute 1; }",
        );
        // `a` survives the join (same binding on both arms); `b` does not.
        let branches = cfg.branch_nodes();
        let last = *branches.last().unwrap();
        let env = info.env_at(last);
        assert_eq!(env.get("a"), Some(&Expr::Int(7)));
        assert!(!env.contains_key("b"));
        assert_eq!(info.branch_class(last), Some(BranchClass::Uniform));
    }

    #[test]
    fn fig2_jacobi_branch_classified() {
        let p = acfc_mpsl::programs::jacobi_odd_even(3);
        let (cfg, lowered) = build_cfg(&p);
        let info = analyze_iddep(&cfg, &lowered);
        let classes: Vec<BranchClass> = cfg
            .branch_nodes()
            .iter()
            .map(|&b| info.branch_class(b).unwrap())
            .collect();
        // One loop (Unresolved) and the odd/even branch (IdDependent).
        assert!(classes.contains(&BranchClass::Unresolved));
        assert!(classes.contains(&BranchClass::IdDependent));
    }

    #[test]
    fn classification_samples_the_ranks_it_is_given() {
        // `rank % 16 < 8` holds for all of ranks 0..8 and splits 0..64:
        // the fixed sample of `analyze_iddep` cannot see that, the
        // pipeline (which classifies at its own `n`) can.
        let p = parse("program t; if rank % 16 < 8 { compute 1; }").unwrap();
        let (cfg, lowered) = build_cfg(&p);
        let b = cfg.branch_nodes()[0];
        let at = |n| analyze_iddep_at(&cfg, &lowered, n).branch_class(b);
        assert_eq!(at(64), Some(BranchClass::IdDependent));
        assert_eq!(at(8), Some(BranchClass::Uniform));
        assert_eq!(
            analyze_iddep(&cfg, &lowered).branch_class(b),
            Some(BranchClass::Uniform)
        );
    }

    /// Evaluation gives up 64 levels down (`rank_eval`'s depth limit),
    /// so a branch on a variable rebound more than 61 times below
    /// `x % 2 == 0` is unresolved. Pinned as it was when bindings were
    /// substituted trees: sharing subterms must not move the cliff.
    #[test]
    fn long_assignment_chain_classifies_as_before() {
        for (links, want) in [
            (61, BranchClass::IdDependent),
            (62, BranchClass::Unresolved),
            (200, BranchClass::Unresolved),
        ] {
            let src = format!(
                "program t; var x; x := rank; {} if x % 2 == 0 {{ compute 1; }}",
                "x := x + 1; ".repeat(links)
            );
            let (cfg, info) = info_for(&src);
            let b = cfg.branch_nodes()[0];
            assert_eq!(info.branch_class(b), Some(want), "{links} links");
            // The binding itself is kept whole either way.
            assert!(info.env_at(b).contains_key("x"));
        }
    }

    #[test]
    fn nodes_between_assignments_share_one_environment() {
        let (cfg, info) = info_for(
            "program t; var a; a := rank; compute 1; send to a; checkpoint; a := a + 1; compute 2;",
        );
        let env = |tag: &str| {
            let n = cfg.nodes_where(|k| k.tag() == tag)[0];
            &info.envs[n.index()]
        };
        assert!(Arc::ptr_eq(env("send"), env("chkpt")));
        assert!(Arc::ptr_eq(env("send"), env("compute")));
        assert!(!Arc::ptr_eq(env("send"), env("exit")));
        // rank, 1, rank + 1: three nodes for two bindings.
        assert_eq!(info.exprs.len(), 3);
    }
}
