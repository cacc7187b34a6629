//! Phase III, part 2 — repairing violations (Algorithm 3.2).
//!
//! When Condition 1 fails for a pair `C_i^A →γ C_i^B`, Algorithm 3.2
//! *moves `C_i^B` back*: walking the dominator chain of `C_i^B` from the
//! entry node, it finds the edge `⟨a, b⟩` with `C_i^A ⇝ b` but
//! `C_i^A ⇝̸ a` (such an `a` always exists — the entry node has no
//! incoming edges) and relocates the checkpoint to between `a` and `b`.
//!
//! Reachability along a dominator chain is monotone (each dominator can
//! reach the next through the dominated region), so the unreachable
//! chain nodes form a prefix and `b` is simply the first reachable chain
//! node. Under [`LoopPolicy::Optimized`], forward reachability (no CFG
//! backward edges) is used for forward violations so that checkpoints
//! stay inside loops; pure back-edge violations (the Figure 6 case) use
//! full reachability and hoist the checkpoint out of the loop.
//!
//! The relocation is performed on the **program AST** (insert a
//! checkpoint statement just before the statement of `b`, remove the old
//! one) and the graph side is rebuilt: the CFG, the checkpoint index and
//! the closures of `Ĝ`. This keeps the program, the CFG, and the
//! extended CFG in sync. Phase II (ID-dependence, attributes, matching)
//! runs **once** per analysis — a relocation cannot change it, so
//! [`ReanalysisCache`] replays the matching onto each rebuilt CFG
//! (unless [`Phase3Config::incremental`] is switched off) — and
//! each round asks Condition 1 for the violating pairs only, without
//! the witness paths `acfc check` prints. If an insertion fails to remove
//! the violation (the path re-enters through a non-dominator
//! predecessor), the insertion point escalates one dominator earlier;
//! iteration is capped and residual violations are reported as an error
//! rather than silently accepted.

use crate::condition::{violating_pairs, LoopPolicy, Violation};
use crate::cuts::{index_checkpoints, CheckpointIndex};
use crate::extended::ExtendedCfg;
use crate::matching::{Matching, MatchingMode};
use crate::reanalysis::ReanalysisCache;
use acfc_cfg::{build_cfg_prelowered, Cfg, NodeId, NodeKind};
use acfc_mpsl::{Block, Program, Stmt, StmtId, StmtKind};
use std::fmt;

/// One relocation performed by Algorithm 3.2.
#[derive(Debug, Clone)]
pub struct MoveRecord {
    /// Label of the moved checkpoint (if any).
    pub label: Option<String>,
    /// Index `i` of the violated straight cut.
    pub index: u32,
    /// Human-readable description of the old and new positions.
    pub description: String,
}

/// Why Phase III gave up.
#[derive(Debug, Clone)]
pub enum Phase3Error {
    /// The iteration cap was reached with violations remaining.
    Unrepairable {
        /// Violations still present.
        residual: usize,
        /// Description of the first residual violation.
        detail: String,
    },
    /// An AST edit failed (internal invariant breach; should not occur
    /// for programs produced by the MPSL parser/builder).
    EditFailed(String),
}

impl fmt::Display for Phase3Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase3Error::Unrepairable { residual, detail } => write!(
                f,
                "could not ensure recovery lines: {residual} residual violation(s); first: {detail}"
            ),
            Phase3Error::EditFailed(m) => write!(f, "AST edit failed: {m}"),
        }
    }
}

impl std::error::Error for Phase3Error {}

/// Configuration for Phase III.
#[derive(Debug, Clone)]
pub struct Phase3Config {
    /// Number of processes the analysis is instantiated at.
    pub nprocs: usize,
    /// Send/recv matching mode.
    pub matching: MatchingMode,
    /// Loop policy for Condition 1.
    pub policy: LoopPolicy,
    /// Iteration cap.
    pub max_iterations: usize,
    /// Reuse Phase II (ID-dependence, attributes, send/recv matching)
    /// across Algorithm 3.2 iterations via [`ReanalysisCache`] — sound
    /// because checkpoint relocations cannot change communication
    /// structure. `false` recomputes everything each iteration (the
    /// baseline the bench harness compares against).
    pub incremental: bool,
}

impl Default for Phase3Config {
    fn default() -> Phase3Config {
        Phase3Config {
            nprocs: 8,
            matching: MatchingMode::FifoOrdered,
            policy: LoopPolicy::Optimized,
            max_iterations: 32,
            incremental: true,
        }
    }
}

/// Result of a successful Phase III run.
#[derive(Debug)]
pub struct Phase3Result {
    /// The transformed program (every straight cut now a recovery line
    /// per Condition 1 / Theorem 3.2 under the configured policy).
    pub program: Program,
    /// The final extended CFG.
    pub extended: ExtendedCfg,
    /// The relocations performed (empty when the input already
    /// satisfied Condition 1).
    pub moves: Vec<MoveRecord>,
}

/// Runs Algorithm 3.2 to a fixpoint.
///
/// # Errors
///
/// [`Phase3Error::Unrepairable`] if violations remain after
/// `max_iterations`; [`Phase3Error::EditFailed`] on an internal AST
/// inconsistency.
pub fn ensure_recovery_lines(
    program: &Program,
    config: &Phase3Config,
) -> Result<Phase3Result, Phase3Error> {
    repair(program, config, violating_pairs)
}

/// Algorithm 3.2 over the Condition 1 checker `check` (the tests run it
/// over the witness-carrying one to show the moves do not depend on
/// which is asked).
fn repair(
    program: &Program,
    config: &Phase3Config,
    check: impl Fn(&ExtendedCfg, &CheckpointIndex, LoopPolicy) -> Vec<Violation>,
) -> Result<Phase3Result, Phase3Error> {
    let mut current = program.clone();
    if current.has_collectives() {
        current.lower_collectives();
    }
    let mut moves = Vec::new();
    // Phase II results survive checkpoint relocations (see
    // [`ReanalysisCache`]); the cache carries them across iterations so
    // only the CFG skeleton, the checkpoint index, and the closures are
    // rebuilt per move.
    let mut cache: Option<ReanalysisCache> = None;
    for _ in 0..config.max_iterations {
        let _iter = acfc_obs::span("core/phase3/iteration");
        acfc_obs::count("core/phase3/iterations", 1);
        let cfg = build_cfg_prelowered(&current);
        let matching = phase2_matching(&cfg, &current, config, &mut cache);
        let index = index_checkpoints(&cfg, &current);
        let extended = ExtendedCfg::build(cfg, &matching);
        let violations = check(&extended, &index, config.policy);
        let Some(v) = pick_violation(&violations) else {
            return Ok(Phase3Result {
                program: current,
                extended,
                moves,
            });
        };
        let record = {
            let _mv = acfc_obs::span("core/phase3/apply_move");
            apply_move(&mut current, &extended, v, config)?
        };
        moves.push(record);
        // A relocation can unbalance per-path checkpoint counts: moving
        // a checkpoint from inside one branch arm to before the branch
        // places it on *every* path, leaving the sibling arm's
        // same-index checkpoint redundant. The §3.1 well-formedness
        // (equal counts on all paths) is an invariant the rest of the
        // analysis depends on — re-establish it by *removing* the
        // redundant sibling checkpoints (padding the lighter arm
        // instead would re-create the violation forever).
        let _rb = acfc_obs::span("core/phase3/rebalance");
        crate::phase1::rebalance_checkpoints(&mut current);
    }
    // One final check to report residuals precisely.
    let cfg = build_cfg_prelowered(&current);
    let matching = phase2_matching(&cfg, &current, config, &mut cache);
    let index = index_checkpoints(&cfg, &current);
    let extended = ExtendedCfg::build(cfg, &matching);
    let violations = check(&extended, &index, config.policy);
    if violations.is_empty() {
        return Ok(Phase3Result {
            program: current,
            extended,
            moves,
        });
    }
    let first = &violations[0];
    Err(Phase3Error::Unrepairable {
        residual: violations.len(),
        detail: format!("S_{}: path {} -> {}", first.index, first.from, first.to),
    })
}

/// Phase II for one Algorithm 3.2 iteration: replay the cached matching
/// when allowed and still valid, otherwise run it in full and (re)fill
/// the cache.
fn phase2_matching(
    cfg: &Cfg,
    lowered: &Program,
    config: &Phase3Config,
    cache: &mut Option<ReanalysisCache>,
) -> Matching {
    if config.incremental {
        if let Some(m) = cache.as_ref().and_then(|c| c.matching_for(cfg)) {
            acfc_obs::count("core/reanalysis_cache/hits", 1);
            return m;
        }
    }
    acfc_obs::count("core/reanalysis_cache/misses", 1);
    let _span = acfc_obs::span("core/phase2/matching");
    let (fresh, matching) = ReanalysisCache::compute(cfg, lowered, config.nprocs, config.matching);
    *cache = Some(fresh);
    matching
}

/// Deterministic violation choice: smallest index, then node ids.
fn pick_violation(violations: &[Violation]) -> Option<&Violation> {
    violations.iter().min_by_key(|v| (v.index, v.to, v.from))
}

/// Where to insert the relocated checkpoint statement in the AST.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InsertPoint {
    Before(StmtId),
    After(StmtId),
    ProgramStart,
}

fn apply_move(
    program: &mut Program,
    g: &ExtendedCfg,
    v: &Violation,
    config: &Phase3Config,
) -> Result<MoveRecord, Phase3Error> {
    let chain = g.dom.chain(v.to);
    if chain.is_empty() {
        return Err(Phase3Error::EditFailed(format!(
            "checkpoint node {} unreachable",
            v.to
        )));
    }
    // Monotone walk: first chain node reachable from the violation
    // source, under the policy-appropriate reach relation.
    let reaches = |node: NodeId| -> bool {
        if config.policy == LoopPolicy::Optimized && !v.only_via_back_edge {
            g.reaches_forward(v.from, node)
        } else {
            g.reaches(v.from, node)
        }
    };
    let first_reachable = chain
        .iter()
        .position(|&n| reaches(n))
        .unwrap_or(chain.len() - 1);
    // Try the paper's spot first; escalate one dominator earlier if the
    // insertion point degenerates (lands on the checkpoint itself).
    for j in (1..=first_reachable).rev() {
        let b = chain[j];
        if b == v.to {
            continue; // inserting "before itself" is a no-op
        }
        let Some(point) = insert_point_for(g, b) else {
            continue;
        };
        let label = checkpoint_label(program, g, v.to);
        let moved = relocate(program, g, v.to, point)?;
        if moved {
            return Ok(MoveRecord {
                label,
                index: v.index,
                description: format!(
                    "moved checkpoint {} back before {} (violating path from {})",
                    v.to, b, v.from
                ),
            });
        }
    }
    // Fall back: program start (the ENTRY role in the paper's proof).
    let label = checkpoint_label(program, g, v.to);
    let moved = relocate(program, g, v.to, InsertPoint::ProgramStart)?;
    if moved {
        Ok(MoveRecord {
            label,
            index: v.index,
            description: format!("moved checkpoint {} to program start", v.to),
        })
    } else {
        Err(Phase3Error::EditFailed(format!(
            "could not relocate checkpoint {}",
            v.to
        )))
    }
}

fn checkpoint_label(program: &Program, g: &ExtendedCfg, node: NodeId) -> Option<String> {
    let sid = g.cfg.node(node).stmt?;
    match &program.stmt(sid)?.kind {
        StmtKind::Checkpoint { label } => label.clone(),
        _ => None,
    }
}

/// Maps a CFG node to an AST insertion point "just before this node".
fn insert_point_for(g: &ExtendedCfg, b: NodeId) -> Option<InsertPoint> {
    match (&g.cfg.node(b).kind, g.cfg.node(b).stmt) {
        (NodeKind::Entry, _) => Some(InsertPoint::ProgramStart),
        (NodeKind::Exit, _) => None, // "before exit" has no unique stmt; skip
        // A join is "right after the if statement".
        (NodeKind::Join, Some(sid)) => Some(InsertPoint::After(sid)),
        (NodeKind::Join, None) => None,
        // Branch nodes of loops map to "before the loop statement";
        // if-branches likewise map to "before the if".
        (_, Some(sid)) => Some(InsertPoint::Before(sid)),
        (_, None) => None,
    }
}

/// Removes the checkpoint statement behind `node` and inserts an
/// equivalent statement at `point`. Returns `false` (with the program
/// unchanged) if the edit would be a no-op.
fn relocate(
    program: &mut Program,
    g: &ExtendedCfg,
    node: NodeId,
    point: InsertPoint,
) -> Result<bool, Phase3Error> {
    let sid = g.cfg.node(node).stmt.ok_or_else(|| {
        Phase3Error::EditFailed(format!("checkpoint node {node} has no statement"))
    })?;
    match point {
        InsertPoint::Before(t) | InsertPoint::After(t) if t == sid => return Ok(false),
        _ => {}
    }
    let removed = remove_stmt(&mut program.body, sid)
        .ok_or_else(|| Phase3Error::EditFailed(format!("checkpoint statement {sid} not found")))?;
    if !matches!(removed.kind, StmtKind::Checkpoint { .. }) {
        return Err(Phase3Error::EditFailed(format!(
            "statement {sid} is not a checkpoint"
        )));
    }
    let ok = match point {
        InsertPoint::Before(t) => insert_rel(&mut program.body, t, removed, false),
        InsertPoint::After(t) => insert_rel(&mut program.body, t, removed, true),
        InsertPoint::ProgramStart => {
            program.body.insert(0, removed);
            true
        }
    };
    if !ok {
        return Err(Phase3Error::EditFailed(
            "insertion target statement not found".into(),
        ));
    }
    program.renumber();
    Ok(true)
}

pub(crate) fn remove_stmt(block: &mut Block, id: StmtId) -> Option<Stmt> {
    if let Some(pos) = block.iter().position(|s| s.id == id) {
        return Some(block.remove(pos));
    }
    for s in block.iter_mut() {
        let found = match &mut s.kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => remove_stmt(then_branch, id).or_else(|| remove_stmt(else_branch, id)),
            StmtKind::While { body, .. } | StmtKind::For { body, .. } => remove_stmt(body, id),
            _ => None,
        };
        if found.is_some() {
            return found;
        }
    }
    None
}

fn insert_rel(block: &mut Block, target: StmtId, stmt: Stmt, after: bool) -> bool {
    if let Some(pos) = block.iter().position(|s| s.id == target) {
        block.insert(if after { pos + 1 } else { pos }, stmt);
        return true;
    }
    for s in block.iter_mut() {
        let inner = match &mut s.kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                if insert_rel(then_branch, target, stmt.clone(), after) {
                    true
                } else {
                    insert_rel(else_branch, target, stmt.clone(), after)
                }
            }
            StmtKind::While { body, .. } | StmtKind::For { body, .. } => {
                insert_rel(body, target, stmt.clone(), after)
            }
            _ => false,
        };
        if inner {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::compute_attrs;
    use crate::condition::condition1_holds;
    use crate::iddep::analyze_iddep;
    use crate::matching::match_send_recv;
    use acfc_cfg::build_cfg;
    use acfc_mpsl::{parse, programs, to_source};

    fn run_phase3(p: &Program, n: usize, policy: LoopPolicy) -> Phase3Result {
        let config = Phase3Config {
            nprocs: n,
            policy,
            ..Phase3Config::default()
        };
        ensure_recovery_lines(p, &config)
            .unwrap_or_else(|e| panic!("{}: {e}\n{}", p.name, to_source(p)))
    }

    fn verify_condition1(r: &Phase3Result, n: usize, policy: LoopPolicy) {
        let (cfg, lowered) = build_cfg(&r.program);
        let iddep = analyze_iddep(&cfg, &lowered);
        let attrs = compute_attrs(&cfg, n, &iddep);
        let m = match_send_recv(&cfg, &attrs, &iddep, MatchingMode::Conservative);
        let idx = index_checkpoints(&cfg, &lowered);
        let g = ExtendedCfg::build(cfg, &m);
        assert!(
            condition1_holds(&g, &idx, policy),
            "condition 1 must hold after phase 3:\n{}",
            to_source(&r.program)
        );
    }

    #[test]
    fn already_safe_program_is_untouched() {
        let p = programs::jacobi(3);
        let r = run_phase3(&p, 4, LoopPolicy::Optimized);
        assert!(r.moves.is_empty());
        assert_eq!(r.program, p);
    }

    #[test]
    fn fig5_checkpoint_moved_before_recv() {
        let p = programs::fig5();
        let r = run_phase3(&p, 4, LoopPolicy::Optimized);
        assert_eq!(r.moves.len(), 1);
        verify_condition1(&r, 4, LoopPolicy::Optimized);
        // The odd arm must now checkpoint before its recv.
        let src = to_source(&r.program);
        let recv_pos = src.find("recv from").unwrap();
        let b_pos = src.find("checkpoint \"B\"").unwrap();
        assert!(
            b_pos < recv_pos,
            "checkpoint B should precede the recv:\n{src}"
        );
    }

    #[test]
    fn fig2_jacobi_repaired() {
        let p = programs::jacobi_odd_even(3);
        let r = run_phase3(&p, 4, LoopPolicy::Optimized);
        assert!(!r.moves.is_empty());
        verify_condition1(&r, 4, LoopPolicy::Optimized);
        // The checkpoints must still be inside the sweep loop under the
        // optimized policy.
        let (cfg, _) = build_cfg(&r.program);
        let li = acfc_cfg::loop_info(&cfg);
        for c in cfg.checkpoint_nodes() {
            if !cfg.preds(c).is_empty() {
                assert!(li.in_loop(c), "checkpoint left the loop");
            }
        }
    }

    #[test]
    fn fig6_checkpoint_hoisted_out_of_loop() {
        let p = programs::fig6(3);
        let r = run_phase3(&p, 4, LoopPolicy::Optimized);
        assert!(!r.moves.is_empty());
        verify_condition1(&r, 4, LoopPolicy::Optimized);
        // Checkpoint A (the in-loop one) must have been moved out: the
        // paper's noted consequence for the Figure 6 shape.
        let (cfg, _) = build_cfg(&r.program);
        let li = acfc_cfg::loop_info(&cfg);
        for c in cfg.checkpoint_nodes() {
            assert!(!li.in_loop(c), "no checkpoint may remain in a loop");
        }
    }

    #[test]
    fn skewed_pipeline_repaired_in_loop() {
        let p = programs::pipeline_skewed(3);
        let r = run_phase3(&p, 4, LoopPolicy::Optimized);
        assert!(!r.moves.is_empty());
        verify_condition1(&r, 4, LoopPolicy::Optimized);
        let (cfg, _) = build_cfg(&r.program);
        let li = acfc_cfg::loop_info(&cfg);
        let in_loop = cfg
            .checkpoint_nodes()
            .iter()
            .filter(|&&c| !cfg.preds(c).is_empty())
            .all(|&c| li.in_loop(c));
        assert!(in_loop, "optimized policy keeps checkpoints in the loop");
    }

    #[test]
    fn skewed_pingpong_repaired() {
        let p = programs::pingpong_skewed(3);
        let r = run_phase3(&p, 4, LoopPolicy::Optimized);
        assert!(!r.moves.is_empty());
        verify_condition1(&r, 4, LoopPolicy::Optimized);
    }

    #[test]
    fn strict_policy_also_converges_on_fig5() {
        let p = programs::fig5();
        let r = run_phase3(&p, 4, LoopPolicy::Strict);
        verify_condition1(&r, 4, LoopPolicy::Strict);
    }

    #[test]
    fn strict_policy_hoists_loops_on_fig2() {
        let p = programs::jacobi_odd_even(2);
        let config = Phase3Config {
            nprocs: 4,
            policy: LoopPolicy::Strict,
            ..Phase3Config::default()
        };
        match ensure_recovery_lines(&p, &config) {
            Ok(r) => {
                verify_condition1(&r, 4, LoopPolicy::Strict);
                // Strict mode must have changed the program (the input
                // violates), either hoisting checkpoints out of the
                // sweep loop or separating their indices.
                assert!(!r.moves.is_empty());
            }
            Err(Phase3Error::Unrepairable { .. }) => {
                // Acceptable documented outcome for strict mode on
                // symmetric exchanges; the optimized policy is the
                // production path.
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn all_stock_programs_pass_under_optimized_policy() {
        for p in programs::all_stock() {
            let config = Phase3Config {
                nprocs: 4,
                ..Phase3Config::default()
            };
            let r =
                ensure_recovery_lines(&p, &config).unwrap_or_else(|e| panic!("{}: {e}", p.name));
            verify_condition1(&r, 4, LoopPolicy::Optimized);
        }
    }

    /// Algorithm 3.2 reads a violation's endpoints, never its witness
    /// path: driven by the path-searching checker it makes the same
    /// moves, in the same order, with the same node ids in their
    /// descriptions.
    #[test]
    fn moves_are_the_same_with_and_without_witness_paths() {
        let ladder = "if rank % 2 == 0 { checkpoint; send to rank + 1; recv from rank + 1; }
             else { recv from rank - 1; checkpoint; send to rank - 1; }\n"
            .repeat(6);
        let mut corpus = programs::all_stock();
        corpus.push(parse(&format!("program ladder;\n{ladder}")).unwrap());
        let mut moved = 0;
        for p in &corpus {
            for (n, policy) in [
                (2, LoopPolicy::Optimized),
                (4, LoopPolicy::Optimized),
                (8, LoopPolicy::Optimized),
                (4, LoopPolicy::Strict),
            ] {
                let config = Phase3Config {
                    nprocs: n,
                    policy,
                    ..Phase3Config::default()
                };
                let lean = ensure_recovery_lines(p, &config);
                let full = repair(p, &config, crate::condition::check_condition1);
                match (lean, full) {
                    (Ok(lean), Ok(full)) => {
                        let key =
                            |m: &MoveRecord| (m.index, m.label.clone(), m.description.clone());
                        assert_eq!(
                            lean.moves.iter().map(key).collect::<Vec<_>>(),
                            full.moves.iter().map(key).collect::<Vec<_>>(),
                            "{} n={n} {policy:?}",
                            p.name
                        );
                        assert_eq!(lean.program, full.program, "{} n={n}", p.name);
                        moved += lean.moves.len();
                    }
                    (Err(lean), Err(full)) => assert_eq!(lean.to_string(), full.to_string()),
                    (lean, full) => panic!(
                        "{} n={n} {policy:?}: {:?} without paths, {:?} with",
                        p.name,
                        lean.map(|r| r.moves),
                        full.map(|r| r.moves)
                    ),
                }
            }
        }
        assert!(
            moved > 20,
            "the corpus exercises relocation ({moved} moves)"
        );
    }

    #[test]
    fn moves_report_labels_and_indices() {
        let r = run_phase3(&programs::fig5(), 4, LoopPolicy::Optimized);
        assert_eq!(r.moves[0].index, 1);
        // Either A or B carries its label along.
        assert!(r.moves[0].label.is_some());
        assert!(r.moves[0].description.contains("moved checkpoint"));
    }

    #[test]
    fn transformed_program_still_parses_and_roundtrips() {
        let r = run_phase3(&programs::jacobi_odd_even(3), 4, LoopPolicy::Optimized);
        let src = to_source(&r.program);
        let q = parse(&src).unwrap();
        assert_eq!(q, r.program);
    }
}
