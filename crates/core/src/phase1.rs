//! Phase I — static checkpoint insertion and equalisation (§3.1).
//!
//! Two services:
//!
//! * [`insert_checkpoints`] — if the program has no `checkpoint`
//!   statements, insert them at (approximately) optimal intervals, in
//!   the tradition of Chandy–Ramamoorthy \[8\] / Toueg–Babaoğlu \[22\] /
//!   CATCH \[14\]: estimate the execution cost of the code, derive the
//!   optimal checkpoint interval from the checkpoint overhead `o` and
//!   the failure rate `λ` (the first-order optimum `T* = √(2·o/λ)`),
//!   and place checkpoint statements so intervals approximate `T*`.
//! * [`equalize_checkpoints`] — §3.1's closing remark: *"we may
//!   add/remove some of the checkpoints to ensure that every path of the
//!   CFG has the same number of checkpoint nodes."* Pads the lighter arm
//!   of every unbalanced conditional with checkpoints.

use acfc_mpsl::{eval, Block, Env, Expr, Program, Stmt, StmtKind};

/// Parameters for checkpoint insertion.
#[derive(Debug, Clone)]
pub struct InsertionConfig {
    /// Checkpoint overhead `o` in cost units (1 unit = 1 simulated ms).
    pub ckpt_overhead_units: f64,
    /// Per-process failure rate `λ` in failures per cost unit.
    pub failure_rate_per_unit: f64,
    /// Estimated trip count for loops whose bounds the analysis cannot
    /// evaluate.
    pub default_trip_count: u64,
    /// Default cost charged for a send/recv statement, in units.
    pub comm_cost_units: f64,
}

impl Default for InsertionConfig {
    fn default() -> InsertionConfig {
        InsertionConfig {
            ckpt_overhead_units: 1_780.0,            // the paper's o = 1.78 s
            failure_rate_per_unit: 1.23e-6 / 1000.0, // λ = 1.23e-6 /s
            default_trip_count: 10,
            comm_cost_units: 1.0,
        }
    }
}

/// The first-order optimal checkpoint interval `T* = √(2·o/λ)`
/// (Young's approximation, the quantity the §3.1 techniques target).
///
/// # Panics
///
/// Panics if either argument is not finite and positive.
pub fn optimal_interval(ckpt_overhead: f64, failure_rate: f64) -> f64 {
    assert!(
        ckpt_overhead.is_finite() && ckpt_overhead > 0.0,
        "overhead must be positive"
    );
    assert!(
        failure_rate.is_finite() && failure_rate > 0.0,
        "failure rate must be positive"
    );
    (2.0 * ckpt_overhead / failure_rate).sqrt()
}

/// What [`insert_checkpoints`] did.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertionReport {
    /// The interval the insertion targeted (cost units).
    pub target_interval: f64,
    /// Estimated total cost of one program execution (cost units).
    pub estimated_cost: f64,
    /// Number of checkpoint statements inserted.
    pub inserted: usize,
}

type Params = std::collections::HashMap<String, i64>;

/// Best-effort static cost of an expression in cost units (params are
/// resolved; anything rank- or input-dependent falls back to `default`).
fn expr_cost(e: &Expr, params: &Params, default: f64) -> f64 {
    let mut env = Env::new(0, 2);
    env.params = params.clone();
    match eval(e, &env) {
        Ok(v) if v >= 0 => v as f64,
        _ => default,
    }
}

fn trip_count(from: &Expr, to: &Expr, params: &Params, cfg: &InsertionConfig) -> f64 {
    let mut env = Env::new(0, 2);
    env.params = params.clone();
    match (eval(from, &env), eval(to, &env)) {
        (Ok(a), Ok(b)) if b > a => (b - a) as f64,
        _ => cfg.default_trip_count as f64,
    }
}

fn block_cost(block: &Block, params: &Params, cfg: &InsertionConfig) -> f64 {
    block.iter().map(|s| stmt_cost(s, params, cfg)).sum()
}

fn stmt_cost(stmt: &Stmt, params: &Params, cfg: &InsertionConfig) -> f64 {
    match &stmt.kind {
        StmtKind::Compute { cost } => expr_cost(cost, params, 1.0),
        StmtKind::Send { .. } | StmtKind::Recv { .. } => cfg.comm_cost_units,
        StmtKind::Bcast { .. } | StmtKind::Exchange { .. } => 2.0 * cfg.comm_cost_units,
        StmtKind::Assign { .. } => 0.0,
        StmtKind::Checkpoint { .. } => 0.0,
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => block_cost(then_branch, params, cfg).max(block_cost(else_branch, params, cfg)),
        StmtKind::While { body, .. } => {
            cfg.default_trip_count as f64 * block_cost(body, params, cfg)
        }
        StmtKind::For { from, to, body, .. } => {
            trip_count(from, to, params, cfg) * block_cost(body, params, cfg)
        }
    }
}

/// Estimated execution cost of the whole program, in cost units.
pub fn estimate_program_cost(program: &Program, cfg: &InsertionConfig) -> f64 {
    let params: Params = program.params.iter().cloned().collect();
    block_cost(&program.body, &params, cfg)
}

/// Inserts checkpoint statements into a program that has none.
///
/// Placement policy (simple, uniform, and documented): a checkpoint is
/// appended to the body of every top-level (outermost) loop whose total
/// estimated cost is at least `T*/2` — the canonical "end of the main
/// sweep" placement of Figure 1 — and, if the program's total cost is at
/// least `T*/2` but no loop qualified, a single checkpoint is appended
/// at the end of the program. Programs that already contain checkpoint
/// statements are left untouched (`inserted == 0`).
pub fn insert_checkpoints(program: &mut Program, cfg: &InsertionConfig) -> InsertionReport {
    let target = optimal_interval(cfg.ckpt_overhead_units, cfg.failure_rate_per_unit);
    let estimated = estimate_program_cost(program, cfg);
    if !program.checkpoint_ids().is_empty() {
        return InsertionReport {
            target_interval: target,
            estimated_cost: estimated,
            inserted: 0,
        };
    }
    let params: Params = program.params.iter().cloned().collect();
    let totals: Vec<f64> = program
        .body
        .iter()
        .map(|s| stmt_cost(s, &params, cfg))
        .collect();
    let mut inserted = 0usize;
    for (stmt, loop_total) in program.body.iter_mut().zip(totals) {
        match &mut stmt.kind {
            StmtKind::While { body, .. } | StmtKind::For { body, .. }
                if loop_total >= target / 2.0 =>
            {
                body.push(Stmt::new(StmtKind::Checkpoint {
                    label: Some("phase1".into()),
                }));
                inserted += 1;
            }
            _ => {}
        }
    }
    if inserted == 0 && estimated >= target / 2.0 {
        program.body.push(Stmt::new(StmtKind::Checkpoint {
            label: Some("phase1".into()),
        }));
        inserted = 1;
    }
    program.renumber();
    InsertionReport {
        target_interval: target,
        estimated_cost: estimated,
        inserted,
    }
}

/// Static checkpoint count of a block: `(min, max)` over the paths
/// through it (loops counted once, as in the CFG's DAG indexing).
pub fn static_count(block: &Block) -> (u32, u32) {
    let mut min = 0u32;
    let mut max = 0u32;
    for s in block {
        let (a, b) = match &s.kind {
            StmtKind::Checkpoint { .. } => (1, 1),
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                let (tmin, tmax) = static_count(then_branch);
                let (emin, emax) = static_count(else_branch);
                (tmin.min(emin), tmax.max(emax))
            }
            StmtKind::While { body, .. } | StmtKind::For { body, .. } => static_count(body),
            _ => (0, 0),
        };
        min += a;
        max += b;
    }
    (min, max)
}

/// Equalises checkpoint counts across the arms of every conditional
/// (recursively, bottom-up) by **appending** checkpoints to the lighter
/// arm. Returns the number of checkpoints added. After this pass,
/// `static_count(body)` has `min == max`, so the CFG's checkpoint
/// indexing is exact.
pub fn equalize_checkpoints(program: &mut Program) -> usize {
    fn fix_block(block: &mut Block) -> usize {
        let mut added = 0;
        for s in block.iter_mut() {
            match &mut s.kind {
                StmtKind::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    added += fix_block(then_branch);
                    added += fix_block(else_branch);
                    let (tmin, tmax) = static_count(then_branch);
                    let (emin, emax) = static_count(else_branch);
                    debug_assert_eq!(tmin, tmax, "children equalised");
                    debug_assert_eq!(emin, emax, "children equalised");
                    use std::cmp::Ordering;
                    let (lighter, diff) = match tmax.cmp(&emax) {
                        Ordering::Less => (&mut *then_branch, emax - tmax),
                        Ordering::Greater => (&mut *else_branch, tmax - emax),
                        Ordering::Equal => continue,
                    };
                    for _ in 0..diff {
                        lighter.push(Stmt::new(StmtKind::Checkpoint {
                            label: Some("equalize".into()),
                        }));
                        added += 1;
                    }
                }
                StmtKind::While { body, .. } | StmtKind::For { body, .. } => {
                    added += fix_block(body);
                }
                _ => {}
            }
        }
        added
    }
    let added = fix_block(&mut program.body);
    if added > 0 {
        program.renumber();
    }
    added
}

/// Rebalances checkpoint counts across the arms of every conditional by
/// **removing** checkpoints from the heavier arm (§3.1 allows both
/// adding and removing). Used by Phase III after a relocation hoists a
/// checkpoint out of one arm to a shared position, which leaves the
/// sibling arm's same-index checkpoint redundant; removing it (rather
/// than padding the other arm forever) lets Algorithm 3.2 converge.
///
/// Only direct-child checkpoints of the heavier arm are removed,
/// preferring ones labelled `equalize` (Phase I artefacts), then
/// unlabelled ones, then any; if the imbalance sits in nested
/// structure the remainder is balanced by *adding* to the lighter arm,
/// as in [`equalize_checkpoints`]. Returns `(removed, added)`.
pub fn rebalance_checkpoints(program: &mut Program) -> (usize, usize) {
    fn removal_priority(s: &Stmt) -> u32 {
        match &s.kind {
            StmtKind::Checkpoint { label: Some(l) } if l == "equalize" => 0,
            StmtKind::Checkpoint { label: None } => 1,
            StmtKind::Checkpoint { label: Some(_) } => 2,
            _ => u32::MAX,
        }
    }
    /// Removes up to `want` direct-child checkpoints from `block`,
    /// best candidates first; returns how many were removed.
    fn remove_direct(block: &mut Block, want: u32) -> u32 {
        let mut removed = 0;
        while removed < want {
            let candidate = block
                .iter()
                .enumerate()
                .filter(|(_, s)| matches!(s.kind, StmtKind::Checkpoint { .. }))
                .min_by_key(|(i, s)| (removal_priority(s), u32::MAX - *i as u32));
            match candidate {
                Some((i, _)) => {
                    block.remove(i);
                    removed += 1;
                }
                None => break,
            }
        }
        removed
    }
    fn fix_block(block: &mut Block) -> (usize, usize) {
        let mut removed = 0;
        let mut added = 0;
        for s in block.iter_mut() {
            match &mut s.kind {
                StmtKind::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    let (r, a) = fix_block(then_branch);
                    removed += r;
                    added += a;
                    let (r, a) = fix_block(else_branch);
                    removed += r;
                    added += a;
                    let t = static_count(then_branch).1;
                    let e = static_count(else_branch).1;
                    use std::cmp::Ordering;
                    let (heavier, lighter, diff) = match t.cmp(&e) {
                        Ordering::Greater => (&mut *then_branch, &mut *else_branch, t - e),
                        Ordering::Less => (&mut *else_branch, &mut *then_branch, e - t),
                        Ordering::Equal => continue,
                    };
                    let r = remove_direct(heavier, diff);
                    removed += r as usize;
                    for _ in 0..diff - r {
                        lighter.push(Stmt::new(StmtKind::Checkpoint {
                            label: Some("equalize".into()),
                        }));
                        added += 1;
                    }
                }
                StmtKind::While { body, .. } | StmtKind::For { body, .. } => {
                    let (r, a) = fix_block(body);
                    removed += r;
                    added += a;
                }
                _ => {}
            }
        }
        (removed, added)
    }
    let (removed, added) = fix_block(&mut program.body);
    if removed + added > 0 {
        program.renumber();
    }
    (removed, added)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acfc_mpsl::parse;

    #[test]
    fn optimal_interval_matches_youngs_formula() {
        // o = 2, λ = 1e-4 → T* = sqrt(2*2/1e-4) = 200.
        assert!((optimal_interval(2.0, 1e-4) - 200.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "failure rate must be positive")]
    fn zero_rate_panics() {
        let _ = optimal_interval(1.0, 0.0);
    }

    #[test]
    fn cost_estimation_accounts_for_loops_and_params() {
        let p = parse(
            "program t; param iters = 10; var i;
             for i in 0..iters { compute 5; send to 0; recv from 1; }",
        )
        .unwrap();
        let cfg = InsertionConfig::default();
        // 10 iterations × (5 + 1 + 1).
        assert!((estimate_program_cost(&p, &cfg) - 70.0).abs() < 1e-9);
    }

    #[test]
    fn branch_cost_takes_max_arm() {
        let p = parse("program t; if rank == 0 { compute 10; } else { compute 4; }").unwrap();
        let cfg = InsertionConfig::default();
        assert!((estimate_program_cost(&p, &cfg) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn insertion_targets_hot_loops() {
        let mut p = parse(
            "program t; param iters = 100; var i;
             for i in 0..iters { compute 50; }",
        )
        .unwrap();
        let cfg = InsertionConfig {
            ckpt_overhead_units: 1.0,
            failure_rate_per_unit: 1e-4,
            ..InsertionConfig::default()
        };
        // T* ≈ 141; loop total = 5000 ≥ T*/2 → one checkpoint in body.
        let rep = insert_checkpoints(&mut p, &cfg);
        assert_eq!(rep.inserted, 1);
        assert_eq!(p.checkpoint_ids().len(), 1);
        let StmtKind::For { body, .. } = &p.body[0].kind else {
            panic!()
        };
        assert!(matches!(
            body.last().unwrap().kind,
            StmtKind::Checkpoint { .. }
        ));
    }

    #[test]
    fn insertion_falls_back_to_program_end() {
        let mut p = parse("program t; compute 1000;").unwrap();
        let cfg = InsertionConfig {
            ckpt_overhead_units: 1.0,
            failure_rate_per_unit: 1e-4,
            ..InsertionConfig::default()
        };
        let rep = insert_checkpoints(&mut p, &cfg);
        assert_eq!(rep.inserted, 1);
        assert!(matches!(
            p.body.last().unwrap().kind,
            StmtKind::Checkpoint { .. }
        ));
    }

    #[test]
    fn cheap_programs_get_no_checkpoints() {
        let mut p = parse("program t; compute 1;").unwrap();
        let cfg = InsertionConfig {
            ckpt_overhead_units: 1.0,
            failure_rate_per_unit: 1e-4,
            ..InsertionConfig::default()
        };
        assert_eq!(insert_checkpoints(&mut p, &cfg).inserted, 0);
        assert!(p.checkpoint_ids().is_empty());
    }

    #[test]
    fn existing_checkpoints_left_alone() {
        let mut p = parse("program t; checkpoint; compute 1000;").unwrap();
        let rep = insert_checkpoints(&mut p, &InsertionConfig::default());
        assert_eq!(rep.inserted, 0);
        assert_eq!(p.checkpoint_ids().len(), 1);
    }

    #[test]
    fn static_count_ranges() {
        let p = parse(
            "program t; var x;
             if x > 0 { checkpoint; checkpoint; }
             checkpoint;",
        )
        .unwrap();
        assert_eq!(static_count(&p.body), (1, 3));
    }

    #[test]
    fn equalization_balances_arms() {
        let mut p = parse(
            "program t; var x;
             if x > 0 { checkpoint; checkpoint; } else { checkpoint; }",
        )
        .unwrap();
        let added = equalize_checkpoints(&mut p);
        assert_eq!(added, 1);
        assert_eq!(static_count(&p.body), (2, 2));
    }

    #[test]
    fn equalization_handles_missing_else() {
        let mut p = parse("program t; var x; if x > 0 { checkpoint; }").unwrap();
        let added = equalize_checkpoints(&mut p);
        assert_eq!(added, 1);
        let StmtKind::If { else_branch, .. } = &p.body[0].kind else {
            panic!()
        };
        assert_eq!(else_branch.len(), 1);
        assert_eq!(static_count(&p.body), (1, 1));
    }

    #[test]
    fn equalization_recurses_into_nested_structure() {
        let mut p = parse(
            "program t; var x, i;
             for i in 0..3 {
               if x > 0 {
                 if x > 1 { checkpoint; }
               } else { checkpoint; checkpoint; }
             }",
        )
        .unwrap();
        let added = equalize_checkpoints(&mut p);
        assert!(added >= 2, "{added}");
        assert_eq!(static_count(&p.body).0, static_count(&p.body).1);
    }

    #[test]
    fn balanced_program_untouched() {
        let mut p = acfc_mpsl::programs::jacobi_odd_even(3);
        let before = p.clone();
        assert_eq!(equalize_checkpoints(&mut p), 0);
        assert_eq!(p, before);
    }
}
