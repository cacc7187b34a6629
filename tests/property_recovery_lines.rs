//! Property-based validation of the paper's central theorem (E1 in
//! `EXPERIMENTS.md`).
//!
//! A generator writes random — but deadlock-free by construction —
//! SPMD programs as MPSL source text, from a vocabulary of
//! communication idioms (neighbour exchanges, chain pipelines, gathers,
//! ring shifts) with checkpoints sprinkled at *adversarial* positions
//! (including the Figure-2 style parity-dependent placements). Each
//! program is parsed, pushed through the full offline pipeline and
//! then executed on the simulator across process counts and seeds;
//! the property is Theorem 3.2: **every straight cut of checkpoints in
//! every execution is a recovery line** — checked both with vector
//! clocks and with the independent orphan-message oracle.

use acfc_core::{analyze, AnalysisConfig};
use acfc_mpsl::{parse, Program};
use acfc_sim::consistency::{cut_consistency, cut_consistency_oracle};
use acfc_sim::{compile, run, SimConfig};
use acfc_util::check::{forall, Gen};
use std::fmt::Write as _;

/// Where to put a checkpoint relative to a communication idiom.
#[derive(Debug, Clone, Copy)]
enum CkptPos {
    None,
    Before,
    After,
}

/// One communication idiom with adversarial checkpoint positions.
#[derive(Debug, Clone)]
enum Item {
    Compute(i64),
    Checkpoint,
    /// Jacobi-style neighbour exchange; checkpoint positions may differ
    /// between even and odd ranks (the Figure-2 hazard).
    ParityExchange {
        even: CkptPos,
        odd: CkptPos,
    },
    /// One-directional chain `0 → 1 → … → n−1`; optional checkpoints
    /// for the head (before its send) and the others (after their
    /// receive) — the skewed-pipeline hazard.
    Chain {
        head_ckpt: bool,
        tail_ckpt: bool,
    },
    /// Workers send to rank 0, which receives from any.
    Gather(CkptPos),
    /// Ring shift: send right, receive from left.
    RingShift(CkptPos),
}

fn arb_pos(g: &mut Gen) -> CkptPos {
    *g.pick(&[CkptPos::None, CkptPos::Before, CkptPos::After])
}

fn arb_item(g: &mut Gen) -> Item {
    match g.usize_in(0, 6) {
        0 => Item::Compute(g.i64_in(1, 20)),
        1 => Item::Checkpoint,
        2 => Item::ParityExchange {
            even: arb_pos(g),
            odd: arb_pos(g),
        },
        3 => Item::Chain {
            head_ckpt: g.bool(),
            tail_ckpt: g.bool(),
        },
        4 => Item::Gather(arb_pos(g)),
        _ => Item::RingShift(arb_pos(g)),
    }
}

/// Appends `checkpoint;` when the idiom's position `pos` is `when`.
fn ckpt(s: &mut String, pos: CkptPos, when: CkptPos) {
    if matches!(
        (pos, when),
        (CkptPos::Before, CkptPos::Before) | (CkptPos::After, CkptPos::After)
    ) {
        s.push_str("checkpoint;\n");
    }
}

fn write_item(s: &mut String, item: &Item) {
    match *item {
        Item::Compute(c) => {
            let _ = writeln!(s, "compute {c};");
        }
        Item::Checkpoint => s.push_str("checkpoint;\n"),
        Item::ParityExchange { even, odd } => {
            let comm = "send to (rank + 1) % nprocs size 512;\n\
                        send to (rank - 1) % nprocs size 512;\n\
                        recv from (rank - 1) % nprocs;\n\
                        recv from (rank + 1) % nprocs;\n";
            s.push_str("if rank % 2 == 0 {\n");
            ckpt(s, even, CkptPos::Before);
            s.push_str(comm);
            ckpt(s, even, CkptPos::After);
            s.push_str("} else {\n");
            ckpt(s, odd, CkptPos::Before);
            s.push_str(comm);
            ckpt(s, odd, CkptPos::After);
            s.push_str("}\n");
        }
        Item::Chain {
            head_ckpt,
            tail_ckpt,
        } => {
            s.push_str("if rank == 0 {\n");
            if head_ckpt {
                s.push_str("checkpoint;\n");
            }
            s.push_str(
                "compute 3;\nsend to 1 size 256;\n} else {\nrecv from rank - 1;\ncompute 3;\n\
                 if rank < nprocs - 1 { send to rank + 1 size 256; }\n",
            );
            if tail_ckpt {
                s.push_str("checkpoint;\n");
            }
            s.push_str("}\n");
        }
        Item::Gather(pos) => {
            // Gather with a release phase: without message tags, a
            // `recv from any` could otherwise steal a later idiom's
            // message from a fast peer (a real MPI hazard). Rank 0
            // releases the workers only after the gather completes, and
            // FIFO ordering keeps the release ahead of later traffic.
            s.push_str("if rank == 0 {\n");
            ckpt(s, pos, CkptPos::Before);
            s.push_str("for j in 0..nprocs - 1 { recv from any; }\n");
            ckpt(s, pos, CkptPos::After);
            s.push_str("for j in 1..nprocs { send to j size 8; }\n} else {\n");
            s.push_str("compute 2;\nsend to 0 size 128;\n");
            // Workers checkpoint at the opposite phase: another
            // adversarial skew.
            ckpt(s, pos, CkptPos::Before);
            ckpt(s, pos, CkptPos::After);
            s.push_str("recv from 0;\n}\n");
        }
        Item::RingShift(pos) => {
            ckpt(s, pos, CkptPos::Before);
            s.push_str("send to (rank + 1) % nprocs size 64;\nrecv from (rank - 1) % nprocs;\n");
            ckpt(s, pos, CkptPos::After);
        }
    }
}

/// The MPSL source of `items` inside a `loop_iters`-trip loop.
fn source(items: &[Item], loop_iters: i64) -> String {
    let mut s = format!("program generated;\nvar i, j;\nfor i in 0..{loop_iters} {{\n");
    for item in items {
        write_item(&mut s, item);
    }
    s.push_str("}\n");
    s
}

fn build_program(items: &[Item], loop_iters: i64) -> Program {
    let src = source(items, loop_iters);
    parse(&src).unwrap_or_else(|e| panic!("generated program does not parse: {e}\n{src}"))
}

#[test]
fn theorem_3_2_holds_for_random_programs() {
    forall("theorem_3_2_holds_for_random_programs", 256, |g| {
        let items = g.vec_of(1, 5, arb_item);
        let loop_iters = g.i64_in(1, 4);
        let seed = g.u64_in(0, 1000);
        let program = build_program(&items, loop_iters);
        if program.checkpoint_ids().is_empty() {
            return;
        }
        let analysis = analyze(&program, &AnalysisConfig::for_nprocs(8))
            // The pipeline must not fail on this generator's
            // vocabulary; surface it as a counterexample.
            .unwrap_or_else(|err| {
                panic!("analysis failed: {err}\n{}", acfc_mpsl::to_source(&program))
            });
        for n in [2usize, 4, 5] {
            let trace = run(
                &compile(&analysis.program),
                &SimConfig::new(n).with_seed(seed),
            );
            assert!(
                trace.completed(),
                "n={n}: {:?}\n{}",
                trace.outcome,
                acfc_mpsl::to_source(&analysis.program)
            );
            let depth = trace.aligned_depth() as u64;
            for i in 1..=depth {
                let cut = vec![i; n];
                let vc = cut_consistency(&trace, &cut);
                let oracle = cut_consistency_oracle(&trace, &cut);
                assert_eq!(vc, oracle, "checkers disagree at cut {i}");
                assert!(
                    vc,
                    "straight cut {} not a recovery line (n={}):\n{}",
                    i,
                    n,
                    acfc_mpsl::to_source(&analysis.program)
                );
            }
        }
    });
}

#[test]
fn transformation_preserves_message_behaviour() {
    forall("transformation_preserves_message_behaviour", 256, |g| {
        let items = g.vec_of(1, 4, arb_item);
        let loop_iters = g.i64_in(1, 3);
        let program = build_program(&items, loop_iters);
        if program.checkpoint_ids().is_empty() {
            return;
        }
        let analysis = analyze(&program, &AnalysisConfig::for_nprocs(8)).expect("analysis failed");
        let before = run(&compile(&program), &SimConfig::new(4));
        let after = run(&compile(&analysis.program), &SimConfig::new(4));
        if !before.completed() {
            return;
        }
        assert!(after.completed());
        assert_eq!(before.metrics.app_messages, after.metrics.app_messages);
        assert_eq!(before.metrics.app_bits, after.metrics.app_bits);
    });
}
