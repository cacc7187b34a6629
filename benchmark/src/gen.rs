//! Seeded input generators. Everything the program under test sees is
//! made here from `--seed`; the same seed gives the same bytes.
//!
//! The seed varies constants, labels and payload values — never how
//! many statements, variables or commits an input has. Cost therefore
//! depends on the commit under test, not on the seed, which is what
//! lets ten runs with ten seeds land within a few percent of each
//! other.

use acfc::mpsl::{programs, to_source};
use acfc::sim::{CkptTrigger, StateSnapshot};
use acfc::util::rng::Rng;
use std::fmt::Write as _;

/// One analysis input: MPSL source text plus the process count the
/// pipeline is instantiated at.
pub struct Source {
    pub name: String,
    pub text: String,
    pub nprocs: usize,
}

const NPROCS: [usize; 3] = [4, 8, 64];

/// `m` sequential odd/even exchange blocks, each with the Figure-5
/// misplacement: Algorithm 3.2 performs one relocation per block, so
/// Phase III cost grows super-linearly in `m`.
fn ladder(m: usize, rng: &mut Rng) -> String {
    let mut s = String::from("program ladder;\n");
    for _ in 0..m {
        let w = rng.gen_i64_range(10, 90);
        let bits = 512 * rng.gen_i64_range(1, 9);
        let _ = write!(
            s,
            "if rank % 2 == 0 {{ checkpoint; compute {w}; send to rank + 1 size {bits}; recv from rank + 1; }}\n\
             else {{ recv from rank - 1; compute {w}; checkpoint; send to rank - 1 size {bits}; }}\n"
        );
    }
    s
}

/// A binary tree of ID-dependent branches `depth` levels deep with
/// local work in the leaves, followed by a uniform ring exchange: the
/// ID-dependence dataflow and rank attributes do the work, Phase III
/// finds nothing to move.
fn branch_tree(depth: u32, rounds: usize, rng: &mut Rng) -> String {
    fn node(s: &mut String, level: u32, depth: u32, rng: &mut Rng) {
        if level == depth {
            let _ = writeln!(
                s,
                "compute {}; acc := acc + {};",
                rng.gen_i64_range(5, 60),
                level
            );
            return;
        }
        let modulus = 2i64 << level;
        let _ = writeln!(s, "if rank % {modulus} < {} {{", modulus / 2);
        node(s, level + 1, depth, rng);
        s.push_str("} else {\n");
        node(s, level + 1, depth, rng);
        s.push_str("}\n");
    }
    let mut s = String::from("program branch_tree;\nvar acc;\nacc := 0;\n");
    for _ in 0..rounds {
        node(&mut s, 0, depth, rng);
        let bits = 256 * rng.gen_i64_range(1, 17);
        let _ = writeln!(
            s,
            "send to (rank + 1) % nprocs size {bits};\nrecv from (rank - 1) % nprocs;\ncheckpoint;"
        );
    }
    s
}

/// Loops whose partner is a rotation distance of 1 to 3: irregular
/// (non-neighbour) sends inside natural loops, `blocks` loops in a row.
/// The distance decides what Algorithm 3.1 has to match, so it follows
/// the block index, not the seed.
fn rotation_loops(blocks: usize, rng: &mut Rng) -> String {
    let mut s = String::from("program rotation_loops;\nparam iters = 4;\nvar i;\n");
    for block in 0..blocks {
        let k = 1 + block % 3;
        let w = rng.gen_i64_range(10, 120);
        let _ = write!(
            s,
            "for i in 0..iters {{\n  compute {w};\n  send to (rank + {k}) % nprocs size 1024;\n  \
             recv from (rank - {k}) % nprocs;\n  checkpoint;\n}}\n"
        );
    }
    s
}

/// A straight-line program of exactly `stmts` statements: compute,
/// local assignment, ring send, ring receive, checkpoint, repeated.
fn straight_line(stmts: usize, rng: &mut Rng) -> String {
    let mut s = String::from("program straight_line;\nvar acc;\nacc := 0;\n");
    let mut n = 1;
    while n < stmts {
        let step = match n % 5 {
            0 => format!("compute {};", rng.gen_i64_range(5, 200)),
            1 => format!("acc := acc + {};", rng.gen_i64_range(1, 1000)),
            2 => format!(
                "send to (rank + 1) % nprocs size {};",
                128 * rng.gen_i64_range(1, 33)
            ),
            3 => "recv from (rank - 1) % nprocs;".to_string(),
            _ => "checkpoint;".to_string(),
        };
        s.push_str(&step);
        s.push('\n');
        n += 1;
    }
    s
}

/// The analysis corpus: the stock programs as source text at every
/// process count plus four generated families on fixed size ladders,
/// 122 programs in all. Cost is quadratic in program size and steep in
/// `nprocs`, so the large programs are instantiated at 4 or 8
/// processes and only the small ones at 64: one pass stays near a
/// quarter of a second while the top dozen programs still own the p90.
pub fn analysis_corpus(seed: u64) -> Vec<Source> {
    let mut rng = Rng::stream(seed, 1);
    let mut out = Vec::new();
    let mut push = |name: String, text: String, big: bool| {
        let choices = if big { &NPROCS[..2] } else { &NPROCS[..] };
        let nprocs = choices[out.len() % choices.len()];
        out.push(Source { name, text, nprocs });
    };
    for p in programs::all_stock() {
        for _ in NPROCS {
            push(format!("stock/{}", p.name), to_source(&p), false);
        }
    }
    for (round, top) in [(0, 24), (1, 16)] {
        for m in (2..=top).step_by(2) {
            push(format!("ladder/{m}.{round}"), ladder(m, &mut rng), m > 8);
        }
    }
    for depth in 2..=5 {
        for rounds in [2usize, 4, 6] {
            let text = branch_tree(depth, rounds, &mut rng);
            push(
                format!("branch_tree/{depth}x{rounds}"),
                text,
                depth * rounds as u32 > 8,
            );
        }
    }
    for blocks in [
        1usize, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40, 48, 56, 64, 80, 96, 112,
    ] {
        let text = rotation_loops(blocks, &mut rng);
        push(format!("rotation_loops/{blocks}"), text, blocks > 16);
    }
    for (round, top) in [(0, 800), (1, 600)] {
        for stmts in [100usize, 150, 200, 250, 300, 400, 500, 600, 800] {
            if stmts <= top {
                let text = straight_line(stmts, &mut rng);
                push(format!("straight_line/{stmts}.{round}"), text, stmts > 150);
            }
        }
    }
    out
}

/// Number of declared variables in [`big_state`]: with 8-character
/// names a snapshot encodes to roughly 24 bytes per variable, ~96 KiB.
pub const BIG_STATE_VARS: usize = 4096;

/// A ring-exchange program whose every snapshot carries
/// [`BIG_STATE_VARS`] bound variables — state size obtained from
/// declarations alone, no language change. `iters` checkpointing
/// iterations.
pub fn big_state(iters: usize, seed: u64) -> String {
    let mut rng = Rng::stream(seed, 2);
    let mut s = format!("program big_state;\nparam iters = {iters};\nvar i;\n");
    for v in 0..BIG_STATE_VARS {
        let _ = writeln!(s, "var s{v:07};");
    }
    let w = rng.gen_i64_range(40, 60);
    let _ = write!(
        s,
        "for i in 0..iters {{\n  compute {w};\n  s0000000 := s0000000 + i;\n  \
         send to (rank + 1) % nprocs size 4096;\n  recv from (rank - 1) % nprocs;\n  checkpoint;\n}}\n"
    );
    s
}

/// A synthetic snapshot of `vars` variables for `(proc, seq)`; values
/// are seeded, names and counts are not.
pub fn snapshot(proc: usize, seq: u64, vars: usize, rng: &mut Rng) -> StateSnapshot {
    StateSnapshot {
        proc,
        seq,
        trigger: CkptTrigger::AppStatement,
        label: None,
        pc: 7,
        step: seq * 11,
        nprocs: 4,
        vars: (0..vars)
            .map(|v| (format!("s{v:07}"), rng.next_u64() as i64))
            .collect(),
        vc: (0..4).map(|p| (p, seq + u64::from(p))).collect(),
        stmt_instances: vec![(1, seq), (2, seq * 2)],
    }
}

/// Variables per snapshot so the encoded payload is close to `bytes`
/// (24 bytes per variable: 8 length + 8 name + 8 value).
pub fn vars_for_bytes(bytes: usize) -> usize {
    bytes / 24
}
