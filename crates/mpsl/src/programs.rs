//! Stock MPSL programs.
//!
//! Includes the paper's running examples (Figures 1, 2, 5 and 6) plus a
//! set of realistic SPMD communication patterns used by the examples,
//! tests, and benchmarks. Every program here is executable on the
//! simulator for any `nprocs ≥ 2` unless noted otherwise.

use crate::ast::Program;
use crate::parser::parse;

fn must(src: &str) -> Program {
    parse(src).unwrap_or_else(|e| panic!("stock program failed to parse: {e}\n{src}"))
}

/// Figure 1 — the Jacobi iteration with a *uniform* checkpoint placement:
/// every process checkpoints at the same point of the loop body, so every
/// straight cut of checkpoints is a recovery line.
pub fn jacobi(iters: i64) -> Program {
    must(&format!(
        "program jacobi;
         param iters = {iters};
         var i;
         for i in 0..iters {{
           compute 50;
           send to (rank + 1) % nprocs size 4096;
           send to (rank - 1) % nprocs size 4096;
           recv from (rank - 1) % nprocs;
           recv from (rank + 1) % nprocs;
           checkpoint \"jacobi-sweep\";
         }}"
    ))
}

/// Figure 2 — the *odd/even* Jacobi variant: processes with even rank
/// checkpoint **before** the boundary exchange, processes with odd rank
/// **after** it. The paper shows (Figure 3) that a straight cut of these
/// checkpoints need not be a recovery line.
pub fn jacobi_odd_even(iters: i64) -> Program {
    must(&format!(
        "program jacobi_odd_even;
         param iters = {iters};
         var i;
         for i in 0..iters {{
           compute 50;
           if rank % 2 == 0 {{
             checkpoint \"even\";
             send to (rank + 1) % nprocs size 4096;
             send to (rank - 1) % nprocs size 4096;
             recv from (rank - 1) % nprocs;
             recv from (rank + 1) % nprocs;
           }} else {{
             send to (rank + 1) % nprocs size 4096;
             send to (rank - 1) % nprocs size 4096;
             recv from (rank - 1) % nprocs;
             recv from (rank + 1) % nprocs;
             checkpoint \"odd\";
           }}
         }}"
    ))
}

/// Figure 5 — a straight-line program where path A checkpoints and then
/// sends, while path B receives and then checkpoints: the message edge
/// creates a path `C₁ᴬ → send → recv → C₁ᴮ` in the extended CFG, so the
/// straight cut `S₁` is not a recovery line.
pub fn fig5() -> Program {
    must(
        "program fig5;
         compute 10;
         if rank % 2 == 0 {
           checkpoint \"A\";
           send to rank + 1 size 512;
         } else {
           recv from rank - 1;
           checkpoint \"B\";
         }
         compute 10;",
    )
}

/// Figure 6 — the back-edge variant: path B checkpoints once and then
/// streams messages; path A checkpoints at the top of each loop
/// iteration and receives at the bottom. The path
/// `C₁ᴮ → send → recv → (back edge) → while → C₁ᴬ` makes `R₁`
/// inconsistent if B fails right after a send (paper, §3.3).
///
/// Requires an even `nprocs`: even ranks run path A, odd ranks path B and
/// stream to `rank - 1`.
pub fn fig6(iters: i64) -> Program {
    must(&format!(
        "program fig6;
         param iters = {iters};
         var i;
         if rank % 2 == 0 {{
           for i in 0..iters {{
             checkpoint \"A\";
             compute 20;
             recv from rank + 1;
           }}
         }} else {{
           checkpoint \"B\";
           for i in 0..iters {{
             compute 20;
             send to rank - 1 size 512;
           }}
         }}"
    ))
}

/// A ring pipeline with uniform checkpoint placement: everyone forwards to
/// the right neighbour and checkpoints once per round.
pub fn ring(iters: i64, size_bits: i64) -> Program {
    must(&format!(
        "program ring;
         param iters = {iters};
         var i;
         for i in 0..iters {{
           compute 25;
           send to (rank + 1) % nprocs size {size_bits};
           recv from (rank - 1) % nprocs;
           checkpoint;
         }}"
    ))
}

/// A one-directional chain pipeline (`0 → 1 → … → n−1`) with uniform
/// placement (checkpoint after the send): safe.
pub fn pipeline(iters: i64) -> Program {
    must(&format!(
        "program pipeline;
         param iters = {iters};
         var i;
         for i in 0..iters {{
           if rank > 0 {{
             recv from rank - 1;
           }}
           compute 40;
           if rank < nprocs - 1 {{
             send to rank + 1 size 2048;
           }}
           checkpoint;
         }}"
    ))
}

/// A *skewed* chain pipeline: rank 0 checkpoints before it sends, the
/// others checkpoint only after their receive. Every message therefore
/// crosses from the sender's next interval into the receiver's current
/// one — straight cuts are inconsistent, and Phase III must move the
/// downstream checkpoints back before the receive.
pub fn pipeline_skewed(iters: i64) -> Program {
    must(&format!(
        "program pipeline_skewed;
         param iters = {iters};
         var i;
         for i in 0..iters {{
           if rank == 0 {{
             checkpoint \"head\";
             compute 40;
             send to rank + 1 size 2048;
           }} else {{
             recv from rank - 1;
             compute 40;
             if rank < nprocs - 1 {{
               send to rank + 1 size 2048;
             }}
             checkpoint \"tail\";
           }}
         }}"
    ))
}

/// Master/worker with an irregular pattern: workers push results to the
/// master, which receives from **any** source (`MPI_ANY_SOURCE`), so the
/// receive cannot be matched to a unique sender statically.
pub fn master_worker(rounds: i64) -> Program {
    must(&format!(
        "program master_worker;
         param rounds = {rounds};
         var r, j;
         for r in 0..rounds {{
           if rank == 0 {{
             for j in 0..nprocs - 1 {{
               recv from any;
             }}
           }} else {{
             compute 60;
             send to 0 size 1024;
           }}
           checkpoint;
         }}"
    ))
}

/// A data-dependent rotation: every process sends to
/// `(rank + 1 + input(0) % (nprocs − 1)) % nprocs` — a permutation whose
/// offset is known only at run time — and receives from any. Both the
/// send destination and the receive source are *irregular*.
pub fn rotation_shuffle(rounds: i64) -> Program {
    must(&format!(
        "program rotation_shuffle;
         param rounds = {rounds};
         var r;
         for r in 0..rounds {{
           compute 30;
           send to (rank + 1 + input(0) % (nprocs - 1)) % nprocs size 512;
           recv from any;
           checkpoint;
         }}"
    ))
}

/// A 1-D stencil on an open chain: interior processes exchange with both
/// neighbours, boundary processes with one. Uniform checkpoint placement.
pub fn stencil_1d(iters: i64) -> Program {
    must(&format!(
        "program stencil_1d;
         param iters = {iters};
         var i;
         for i in 0..iters {{
           compute 80;
           if rank > 0 {{
             send to rank - 1 size 4096;
           }}
           if rank < nprocs - 1 {{
             send to rank + 1 size 4096;
           }}
           if rank > 0 {{
             recv from rank - 1;
           }}
           if rank < nprocs - 1 {{
             recv from rank + 1;
           }}
           checkpoint;
         }}"
    ))
}

/// Broadcast-then-reduce rounds: rank 0 broadcasts work, workers reply,
/// everyone checkpoints. Exercises collective lowering (§3.2).
pub fn bcast_reduce(rounds: i64) -> Program {
    must(&format!(
        "program bcast_reduce;
         param rounds = {rounds};
         var r, j;
         for r in 0..rounds {{
           bcast from 0 size 256;
           if rank != 0 {{
             compute 50;
             send to 0 size 128;
           }} else {{
             for j in 0..nprocs - 1 {{
               recv from any;
             }}
           }}
           checkpoint;
         }}"
    ))
}

/// Two-process ping-pong (ranks ≥ 2 just compute and checkpoint).
pub fn pingpong(iters: i64) -> Program {
    must(&format!(
        "program pingpong;
         param iters = {iters};
         var i;
         for i in 0..iters {{
           if rank == 0 {{
             send to 1 size 64;
             recv from 1;
           }} else {{
             if rank == 1 {{
               recv from 0;
               send to 0 size 64;
             }} else {{
               compute 10;
             }}
           }}
           checkpoint;
         }}"
    ))
}

/// A ping-pong with *skewed* checkpoint placement (rank 0 checkpoints
/// between its send and its receive): creates the Figure-3 style orphan
/// message and is the smallest program on which Phase III has work to do.
pub fn pingpong_skewed(iters: i64) -> Program {
    must(&format!(
        "program pingpong_skewed;
         param iters = {iters};
         var i;
         for i in 0..iters {{
           if rank == 0 {{
             checkpoint \"before-serve\";
             send to 1 size 64;
             recv from 1;
           }} else {{
             if rank == 1 {{
               recv from 0;
               send to 0 size 64;
               checkpoint \"after-return\";
             }} else {{
               compute 10;
               checkpoint;
             }}
           }}
         }}"
    ))
}

/// Token ring: in round `r`, process `r mod n` passes the token on.
/// The source/destination expressions depend on the loop variable, which
/// the rank-abstract analysis cannot resolve — exercising the
/// conservative (non-contradiction) matching path.
pub fn token_ring(rounds: i64) -> Program {
    must(&format!(
        "program token_ring;
         param rounds = {rounds};
         var r;
         for r in 0..rounds {{
           if rank == r % nprocs {{
             send to (rank + 1) % nprocs size 32;
           }}
           if rank == (r + 1) % nprocs {{
             recv from (rank - 1) % nprocs;
           }}
           checkpoint;
         }}"
    ))
}

/// A 2-D halo exchange on a `rows × (nprocs/rows)` process grid
/// (requires `nprocs` divisible by `rows`): each process exchanges with
/// its east/west neighbours on the ring within its row, then with its
/// north/south neighbours across rows, then checkpoints — the classic
/// structured-grid communication pattern.
pub fn halo2d(iters: i64, rows: i64) -> Program {
    must(&format!(
        "program halo2d;
         param iters = {iters};
         param rows = {rows};
         var i, cols, row, col, east, west, north, south;
         cols := nprocs / rows;
         row := rank / cols;
         col := rank % cols;
         east := row * cols + (col + 1) % cols;
         west := row * cols + (col - 1) % cols;
         north := ((row - 1) % rows) * cols + col;
         south := ((row + 1) % rows) * cols + col;
         for i in 0..iters {{
           compute 60;
           send to east size 2048;
           send to west size 2048;
           recv from west;
           recv from east;
           send to north size 2048;
           send to south size 2048;
           recv from south;
           recv from north;
           checkpoint \"sweep\";
         }}"
    ))
}

/// A tree reduction to rank 0 followed by a broadcast back — the shape
/// of `MPI_Allreduce` over a binomial-ish tree expressed with stride
/// arithmetic. Works for any `nprocs ≥ 2` (strides that fall outside
/// the rank range are guarded).
pub fn reduce_bcast_tree(rounds: i64) -> Program {
    must(&format!(
        "program reduce_bcast_tree;
         param rounds = {rounds};
         var r, stride;
         for r in 0..rounds {{
           compute 30;
           stride := 1;
           while stride < nprocs {{
             if rank % (2 * stride) == 0 {{
               if rank + stride < nprocs {{
                 recv from rank + stride;
               }}
             }} else {{
               if rank % (2 * stride) == stride {{
                 send to rank - stride size 512;
               }}
             }}
             stride := stride * 2;
           }}
           bcast from 0 size 512;
           checkpoint;
         }}"
    ))
}

/// A wavefront sweep over the process chain: each process receives the
/// frontier from its predecessor, advances it, and forwards — twice per
/// iteration (down then up), checkpointing between sweeps.
pub fn wavefront(iters: i64) -> Program {
    must(&format!(
        "program wavefront;
         param iters = {iters};
         var i;
         for i in 0..iters {{
           if rank > 0 {{
             recv from rank - 1;
           }}
           compute 25;
           if rank < nprocs - 1 {{
             send to rank + 1 size 1024;
           }}
           checkpoint \"down\";
           if rank < nprocs - 1 {{
             recv from rank + 1;
           }}
           compute 25;
           if rank > 0 {{
             send to rank - 1 size 1024;
           }}
           checkpoint \"up\";
         }}"
    ))
}

/// Instruction-dense Jacobi: the boundary exchange of [`jacobi`], but
/// the per-sweep local work is an explicit `cells`-iteration relaxation
/// loop instead of one opaque `compute` statement. Each sweep executes
/// ~4·`cells` cheap instructions on the engine's inline fast path, so
/// this is the workload that measures raw instruction throughput at
/// large `n` (the `jacobi_cells_n1024` bench) rather than event-queue
/// turnaround. Deliberately **not** in [`all_stock`]: its instruction
/// count would dominate the analysis-pipeline benches, which measure
/// per-workload offline cost, not simulator throughput.
pub fn jacobi_cells(iters: i64, cells: i64) -> Program {
    must(&format!(
        "program jacobi_cells;
         param iters = {iters};
         param cells = {cells};
         var i; var j; var acc;
         acc := 0;
         for i in 0..iters {{
           for j in 0..cells {{
             acc := acc + j;
           }}
           send to (rank + 1) % nprocs size 4096;
           send to (rank - 1) % nprocs size 4096;
           recv from (rank - 1) % nprocs;
           recv from (rank + 1) % nprocs;
           checkpoint \"sweep\";
         }}"
    ))
}

/// All stock programs with small default sizes, for exhaustive tests.
pub fn all_stock() -> Vec<Program> {
    vec![
        jacobi(3),
        jacobi_odd_even(3),
        fig5(),
        fig6(3),
        ring(3, 512),
        pipeline(3),
        pipeline_skewed(3),
        master_worker(2),
        rotation_shuffle(2),
        stencil_1d(3),
        bcast_reduce(2),
        pingpong(3),
        pingpong_skewed(3),
        token_ring(4),
        reduce_bcast_tree(2),
        wavefront(3),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pretty::to_source;

    #[test]
    fn all_stock_programs_parse_and_roundtrip() {
        for p in all_stock() {
            let src = to_source(&p);
            let q = parse(&src).unwrap_or_else(|e| panic!("{}: {e}\n{src}", p.name));
            assert_eq!(p, q, "round-trip mismatch for {}", p.name);
        }
    }

    #[test]
    fn jacobi_has_one_checkpoint_node() {
        assert_eq!(jacobi(5).checkpoint_ids().len(), 1);
    }

    #[test]
    fn jacobi_cells_matches_jacobi_communication_shape() {
        let p = jacobi_cells(5, 16);
        // Same uniform exchange + checkpoint structure as `jacobi`, so
        // the same recovery-line properties hold; only the local work
        // is spelled out as instructions.
        assert_eq!(p.checkpoint_ids().len(), 1);
        assert_eq!(p.send_ids().len(), 2);
        assert_eq!(p.recv_ids().len(), 2);
        assert_eq!(p.param("cells"), Some(16));
        let src = to_source(&p);
        assert_eq!(parse(&src).unwrap(), p, "round-trip mismatch\n{src}");
    }

    #[test]
    fn jacobi_odd_even_has_two_checkpoint_nodes() {
        assert_eq!(jacobi_odd_even(5).checkpoint_ids().len(), 2);
    }

    #[test]
    fn ring_declares_its_iteration_count() {
        assert_eq!(ring(3, 512).param("iters"), Some(3));
    }

    #[test]
    fn irregular_programs_are_flagged() {
        let p = rotation_shuffle(1);
        let mut has_irregular_send = false;
        p.visit(&mut |s| {
            if let crate::ast::StmtKind::Send { dest, .. } = &s.kind {
                has_irregular_send |= dest.mentions_input();
            }
        });
        assert!(has_irregular_send);
    }

    #[test]
    fn halo2d_runs_shape() {
        // 2x2 grid: everyone's neighbours exist.
        let p = halo2d(2, 2);
        assert_eq!(p.checkpoint_ids().len(), 1);
        assert_eq!(p.send_ids().len(), 4);
        assert_eq!(p.recv_ids().len(), 4);
    }

    #[test]
    fn tree_reduce_has_log_structure() {
        let p = reduce_bcast_tree(1);
        // The while-over-stride loop plus the bcast.
        assert!(p.has_collectives());
        assert!(!p.checkpoint_ids().is_empty());
    }

    #[test]
    fn wavefront_has_two_checkpoints_per_iteration() {
        assert_eq!(wavefront(4).checkpoint_ids().len(), 2);
    }

    #[test]
    fn bcast_reduce_contains_collective() {
        assert!(bcast_reduce(1).has_collectives());
        let mut p = bcast_reduce(1);
        p.lower_collectives();
        assert!(!p.has_collectives());
    }
}
