//! The offline analysis costs what its inputs cost, pinned by counts
//! the analysis makes of its own work rather than by a clock (this
//! machine's clock cannot resolve it): Phase II matching evaluates a
//! send's destination once per sender rank and a receive's source once
//! per receiver rank, and the ID-dependence dataflow copies an amount
//! of environment and expression that grows linearly with the program —
//! `acc := acc + k` written 160 times is 160 new expression nodes, not
//! 160 ever-longer copies.
//!
//! The obs registry is process-global, so this test has the file (and
//! with it the test process) to itself.

use acfc::cfg::build_cfg;
use acfc::core::{analyze_iddep, compute_attrs, match_send_recv, MatchingMode};
use acfc::mpsl::parse;

/// The benchmark's `straight_line` family with fixed constants: local
/// assignment, ring send, ring receive, checkpoint, compute, repeated up
/// to `stmts` statements.
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

#[test]
fn matching_evaluates_per_rank_and_the_dataflow_copies_linearly() {
    acfc::obs::set_enabled(true);
    for n in [8usize, 64] {
        let mut cloned = Vec::new();
        for stmts in [200usize, 400, 800] {
            let program = parse(&straight_line(stmts)).expect("generated source parses");
            let (cfg, lowered) = build_cfg(&program);
            acfc::obs::reset();
            let iddep = analyze_iddep(&cfg, &lowered);
            let attrs = compute_attrs(&cfg, n, &iddep);
            let matching = match_send_recv(&cfg, &attrs, &iddep, MatchingMode::FifoOrdered);
            let counters = acfc::obs::snapshot().counters;
            let count = |name: &str| {
                let found = counters.iter().find(|(k, _)| k == name);
                found.unwrap_or_else(|| panic!("no counter {name}")).1 as usize
            };

            let comm = cfg.send_nodes().len() + cfg.recv_nodes().len();
            assert_eq!(matching.edges.len(), comm / 2, "one edge per ring send");
            let evals = count("core/matching/rank_evals");
            assert!(
                0 < evals && evals <= n * comm,
                "{stmts} statements at n={n}: {evals} evaluations for {comm} sends and receives"
            );
            cloned.push(count("core/iddep/cloned"));
        }
        // Four times the statements, at most five times the copying
        // (substituted-tree environments read about sixteen).
        assert!(
            0 < cloned[0] && cloned[2] <= 5 * cloned[0],
            "copies at 200/400/800 statements: {cloned:?}"
        );
    }
    acfc::obs::set_enabled(false);
}
