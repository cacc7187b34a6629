//! Evaluating a branch on a self-doubled variable costs what the
//! expression pool holds, pinned by a count the evaluator makes of its
//! own work rather than by a clock.
//!
//! `x := x + x` written `k` times is `k` hash-consed pool entries that
//! stand for a tree of `2^(k+1) − 1` nodes. Walked as a tree, a branch
//! on `x % 2` took seconds at `k = 24` and did not finish at `k = 40`;
//! evaluated once per pool entry, each evaluation of `x` memoises its
//! entries but the top one (reached once) and `rank + rank` (over leaves
//! alone, cheaper to evaluate again than to look up): `k − 2` of them,
//! and past `rank_eval`'s depth limit no more.
//!
//! The obs registry is process-global, so this test has the file (and
//! with it the test process) to itself.

use acfc::core::{analyze, AnalysisConfig};
use acfc::mpsl::parse;

/// `x := rank`, then `x := x + x` `k` times, then a branch on `x`
/// around a ring exchange with a checkpoint on either side of it.
fn self_doubling(k: usize) -> String {
    format!(
        "program doubling; var x; x := rank; {}
         if x % 2 == 0 {{
           checkpoint;
           send to (rank + 1) % nprocs size 64;
           recv from (rank - 1) % nprocs;
         }} else {{
           send to (rank + 1) % nprocs size 64;
           recv from (rank - 1) % nprocs;
           checkpoint;
         }}",
        "x := x + x; ".repeat(k)
    )
}

#[test]
fn self_doubling_evaluates_each_pool_entry_once_per_evaluation() {
    acfc::obs::set_enabled(true);
    let mut counts = Vec::new();
    for k in [20usize, 40, 80] {
        let program = parse(&self_doubling(k)).expect("generated source parses");
        acfc::obs::reset();
        let analysis = analyze(&program, &AnalysisConfig::for_nprocs(4));
        assert!(analysis.is_ok(), "k = {k}: {:?}", analysis.err());
        let counters = acfc::obs::snapshot().counters;
        let found = counters
            .iter()
            .find(|(name, _)| name == "mpsl/rank_eval/memo_entries");
        counts.push(found.map_or(0, |&(_, c)| c));
    }
    acfc::obs::set_enabled(false);
    // Each evaluation of `x` at k = 20 memoises 18 entries once.
    let evaluations = counts[0] / 18;
    assert!(
        evaluations > 0 && counts[0] == 18 * evaluations,
        "k = 20: {} entries",
        counts[0]
    );
    // Twice the assignments, the same evaluations, 38 entries each.
    assert_eq!(counts[1], 38 * evaluations, "k = 40");
    // Past the depth limit evaluation stops: of the levels 0 to 64, the
    // condition's own `==`, `%` and variable reference take three and
    // the top entry, reached once, a fourth.
    assert_eq!(counts[2], 61 * evaluations, "k = 80");
}
