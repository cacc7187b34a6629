//! Analysis across a range of process counts.
//!
//! The static phases are instantiated at a concrete `n` (rank sets are
//! finite); the paper's guarantee, however, is meant for whatever `n`
//! the program is eventually deployed at. This module closes the gap:
//!
//! * [`analyze_for_all_n`] runs the pipeline at a *reference* `n` and
//!   then re-checks Condition 1 on the transformed program at every
//!   other requested `n`, reporting any count at which the placement
//!   would not be safe;
//! * [`condition1_at`] is the bare re-check for one `n`.
//!
//! In practice communication patterns are arithmetic in `rank` and
//! `nprocs` (neighbours, rings, hierarchies), so a placement safe at
//! one even and one odd `n` is safe everywhere — but the point of this
//! module is that the claim is *checked*, not assumed.

use crate::attr::compute_attrs;
use crate::condition::{check_condition1, LoopPolicy, Violation};
use crate::cuts::index_checkpoints;
use crate::extended::ExtendedCfg;
use crate::iddep::analyze_iddep;
use crate::matching::{match_send_recv, MatchingMode};
use crate::pipeline::{analyze, Analysis, AnalysisConfig, AnalysisError};
use acfc_mpsl::Program;
use acfc_util::parallel::{configured_threads, par_map_threads_labeled};

/// Condition-1 violations of `program` as written, at `n` processes.
pub fn condition1_at(
    program: &Program,
    n: usize,
    matching: MatchingMode,
    policy: LoopPolicy,
) -> Vec<Violation> {
    let (cfg, lowered) = acfc_cfg::build_cfg(program);
    let iddep = analyze_iddep(&cfg, &lowered);
    let attrs = compute_attrs(&cfg, n, &iddep);
    let m = match_send_recv(&cfg, &attrs, &iddep, matching);
    let index = index_checkpoints(&cfg, &lowered);
    let g = ExtendedCfg::build(cfg, &m);
    check_condition1(&g, &index, policy)
}

/// The outcome of a multi-`n` analysis.
#[derive(Debug)]
pub struct MultiNAnalysis {
    /// The pipeline result at the reference `n`.
    pub analysis: Analysis,
    /// Process counts at which the transformed program was re-checked
    /// and found safe.
    pub verified_at: Vec<usize>,
    /// Process counts at which Condition 1 still fails on the
    /// transformed program (non-empty = the placement is `n`-sensitive
    /// and must be re-analysed per deployment size).
    pub unsafe_at: Vec<(usize, usize)>,
}

/// Runs the pipeline at `reference_n` and re-checks the result at each
/// count in `all_n`. The per-`n` re-checks are independent and run on
/// [`configured_threads`] worker threads (`ACFC_THREADS` overrides);
/// results are collected in `all_n` order, so the report is identical
/// to the sequential one at any thread count.
///
/// # Errors
///
/// Propagates pipeline errors from the reference analysis.
pub fn analyze_for_all_n(
    program: &Program,
    reference_n: usize,
    all_n: &[usize],
    config: &AnalysisConfig,
) -> Result<MultiNAnalysis, AnalysisError> {
    analyze_for_all_n_threads(program, reference_n, all_n, config, configured_threads())
}

/// [`analyze_for_all_n`] with an explicit worker-thread count.
///
/// # Errors
///
/// Propagates pipeline errors from the reference analysis.
pub fn analyze_for_all_n_threads(
    program: &Program,
    reference_n: usize,
    all_n: &[usize],
    config: &AnalysisConfig,
    threads: usize,
) -> Result<MultiNAnalysis, AnalysisError> {
    let config = AnalysisConfig {
        nprocs: reference_n,
        ..config.clone()
    };
    let analysis = analyze(program, &config)?;
    let per_n = par_map_threads_labeled(all_n, threads, Some("multi_n"), |_, &n| {
        (
            n,
            condition1_at(&analysis.program, n, config.matching, config.policy).len(),
        )
    });
    let mut verified_at = Vec::new();
    let mut unsafe_at = Vec::new();
    for (n, violations) in per_n {
        if violations == 0 {
            verified_at.push(n);
        } else {
            unsafe_at.push((n, violations));
        }
    }
    Ok(MultiNAnalysis {
        analysis,
        verified_at,
        unsafe_at,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use acfc_mpsl::{parse, programs};

    fn cfg() -> AnalysisConfig {
        AnalysisConfig::for_nprocs(8)
    }

    #[test]
    fn stock_placements_are_safe_across_many_n() {
        let all_n: Vec<usize> = vec![2, 3, 4, 5, 6, 7, 8, 12, 16, 32, 64];
        for p in programs::all_stock() {
            let r = analyze_for_all_n(&p, 8, &all_n, &cfg())
                .unwrap_or_else(|e| panic!("{}: {e}", p.name));
            assert!(
                r.unsafe_at.is_empty(),
                "{}: unsafe at {:?}",
                p.name,
                r.unsafe_at
            );
            assert_eq!(r.verified_at, all_n);
        }
    }

    #[test]
    fn condition1_at_flags_the_unsafe_original() {
        let p = programs::jacobi_odd_even(3);
        for n in [2usize, 4, 16] {
            assert!(
                !condition1_at(&p, n, MatchingMode::FifoOrdered, LoopPolicy::Optimized).is_empty(),
                "n={n}"
            );
        }
    }

    #[test]
    fn rank_literal_programs_can_be_n_sensitive() {
        // A program whose pattern names literal ranks: at n = 2 the
        // send targets rank 2, which does not exist, so the analysis at
        // n = 2 sees no matching and thus no violation — the module
        // reports per-n results rather than assuming transfer.
        let p = parse(
            "program literal;
             if rank == 0 { checkpoint; send to 2 size 64; }
             if rank == 2 { recv from 0; checkpoint; }",
        )
        .unwrap();
        let at4 = condition1_at(&p, 4, MatchingMode::FifoOrdered, LoopPolicy::Optimized);
        assert!(!at4.is_empty(), "at n=4 the orphan pattern is visible");
        let at2 = condition1_at(&p, 2, MatchingMode::FifoOrdered, LoopPolicy::Optimized);
        assert!(at2.is_empty(), "at n=2 rank 2 never runs");
    }

    #[test]
    fn parallel_report_is_identical_to_sequential() {
        let all_n: Vec<usize> = vec![2, 3, 4, 5, 6, 8, 12, 16];
        let p = programs::jacobi_odd_even(3);
        let seq = analyze_for_all_n_threads(&p, 8, &all_n, &cfg(), 1).unwrap();
        for threads in [2, 4, 8] {
            let par = analyze_for_all_n_threads(&p, 8, &all_n, &cfg(), threads).unwrap();
            assert_eq!(par.verified_at, seq.verified_at, "threads={threads}");
            assert_eq!(par.unsafe_at, seq.unsafe_at, "threads={threads}");
        }
    }

    #[test]
    fn multi_n_report_structure() {
        let r = analyze_for_all_n(&programs::pipeline_skewed(3), 8, &[2, 4, 6], &cfg()).unwrap();
        assert!(r.unsafe_at.is_empty());
        assert!(!r.analysis.moves.is_empty());
        assert_eq!(r.verified_at.len(), 3);
    }
}
