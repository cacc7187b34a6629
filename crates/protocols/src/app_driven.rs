//! The application-driven (coordination-free) protocol — the paper's
//! contribution, packaged as a runnable protocol.
//!
//! Offline: run the three-phase analysis of `acfc-core` on the program.
//! Online: nothing. Processes execute the transformed program and
//! checkpoint exactly at the analysis-placed statements; no control
//! messages, no forced checkpoints, no coordination stall. Recovery
//! rolls back to the straight cut of the deepest common checkpoint
//! index ([`CutPicker::AlignedSeq`](acfc_sim::CutPicker::AlignedSeq)), which Theorem 3.2 guarantees to be
//! a recovery line.

use acfc_core::{analyze, Analysis, AnalysisConfig, AnalysisError};
use acfc_mpsl::Program;
use acfc_sim::{compile, Compiled};

/// A prepared application-driven deployment: the transformed program
/// and its compiled form. It runs with no hooks ([`acfc_sim::NoHooks`]):
/// that is the point of the paper.
#[derive(Debug)]
pub struct AppDriven {
    /// The full analysis result (report, extended CFG, moves).
    pub analysis: Analysis,
    /// Compiled transformed program, ready for the engine.
    pub compiled: Compiled,
}

impl AppDriven {
    /// Runs the offline analysis for `nprocs` processes and compiles
    /// the result.
    ///
    /// # Errors
    ///
    /// Propagates [`AnalysisError`] from the pipeline.
    pub fn prepare(program: &Program, nprocs: usize) -> Result<AppDriven, AnalysisError> {
        let analysis = analyze(program, &AnalysisConfig::for_nprocs(nprocs))?;
        let compiled = compile(&analysis.program);
        Ok(AppDriven { analysis, compiled })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CheckpointCoordinator;
    use acfc_sim::{run_with_failures, FailurePlan, NoHooks, SimConfig, SimTime};

    #[test]
    fn prepared_protocol_has_zero_runtime_overhead_sources() {
        let p = acfc_mpsl::programs::jacobi_odd_even(5);
        let ad = AppDriven::prepare(&p, 4).unwrap();
        let cfg = SimConfig::new(4);
        let t = acfc_sim::run_with_hooks(&ad.compiled, &cfg, &mut NoHooks);
        assert!(t.completed());
        assert_eq!(t.metrics.control_messages, 0);
        assert_eq!(t.metrics.control_bits, 0);
        assert_eq!(t.metrics.forced_checkpoints, 0);
        assert_eq!(t.metrics.timer_checkpoints, 0);
        assert_eq!(t.metrics.coordinated_checkpoints, 0);
        assert!(t.metrics.app_checkpoints > 0);
    }

    #[test]
    fn recovery_from_aligned_cut_completes_after_failures() {
        let p = acfc_mpsl::programs::jacobi_odd_even(6);
        let ad = AppDriven::prepare(&p, 2).unwrap();
        let cfg = SimConfig::new(2);
        let plan = FailurePlan::at(vec![
            (SimTime::from_millis(120), 0),
            (SimTime::from_millis(260), 1),
        ]);
        let t = run_with_failures(&ad.compiled, &cfg, &mut NoHooks, plan, NoHooks.picker());
        assert!(t.completed(), "{:?}", t.outcome);
        assert_eq!(t.failures.len(), 2);
        // The restored cuts were aligned: same seq in every process.
        for f in &t.failures {
            let seqs: Vec<_> = f.restored_seq.iter().flatten().collect();
            assert!(
                seqs.windows(2).all(|w| w[0] == w[1]),
                "{:?}",
                f.restored_seq
            );
        }
    }

    #[test]
    fn analysis_report_travels_with_the_protocol() {
        let p = acfc_mpsl::programs::pipeline_skewed(4);
        let ad = AppDriven::prepare(&p, 4).unwrap();
        assert!(!ad.analysis.moves.is_empty());
        assert!(ad.analysis.report().contains("relocation"));
    }
}
