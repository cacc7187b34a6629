//! The end-to-end offline analysis pipeline.
//!
//! Chains the paper's three phases:
//!
//! 1. **Phase I** — checkpoint insertion (if the program has none) and
//!    per-path count equalisation (§3.1);
//! 2. **Phase II** — ID-dependence dataflow, rank attributes, and
//!    Algorithm 3.1 send/recv matching, producing the extended CFG `Ĝ`
//!    (§3.2);
//! 3. **Phase III** — Condition 1 checking and Algorithm 3.2 checkpoint
//!    relocation until every straight cut of checkpoints is a recovery
//!    line in any further execution (§3.3, Theorem 3.2).
//!
//! The result is a transformed program that the simulator (or a real
//! runtime) executes **with no coordination whatsoever**: each process
//! checkpoints at the analysis-placed statements, and recovery always
//! rolls back to the straight cut of the latest common checkpoint
//! index.

use crate::attr::MAX_ANALYSIS_RANKS;
use crate::condition::LoopPolicy;
use crate::cuts::{index_checkpoints, CheckpointIndex};
use crate::extended::ExtendedCfg;
use crate::matching::MatchingMode;
use crate::phase1::{equalize_checkpoints, insert_checkpoints, InsertionConfig};
use crate::phase3::{ensure_recovery_lines, MoveRecord, Phase3Config, Phase3Error};
use acfc_mpsl::Program;
use std::fmt::Write;

/// Configuration of the whole pipeline.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Number of processes the analysis is instantiated at (≤ 128).
    pub nprocs: usize,
    /// Send/recv matching mode (Phase II).
    pub matching: MatchingMode,
    /// Loop policy for Condition 1 (Phase III).
    pub policy: LoopPolicy,
    /// Phase I insertion parameters; `None` disables automatic
    /// insertion (programs are then expected to carry checkpoints).
    pub insertion: Option<InsertionConfig>,
    /// Whether Phase I equalisation runs.
    pub equalize: bool,
    /// Phase III iteration cap.
    pub max_iterations: usize,
    /// Reuse Phase II results across Algorithm 3.2 iterations via
    /// [`crate::ReanalysisCache`] (checkpoint moves cannot change the
    /// communication structure, so the matching replays by ordinal).
    pub incremental: bool,
}

impl Default for AnalysisConfig {
    fn default() -> AnalysisConfig {
        AnalysisConfig {
            nprocs: 8,
            matching: MatchingMode::FifoOrdered,
            policy: LoopPolicy::Optimized,
            insertion: Some(InsertionConfig::default()),
            equalize: true,
            max_iterations: 32,
            incremental: true,
        }
    }
}

impl AnalysisConfig {
    /// A configuration for `n` processes, defaults elsewhere.
    pub fn for_nprocs(n: usize) -> AnalysisConfig {
        AnalysisConfig {
            nprocs: n,
            ..AnalysisConfig::default()
        }
    }
}

/// The pipeline's output.
#[derive(Debug)]
pub struct Analysis {
    /// The transformed program: run this.
    pub program: Program,
    /// The program as received (post collective-lowering).
    pub original: Program,
    /// The final extended CFG.
    pub extended: ExtendedCfg,
    /// The final checkpoint index (exact after equalisation).
    pub index: CheckpointIndex,
    /// Checkpoints Phase I inserted.
    pub inserted: usize,
    /// Checkpoints Phase I added for equalisation.
    pub equalized: usize,
    /// Algorithm 3.2 relocations.
    pub moves: Vec<MoveRecord>,
}

impl Analysis {
    /// `true` when Phase III changed nothing: the program was already
    /// coordination-free checkpointable as written.
    pub fn was_already_safe(&self) -> bool {
        self.moves.is_empty() && self.inserted == 0 && self.equalized == 0
    }

    /// A human-readable report of what the analysis did.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "program: {}", self.program.name);
        let _ = writeln!(
            out,
            "checkpoint statements: {}",
            self.program.checkpoint_ids().len()
        );
        let _ = writeln!(
            out,
            "phase I: {} inserted, {} added for equalisation",
            self.inserted, self.equalized
        );
        let _ = writeln!(
            out,
            "phase II: {} message edge(s)",
            self.extended.message_edges.len()
        );
        let _ = writeln!(out, "phase III: {} relocation(s)", self.moves.len());
        for m in &self.moves {
            let _ = writeln!(out, "  - [S_{}] {}", m.index, m.description);
        }
        let _ = writeln!(
            out,
            "result: every straight cut of checkpoints is a recovery line \
             in any further execution (Theorem 3.2)"
        );
        out
    }

    /// Graphviz rendering of the final extended CFG.
    pub fn to_dot(&self) -> String {
        self.extended.to_dot()
    }
}

/// Errors from the pipeline.
#[derive(Debug)]
pub enum AnalysisError {
    /// The program failed MPSL validation.
    Invalid(Vec<acfc_mpsl::ValidateError>),
    /// Phase III could not ensure Condition 1.
    Phase3(Phase3Error),
    /// The analysis was asked for more processes than its rank sets
    /// hold.
    TooManyProcesses {
        /// The `nprocs` asked for.
        nprocs: usize,
        /// The largest `nprocs` supported ([`MAX_ANALYSIS_RANKS`]).
        limit: usize,
    },
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::Invalid(errs) => {
                write!(f, "program is invalid: ")?;
                for (i, e) in errs.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
            AnalysisError::Phase3(e) => write!(f, "{e}"),
            AnalysisError::TooManyProcesses { nprocs, limit } => write!(
                f,
                "nprocs = {nprocs} is beyond the analysis limit of {limit} processes"
            ),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<Phase3Error> for AnalysisError {
    fn from(e: Phase3Error) -> AnalysisError {
        AnalysisError::Phase3(e)
    }
}

/// Checks that the analysis can be instantiated at `nprocs` processes.
/// [`analyze`] starts with this; a caller that drives the phases itself
/// (`acfc check`) asks before it builds a rank set, which would panic.
///
/// # Errors
///
/// [`AnalysisError::TooManyProcesses`] above [`MAX_ANALYSIS_RANKS`].
pub fn check_nprocs(nprocs: usize) -> Result<(), AnalysisError> {
    if nprocs > MAX_ANALYSIS_RANKS {
        return Err(AnalysisError::TooManyProcesses {
            nprocs,
            limit: MAX_ANALYSIS_RANKS,
        });
    }
    Ok(())
}

/// Runs the full three-phase analysis.
///
/// # Errors
///
/// [`AnalysisError::TooManyProcesses`] if `config.nprocs` is above
/// [`MAX_ANALYSIS_RANKS`]; [`AnalysisError::Invalid`] if the program
/// fails validation; [`AnalysisError::Phase3`] if Algorithm 3.2 cannot
/// establish Condition 1 within the iteration cap.
///
/// # Examples
///
/// ```
/// use acfc_core::{analyze, AnalysisConfig};
///
/// // Figure 2's odd/even Jacobi is unsafe as written; the pipeline
/// // relocates its checkpoints so every straight cut is a recovery line.
/// let program = acfc_mpsl::programs::jacobi_odd_even(10);
/// let analysis = analyze(&program, &AnalysisConfig::for_nprocs(8))?;
/// assert!(!analysis.moves.is_empty());
/// # Ok::<(), acfc_core::AnalysisError>(())
/// ```
pub fn analyze(program: &Program, config: &AnalysisConfig) -> Result<Analysis, AnalysisError> {
    let _pipeline = acfc_obs::span("core/analyze");
    check_nprocs(config.nprocs)?;
    let errors = acfc_mpsl::validate(program);
    if !errors.is_empty() {
        return Err(AnalysisError::Invalid(errors));
    }
    let mut prepared = program.clone();
    if prepared.has_collectives() {
        prepared.lower_collectives();
    }
    let original = prepared.clone();
    // Phase I.
    let (inserted, equalized) = {
        let _phase1 = acfc_obs::span("core/phase1");
        let inserted = {
            let _insert = acfc_obs::span("core/phase1/insert");
            match &config.insertion {
                Some(ic) => insert_checkpoints(&mut prepared, ic).inserted,
                None => 0,
            }
        };
        let equalized = if config.equalize {
            let _equalize = acfc_obs::span("core/phase1/equalize");
            equalize_checkpoints(&mut prepared)
        } else {
            0
        };
        (inserted, equalized)
    };
    acfc_obs::count("core/phase1/inserted", inserted as u64);
    acfc_obs::count("core/phase1/equalized", equalized as u64);
    // Phases II + III.
    let p3 = Phase3Config {
        nprocs: config.nprocs,
        matching: config.matching,
        policy: config.policy,
        max_iterations: config.max_iterations,
        incremental: config.incremental,
    };
    let result = {
        let _phase23 = acfc_obs::span("core/phase2_3");
        ensure_recovery_lines(&prepared, &p3)?
    };
    acfc_obs::count("core/phase3/moves", result.moves.len() as u64);
    let index = index_checkpoints(&result.extended.cfg, &result.program);
    Ok(Analysis {
        program: result.program,
        original,
        extended: result.extended,
        index,
        inserted,
        equalized,
        moves: result.moves,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use acfc_mpsl::{parse, programs};

    #[test]
    fn safe_program_passes_through() {
        let p = programs::jacobi(3);
        let a = analyze(&p, &AnalysisConfig::for_nprocs(4)).unwrap();
        assert!(a.was_already_safe());
        assert_eq!(a.program, a.original);
        assert!(a.report().contains("0 relocation"));
    }

    #[test]
    fn unsafe_program_is_transformed() {
        let p = programs::jacobi_odd_even(3);
        let a = analyze(&p, &AnalysisConfig::for_nprocs(4)).unwrap();
        assert!(!a.was_already_safe());
        assert_ne!(a.program, a.original);
        assert!(a.report().contains("relocation"));
        assert!(a.to_dot().starts_with("digraph"));
    }

    #[test]
    fn invalid_program_rejected() {
        let p = parse("program t; compute x;").unwrap();
        let err = analyze(&p, &AnalysisConfig::default()).unwrap_err();
        assert!(matches!(err, AnalysisError::Invalid(_)));
        assert!(err.to_string().contains("undeclared"));
    }

    #[test]
    fn too_many_processes_is_an_error_not_a_panic() {
        let p = programs::jacobi(3);
        assert!(analyze(&p, &AnalysisConfig::for_nprocs(MAX_ANALYSIS_RANKS)).is_ok());
        let err = analyze(&p, &AnalysisConfig::for_nprocs(MAX_ANALYSIS_RANKS + 1)).unwrap_err();
        assert!(matches!(
            err,
            AnalysisError::TooManyProcesses {
                nprocs: 129,
                limit: 128
            }
        ));
        let msg = err.to_string();
        assert!(msg.contains("nprocs = 129") && msg.contains("128"), "{msg}");
    }

    #[test]
    fn checkpoint_free_program_gets_phase1_insertion() {
        let p = parse(
            "program t; param iters = 50; var i;
             for i in 0..iters {
               compute 100;
               send to (rank + 1) % nprocs size 1024;
               recv from (rank - 1) % nprocs;
             }",
        )
        .unwrap();
        let mut cfg = AnalysisConfig::for_nprocs(4);
        cfg.insertion = Some(InsertionConfig {
            ckpt_overhead_units: 2.0,
            failure_rate_per_unit: 1e-4,
            ..InsertionConfig::default()
        });
        let a = analyze(&p, &cfg).unwrap();
        assert!(a.inserted >= 1);
        assert!(!a.program.checkpoint_ids().is_empty());
    }

    #[test]
    fn insertion_disabled_leaves_program_checkpoint_free() {
        let p = parse("program t; compute 1000;").unwrap();
        let mut cfg = AnalysisConfig::for_nprocs(2);
        cfg.insertion = None;
        let a = analyze(&p, &cfg).unwrap();
        assert_eq!(a.inserted, 0);
        assert!(a.program.checkpoint_ids().is_empty());
    }

    #[test]
    fn unbalanced_arms_are_equalized() {
        let p = parse(
            "program t;
             if rank % 2 == 0 { checkpoint; checkpoint; } else { checkpoint; }",
        )
        .unwrap();
        let a = analyze(&p, &AnalysisConfig::for_nprocs(4)).unwrap();
        assert_eq!(a.equalized, 1);
        assert!(a.index.is_exact());
    }

    #[test]
    fn collectives_are_lowered_first() {
        let p = programs::bcast_reduce(2);
        let a = analyze(&p, &AnalysisConfig::for_nprocs(4)).unwrap();
        assert!(!a.program.has_collectives());
        assert!(!a.extended.message_edges.is_empty());
    }

    #[test]
    fn all_stock_programs_analyze() {
        for p in programs::all_stock() {
            let a = analyze(&p, &AnalysisConfig::for_nprocs(4))
                .unwrap_or_else(|e| panic!("{}: {e}", p.name));
            assert!(
                !a.report().is_empty(),
                "{}: report must be non-empty",
                p.name
            );
        }
    }
}
