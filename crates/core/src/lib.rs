//! # ACFC core — the paper's offline analysis
//!
//! This crate is the reproduction of the central contribution of
//! *Agbaria & Sanders, "Application-Driven Coordination-Free Distributed
//! Checkpointing" (ICDCS 2005)*: a three-phase, entirely offline
//! analysis of an SPMD message-passing program that places (and, where
//! necessary, relocates) its `checkpoint` statements so that **every
//! straight cut of checkpoints is a recovery line in any further
//! execution** — with zero runtime coordination, zero control messages,
//! zero forced checkpoints, and zero rollback propagation.
//!
//! * [`phase1`] — static checkpoint insertion at (approximately)
//!   optimal intervals and per-path count equalisation (§3.1);
//! * [`iddep`] / [`attr`] — the ID-dependence dataflow and per-node
//!   rank attributes (§3.2);
//! * [`matching`] — Algorithm 3.1: matching every receive with its
//!   non-contradicting sends;
//! * [`extended`] — the extended CFG `Ĝ` with message edges (Figure 4);
//! * [`cuts`] — enumeration of the static straight cuts `S_i`;
//! * [`condition`] — Condition 1 / Theorem 3.2 checking, with the
//!   paper's loop optimization as a selectable policy;
//! * [`phase3`] — Algorithm 3.2: relocating checkpoints to establish
//!   Condition 1;
//! * [`pipeline`] — [`analyze`], the end-to-end entry point.
//!
//! ```
//! use acfc_core::{analyze, AnalysisConfig};
//!
//! // The Figure 1 Jacobi is safe as written...
//! let safe = analyze(&acfc_mpsl::programs::jacobi(10),
//!                    &AnalysisConfig::for_nprocs(8)).unwrap();
//! assert!(safe.was_already_safe());
//!
//! // ...the Figure 2 odd/even variant is not, and gets repaired.
//! let fixed = analyze(&acfc_mpsl::programs::jacobi_odd_even(10),
//!                     &AnalysisConfig::for_nprocs(8)).unwrap();
//! assert!(!fixed.moves.is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod attr;
pub mod condition;
pub mod cuts;
pub mod explain;
pub mod extended;
pub mod iddep;
pub mod matching;
pub mod multi_n;
pub mod phase1;
pub mod phase3;
pub mod pipeline;
pub mod reanalysis;

pub use attr::{compute_attrs, NodeAttrs, RankSet};
pub use condition::{check_condition1, condition1_holds, LoopPolicy, Violation};
pub use cuts::{index_checkpoints, CheckpointIndex, IndexRange};
pub use explain::{explain_violation, explain_violations};
pub use extended::ExtendedCfg;
pub use iddep::{analyze_iddep, analyze_iddep_at, BranchClass, IdDepInfo};
pub use matching::{match_send_recv, Matching, MatchingMode, MessageEdge};
pub use multi_n::{analyze_for_all_n, analyze_for_all_n_threads, condition1_at, MultiNAnalysis};
pub use phase1::{
    equalize_checkpoints, estimate_program_cost, insert_checkpoints, optimal_interval,
    rebalance_checkpoints, InsertionConfig, InsertionReport,
};
pub use phase3::{ensure_recovery_lines, MoveRecord, Phase3Config, Phase3Error, Phase3Result};
pub use pipeline::{analyze, check_nprocs, Analysis, AnalysisConfig, AnalysisError};
pub use reanalysis::ReanalysisCache;
