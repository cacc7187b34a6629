//! # ACFC — Application-Driven Coordination-Free Distributed Checkpointing
//!
//! A from-scratch Rust reproduction of *Adnan Agbaria and William H.
//! Sanders, "Application-Driven Coordination-Free Distributed
//! Checkpointing", ICDCS 2005* — the offline three-phase analysis that
//! places checkpoints in an SPMD message-passing program so that
//! **every straight cut of checkpoints is a recovery line in any
//! further execution**, with zero runtime coordination, plus every
//! substrate the paper depends on.
//!
//! This crate is a facade; the work lives in the member crates:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`mpsl`] | the SPMD source language (AST, parser, stock programs) |
//! | [`cfg`](mod@cfg) | control-flow graphs, dominators, loops, reachability |
//! | [`core`] | **the paper**: Phases I–III, extended CFG, Theorem 3.2 |
//! | [`sim`] | deterministic message-passing simulator with failures |
//! | [`protocols`] | baselines: uncoordinated, SaS, C-L, CIC; recovery lines |
//! | [`perfmodel`] | the §4 stochastic model; Figures 8 and 9 |
//! | [`obs`] | spans, counters, histograms, Perfetto trace export |
//! | [`util`] | scoped-thread fan-out, one-shot timer, JSON writer |
//!
//! ```
//! use acfc::core::{analyze, AnalysisConfig};
//! use acfc::sim::{compile, consistency, run, SimConfig};
//!
//! // Repair the paper's Figure-2 program and verify Theorem 3.2 by
//! // execution.
//! let program = acfc::mpsl::programs::jacobi_odd_even(5);
//! let analysis = analyze(&program, &AnalysisConfig::for_nprocs(8)).unwrap();
//! let trace = run(&compile(&analysis.program), &SimConfig::new(4));
//! assert!(consistency::all_straight_cuts_consistent(&trace));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use acfc_cfg as cfg;
pub use acfc_core as core;
pub use acfc_mpsl as mpsl;
pub use acfc_obs as obs;
pub use acfc_perfmodel as perfmodel;
pub use acfc_protocols as protocols;
pub use acfc_runtime as runtime;
pub use acfc_sim as sim;
pub use acfc_util as util;
