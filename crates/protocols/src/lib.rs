//! # Distributed checkpointing protocols on the ACFC simulator
//!
//! The paper positions its coordination-free approach against the three
//! classic families of distributed checkpointing (§1) and compares
//! analytically against the coordinated ones (§4.1). This crate makes
//! the comparison executable — every protocol runs real workloads on
//! the `acfc-sim` engine through its [`Hooks`](acfc_sim::Hooks):
//!
//! * [`app_driven`] — the paper's protocol: offline analysis
//!   (`acfc-core`), **no** runtime mechanism at all, straight-cut
//!   recovery;
//! * [`uncoordinated`] — independent timers + rollback-propagation
//!   recovery over the dependency graph ([`depgraph`]), exhibiting the
//!   domino effect ([`domino`]);
//! * [`sas`] — synchronise-and-stop coordinated waves,
//!   `M(SaS) = 5(n−1)(w_m + 8·w_b)`;
//! * [`chandy_lamport`] — distributed snapshots,
//!   `M(C-L) = 2n(n−1)(w_m + 8·w_b)`;
//! * [`cic`] — the communication-induced checkpointing family (the
//!   founding index-based member plus BCS, the vector-carrying HMNR,
//!   and lazy indexing) behind the [`CicIndexing`]
//!   trait, with forced checkpoints and Z-cycle-free guarantees;
//! * [`compare`] — the head-to-head harness producing measured
//!   overhead ratios (the empirical companion to Figures 8–9).
//!
//! ```
//! use acfc_protocols::compare::{compare_all, CompareConfig, ProtocolKind};
//!
//! let program = acfc_mpsl::programs::jacobi(5);
//! let config = CompareConfig::builder(4).interval_us(60_000).build().unwrap();
//! let stats = compare_all(&program, &config);
//! let app = stats.iter().find(|s| s.protocol == ProtocolKind::AppDriven).unwrap();
//! // The paper's claim: zero protocol traffic.
//! assert_eq!(app.control_messages, 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod app_driven;
pub mod chandy_lamport;
pub mod cic;
pub mod compare;
pub mod coordinator;
pub mod depgraph;
pub mod domino;
pub mod sas;
pub mod sweep;
pub mod uncoordinated;

pub use app_driven::AppDriven;
pub use chandy_lamport::{cl_control_messages, ChandyLamport};
pub use cic::{CicIndexing, CicProtocol, CicVariant};
pub use compare::{
    compare_all, render_table, run_protocol, run_protocol_against, run_protocol_timeline,
    CompareConfig, CompareConfigBuilder, ConfigError, ParseProtocolError, PreparedProgram,
    ProtocolKind, RunStats, MAX_COMPARE_PROCS,
};
pub use coordinator::CheckpointCoordinator;
pub use depgraph::{
    max_consistent_line, max_consistent_line_from, max_consistent_line_of, max_consistent_picker,
    rollback_depths, useful_by_rollback, useless_checkpoints, useless_checkpoints_in,
    IntervalIndex,
};
pub use domino::{domino_report, domino_stream, DominoReport};
pub use sas::{sas_control_messages, SyncAndStop};
pub use sweep::{
    render_agg_json, run_sweep, run_sweep_threads, AggRow, CellSpec, CollectSink, JsonlSink,
    Progress, ProgressSink, RowSink, SweepPlan, SweepPlanBuilder, SweepSummary, TableSink,
    TelemetrySink, Workload, PROGRESS_WINDOW, STRAGGLER_FACTOR,
};
pub use uncoordinated::{uncoordinated_hooks, uncoordinated_picker};
