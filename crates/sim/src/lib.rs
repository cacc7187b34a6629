//! # Deterministic message-passing simulator for ACFC
//!
//! The paper's claims quantify over *executions* of a message-passing
//! program on the §2 system model: asynchronous reliable FIFO channels,
//! blocking receives, deterministic processes, and crash failures with
//! rollback to checkpoints. This crate is that model, made executable:
//!
//! * [`compile`] — MPSL programs to a flat instruction stream, and
//!   [`step`] — its one interpreter, shared by every scheduler,
//! * [`run`] / [`run_with_hooks`] / [`run_with_failures`] — the
//!   discrete-event engine ([`SimConfig`] holds the paper's network and
//!   checkpoint cost parameters: `w_m`, `w_b`, `o`, `l`, `R`),
//! * [`VectorClock`] — happened-before tracking on every send/receive/
//!   checkpoint event,
//! * [`Trace`] — the full record of a run, with restorable snapshots,
//! * [`consistency`] — recovery-line checking (Definition 2.1) both via
//!   vector clocks and via the orphan-message oracle,
//! * [`FailurePlan`] / [`CutPicker`] — exponential failure injection and
//!   recovery-line selection (the paper's straight-cut recovery is
//!   [`CutPicker::AlignedSeq`]),
//! * [`Hooks`] — protocol customisation points used by `acfc-protocols`
//!   to implement the baselines the paper compares against.
//!
//! Substitution note (documented in `DESIGN.md`): the paper evaluated on
//! a Starfish/MPI cluster; this simulator replaces that testbed. The
//! analysis only depends on message ordering, causality, and the scalar
//! cost parameters, all of which the simulator reproduces — and runs are
//! bit-for-bit reproducible from a seed, which the cluster was not.
//!
//! ```
//! use acfc_sim::{compile, run, SimConfig, consistency};
//!
//! // Figure 1 (uniform Jacobi): every straight cut is a recovery line.
//! let trace = run(&compile(&acfc_mpsl::programs::jacobi(5)), &SimConfig::new(4));
//! assert!(trace.completed());
//! assert!(consistency::all_straight_cuts_consistent(&trace));
//!
//! // Figure 2 (odd/even Jacobi): they are not.
//! let trace = run(&compile(&acfc_mpsl::programs::jacobi_odd_even(5)), &SimConfig::new(4));
//! assert!(!consistency::all_straight_cuts_consistent(&trace));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod bytecode;
pub mod clock;
pub mod config;
pub mod consistency;
pub mod engine;
pub mod equeue;
pub mod export;
pub mod failure;
pub mod hooks;
pub mod obs;
pub mod perfetto;
pub mod runlog;
pub mod step;
pub mod time;
pub mod trace;

pub use backend::{BackendError, InMemoryBackend, StateBackend, StateSnapshot};
pub use bytecode::{compile, Compiled};
pub use clock::VectorClock;
pub use config::{ClockMode, CostModel, NetworkModel, SimConfig, DENSE_CLOCK_MAX};
pub use engine::{
    run, run_observed, run_observed_with, run_with_backend, run_with_failures, run_with_hooks,
};
pub use equeue::{CalendarQueue, SortedVecQueue};
pub use export::{golden, spacetime, summary};
pub use failure::{CutPicker, FailurePlan, PickerFn, RecoveryView};
pub use hooks::{
    CoordinationCost, Hooks, NoHooks, RecvAction, TimerCheckpoints, FORCED_RUNAWAY,
    MAX_FORCED_PER_RECV,
};
pub use obs::{ProcObs, SimObs};
pub use perfetto::{merged_timeline, merged_timeline_json, timeline, timeline_json, MergedRun};
pub use runlog::{trigger_name, RunEvent, RunLog};
pub use time::SimTime;
pub use trace::{
    CheckpointRecord, CkptTrigger, FailureRecord, MessageRecord, Metrics, MsgId, Outcome, Snapshot,
    StmtInstances, Trace, VarStore,
};
