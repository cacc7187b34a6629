//! Deterministic scheduler: the runtime's replayable execution mode.
//!
//! There is no second scheduler here. [`run_det`] is the simulator's
//! engine ([`acfc_sim::run_with_backend`]) with all of its optional
//! attachments in use: the coordinator as its protocol hooks, the
//! coordinator's cut picker for recovery, a [`StateBackend`] that every
//! checkpoint is committed to and every rollback discards from, and the
//! run log of commits, kills, recoveries and halts the CLI renders. So
//! given the same program, configuration, coordinator and kill
//! schedule, the trace is the simulator's by construction, at any
//! process count and in either clock mode.

use crate::coordinator::CheckpointCoordinator;
use crate::report::RunReport;
use acfc_sim::{run_with_backend, Compiled, FailurePlan, RunEvent, SimConfig, StateBackend, Trace};

/// Result of a deterministic run: the simulator's trace plus the
/// runtime event log.
#[derive(Debug)]
pub struct DetRun {
    /// Full trace in the simulator's format.
    pub trace: Trace,
    /// Ordered runtime events (checkpoints, kills, recoveries, halts).
    pub events: Vec<RunEvent>,
    /// Final bound variables per worker, sorted by name.
    pub final_vars: Vec<Vec<(String, i64)>>,
}

impl DetRun {
    /// Wraps the run as a [`RunReport`] — `RunStart`/`RunEnd` framing
    /// around the event log plus end-of-run aggregates — so both
    /// schedulers emit the same JSONL transcript shape.
    pub fn into_report(self, coordinator: &str, backend: &str) -> RunReport {
        let messages = self.trace.messages.len() as u64;
        let failures = self.trace.failures.len() as u64;
        RunReport {
            program: self.trace.program,
            nprocs: self.trace.nprocs,
            coordinator: coordinator.to_string(),
            backend: backend.to_string(),
            mode: "det",
            outcome: self.trace.outcome,
            vtime_us: self.trace.finished_at.as_micros(),
            events: self.events,
            final_vars: self.final_vars,
        }
        .framed(messages, failures)
    }
}

/// Runs `compiled` deterministically: virtual time, seeded jitter, the
/// coordinator deciding checkpoint placement, every checkpoint
/// committed to `backend`, and kills from `plan` recovered via the
/// coordinator's cut picker, the backend's committed set following the
/// trace's live checkpoints.
pub fn run_det(
    compiled: &Compiled,
    config: &SimConfig,
    coordinator: &mut dyn CheckpointCoordinator,
    backend: &mut dyn StateBackend,
    plan: FailurePlan,
) -> DetRun {
    let picker = coordinator.picker();
    let (trace, log) = run_with_backend(compiled, config, coordinator, plan, picker, backend);
    DetRun {
        trace,
        events: log.events,
        final_vars: log.final_vars,
    }
}
