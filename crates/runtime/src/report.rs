//! Run reporting: a finished execution as its [`RunEvent`] log framed
//! by `RunStart` / `RunEnd`, plus end-of-run aggregates. The event type
//! and its JSONL rendering live with the engine that emits the in-run
//! events ([`acfc_sim::runlog`]).

use acfc_sim::Outcome;
pub use acfc_sim::{trigger_name, RunEvent};

/// Stable lowercase outcome name for reports.
pub fn outcome_name(o: &Outcome) -> String {
    match o {
        Outcome::Completed => "completed".into(),
        Outcome::Deadlock(procs) => format!("deadlock({procs:?})"),
        Outcome::StepLimit(p) => format!("steplimit({p})"),
        Outcome::RuntimeError(p, m) => format!("error({p}: {m})"),
    }
}

/// Summary of a runtime execution: the event log plus end-of-run
/// aggregates, independent of the scheduler mode that produced it.
#[derive(Debug)]
pub struct RunReport {
    /// Program name.
    pub program: String,
    /// Worker count.
    pub nprocs: usize,
    /// Coordinator name.
    pub coordinator: String,
    /// Backend name.
    pub backend: String,
    /// `"det"` or `"free"`.
    pub mode: &'static str,
    /// How the run ended.
    pub outcome: Outcome,
    /// Final virtual time (max over workers).
    pub vtime_us: u64,
    /// The ordered event log (starts with `RunStart`, ends with
    /// `RunEnd`).
    pub events: Vec<RunEvent>,
    /// Final bound variables per worker, sorted by name.
    pub final_vars: Vec<Vec<(String, i64)>>,
}

impl RunReport {
    /// Frames a finished run: `self.events`, so far the in-run log in
    /// emission order, gains its `RunStart` and `RunEnd`, the latter
    /// counting the `Checkpoint` events in the log. Both schedulers
    /// build their report through this.
    pub(crate) fn framed(mut self, messages: u64, failures: u64) -> RunReport {
        let checkpoints = self
            .events
            .iter()
            .filter(|e| matches!(e, RunEvent::Checkpoint { .. }))
            .count() as u64;
        let start = RunEvent::RunStart {
            program: self.program.clone(),
            nprocs: self.nprocs,
            coordinator: self.coordinator.clone(),
            backend: self.backend.clone(),
            mode: self.mode,
        };
        self.events.insert(0, start);
        self.events.push(RunEvent::RunEnd {
            outcome: outcome_name(&self.outcome),
            vtime_us: self.vtime_us,
            checkpoints,
            messages,
            failures,
        });
        self
    }

    /// Renders the whole event log as JSONL.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}
