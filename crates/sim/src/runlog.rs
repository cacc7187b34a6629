//! The run log: what an execution with a durable backend attached
//! reports besides its [`Trace`](crate::Trace) — the checkpoints it
//! committed, the kills and recoveries it went through and the halts,
//! in the order they happened, plus the variables each process ended
//! with. Rendered as JSONL (one event per line, machine-checkable — the
//! CI smoke job validates recovery transcripts from this format).

use crate::trace::CkptTrigger;
use acfc_util::bench::JsonEscaped;
use std::fmt::Write as _;

/// Stable lowercase name of a checkpoint trigger.
pub fn trigger_name(t: CkptTrigger) -> &'static str {
    match t {
        CkptTrigger::AppStatement => "app",
        CkptTrigger::Timer => "timer",
        CkptTrigger::Forced => "forced",
        CkptTrigger::Coordinated => "coordinated",
    }
}

/// One observable event of an execution, in emission order. All times
/// are virtual cost-model microseconds. The engine emits the four
/// in-run events; `RunStart` and `RunEnd` frame them once whoever
/// reports the run knows how it was set up and how it ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunEvent {
    /// The run began.
    RunStart {
        /// Program name.
        program: String,
        /// Worker count.
        nprocs: usize,
        /// Coordinator name.
        coordinator: String,
        /// Backend name.
        backend: String,
        /// `"det"` or `"free"`.
        mode: &'static str,
    },
    /// A checkpoint was committed to the backend.
    Checkpoint {
        /// Owning worker.
        proc: usize,
        /// Sequence number (1-based).
        seq: u64,
        /// Trigger name ([`trigger_name`]).
        trigger: &'static str,
        /// Virtual time at the checkpoint.
        vtime_us: u64,
    },
    /// A worker was killed by the failure injector.
    Kill {
        /// The killed worker.
        proc: usize,
        /// Virtual time of the kill.
        vtime_us: u64,
    },
    /// A recovery rolled every worker back to a consistent cut.
    Recovery {
        /// The worker whose death triggered recovery.
        killed: usize,
        /// Virtual time of the recovery.
        vtime_us: u64,
        /// Restored checkpoint `seq` per worker (`None` = initial
        /// state).
        restored: Vec<Option<u64>>,
        /// In-transit messages re-delivered at the cut.
        redelivered: usize,
        /// Work rolled back, summed over workers (µs): virtual time
        /// charged since each restored checkpoint began, a `compute`
        /// already charged past the kill included — see
        /// [`FailureRecord::lost_us`](crate::trace::FailureRecord::lost_us).
        lost_us: u64,
    },
    /// A worker halted normally.
    Halt {
        /// The halted worker.
        proc: usize,
        /// Virtual time of the halt.
        vtime_us: u64,
    },
    /// The run ended.
    RunEnd {
        /// Outcome name (`completed`, `deadlock`, `steplimit`,
        /// `error`).
        outcome: String,
        /// Final virtual time.
        vtime_us: u64,
        /// Checkpoints committed over the whole run, those a later
        /// rollback discarded included (= the `Checkpoint` events in
        /// the log).
        checkpoints: u64,
        /// Application messages sent.
        messages: u64,
        /// Failures injected.
        failures: u64,
    },
}

/// Appends `s` to `out` as a JSON string literal.
fn esc(s: &str, out: &mut String) {
    let _ = write!(out, "\"{}\"", JsonEscaped(s));
}

impl RunEvent {
    /// Renders the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        match self {
            RunEvent::RunStart {
                program,
                nprocs,
                coordinator,
                backend,
                mode,
            } => {
                s.push_str("{\"ev\":\"run_start\",\"program\":");
                esc(program, &mut s);
                s.push_str(&format!(",\"nprocs\":{nprocs},\"coordinator\":"));
                esc(coordinator, &mut s);
                s.push_str(",\"backend\":");
                esc(backend, &mut s);
                s.push_str(&format!(",\"mode\":\"{mode}\"}}"));
            }
            RunEvent::Checkpoint {
                proc,
                seq,
                trigger,
                vtime_us,
            } => s.push_str(&format!(
                "{{\"ev\":\"checkpoint\",\"proc\":{proc},\"seq\":{seq},\"trigger\":\"{trigger}\",\"vtime_us\":{vtime_us}}}"
            )),
            RunEvent::Kill { proc, vtime_us } => s.push_str(&format!(
                "{{\"ev\":\"kill\",\"proc\":{proc},\"vtime_us\":{vtime_us}}}"
            )),
            RunEvent::Recovery {
                killed,
                vtime_us,
                restored,
                redelivered,
                lost_us,
            } => {
                s.push_str(&format!(
                    "{{\"ev\":\"recovery\",\"killed\":{killed},\"vtime_us\":{vtime_us},\"restored\":["
                ));
                for (i, r) in restored.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    match r {
                        Some(seq) => s.push_str(&seq.to_string()),
                        None => s.push_str("null"),
                    }
                }
                s.push_str(&format!(
                    "],\"redelivered\":{redelivered},\"lost_us\":{lost_us}}}"
                ));
            }
            RunEvent::Halt { proc, vtime_us } => s.push_str(&format!(
                "{{\"ev\":\"halt\",\"proc\":{proc},\"vtime_us\":{vtime_us}}}"
            )),
            RunEvent::RunEnd {
                outcome,
                vtime_us,
                checkpoints,
                messages,
                failures,
            } => {
                s.push_str("{\"ev\":\"run_end\",\"outcome\":");
                esc(outcome, &mut s);
                s.push_str(&format!(
                    ",\"vtime_us\":{vtime_us},\"checkpoints\":{checkpoints},\"messages\":{messages},\"failures\":{failures}}}"
                ));
            }
        }
        s
    }
}

/// What [`run_with_backend`](crate::engine::run_with_backend) hands
/// back next to the trace.
#[derive(Debug, Default)]
pub struct RunLog {
    /// The `Checkpoint`, `Kill`, `Recovery` and `Halt` events, in
    /// emission order.
    pub events: Vec<RunEvent>,
    /// Final bound variables per process, sorted by name.
    pub final_vars: Vec<Vec<(String, i64)>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_render_as_json_objects() {
        let evs = [
            RunEvent::RunStart {
                program: "jacobi \"q\"".into(),
                nprocs: 4,
                coordinator: "appl-driven".into(),
                backend: "mem".into(),
                mode: "det",
            },
            RunEvent::Checkpoint {
                proc: 1,
                seq: 2,
                trigger: "app",
                vtime_us: 123,
            },
            RunEvent::Kill {
                proc: 0,
                vtime_us: 5,
            },
            RunEvent::Recovery {
                killed: 0,
                vtime_us: 10,
                restored: vec![Some(2), None],
                redelivered: 3,
                lost_us: 77,
            },
            RunEvent::Halt {
                proc: 2,
                vtime_us: 9,
            },
            RunEvent::RunEnd {
                outcome: "completed".into(),
                vtime_us: 100,
                checkpoints: 8,
                messages: 12,
                failures: 1,
            },
        ];
        for e in &evs {
            let j = e.to_json();
            assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
            assert!(j.contains("\"ev\":"), "{j}");
        }
        // Escaping: the embedded quote survives as an escape.
        assert!(evs[0].to_json().contains("jacobi \\\"q\\\""));
        // Restored nulls render as JSON null.
        assert!(evs[3].to_json().contains("[2,null]"));
    }
}
