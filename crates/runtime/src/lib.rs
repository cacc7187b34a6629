//! Real checkpointing runtime: executes lowered MPSL programs outside
//! the simulator, with actual state snapshots committed to durable
//! storage and actual crash recovery.
//!
//! The public API is a trait pair, mirroring the paper's separation of
//! *placement* from *persistence*:
//!
//! - [`CheckpointCoordinator`] decides **when** each worker checkpoints:
//!   the simulator's protocol [`Hooks`](acfc_sim::Hooks) — the
//!   application-driven no-op, timer-driven uncoordinated, SaS, C-L and
//!   the CIC family, one implementation each — plus a name and a
//!   recovery-line picker; built from a
//!   [`ProtocolKind`](acfc_protocols::ProtocolKind) via
//!   [`coordinator_for`].
//! - [`StateBackend`](acfc_sim::StateBackend) decides **where**
//!   snapshots go: [`InMemoryBackend`], [`FileBackend`] (one file per
//!   snapshot, CRC-framed, atomic rename), or [`LogStructuredBackend`]
//!   (single append-only log with tombstones and compaction) — built
//!   from a name via [`backend_for`].
//!
//! Two schedulers execute the program:
//!
//! - [`run_det`] — deterministic virtual-time mode: the simulator's
//!   engine itself, with the coordinator as its hooks, the backend
//!   attached and the run log collected — same event order and traces
//!   by construction, with real snapshots committed.
//! - [`run_free`] — free-running mode: one OS thread per worker over
//!   real `mpsc` channels, virtual cost-model clocks for protocol
//!   timers, a [`FailureInjector`] that kills live workers, and
//!   stop-the-world recovery that restores every worker from the
//!   latest consistent cut read back out of the backend.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backends;
pub mod coordinator;
pub mod det;
pub mod free;
pub mod report;

pub use backends::{
    backend_for, crc32, CrashPoint, FileBackend, InMemoryBackend, LogStructuredBackend,
};
pub use coordinator::{coordinator_for, CheckpointCoordinator, PreparedRun};
pub use det::{run_det, DetRun};
pub use free::{run_free, FailureInjector, FreeConfig};
pub use report::{outcome_name, trigger_name, RunEvent, RunReport};
