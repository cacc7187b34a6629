//! Execution traces: the record of everything observable a run produced.
//!
//! The offline analysis makes claims quantified over executions
//! ("in any further execution, `R_i` is a recovery line"); traces are how
//! those claims are checked. A [`Trace`] records every message, every
//! checkpoint (with its vector clock and a restorable snapshot), every
//! failure/recovery, and summary metrics.

use crate::clock::VectorClock;
use crate::time::SimTime;
use acfc_mpsl::StmtId;
use std::sync::Arc;

/// Identifier of a message within a trace (index into
/// [`Trace::messages`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId(pub u64);

/// What triggered a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptTrigger {
    /// A `checkpoint` statement in the application (the paper's
    /// application-driven placement).
    AppStatement,
    /// A protocol-local timer (uncoordinated / baseline protocols).
    Timer,
    /// Forced by a communication-induced protocol on message receipt.
    Forced,
    /// Part of a coordinated wave (SaS or Chandy–Lamport).
    Coordinated,
}

/// A slot-interned variable store: the engine keeps per-process state
/// as a flat value vector indexed by the compile-time name→slot table
/// (shared via `Arc`, so snapshotting clones two small vectors and
/// bumps a refcount instead of rebuilding a hash map).
///
/// A slot is *bound* once the variable is declared or first assigned;
/// unbound slots exist (an undeclared name can appear in the code) but
/// are invisible to iteration, comparison, and lookup — exactly the
/// observable behaviour of the map-based store this replaces.
#[derive(Debug, Clone)]
pub struct VarStore {
    pub(crate) names: Arc<[String]>,
    pub(crate) values: Vec<i64>,
    pub(crate) bound: Arc<[bool]>,
}

impl VarStore {
    /// The value row, one entry per slot (bound or not).
    pub fn values(&self) -> &[i64] {
        &self.values
    }

    /// The binding row, one entry per slot.
    pub fn bound_row(&self) -> &Arc<[bool]> {
        &self.bound
    }

    /// The value bound to `name`, if any.
    pub fn get(&self, name: &str) -> Option<i64> {
        self.names
            .iter()
            .position(|n| n == name)
            .filter(|&i| self.bound[i])
            .map(|i| self.values[i])
    }

    /// Iterates over the bound `(name, value)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, i64)> + '_ {
        self.names
            .iter()
            .zip(&self.values)
            .zip(self.bound.iter())
            .filter(|&(_, &b)| b)
            .map(|((n, &v), _)| (n.as_str(), v))
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.bound.iter().filter(|&&b| b).count()
    }

    /// `true` when no variable is bound.
    pub fn is_empty(&self) -> bool {
        !self.bound.iter().any(|&b| b)
    }
}

impl std::ops::Index<&str> for VarStore {
    type Output = i64;

    fn index(&self, name: &str) -> &i64 {
        let i = self
            .names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("no variable named {name:?}"));
        assert!(self.bound[i], "variable {name:?} is unbound");
        &self.values[i]
    }
}

/// Set-semantics equality: two stores are equal iff they bind the same
/// names to the same values, regardless of slot layout.
impl PartialEq for VarStore {
    fn eq(&self, other: &VarStore) -> bool {
        let mut a: Vec<(&str, i64)> = self.iter().collect();
        let mut b: Vec<(&str, i64)> = other.iter().collect();
        a.sort_unstable();
        b.sort_unstable();
        a == b
    }
}

impl Eq for VarStore {}

/// Per-statement instance counters, indexed densely by statement id
/// (statement ids are small and contiguous per program, so a flat
/// vector replaces the former `HashMap<u32, u64>`).
#[derive(Debug, Clone, Default)]
pub struct StmtInstances(pub(crate) Vec<u64>);

impl StmtInstances {
    /// The instance count of statement `id` (0 if never executed).
    pub fn get(&self, id: u32) -> u64 {
        self.0.get(id as usize).copied().unwrap_or(0)
    }

    /// The non-zero `(stmt_id, count)` pairs in id order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.0
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i as u32, c))
    }
}

/// Equality over the non-zero counters (a trailing run of zero slots is
/// indistinguishable from absent slots).
impl PartialEq for StmtInstances {
    fn eq(&self, other: &StmtInstances) -> bool {
        self.iter_nonzero().eq(other.iter_nonzero())
    }
}

impl Eq for StmtInstances {}

/// A restorable process snapshot captured at a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Program counter (index into the compiled code).
    pub pc: usize,
    /// Variable store.
    pub vars: VarStore,
    /// Vector clock at the checkpoint.
    pub vc: VectorClock,
    /// Dynamic checkpoint count at (and including) this checkpoint.
    pub ckpt_seq: u64,
    /// Per-statement instance counters.
    pub stmt_instances: StmtInstances,
    /// Per-process event step counter at the checkpoint.
    pub step: u64,
}

impl Snapshot {
    /// Variable bindings sorted by name (canonical order for exports
    /// and golden-trace pins, independent of the storage layout).
    pub fn vars_sorted(&self) -> Vec<(String, i64)> {
        let mut v: Vec<(String, i64)> = self.vars.iter().map(|(k, x)| (k.to_string(), x)).collect();
        v.sort();
        v
    }

    /// Non-zero per-statement instance counters sorted by statement id
    /// (canonical order, independent of the storage layout).
    pub fn stmt_instances_sorted(&self) -> Vec<(u32, u64)> {
        self.stmt_instances.iter_nonzero().collect()
    }
}

/// One recorded message.
#[derive(Debug, Clone)]
pub struct MessageRecord {
    /// Message id (index in [`Trace::messages`]).
    pub id: MsgId,
    /// Sender rank.
    pub from: usize,
    /// Receiver rank.
    pub to: usize,
    /// Payload size in bits.
    pub size_bits: u64,
    /// The `send` statement.
    pub send_stmt: StmtId,
    /// Simulated send time.
    pub sent_at: SimTime,
    /// Sender's vector clock at the send event.
    pub send_vc: VectorClock,
    /// Sender's event step at the send.
    pub send_step: u64,
    /// Protocol piggyback value attached by hooks.
    pub piggyback: u64,
    /// When the network delivered the message (None: still in flight at
    /// end of run).
    pub delivered_at: Option<SimTime>,
    /// When the receiver consumed it (None: never received).
    pub recv_at: Option<SimTime>,
    /// Receiver's vector clock at the receive event.
    pub recv_vc: Option<VectorClock>,
    /// Receiver's event step at the receive.
    pub recv_step: Option<u64>,
    /// The `recv` statement that consumed it.
    pub recv_stmt: Option<StmtId>,
    /// `true` if a rollback undid the send: the record is dead history.
    pub rolled_back: bool,
}

impl MessageRecord {
    /// `true` if the message was consumed by a receive (and not undone).
    pub fn is_received(&self) -> bool {
        !self.rolled_back && self.recv_at.is_some()
    }
}

/// One recorded checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointRecord {
    /// Owning process.
    pub proc: usize,
    /// Dynamic sequence number within the process (1-based): the paper's
    /// checkpoint sequence number of §2.
    pub seq: u64,
    /// The `checkpoint` statement (the static checkpoint node),
    /// `None` for protocol-generated (timer/forced/coordinated)
    /// checkpoints that have no statement.
    pub stmt: Option<StmtId>,
    /// How many times this statement has executed in this process
    /// (1-based); 0 for protocol-generated checkpoints.
    pub instance: u64,
    /// Optional label from the source.
    pub label: Option<Arc<str>>,
    /// What triggered it.
    pub trigger: CkptTrigger,
    /// When the checkpoint began.
    pub start: SimTime,
    /// When it was durable (`start + l`).
    pub durable_at: SimTime,
    /// Vector clock at the checkpoint event.
    pub vc: VectorClock,
    /// Per-process event step.
    pub step: u64,
    /// Restorable snapshot.
    pub snapshot: Snapshot,
    /// `true` if a rollback undid this checkpoint.
    pub rolled_back: bool,
}

/// One failure and the recovery that followed.
#[derive(Debug, Clone)]
pub struct FailureRecord {
    /// The process that failed.
    pub proc: usize,
    /// When it failed.
    pub at: SimTime,
    /// The recovery line used: for each process, the checkpoint `seq`
    /// restored (`None` = initial state).
    pub restored_seq: Vec<Option<u64>>,
    /// Each process's latest live checkpoint `seq` at failure time
    /// (`0` = none); `latest_seq[p] − restored_seq[p]` is the rollback
    /// depth.
    pub latest_seq: Vec<u64>,
    /// Work lost, summed over processes: the virtual time (µs) each
    /// process had been charged since its restored checkpoint began
    /// (since 0 for a restart from the initial state). A `compute` is
    /// charged whole when it is issued, so one already under way at the
    /// failure counts in full, past the failure included: a failure
    /// 1 ms into four processes' `compute 2000` reports 8000 ms.
    pub lost_us: u64,
}

/// Aggregate counters.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Application messages sent (live, after rollbacks).
    pub app_messages: u64,
    /// Application message bits.
    pub app_bits: u64,
    /// Protocol control messages charged by hooks.
    pub control_messages: u64,
    /// Protocol control bits charged by hooks.
    pub control_bits: u64,
    /// Checkpoints taken from application statements.
    pub app_checkpoints: u64,
    /// Timer-driven checkpoints.
    pub timer_checkpoints: u64,
    /// Forced (communication-induced) checkpoints.
    pub forced_checkpoints: u64,
    /// Coordinated-wave checkpoints.
    pub coordinated_checkpoints: u64,
    /// Total µs processes spent stalled in checkpoint overhead
    /// (including coordination stall charged by hooks).
    pub ckpt_stall_us: u64,
    /// The coordination-only share of [`ckpt_stall_us`]: stall charged
    /// by protocol hooks over and above the intrinsic overhead `o`.
    /// Zero for the application-driven protocol — the dashboard column
    /// that makes "coordination-free" a measured number.
    ///
    /// [`ckpt_stall_us`]: Metrics::ckpt_stall_us
    pub coord_stall_us: u64,
    /// Total µs processes spent blocked in `recv`.
    pub recv_blocked_us: u64,
    /// Number of failures injected.
    pub failures: u64,
    /// Total µs charged as recovery overhead.
    pub recovery_us: u64,
    /// Instructions retired across all processes, including work
    /// replayed after rollbacks (the denominator of events/sec; not
    /// part of the golden-trace pin format).
    pub instructions: u64,
}

/// How a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Every process halted normally.
    Completed,
    /// No event could make progress while some process was still
    /// blocked: deadlock. Holds the blocked ranks.
    Deadlock(Vec<usize>),
    /// A process exceeded the step budget.
    StepLimit(usize),
    /// A runtime error (bad rank, eval error). Holds `(proc, message)`.
    RuntimeError(usize, String),
}

/// A full execution trace.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Number of processes.
    pub nprocs: usize,
    /// Program name.
    pub program: String,
    /// Every message ever sent (including rolled-back ones).
    pub messages: Vec<MessageRecord>,
    /// Every checkpoint ever taken (including rolled-back ones).
    pub checkpoints: Vec<CheckpointRecord>,
    /// Failures and recoveries.
    pub failures: Vec<FailureRecord>,
    /// Per-process finish time (time of `Halt`, or last activity).
    pub proc_end: Vec<SimTime>,
    /// Time the run ended (max event time).
    pub finished_at: SimTime,
    /// Aggregate counters.
    pub metrics: Metrics,
    /// How the run ended.
    pub outcome: Outcome,
}

impl Trace {
    /// Live (not rolled-back) checkpoints of process `p`, in `seq` order.
    pub fn live_checkpoints(&self, p: usize) -> Vec<&CheckpointRecord> {
        let mut v: Vec<&CheckpointRecord> = self
            .checkpoints
            .iter()
            .filter(|c| c.proc == p && !c.rolled_back)
            .collect();
        v.sort_by_key(|c| c.seq);
        v
    }

    /// Live messages (sends not undone by a rollback).
    pub fn live_messages(&self) -> impl Iterator<Item = &MessageRecord> {
        self.messages.iter().filter(|m| !m.rolled_back)
    }

    /// The number of live checkpoints per process.
    pub fn checkpoint_counts(&self) -> Vec<usize> {
        (0..self.nprocs)
            .map(|p| self.live_checkpoints(p).len())
            .collect()
    }

    /// The minimum live checkpoint count over all processes: the highest
    /// `i` for which a full straight cut `S_i` exists.
    pub fn aligned_depth(&self) -> usize {
        self.checkpoint_counts().into_iter().min().unwrap_or(0)
    }

    /// The straight cut of the `i`-th checkpoints (1-based `seq == i`),
    /// if every process has one.
    pub fn straight_cut(&self, i: u64) -> Option<Vec<&CheckpointRecord>> {
        let mut cut = Vec::with_capacity(self.nprocs);
        for p in 0..self.nprocs {
            let c = self
                .checkpoints
                .iter()
                .find(|c| c.proc == p && !c.rolled_back && c.seq == i)?;
            cut.push(c);
        }
        Some(cut)
    }

    /// `true` if the run completed normally.
    pub fn completed(&self) -> bool {
        self.outcome == Outcome::Completed
    }

    /// Wall-clock makespan of the run in seconds.
    pub fn makespan_secs(&self) -> f64 {
        self.finished_at.as_secs_f64()
    }
}
