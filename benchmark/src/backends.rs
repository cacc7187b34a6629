//! The benchmark's two `StateBackend`s: [`TimedBackend`], the
//! stopwatch every storage call of every part goes through, and
//! [`NullBackend`], the no-op store that prices a run without
//! durability. Both are plain implementations of the public trait, so
//! `run_det` and `run_free` are measured without editing the runtime.

use crate::harness::{Ledger, Tracer};
use crate::spec::PER_LAYER;
use acfc::runtime::{CrashPoint, FileBackend, InMemoryBackend, LogStructuredBackend};
use acfc::sim::{BackendError, StateBackend, StateSnapshot};
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Op {
    Open,
    Commit,
    Load,
    Committed,
    Discard,
    Compact,
}

/// One storage call as the client saw it.
pub struct Call {
    pub op: Op,
    pub start: Instant,
    pub secs: f64,
    /// Encoded payload bytes moved (commit and load), else 0.
    pub bytes: u64,
}

/// Size of `snap.encode()` without encoding (the codec is fixed-width
/// apart from its length-prefixed strings), so that counting bytes adds
/// nothing to a timed `run_det`. The commit part's verification checks
/// it against the real encoding.
pub fn encoded_len(snap: &StateSnapshot) -> u64 {
    let label = snap.label.as_ref().map_or(0, |l| 8 + l.len());
    let vars: usize = snap.vars.iter().map(|(k, _)| 16 + k.len()).sum();
    let fixed = 8 + 8 + 8 + 1 + 1 + 8 * 3;
    let pairs = 16 * (snap.vc.len() + snap.stmt_instances.len());
    (fixed + label + 8 + vars + 8 + 8 + pairs) as u64
}

/// A store the benchmark can open in a directory and maintain the way
/// an operator would: `LogStructuredBackend` has no automatic
/// compaction, so its client compacts when dead bytes pass
/// [`COMPACT_AT`].
pub trait Store: StateBackend + Sized {
    const NAME: &'static str;
    fn open(dir: &Path) -> Result<Self, BackendError>;
    fn dead_bytes(&self) -> u64 {
        0
    }
    fn compact(&mut self) -> Result<(), BackendError> {
        Ok(())
    }
    /// Arms the durable stores' one-shot crash injection.
    fn set_crash(&mut self, _at: CrashPoint) {}
}

/// Dead bytes at which the log's client compacts.
pub const COMPACT_AT: u64 = 1 << 20;

impl Store for InMemoryBackend {
    const NAME: &'static str = "mem";
    fn open(_dir: &Path) -> Result<Self, BackendError> {
        Ok(InMemoryBackend::new())
    }
}

impl Store for FileBackend {
    const NAME: &'static str = "file";
    fn open(dir: &Path) -> Result<Self, BackendError> {
        FileBackend::open(dir)
    }
    fn set_crash(&mut self, at: CrashPoint) {
        FileBackend::set_crash(self, at);
    }
}

impl Store for LogStructuredBackend {
    const NAME: &'static str = "log";
    fn open(dir: &Path) -> Result<Self, BackendError> {
        LogStructuredBackend::open(dir.join("log.acfc"))
    }
    fn dead_bytes(&self) -> u64 {
        LogStructuredBackend::dead_bytes(self)
    }
    fn compact(&mut self) -> Result<(), BackendError> {
        LogStructuredBackend::compact(self)
    }
    fn set_crash(&mut self, at: CrashPoint) {
        LogStructuredBackend::set_crash(self, at);
    }
}

/// Every trait call timed and byte-counted.
pub struct TimedBackend<S> {
    pub inner: S,
    pub calls: Vec<Call>,
    pub dead_bytes_peak: u64,
}

/// Where a part sends a store it has finished with: dropped in an
/// untraced run, into the ledger and span file in a traced one.
pub type Sink<'a, S> = &'a mut dyn FnMut(TimedBackend<S>);

impl<S: Store> TimedBackend<S> {
    /// Opens the store in `dir`; the open (replay for the log, tmp
    /// sweep for the file store) is the first recorded call.
    pub fn open(dir: &Path) -> Result<TimedBackend<S>, BackendError> {
        let start = Instant::now();
        let inner = S::open(dir)?;
        let secs = start.elapsed().as_secs_f64();
        Ok(TimedBackend {
            inner,
            calls: vec![Call {
                op: Op::Open,
                start,
                secs,
                bytes: 0,
            }],
            dead_bytes_peak: 0,
        })
    }

    fn record<R>(&mut self, op: Op, bytes: u64, f: impl FnOnce(&mut S) -> R) -> R {
        let start = Instant::now();
        let r = f(&mut self.inner);
        self.calls.push(Call {
            op,
            start,
            secs: start.elapsed().as_secs_f64(),
            bytes,
        });
        r
    }

    /// The operator's duty after a commit or discard: compact once dead
    /// bytes pass the threshold.
    pub fn maintain(&mut self) -> Result<(), BackendError> {
        let dead = self.inner.dead_bytes();
        self.dead_bytes_peak = self.dead_bytes_peak.max(dead);
        if dead > COMPACT_AT {
            self.record(Op::Compact, 0, S::compact)?;
        }
        Ok(())
    }

    fn of(&self, op: Op) -> impl Iterator<Item = &Call> {
        self.calls.iter().filter(move |c| c.op == op)
    }

    pub fn count(&self, op: Op) -> usize {
        self.of(op).count()
    }

    pub fn bytes(&self, op: Op) -> u64 {
        self.of(op).map(|c| c.bytes).sum()
    }

    /// Seconds of every `op` call, in call order.
    pub fn secs(&self, op: Op) -> Vec<f64> {
        self.of(op).map(|c| c.secs).collect()
    }

    /// Adds this store's calls to the per-layer ledger
    /// (`runtime.backends.<name>.*`) and hands them to the span file.
    pub fn into_ledger(self, tracer: &mut Tracer, ledger: &mut Ledger) {
        let row = |suffix: &str| {
            let name = format!("runtime.backends.{}.{suffix}", S::NAME);
            PER_LAYER.iter().find(|m| m.name == name).map(|m| m.name)
        };
        let mut add = |suffix: &str, value: f64| {
            if let Some(name) = row(suffix) {
                ledger.add(name, value);
            }
        };
        add("commit_count", self.count(Op::Commit) as f64);
        add("commit_bytes", self.bytes(Op::Commit) as f64);
        add("load_count", self.count(Op::Load) as f64);
        add("compactions", self.count(Op::Compact) as f64);
        if let Some(name) = row("dead_bytes_peak") {
            let peak = ledger.0.get(name).copied().unwrap_or(0.0);
            ledger.set(name, peak.max(self.dead_bytes_peak as f64));
        }
        let epoch = tracer.epoch();
        for c in self.calls {
            let suffix = match c.op {
                Op::Open => "open_s",
                Op::Commit => "commit_s",
                Op::Load => "load_s",
                Op::Committed => "committed_s",
                Op::Discard => "discard_s",
                Op::Compact => "compact_s",
            };
            if let Some(name) = row(suffix) {
                ledger.add(name, c.secs);
                let start_ns = c.start.saturating_duration_since(epoch).as_nanos() as u64;
                tracer.add(name, start_ns, start_ns + (c.secs * 1e9) as u64);
            }
        }
    }
}

impl<S: Store> StateBackend for TimedBackend<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn commit(&mut self, snap: &StateSnapshot) -> Result<(), BackendError> {
        let bytes = encoded_len(snap);
        self.record(Op::Commit, bytes, |s| s.commit(snap))
    }

    fn load(&mut self, proc: usize, seq: u64) -> Result<StateSnapshot, BackendError> {
        let loaded = self.record(Op::Load, 0, |s| s.load(proc, seq));
        if let (Ok(snap), Some(call)) = (&loaded, self.calls.last_mut()) {
            call.bytes = encoded_len(snap);
        }
        loaded
    }

    fn committed(&mut self) -> Result<Vec<(usize, u64)>, BackendError> {
        self.record(Op::Committed, 0, S::committed)
    }

    fn discard_after(&mut self, proc: usize, seq: u64) -> Result<(), BackendError> {
        self.record(Op::Discard, 0, |s| s.discard_after(proc, seq))
    }
}

/// Accepts every commit and keeps nothing: `run_det` on this store is
/// the run without its checkpoint I/O, the denominator of the measured
/// overhead ratio `r`.
#[derive(Default)]
pub struct NullBackend;

impl StateBackend for NullBackend {
    fn name(&self) -> &'static str {
        "null"
    }

    fn commit(&mut self, _snap: &StateSnapshot) -> Result<(), BackendError> {
        Ok(())
    }

    fn load(&mut self, proc: usize, seq: u64) -> Result<StateSnapshot, BackendError> {
        Err(BackendError::Missing { proc, seq })
    }

    fn committed(&mut self) -> Result<Vec<(usize, u64)>, BackendError> {
        Ok(Vec::new())
    }

    fn discard_after(&mut self, _proc: usize, _seq: u64) -> Result<(), BackendError> {
        Ok(())
    }
}
