//! Checkpoint state backends: the shared snapshot/restore surface.
//!
//! The engine always *records* checkpoints into the trace (that is what
//! the offline analysis and the golden pins consume); a
//! [`StateBackend`] is the complementary *durability* surface — where a
//! snapshot goes so a process can be restored from it after a real
//! crash. [`InMemoryBackend`] is the plain-map implementation (attach
//! any store with [`run_with_backend`](crate::engine::run_with_backend));
//! the real runtime crate implements file-per-checkpoint and
//! log-structured backends over the same trait, so the simulator and
//! the live workers persist byte-identical [`StateSnapshot`] payloads.
//!
//! [`StateSnapshot`] is deliberately *portable*: plain owned pairs
//! instead of the engine's slot-interned [`VarStore`] and dense
//! [`StmtInstances`], plus a versioned binary codec
//! ([`StateSnapshot::encode`] / [`StateSnapshot::decode`]) with no
//! external dependencies. Conversion back to the engine's restorable
//! [`Snapshot`] is lossless ([`StateSnapshot::to_snapshot`]).
//!
//! Both schedulers — this crate's engine and the runtime's worker
//! threads — build what they commit through one helper,
//! [`SlotSnapshot`]: a per-process portable snapshot filled in place
//! from the interned slot rows, in the name order [`SlotNames`]
//! computed once for the run.

use crate::clock::VectorClock;
use crate::trace::{CheckpointRecord, CkptTrigger, Snapshot, StmtInstances, VarStore};
use std::sync::Arc;

/// Errors surfaced by a [`StateBackend`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// An I/O failure in a durable backend (message carries the OS
    /// error and the path involved).
    Io(String),
    /// A stored payload failed structural validation (bad magic, bad
    /// length, failed checksum, truncation).
    Corrupt(String),
    /// The requested checkpoint is not committed.
    Missing {
        /// Process whose checkpoint was requested.
        proc: usize,
        /// Requested sequence number.
        seq: u64,
    },
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::Io(m) => write!(f, "backend I/O error: {m}"),
            BackendError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
            BackendError::Missing { proc, seq } => {
                write!(f, "no committed checkpoint seq {seq} for process {proc}")
            }
        }
    }
}

impl std::error::Error for BackendError {}

impl From<std::io::Error> for BackendError {
    fn from(e: std::io::Error) -> BackendError {
        BackendError::Io(e.to_string())
    }
}

/// A portable, self-contained checkpoint payload: everything needed to
/// restore one process, with no interned or engine-internal state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateSnapshot {
    /// Owning process rank.
    pub proc: usize,
    /// Dynamic checkpoint sequence number (1-based, the paper's §2
    /// numbering).
    pub seq: u64,
    /// What triggered the checkpoint.
    pub trigger: CkptTrigger,
    /// Optional source label.
    pub label: Option<String>,
    /// Program counter into the compiled code.
    pub pc: usize,
    /// Per-process event step counter at the checkpoint.
    pub step: u64,
    /// Number of processes (the vector-clock arity).
    pub nprocs: usize,
    /// Bound variables as `(name, value)` pairs, sorted by name.
    pub vars: Vec<(String, i64)>,
    /// Non-zero vector-clock entries, sorted by process index.
    pub vc: Vec<(u32, u64)>,
    /// Non-zero per-statement instance counters, sorted by statement id.
    pub stmt_instances: Vec<(u32, u64)>,
}

const MAGIC: &[u8; 8] = b"ACFCSNP1";

fn trigger_code(t: CkptTrigger) -> u8 {
    match t {
        CkptTrigger::AppStatement => 0,
        CkptTrigger::Timer => 1,
        CkptTrigger::Forced => 2,
        CkptTrigger::Coordinated => 3,
    }
}

fn trigger_of(code: u8) -> Result<CkptTrigger, BackendError> {
    Ok(match code {
        0 => CkptTrigger::AppStatement,
        1 => CkptTrigger::Timer,
        2 => CkptTrigger::Forced,
        3 => CkptTrigger::Coordinated,
        c => return Err(BackendError::Corrupt(format!("unknown trigger code {c}"))),
    })
}

/// Bounds-checked little-endian reader over an encoded payload.
struct Cursor<'b> {
    bytes: &'b [u8],
    at: usize,
}

impl<'b> Cursor<'b> {
    fn take(&mut self, n: usize) -> Result<&'b [u8], BackendError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| BackendError::Corrupt("truncated payload".into()))?;
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, BackendError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, BackendError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, BackendError> {
        let len = self.u64()? as usize;
        let s = self.take(len)?;
        String::from_utf8(s.to_vec()).map_err(|_| BackendError::Corrupt("non-UTF-8 string".into()))
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

impl StateSnapshot {
    /// Extracts the portable payload from a recorded checkpoint.
    pub fn from_record(rec: &CheckpointRecord) -> StateSnapshot {
        StateSnapshot {
            proc: rec.proc,
            seq: rec.seq,
            trigger: rec.trigger,
            label: rec.label.as_deref().map(str::to_owned),
            pc: rec.snapshot.pc,
            step: rec.snapshot.step,
            nprocs: rec.vc.len(),
            vars: rec.snapshot.vars_sorted(),
            vc: rec.vc.iter_nonzero().collect(),
            stmt_instances: rec.snapshot.stmt_instances_sorted(),
        }
    }

    /// Rebuilds the engine-restorable [`Snapshot`]. Lossless: variable
    /// bindings, clock entries, and instance counters survive the round
    /// trip exactly (store layout may differ, which the set-semantics
    /// equality of the snapshot types ignores).
    pub fn to_snapshot(&self) -> Snapshot {
        Snapshot {
            pc: self.pc,
            vars: var_store(self.vars.iter().map(|(k, v)| (k.clone(), *v))),
            vc: VectorClock::from_entries(self.nprocs, self.vc.iter().copied()),
            ckpt_seq: self.seq,
            stmt_instances: stmt_instances(self.stmt_instances.iter().copied()),
            step: self.step,
        }
    }

    /// Serialises to the versioned binary payload (magic `ACFCSNP1`,
    /// little-endian, length-prefixed strings). Durable backends wrap
    /// this in their own framing (checksums, atomic rename).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the [`encode`](StateSnapshot::encode)d payload to `out`,
    /// so a backend can serialise straight into the buffer it frames
    /// and writes from.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(64 + 16 * self.vars.len());
        out.extend_from_slice(MAGIC);
        put_u64(out, self.proc as u64);
        put_u64(out, self.seq);
        out.push(trigger_code(self.trigger));
        match &self.label {
            Some(l) => {
                out.push(1);
                put_str(out, l);
            }
            None => out.push(0),
        }
        put_u64(out, self.pc as u64);
        put_u64(out, self.step);
        put_u64(out, self.nprocs as u64);
        put_u64(out, self.vars.len() as u64);
        for (k, v) in &self.vars {
            put_str(out, k);
            put_u64(out, *v as u64);
        }
        put_u64(out, self.vc.len() as u64);
        for &(i, v) in &self.vc {
            put_u64(out, i as u64);
            put_u64(out, v);
        }
        put_u64(out, self.stmt_instances.len() as u64);
        for &(i, v) in &self.stmt_instances {
            put_u64(out, i as u64);
            put_u64(out, v);
        }
    }

    /// Reads `(proc, seq)` from the fixed-offset head of an encoded
    /// payload without decoding the rest — what log replay needs per
    /// record. Validates the magic and the 24 bytes it reads; the
    /// structure behind them is [`decode`](StateSnapshot::decode)'s to
    /// check.
    pub fn peek_key(bytes: &[u8]) -> Result<(usize, u64), BackendError> {
        let mut c = Cursor { bytes, at: 0 };
        if c.take(8)? != MAGIC {
            return Err(BackendError::Corrupt("bad magic".into()));
        }
        Ok((c.u64()? as usize, c.u64()?))
    }

    /// Deserialises an [`encode`](StateSnapshot::encode)d payload,
    /// validating magic, bounds, and enum codes.
    pub fn decode(bytes: &[u8]) -> Result<StateSnapshot, BackendError> {
        let mut c = Cursor { bytes, at: 0 };
        if c.take(8)? != MAGIC {
            return Err(BackendError::Corrupt("bad magic".into()));
        }
        let proc = c.u64()? as usize;
        let seq = c.u64()?;
        let trigger = trigger_of(c.u8()?)?;
        let label = match c.u8()? {
            0 => None,
            1 => Some(c.string()?),
            f => return Err(BackendError::Corrupt(format!("bad label flag {f}"))),
        };
        let pc = c.u64()? as usize;
        let step = c.u64()?;
        let nprocs = c.u64()? as usize;
        let nvars = c.u64()? as usize;
        // Each var costs at least 16 bytes, so a corrupt count cannot
        // trigger a huge allocation before the bounds check trips.
        let mut vars = Vec::with_capacity(nvars.min(bytes.len() / 16 + 1));
        for _ in 0..nvars {
            let k = c.string()?;
            let v = c.u64()? as i64;
            vars.push((k, v));
        }
        let nvc = c.u64()? as usize;
        let mut vc = Vec::with_capacity(nvc.min(bytes.len() / 16 + 1));
        for _ in 0..nvc {
            let i = c.u64()? as u32;
            let v = c.u64()?;
            vc.push((i, v));
        }
        let ninst = c.u64()? as usize;
        let mut stmt_instances = Vec::with_capacity(ninst.min(bytes.len() / 16 + 1));
        for _ in 0..ninst {
            let i = c.u64()? as u32;
            let v = c.u64()?;
            stmt_instances.push((i, v));
        }
        if c.at != bytes.len() {
            return Err(BackendError::Corrupt("trailing bytes".into()));
        }
        Ok(StateSnapshot {
            proc,
            seq,
            trigger,
            label,
            pc,
            step,
            nprocs,
            vars,
            vc,
            stmt_instances,
        })
    }
}

/// Builds a [`VarStore`] binding every `(name, value)` pair, in the
/// given slot order.
pub fn var_store(pairs: impl IntoIterator<Item = (String, i64)>) -> VarStore {
    let (names, values): (Vec<String>, Vec<i64>) = pairs.into_iter().unzip();
    let bound = vec![true; names.len()].into();
    VarStore {
        names: names.into(),
        values,
        bound,
    }
}

/// Builds [`StmtInstances`] from `(stmt_id, count)` pairs.
pub fn stmt_instances(pairs: impl IntoIterator<Item = (u32, u64)>) -> StmtInstances {
    let mut v = Vec::new();
    for (id, count) in pairs {
        let id = id as usize;
        if id >= v.len() {
            v.resize(id + 1, 0);
        }
        v[id] = count;
    }
    StmtInstances(v)
}

/// A run's variable slot table together with its name order — the
/// order [`StateSnapshot::vars`] lists bindings in — computed once so
/// that no checkpoint sorts.
#[derive(Debug, Clone)]
pub struct SlotNames {
    names: Arc<[String]>,
    /// Slot indices, sorted by the name they hold.
    by_name: Arc<[u32]>,
}

impl SlotNames {
    /// Orders the slot table of a compiled program
    /// ([`Compiled::var_names`](crate::Compiled::var_names)).
    pub fn new(names: Arc<[String]>) -> SlotNames {
        let mut by_name: Vec<u32> = (0..names.len() as u32).collect();
        by_name.sort_unstable_by_key(|&s| &names[s as usize]);
        SlotNames {
            names,
            by_name: by_name.into(),
        }
    }

    /// The bound slots of a binding row, in name order.
    fn bound_slots<'a>(&'a self, bound: &'a [bool]) -> impl Iterator<Item = usize> + 'a {
        self.by_name
            .iter()
            .map(|&s| s as usize)
            .filter(|&s| bound[s])
    }

    /// The slot holding variable `name`, if the program has one.
    pub fn slot_of(&self, name: &str) -> Option<usize> {
        self.by_name
            .binary_search_by(|&s| self.names[s as usize].as_str().cmp(name))
            .ok()
            .map(|i| self.by_name[i] as usize)
    }

    /// The bound `(name, value)` pairs of one slot row, sorted by name.
    pub fn bound_pairs(&self, values: &[i64], bound: &[bool]) -> Vec<(String, i64)> {
        self.bound_slots(bound)
            .map(|s| (self.names[s].clone(), values[s]))
            .collect()
    }
}

/// One process's state at a checkpoint, as the schedulers hold it:
/// interned slot rows, the clock stamp and the dense counter row.
#[derive(Debug, Clone, Copy)]
pub struct SlotState<'a> {
    /// Checkpoint sequence number.
    pub seq: u64,
    /// What triggered the checkpoint.
    pub trigger: CkptTrigger,
    /// Optional source label.
    pub label: Option<&'a str>,
    /// Program counter.
    pub pc: usize,
    /// Per-process event step counter.
    pub step: u64,
    /// Value row, one entry per slot.
    pub values: &'a [i64],
    /// Binding row, one entry per slot.
    pub bound: &'a [bool],
    /// Vector clock stamped on the checkpoint.
    pub vc: &'a VectorClock,
    /// Per-statement instance counters, indexed by statement id.
    pub stmt_instances: &'a [u64],
}

/// One process's reusable portable snapshot: the single path from
/// interned slots to what a [`StateBackend`] commits, shared by the
/// simulator and both runtime schedulers. Variable names are cloned
/// only when the process's binding row differs from the one they were
/// built for; otherwise a checkpoint overwrites values, clock entries
/// and counters in place.
#[derive(Debug, Clone)]
pub struct SlotSnapshot {
    names: SlotNames,
    snap: StateSnapshot,
    /// The binding row `snap.vars` names; empty until the first fill.
    bound: Vec<bool>,
}

impl SlotSnapshot {
    /// An empty snapshot for process `proc` of `nprocs`.
    pub fn new(names: SlotNames, proc: usize, nprocs: usize) -> SlotSnapshot {
        SlotSnapshot {
            names,
            snap: StateSnapshot {
                proc,
                seq: 0,
                trigger: CkptTrigger::AppStatement,
                label: None,
                pc: 0,
                step: 0,
                nprocs,
                vars: Vec::new(),
                vc: Vec::new(),
                stmt_instances: Vec::new(),
            },
            bound: Vec::new(),
        }
    }

    /// Overwrites the snapshot with `state` and returns it — equal to
    /// [`StateSnapshot::from_record`] of the record the same checkpoint
    /// produces.
    pub fn fill(&mut self, state: SlotState<'_>) -> &StateSnapshot {
        let snap = &mut self.snap;
        snap.seq = state.seq;
        snap.trigger = state.trigger;
        match (&mut snap.label, state.label) {
            (Some(have), Some(want)) => {
                have.clear();
                have.push_str(want);
            }
            (have, want) => *have = want.map(str::to_owned),
        }
        snap.pc = state.pc;
        snap.step = state.step;
        if self.bound == state.bound {
            let slots = self.names.bound_slots(state.bound);
            for ((_, v), s) in snap.vars.iter_mut().zip(slots) {
                *v = state.values[s];
            }
        } else {
            snap.vars = self.names.bound_pairs(state.values, state.bound);
            self.bound.clear();
            self.bound.extend_from_slice(state.bound);
        }
        snap.vc.clear();
        snap.vc.extend(state.vc.iter_nonzero());
        snap.stmt_instances.clear();
        snap.stmt_instances.extend(
            state
                .stmt_instances
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(i, &c)| (i as u32, c)),
        );
        snap
    }
}

/// Where checkpoint snapshots go to survive a crash, and where recovery
/// reads them back. One instance serves all processes of a run.
///
/// Commit visibility is all-or-nothing: after [`commit`] returns `Ok`,
/// [`load`] must return the exact snapshot; a crash *during* commit
/// must leave the previous committed set observable (no torn
/// snapshots). The kill/recover property tests drive exactly this
/// contract with crash injection.
///
/// [`commit`]: StateBackend::commit
/// [`load`]: StateBackend::load
pub trait StateBackend {
    /// Short stable identifier (`"mem"`, `"file"`, `"log"`) for reports
    /// and CLI selection.
    fn name(&self) -> &'static str;

    /// Durably commits one snapshot. Committing the same `(proc, seq)`
    /// twice replaces the payload (re-execution after rollback re-takes
    /// checkpoints under the same sequence numbers).
    fn commit(&mut self, snap: &StateSnapshot) -> Result<(), BackendError>;

    /// Loads a committed snapshot.
    fn load(&mut self, proc: usize, seq: u64) -> Result<StateSnapshot, BackendError>;

    /// The highest committed sequence number of `proc`, if any.
    fn latest(&mut self, proc: usize) -> Result<Option<u64>, BackendError> {
        Ok(self
            .committed()?
            .into_iter()
            .filter(|&(p, _)| p == proc)
            .map(|(_, s)| s)
            .max())
    }

    /// Every committed `(proc, seq)` pair, sorted.
    fn committed(&mut self) -> Result<Vec<(usize, u64)>, BackendError>;

    /// Discards committed snapshots of `proc` with sequence numbers
    /// strictly greater than `seq` (0 discards all). Called on rollback
    /// so the backend's committed set tracks the live checkpoint set.
    fn discard_after(&mut self, proc: usize, seq: u64) -> Result<(), BackendError>;
}

/// The all-in-memory store (`"mem"`): a plain map with no durability,
/// the fastest option and the reference the durable stores are
/// differential-tested against.
#[derive(Debug, Default)]
pub struct InMemoryBackend {
    committed: std::collections::BTreeMap<(usize, u64), StateSnapshot>,
}

impl InMemoryBackend {
    /// An empty backend.
    pub fn new() -> InMemoryBackend {
        InMemoryBackend::default()
    }
}

impl StateBackend for InMemoryBackend {
    fn name(&self) -> &'static str {
        "mem"
    }

    fn commit(&mut self, snap: &StateSnapshot) -> Result<(), BackendError> {
        self.committed.insert((snap.proc, snap.seq), snap.clone());
        Ok(())
    }

    fn load(&mut self, proc: usize, seq: u64) -> Result<StateSnapshot, BackendError> {
        self.committed
            .get(&(proc, seq))
            .cloned()
            .ok_or(BackendError::Missing { proc, seq })
    }

    fn committed(&mut self) -> Result<Vec<(usize, u64)>, BackendError> {
        Ok(self.committed.keys().copied().collect())
    }

    fn discard_after(&mut self, proc: usize, seq: u64) -> Result<(), BackendError> {
        self.committed.retain(|&(p, s), _| p != proc || s <= seq);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::{run, run_with_backend};
    use crate::failure::{CutPicker, FailurePlan};
    use crate::hooks::NoHooks;
    use crate::runlog::RunEvent;
    use crate::time::SimTime;
    use acfc_mpsl::programs;

    fn sample() -> StateSnapshot {
        StateSnapshot {
            proc: 3,
            seq: 7,
            trigger: CkptTrigger::Forced,
            label: Some("iter".into()),
            pc: 42,
            step: 99,
            nprocs: 8,
            vars: vec![("i".into(), -5), ("sum".into(), i64::MAX)],
            vc: vec![(0, 1), (3, 12), (7, u64::MAX)],
            stmt_instances: vec![(2, 9)],
        }
    }

    #[test]
    fn codec_round_trips() {
        for label in [None, Some(String::new()), Some("αβ∞".to_string())] {
            for trigger in [
                CkptTrigger::AppStatement,
                CkptTrigger::Timer,
                CkptTrigger::Forced,
                CkptTrigger::Coordinated,
            ] {
                let snap = StateSnapshot {
                    label: label.clone(),
                    trigger,
                    ..sample()
                };
                assert_eq!(StateSnapshot::decode(&snap.encode()), Ok(snap));
            }
        }
    }

    #[test]
    fn encode_into_appends_exactly_the_encoding() {
        let snap = sample();
        let mut buf = b"header".to_vec();
        snap.encode_into(&mut buf);
        snap.encode_into(&mut buf);
        let payload = snap.encode();
        assert_eq!(buf, [b"header", &payload[..], &payload[..]].concat());
    }

    #[test]
    fn peek_key_reads_the_head_and_nothing_else() {
        let bytes = sample().encode();
        assert_eq!(StateSnapshot::peek_key(&bytes), Ok((3, 7)));
        // The key needs the first 24 bytes and only those.
        assert_eq!(StateSnapshot::peek_key(&bytes[..24]), Ok((3, 7)));
        for n in 0..24 {
            assert!(StateSnapshot::peek_key(&bytes[..n]).is_err(), "prefix {n}");
        }
        let mut bad = bytes;
        bad[7] ^= 1;
        assert_eq!(
            StateSnapshot::peek_key(&bad),
            Err(BackendError::Corrupt("bad magic".into()))
        );
    }

    #[test]
    fn slot_snapshot_tracks_the_binding_row() {
        let names = SlotNames::new(["zeta", "b", "alpha", "m"].map(String::from).into());
        assert_eq!(*names.by_name, [2, 1, 3, 0]);
        let slots = ["alpha", "b", "m", "zeta", "a", "n", "zz"].map(|v| names.slot_of(v));
        assert_eq!(
            slots,
            [Some(2), Some(1), Some(3), Some(0), None, None, None]
        );
        let mut port = SlotSnapshot::new(names, 1, 3);
        let vc = VectorClock::from_entries(3, [(1, 4)]);
        let mut state = SlotState {
            seq: 1,
            trigger: CkptTrigger::AppStatement,
            label: Some("first"),
            pc: 5,
            step: 9,
            values: &[10, 20, 30, 40],
            bound: &[true, true, false, false],
            vc: &vc,
            stmt_instances: &[0, 2, 0],
        };
        let want = |vars: &[(&str, i64)], seq, label: Option<&str>| StateSnapshot {
            proc: 1,
            seq,
            trigger: CkptTrigger::AppStatement,
            label: label.map(str::to_owned),
            pc: 5,
            step: 9,
            nprocs: 3,
            vars: vars.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            vc: vec![(1, 4)],
            stmt_instances: vec![(1, 2)],
        };
        assert_eq!(
            *port.fill(state),
            want(&[("b", 20), ("zeta", 10)], 1, Some("first"))
        );
        // Same row, new values: overwritten in place.
        state.seq = 2;
        state.label = None;
        state.values = &[11, 21, 31, 41];
        assert_eq!(*port.fill(state), want(&[("b", 21), ("zeta", 11)], 2, None));
        // A slot binds between two checkpoints: names are rebuilt.
        state.seq = 3;
        state.bound = &[true, true, true, false];
        assert_eq!(
            *port.fill(state),
            want(&[("alpha", 31), ("b", 21), ("zeta", 11)], 3, None)
        );
        // And a restore can unbind one again.
        state.bound = &[true, false, true, false];
        assert_eq!(
            *port.fill(state),
            want(&[("alpha", 31), ("zeta", 11)], 3, None)
        );
    }

    #[test]
    fn decode_rejects_corruption() {
        let bytes = sample().encode();
        // Truncation at every prefix length fails (except the full
        // payload).
        for n in 0..bytes.len() {
            assert!(StateSnapshot::decode(&bytes[..n]).is_err(), "prefix {n}");
        }
        // Trailing garbage fails.
        let mut long = bytes.clone();
        long.push(0);
        assert!(StateSnapshot::decode(&long).is_err());
        // Bad magic fails.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert_eq!(
            StateSnapshot::decode(&bad),
            Err(BackendError::Corrupt("bad magic".into()))
        );
        // Bad trigger code fails.
        let mut bad = bytes;
        bad[24] = 9;
        assert!(StateSnapshot::decode(&bad).is_err());
    }

    #[test]
    fn record_round_trips_to_engine_snapshot() {
        let compiled = crate::bytecode::compile(&programs::jacobi(4));
        let trace = run(&compiled, &SimConfig::new(3));
        assert!(trace.completed());
        assert!(!trace.checkpoints.is_empty());
        for rec in &trace.checkpoints {
            let port = StateSnapshot::from_record(rec);
            let back = port.to_snapshot();
            assert_eq!(back, rec.snapshot, "proc {} seq {}", rec.proc, rec.seq);
            // And the codec preserves the portable form exactly.
            assert_eq!(StateSnapshot::decode(&port.encode()).unwrap(), port);
        }
    }

    #[test]
    fn sim_backend_mirrors_live_checkpoints() {
        let compiled = crate::bytecode::compile(&programs::jacobi(5));
        let mut hooks = NoHooks;
        let mut backend = InMemoryBackend::new();
        let (trace, log) = run_with_backend(
            &compiled,
            &SimConfig::new(4),
            &mut hooks,
            FailurePlan::none(),
            CutPicker::AlignedSeq,
            &mut backend,
        );
        assert!(trace.completed());
        // Failure-free, the log is the commits in trace order, then
        // (interleaved) one halt per process.
        let commits: Vec<(usize, u64)> = log
            .events
            .iter()
            .filter_map(|e| match e {
                RunEvent::Checkpoint { proc, seq, .. } => Some((*proc, *seq)),
                _ => None,
            })
            .collect();
        let recorded: Vec<(usize, u64)> =
            trace.checkpoints.iter().map(|c| (c.proc, c.seq)).collect();
        assert_eq!(commits, recorded);
        assert_eq!(log.events.len(), commits.len() + 4);
        assert_eq!(log.final_vars.len(), 4);
        let mut live: Vec<(usize, u64)> = trace
            .checkpoints
            .iter()
            .filter(|c| !c.rolled_back)
            .map(|c| (c.proc, c.seq))
            .collect();
        live.sort_unstable();
        assert_eq!(backend.committed().unwrap(), live);
        // Loaded payloads restore to the recorded snapshots.
        for c in trace.checkpoints.iter().filter(|c| !c.rolled_back) {
            let snap = backend.load(c.proc, c.seq).unwrap();
            assert_eq!(snap.to_snapshot(), c.snapshot);
        }
        assert_eq!(backend.latest(0).unwrap(), Some(5));
        assert!(matches!(
            backend.load(0, 999),
            Err(BackendError::Missing { proc: 0, seq: 999 })
        ));
    }

    #[test]
    fn rollback_discards_from_backend_too() {
        let compiled = crate::bytecode::compile(&programs::jacobi(6));
        let mut hooks = NoHooks;
        let mut backend = InMemoryBackend::new();
        let (trace, log) = run_with_backend(
            &compiled,
            &SimConfig::new(4),
            &mut hooks,
            FailurePlan::at(vec![(SimTime::from_micros(20_000), 1)]),
            CutPicker::AlignedSeq,
            &mut backend,
        );
        assert!(trace.completed());
        assert_eq!(trace.metrics.failures, 1);
        // The kill and its recovery are logged back to back, with the
        // cut the failure record names.
        let k = log
            .events
            .iter()
            .position(|e| matches!(e, RunEvent::Kill { proc: 1, .. }))
            .expect("kill logged");
        assert!(matches!(
            &log.events[k + 1],
            RunEvent::Recovery { killed: 1, restored, .. } if *restored == trace.failures[0].restored_seq
        ));
        // After the rollback and re-execution, the committed set equals
        // the final live checkpoint set (re-taken seqs overwrote, rolled
        // back ones were discarded).
        let mut live: Vec<(usize, u64)> = trace
            .checkpoints
            .iter()
            .filter(|c| !c.rolled_back)
            .map(|c| (c.proc, c.seq))
            .collect();
        live.sort_unstable();
        assert_eq!(backend.committed().unwrap(), live);
    }

    #[test]
    fn discard_after_zero_clears_a_process() {
        let mut b = InMemoryBackend::new();
        for seq in 1..=3 {
            b.commit(&StateSnapshot {
                seq,
                proc: 0,
                ..sample()
            })
            .unwrap();
        }
        b.commit(&StateSnapshot {
            proc: 1,
            seq: 1,
            ..sample()
        })
        .unwrap();
        b.discard_after(0, 1).unwrap();
        assert_eq!(b.committed().unwrap(), vec![(0, 1), (1, 1)]);
        b.discard_after(0, 0).unwrap();
        assert_eq!(b.committed().unwrap(), vec![(1, 1)]);
        assert_eq!(b.latest(0).unwrap(), None);
    }
}
