//! Durable [`StateBackend`] implementations for the live runtime.
//!
//! Three stores, one contract (commit visibility is all-or-nothing,
//! crash during commit leaves the previous committed set intact):
//!
//! * [`InMemoryBackend`] — a plain map, defined next to the trait in
//!   `acfc_sim::backend` and re-exported here; the fastest option and
//!   the reference the durable backends are differential-tested against.
//! * [`FileBackend`] — one file per checkpoint under
//!   `<dir>/p<rank>/`, written as tmp-file + CRC32 frame + atomic
//!   rename, so a torn write can never be observed under the committed
//!   name.
//! * [`LogStructuredBackend`] — a single append-only log of CRC-framed
//!   snapshot and tombstone records with offline compaction; a torn
//!   tail frame is detected and truncated on reopen.
//!
//! Both durable backends expose a one-shot [`CrashPoint`] injection so
//! the kill/recover property tests can crash a commit at its most
//! hostile instant and assert the contract holds.
//!
//! A durable commit is one pass: the snapshot is encoded behind a
//! reserved frame header in a buffer the backend reuses, checksummed
//! where it lies, and written with one `write_all` — no payload copy.
//! Performance: < 120 µs for a 96 KiB snapshot on tmpfs, `crc32`
//! ≥ 1 GB/s (DESIGN §9 has the per-stage table).

pub use acfc_sim::InMemoryBackend;
use acfc_sim::{BackendError, StateBackend, StateSnapshot};
use std::collections::BTreeMap;
use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};

/// Bytes [`crc32`] consumes per step.
const CRC_SLICES: usize = 16;

/// Slicing lookup tables for the reflected IEEE 802.3 polynomial:
/// `CRC_TABLES[0]` is the classic byte table, `CRC_TABLES[k][b]` the
/// CRC of byte `b` followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; CRC_SLICES] = {
    let mut t = [[0u32; 256]; CRC_SLICES];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < CRC_SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// One byte through the classic table: the tail of [`crc32`] and the
/// whole of the reference it is tested against.
fn crc32_step(c: u32, b: u8) -> u32 {
    CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8)
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes`, sixteen bytes per step
/// (slicing-by-16): each byte of a chunk is looked up in the table for
/// its distance from the chunk's end, so the sixteen lookups carry no
/// dependency on one another.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(CRC_SLICES);
    for w in &mut chunks {
        let head = (c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]])).to_le_bytes();
        c = 0;
        for j in 0..4 {
            c ^= CRC_TABLES[CRC_SLICES - 1 - j][head[j] as usize];
        }
        for j in 4..CRC_SLICES {
            c ^= CRC_TABLES[CRC_SLICES - 1 - j][w[j] as usize];
        }
    }
    for &b in chunks.remainder() {
        c = crc32_step(c, b);
    }
    c ^ 0xFFFF_FFFF
}

/// Where an injected crash fires during a durable commit. One-shot:
/// the injection trips once, fails the commit with
/// [`BackendError::Io`], and resets to [`CrashPoint::None`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrashPoint {
    /// No injection.
    #[default]
    None,
    /// Crash after writing roughly half the payload bytes (a torn
    /// write).
    MidWrite,
    /// Crash after the payload is fully written and synced but before
    /// it becomes visible under the committed name (before the rename,
    /// or before the log index accepts the frame).
    BeforeCommit,
}

/// Bytes of a frame before its payload: `len u64 | crc u32`.
const FRAME_HEADER: usize = 12;

/// Appends one frame to `buf` — payload length, CRC-32 of the payload,
/// then the payload, the layout both durable stores share. `payload`
/// writes straight behind the reserved header, which is patched once
/// the bytes are in place, so the payload is never copied.
fn frame_into(buf: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let at = buf.len();
    buf.extend_from_slice(&[0; FRAME_HEADER]);
    payload(buf);
    let (header, body) = buf[at..].split_at_mut(FRAME_HEADER);
    header[..8].copy_from_slice(&(body.len() as u64).to_le_bytes());
    header[8..].copy_from_slice(&crc32(body).to_le_bytes());
}

/// Parses one frame from `bytes`, returning the payload and the total
/// frame length consumed.
fn unframe(bytes: &[u8]) -> Result<(&[u8], usize), BackendError> {
    if bytes.len() < FRAME_HEADER {
        return Err(BackendError::Corrupt("short frame header".into()));
    }
    let len = u64::from_le_bytes(bytes[0..8].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let end = FRAME_HEADER
        .checked_add(len)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| BackendError::Corrupt("truncated frame".into()))?;
    let payload = &bytes[FRAME_HEADER..end];
    if crc32(payload) != crc {
        return Err(BackendError::Corrupt("frame checksum mismatch".into()));
    }
    Ok((payload, end))
}

/// One file per checkpoint (`"file"`): `<dir>/p<rank>/s<seq>.ckpt`,
/// committed by atomic rename of a CRC-framed tmp file.
#[derive(Debug)]
pub struct FileBackend {
    dir: PathBuf,
    crash: CrashPoint,
    tmp_counter: u64,
    /// The frame being written, reused from commit to commit.
    buf: Vec<u8>,
}

impl FileBackend {
    /// Opens (creating if needed) a backend rooted at `dir`. Any stale
    /// `*.tmp` files from a previous crash are removed — they were
    /// never committed.
    pub fn open(dir: impl Into<PathBuf>) -> Result<FileBackend, BackendError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        for proc_dir in std::fs::read_dir(&dir)? {
            let proc_dir = proc_dir?.path();
            if !proc_dir.is_dir() {
                continue;
            }
            for f in std::fs::read_dir(&proc_dir)? {
                let f = f?.path();
                if f.extension().is_some_and(|e| e == "tmp") {
                    std::fs::remove_file(&f)?;
                }
            }
        }
        Ok(FileBackend {
            dir,
            crash: CrashPoint::None,
            tmp_counter: 0,
            buf: Vec::new(),
        })
    }

    /// The backend's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Arms a one-shot crash injection for the next commit.
    pub fn set_crash(&mut self, at: CrashPoint) {
        self.crash = at;
    }

    fn path_of(&self, proc: usize, seq: u64) -> PathBuf {
        self.dir
            .join(format!("p{proc}"))
            .join(format!("s{seq:010}.ckpt"))
    }

    fn parse_entry(path: &Path) -> Option<u64> {
        let name = path.file_name()?.to_str()?;
        let seq = name.strip_prefix('s')?.strip_suffix(".ckpt")?;
        seq.parse().ok()
    }
}

impl StateBackend for FileBackend {
    fn name(&self) -> &'static str {
        "file"
    }

    fn commit(&mut self, snap: &StateSnapshot) -> Result<(), BackendError> {
        let crash = std::mem::take(&mut self.crash);
        let final_path = self.path_of(snap.proc, snap.seq);
        std::fs::create_dir_all(final_path.parent().expect("proc dir"))?;
        self.tmp_counter += 1;
        let tmp = final_path.with_extension(format!("{}.tmp", self.tmp_counter));
        self.buf.clear();
        frame_into(&mut self.buf, |b| snap.encode_into(b));
        let framed = &self.buf;
        let mut f = std::fs::File::create(&tmp)?;
        if crash == CrashPoint::MidWrite {
            f.write_all(&framed[..framed.len() / 2])?;
            f.sync_all()?;
            return Err(BackendError::Io("injected crash mid-write".into()));
        }
        f.write_all(framed)?;
        f.sync_all()?;
        if crash == CrashPoint::BeforeCommit {
            return Err(BackendError::Io("injected crash before rename".into()));
        }
        std::fs::rename(&tmp, &final_path)?;
        Ok(())
    }

    fn load(&mut self, proc: usize, seq: u64) -> Result<StateSnapshot, BackendError> {
        let path = self.path_of(proc, seq);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(BackendError::Missing { proc, seq })
            }
            Err(e) => return Err(e.into()),
        };
        let (payload, used) = unframe(&bytes)?;
        if used != bytes.len() {
            return Err(BackendError::Corrupt("trailing bytes in frame".into()));
        }
        let snap = StateSnapshot::decode(payload)?;
        if snap.proc != proc || snap.seq != seq {
            return Err(BackendError::Corrupt(format!(
                "payload identity ({}, {}) does not match path ({proc}, {seq})",
                snap.proc, snap.seq
            )));
        }
        Ok(snap)
    }

    fn committed(&mut self) -> Result<Vec<(usize, u64)>, BackendError> {
        let mut out = Vec::new();
        for proc_dir in std::fs::read_dir(&self.dir)? {
            let proc_dir = proc_dir?.path();
            let Some(proc) = proc_dir
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_prefix('p'))
                .and_then(|n| n.parse::<usize>().ok())
            else {
                continue;
            };
            for f in std::fs::read_dir(&proc_dir)? {
                let f = f?.path();
                if let Some(seq) = Self::parse_entry(&f) {
                    out.push((proc, seq));
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    fn discard_after(&mut self, proc: usize, seq: u64) -> Result<(), BackendError> {
        let entries = match std::fs::read_dir(self.dir.join(format!("p{proc}"))) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e.into()),
        };
        for f in entries {
            let f = f?.path();
            if Self::parse_entry(&f).is_some_and(|s| s > seq) {
                std::fs::remove_file(&f)?;
            }
        }
        Ok(())
    }
}

/// Record kinds in the log-structured store.
const REC_SNAPSHOT: u8 = 1;
const REC_TOMBSTONE: u8 = 2;

/// A single append-only log (`"log"`): CRC-framed snapshot and
/// tombstone records, with an in-memory index rebuilt by replay and
/// [`compact`](LogStructuredBackend::compact) rewriting the live set.
#[derive(Debug)]
pub struct LogStructuredBackend {
    path: PathBuf,
    file: std::fs::File,
    /// Committed set → byte offset and length of the frame holding the
    /// latest snapshot record.
    index: BTreeMap<(usize, u64), (u64, usize)>,
    /// Bytes of dead (superseded or tombstoned) frames — the
    /// compaction trigger metric.
    dead_bytes: u64,
    crash: CrashPoint,
    /// The frame being written or read, reused from call to call.
    buf: Vec<u8>,
}

fn open_log(path: &Path) -> std::io::Result<std::fs::File> {
    std::fs::OpenOptions::new()
        .create(true)
        .read(true)
        .append(true)
        .open(path)
}

impl LogStructuredBackend {
    /// Opens (creating if needed) the log at `path`, replaying it to
    /// rebuild the index. A torn tail frame — the signature of a crash
    /// mid-append — is truncated away; any earlier corruption is an
    /// error. Replay checks every frame's CRC and each snapshot's
    /// magic and key; the structure behind the key is validated by
    /// [`load`](StateBackend::load).
    pub fn open(path: impl Into<PathBuf>) -> Result<LogStructuredBackend, BackendError> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = open_log(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut log = LogStructuredBackend {
            path,
            file,
            index: BTreeMap::new(),
            dead_bytes: 0,
            crash: CrashPoint::None,
            buf: Vec::new(),
        };
        let mut at = 0usize;
        while at < bytes.len() {
            let (payload, used) = match unframe(&bytes[at..]) {
                Ok(x) => x,
                Err(_) if frame_end_hint(&bytes, at) > bytes.len() => {
                    // Torn tail: drop it and everything after.
                    let f = std::fs::OpenOptions::new().write(true).open(&log.path)?;
                    f.set_len(at as u64)?;
                    f.sync_all()?;
                    log.file = open_log(&log.path)?;
                    break;
                }
                Err(e) => return Err(e),
            };
            match payload.split_first() {
                Some((&REC_SNAPSHOT, body)) => {
                    log.index_frame(StateSnapshot::peek_key(body)?, at as u64, used);
                }
                Some((&REC_TOMBSTONE, body)) => {
                    if body.len() != 16 {
                        return Err(BackendError::Corrupt("bad tombstone length".into()));
                    }
                    let proc = u64::from_le_bytes(body[..8].try_into().unwrap()) as usize;
                    let seq = u64::from_le_bytes(body[8..].try_into().unwrap());
                    log.unindex_after(proc, seq);
                }
                _ => return Err(BackendError::Corrupt("unknown record kind".into())),
            }
            at += used;
        }
        Ok(log)
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Arms a one-shot crash injection for the next commit.
    pub fn set_crash(&mut self, at: CrashPoint) {
        self.crash = at;
    }

    /// Bytes occupied by superseded or tombstoned records.
    pub fn dead_bytes(&self) -> u64 {
        self.dead_bytes
    }

    /// Points the index at the snapshot frame of `len` bytes at
    /// `offset`; the frame it supersedes, if any, is dead. Commit and
    /// replay both account through here and
    /// [`unindex_after`](Self::unindex_after), so `dead_bytes` reads
    /// the same before a drop and after the reopen.
    fn index_frame(&mut self, key: (usize, u64), offset: u64, len: usize) {
        if let Some((_, old_len)) = self.index.insert(key, (offset, len)) {
            self.dead_bytes += old_len as u64;
        }
    }

    /// Drops `proc`'s snapshots after `seq` from the index; their
    /// frames are dead.
    fn unindex_after(&mut self, proc: usize, seq: u64) {
        let dead = &mut self.dead_bytes;
        self.index.retain(|&(p, s), &mut (_, len)| {
            let keep = p != proc || s <= seq;
            if !keep {
                *dead += len as u64;
            }
            keep
        });
    }

    /// Appends the frame in `buf` and syncs; returns its offset.
    fn append(&mut self, crash: CrashPoint) -> Result<u64, BackendError> {
        let framed = &self.buf;
        let offset = self.file.seek(std::io::SeekFrom::End(0))?;
        if crash == CrashPoint::MidWrite {
            self.file.write_all(&framed[..framed.len() / 2])?;
            self.file.sync_all()?;
            return Err(BackendError::Io("injected crash mid-append".into()));
        }
        self.file.write_all(framed)?;
        self.file.sync_all()?;
        Ok(offset)
    }

    /// Reads the indexed frame of `(proc, seq)` into `buf` and checks
    /// it: CRC, exact length, snapshot kind.
    fn read_frame(&mut self, proc: usize, seq: u64) -> Result<(), BackendError> {
        let &(offset, len) = self
            .index
            .get(&(proc, seq))
            .ok_or(BackendError::Missing { proc, seq })?;
        self.buf.resize(len, 0);
        self.file.seek(std::io::SeekFrom::Start(offset))?;
        self.file.read_exact(&mut self.buf)?;
        let (payload, used) = unframe(&self.buf)?;
        if used != len || payload.first() != Some(&REC_SNAPSHOT) {
            return Err(BackendError::Corrupt(format!(
                "no snapshot frame of {len} bytes at offset {offset}"
            )));
        }
        Ok(())
    }

    /// Rewrites the log keeping only the live snapshot set (newest
    /// record per committed `(proc, seq)`), via tmp file + atomic
    /// rename. Every live frame is CRC-checked and copied as it is.
    /// Resets [`dead_bytes`](LogStructuredBackend::dead_bytes) to zero.
    pub fn compact(&mut self) -> Result<(), BackendError> {
        let live: Vec<(usize, u64)> = self.index.keys().copied().collect();
        let tmp = self.path.with_extension("compact.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            for (proc, seq) in live {
                self.read_frame(proc, seq)?;
                f.write_all(&self.buf)?;
            }
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        // Reopen and rebuild the index against the fresh file.
        *self = LogStructuredBackend::open(std::mem::take(&mut self.path))?;
        Ok(())
    }
}

/// Best-effort end offset of the frame starting at `bytes[at]`, read
/// from a possibly-short header, for the torn-tail test in replay.
fn frame_end_hint(bytes: &[u8], at: usize) -> usize {
    let Some(len) = bytes.get(at..at + 8) else {
        return usize::MAX;
    };
    let len = u64::from_le_bytes(len.try_into().unwrap());
    usize::try_from(len)
        .ok()
        .and_then(|len| len.checked_add(at + FRAME_HEADER))
        .unwrap_or(usize::MAX)
}

impl StateBackend for LogStructuredBackend {
    fn name(&self) -> &'static str {
        "log"
    }

    fn commit(&mut self, snap: &StateSnapshot) -> Result<(), BackendError> {
        let crash = std::mem::take(&mut self.crash);
        self.buf.clear();
        frame_into(&mut self.buf, |b| {
            b.push(REC_SNAPSHOT);
            snap.encode_into(b);
        });
        let offset = self.append(crash)?;
        if crash == CrashPoint::BeforeCommit {
            // The frame is durable but the index never accepts it; on
            // reopen the replay *will* see it, which is fine — commit
            // is allowed to complete durably and only report failure.
            return Err(BackendError::Io("injected crash before index".into()));
        }
        self.index_frame((snap.proc, snap.seq), offset, self.buf.len());
        Ok(())
    }

    fn load(&mut self, proc: usize, seq: u64) -> Result<StateSnapshot, BackendError> {
        self.read_frame(proc, seq)?;
        StateSnapshot::decode(&self.buf[FRAME_HEADER + 1..])
    }

    fn committed(&mut self) -> Result<Vec<(usize, u64)>, BackendError> {
        Ok(self.index.keys().copied().collect())
    }

    fn discard_after(&mut self, proc: usize, seq: u64) -> Result<(), BackendError> {
        if !self.index.keys().any(|&(p, s)| p == proc && s > seq) {
            return Ok(());
        }
        self.buf.clear();
        frame_into(&mut self.buf, |b| {
            b.push(REC_TOMBSTONE);
            b.extend_from_slice(&(proc as u64).to_le_bytes());
            b.extend_from_slice(&seq.to_le_bytes());
        });
        self.append(CrashPoint::None)?;
        self.unindex_after(proc, seq);
        Ok(())
    }
}

/// Builds a backend by CLI name (`mem` | `file` | `log`). File-backed
/// stores live under `dir`.
pub fn backend_for(name: &str, dir: &Path) -> Result<Box<dyn StateBackend + Send>, BackendError> {
    match name {
        "mem" => Ok(Box::new(InMemoryBackend::new())),
        "file" => Ok(Box::new(FileBackend::open(dir)?)),
        "log" => Ok(Box::new(LogStructuredBackend::open(dir.join("log.acfc"))?)),
        other => Err(BackendError::Io(format!(
            "unknown backend `{other}` (expected mem, file, or log)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(proc: usize, seq: u64) -> StateSnapshot {
        StateSnapshot {
            proc,
            seq,
            trigger: acfc_sim::CkptTrigger::AppStatement,
            label: None,
            pc: seq as usize * 3,
            step: seq * 10,
            nprocs: 4,
            vars: vec![("x".into(), seq as i64)],
            vc: vec![(proc as u32, seq)],
            stmt_instances: vec![(1, seq)],
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("acfc-backend-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn exercise(b: &mut dyn StateBackend) {
        for p in 0..3 {
            for s in 1..=4 {
                b.commit(&snap(p, s)).unwrap();
            }
        }
        // Replace-on-recommit.
        b.commit(&snap(1, 2)).unwrap();
        assert_eq!(b.committed().unwrap().len(), 12);
        assert_eq!(b.latest(2).unwrap(), Some(4));
        assert_eq!(b.load(1, 2).unwrap(), snap(1, 2));
        assert!(matches!(
            b.load(0, 99),
            Err(BackendError::Missing { proc: 0, seq: 99 })
        ));
        b.discard_after(1, 2).unwrap();
        assert_eq!(b.latest(1).unwrap(), Some(2));
        assert_eq!(b.committed().unwrap().len(), 10);
    }

    /// The one-table-lookup-per-byte CRC-32 that [`crc32`] replaced.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        bytes.iter().fold(0xFFFF_FFFF, |c, &b| crc32_step(c, b)) ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn crc32_matches_the_bytewise_reference() {
        // Every length around the chunk width at every start alignment,
        // then seeded lengths up to 4096.
        let pool: Vec<u8> = (0..4096 + 8)
            .map(|i: u32| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        for align in 0..8 {
            for len in 0..=3 * CRC_SLICES {
                let bytes = &pool[align..align + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "{align}+{len}");
            }
        }
        acfc_util::forall("crc32_differential", 400, |g| {
            let align = g.usize_in(0, 8);
            let mut bytes = vec![0u8; align + g.usize_in(0, 4097)];
            for b in &mut bytes {
                *b = g.u64_in(0, 256) as u8;
            }
            let bytes = &bytes[align..];
            assert_eq!(
                crc32(bytes),
                crc32_bytewise(bytes),
                "{align}+{}",
                bytes.len()
            );
        });
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    /// The payload of [`pinned`] as the commit before the one-pass data
    /// path encoded it.
    const PINNED_PAYLOAD: &str = "\
        41434643534e5031020000000000000005000000000000000201040000000000\
        00006974657211000000000000007b0000000000000004000000000000000200\
        0000000000000300000000000000616363f9ffffffffffffff01000000000000\
        0069030000000000000002000000000000000000000000000000020000000000\
        0000020000000000000009000000000000000100000000000000010000000000\
        00000500000000000000";

    fn pinned() -> StateSnapshot {
        StateSnapshot {
            proc: 2,
            seq: 5,
            trigger: acfc_sim::CkptTrigger::Forced,
            label: Some("iter".into()),
            pc: 17,
            step: 123,
            nprocs: 4,
            vars: vec![("acc".into(), -7), ("i".into(), 3)],
            vc: vec![(0, 2), (2, 9)],
            stmt_instances: vec![(1, 5)],
        }
    }

    #[test]
    fn framed_bytes_match_the_pinned_format() {
        // Captured from the parent commit: `len u64 | crc u32 | payload`
        // for the file store, the same around `kind u8 | payload` for
        // the log.
        let d = tmpdir("format-pin");
        let mut file = FileBackend::open(d.join("file")).unwrap();
        file.commit(&pinned()).unwrap();
        assert_eq!(
            std::fs::read(d.join("file/p2/s0000000005.ckpt")).unwrap(),
            unhex(&format!("aa00000000000000e893e4c5{PINNED_PAYLOAD}"))
        );
        let mut log = LogStructuredBackend::open(d.join("log.acfc")).unwrap();
        log.commit(&pinned()).unwrap();
        assert_eq!(
            std::fs::read(d.join("log.acfc")).unwrap(),
            unhex(&format!("ab00000000000000e4bec68401{PINNED_PAYLOAD}"))
        );
        // Compaction copies the live frame as it is.
        log.compact().unwrap();
        assert_eq!(
            std::fs::read(d.join("log.acfc")).unwrap(),
            unhex(&format!("ab00000000000000e4bec68401{PINNED_PAYLOAD}"))
        );
        assert_eq!(log.load(2, 5).unwrap(), pinned());
        let _ = std::fs::remove_dir_all(&d);
    }

    /// A log the parent commit wrote: commits of (0,1) (0,2) (0,3)
    /// (1,1), a recommit of (0,2) with `x = 21`, the tombstone of
    /// `discard_after(0, 2)`, and the torn half of a crashed (1,2).
    const PARENT_LOG: &str = "\
        6c00000000000000305d4e8e0141434643534e50310000000000000000010000\
        0000000000000001000000000000000200000000000000020000000000000001\
        000000000000000100000000000000780a000000000000000100000000000000\
        0000000000000000010000000000000000000000000000006c00000000000000\
        4e37890c0141434643534e503100000000000000000200000000000000000002\
        0000000000000004000000000000000200000000000000010000000000000001\
        0000000000000078140000000000000001000000000000000000000000000000\
        020000000000000000000000000000006c000000000000005b131bc401414346\
        43534e5031000000000000000003000000000000000000030000000000000006\
        0000000000000002000000000000000100000000000000010000000000000078\
        1e00000000000000010000000000000000000000000000000300000000000000\
        00000000000000006c0000000000000092ab4a550141434643534e5031010000\
        0000000000010000000000000000000100000000000000020000000000000002\
        0000000000000001000000000000000100000000000000780b00000000000000\
        0100000000000000010000000000000001000000000000000000000000000000\
        6c0000000000000009a5cda30141434643534e50310000000000000000020000\
        0000000000000002000000000000000400000000000000020000000000000001\
        0000000000000001000000000000007815000000000000000100000000000000\
        0000000000000000020000000000000000000000000000001100000000000000\
        0766f65f02000000000000000002000000000000006c00000000000000aad15d\
        f60141434643534e503101000000000000000200000000000000000002000000\
        0000000004000000000000000200000000";

    #[test]
    fn parent_written_log_reopens_to_the_same_state() {
        let d = tmpdir("parent-log");
        let path = d.join("log.acfc");
        std::fs::write(&path, unhex(PARENT_LOG)).unwrap();
        let mut log = LogStructuredBackend::open(&path).unwrap();
        assert_eq!(log.committed().unwrap(), vec![(0, 1), (0, 2), (1, 1)]);
        // What the parent's live accounting read before the drop (its
        // own replay said 213): the superseded (0,2) and the
        // tombstoned (0,3), 120 bytes of frame each.
        assert_eq!(log.dead_bytes(), 240);
        assert_eq!(log.load(0, 2).unwrap().vars, vec![("x".to_string(), 21)]);
        assert_eq!(log.load(1, 1).unwrap().vars, vec![("x".to_string(), 11)]);
        // The torn tail is gone from the file, and the log appends on.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 5 * 120 + 29);
        log.commit(&snap(1, 2)).unwrap();
        drop(log);
        let mut log = LogStructuredBackend::open(&path).unwrap();
        assert_eq!(
            log.committed().unwrap(),
            vec![(0, 1), (0, 2), (1, 1), (1, 2)]
        );
        assert_eq!(log.load(1, 2).unwrap(), snap(1, 2));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn log_dead_bytes_survive_a_reopen() {
        let d = tmpdir("log-dead");
        let path = d.join("log.acfc");
        let mut log = LogStructuredBackend::open(&path).unwrap();
        for s in 1..=5 {
            log.commit(&snap(0, s)).unwrap();
            log.commit(&snap(1, s)).unwrap();
        }
        log.discard_after(0, 3).unwrap(); // tombstones (0,4) (0,5)
        let after_discard = log.dead_bytes();
        assert!(after_discard > 0);
        drop(log);
        let mut log = LogStructuredBackend::open(&path).unwrap();
        assert_eq!(log.dead_bytes(), after_discard);
        // Re-execution re-takes (0,4), then a superseding recommit.
        log.commit(&snap(0, 4)).unwrap();
        log.commit(&snap(1, 2)).unwrap();
        let after_recommit = log.dead_bytes();
        assert!(after_recommit > after_discard);
        drop(log);
        let log = LogStructuredBackend::open(&path).unwrap();
        assert_eq!(log.dead_bytes(), after_recommit);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn log_load_verifies_the_checksum() {
        let d = tmpdir("log-flip");
        let path = d.join("log.acfc");
        let mut log = LogStructuredBackend::open(&path).unwrap();
        for s in 1..=3 {
            log.commit(&snap(0, s)).unwrap();
        }
        // Flip one payload byte of the middle record behind the open
        // store's back.
        let frame = std::fs::metadata(&path).unwrap().len() as usize / 3;
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[frame + FRAME_HEADER + 40] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(log.load(0, 2), Err(BackendError::Corrupt(_))));
        assert_eq!(log.load(0, 1).unwrap(), snap(0, 1));
        assert_eq!(log.load(0, 3).unwrap(), snap(0, 3));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn file_discard_touches_only_its_own_process() {
        let d = tmpdir("file-discard");
        let mut b = FileBackend::open(&d).unwrap();
        for s in 1..=3 {
            b.commit(&snap(0, s)).unwrap();
            b.commit(&snap(1, s)).unwrap();
        }
        // A process that never committed has no directory to list.
        b.discard_after(7, 0).unwrap();
        b.discard_after(1, 1).unwrap();
        assert_eq!(b.committed().unwrap(), vec![(0, 1), (0, 2), (0, 3), (1, 1)]);
        b.discard_after(0, 0).unwrap();
        assert_eq!(b.committed().unwrap(), vec![(1, 1)]);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn all_backends_honour_the_contract() {
        exercise(&mut InMemoryBackend::new());
        let d = tmpdir("file-contract");
        exercise(&mut FileBackend::open(&d).unwrap());
        let _ = std::fs::remove_dir_all(&d);
        let d = tmpdir("log-contract");
        exercise(&mut LogStructuredBackend::open(d.join("log.acfc")).unwrap());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn file_backend_survives_reopen_and_crash_points() {
        let d = tmpdir("file-crash");
        let mut b = FileBackend::open(&d).unwrap();
        b.commit(&snap(0, 1)).unwrap();
        // Mid-write crash: tmp file torn, committed set untouched.
        b.set_crash(CrashPoint::MidWrite);
        assert!(b.commit(&snap(0, 2)).is_err());
        // Before-rename crash: payload durable but invisible.
        b.set_crash(CrashPoint::BeforeCommit);
        assert!(b.commit(&snap(0, 3)).is_err());
        let mut b = FileBackend::open(&d).unwrap();
        assert_eq!(b.committed().unwrap(), vec![(0, 1)]);
        assert_eq!(b.load(0, 1).unwrap(), snap(0, 1));
        // And the crashed commits can be retried.
        b.commit(&snap(0, 2)).unwrap();
        assert_eq!(b.committed().unwrap(), vec![(0, 1), (0, 2)]);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn log_backend_truncates_torn_tail_on_reopen() {
        let d = tmpdir("log-torn");
        let path = d.join("log.acfc");
        {
            let mut b = LogStructuredBackend::open(&path).unwrap();
            b.commit(&snap(0, 1)).unwrap();
            b.commit(&snap(1, 1)).unwrap();
            b.set_crash(CrashPoint::MidWrite);
            assert!(b.commit(&snap(0, 2)).is_err());
        }
        let mut b = LogStructuredBackend::open(&path).unwrap();
        assert_eq!(b.committed().unwrap(), vec![(0, 1), (1, 1)]);
        assert_eq!(b.load(0, 1).unwrap(), snap(0, 1));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn log_backend_compacts_to_live_set() {
        let d = tmpdir("log-compact");
        let path = d.join("log.acfc");
        let mut b = LogStructuredBackend::open(&path).unwrap();
        for s in 1..=5 {
            b.commit(&snap(0, s)).unwrap();
        }
        b.commit(&snap(0, 3)).unwrap(); // supersede
        b.discard_after(0, 3).unwrap(); // tombstone 4, 5
        assert!(b.dead_bytes() > 0);
        let before = std::fs::metadata(&path).unwrap().len();
        b.compact().unwrap();
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(after < before, "{after} >= {before}");
        assert_eq!(b.dead_bytes(), 0);
        assert_eq!(b.committed().unwrap(), vec![(0, 1), (0, 2), (0, 3)]);
        assert_eq!(b.load(0, 3).unwrap(), snap(0, 3));
        // Reopen agrees.
        drop(b);
        let mut b = LogStructuredBackend::open(&path).unwrap();
        assert_eq!(b.committed().unwrap(), vec![(0, 1), (0, 2), (0, 3)]);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn backend_for_selects_by_name() {
        let d = tmpdir("select");
        assert_eq!(backend_for("mem", &d).unwrap().name(), "mem");
        assert_eq!(backend_for("file", &d).unwrap().name(), "file");
        assert_eq!(backend_for("log", &d).unwrap().name(), "log");
        assert!(backend_for("zfs", &d).is_err());
        let _ = std::fs::remove_dir_all(&d);
    }
}
