//! Measurement plumbing shared by every part: per-unit sample
//! accumulators, order statistics, the in-memory span recorder, the
//! per-layer ledger, operation accounting, output digests and the
//! storage root.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The benchmark's own directory (`expected/`, `out/`).
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Seed whose outputs are pinned in `expected/`.
pub const DEFAULT_SEED: u64 = 1;

/// Times one call: `(result, seconds)`.
pub use acfc::util::bench::time_once as timed;

pub fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timing"));
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Fixed units of work (one program, one simulation, one store), each
/// timed once by every repetition that runs it. A unit's figure is its
/// quickest repetition — the time the work takes when nothing else
/// interferes. On this shared VM interference is one-sided and comes in
/// phases of a minute or more: across back-to-back runs the median
/// repetition of the message-bound simulation moved by 8 %, its
/// quickest by 3.6 %. A part's figure sums its units.
#[derive(Default)]
pub struct Units {
    work: Vec<f64>,
    secs: Vec<Vec<f64>>,
}

impl Units {
    /// Records that `unit`, which is `work` items of work, took `secs`.
    pub fn record(&mut self, unit: usize, work: f64, secs: f64) {
        if unit >= self.secs.len() {
            self.work.resize(unit + 1, 0.0);
            self.secs.resize(unit + 1, Vec::new());
        }
        self.work[unit] = work;
        self.secs[unit].push(secs);
    }

    /// Quickest seconds of every unit that has been run.
    pub fn best(&self) -> Vec<f64> {
        self.secs
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| s.iter().copied().fold(f64::INFINITY, f64::min))
            .collect()
    }

    /// Work per second: total work of the units run over the sum of
    /// their quickest seconds.
    pub fn rate(&self) -> f64 {
        let work: f64 = self
            .work
            .iter()
            .zip(&self.secs)
            .filter(|(_, s)| !s.is_empty())
            .map(|(w, _)| w)
            .sum();
        work / self.best().iter().sum::<f64>()
    }
}

/// `xs` sorted, and the nearest rank (from 1) of its `q`-quantile.
fn ranked(xs: &[f64], q: f64) -> (Vec<f64>, usize) {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite timing"));
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len());
    (v, rank)
}

/// The `q`-quantile by nearest rank.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let (v, rank) = ranked(xs, q);
    v[rank - 1]
}

/// The `q`-quantile of a small, gappy population (120 programs): the
/// mean of the order statistics within 5 % of the nearest rank on
/// either side. Neighbouring programs differ by up to 10 % around the
/// median, so the single nearest-rank value jumps by that much when two
/// of them swap places; the windowed one moves with the population.
pub fn windowed_quantile(xs: &[f64], q: f64) -> f64 {
    let (v, rank) = ranked(xs, q);
    let half = (v.len() / 20).max(1);
    let window = &v[rank.saturating_sub(half + 1)..(rank + half).min(v.len())];
    window.iter().sum::<f64>() / window.len() as f64
}

/// FNV-1a, 64 bit: the output fingerprint compared with `expected/`.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a trace's observable fields: outcome, end times, every
/// metric, message, checkpoint and failure — what `export::golden`
/// prints, minus the per-event vector clocks and snapshot variables,
/// whose text alone runs to hundreds of MB at `n = 1024`.
pub fn trace_digest(trace: &acfc::sim::Trace) -> u64 {
    let mut h = Fnv::new();
    let time = |t: Option<acfc::sim::SimTime>| t.map_or(u64::MAX, acfc::sim::SimTime::as_micros);
    h.str(&format!("{:?} {:?}", trace.outcome, trace.metrics));
    h.u64(trace.finished_at.as_micros());
    for t in &trace.proc_end {
        h.u64(t.as_micros());
    }
    for m in &trace.messages {
        for v in [
            m.id.0,
            m.from as u64,
            m.to as u64,
            m.size_bits,
            m.sent_at.as_micros(),
            m.send_step,
            m.piggyback,
            time(m.delivered_at),
            time(m.recv_at),
            m.recv_step.unwrap_or(u64::MAX),
            u64::from(m.rolled_back),
        ] {
            h.u64(v);
        }
    }
    for c in &trace.checkpoints {
        for v in [
            c.proc as u64,
            c.seq,
            c.instance,
            c.start.as_micros(),
            c.durable_at.as_micros(),
            c.step,
            c.snapshot.pc as u64,
            u64::from(c.rolled_back),
        ] {
            h.u64(v);
        }
    }
    for f in &trace.failures {
        h.str(&format!("{f:?}"));
    }
    h.finish()
}

pub fn fnv_of(s: &str) -> u64 {
    let mut h = Fnv::new();
    h.str(s);
    h.finish()
}

/// Operations attempted and failed, with the first few reasons. A
/// rejected program that should analyse, a run that is not
/// `Completed`, a storage `Err`, a digest or round-trip mismatch each
/// count as one failed operation.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Ops {
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    /// Counts an attempted operation and records `Err` as a failure.
    pub fn ok<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(why);
        }
    }
}

/// Output digests of one run, checked against `expected/<home>.digest`
/// for the default seed (rewritten only with `--bless`) and against a
/// second execution in the same run for every other seed.
pub struct Digests {
    seed: u64,
    bless: bool,
    seen: BTreeMap<String, (String, u64)>,
}

impl Digests {
    pub fn new(seed: u64, bless: bool) -> Digests {
        Digests {
            seed,
            bless,
            seen: BTreeMap::new(),
        }
    }

    /// Records digest `key` of the part whose home workload is `home`.
    /// A second record under the same key must agree with the first.
    pub fn record(&mut self, ops: &mut Ops, home: &str, key: &str, value: u64) {
        match self.seen.get(key) {
            Some(&(_, first)) => ops.check(first == value, || {
                format!("digest {key} differs between two executions: {first:016x} vs {value:016x}")
            }),
            None => {
                self.seen.insert(key.to_string(), (home.to_string(), value));
            }
        }
    }

    fn file(home: &str) -> PathBuf {
        bench_dir().join("expected").join(format!("{home}.digest"))
    }

    /// Compares (or, blessing, rewrites) the pinned digests of the
    /// default seed. Returns the digests as `key -> hex` for the report.
    pub fn settle(&self, ops: &mut Ops) -> BTreeMap<String, String> {
        let mut by_home: BTreeMap<&str, Vec<(&str, u64)>> = BTreeMap::new();
        for (key, (home, value)) in &self.seen {
            by_home.entry(home).or_default().push((key, *value));
        }
        if self.seed == DEFAULT_SEED {
            for (home, entries) in &by_home {
                let path = Digests::file(home);
                if self.bless {
                    let mut pinned = read_pins(&path);
                    for &(key, value) in entries {
                        pinned.insert(key.to_string(), format!("{value:016x}"));
                    }
                    let text: String = pinned.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
                    let written = std::fs::create_dir_all(path.parent().expect("expected/"))
                        .and_then(|()| std::fs::write(&path, text));
                    ops.ok(&format!("bless {}", path.display()), written);
                    continue;
                }
                let pinned = read_pins(&path);
                for &(key, value) in entries {
                    let got = format!("{value:016x}");
                    ops.check(pinned.get(key) == Some(&got), || {
                        format!(
                            "digest {key} is {got}, {} pins {:?} (rerun with --bless if the change is intended)",
                            path.display(),
                            pinned.get(key)
                        )
                    });
                }
            }
        }
        self.seen
            .iter()
            .map(|(k, (_, v))| (k.clone(), format!("{v:016x}")))
            .collect()
    }
}

fn read_pins(path: &Path) -> BTreeMap<String, String> {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.trim().to_string()))
        .collect()
}

/// One recorded span: a call into a layer's public function.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// In-memory span recorder, written out once at exit. Spans nest by
/// call order on the driving thread.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    /// Adds a finished span timed elsewhere (storage calls seen by
    /// `TimedBackend`), as a child of the currently open span.
    pub fn add(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
        });
    }

    /// Seconds busy in spans named `name`, from span index `from` on.
    pub fn busy_s(&self, name: &str, from: usize) -> f64 {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// The span file: one JSON object, spans in start order with their
    /// parent index and the workload as the shared identifier.
    pub fn render(&self, workload: &str) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                    s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!(
            "{{\"workload\":\"{workload}\",\"spans\":[\n{}\n]}}\n",
            rows.join(",\n")
        )
    }
}

/// Per-layer metric values by name; names missing at the end of a run
/// are printed as 0 (the workload did not exercise that layer).
#[derive(Default)]
pub struct Ledger(pub BTreeMap<&'static str, f64>);

impl Ledger {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    /// `name` = seconds busy in spans called `name` since span `from`.
    pub fn busy(&mut self, tracer: &Tracer, from: usize, names: &[&'static str]) {
        for &name in names {
            self.set(name, tracer.busy_s(name, from));
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Most bytes the benchmark keeps on storage at any instant; the
/// storage probe writes this much before the run starts.
const STORE_FOOTPRINT: usize = 48 << 20;

/// Root of every backend directory of one run, removed on drop.
///
/// Memory-backed (`/dev/shm`) when that is writable, because on this
/// VM's ext4 the same commit loop's median moved 2x between
/// back-to-back runs (fsync latency of the virtual disk), while on
/// tmpfs it repeats within 3%: tmpfs numbers measure the program, disk
/// numbers the sandbox. Falls back to `out/` inside the benchmark's
/// directory, reported as `storage=disk`.
pub struct Storage {
    pub root: PathBuf,
    pub kind: &'static str,
}

impl Storage {
    pub fn create() -> Storage {
        let shm = Path::new("/dev/shm").join(format!("acfc-benchmark-{}", std::process::id()));
        if Storage::usable(&shm) {
            return Storage {
                root: shm,
                kind: "tmpfs",
            };
        }
        let _ = std::fs::remove_dir_all(&shm);
        Storage::on_disk("store")
    }

    /// A root on the checkout's own filesystem: the fallback, and the
    /// home of the `disk.*` rows.
    pub fn on_disk(name: &str) -> Storage {
        let root = bench_dir()
            .join("out")
            .join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&root).expect("create the benchmark's out/ directory");
        Storage { root, kind: "disk" }
    }

    fn usable(dir: &Path) -> bool {
        let probe = dir.join("probe");
        let ok = std::fs::create_dir_all(dir).is_ok()
            && std::fs::write(&probe, vec![0u8; STORE_FOOTPRINT]).is_ok();
        let _ = std::fs::remove_file(&probe);
        ok
    }

    /// A fresh, empty directory under the root.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create a backend directory");
        dir
    }
}

impl Drop for Storage {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
