//! Informational, unbounded rows of the traced run: single structures
//! driven directly, the `acfc` binary spawned as a user would, the same
//! commit loop on the checkout's real disk, and the box itself.

use crate::backends::{Op, Store, TimedBackend};
use crate::gen;
use crate::harness::{bench_dir, median, quantile, timed, Ledger, Ops, Storage};
use acfc::runtime::{crc32, FileBackend, LogStructuredBackend};
use acfc::sim::{CalendarQueue, StateBackend, StateSnapshot, VectorClock};
use acfc::util::rng::Rng;
use std::hint::black_box;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Median seconds of `f` over `reps` calls after one warm-up.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    median((0..reps).map(|_| timed(&mut f).1).collect())
}

/// `bench.*`: the box. Every traced run reports these.
pub fn machine(ledger: &mut Ledger) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    ledger.set("bench.nproc", nproc as f64);
    let src = vec![0x5au8; 32 << 20];
    let mut dst = vec![0u8; 32 << 20];
    let secs = median_secs(5, || dst.copy_from_slice(black_box(&src)));
    black_box(&dst);
    ledger.set("bench.memcpy_gb_per_s", src.len() as f64 / 1e9 / secs);
}

/// `sim.equeue_ns_per_op`, `sim.clock_merge_*`: the two structures the
/// message-bound simulation spends its time in, driven directly.
pub fn sim_structures(seed: u64, ledger: &mut Ledger) {
    let mut rng = Rng::stream(seed, 6);
    // Hold model: a queue of 2048 pending events, each pop followed by
    // a push a seeded delay later — the engine's steady state.
    let delays: Vec<u64> = (0..1 << 16)
        .map(|_| 1 + rng.gen_u64_inclusive(400))
        .collect();
    let secs = median_secs(5, || {
        let mut queue = CalendarQueue::new();
        let mut seq = 0u64;
        for &d in &delays[..2048] {
            queue.push(d, seq, seq as u32);
            seq += 1;
        }
        for &d in &delays {
            let (t, _, item) = queue.pop().expect("hold model never drains");
            queue.push(t + d, seq, item);
            seq += 1;
        }
        black_box(queue.len());
    });
    ledger.set(
        "sim.equeue_ns_per_op",
        secs * 1e9 / (2.0 * delays.len() as f64),
    );

    let merge_ns = |n: usize, entries: usize, rng: &mut Rng| {
        // `entries` non-zero components at seeded, rising indices.
        let stride = n / entries;
        let clocks: Vec<VectorClock> = (0..256)
            .map(|_| {
                VectorClock::from_entries(
                    n,
                    (0..entries).map(|e| {
                        let index = e * stride + rng.gen_index(stride);
                        (index as u32, 1 + rng.gen_u64_inclusive(1000))
                    }),
                )
            })
            .collect();
        let secs = median_secs(5, || {
            let mut acc = VectorClock::new(n);
            for _ in 0..64 {
                for c in &clocks {
                    acc.merge(c);
                }
            }
            black_box(acc.get(0));
        });
        secs * 1e9 / (64.0 * clocks.len() as f64)
    };
    ledger.set("sim.clock_merge_dense_ns", merge_ns(8, 8, &mut rng));
    ledger.set("sim.clock_merge_sparse_ns", merge_ns(1024, 4, &mut rng));
}

/// `runtime.backends.crc32_mb_per_s`, `sim.snapshot_{encode,decode}_mb_per_s`:
/// the CPU stages of a commit and a load on a 1 MiB snapshot.
pub fn codec(seed: u64, ops: &mut Ops, ledger: &mut Ledger) {
    let mut rng = Rng::stream(seed, 7);
    let snap = gen::snapshot(0, 1, gen::vars_for_bytes(1 << 20), &mut rng);
    let payload = snap.encode();
    let mb = payload.len() as f64 / 1e6;
    let secs = median_secs(9, || {
        black_box(crc32(black_box(&payload)));
    });
    ledger.set("runtime.backends.crc32_mb_per_s", mb / secs);
    let secs = median_secs(9, || {
        black_box(snap.encode());
    });
    ledger.set("sim.snapshot_encode_mb_per_s", mb / secs);
    let secs = median_secs(9, || {
        black_box(StateSnapshot::decode(&payload).is_ok());
    });
    ledger.set("sim.snapshot_decode_mb_per_s", mb / secs);
    let round_trip = StateSnapshot::decode(&payload).is_ok_and(|back| back == snap);
    ops.check(round_trip, || "snapshot codec round trip".to_string());
}

/// 64 commits of `snap` at rising sequence numbers on a store of kind
/// `S` in `dir`: payload bytes and per-commit microseconds.
fn disk_commits<S: Store>(dir: &Path, snap: &mut StateSnapshot, ops: &mut Ops) -> (u64, Vec<f64>) {
    let Some(mut store) = ops.ok("open", TimedBackend::<S>::open(dir)) else {
        return (0, Vec::new());
    };
    for seq in 1..=64 {
        snap.seq = seq;
        ops.ok("commit", store.commit(snap));
    }
    let us = store.secs(Op::Commit).iter().map(|s| s * 1e6).collect();
    (store.bytes(Op::Commit), us)
}

/// `disk.*`: the 64 KiB commit loop and a bare write + `sync_all` on
/// the checkout's own filesystem. These are the sandbox's disk, not the
/// program: on this VM they move 2x between back-to-back runs.
pub fn disk(seed: u64, ops: &mut Ops, ledger: &mut Ledger) {
    let store = Storage::on_disk("disk-rows");
    let mut rng = Rng::stream(seed, 8);
    let mut snap = gen::snapshot(0, 0, gen::vars_for_bytes(64 << 10), &mut rng);
    let (file_bytes, file_us) = disk_commits::<FileBackend>(&store.fresh("file"), &mut snap, ops);
    let (log_bytes, log_us) =
        disk_commits::<LogStructuredBackend>(&store.fresh("log"), &mut snap, ops);
    let dir = store.fresh("fsync");
    let block = vec![0xa5u8; 64 << 10];
    let sync_us: Vec<f64> = (0..64)
        .filter_map(|i| {
            let (written, dt) = timed(|| {
                let mut f = std::fs::File::create(dir.join(format!("f{i}")))?;
                f.write_all(&block)?;
                f.sync_all()
            });
            ops.ok("write + sync_all", written).map(|()| dt * 1e6)
        })
        .collect();
    if file_us.is_empty() || log_us.is_empty() || sync_us.is_empty() {
        return;
    }
    ledger.set("disk.file_commit_p50_us", quantile(&file_us, 0.5));
    ledger.set("disk.log_commit_p50_us", quantile(&log_us, 0.5));
    ledger.set("disk.fsync_p50_us", quantile(&sync_us, 0.5));
    let secs = (file_us.iter().sum::<f64>() + log_us.iter().sum::<f64>()) / 1e6;
    ledger.set(
        "disk.commit_mb_per_s",
        (file_bytes + log_bytes) as f64 / 1e6 / secs,
    );
}

/// The `acfc` binary next to this executable, built by `cargo` into
/// the same target directory on first use.
pub fn acfc_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let profile_dir = exe.parent().ok_or("executable has no directory")?;
    let acfc = profile_dir.join("acfc");
    if acfc.exists() {
        return Ok(acfc);
    }
    let target_dir = profile_dir
        .parent()
        .ok_or("profile directory has no parent")?;
    let manifest = bench_dir()
        .parent()
        .ok_or("benchmark/ has no parent")?
        .join("Cargo.toml");
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "acfc",
        ])
        .arg("--manifest-path")
        .arg(&manifest)
        .arg("--target-dir")
        .arg(target_dir)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo build --bin acfc: {e}"))?;
    if status.success() && acfc.exists() {
        Ok(acfc)
    } else {
        Err(format!("cargo build --bin acfc: {status}"))
    }
}

/// Median wall milliseconds of 11 spawns of `acfc` with `args`, each
/// waited for; a non-zero exit is a failed operation.
fn spawn_ms(acfc: &Path, args: &[&str], ops: &mut Ops) -> f64 {
    let ms: Vec<f64> = (0..11)
        .filter_map(|_| {
            let (status, dt) = timed(|| {
                Command::new(acfc)
                    .args(args)
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .status()
            });
            let ok = ops.ok("spawn acfc", status).is_some_and(|s| s.success());
            ops.check(ok, || format!("acfc {} exited non-zero", args.join(" ")));
            ok.then_some(dt * 1e3)
        })
        .collect();
    if ms.is_empty() {
        0.0
    } else {
        median(ms)
    }
}

/// `cli.*`: the binary a user types, on files generated into the
/// benchmark's own directory.
pub fn cli(row: &'static str, seed: u64, store: &Storage, ops: &mut Ops, ledger: &mut Ledger) {
    let Some(acfc) = ops.ok("acfc binary", acfc_binary()) else {
        return;
    };
    let dir = Storage::on_disk("cli");
    let file = |name: &str, text: &str| {
        let path = dir.root.join(name);
        std::fs::write(&path, text).expect("write a generated program");
        path.to_string_lossy().into_owned()
    };
    let corpus = gen::analysis_corpus(seed);
    let ladder = corpus
        .iter()
        .find(|s| s.name == "ladder/16.0")
        .expect("corpus has the 16-block ladder");
    let ms = match row {
        "cli.analyze_ms" => {
            let path = file("ladder.mpsl", &ladder.text);
            spawn_ms(&acfc, &["analyze", &path, "--nprocs", "8"], ops)
        }
        "cli.run_real_ms" => {
            let path = file("big_state.mpsl", &gen::big_state(10, seed));
            let backend_dir = store.fresh("cli-run-real");
            let backend_dir = backend_dir.to_string_lossy();
            spawn_ms(
                &acfc,
                &[
                    "run",
                    &path,
                    "--real",
                    "--det",
                    "--backend",
                    "log",
                    "--backend-dir",
                    &backend_dir,
                ],
                ops,
            )
        }
        "cli.compare_sweep_ms" => {
            let path = file(
                "jacobi.mpsl",
                &acfc::mpsl::to_source(&acfc::mpsl::programs::jacobi(6)),
            );
            spawn_ms(
                &acfc,
                &[
                    "compare",
                    &path,
                    "--sweep",
                    "--ns",
                    "4,8",
                    "--seeds",
                    "2",
                    "--failure-rate",
                    "0.5",
                ],
                ops,
            )
        }
        other => panic!("unknown cli row {other}"),
    };
    ledger.set(row, ms);
}
