//! `ckpt_write`, the write side of the runtime. `Commit`: the benchmark
//! is the client of `StateBackend`, committing synthetic snapshots of
//! four size classes with periodic rollbacks and (on the log) client
//! compaction. `DetClean`: a failure-free `run_det` of the generated
//! `big_state` program on the file and log backends.

use crate::backends::{encoded_len, NullBackend, Op, Sink, Store, TimedBackend};
use crate::gen;
use crate::harness::{dir_bytes, quantile, timed, trace_digest, Ledger, Tracer, Units};
use crate::parts::{Ctx, Metrics, Part};
use acfc::mpsl::{parse, Program};
use acfc::protocols::ProtocolKind;
use acfc::runtime::{
    coordinator_for, run_det, CrashPoint, DetRun, FileBackend, InMemoryBackend,
    LogStructuredBackend, PreparedRun,
};
use acfc::sim::{FailurePlan, SimConfig, StateBackend, StateSnapshot};
use acfc::util::rng::Rng;
use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

/// One snapshot size class: `rounds` rounds of one commit per process,
/// with a two-round rollback (discard + recommit) every fifth round.
struct Class {
    name: &'static str,
    bytes: usize,
    procs: usize,
    rounds: u64,
}

const CLASSES: [Class; 4] = [
    Class {
        name: "4k",
        bytes: 4 << 10,
        procs: 4,
        rounds: 30,
    },
    Class {
        name: "64k",
        bytes: 64 << 10,
        procs: 4,
        rounds: 30,
    },
    Class {
        name: "1m",
        bytes: 1 << 20,
        procs: 4,
        rounds: 1,
    },
    Class {
        name: "4m",
        bytes: 4 << 20,
        procs: 1,
        rounds: 1,
    },
];

/// The class whose commit latencies are the end-to-end percentiles.
const LATENCY_CLASS: &str = "64k";

pub struct Commit {
    /// Per class, one snapshot per process; `seq` is set per commit.
    snaps: Vec<Vec<StateSnapshot>>,
    /// One unit per (class, store): payload bytes committed and the
    /// seconds inside `commit`.
    commits: Units,
    /// Per timed repetition, the p50 and p95 commit latency of the
    /// latency class on the file and on the log store.
    file_p50_us: Vec<f64>,
    log_p50_us: Vec<f64>,
    log_p95_us: Vec<f64>,
    /// Exact counts, the same every repetition.
    disk_bytes: u64,
    live_bytes: u64,
}

/// What one class on one store produced.
#[derive(Default)]
struct ClassRun {
    commit_s: Vec<f64>,
    commit_bytes: u64,
    disk_bytes: u64,
    live_bytes: u64,
}

/// What one repetition (every class on file and log) produced.
#[derive(Default)]
struct Rep {
    /// Payload bytes and seconds inside `commit` per (class, store).
    commits: Vec<(u64, f64)>,
    file_latency_us: Vec<f64>,
    log_latency_us: Vec<f64>,
    disk_bytes: u64,
    live_bytes: u64,
}

impl Commit {
    pub fn setup(seed: u64) -> Commit {
        let mut rng = Rng::stream(seed, 3);
        // A few seeded extra variables per class: payload sizes, and so
        // bytes on storage per payload byte, differ slightly by seed.
        let snaps = CLASSES
            .iter()
            .map(|c| {
                let vars = gen::vars_for_bytes(c.bytes) + rng.gen_index(16);
                (0..c.procs)
                    .map(|p| gen::snapshot(p, 0, vars, &mut rng))
                    .collect()
            })
            .collect();
        Commit {
            snaps,
            commits: Units::default(),
            file_p50_us: Vec::new(),
            log_p50_us: Vec::new(),
            log_p95_us: Vec::new(),
            disk_bytes: 0,
            live_bytes: 0,
        }
    }

    fn commit_round<S: Store>(
        ctx: &mut Ctx,
        store: &mut TimedBackend<S>,
        snaps: &mut [StateSnapshot],
        round: u64,
    ) {
        for snap in snaps {
            snap.seq = round;
            ctx.ops.ok("commit", store.commit(snap));
            ctx.ops.ok("compact", store.maintain());
        }
    }

    /// Runs one class on a fresh store of kind `S`; with `verify`,
    /// also reopens the store and checks every acknowledged commit and
    /// both crash points.
    fn class_run<S: Store>(
        &mut self,
        ctx: &mut Ctx,
        class: usize,
        verify: bool,
        sink: Sink<S>,
    ) -> ClassRun {
        let c = &CLASSES[class];
        let snaps = &mut self.snaps[class];
        let dir = ctx.store.fresh(&format!("commit-{}-{}", S::NAME, c.name));
        let Some(mut store) = ctx.ops.ok("open", TimedBackend::<S>::open(&dir)) else {
            return ClassRun::default();
        };
        for round in 1..=c.rounds {
            Commit::commit_round(ctx, &mut store, snaps, round);
            if round % 5 == 0 {
                for p in 0..c.procs {
                    ctx.ops
                        .ok("discard_after", store.discard_after(p, round - 2));
                    ctx.ops.ok("compact", store.maintain());
                }
                for again in round - 1..=round {
                    Commit::commit_round(ctx, &mut store, snaps, again);
                }
            }
        }
        let live: BTreeSet<(usize, u64)> = (0..c.procs)
            .flat_map(|p| (1..=c.rounds).map(move |s| (p, s)))
            .collect();
        let run = ClassRun {
            commit_s: store.secs(Op::Commit),
            commit_bytes: store.bytes(Op::Commit),
            disk_bytes: dir_bytes(&dir),
            live_bytes: snaps.iter().map(|s| encoded_len(s) * c.rounds).sum(),
        };
        if verify {
            Commit::verify(ctx, &dir, store, snaps, c, &live, sink);
        } else {
            sink(store);
        }
        let _ = std::fs::remove_dir_all(&dir);
        run
    }

    /// Durability checks on a store that just finished its churn. A
    /// commit crashed mid-write or before it becomes visible must fail
    /// and leave the committed set as it was; after the restart that
    /// follows a crash the set is all or nothing (a frame that was
    /// already durable may surface), never torn; and every acknowledged
    /// commit loads byte-identical from the reopened store.
    fn verify<S: Store>(
        ctx: &mut Ctx,
        dir: &Path,
        mut store: TimedBackend<S>,
        snaps: &mut [StateSnapshot],
        c: &Class,
        live: &BTreeSet<(usize, u64)>,
        sink: Sink<S>,
    ) {
        let set = |r: Result<Vec<(usize, u64)>, _>| r.map(BTreeSet::from_iter);
        let extra = (0, c.rounds + 1);
        // The in-memory store has neither crash points nor a reopen.
        let crash_points: &[CrashPoint] = if S::NAME == "mem" {
            &[]
        } else {
            &[CrashPoint::MidWrite, CrashPoint::BeforeCommit]
        };
        for &at in crash_points {
            snaps[0].seq = extra.1;
            store.inner.set_crash(at);
            let refused = store.commit(&snaps[0]).is_err();
            let unchanged = set(store.committed()).is_ok_and(|s| s == *live);
            ctx.ops.check(refused && unchanged, || {
                format!(
                    "{} {}: crash at {at:?} changed the committed set",
                    S::NAME,
                    c.name
                )
            });
            sink(store);
            let Some(reopened) = ctx.ops.ok("reopen", TimedBackend::<S>::open(dir)) else {
                return;
            };
            store = reopened;
            let after = set(store.committed()).unwrap_or_default();
            let all_or_nothing =
                after.is_superset(live) && after.iter().all(|k| live.contains(k) || *k == extra);
            ctx.ops.check(all_or_nothing, || {
                format!(
                    "{} {}: committed set torn after crash at {at:?}",
                    S::NAME,
                    c.name
                )
            });
            if after.contains(&extra) {
                ctx.ops
                    .ok("discard_after", store.discard_after(extra.0, c.rounds));
            }
        }
        for &(proc, seq) in live {
            let want = &mut snaps[proc];
            want.seq = seq;
            let payload = want.encode();
            let same = ctx
                .ops
                .ok("load", store.load(proc, seq))
                .is_some_and(|got| got.encode() == payload);
            ctx.ops.check(same, || {
                format!(
                    "{} {}: ({proc}, {seq}) did not load byte-identical",
                    S::NAME,
                    c.name
                )
            });
            ctx.ops
                .check(encoded_len(want) == payload.len() as u64, || {
                    "encoded_len disagrees with StateSnapshot::encode".to_string()
                });
        }
        sink(store);
    }

    fn run_classes(&mut self, ctx: &mut Ctx, verify: bool) -> Rep {
        let mut rep = Rep::default();
        for (class, c) in CLASSES.iter().enumerate() {
            let file = self.class_run::<FileBackend>(ctx, class, verify, &mut drop);
            let log = self.class_run::<LogStructuredBackend>(ctx, class, verify, &mut drop);
            if c.name == LATENCY_CLASS {
                rep.file_latency_us = file.commit_s.iter().map(|s| s * 1e6).collect();
                rep.log_latency_us = log.commit_s.iter().map(|s| s * 1e6).collect();
            }
            for run in [file, log] {
                rep.commits
                    .push((run.commit_bytes, run.commit_s.iter().sum()));
                rep.disk_bytes += run.disk_bytes;
                rep.live_bytes += run.live_bytes;
            }
        }
        rep
    }
}

impl Part for Commit {
    fn check(&mut self, ctx: &mut Ctx) {
        self.run_classes(ctx, true);
    }

    fn rep(&mut self, ctx: &mut Ctx) {
        let rep = self.run_classes(ctx, false);
        for (unit, &(bytes, secs)) in rep.commits.iter().enumerate() {
            self.commits.record(unit, bytes as f64 / 1e6, secs);
        }
        self.file_p50_us.push(quantile(&rep.file_latency_us, 0.5));
        self.log_p50_us.push(quantile(&rep.log_latency_us, 0.5));
        self.log_p95_us.push(quantile(&rep.log_latency_us, 0.95));
        self.disk_bytes = rep.disk_bytes;
        self.live_bytes = rep.live_bytes;
    }

    /// Latency percentiles are taken per repetition (168 commits each)
    /// and, like every other figure, the quickest repetition's is
    /// reported: a disturbed repetition pours its slow commits into
    /// the tail, and the p95 of a filler's six repetitions moved by
    /// 21 % across ten seeds while their median was reported.
    fn metrics(&self) -> Metrics {
        let best = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
        Metrics::from([
            ("commit_mb_per_s", self.commits.rate()),
            ("file_commit_p50_us", best(&self.file_p50_us)),
            ("log_commit_p50_us", best(&self.log_p50_us)),
            ("log_commit_p95_us", best(&self.log_p95_us)),
            (
                "disk_bytes_per_payload_byte",
                self.disk_bytes as f64 / self.live_bytes as f64,
            ),
        ])
    }

    fn traced(&mut self, ctx: &mut Ctx, tracer: &mut Tracer, ledger: &mut Ledger) -> f64 {
        let start = Instant::now();
        tracer.span("ckpt_write.commit", |tracer| {
            for class in 0..CLASSES.len() {
                self.class_run::<InMemoryBackend>(ctx, class, true, &mut |s| {
                    s.into_ledger(tracer, ledger)
                });
                let file = self.class_run::<FileBackend>(ctx, class, true, &mut |s| {
                    s.into_ledger(tracer, ledger)
                });
                ledger.add("runtime.backends.file.disk_bytes", file.disk_bytes as f64);
                let log = self.class_run::<LogStructuredBackend>(ctx, class, true, &mut |s| {
                    s.into_ledger(tracer, ledger)
                });
                ledger.add("runtime.backends.log.disk_bytes", log.disk_bytes as f64);
            }
        });
        start.elapsed().as_secs_f64()
    }
}

/// The `big_state` program, ready to run on the deterministic
/// scheduler at `n = 4`.
pub struct BigState {
    pub program: Program,
    pub config: SimConfig,
}

pub const BIG_STATE_PROCS: usize = 4;

impl BigState {
    pub fn new(iters: usize, seed: u64) -> BigState {
        let program = parse(&gen::big_state(iters, seed)).expect("generated big_state parses");
        BigState {
            program,
            config: SimConfig::new(BIG_STATE_PROCS).with_seed(seed),
        }
    }

    /// The application-driven coordinator for `nprocs` workers and the
    /// program it runs; a coordinator is stateful, so every run
    /// prepares its own.
    pub fn prepare(&self, nprocs: usize) -> PreparedRun {
        coordinator_for(
            ProtocolKind::AppDriven,
            &self.program,
            nprocs,
            60_000,
            20_000,
            Default::default(),
        )
        .expect("big_state analyses")
    }

    /// `run_det` on `backend` under `plan`; returns the run and the
    /// seconds inside `run_det`.
    pub fn run(&self, backend: &mut dyn StateBackend, plan: FailurePlan) -> (DetRun, f64) {
        let mut prep = self.prepare(BIG_STATE_PROCS);
        timed(|| {
            run_det(
                &prep.compiled,
                &self.config,
                prep.coordinator.as_mut(),
                backend,
                plan,
            )
        })
    }
}

pub struct DetClean {
    big: BigState,
    final_vars: Vec<Vec<(String, i64)>>,
    /// One unit per store: instructions and seconds inside `run_det`.
    runs: Units,
}

const CLEAN_ITERS: usize = 20;

impl DetClean {
    pub fn setup(seed: u64) -> DetClean {
        let big = BigState::new(CLEAN_ITERS, seed);
        let (reference, _) = big.run(&mut InMemoryBackend::new(), FailurePlan::none());
        DetClean {
            big,
            final_vars: reference.final_vars,
            runs: Units::default(),
        }
    }

    fn run_on<S: Store>(&self, ctx: &mut Ctx, with_digest: bool, sink: Sink<S>) -> (u64, f64) {
        let dir = ctx.store.fresh(&format!("det-clean-{}", S::NAME));
        let Some(mut store) = ctx.ops.ok("open", TimedBackend::<S>::open(&dir)) else {
            return (0, 0.0);
        };
        let (run, secs) = self.big.run(&mut store, FailurePlan::none());
        let commits = store.count(Op::Commit);
        ctx.ops.check(
            run.trace.completed()
                && run.final_vars == self.final_vars
                && commits == CLEAN_ITERS * BIG_STATE_PROCS,
            || {
                format!(
                    "det_clean on {}: {:?}, {commits} commit(s)",
                    S::NAME,
                    run.trace.outcome
                )
            },
        );
        if with_digest {
            ctx.digest("ckpt_write", "det_clean.trace", trace_digest(&run.trace));
        }
        sink(store);
        let _ = std::fs::remove_dir_all(&dir);
        (run.trace.metrics.instructions, secs)
    }

    fn run_both(&mut self, ctx: &mut Ctx, with_digest: bool) {
        let file = self.run_on::<FileBackend>(ctx, with_digest, &mut drop);
        let log = self.run_on::<LogStructuredBackend>(ctx, with_digest, &mut drop);
        if !with_digest {
            self.runs.record(0, file.0 as f64, file.1);
            self.runs.record(1, log.0 as f64, log.1);
        }
    }
}

impl Part for DetClean {
    fn check(&mut self, ctx: &mut Ctx) {
        self.run_both(ctx, true);
    }

    fn rep(&mut self, ctx: &mut Ctx) {
        self.run_both(ctx, false);
    }

    fn metrics(&self) -> Metrics {
        Metrics::from([("runtime_events_per_s", self.runs.rate())])
    }

    fn traced(&mut self, ctx: &mut Ctx, tracer: &mut Tracer, ledger: &mut Ledger) -> f64 {
        let from = tracer.spans.len();
        timed_prepare(tracer, &self.big);
        let mut durable = (0, 0.0);
        tracer.span("runtime.det.run_s", |tracer| {
            let file =
                self.run_on::<FileBackend>(ctx, true, &mut |s| s.into_ledger(tracer, ledger));
            let log = self
                .run_on::<LogStructuredBackend>(ctx, true, &mut |s| s.into_ledger(tracer, ledger));
            durable = (file.0 + log.0, file.1 + log.1);
        });
        // The same run with its checkpoint I/O removed: the paper's
        // overhead ratio r = durable / bare - 1, measured.
        let (bare, bare_secs) = self.big.run(&mut NullBackend, FailurePlan::none());
        ctx.ops.check(bare.trace.completed(), || {
            format!("det_clean on null: {:?}", bare.trace.outcome)
        });
        ledger.busy(tracer, from, &["runtime.coordinator.prepare_s"]);
        ledger.set("runtime.det.run_s", durable.1);
        ledger.set("runtime.det.events_per_s", durable.0 as f64 / durable.1);
        ledger.set(
            "runtime.ckpt_overhead_ratio",
            durable.1 / (2.0 * bare_secs) - 1.0,
        );
        durable.1
    }
}

/// Times one coordinator preparation (analysis + compile of the
/// program the workers run).
pub fn timed_prepare(tracer: &mut Tracer, big: &BigState) {
    let prep = tracer.span("runtime.coordinator.prepare_s", |_| {
        big.prepare(BIG_STATE_PROCS)
    });
    std::hint::black_box(prep.compiled.len());
}
