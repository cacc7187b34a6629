//! `kill_recover`, the read side of the runtime. `Restart`: cold
//! reopen of stores pre-filled in setup at three lengths — open
//! (replay), `committed`, `latest` per process, `load` of one full cut —
//! then a load sweep over everything committed. `DetKills`: `run_det`
//! of `big_state` under a seeded schedule of kills, every recovery
//! reading its cut back out of the store.

use crate::backends::{Call, Op, Sink, Store, TimedBackend};
use crate::gen;
use crate::harness::{dir_bytes, timed, trace_digest, Fnv, Ledger, Ops, Storage, Tracer, Units};
use crate::parts::ckpt_write::{timed_prepare, BigState, BIG_STATE_PROCS};
use crate::parts::{Ctx, Metrics, Part};
use acfc::runtime::{
    run_free, FailureInjector, FileBackend, FreeConfig, InMemoryBackend, LogStructuredBackend,
    RunEvent,
};
use acfc::sim::consistency::{cut_violations, resolve_cut};
use acfc::sim::{
    run_with_failures, CutPicker, FailurePlan, NoHooks, Outcome, SimConfig, SimTime, StateBackend,
    Trace,
};
use acfc::util::rng::Rng;
use std::path::PathBuf;
use std::time::Instant;

const PROCS: usize = 4;
/// Snapshots per pre-filled store: the three log lengths.
const LENGTHS: [u64; 3] = [16, 64, 256];
const SNAPSHOT_BYTES: usize = 16 << 10;

/// One pre-filled store as setup acknowledged it.
struct Filled {
    dir: PathBuf,
    /// `(proc, seq) -> digest of the encoded payload` of every commit.
    acked: Vec<((usize, u64), u64)>,
    payload_bytes: u64,
}

pub struct Restart {
    file: Vec<Filled>,
    log: Vec<Filled>,
    /// One unit per store: its restart seconds, and the payload MB
    /// and seconds of its load sweep.
    restarts: Units,
    sweeps: Units,
}

fn payload_digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.finish()
}

fn fill<S: Store>(seed: u64, store: &Storage, ops: &mut Ops) -> Vec<Filled> {
    let mut rng = Rng::stream(seed, 4);
    let vars = gen::vars_for_bytes(SNAPSHOT_BYTES);
    LENGTHS
        .iter()
        .map(|&len| {
            let dir = store.fresh(&format!("restart-{}-{len}", S::NAME));
            let mut filled = Filled {
                dir,
                acked: Vec::new(),
                payload_bytes: 0,
            };
            let Some(mut backend) = ops.ok("open", S::open(&filled.dir)) else {
                return filled;
            };
            for seq in 1..=len / PROCS as u64 {
                for proc in 0..PROCS {
                    let snap = gen::snapshot(proc, seq, vars, &mut rng);
                    if ops.ok("commit", backend.commit(&snap)).is_some() {
                        let payload = snap.encode();
                        filled.payload_bytes += payload.len() as u64;
                        filled.acked.push(((proc, seq), payload_digest(&payload)));
                    }
                }
            }
            filled.acked.sort_unstable();
            filled
        })
        .collect()
}

/// One repetition over all six stores: restart seconds, and payload
/// bytes and seconds of the load sweep, per store.
#[derive(Default)]
struct Rep {
    restart_s: Vec<f64>,
    sweeps: Vec<(u64, f64)>,
}

impl Restart {
    pub fn setup(seed: u64, store: &Storage, ops: &mut Ops) -> Restart {
        Restart {
            file: fill::<FileBackend>(seed, store, ops),
            log: fill::<LogStructuredBackend>(seed, store, ops),
            restarts: Units::default(),
            sweeps: Units::default(),
        }
    }

    /// Cold restart of one store, then the load sweep.
    fn restart<S: Store>(ctx: &mut Ctx, filled: &Filled, rep: &mut Rep, sink: Sink<S>) {
        let start = Instant::now();
        let Some(mut store) = ctx.ops.ok("open", TimedBackend::<S>::open(&filled.dir)) else {
            return;
        };
        let committed = ctx
            .ops
            .ok("committed", store.committed())
            .unwrap_or_default();
        let mut cut = Vec::with_capacity(PROCS);
        for proc in 0..PROCS {
            let latest = ctx.ops.ok("latest", store.latest(proc)).flatten();
            if let Some(snap) = latest.and_then(|seq| ctx.ops.ok("load", store.load(proc, seq))) {
                cut.push(snap);
            }
        }
        rep.restart_s.push(start.elapsed().as_secs_f64());

        let acked: Vec<(usize, u64)> = filled.acked.iter().map(|&(k, _)| k).collect();
        let last_seq = filled
            .acked
            .iter()
            .map(|&((_, seq), _)| seq)
            .max()
            .unwrap_or(0);
        ctx.ops.check(
            committed == acked && cut.len() == PROCS && cut.iter().all(|s| s.seq == last_seq),
            || {
                format!(
                    "{}: restart lost or invented a commit",
                    filled.dir.display()
                )
            },
        );
        for &((proc, seq), want) in &filled.acked {
            let same = ctx
                .ops
                .ok("load", store.load(proc, seq))
                .is_some_and(|got| payload_digest(&got.encode()) == want);
            ctx.ops.check(same, || {
                format!(
                    "{}: ({proc}, {seq}) did not load byte-identical",
                    filled.dir.display()
                )
            });
        }
        let sweep = &store.calls[store.calls.len() - filled.acked.len()..];
        rep.sweeps.push((
            sweep.iter().map(|c| c.bytes).sum(),
            sweep.iter().map(|c| c.secs).sum(),
        ));
        sink(store);
    }

    fn restart_all(&self, ctx: &mut Ctx) -> Rep {
        let mut rep = Rep::default();
        for filled in &self.file {
            Restart::restart::<FileBackend>(ctx, filled, &mut rep, &mut drop);
        }
        for filled in &self.log {
            Restart::restart::<LogStructuredBackend>(ctx, filled, &mut rep, &mut drop);
        }
        rep
    }
}

impl Part for Restart {
    /// Every repetition byte-compares every load with what setup
    /// acknowledged; the first is the warm-up.
    fn check(&mut self, ctx: &mut Ctx) {
        self.restart_all(ctx);
    }

    fn rep(&mut self, ctx: &mut Ctx) {
        let rep = self.restart_all(ctx);
        for (unit, &secs) in rep.restart_s.iter().enumerate() {
            self.restarts.record(unit, 1.0, secs);
        }
        for (unit, &(bytes, secs)) in rep.sweeps.iter().enumerate() {
            self.sweeps.record(unit, bytes as f64 / 1e6, secs);
        }
    }

    /// A restart's figure is each store's quickest repetition, averaged
    /// over the six stores, so the long logs count.
    fn metrics(&self) -> Metrics {
        Metrics::from([
            ("restart_p50_ms", 1e3 / self.restarts.rate()),
            ("load_mb_per_s", self.sweeps.rate()),
        ])
    }

    fn traced(&mut self, ctx: &mut Ctx, tracer: &mut Tracer, ledger: &mut Ledger) -> f64 {
        let start = Instant::now();
        let mut rep = Rep::default();
        tracer.span("kill_recover.restart", |tracer| {
            for filled in &self.file {
                Restart::restart::<FileBackend>(ctx, filled, &mut rep, &mut |s| {
                    s.into_ledger(tracer, ledger)
                });
                ledger.add(
                    "runtime.backends.file.disk_bytes",
                    dir_bytes(&filled.dir) as f64,
                );
            }
            for filled in &self.log {
                Restart::restart::<LogStructuredBackend>(ctx, filled, &mut rep, &mut |s| {
                    s.into_ledger(tracer, ledger)
                });
                ledger.add(
                    "runtime.backends.log.disk_bytes",
                    dir_bytes(&filled.dir) as f64,
                );
            }
        });
        start.elapsed().as_secs_f64()
    }
}

const KILL_ITERS: usize = 20;
const KILLS: usize = 8;

pub struct DetKills {
    big: BigState,
    plan: FailurePlan,
    final_vars: Vec<Vec<(String, i64)>>,
    seed: u64,
    /// One unit per store: instructions and seconds inside `run_det`.
    runs: Units,
}

/// Every cut a recovery restored must be a recovery line: resolved
/// against the final trace and checked by vector clocks.
fn restored_cuts_consistent(trace: &Trace) -> bool {
    trace.failures.iter().all(|f| {
        let Some(cut) = f.restored_seq.iter().copied().collect::<Option<Vec<u64>>>() else {
            return true; // a process restarted from its initial state
        };
        resolve_cut(trace, &cut).is_none_or(|records| cut_violations(&records).is_empty())
    })
}

impl DetKills {
    pub fn setup(seed: u64) -> DetKills {
        let big = BigState::new(KILL_ITERS, seed);
        let (clean, _) = big.run(&mut InMemoryBackend::new(), FailurePlan::none());
        // Kills spread over the middle of the failure-free makespan;
        // time and victim are seeded.
        let horizon = clean.trace.finished_at.as_micros();
        let mut rng = Rng::stream(seed, 5);
        let kills = (0..KILLS)
            .map(|k| {
                let slot = horizon * (k as u64 + 1) / (KILLS as u64 + 2);
                let at = slot + rng.gen_u64_inclusive(horizon / (2 * KILLS as u64 + 4));
                (SimTime::from_micros(at), rng.gen_index(BIG_STATE_PROCS))
            })
            .collect();
        DetKills {
            big,
            plan: FailurePlan::at(kills),
            final_vars: clean.final_vars,
            seed,
            runs: Units::default(),
        }
    }

    fn run_on<S: Store>(&self, ctx: &mut Ctx, with_digest: bool, sink: Sink<S>) -> (u64, f64) {
        let dir = ctx.store.fresh(&format!("det-kills-{}", S::NAME));
        let Some(mut store) = ctx.ops.ok("open", TimedBackend::<S>::open(&dir)) else {
            return (0, 0.0);
        };
        let (run, secs) = self.big.run(&mut store, self.plan.clone());
        ctx.ops.check(
            run.trace.completed()
                && run.trace.failures.len() == KILLS
                && run.final_vars == self.final_vars,
            || {
                format!(
                    "det_kills on {}: {:?} after {} failure(s), final state {} the uncrashed run's",
                    S::NAME,
                    run.trace.outcome,
                    run.trace.failures.len(),
                    if run.final_vars == self.final_vars {
                        "equals"
                    } else {
                        "differs from"
                    }
                )
            },
        );
        ctx.ops.check(restored_cuts_consistent(&run.trace), || {
            format!(
                "det_kills on {}: a restored cut is not a recovery line",
                S::NAME
            )
        });
        if with_digest {
            ctx.digest("kill_recover", "det_kills.trace", trace_digest(&run.trace));
        }
        sink(store);
        let _ = std::fs::remove_dir_all(&dir);
        (run.trace.metrics.instructions, secs)
    }

    /// Seconds of the same run on a store of kind `S` with no kills.
    fn clean_secs<S: Store>(&self, ctx: &mut Ctx) -> f64 {
        let dir = ctx.store.fresh(&format!("det-kills-clean-{}", S::NAME));
        let secs = ctx.ops.ok("open", S::open(&dir)).map_or(0.0, |mut store| {
            self.big.run(&mut store, FailurePlan::none()).1
        });
        let _ = std::fs::remove_dir_all(&dir);
        secs
    }

    fn run_both(&mut self, ctx: &mut Ctx, with_digest: bool) {
        let file = self.run_on::<FileBackend>(ctx, with_digest, &mut drop);
        let log = self.run_on::<LogStructuredBackend>(ctx, with_digest, &mut drop);
        if !with_digest {
            self.runs.record(0, file.0 as f64, file.1);
            self.runs.record(1, log.0 as f64, log.1);
        }
    }

    /// `run_free` on two OS threads (this box has two cores) with two
    /// kills, on the log backend.
    fn free_run(&self, ctx: &mut Ctx, tracer: &mut Tracer, ledger: &mut Ledger) {
        let config = SimConfig::new(2).with_seed(self.seed);
        let mut prep = self.big.prepare(2);
        let dir = ctx.store.fresh("free-log");
        let Some(mut store) = ctx
            .ops
            .ok("open", TimedBackend::<LogStructuredBackend>::open(&dir))
        else {
            return;
        };
        let horizon = self.plan.events().last().map_or(0, |(t, _)| t.as_micros());
        let injector = FailureInjector::at(vec![(horizon / 3, 0), (horizon * 2 / 3, 1)]);
        let (report, secs) = tracer.span("runtime.free.run_s", |_| {
            timed(|| {
                run_free(
                    &prep.compiled,
                    &config,
                    prep.coordinator.as_mut(),
                    &mut store,
                    &injector,
                    &FreeConfig::default(),
                )
            })
        });
        let kills = report
            .events
            .iter()
            .filter(|e| matches!(e, RunEvent::Kill { .. }))
            .count();
        ctx.ops
            .check(report.outcome == Outcome::Completed && kills == 2, || {
                format!("run_free: {:?} after {kills} kill(s)", report.outcome)
            });
        ledger.set("runtime.free.run_s", secs);
        ledger.set(
            "runtime.free.events_per_s",
            report.events.len() as f64 / secs,
        );
        ledger.set(
            "runtime.free.wall_per_vtime",
            secs / (report.vtime_us as f64 / 1e6),
        );
        // How many commits precede a kill depends on how the OS ran the
        // two threads, so this store's calls stay out of the ledger's
        // exact counts.
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

impl Part for DetKills {
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
        ledger.busy(tracer, from, &["runtime.coordinator.prepare_s"]);
        // Storage calls a failure-free run never makes are recovery's.
        // `run_det` restores from the trace it keeps in memory, so of
        // `committed`, `load` and `discard_after` only the last is ever
        // non-zero here; `run_free` below does load its cut back.
        let mut recovery = [0.0f64; 3];
        let mut durable = (0, 0.0);
        let mut tally = |calls: &[Call]| {
            for c in calls {
                match c.op {
                    Op::Committed => recovery[0] += c.secs,
                    Op::Load => recovery[1] += c.secs,
                    Op::Discard => recovery[2] += c.secs,
                    _ => {}
                }
            }
        };
        tracer.span("runtime.det.run_s", |tracer| {
            let file = self.run_on::<FileBackend>(ctx, true, &mut |s| {
                tally(&s.calls);
                s.into_ledger(tracer, ledger);
            });
            let log = self.run_on::<LogStructuredBackend>(ctx, true, &mut |s| {
                tally(&s.calls);
                s.into_ledger(tracer, ledger);
            });
            durable = (file.0 + log.0, file.1 + log.1);
        });
        ledger.set("runtime.det.run_s", durable.1);
        ledger.set("runtime.det.events_per_s", durable.0 as f64 / durable.1);
        ledger.set("runtime.recovery.count", 2.0 * KILLS as f64);
        ledger.set("runtime.recovery.committed_s", recovery[0]);
        ledger.set("runtime.recovery.load_s", recovery[1]);
        ledger.set("runtime.recovery.discard_s", recovery[2]);

        // The price of a kill: the same two runs without kills.
        let clean_secs =
            self.clean_secs::<FileBackend>(ctx) + self.clean_secs::<LogStructuredBackend>(ctx);
        ledger.set(
            "runtime.recovery.wall_per_kill_ms",
            (durable.1 - clean_secs) / (2.0 * KILLS as f64) * 1e3,
        );

        // The price of the mirror and the trait pair: `run_det` on the
        // in-memory store against `sim::run_with_failures`, same
        // program and plan.
        let (_, det_secs) = self.big.run(&mut InMemoryBackend::new(), self.plan.clone());
        let prep = self.big.prepare(BIG_STATE_PROCS);
        let (sim_trace, sim_secs) = timed(|| {
            run_with_failures(
                &prep.compiled,
                &self.big.config,
                &mut NoHooks,
                self.plan.clone(),
                CutPicker::AlignedSeq,
            )
        });
        ctx.ops.check(sim_trace.completed(), || {
            format!("sim::run_with_failures: {:?}", sim_trace.outcome)
        });
        ledger.set("runtime.det.vs_sim_ratio", det_secs / sim_secs);

        self.free_run(ctx, tracer, ledger);
        durable.1
    }
}
