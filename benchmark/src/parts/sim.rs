//! `sim_msg_bound` and `sim_compute_bound`: `sim::run` on compiled
//! programs at large `n`, no hooks, automatic (delta) clocks.

use crate::harness::{timed, trace_digest, Ledger, Tracer, Units};
use crate::parts::{Ctx, Metrics, Part};
use acfc::mpsl::programs;
use acfc::sim::{compile, run, run_observed, Compiled, SimConfig, SimObs};
use acfc::util::rng::mix64;

/// Jitter seeds derived from `--seed` that a simulation part cycles
/// through, one per repetition, one unit each. The delivery order a
/// jitter seed produces moves a message-bound simulation by ±6 %, so
/// the metric should not hang on one draw; with more than two, a
/// filler's units would get too few samples each.
pub const SEED_CYCLE: u64 = 2;

struct Job {
    name: &'static str,
    compiled: Compiled,
    nprocs: usize,
}

pub struct Sim {
    home: &'static str,
    seed: u64,
    jobs: Vec<Job>,
    turn: u64,
    /// One unit per (job, jitter seed): instructions and seconds
    /// inside `sim::run`.
    runs: Units,
}

fn job(name: &'static str, program: &acfc::mpsl::Program, nprocs: usize) -> Job {
    Job {
        name,
        compiled: compile(program),
        nprocs,
    }
}

impl Sim {
    fn new(home: &'static str, seed: u64, jobs: Vec<Job>) -> Sim {
        Sim {
            home,
            seed,
            jobs,
            turn: 0,
            runs: Units::default(),
        }
    }

    pub fn msg_bound(seed: u64) -> Sim {
        Sim::new(
            "sim_msg_bound",
            seed,
            vec![
                job("jacobi_n1024", &programs::jacobi(16), 1024),
                job("stencil_n2048", &programs::stencil_1d(10), 2048),
            ],
        )
    }

    pub fn compute_bound(seed: u64) -> Sim {
        Sim::new(
            "sim_compute_bound",
            seed,
            vec![job(
                "jacobi_cells_n1024",
                &programs::jacobi_cells(10, 400),
                1024,
            )],
        )
    }

    fn config(&self, job: &Job, turn: u64) -> SimConfig {
        SimConfig::new(job.nprocs).with_seed(mix64(self.seed ^ (turn % SEED_CYCLE)))
    }
}

impl Part for Sim {
    fn check(&mut self, ctx: &mut Ctx) {
        for job in &self.jobs {
            let trace = run(&job.compiled, &self.config(job, 0));
            ctx.ops.check(trace.completed(), || {
                format!("{}: {:?}", job.name, trace.outcome)
            });
            let key = format!("sim.{}.trace", job.name);
            ctx.digest(self.home, &key, trace_digest(&trace));
        }
    }

    fn rep(&mut self, ctx: &mut Ctx) {
        let slot = (self.turn % SEED_CYCLE) as usize;
        for (j, job) in self.jobs.iter().enumerate() {
            let config = self.config(job, self.turn);
            let (trace, secs) = timed(|| run(&job.compiled, &config));
            ctx.ops.check(trace.completed(), || {
                format!("{}: {:?}", job.name, trace.outcome)
            });
            let unit = j * SEED_CYCLE as usize + slot;
            self.runs
                .record(unit, trace.metrics.instructions as f64, secs);
        }
        self.turn += 1;
    }

    fn metrics(&self) -> Metrics {
        Metrics::from([("sim_events_per_s", self.runs.rate())])
    }

    fn traced(&mut self, ctx: &mut Ctx, tracer: &mut Tracer, ledger: &mut Ledger) -> f64 {
        let from = tracer.spans.len();
        let mut depth_p50 = 0;
        for job in &self.jobs {
            let mut obs = SimObs::counters();
            let config = self.config(job, 0);
            let trace = tracer.span("sim.run_s", |_| {
                run_observed(&job.compiled, &config, &mut obs)
            });
            ctx.ops.check(trace.completed(), || {
                format!("{}: {:?}", job.name, trace.outcome)
            });
            let m = &trace.metrics;
            ledger.add("sim.instructions", m.instructions as f64);
            ledger.add("sim.app_messages", m.app_messages as f64);
            ledger.add("sim.checkpoints", trace.checkpoints.len() as f64);
            ledger.add("sim.run_ahead_events", obs.run_ahead_hits as f64);
            ledger.add("sim.deliveries", obs.messages_delivered as f64);
            depth_p50 = depth_p50.max(obs.queue_depth.percentiles().p50);
        }
        ledger.set("sim.queue_depth_p50", depth_p50 as f64);
        ledger.busy(tracer, from, &["sim.run_s"]);
        let run_ns = ledger.0["sim.run_s"] * 1e9;
        ledger.set(
            "sim.ns_per_instruction",
            run_ns / ledger.0["sim.instructions"],
        );
        ledger.set("sim.ns_per_message", run_ns / ledger.0["sim.app_messages"]);
        ledger.0["sim.run_s"]
    }
}
