//! `sweep_matrix`: the `acfc compare --sweep` regime — small `n`,
//! dense clocks, protocol hooks, failures and rollback, aggregation,
//! sinks — on one thread.

use crate::harness::{fnv_of, timed, Ledger, Tracer, Units};
use crate::parts::{Ctx, Metrics, Part};
use acfc::mpsl::programs;
use acfc::protocols::{
    render_agg_json, run_protocol, run_sweep_threads, useless_checkpoints, AppDriven, CicVariant,
    CollectSink, CompareConfig, JsonlSink, ProtocolKind, SweepPlan, Workload,
};
use acfc::sim::{compile, run_with_failures, CutPicker, FailurePlan, NoHooks, SimConfig, SimTime};
use acfc::util::rng::mix64;
use std::hint::black_box;

/// Plans, seeded from `--seed`, that every repetition runs, one unit
/// each: the failure plans a sweep seed draws move its rollback work by
/// a few percent, so the metric averages over 2 x 4 seeds per cell.
const PLANS: u64 = 2;

pub struct Sweep {
    seed: u64,
    plans: Vec<SweepPlan>,
    /// One unit per plan: its cells and the seconds inside
    /// `run_sweep_threads`.
    runs: Units,
}

fn plan(seed: u64) -> SweepPlan {
    SweepPlan::builder()
        .ns([4usize, 8, 16])
        .failure_rates([0.0, 0.5, 2.0])
        .seeds_per_cell(4)
        .workload(Workload::new("jacobi", |_| programs::jacobi(6)))
        .workload(Workload::new("pipeline", |_| programs::pipeline(6)))
        .workload(Workload::new("master_worker", |_| {
            programs::master_worker(3)
        }))
        .seed(seed)
        .build()
        .expect("the benchmark's sweep plan is valid")
}

fn plans(seed: u64) -> Vec<SweepPlan> {
    (0..PLANS).map(|k| plan(mix64(seed ^ k))).collect()
}

struct Rep {
    secs: f64,
    jsonl: Vec<u8>,
}

impl Sweep {
    pub fn setup(seed: u64) -> Sweep {
        Sweep {
            seed,
            plans: plans(seed),
            runs: Units::default(),
        }
    }

    fn run_plan(&self, ctx: &mut Ctx, plan: &SweepPlan) -> Rep {
        let mut collect = CollectSink::default();
        let mut jsonl = JsonlSink::new(Vec::new());
        let (summary, secs) = timed(|| run_sweep_threads(plan, 1, &mut [&mut collect, &mut jsonl]));
        let complete = collect.rows.iter().all(|r| r.completed == r.seeds);
        ctx.ops.check(
            complete
                && collect.rows.len() == plan.total_cells()
                && summary.cells == plan.total_cells(),
            || "sweep: a trial did not complete or a row is missing".to_string(),
        );
        Rep {
            secs,
            jsonl: jsonl.into_inner(),
        }
    }
}

fn layer_prefix(kind: ProtocolKind) -> [&'static str; 3] {
    macro_rules! rows {
        ($p:literal) => {
            [
                concat!("protocols.", $p, ".run_s"),
                concat!("protocols.", $p, ".control_msgs"),
                concat!("protocols.", $p, ".forced_ckpts"),
            ]
        };
    }
    match kind {
        ProtocolKind::AppDriven => rows!("app_driven"),
        ProtocolKind::Uncoordinated => rows!("uncoordinated"),
        ProtocolKind::SyncAndStop => rows!("sas"),
        ProtocolKind::ChandyLamport => rows!("cl"),
        ProtocolKind::Cic(CicVariant::Index) => rows!("cic_index"),
        ProtocolKind::Cic(CicVariant::Bcs) => rows!("cic_bcs"),
        ProtocolKind::Cic(CicVariant::Hmnr) => rows!("cic_hmnr"),
        ProtocolKind::Cic(CicVariant::Lazy) => rows!("cic_lazy"),
    }
}

impl Part for Sweep {
    fn check(&mut self, ctx: &mut Ctx) {
        let rep = self.run_plan(ctx, &self.plans[0]);
        let text = String::from_utf8(rep.jsonl).expect("JSONL is UTF-8");
        ctx.digest("sweep_matrix", "sweep.jsonl", fnv_of(&text));
    }

    fn rep(&mut self, ctx: &mut Ctx) {
        for unit in 0..self.plans.len() {
            let plan = &self.plans[unit];
            let rep = self.run_plan(ctx, plan);
            self.runs.record(unit, plan.total_cells() as f64, rep.secs);
        }
    }

    fn metrics(&self) -> Metrics {
        Metrics::from([("sweep_cells_per_s", self.runs.rate())])
    }

    fn traced(&mut self, ctx: &mut Ctx, tracer: &mut Tracer, ledger: &mut Ledger) -> f64 {
        let from = tracer.spans.len();
        let seed = self.seed;
        let plans = tracer.span("protocols.sweep_plan_s", |_| {
            let plans = plans(seed);
            black_box(plans.iter().map(|p| p.cells().len()).sum::<usize>());
            plans
        });
        for plan in &plans {
            let mut collect = CollectSink::default();
            let mut jsonl = JsonlSink::new(Vec::new());
            let summary = tracer.span("protocols.sweep_run_s", |_| {
                run_sweep_threads(plan, 1, &mut [&mut collect, &mut jsonl])
            });
            ledger.add("protocols.sweep_trials", summary.trials as f64);
            ledger.add("protocols.sweep_rows", collect.rows.len() as f64);
            black_box(tracer.span("protocols.sweep_render_s", |_| {
                render_agg_json(&collect.rows)
            }));
        }

        // One protocol at a time on the top of the matrix: jacobi at
        // n = 16 with two failures.
        let program = programs::jacobi(6);
        let failures = FailurePlan::at(vec![
            (SimTime::from_millis(120), 1),
            (SimTime::from_millis(260), 5),
        ]);
        let config = CompareConfig::builder(16)
            .seed(seed)
            .failures(failures.clone())
            .build()
            .expect("valid comparison");
        for kind in ProtocolKind::all() {
            let [run_s, control, forced] = layer_prefix(kind);
            let stats = tracer.span(run_s, |_| run_protocol(&program, kind, &config));
            ctx.ops
                .check(stats.completed, || format!("{kind} did not complete"));
            ledger.set(control, stats.control_messages as f64);
            ledger.set(forced, stats.forced as f64);
            ledger.busy(tracer, from, &[run_s]);
        }

        let prepared = tracer.span("protocols.app_driven_prepare_s", |_| {
            AppDriven::prepare(&programs::jacobi_odd_even(6), 8)
        });
        ctx.ops.ok("AppDriven::prepare", prepared);
        let compiled = compile(&program);
        let sim = SimConfig::new(16).with_seed(seed);
        let trace = tracer.span("sim.with_failures_run_s", |_| {
            run_with_failures(
                &compiled,
                &sim,
                &mut NoHooks,
                failures,
                CutPicker::AlignedSeq,
            )
        });
        ctx.ops
            .check(trace.completed(), || format!("{:?}", trace.outcome));
        black_box(tracer.span("protocols.zcycle_check_s", |_| useless_checkpoints(&trace)));
        ledger.busy(
            tracer,
            from,
            &[
                "protocols.sweep_plan_s",
                "protocols.sweep_run_s",
                "protocols.sweep_render_s",
                "protocols.app_driven_prepare_s",
                "protocols.zcycle_check_s",
                "sim.with_failures_run_s",
            ],
        );
        ledger.0["protocols.sweep_run_s"]
    }
}
