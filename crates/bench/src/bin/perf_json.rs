//! Emits `BENCH_analysis.json` and `BENCH_sim.json`: the
//! perf-trajectory numbers this repo tracks across PRs.
//!
//! `BENCH_analysis.json` has three families of measurements:
//!
//! * **Pipeline wall-time** — end-to-end [`acfc_core::analyze`] over
//!   the stock workloads (the paper's entire offline cost).
//! * **Phase III throughput** — Algorithm 3.2 relocations per second on
//!   the repair-heavy workloads, with the [`ReanalysisCache`] replay
//!   enabled vs. recomputing Phase II from scratch every iteration, and
//!   against [`acfc_bench::seed_baseline`] (the pre-optimization hot
//!   path: per-iteration clone + rebuild, naive-BFS closures, per-edge
//!   Condition-1 scans) on the same move trajectory.
//! * **Monte-Carlo throughput** — §4 interval-simulation trials per
//!   second at one thread and at the configured thread count
//!   (`ACFC_THREADS` overrides), plus the implied speedup.
//!
//! `BENCH_sim.json` tracks the discrete-event engine: events per second
//! (executed simulator instructions / wall-clock) on the canonical
//! workloads from `benches/simulator.rs` — clean runs plus the
//! failure/rollback path.
//!
//! Run via `cargo bench-json` (alias in `.cargo/config.toml`); the
//! files are written to the current directory.
//!
//! [`ReanalysisCache`]: acfc_core::ReanalysisCache

use acfc_bench::seed_baseline::seed_ensure_recovery_lines;
use acfc_core::{analyze, ensure_recovery_lines, AnalysisConfig, Phase3Config};
use acfc_mpsl::programs;
use acfc_perfmodel::{simulate_interval_threads, IntervalParams};
use acfc_protocols::{run_sweep, CollectSink, SweepPlan};
use acfc_sim::{compile, CutPicker, FailurePlan, NoHooks, SimConfig, SimObs, SimTime};
use acfc_util::bench::{bench, Json};
use acfc_util::parallel::configured_threads;
use std::hint::black_box;

/// Workloads whose placements Phase III actually has to repair (moves
/// are performed, so the incremental replay has iterations to save).
fn repair_heavy() -> Vec<acfc_mpsl::Program> {
    vec![
        programs::jacobi_odd_even(10),
        programs::pipeline_skewed(10),
        programs::pingpong_skewed(10),
        programs::fig6(10),
    ]
}

/// A Phase-III-heavy workload: `m` sequential odd/even exchange blocks,
/// each with the Figure 5 misplacement, so Algorithm 3.2 performs `m`
/// relocations (one iteration each) before the fixpoint.
fn many_exchanges(m: usize) -> acfc_mpsl::Program {
    let mut src = String::from("program many_exchanges;\n");
    for _ in 0..m {
        src.push_str(
            "if rank % 2 == 0 { checkpoint; send to rank + 1; recv from rank + 1; }\n\
             else { recv from rank - 1; checkpoint; send to rank - 1; }\n",
        );
    }
    acfc_mpsl::parse(&src).expect("workload parses")
}

fn phase3_stats(incremental: bool) -> (f64, f64) {
    let workloads = repair_heavy();
    let config = Phase3Config {
        nprocs: 8,
        incremental,
        ..Phase3Config::default()
    };
    let mut moves = 0usize;
    for p in &workloads {
        moves += ensure_recovery_lines(p, &config)
            .expect("repairable workload")
            .moves
            .len();
    }
    let s = bench(
        if incremental {
            "phase3/incremental"
        } else {
            "phase3/from_scratch"
        },
        400,
        || {
            for p in &workloads {
                black_box(ensure_recovery_lines(black_box(p), &config).unwrap());
            }
        },
    );
    let secs_per_pass = s.median_ns / 1e9;
    (moves as f64 / secs_per_pass, secs_per_pass)
}

/// Benchmarks one simulator workload and returns
/// `(events_per_run, events_per_sec)`: the best of 12 short batches.
fn sim_workload(
    program: &acfc_mpsl::Program,
    nprocs: usize,
    failures: &[(SimTime, usize)],
) -> (u64, f64) {
    let compiled = compile(program);
    let cfg = SimConfig::new(nprocs);
    let plan = FailurePlan::at(failures.to_vec());
    let run = || {
        let mut hooks = NoHooks;
        acfc_sim::run_with_failures(
            &compiled,
            &cfg,
            &mut hooks,
            plan.clone(),
            CutPicker::AlignedSeq,
        )
    };
    let events = run().metrics.instructions;
    let batch = (200_000 / events).clamp(2, 500) as usize;
    let mut best = f64::INFINITY;
    for _ in 0..12 {
        let t = std::time::Instant::now();
        for _ in 0..batch {
            black_box(run());
        }
        best = best.min(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    (events, events as f64 / (best / 1e9))
}

/// Events/sec on one large-`n` workload:
/// one warm run to learn the event count, then the best of `reps` timed
/// runs. Single timed runs rather than batches — at these sizes a run
/// is tens to hundreds of milliseconds, far above timer quantization.
fn large_n_events_per_sec(program: &acfc_mpsl::Program, nprocs: usize, reps: usize) -> (u64, f64) {
    let compiled = compile(program);
    let cfg = SimConfig::new(nprocs);
    let trace = acfc_sim::run(&compiled, &cfg);
    assert!(
        trace.completed(),
        "large-n workload failed: {:?}",
        trace.outcome
    );
    let events = trace.metrics.instructions;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = std::time::Instant::now();
        black_box(acfc_sim::run(&compiled, &cfg));
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    (events, events as f64 / (best / 1e9))
}

/// Measures what the per-run [`SimObs`] collector costs on `jacobi_n8`:
/// observed (counters mode) vs unobserved runs. The unobserved path —
/// the default in every bench and CLI run — pays only a never-taken
/// `Option` branch per probe, so this fully-enabled delta is a
/// conservative upper bound on the cost of instrumentation when
/// disabled.
///
/// Each sample times one plain run and one observed run back to back,
/// and the estimate is the *median of the per-pair ratios*. Adjacent
/// runs share the same frequency/thermal state, so each ratio cancels
/// the drift that wrecks independent-min estimators on a noisy shared
/// host: min(observed)/min(plain) picks its two minima from different
/// quiet windows and was observed to swing 1–8% run to run here, while
/// the paired median reproduces to a few tenths of a percent. The run
/// itself must also be long enough that the 2% budget sits well above
/// timer quantization — jacobi(200) (~2ms, budget ~40µs) rather than
/// jacobi(20) (~100µs, budget under 2µs). The whole measurement is
/// repeated three times and the best (smallest) median wins: a window
/// of sustained interference inflates every pair in it, and the repeat
/// is how we find a window without one.
///
/// The same estimator runs at two scales: `jacobi(200)` at n = 8 (the
/// historical `obs_overhead_pct` key) and `jacobi(6)` at n = 1024
/// (`obs_overhead_n1024_pct`), because the collector's relative cost
/// could regress differently where per-event cache misses dominate.
fn obs_overhead_pct(program: &acfc_mpsl::Program, nprocs: usize, samples: usize) -> f64 {
    let compiled = compile(program);
    let cfg = SimConfig::new(nprocs);
    let median_pct = || {
        let mut ratios = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t = std::time::Instant::now();
            black_box(acfc_sim::run(&compiled, &cfg));
            let plain = t.elapsed().as_nanos();
            let mut obs = SimObs::counters();
            let t = std::time::Instant::now();
            black_box(acfc_sim::run_observed(&compiled, &cfg, &mut obs));
            let observed = t.elapsed().as_nanos();
            ratios.push(observed as f64 / plain as f64);
        }
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        (ratios[ratios.len() / 2] - 1.0) * 100.0
    };
    (0..3).map(|_| median_pct()).fold(f64::INFINITY, f64::min)
}

/// The flamegraph-export path's end-to-end cost on the same
/// paired-median estimator: a runtime-enabled run whose wall spans are
/// drained and collapsed into folded lines, against a plain disabled
/// run. The engine's span probes are deliberately coarse (per run
/// phase, never per event), so capture **plus** collapse must fit the
/// same 2% budget as the SimObs collector.
fn obs_folded_overhead_pct(program: &acfc_mpsl::Program, nprocs: usize, samples: usize) -> f64 {
    let compiled = compile(program);
    let cfg = SimConfig::new(nprocs);
    let median_pct = || {
        let mut ratios = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t = std::time::Instant::now();
            black_box(acfc_sim::run(&compiled, &cfg));
            let plain = t.elapsed().as_nanos();
            let t = std::time::Instant::now();
            acfc_obs::set_enabled(true);
            black_box(acfc_sim::run(&compiled, &cfg));
            acfc_obs::set_enabled(false);
            let spans = acfc_obs::take_wall_spans();
            black_box(acfc_obs::folded_lines(&spans, &acfc_obs::thread_labels()));
            let folded = t.elapsed().as_nanos();
            ratios.push(folded as f64 / plain as f64);
        }
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        (ratios[ratios.len() / 2] - 1.0) * 100.0
    };
    (0..3).map(|_| median_pct()).fold(f64::INFINITY, f64::min)
}

/// Emits `BENCH_sim.json`: engine events/sec on the
/// `benches/simulator.rs` workloads.
fn emit_bench_sim() {
    type Workload<'a> = (&'a str, acfc_mpsl::Program, usize, &'a [(SimTime, usize)]);
    let fail_plan = [
        (SimTime::from_millis(300), 0),
        (SimTime::from_millis(700), 2),
    ];
    let workloads: [Workload; 4] = [
        ("jacobi_n8", programs::jacobi(20), 8, &[]),
        ("stencil_n16", programs::stencil_1d(20), 16, &[]),
        ("master_worker_n8", programs::master_worker(10), 8, &[]),
        (
            "jacobi_n4_with_failures",
            programs::jacobi(20),
            4,
            &fail_plan,
        ),
    ];
    let mut json = Json::new().str("bench", "sim");
    for (name, program, n, failures) in &workloads {
        let (events, eps) = sim_workload(program, *n, failures);
        json = json
            .num(&format!("{name}_events"), events as f64)
            .num(&format!("{name}_events_per_sec"), eps);
    }
    // Histogram-native percentile bounds from one observed jacobi_n8
    // run (deterministic: fixed seed, no failures) — the trajectory
    // file tracks the engine's latency/queue/interval distributions,
    // not just throughput means.
    let mut obs = SimObs::counters();
    let trace = acfc_sim::run_observed(
        &compile(&programs::jacobi(20)),
        &SimConfig::new(8),
        &mut obs,
    );
    assert!(trace.completed());
    let lat = obs.msg_latency_us.percentiles();
    let qd = obs.queue_depth.percentiles();
    let ci = obs.ckpt_interval_us.percentiles();
    json = json
        .num("jacobi_n8_msg_latency_p50_us", lat.p50 as f64)
        .num("jacobi_n8_msg_latency_p90_us", lat.p90 as f64)
        .num("jacobi_n8_msg_latency_p99_us", lat.p99 as f64)
        .num("jacobi_n8_queue_depth_p50", qd.p50 as f64)
        .num("jacobi_n8_queue_depth_p90", qd.p90 as f64)
        .num("jacobi_n8_queue_depth_p99", qd.p99 as f64)
        .num("jacobi_n8_ckpt_interval_p50_us", ci.p50 as f64)
        .num("jacobi_n8_ckpt_interval_p90_us", ci.p90 as f64)
        .num("jacobi_n8_ckpt_interval_p99_us", ci.p99 as f64);
    // Sweep-engine trajectory: cell throughput on a small replicated
    // matrix (2 process counts × 1 failure rate × 5 protocols, 3 seeds
    // per cell) plus a representative interval width — the mean 95% CI
    // half-width of the overhead ratio across the aggregate rows. The
    // width tracks the seed-to-seed variance the aggregation machinery
    // exists to quantify; a jump means the protocols got noisier or the
    // accumulator regressed.
    let plan = SweepPlan::builder()
        .ns([2usize, 4])
        .seeds_per_cell(3)
        .failure_rates([1.0])
        .build()
        .expect("static sweep plan is valid");
    let mut collect = CollectSink::default();
    let summary = run_sweep(&plan, &mut [&mut collect]);
    let mean_ci_width = collect
        .rows
        .iter()
        .filter_map(|r| r.overhead_ratio.ci95_half)
        .sum::<f64>()
        / collect.rows.len() as f64;
    assert!(mean_ci_width.is_finite());
    json = json
        .num("sweep_cells", summary.cells as f64)
        .num("sweep_trials", summary.trials as f64)
        .num("sweep_cells_per_sec", summary.cells_per_sec())
        .num("sweep_overhead_ratio_mean_ci95", mean_ci_width);
    // Large-n scaling keys. `jacobi`/`stencil_1d`
    // are communication-bound at these sizes — nearly every executed
    // instruction is a send/recv/checkpoint that crosses the event
    // queue — while `jacobi_cells` adds the per-cell relaxation
    // arithmetic a real stencil performs between exchanges, which runs
    // on the inline fast path. Tracking both regimes separately keeps
    // the queue-bound path and the instruction-dense path honest: a
    // calendar-queue or clock-piggyback regression shows up in the
    // former, an interpreter regression in the latter.
    let large: [(&str, acfc_mpsl::Program, usize); 4] = [
        ("jacobi_n256", programs::jacobi(20), 256),
        ("jacobi_n1024", programs::jacobi(20), 1024),
        ("stencil_n2048", programs::stencil_1d(20), 2048),
        ("jacobi_cells_n1024", programs::jacobi_cells(20, 1024), 1024),
    ];
    for (name, program, n) in &large {
        let (events, eps) = large_n_events_per_sec(program, *n, 3);
        json = json
            .num(&format!("{name}_events"), events as f64)
            .num(&format!("{name}_events_per_sec"), eps);
    }
    let overhead = obs_overhead_pct(&programs::jacobi(200), 8, 400);
    assert!(
        overhead < 2.0,
        "SimObs overhead {overhead:.2}% exceeds the 2% budget \
         (and the disabled path must cost strictly less)"
    );
    let overhead_1024 = obs_overhead_pct(&programs::jacobi(6), 1024, 50);
    assert!(
        overhead_1024 < 2.0,
        "SimObs overhead at n=1024 is {overhead_1024:.2}%, over the 2% budget"
    );
    let folded_overhead = obs_folded_overhead_pct(&programs::jacobi(200), 8, 400);
    assert!(
        folded_overhead < 2.0,
        "folded-export overhead {folded_overhead:.2}% exceeds the 2% budget"
    );
    let json = json
        .num("obs_overhead_pct", overhead)
        .num("obs_overhead_n1024_pct", overhead_1024)
        .num("obs_folded_overhead_pct", folded_overhead)
        .render();
    std::fs::write("BENCH_sim.json", &json).expect("write BENCH_sim.json");
    println!("{json}");
}

fn main() {
    // Simulator benches run first, on a pristine heap: the analysis
    // benches below allocate enough to fragment the allocator, which
    // pushes the engine's preallocated record buffers onto mmap-backed
    // chunks and taxes every subsequent run with page faults.
    emit_bench_sim();

    // Pipeline wall-time over every stock workload, one pass.
    let stock = programs::all_stock();
    let cfg = AnalysisConfig::for_nprocs(8);
    let s = bench("pipeline/all_stock", 500, || {
        for p in &stock {
            black_box(analyze(black_box(p), &cfg).unwrap());
        }
    });
    let pipeline_ms = s.median_ns / 1e6;

    // Phase III with and without the incremental replay, and the
    // pre-optimization baseline on the same trajectory.
    let (moves_per_sec_inc, inc_secs) = phase3_stats(true);
    let (moves_per_sec_scratch, scratch_secs) = phase3_stats(false);
    let heavy = many_exchanges(16);
    let p3cfg = Phase3Config {
        nprocs: 8,
        max_iterations: 64,
        ..Phase3Config::default()
    };
    let heavy_moves = ensure_recovery_lines(&heavy, &p3cfg)
        .expect("repairable")
        .moves
        .len();
    let s = bench("phase3/seed_baseline", 400, || {
        black_box(seed_ensure_recovery_lines(black_box(&heavy), &p3cfg).unwrap())
    });
    let seed_secs = s.median_ns / 1e9;
    let s = bench("phase3/optimized_heavy", 400, || {
        black_box(ensure_recovery_lines(black_box(&heavy), &p3cfg).unwrap())
    });
    let opt_heavy_secs = s.median_ns / 1e9;

    // Monte-Carlo throughput, sequential vs. configured threads.
    let p = IntervalParams {
        lambda: 1e-4,
        t: 300.0,
        o_total: 1.78,
        l_total: 4.292,
        r_recovery: 3.32,
    };
    let trials = 200_000usize;
    let threads = configured_threads();
    let s1 = bench("mc/seq", 400, || {
        simulate_interval_threads(black_box(&p), trials, 42, 1)
    });
    let mc_seq = trials as f64 / (s1.median_ns / 1e9);
    // With one configured thread the "parallel" call takes the exact
    // sequential fallback path in `par_map_threads`, so timing it
    // separately would only record noise between two runs of the same
    // code; the speedup is 1 by construction.
    let mc_par = if threads <= 1 {
        mc_seq
    } else {
        let sn = bench("mc/par", 400, || {
            simulate_interval_threads(black_box(&p), trials, 42, threads)
        });
        trials as f64 / (sn.median_ns / 1e9)
    };

    let mut json = Json::new()
        .str("bench", "analysis")
        .num("pipeline_all_stock_ms", pipeline_ms)
        .num("pipeline_workloads", stock.len() as f64)
        .num("phase3_moves_per_sec_incremental", moves_per_sec_inc)
        .num("phase3_moves_per_sec_from_scratch", moves_per_sec_scratch)
        .num("phase3_incremental_speedup", scratch_secs / inc_secs)
        .num("phase3_heavy_moves", heavy_moves as f64)
        .num("phase3_heavy_seed_baseline_ms", seed_secs * 1e3)
        .num("phase3_heavy_optimized_ms", opt_heavy_secs * 1e3)
        .num("phase3_speedup_vs_seed", seed_secs / opt_heavy_secs)
        .num("mc_trials_per_sec_1_thread", mc_seq);
    // At one thread the parallel measurement IS the sequential one —
    // emitting `mc_trials_per_sec_1_threads` as well would duplicate
    // the canonical key above under a near-identical name.
    if threads > 1 {
        json = json.num(&format!("mc_trials_per_sec_{threads}_threads"), mc_par);
    }
    let json = json
        .num("mc_thread_speedup", mc_par / mc_seq)
        .num("mc_threads", threads as f64)
        .render();
    std::fs::write("BENCH_analysis.json", &json).expect("write BENCH_analysis.json");
    println!("{json}");

    // One fully instrumented pass (analysis + observed run of the
    // jacobi_n8 workload) so the bench output ends with the obs
    // counter/histogram table. With the `obs` feature compiled out the
    // registry stays empty and the render says so.
    acfc_obs::reset();
    acfc_obs::set_enabled(true);
    let p = programs::jacobi(20);
    let a = analyze(&p, &AnalysisConfig::for_nprocs(8)).expect("stock workload analyzes");
    let mut obs = SimObs::counters();
    black_box(acfc_sim::run_observed(
        &compile(&a.program),
        &SimConfig::new(8),
        &mut obs,
    ));
    obs.publish();
    acfc_obs::set_enabled(false);
    println!("--- obs counter summary (jacobi_n8 analysis + run) ---");
    print!("{}", acfc_obs::render(&acfc_obs::snapshot()));
}
