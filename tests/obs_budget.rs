//! The observability overhead budget: fully enabled instrumentation
//! costs under 2 % of an unobserved simulator run.
//!
//! Timing-based, so meaningless in a debug build and ignored by default:
//!
//! ```text
//! cargo test --release --test obs_budget -- --ignored --nocapture
//! ```
//!
//! Three estimates, each against plain `sim::run` on the same compiled
//! program:
//!
//! * `obs_overhead_pct` — `run_observed` with a counters-mode
//!   [`SimObs`] on `jacobi(200)` at n = 8. The unobserved path — the
//!   default in every bench and CLI run — pays only a never-taken
//!   `Option` branch per probe, so this fully enabled delta bounds the
//!   cost of instrumentation when disabled.
//! * `obs_overhead_n1024_pct` — the same on `jacobi(6)` at n = 1024,
//!   where per-event cache misses dominate and the collector's relative
//!   cost could regress differently.
//! * `obs_folded_overhead_pct` — the flamegraph path: a runtime-enabled
//!   run whose wall spans are drained and collapsed into folded lines.
//!   The engine's span probes are per run phase, never per event, so
//!   capture plus collapse fits the same budget.
//!
//! Each sample times one plain run and one instrumented run back to
//! back, and an estimate is the *median of the per-pair ratios*:
//! adjacent runs share the same frequency and thermal state, so each
//! ratio cancels the drift that wrecks independent-minimum estimators on
//! a noisy shared host. A run must be long enough that 2 % sits well
//! above timer quantization — `jacobi(200)` (~2 ms) rather than
//! `jacobi(20)` (~100 µs). The whole measurement is repeated three times
//! and the smallest median wins: a window of sustained interference
//! inflates every pair in it, and the repeat finds a window without one.

use acfc::mpsl::{programs, Program};
use acfc::obs;
use acfc::sim::{self, compile, SimConfig, SimObs};
use std::hint::black_box;
use std::time::Instant;

const BUDGET_PCT: f64 = 2.0;

/// Best of three medians of `samples` paired ratios, as a percentage
/// over the plain run. `instrumented` runs the same program with
/// instrumentation on.
fn paired_overhead_pct(
    program: &Program,
    nprocs: usize,
    samples: usize,
    mut instrumented: impl FnMut(&sim::Compiled, &SimConfig),
) -> f64 {
    let compiled = compile(program);
    let cfg = SimConfig::new(nprocs);
    let mut median_pct = || {
        let mut ratios = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t = Instant::now();
            black_box(sim::run(&compiled, &cfg));
            let plain = t.elapsed().as_nanos();
            let t = Instant::now();
            instrumented(&compiled, &cfg);
            let observed = t.elapsed().as_nanos();
            ratios.push(observed as f64 / plain as f64);
        }
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        (ratios[ratios.len() / 2] - 1.0) * 100.0
    };
    (0..3).map(|_| median_pct()).fold(f64::INFINITY, f64::min)
}

fn observed_run(compiled: &sim::Compiled, cfg: &SimConfig) {
    let mut collector = SimObs::counters();
    black_box(sim::run_observed(compiled, cfg, &mut collector));
}

fn folded_run(compiled: &sim::Compiled, cfg: &SimConfig) {
    obs::set_enabled(true);
    black_box(sim::run(compiled, cfg));
    obs::set_enabled(false);
    let spans = obs::take_wall_spans();
    black_box(obs::folded_lines(&spans, &obs::thread_labels()));
}

// One test, so the three estimates never time each other's runs and the
// global span switch is never flipped under another measurement.
#[test]
#[ignore = "timing-based; run with --release -- --ignored"]
fn instrumentation_stays_under_the_two_percent_budget() {
    let estimates = [
        (
            "obs_overhead_pct",
            paired_overhead_pct(&programs::jacobi(200), 8, 400, observed_run),
        ),
        (
            "obs_overhead_n1024_pct",
            paired_overhead_pct(&programs::jacobi(6), 1024, 50, observed_run),
        ),
        (
            "obs_folded_overhead_pct",
            paired_overhead_pct(&programs::jacobi(200), 8, 400, folded_run),
        ),
    ];
    for (name, pct) in &estimates {
        println!("{name} = {pct:.3}");
    }
    for (name, pct) in estimates {
        assert!(
            pct < BUDGET_PCT,
            "{name} = {pct:.2}% exceeds the {BUDGET_PCT}% budget"
        );
    }
}
