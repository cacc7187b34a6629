//! Scale-out empirical protocol sweeps with seed replication and
//! streaming aggregation — the measured companion to the analytic
//! Figure 8, at evaluation scale.
//!
//! The paper's §5 argument is that application-driven checkpointing
//! wins precisely as the process count and failure intensity grow; a
//! single seeded run per point cannot support that claim. Following the
//! replicated-trial methodology of checkpoint-interval studies (Daly;
//! Plank & Thomason), a [`SweepPlan`] describes a full evaluation
//! matrix — process counts up to `n = 64`, a failure-rate grid, a
//! workload matrix, and a seeds-per-cell replication factor — and
//! [`run_sweep`] executes it cell by cell on the labeled worker pool,
//! aggregating each cell's trials into mean/stddev/95% CI
//! ([`acfc_obs::CiAccum`]) and pooling latency histograms via
//! `LocalHist` merging.
//!
//! A *cell* is one `(workload, n, λ, protocol)` point; its trials
//! differ only in derived seeds, and every protocol in a
//! `(workload, n, λ)` column faces the **identical failure plans** —
//! the seeds deliberately exclude the protocol, so cross-protocol
//! deltas are paired, not confounded.
//!
//! Results stream through the [`RowSink`] trait instead of being
//! buffered: workers hand finished cells to a reorder buffer
//! ([`acfc_util::parallel::par_for_each_ordered_labeled`]) that emits
//! rows in plan order as the prefix completes, so the built-in sinks
//! ([`TableSink`], [`JsonlSink`], [`ProgressSink`]) observe the same
//! byte stream at any `ACFC_THREADS` — streaming *and* bit-identical.

use crate::cic::CicVariant;
use crate::compare::{
    run_protocol_against, CompareConfig, ConfigError, PreparedProgram, ProtocolKind, RunStats,
    MAX_COMPARE_PROCS,
};
use acfc_mpsl::{programs, Program};
use acfc_obs::{CiAccum, CiSummary, HistSnapshot};
use acfc_sim::{FailurePlan, SimConfig, SimTime};
use acfc_util::bench::Json;
use acfc_util::parallel::{configured_threads, par_for_each_ordered_labeled, par_map_labeled};
use acfc_util::rng::mix64;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A named workload: a factory from process count to program, so one
/// sweep can rank protocols across several applications (the paper's
/// workload matrix).
#[derive(Clone)]
pub struct Workload {
    name: String,
    make: Arc<dyn Fn(usize) -> Program + Send + Sync>,
}

impl Workload {
    /// A workload built from a factory closure.
    pub fn new(
        name: impl Into<String>,
        make: impl Fn(usize) -> Program + Send + Sync + 'static,
    ) -> Workload {
        Workload {
            name: name.into(),
            make: Arc::new(make),
        }
    }

    /// The default evaluation workload: 10-iteration Jacobi.
    pub fn jacobi() -> Workload {
        Workload::new("jacobi", |_| programs::jacobi(10))
    }

    /// The workload's display name (used in rows and artifacts).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Instantiates the program for `n` processes.
    pub fn program(&self, n: usize) -> Program {
        (self.make)(n)
    }
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .finish()
    }
}

/// A validated sweep evaluation matrix. Construct via
/// [`SweepPlan::builder`]; fields are private so every plan that exists
/// went through validation.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    ns: Vec<usize>,
    seeds_per_cell: u64,
    lambdas: Vec<f64>,
    workloads: Vec<Workload>,
    cic_variants: Vec<CicVariant>,
    interval_us: u64,
    seed: u64,
}

/// Builder for [`SweepPlan`] — named setters, explicit defaults, and
/// typed [`ConfigError`]s at [`build`](Self::build) instead of silent
/// clamping.
#[derive(Debug, Clone)]
pub struct SweepPlanBuilder {
    ns: Vec<usize>,
    seeds_per_cell: u64,
    lambdas: Vec<f64>,
    workloads: Option<Vec<Workload>>,
    cic_variants: Vec<CicVariant>,
    interval_us: u64,
    seed: u64,
    memory_budget_mib: u64,
}

impl SweepPlan {
    /// Starts a plan with the defaults: `ns = [2, 4, 8]`, 3 seeds per
    /// cell, failure-rate grid `[1.0]` (per-process failures/sec of
    /// simulated time), every CIC variant, 60 ms checkpoint interval,
    /// base seed `0xACFC`, and the [`Workload::jacobi`] workload if
    /// none is added.
    pub fn builder() -> SweepPlanBuilder {
        SweepPlanBuilder {
            ns: vec![2, 4, 8],
            seeds_per_cell: 3,
            lambdas: vec![1.0],
            workloads: None,
            cic_variants: CicVariant::all().to_vec(),
            interval_us: 60_000,
            seed: 0xACFC,
            memory_budget_mib: crate::compare::DEFAULT_MEMORY_BUDGET_MIB,
        }
    }

    /// Process counts, in sweep order.
    pub fn ns(&self) -> &[usize] {
        &self.ns
    }

    /// Seeded trials aggregated into each cell.
    pub fn seeds_per_cell(&self) -> u64 {
        self.seeds_per_cell
    }

    /// The per-process failure-rate grid (failures per second of
    /// simulated time; `0.0` = failure-free column).
    pub fn failure_rates(&self) -> &[f64] {
        &self.lambdas
    }

    /// The workload matrix.
    pub fn workloads(&self) -> &[Workload] {
        &self.workloads
    }

    /// The CIC variants on the protocol axis.
    pub fn cic_variants(&self) -> &[CicVariant] {
        &self.cic_variants
    }

    /// The protocol axis of the matrix: the four non-CIC baselines
    /// followed by the selected CIC variants, in [`CicVariant::all`]
    /// presentation order.
    pub fn protocols(&self) -> Vec<ProtocolKind> {
        ProtocolKind::base()
            .into_iter()
            .chain(self.cic_variants.iter().map(|&v| ProtocolKind::Cic(v)))
            .collect()
    }

    /// Checkpoint interval for the timer/wave protocols, µs.
    pub fn interval_us(&self) -> u64 {
        self.interval_us
    }

    /// Base RNG seed all trial seeds derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Every cell of the matrix in plan order: workload-major, then
    /// process count, then failure rate, then protocol — the order rows
    /// stream out of [`run_sweep`].
    pub fn cells(&self) -> Vec<CellSpec> {
        let mut cells = Vec::with_capacity(self.total_cells());
        let protocols = self.protocols();
        for (w, _) in self.workloads.iter().enumerate() {
            for &n in &self.ns {
                for &lambda in &self.lambdas {
                    for &protocol in &protocols {
                        cells.push(CellSpec {
                            index: cells.len(),
                            workload: w,
                            n,
                            lambda,
                            protocol,
                        });
                    }
                }
            }
        }
        cells
    }

    /// Number of cells in the matrix.
    pub fn total_cells(&self) -> usize {
        self.workloads.len()
            * self.ns.len()
            * self.lambdas.len()
            * (ProtocolKind::base().len() + self.cic_variants.len())
    }

    /// Number of simulator trials the plan will run (cells × seeds),
    /// not counting the shared bare-baseline runs.
    pub fn total_trials(&self) -> u64 {
        self.total_cells() as u64 * self.seeds_per_cell
    }

    /// The simulator seed of one trial. Derived from
    /// `(workload, n, trial)` only — deliberately independent of both
    /// the failure rate and the protocol, so every cell in a
    /// `(workload, n)` block replays the same jittered network and the
    /// shared bare baseline is exact for all of them.
    fn sim_seed(&self, w: usize, n: usize, trial: u64) -> u64 {
        mix64(self.seed ^ mix64(((w as u64) << 48) | ((n as u64) << 32) | trial))
    }

    /// The failure-plan seed of one trial: the sim seed refined by the
    /// failure-rate index. Protocol-independent, so every protocol
    /// in a `(workload, n, λ)` column faces identical failure plans.
    fn fail_seed(&self, w: usize, n: usize, lambda_idx: usize, trial: u64) -> u64 {
        mix64(self.sim_seed(w, n, trial) ^ ((lambda_idx as u64 + 1) << 56))
    }
}

impl SweepPlanBuilder {
    /// Process counts to sweep (kept in the given order).
    pub fn ns(mut self, ns: impl Into<Vec<usize>>) -> Self {
        self.ns = ns.into();
        self
    }

    /// Seeded trials per cell.
    pub fn seeds_per_cell(mut self, seeds: u64) -> Self {
        self.seeds_per_cell = seeds;
        self
    }

    /// Replaces the failure-rate grid (per-process failures per second
    /// of simulated time; `0.0` = a failure-free column). An empty grid
    /// is rejected at build.
    pub fn failure_rates(mut self, lambdas: impl Into<Vec<f64>>) -> Self {
        self.lambdas = lambdas.into();
        self
    }

    /// Adds one workload to the matrix.
    pub fn workload(mut self, w: Workload) -> Self {
        self.workloads.get_or_insert_with(Vec::new).push(w);
        self
    }

    /// Replaces the workload matrix.
    pub fn workloads(mut self, ws: Vec<Workload>) -> Self {
        self.workloads = Some(ws);
        self
    }

    /// Replaces the CIC-variant axis (default: all four). Duplicates
    /// are dropped and [`CicVariant::all`] presentation order is
    /// restored at [`build`](Self::build); an empty selection sweeps
    /// only the four non-CIC baselines.
    pub fn cic_variants(mut self, variants: impl Into<Vec<CicVariant>>) -> Self {
        self.cic_variants = variants.into();
        self
    }

    /// Checkpoint interval for the timer/wave protocols, µs.
    pub fn interval_us(mut self, interval_us: u64) -> Self {
        self.interval_us = interval_us;
        self
    }

    /// Base RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Memory budget for the per-run guardrail, MiB (default
    /// [`DEFAULT_MEMORY_BUDGET_MIB`](crate::compare::DEFAULT_MEMORY_BUDGET_MIB)).
    /// [`build`](Self::build) refuses any swept `n` whose estimated
    /// footprint ([`estimated_run_mib`](crate::compare::estimated_run_mib))
    /// exceeds it.
    pub fn memory_budget_mib(mut self, budget_mib: u64) -> Self {
        self.memory_budget_mib = budget_mib;
        self
    }

    /// Validates and produces the plan.
    pub fn build(self) -> Result<SweepPlan, ConfigError> {
        if self.ns.is_empty() {
            return Err(ConfigError::EmptyNs);
        }
        for &n in &self.ns {
            if n == 0 {
                return Err(ConfigError::ZeroProcs);
            }
            if n > MAX_COMPARE_PROCS {
                return Err(ConfigError::TooManyProcs {
                    n,
                    max: MAX_COMPARE_PROCS,
                });
            }
            let est_mib = crate::compare::estimated_run_mib(n);
            if est_mib > self.memory_budget_mib {
                return Err(ConfigError::MemoryGuardrail {
                    n,
                    est_mib,
                    budget_mib: self.memory_budget_mib,
                });
            }
        }
        if self.seeds_per_cell == 0 {
            return Err(ConfigError::ZeroSeeds);
        }
        if self.interval_us == 0 {
            return Err(ConfigError::ZeroInterval);
        }
        if self.lambdas.is_empty() {
            return Err(ConfigError::BadFailureRate(f64::NAN));
        }
        for &l in &self.lambdas {
            if !l.is_finite() || l < 0.0 {
                return Err(ConfigError::BadFailureRate(l));
            }
        }
        let workloads = match self.workloads {
            None => vec![Workload::jacobi()],
            Some(ws) if ws.is_empty() => return Err(ConfigError::NoWorkloads),
            Some(ws) => ws,
        };
        let cic_variants: Vec<CicVariant> = CicVariant::all()
            .into_iter()
            .filter(|v| self.cic_variants.contains(v))
            .collect();
        Ok(SweepPlan {
            ns: self.ns,
            seeds_per_cell: self.seeds_per_cell,
            lambdas: self.lambdas,
            workloads,
            cic_variants,
            interval_us: self.interval_us,
            seed: self.seed,
        })
    }
}

/// One cell of the sweep matrix: the coordinates a worker needs to run
/// its trials.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Position in plan order (the streaming emission order).
    pub index: usize,
    /// Index into [`SweepPlan::workloads`].
    pub workload: usize,
    /// Process count.
    pub n: usize,
    /// Per-process failure rate (failures/sec of simulated time).
    pub lambda: f64,
    /// Protocol under test.
    pub protocol: ProtocolKind,
}

/// One aggregate sweep row: a cell's seeded trials reduced to
/// mean/stddev/95% CI per metric plus the pooled latency histogram.
#[derive(Debug, Clone)]
pub struct AggRow {
    /// Workload name.
    pub workload: String,
    /// Process count.
    pub n: usize,
    /// Per-process failure rate.
    pub lambda: f64,
    /// Protocol.
    pub protocol: ProtocolKind,
    /// Trials aggregated.
    pub seeds: u64,
    /// Trials that completed.
    pub completed: u64,
    /// Overhead ratio `makespan/bare − 1`.
    pub overhead_ratio: CiSummary,
    /// Paired overhead difference `protocol − appl-driven`, per seed.
    /// Because every protocol in a `(workload, n, λ)` column faces the
    /// identical failure plan, the per-trial difference cancels the
    /// shared failure noise and its CI is far tighter than the CI of
    /// either marginal mean; exactly zero for the appl-driven rows.
    pub d_overhead: CiSummary,
    /// Total checkpoints taken.
    pub checkpoints: CiSummary,
    /// Forced (communication-induced) checkpoints.
    pub forced: CiSummary,
    /// Protocol control messages.
    pub control_messages: CiSummary,
    /// Bits piggybacked on application messages (CIC family; zero for
    /// every other protocol).
    pub piggyback_bits: CiSummary,
    /// Coordination-only stall, ms.
    pub coord_stall_ms: CiSummary,
    /// Failures injected and survived.
    pub failures: CiSummary,
    /// Work lost to rollbacks, ms.
    pub lost_ms: CiSummary,
    /// Per-trial latency p50 bound, µs.
    pub lat_p50_us: CiSummary,
    /// Per-trial latency p99 bound, µs.
    pub lat_p99_us: CiSummary,
    /// Latency histogram pooled across all trials
    /// ([`HistSnapshot::merge`]): percentiles of the union multiset,
    /// complementing the per-trial CI columns.
    pub latency: HistSnapshot,
}

fn ci_json(s: &CiSummary) -> Json {
    let j = Json::new().num("mean", s.mean).num("stddev", s.stddev);
    match s.ci95_half {
        // Absent (seeds = 1) stays absent in the artifact — no NaN, no
        // sentinel zero a reader could mistake for a tight interval.
        Some(ci) => j.num("ci95", ci),
        None => j,
    }
}

impl AggRow {
    /// Aggregates one cell's trials. `stats` must all come from the
    /// same `(workload, n, λ, protocol)` cell, in trial order (the
    /// accumulation order is part of the bit-determinism pin).
    /// `paired_overhead` carries the appl-driven baseline's per-trial
    /// overhead ratios for the same `(workload, n, λ)` column and trial
    /// order; the paired-difference column accumulates over the common
    /// prefix, so an empty slice yields an empty `d_overhead`.
    pub fn from_trials(
        workload: &str,
        cell: &CellSpec,
        seeds: u64,
        stats: &[RunStats],
        paired_overhead: &[f64],
    ) -> AggRow {
        let mut overhead = CiAccum::new();
        let mut d_overhead = CiAccum::new();
        let mut checkpoints = CiAccum::new();
        let mut forced = CiAccum::new();
        let mut control = CiAccum::new();
        let mut piggyback = CiAccum::new();
        let mut coord = CiAccum::new();
        let mut failures = CiAccum::new();
        let mut lost = CiAccum::new();
        let mut lat_p50 = CiAccum::new();
        let mut lat_p99 = CiAccum::new();
        let mut latency = HistSnapshot::default();
        let mut completed = 0u64;
        for (i, s) in stats.iter().enumerate() {
            completed += u64::from(s.completed);
            overhead.push(s.overhead_ratio);
            if let Some(&base) = paired_overhead.get(i) {
                d_overhead.push(s.overhead_ratio - base);
            }
            checkpoints.push(s.checkpoints as f64);
            forced.push(s.forced as f64);
            control.push(s.control_messages as f64);
            piggyback.push(s.piggyback_bits as f64);
            coord.push(s.coord_stall_us as f64 / 1000.0);
            failures.push(s.failures as f64);
            lost.push(s.lost_us as f64 / 1000.0);
            let q = s.latency.percentiles();
            lat_p50.push(q.p50 as f64);
            lat_p99.push(q.p99 as f64);
            latency.merge(&s.latency);
        }
        AggRow {
            workload: workload.to_string(),
            n: cell.n,
            lambda: cell.lambda,
            protocol: cell.protocol,
            seeds,
            completed,
            overhead_ratio: overhead.summary(),
            d_overhead: d_overhead.summary(),
            checkpoints: checkpoints.summary(),
            forced: forced.summary(),
            control_messages: control.summary(),
            piggyback_bits: piggyback.summary(),
            coord_stall_ms: coord.summary(),
            failures: failures.summary(),
            lost_ms: lost.summary(),
            lat_p50_us: lat_p50.summary(),
            lat_p99_us: lat_p99.summary(),
            latency,
        }
    }

    /// The row as a flat-ish JSON object: scalar coordinates plus one
    /// `{mean, stddev, ci95}` object per metric (`ci95` absent when
    /// seeds < 2), pooled-histogram percentile bounds, and a bootstrap
    /// median ± 95% percentile interval over the pooled latency
    /// distribution (`lat_pool_median{,_lo,_hi}_us`; absent when no
    /// latency was pooled). Render with `render_line()` for JSONL.
    pub fn json(&self) -> Json {
        let pool = self.latency.percentiles();
        let boot = acfc_obs::bootstrap_median_ci(
            &self.latency,
            acfc_obs::BOOTSTRAP_RESAMPLES,
            BOOTSTRAP_SEED,
        );
        let mut j = Json::new()
            .str("workload", &self.workload)
            .num("n", self.n as f64)
            .num("lambda", self.lambda)
            .str("protocol", self.protocol.name())
            .num("seeds", self.seeds as f64)
            .num("completed", self.completed as f64)
            .raw(
                "overhead_ratio",
                ci_json(&self.overhead_ratio).render_line(),
            )
            .raw("d_overhead_ratio", ci_json(&self.d_overhead).render_line())
            .raw("checkpoints", ci_json(&self.checkpoints).render_line())
            .raw("forced_checkpoints", ci_json(&self.forced).render_line())
            .raw(
                "control_messages",
                ci_json(&self.control_messages).render_line(),
            )
            .raw(
                "piggyback_bits",
                ci_json(&self.piggyback_bits).render_line(),
            )
            .raw(
                "coord_stall_ms",
                ci_json(&self.coord_stall_ms).render_line(),
            )
            .raw("failures", ci_json(&self.failures).render_line())
            .raw("lost_ms", ci_json(&self.lost_ms).render_line())
            .raw("lat_p50_us", ci_json(&self.lat_p50_us).render_line())
            .raw("lat_p99_us", ci_json(&self.lat_p99_us).render_line())
            .num("lat_pool_p50_us", pool.p50 as f64)
            .num("lat_pool_p99_us", pool.p99 as f64);
        if let Some(m) = boot {
            j = j
                .num("lat_pool_median_us", m.median as f64)
                .num("lat_pool_median_lo_us", m.lo as f64)
                .num("lat_pool_median_hi_us", m.hi as f64);
        }
        j
    }
}

/// Fixed seed for the per-row latency bootstrap: output depends only on
/// the pooled histogram itself, keeping rows byte-identical at any
/// `ACFC_THREADS`.
const BOOTSTRAP_SEED: u64 = 0xACFC_B007;

/// Streaming progress for a sink: how far the emission has got.
#[derive(Debug, Clone, Copy)]
pub struct Progress {
    /// Rows emitted so far, including the current one.
    pub emitted: usize,
    /// Total rows the plan will emit.
    pub total: usize,
    /// Wall-clock seconds since the sweep started.
    pub elapsed_secs: f64,
    /// Wall-clock µs the just-emitted cell spent inside its worker
    /// (compute only — queueing and reorder wait excluded).
    pub cell_wall_us: u64,
    /// Index of the worker that ran the cell (`0` when the sweep ran
    /// inline on the calling thread).
    pub worker: usize,
}

/// End-of-sweep totals.
#[derive(Debug, Clone, Copy)]
pub struct SweepSummary {
    /// Cells executed.
    pub cells: usize,
    /// Simulator trials executed (cells × seeds, excluding baselines).
    pub trials: u64,
    /// Wall-clock seconds for the whole sweep.
    pub elapsed_secs: f64,
}

impl SweepSummary {
    /// Sweep throughput in cells per second.
    pub fn cells_per_sec(&self) -> f64 {
        self.cells as f64 / self.elapsed_secs.max(1e-9)
    }
}

/// A consumer of aggregate sweep rows, fed **in plan order, as cells
/// complete** — the streaming replacement for buffer-everything sweep
/// results. Rows arrive on the caller's thread, so sinks may hold
/// writers and mutable state without synchronisation. A sink's first
/// write error ends the sweep: no further cell starts and no sink is
/// called again.
pub trait RowSink {
    /// Called once before any row, with the plan about to run.
    fn begin(&mut self, _plan: &SweepPlan) -> io::Result<()> {
        Ok(())
    }

    /// Called once per cell, in plan order.
    fn row(&mut self, row: &AggRow, progress: &Progress) -> io::Result<()>;

    /// Called once after the last row.
    fn finish(&mut self, _summary: &SweepSummary) -> io::Result<()> {
        Ok(())
    }
}

/// Renders rows as an aligned, CI-annotated text table (`mean±ci95`
/// cells), streamed line by line.
pub struct TableSink<W: std::io::Write> {
    out: W,
}

impl<W: std::io::Write> TableSink<W> {
    /// A table sink writing to `out`.
    pub fn new(out: W) -> TableSink<W> {
        TableSink { out }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: std::io::Write> RowSink for TableSink<W> {
    fn begin(&mut self, _plan: &SweepPlan) -> io::Result<()> {
        writeln!(
            self.out,
            "{:<10} {:>3} {:>5} {:<14} {:>15} {:>15} {:>13} {:>11} {:>13} {:>15} {:>13} {:>9} {:>13} {:>11} {:>11}",
            "workload",
            "n",
            "λ",
            "protocol",
            "ratio",
            "Δratio",
            "ckpts",
            "forced",
            "ctrl-msgs",
            "pb-bits",
            "coord-ms",
            "fails",
            "lost-ms",
            "lat-p50-µs",
            "lat-p99-µs",
        )
    }

    fn row(&mut self, r: &AggRow, _progress: &Progress) -> io::Result<()> {
        writeln!(
            self.out,
            "{:<10} {:>3} {:>5.2} {:<14} {:>15} {:>15} {:>13} {:>11} {:>13} {:>15} {:>13} {:>9} {:>13} {:>11} {:>11}",
            r.workload,
            r.n,
            r.lambda,
            r.protocol.name(),
            r.overhead_ratio.render(3),
            r.d_overhead.render(3),
            r.checkpoints.render(1),
            r.forced.render(1),
            r.control_messages.render(1),
            r.piggyback_bits.render(0),
            r.coord_stall_ms.render(1),
            r.failures.render(1),
            r.lost_ms.render(1),
            r.lat_p50_us.render(0),
            r.lat_p99_us.render(0),
        )
    }

    fn finish(&mut self, summary: &SweepSummary) -> io::Result<()> {
        writeln!(
            self.out,
            "{} cells, {} trials in {:.1}s ({:.2} cells/s)",
            summary.cells,
            summary.trials,
            summary.elapsed_secs,
            summary.cells_per_sec()
        )
    }
}

/// Writes one compact JSON object per row (JSONL), flushing after every
/// line so the artifact grows while the sweep runs.
pub struct JsonlSink<W: std::io::Write> {
    out: W,
}

impl<W: std::io::Write> JsonlSink<W> {
    /// A JSONL sink writing to `out`.
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink { out }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: std::io::Write> RowSink for JsonlSink<W> {
    fn row(&mut self, r: &AggRow, _progress: &Progress) -> io::Result<()> {
        writeln!(self.out, "{}", r.json().render_line())?;
        self.out.flush()
    }
}

/// Narrates progress with an ETA extrapolated from the *recent* cell
/// rate — pointed at stderr, it keeps long sweeps honest without
/// touching the machine-readable streams.
///
/// The rate is windowed over the last [`PROGRESS_WINDOW`] emissions
/// rather than averaged since the start: plans order cells small-n
/// first, so a global average taken while the n = 64 block runs would
/// still be dominated by the cheap n = 2 cells and undershoot the ETA
/// badly. Until the window has two points the global average is the
/// only signal, so it serves as the fallback.
pub struct ProgressSink<W: std::io::Write> {
    out: W,
    window: std::collections::VecDeque<(usize, f64)>,
}

/// Emissions the [`ProgressSink`] ETA rate is windowed over.
pub const PROGRESS_WINDOW: usize = 16;

impl<W: std::io::Write> ProgressSink<W> {
    /// A progress narrator writing to `out`.
    pub fn new(out: W) -> ProgressSink<W> {
        ProgressSink {
            out,
            window: std::collections::VecDeque::new(),
        }
    }

    /// Cells/sec over the retained window, falling back to the global
    /// average while fewer than two window points exist.
    fn rate(&self, p: &Progress) -> f64 {
        if let (Some(&(e0, t0)), Some(&(e1, t1))) = (self.window.front(), self.window.back()) {
            if e1 > e0 && t1 > t0 {
                return (e1 - e0) as f64 / (t1 - t0);
            }
        }
        if p.elapsed_secs > 0.0 {
            p.emitted as f64 / p.elapsed_secs
        } else {
            0.0
        }
    }
}

impl<W: std::io::Write> RowSink for ProgressSink<W> {
    fn begin(&mut self, plan: &SweepPlan) -> io::Result<()> {
        writeln!(
            self.out,
            "sweep: {} cells × {} seeds = {} trials",
            plan.total_cells(),
            plan.seeds_per_cell(),
            plan.total_trials()
        )
    }

    fn row(&mut self, _r: &AggRow, p: &Progress) -> io::Result<()> {
        self.window.push_back((p.emitted, p.elapsed_secs));
        if self.window.len() > PROGRESS_WINDOW {
            self.window.pop_front();
        }
        let rate = self.rate(p);
        let eta = if rate > 0.0 {
            (p.total - p.emitted) as f64 / rate
        } else {
            0.0
        };
        writeln!(
            self.out,
            "sweep: {}/{} cells ({:.0}%), {:.1}s elapsed, eta {:.1}s",
            p.emitted,
            p.total,
            p.emitted as f64 * 100.0 / p.total.max(1) as f64,
            p.elapsed_secs,
            eta
        )?;
        self.out.flush()
    }

    fn finish(&mut self, s: &SweepSummary) -> io::Result<()> {
        writeln!(
            self.out,
            "sweep: done — {} cells in {:.1}s ({:.2} cells/s)",
            s.cells,
            s.elapsed_secs,
            s.cells_per_sec()
        )
    }
}

/// Buffers rows in memory — for callers (benches, tests) that want the
/// aggregate rows as values rather than a byte stream.
#[derive(Debug, Default)]
pub struct CollectSink {
    /// The rows, in plan order.
    pub rows: Vec<AggRow>,
}

impl RowSink for CollectSink {
    fn row(&mut self, r: &AggRow, _progress: &Progress) -> io::Result<()> {
        self.rows.push(r.clone());
        Ok(())
    }
}

/// Cells at least this multiple of the p99 cell wall time are flagged
/// as stragglers in the telemetry trailer.
pub const STRAGGLER_FACTOR: u64 = 2;

/// Slowest cells the telemetry trailer retains (straggler candidates).
const SLOWEST_KEPT: usize = 16;

/// One retained slow cell: plan coordinates plus its worker wall time.
#[derive(Debug, Clone)]
struct SlowCell {
    index: usize,
    workload: String,
    n: usize,
    lambda: f64,
    protocol: &'static str,
    wall_us: u64,
}

impl SlowCell {
    fn json(&self) -> Json {
        Json::new()
            .num("index", self.index as f64)
            .str("workload", &self.workload)
            .num("n", self.n as f64)
            .num("lambda", self.lambda)
            .str("protocol", self.protocol)
            .num("wall_us", self.wall_us as f64)
    }
}

/// Collects per-cell wall times, per-worker utilization, and straggler
/// candidates during a sweep, and appends **one** machine-readable
/// `{"type":"sweep_telemetry", ...}` JSONL line in
/// [`finish`](RowSink::finish) — after every row, so a `TelemetrySink`
/// sharing a file with a [`JsonlSink`] adds a trailer without
/// perturbing the byte-identical row stream above it.
///
/// The trailer carries wall-clock measurements and is therefore the
/// one deliberately non-deterministic line in the artifact; consumers
/// that byte-compare row streams should filter on the `type` key.
pub struct TelemetrySink<W: std::io::Write> {
    out: W,
    trials: u64,
    wall: acfc_obs::LocalHist,
    /// `(cells, busy_us)` per worker index, grown on demand.
    workers: Vec<(u64, u64)>,
    /// Slowest cells seen so far, wall-time-descending, bounded.
    slowest: Vec<SlowCell>,
}

impl<W: std::io::Write> TelemetrySink<W> {
    /// A telemetry sink writing its trailer line to `out`.
    pub fn new(out: W) -> TelemetrySink<W> {
        TelemetrySink {
            out,
            trials: 0,
            wall: acfc_obs::LocalHist::new(),
            workers: Vec::new(),
            slowest: Vec::new(),
        }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: std::io::Write> RowSink for TelemetrySink<W> {
    fn begin(&mut self, plan: &SweepPlan) -> io::Result<()> {
        self.trials = plan.total_trials();
        self.wall.reset();
        self.workers.clear();
        self.slowest.clear();
        Ok(())
    }

    fn row(&mut self, r: &AggRow, p: &Progress) -> io::Result<()> {
        self.wall.record(p.cell_wall_us);
        if self.workers.len() <= p.worker {
            self.workers.resize(p.worker + 1, (0, 0));
        }
        let (cells, busy) = &mut self.workers[p.worker];
        *cells += 1;
        *busy += p.cell_wall_us;
        self.slowest.push(SlowCell {
            index: p.emitted - 1,
            workload: r.workload.clone(),
            n: r.n,
            lambda: r.lambda,
            protocol: r.protocol.name(),
            wall_us: p.cell_wall_us,
        });
        // Keep the bounded top by wall time; plan order breaks ties so
        // the retained set is stable under equal timings.
        self.slowest
            .sort_by_key(|c| (u64::MAX - c.wall_us, c.index));
        self.slowest.truncate(SLOWEST_KEPT);
        Ok(())
    }

    fn finish(&mut self, s: &SweepSummary) -> io::Result<()> {
        let q = self.wall.percentiles();
        let snap = self.wall.snap();
        let elapsed_us = (s.elapsed_secs * 1e6).max(1.0);
        let workers: Vec<String> = self
            .workers
            .iter()
            .enumerate()
            .map(|(k, &(cells, busy_us))| {
                Json::new()
                    .num("worker", k as f64)
                    .num("cells", cells as f64)
                    .num("busy_us", busy_us as f64)
                    .num("utilization", busy_us as f64 / elapsed_us)
                    .render_line()
            })
            .collect();
        let threshold = q.p99.saturating_mul(STRAGGLER_FACTOR);
        let stragglers: Vec<String> = self
            .slowest
            .iter()
            .filter(|c| c.wall_us > threshold)
            .map(|c| c.json().render_line())
            .collect();
        let slowest: Vec<String> = self
            .slowest
            .iter()
            .map(|c| c.json().render_line())
            .collect();
        let line = Json::new()
            .str("type", "sweep_telemetry")
            .num("cells", s.cells as f64)
            .num("trials", self.trials as f64)
            .num("elapsed_secs", s.elapsed_secs)
            .num("cells_per_sec", s.cells_per_sec())
            .num("cell_wall_p50_us", q.p50 as f64)
            .num("cell_wall_p99_us", q.p99 as f64)
            .num("cell_wall_max_us", snap.max as f64)
            .num("straggler_threshold_us", threshold as f64)
            .raw("workers", format!("[{}]", workers.join(",")))
            .raw("slowest_cells", format!("[{}]", slowest.join(",")))
            .raw("stragglers", format!("[{}]", stragglers.join(",")));
        writeln!(self.out, "{}", line.render_line())?;
        self.out.flush()
    }
}

/// Executes the plan on [`configured_threads`] workers
/// (`ACFC_THREADS` overrides), streaming aggregate rows to every sink
/// in plan order. See [`run_sweep_threads`].
///
/// # Errors
///
/// Returns the first sink write error, which ended the sweep early.
pub fn run_sweep(plan: &SweepPlan, sinks: &mut [&mut dyn RowSink]) -> io::Result<SweepSummary> {
    let (summary, written) = sweep(plan, configured_threads(), sinks);
    written.map(|()| summary)
}

/// A finished cell travelling from a worker to the reorder buffer:
/// the aggregate row plus the telemetry the emit side attaches to
/// [`Progress`].
struct CellOut {
    row: AggRow,
    wall_us: u64,
    worker: usize,
}

/// What every cell of one `(workload, n)` block shares: the program,
/// prepared once for every protocol on the plan's axis, and its
/// per-trial `(bare makespan secs, failure horizon µs)` baselines.
struct Block {
    program: PreparedProgram,
    baselines: Vec<(f64, u64)>,
}

/// The calling worker's index, parsed from its `{label}-{k}` thread
/// name. `0` for unlabeled threads — in particular the calling thread
/// when the sweep runs inline (`threads <= 1`).
fn worker_index() -> usize {
    std::thread::current()
        .name()
        .and_then(|n| n.rsplit('-').next())
        .and_then(|k| k.parse().ok())
        .unwrap_or(0)
}

/// [`run_sweep`] with an explicit worker count.
///
/// Three phases, all on labeled scoped threads:
///
/// 1. **Blocks** (`sweep-base-k` workers): for every `(workload, n)`
///    block, the program built, compiled and — for appl-driven —
///    analysed once ([`PreparedProgram`]), and each trial's bare
///    (checkpoint-free, failure-free) run — the overhead denominator
///    *and* the failure horizon. Computed once per block and shared by
///    all its λ × protocol cells, so no cell analyses or compiles.
/// 2. **Paired reference** (`sweep-app-k` workers): the appl-driven
///    trials of every `(workload, n, λ)` column, computed once and
///    shared two ways — the appl-driven *cell* reuses them verbatim
///    (so this phase adds no net simulator work), and every other
///    protocol's cell diffs against them per trial to fill the
///    [`AggRow::d_overhead`] paired-difference column.
/// 3. **Cells** (`sweep-k` workers): work-stealing over
///    [`SweepPlan::cells`]; each worker runs its cell's trials in trial
///    order and reduces them to an [`AggRow`] locally. Finished rows
///    flow through a reorder buffer to the sinks in plan order, so the
///    emitted stream is bit-identical at any thread count while still
///    streaming during the run. Each cell's worker wall time and
///    worker index travel with the row via [`Progress`], feeding the
///    [`TelemetrySink`] without a second timing pass.
///
/// A sink's first write error ends the sweep early: no further cell
/// starts, no sink is called again, and the summary counts the cells
/// emitted before the error ([`run_sweep`] returns the error itself).
pub fn run_sweep_threads(
    plan: &SweepPlan,
    threads: usize,
    sinks: &mut [&mut dyn RowSink],
) -> SweepSummary {
    sweep(plan, threads, sinks).0
}

/// The body of [`run_sweep_threads`]: the summary plus the first sink
/// write error, if any.
fn sweep(
    plan: &SweepPlan,
    threads: usize,
    sinks: &mut [&mut dyn RowSink],
) -> (SweepSummary, io::Result<()>) {
    let t0 = Instant::now();
    let summary = |cells: usize| SweepSummary {
        cells,
        trials: cells as u64 * plan.seeds_per_cell,
        elapsed_secs: t0.elapsed().as_secs_f64(),
    };
    if let Err(e) = sinks.iter_mut().try_for_each(|sink| sink.begin(plan)) {
        return (summary(0), Err(e));
    }

    // Phase 1: per (workload, n) block, the program prepared for every
    // protocol on the axis and the shared baselines, one entry per
    // trial: (bare makespan secs, failure horizon µs).
    let blocks: Vec<(usize, usize)> = (0..plan.workloads.len())
        .flat_map(|w| plan.ns.iter().map(move |&n| (w, n)))
        .collect();
    let protocols = plan.protocols();
    let shared: Vec<Block> = par_map_labeled(&blocks, "sweep-base", |_, &(w, n)| {
        let program = PreparedProgram::new(&plan.workloads[w].program(n), n, &protocols);
        let baselines = (0..plan.seeds_per_cell)
            .map(|trial| {
                let sim = SimConfig::new(n).with_seed(plan.sim_seed(w, n, trial));
                let bare = program.bare_makespan(&sim);
                (bare, (bare * 1e6) as u64)
            })
            .collect();
        Block { program, baselines }
    });
    let block_of = |w: usize, n: usize| {
        let b = blocks
            .iter()
            .position(|&(bw, bn)| bw == w && bn == n)
            .expect("cell block exists");
        &shared[b]
    };

    // The trials of one cell, in trial order — shared by the paired
    // reference phase (appl-driven) and the cell phase (all kinds).
    let run_cell = |w: usize, n: usize, lambda: f64, protocol: ProtocolKind| -> Vec<RunStats> {
        let block = block_of(w, n);
        let lambda_idx = plan
            .lambdas
            .iter()
            .position(|&l| l == lambda)
            .expect("cell lambda is on the grid");
        (0..plan.seeds_per_cell)
            .map(|trial| {
                let (bare_secs, horizon_us) = block.baselines[trial as usize];
                let failures = if lambda > 0.0 {
                    FailurePlan::exponential(
                        n,
                        lambda,
                        SimTime(horizon_us.max(1)),
                        plan.fail_seed(w, n, lambda_idx, trial),
                    )
                } else {
                    FailurePlan::none()
                };
                let cc = CompareConfig::builder(n)
                    .interval_us(plan.interval_us)
                    .seed(plan.sim_seed(w, n, trial))
                    .failures(failures)
                    .build()
                    .expect("plan validation covers the config");
                run_protocol_against(&block.program, protocol, &cc, bare_secs)
            })
            .collect()
    };

    // Phase 2: the appl-driven paired reference, one entry per
    // (workload, n, λ) column.
    let columns: Vec<(usize, usize, f64)> = (0..plan.workloads.len())
        .flat_map(|w| {
            plan.ns
                .iter()
                .flat_map(move |&n| plan.lambdas.iter().map(move |&lambda| (w, n, lambda)))
        })
        .collect();
    let app_stats: Vec<Vec<RunStats>> = par_map_labeled(&columns, "sweep-app", |_, &(w, n, l)| {
        run_cell(w, n, l, ProtocolKind::AppDriven)
    });
    let app_of = |w: usize, n: usize, lambda: f64| {
        let c = columns
            .iter()
            .position(|&(cw, cn, cl)| cw == w && cn == n && cl == lambda)
            .expect("cell column exists");
        &app_stats[c]
    };

    // Phase 3: the cells, streamed through the reorder buffer.
    let cells = plan.cells();
    let total = cells.len();
    let mut emitted = 0usize;
    let mut written = Ok(());
    let stopped = AtomicBool::new(false);
    par_for_each_ordered_labeled(
        &cells,
        threads,
        "sweep",
        |_, cell| {
            // After a sink error no further cell starts.
            if stopped.load(Ordering::Relaxed) {
                return None;
            }
            let _cell_span = acfc_obs::span("protocols/sweep/cell");
            let cell_t0 = Instant::now();
            let workload = &plan.workloads[cell.workload];
            let app = app_of(cell.workload, cell.n, cell.lambda);
            // The appl-driven cell *is* the paired reference: reuse its
            // trials instead of re-simulating them.
            let stats: Vec<RunStats> = if cell.protocol == ProtocolKind::AppDriven {
                app.clone()
            } else {
                run_cell(cell.workload, cell.n, cell.lambda, cell.protocol)
            };
            let paired: Vec<f64> = app.iter().map(|s| s.overhead_ratio).collect();
            let row =
                AggRow::from_trials(workload.name(), cell, plan.seeds_per_cell, &stats, &paired);
            Some(CellOut {
                row,
                wall_us: cell_t0.elapsed().as_micros() as u64,
                worker: worker_index(),
            })
        },
        |_, out| {
            let Some(out) = out.filter(|_| written.is_ok()) else {
                return;
            };
            emitted += 1;
            let progress = Progress {
                emitted,
                total,
                elapsed_secs: t0.elapsed().as_secs_f64(),
                cell_wall_us: out.wall_us,
                worker: out.worker,
            };
            written = sinks
                .iter_mut()
                .try_for_each(|sink| sink.row(&out.row, &progress));
            stopped.store(written.is_err(), Ordering::Relaxed);
        },
    );
    if written.is_err() {
        return (summary(emitted - 1), written);
    }

    let summary = summary(total);
    let written = sinks.iter_mut().try_for_each(|sink| sink.finish(&summary));
    (summary, written)
}

/// Serialises aggregate rows as one JSON document (a `rows` array of
/// [`AggRow::json`] objects) — the buffered counterpart of the JSONL
/// stream for `--json` consumers.
pub fn render_agg_json(rows: &[AggRow]) -> String {
    let body: Vec<String> = rows.iter().map(|r| r.json().render_line()).collect();
    Json::new()
        .num("rows_len", rows.len() as f64)
        .raw("rows", format!("[\n  {}\n  ]", body.join(",\n  ")))
        .render()
}

// ---------------------------------------------------------------------
// Single-seed rows (the CLI's one-shot `--sweep` table/artifact shape).
// ---------------------------------------------------------------------

/// One sweep row: a protocol's stats at one `n` (single seed).
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Process count.
    pub n: usize,
    /// Measured stats.
    pub stats: RunStats,
}

/// The machine-readable single-seed comparison artifact: a workload
/// name plus one flat stats object per (`n`, protocol) run — typed,
/// where the former free function took a loose string and a slice.
#[derive(Debug, Clone)]
pub struct SweepArtifact {
    /// Workload display name.
    pub workload: String,
    /// The runs, in row order.
    pub runs: Vec<SweepRow>,
}

impl SweepArtifact {
    /// Bundles rows under a workload name.
    pub fn new(workload: impl Into<String>, runs: Vec<SweepRow>) -> SweepArtifact {
        SweepArtifact {
            workload: workload.into(),
            runs,
        }
    }

    /// Serialises the artifact as one JSON document (same schema the
    /// former `render_sweep_json` emitted: `workload` plus a `runs`
    /// array of flat per-run objects).
    pub fn to_json(&self) -> String {
        let runs: Vec<String> = self
            .runs
            .iter()
            .map(|r| {
                r.stats
                    .json(r.n)
                    .render()
                    .lines()
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        Json::new()
            .str("workload", &self.workload)
            .raw("runs", format!("[\n  {}\n  ]", runs.join(",\n  ")))
            .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_plan(seeds: u64) -> SweepPlan {
        SweepPlan::builder()
            .ns([2usize, 3])
            .seeds_per_cell(seeds)
            .failure_rates([0.0, 0.5])
            .seed(7)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_defaults_and_validation() {
        let plan = SweepPlan::builder().build().unwrap();
        assert_eq!(plan.ns(), &[2, 4, 8]);
        assert_eq!(plan.seeds_per_cell(), 3);
        assert_eq!(plan.failure_rates(), &[1.0]);
        assert_eq!(plan.workloads().len(), 1);
        assert_eq!(plan.workloads()[0].name(), "jacobi");
        assert_eq!(plan.interval_us(), 60_000);
        assert_eq!(plan.cic_variants(), CicVariant::all());
        assert_eq!(plan.total_cells(), 3 * 8);
        assert_eq!(plan.total_trials(), 72);

        assert_eq!(
            SweepPlan::builder().ns(Vec::new()).build().unwrap_err(),
            ConfigError::EmptyNs
        );
        assert_eq!(
            SweepPlan::builder().ns([0usize]).build().unwrap_err(),
            ConfigError::ZeroProcs
        );
        assert_eq!(
            SweepPlan::builder().ns([4097usize]).build().unwrap_err(),
            ConfigError::TooManyProcs { n: 4097, max: 4096 }
        );
        // Within the cap but over a caller-tightened memory budget: the
        // guardrail refuses with the estimate it computed.
        assert_eq!(
            SweepPlan::builder()
                .ns([2048usize])
                .memory_budget_mib(16)
                .build()
                .unwrap_err(),
            ConfigError::MemoryGuardrail {
                n: 2048,
                est_mib: crate::compare::estimated_run_mib(2048),
                budget_mib: 16,
            }
        );
        // The full supported range passes the default budget.
        assert!(SweepPlan::builder().ns([4096usize]).build().is_ok());
        assert_eq!(
            SweepPlan::builder().seeds_per_cell(0).build().unwrap_err(),
            ConfigError::ZeroSeeds
        );
        assert_eq!(
            SweepPlan::builder().interval_us(0).build().unwrap_err(),
            ConfigError::ZeroInterval
        );
        assert_eq!(
            SweepPlan::builder()
                .failure_rates([-1.0])
                .build()
                .unwrap_err(),
            ConfigError::BadFailureRate(-1.0)
        );
        assert_eq!(
            SweepPlan::builder()
                .workloads(Vec::new())
                .build()
                .unwrap_err(),
            ConfigError::NoWorkloads
        );
    }

    #[test]
    fn cic_variant_axis_dedupes_and_canonicalizes_order() {
        let plan = SweepPlan::builder()
            .cic_variants(vec![CicVariant::Lazy, CicVariant::Bcs, CicVariant::Bcs])
            .build()
            .unwrap();
        assert_eq!(plan.cic_variants(), &[CicVariant::Bcs, CicVariant::Lazy]);
        assert_eq!(plan.total_cells(), 3 * (4 + 2));

        let none = SweepPlan::builder()
            .cic_variants(Vec::new())
            .build()
            .unwrap();
        assert_eq!(none.cic_variants(), &[] as &[CicVariant]);
        assert!(none
            .cells()
            .iter()
            .all(|c| !matches!(c.protocol, ProtocolKind::Cic(_))));
    }

    #[test]
    fn cells_enumerate_workload_major_plan_order() {
        let plan = tiny_plan(1);
        let cells = plan.cells();
        assert_eq!(cells.len(), 2 * 2 * 8);
        // Order: n-major over λ over protocol (single workload); the
        // protocol axis is the four baselines then the CIC variants.
        assert_eq!(cells[0].n, 2);
        assert_eq!(cells[0].lambda, 0.0);
        assert_eq!(cells[0].protocol, ProtocolKind::AppDriven);
        assert_eq!(cells[4].protocol, ProtocolKind::Cic(CicVariant::Index));
        assert_eq!(cells[7].protocol, ProtocolKind::Cic(CicVariant::Lazy));
        assert_eq!(cells[8].lambda, 0.5);
        assert_eq!(cells[16].n, 3);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn sweep_streams_rows_in_plan_order_with_cis() {
        let plan = tiny_plan(3);
        let mut collect = CollectSink::default();
        let mut table = TableSink::new(Vec::new());
        let summary = run_sweep_threads(&plan, 2, &mut [&mut collect, &mut table]);
        assert_eq!(summary.cells, plan.total_cells());
        assert_eq!(summary.trials, plan.total_trials());
        assert!(summary.cells_per_sec() > 0.0);
        assert_eq!(collect.rows.len(), plan.total_cells());
        for (row, cell) in collect.rows.iter().zip(plan.cells()) {
            assert_eq!(row.n, cell.n);
            assert_eq!(row.protocol, cell.protocol);
            assert_eq!(row.lambda, cell.lambda);
            assert_eq!(row.seeds, 3);
            assert_eq!(row.completed, 3, "{} n={}", row.protocol.name(), row.n);
            // 3 seeds ⇒ every CI column is present (never NaN).
            for ci in [
                &row.overhead_ratio,
                &row.forced,
                &row.control_messages,
                &row.coord_stall_ms,
                &row.lat_p50_us,
                &row.lat_p99_us,
            ] {
                assert_eq!(ci.count, 3);
                assert!(ci.mean.is_finite() && ci.stddev.is_finite());
                assert!(ci.ci95_half.is_some());
            }
            // Pooled histogram holds all three trials' messages.
            assert!(row.latency.count > 0);
        }
        let text = String::from_utf8(table.out).unwrap();
        assert!(text.contains("lat-p99-µs"));
        assert!(text.contains("appl-driven"));
        assert!(text.contains("cells/s"));
        // Failure-free λ=0 rows really saw no failures.
        let free = &collect.rows[0];
        assert_eq!(free.lambda, 0.0);
        assert_eq!(free.failures.mean, 0.0);
    }

    /// A writer that takes one line, then fails every write the way a
    /// pipe does once its reader has gone.
    #[derive(Default)]
    struct OneLineThenBrokenPipe {
        lines: usize,
    }

    impl io::Write for OneLineThenBrokenPipe {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.lines > 0 {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            self.lines += buf.iter().filter(|&&b| b == b'\n').count();
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_sink_write_error_ends_the_sweep() {
        let plan = SweepPlan::builder()
            .ns([2usize])
            .seeds_per_cell(1)
            .failure_rates([0.0])
            .build()
            .unwrap();
        for threads in [1, 2] {
            let mut jsonl = JsonlSink::new(OneLineThenBrokenPipe::default());
            let mut collect = CollectSink::default();
            let summary = run_sweep_threads(&plan, threads, &mut [&mut jsonl, &mut collect]);
            assert_eq!(summary.cells, 1, "threads={threads}");
            assert_eq!(collect.rows.len(), 1, "threads={threads}");
            assert!(collect.rows.len() < plan.total_cells());
        }
        let mut jsonl = JsonlSink::new(OneLineThenBrokenPipe::default());
        let err = run_sweep(&plan, &mut [&mut jsonl]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn seeds_one_rows_report_absent_cis() {
        let plan = SweepPlan::builder()
            .ns([2usize])
            .seeds_per_cell(1)
            .failure_rates([0.0])
            .build()
            .unwrap();
        let mut collect = CollectSink::default();
        let mut jsonl = JsonlSink::new(Vec::new());
        run_sweep_threads(&plan, 1, &mut [&mut collect, &mut jsonl]);
        assert_eq!(collect.rows.len(), 8);
        for row in &collect.rows {
            assert_eq!(row.overhead_ratio.ci95_half, None);
            assert_eq!(row.lat_p99_us.ci95_half, None);
        }
        let text = String::from_utf8(jsonl.out).unwrap();
        assert_eq!(text.lines().count(), 8);
        assert!(!text.contains("NaN"));
        assert!(!text.contains("ci95"));
        assert!(text.contains("\"lat_pool_p50_us\""));
        // The bootstrap median interval rides the pooled histogram, so
        // it exists even at seeds = 1 (the pool holds every message of
        // the single trial).
        assert!(text.contains("\"lat_pool_median_us\""));
        assert!(text.contains("\"lat_pool_median_lo_us\""));
        assert!(text.contains("\"lat_pool_median_hi_us\""));
    }

    #[test]
    fn bootstrap_median_columns_are_ordered_and_match_the_pool() {
        let plan = tiny_plan(2);
        let mut collect = CollectSink::default();
        run_sweep_threads(&plan, 1, &mut [&mut collect]);
        let mut saw_pooled = false;
        for row in &collect.rows {
            if row.latency.count == 0 {
                continue;
            }
            saw_pooled = true;
            let m = acfc_obs::bootstrap_median_ci(
                &row.latency,
                acfc_obs::BOOTSTRAP_RESAMPLES,
                super::BOOTSTRAP_SEED,
            )
            .expect("non-empty pool bootstraps");
            assert!(m.lo <= m.hi, "{:?}", m);
            // The reported median is the pool's own p50 bound.
            assert_eq!(m.median, row.latency.quantile_bound(0.5));
            // And the row's JSON carries exactly these values.
            let line = row.json().render_line();
            assert!(line.contains(&format!("\"lat_pool_median_us\":{}", m.median)));
            assert!(line.contains(&format!("\"lat_pool_median_lo_us\":{}", m.lo)));
            assert!(line.contains(&format!("\"lat_pool_median_hi_us\":{}", m.hi)));
        }
        assert!(saw_pooled);
    }

    #[test]
    fn protocols_in_a_column_share_failure_plans() {
        // Same (workload, n, λ, trial) ⇒ the failure seed is identical
        // for every protocol (it simply isn't an input), and differs
        // across trials and λ indices.
        let plan = tiny_plan(2);
        let a = plan.fail_seed(0, 2, 1, 0);
        assert_eq!(a, plan.fail_seed(0, 2, 1, 0));
        assert_ne!(a, plan.fail_seed(0, 2, 1, 1));
        assert_ne!(a, plan.fail_seed(0, 2, 0, 0));
        assert_ne!(a, plan.fail_seed(0, 3, 1, 0));
        // Failure counts paired: every protocol row in one (n, λ>0)
        // column reports the same mean failure count.
        let mut collect = CollectSink::default();
        run_sweep_threads(&plan, 2, &mut [&mut collect]);
        let failing: Vec<&AggRow> = collect
            .rows
            .iter()
            .filter(|r| r.n == 2 && r.lambda > 0.0)
            .collect();
        assert_eq!(failing.len(), 8);
        for r in &failing {
            assert_eq!(
                r.failures.mean,
                failing[0].failures.mean,
                "{} saw a different failure plan",
                r.protocol.name()
            );
        }
    }

    #[test]
    fn progress_sink_narrates_and_jsonl_grows_per_row() {
        let plan = SweepPlan::builder()
            .ns([2usize])
            .seeds_per_cell(1)
            .failure_rates([0.0])
            .build()
            .unwrap();
        let mut progress = ProgressSink::new(Vec::new());
        let mut jsonl = JsonlSink::new(Vec::new());
        run_sweep_threads(&plan, 1, &mut [&mut progress, &mut jsonl]);
        let text = String::from_utf8(progress.out).unwrap();
        assert!(text.contains("8 cells × 1 seeds"));
        assert!(text.contains("1/8 cells"));
        assert!(text.contains("8/8 cells"));
        assert!(text.contains("done"));
        for line in String::from_utf8(jsonl.out).unwrap().lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn multi_workload_matrix_labels_rows() {
        let plan = SweepPlan::builder()
            .ns([2usize])
            .seeds_per_cell(1)
            .failure_rates([0.0])
            .workload(Workload::jacobi())
            .workload(Workload::new("pingpong", |_| programs::pingpong(4)))
            .build()
            .unwrap();
        let mut collect = CollectSink::default();
        run_sweep_threads(&plan, 2, &mut [&mut collect]);
        assert_eq!(collect.rows.len(), 16);
        assert!(collect.rows[..8].iter().all(|r| r.workload == "jacobi"));
        assert!(collect.rows[8..].iter().all(|r| r.workload == "pingpong"));
    }

    /// The single-seed row shape `acfc compare --json` writes: a typed
    /// artifact built from `compare_all` stats.
    #[test]
    fn single_seed_rows_build_a_typed_artifact() {
        let cc = CompareConfig::builder(2).build().unwrap();
        let program = programs::jacobi(10);
        let rows: Vec<SweepRow> = ProtocolKind::all()
            .into_iter()
            .map(|kind| SweepRow {
                n: 2,
                stats: crate::compare::run_protocol(&program, kind, &cc),
            })
            .collect();
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(
                r.stats.completed,
                "{} did not complete",
                r.stats.protocol.name()
            );
            assert!(r.stats.overhead_ratio.is_finite());
        }
        let json = SweepArtifact::new("jacobi", rows).to_json();
        assert!(json.contains("\"workload\": \"jacobi\""));
        for kind in ProtocolKind::all() {
            assert!(json.contains(&format!("\"protocol\": \"{}\"", kind.name())));
        }
        assert_eq!(json.matches("\"msg_latency_p99_us\"").count(), 8);
    }

    #[test]
    fn render_agg_json_wraps_rows() {
        let plan = SweepPlan::builder()
            .ns([2usize])
            .seeds_per_cell(1)
            .failure_rates([0.0])
            .build()
            .unwrap();
        let mut collect = CollectSink::default();
        run_sweep_threads(&plan, 1, &mut [&mut collect]);
        let json = render_agg_json(&collect.rows);
        assert!(json.contains("\"rows_len\": 8"));
        assert!(json.contains("\"protocol\":\"appl-driven\""));
        assert!(json.contains("\"overhead_ratio\":{\"mean\":"));
        assert!(json.contains("\"d_overhead_ratio\":{\"mean\":"));
    }

    #[test]
    fn paired_difference_is_zero_for_appl_driven_and_consistent_elsewhere() {
        let plan = tiny_plan(3);
        let mut collect = CollectSink::default();
        run_sweep_threads(&plan, 2, &mut [&mut collect]);
        for row in &collect.rows {
            assert_eq!(row.d_overhead.count, 3);
            if row.protocol == ProtocolKind::AppDriven {
                // The appl-driven row diffs against itself: identically
                // zero, with a zero-width interval, in every column.
                assert_eq!(row.d_overhead.mean, 0.0);
                assert_eq!(row.d_overhead.stddev, 0.0);
            } else {
                // Paired means must agree with the marginal means: the
                // appl-driven mean plus the paired difference is the
                // protocol's own mean (same trials, exact arithmetic
                // up to float associativity).
                let app = collect
                    .rows
                    .iter()
                    .find(|r| {
                        r.protocol == ProtocolKind::AppDriven
                            && r.n == row.n
                            && r.lambda == row.lambda
                            && r.workload == row.workload
                    })
                    .expect("column has an appl-driven row");
                let reconstructed = app.overhead_ratio.mean + row.d_overhead.mean;
                assert!(
                    (reconstructed - row.overhead_ratio.mean).abs() < 1e-9,
                    "{}: {} + {} != {}",
                    row.protocol.name(),
                    app.overhead_ratio.mean,
                    row.d_overhead.mean,
                    row.overhead_ratio.mean
                );
            }
        }
    }

    #[test]
    fn telemetry_sink_appends_one_parseable_trailer_after_the_rows() {
        let plan = tiny_plan(2);
        let mut jsonl = JsonlSink::new(Vec::new());
        let mut telemetry = TelemetrySink::new(Vec::new());
        let summary = run_sweep_threads(&plan, 2, &mut [&mut jsonl, &mut telemetry]);
        // The row stream is untouched: same line count as cells.
        let rows = String::from_utf8(jsonl.out).unwrap();
        assert_eq!(rows.lines().count(), plan.total_cells());
        assert!(!rows.contains("sweep_telemetry"));
        // The trailer is exactly one line and carries the schema.
        let trailer = String::from_utf8(telemetry.into_inner()).unwrap();
        assert_eq!(trailer.lines().count(), 1);
        let line = trailer.lines().next().unwrap();
        assert!(line.starts_with("{\"type\":\"sweep_telemetry\""), "{line}");
        for key in [
            "\"cells\":",
            "\"trials\":",
            "\"elapsed_secs\":",
            "\"cells_per_sec\":",
            "\"cell_wall_p50_us\":",
            "\"cell_wall_p99_us\":",
            "\"cell_wall_max_us\":",
            "\"straggler_threshold_us\":",
            "\"workers\":[",
            "\"slowest_cells\":[",
            "\"stragglers\":[",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
        assert!(line.contains(&format!("\"cells\":{}", summary.cells)));
        assert!(line.contains(&format!("\"trials\":{}", plan.total_trials())));
        // Worker attribution: cells distribute over the two workers
        // (or fewer if one finished the batch), never beyond them.
        assert!(line.contains("\"worker\":0"));
        assert!(line.contains("\"utilization\":"));
    }

    #[test]
    fn telemetry_worker_counts_cover_every_cell() {
        let plan = tiny_plan(1);
        let mut telemetry = TelemetrySink::new(Vec::new());
        run_sweep_threads(&plan, 3, &mut [&mut telemetry]);
        let total_cells: u64 = telemetry.workers.iter().map(|&(c, _)| c).sum();
        assert_eq!(total_cells as usize, plan.total_cells());
        assert!(telemetry.workers.len() <= 3);
        assert_eq!(telemetry.wall.snap().count as usize, plan.total_cells());
    }

    #[test]
    fn progress_eta_uses_the_windowed_rate() {
        // Feed a synthetic schedule where the first 20 cells were fast
        // (0.1 s each) and the window-covered recent cells are slow
        // (10 s each). The global average would predict ~2.6 s/cell;
        // the windowed rate must predict ~10 s/cell.
        let mut sink = ProgressSink::new(Vec::new());
        let row = {
            let plan = SweepPlan::builder()
                .ns([2usize])
                .seeds_per_cell(1)
                .failure_rates([0.0])
                .build()
                .unwrap();
            let mut collect = CollectSink::default();
            run_sweep_threads(&plan, 1, &mut [&mut collect]);
            collect.rows.remove(0)
        };
        let mut elapsed = 0.0;
        for emitted in 1..=40usize {
            elapsed += if emitted <= 20 { 0.1 } else { 10.0 };
            let p = Progress {
                emitted,
                total: 50,
                elapsed_secs: elapsed,
                cell_wall_us: 0,
                worker: 0,
            };
            sink.row(&row, &p).unwrap();
        }
        let text = String::from_utf8(sink.out).unwrap();
        let last = text.lines().last().unwrap();
        let eta: f64 = last
            .split("eta ")
            .nth(1)
            .and_then(|s| s.strip_suffix('s'))
            .unwrap()
            .parse()
            .unwrap();
        // 10 cells remain at ~10 s/cell. The global average would say
        // ~51 s; accept the windowed neighbourhood of 100 s.
        assert!((eta - 100.0).abs() < 5.0, "eta {eta} not windowed");
    }
}
