//! Head-to-head protocol comparison on the simulator.
//!
//! The paper compares protocols analytically (§4, Figures 8–9); this
//! module runs the same comparison *empirically*: each protocol
//! executes the same workload on the same simulated network and cost
//! model, with the same injected failures, and reports its measured
//! overhead ratio `r = Γ/T_bare − 1` against a bare run with
//! checkpointing disabled entirely.

use crate::app_driven::AppDriven;
use crate::cic::CicVariant;
use acfc_mpsl::Program;
use acfc_obs::HistSnapshot;
use acfc_sim::{
    compile, run_observed_with, run_with_hooks, Compiled, FailurePlan, Hooks, SimConfig, SimObs,
    SimTime, Trace,
};

/// The protocols under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// The paper's coordination-free protocol (offline analysis).
    AppDriven,
    /// Independent local timers, rollback-propagation recovery.
    Uncoordinated,
    /// Synchronise-and-stop coordinated waves.
    SyncAndStop,
    /// Chandy–Lamport snapshot waves.
    ChandyLamport,
    /// Communication-induced checkpointing, one family member per
    /// [`CicVariant`].
    Cic(CicVariant),
}

impl ProtocolKind {
    /// All protocols, in the paper's presentation order; the CIC
    /// family expands into its four members.
    pub fn all() -> [ProtocolKind; 8] {
        [
            ProtocolKind::AppDriven,
            ProtocolKind::Uncoordinated,
            ProtocolKind::SyncAndStop,
            ProtocolKind::ChandyLamport,
            ProtocolKind::Cic(CicVariant::Index),
            ProtocolKind::Cic(CicVariant::Bcs),
            ProtocolKind::Cic(CicVariant::Hmnr),
            ProtocolKind::Cic(CicVariant::Lazy),
        ]
    }

    /// The non-CIC protocols, in presentation order — the base axis
    /// sweeps combine with a chosen set of CIC variants.
    pub fn base() -> [ProtocolKind; 4] {
        [
            ProtocolKind::AppDriven,
            ProtocolKind::Uncoordinated,
            ProtocolKind::SyncAndStop,
            ProtocolKind::ChandyLamport,
        ]
    }

    /// Display name matching the paper's figures ("appl-driven" etc.).
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::AppDriven => "appl-driven",
            ProtocolKind::Uncoordinated => "uncoordinated",
            ProtocolKind::SyncAndStop => "SaS",
            ProtocolKind::ChandyLamport => "C-L",
            ProtocolKind::Cic(v) => v.name(),
        }
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error from parsing a [`ProtocolKind`] (or [`CicVariant`]) name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseProtocolError {
    input: String,
}

impl ParseProtocolError {
    /// The rejected input, verbatim.
    pub fn input(&self) -> &str {
        &self.input
    }
}

impl std::fmt::Display for ParseProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown protocol `{}` (expected one of: {}, \
             or a bare CIC variant index|bcs|hmnr|lazy)",
            self.input,
            ProtocolKind::all().map(ProtocolKind::name).join(", "),
        )
    }
}

impl std::error::Error for ParseProtocolError {}

impl std::str::FromStr for ProtocolKind {
    type Err = ParseProtocolError;

    /// Parses a protocol name. Accepts every [`ProtocolKind::name`]
    /// spelling case-insensitively ("appl-driven", "SaS", "C-L",
    /// "CIC-hmnr", …) plus the historical bare `--cic` variant
    /// spellings (`index`, `bcs`, `hmnr`, `lazy`), so
    /// `k.to_string().parse()` round-trips for every variant.
    fn from_str(s: &str) -> Result<ProtocolKind, ParseProtocolError> {
        let t = s.trim();
        if let Some(k) = ProtocolKind::all()
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(t))
        {
            return Ok(k);
        }
        if let Some(v) = CicVariant::all()
            .into_iter()
            .find(|v| v.cli_name().eq_ignore_ascii_case(t))
        {
            return Ok(ProtocolKind::Cic(v));
        }
        Err(ParseProtocolError {
            input: s.to_string(),
        })
    }
}

impl std::fmt::Display for CicVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for CicVariant {
    type Err = ParseProtocolError;

    /// Parses a CIC variant from either its display name ("CIC-bcs")
    /// or the bare `--cic` spelling ("bcs"), case-insensitively.
    fn from_str(s: &str) -> Result<CicVariant, ParseProtocolError> {
        match s.parse::<ProtocolKind>()? {
            ProtocolKind::Cic(v) => Ok(v),
            _ => Err(ParseProtocolError {
                input: s.to_string(),
            }),
        }
    }
}

/// Largest process count the comparison machinery accepts. The engine's
/// large-n core (calendar event queue, arena messages, O(Δ) clock
/// piggybacks) makes thousands of ranks practical; the remaining bound
/// is a sanity cap well past the paper's Figure 8 range, backed by the
/// memory guardrail below rather than a hard-coded small fleet.
pub const MAX_COMPARE_PROCS: usize = 4096;

/// Default per-run memory budget for the guardrail, MiB. Large enough
/// that the full supported range (n = [`MAX_COMPARE_PROCS`]) passes —
/// the cost estimate at 4096 ranks is ~512 MiB — while still refusing
/// configurations that a caller-supplied tighter budget rules out.
pub const DEFAULT_MEMORY_BUDGET_MIB: u64 = 2048;

/// Coarse upper estimate of one simulation run's resident memory at
/// `n` processes, MiB: n² × 16 bytes plus a per-process allowance for
/// trace records. The quadratic term is one full-support sparse
/// checkpoint stamp per process (n entries of 16 bytes), what a run
/// whose processes all know each other records per round of
/// checkpoints; the working clocks are sparse and, with the
/// neighbour-exchange workloads' small supports, far smaller.
/// Deliberately pessimistic, because it gates runs *before* they
/// allocate.
pub fn estimated_run_mib(n: usize) -> u64 {
    let bytes = 16 * (n as u64) * (n as u64) + 65_536 * n as u64;
    bytes.div_ceil(1 << 20)
}

/// A validation failure from [`CompareConfig::builder`] or
/// [`SweepPlan::builder`](crate::sweep::SweepPlan::builder) — typed, so
/// callers can match on *what* is wrong instead of parsing a panic
/// string, and nothing is silently clamped.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// Process count was 0.
    ZeroProcs,
    /// Process count exceeds [`MAX_COMPARE_PROCS`].
    TooManyProcs {
        /// The requested process count.
        n: usize,
        /// The supported maximum.
        max: usize,
    },
    /// Checkpoint interval was 0 µs (timer/wave protocols would spin).
    ZeroInterval,
    /// A sweep was given no process counts.
    EmptyNs,
    /// A sweep was given zero seeds per cell.
    ZeroSeeds,
    /// A failure rate was negative or not finite.
    BadFailureRate(f64),
    /// A sweep was given no workloads.
    NoWorkloads,
    /// The estimated memory for a run at this process count exceeds
    /// the configured budget (see [`estimated_run_mib`]).
    MemoryGuardrail {
        /// The requested process count.
        n: usize,
        /// Estimated resident memory for one run, MiB.
        est_mib: u64,
        /// The configured budget, MiB.
        budget_mib: u64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroProcs => write!(f, "process count must be at least 1"),
            ConfigError::TooManyProcs { n, max } => {
                write!(f, "process count {n} exceeds the supported maximum {max}")
            }
            ConfigError::ZeroInterval => write!(f, "checkpoint interval must be at least 1 µs"),
            ConfigError::EmptyNs => write!(f, "sweep needs at least one process count"),
            ConfigError::ZeroSeeds => write!(f, "sweep needs at least one seed per cell"),
            ConfigError::BadFailureRate(r) => {
                write!(f, "failure rate must be finite and non-negative, got {r}")
            }
            ConfigError::NoWorkloads => write!(f, "sweep needs at least one workload"),
            ConfigError::MemoryGuardrail {
                n,
                est_mib,
                budget_mib,
            } => write!(
                f,
                "a run at {n} processes is estimated at {est_mib} MiB, \
                 over the {budget_mib} MiB memory budget"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Parameters of a comparison run. Construct via
/// [`CompareConfig::builder`].
#[derive(Debug, Clone)]
pub struct CompareConfig {
    /// The simulator configuration (network + cost model + seed).
    pub sim: SimConfig,
    /// Checkpoint interval `T` for timer/wave protocols, µs.
    pub interval_us: u64,
    /// Timer skew for uncoordinated/CIC, µs.
    pub skew_us: u64,
    /// Failure plan (empty = failure-free comparison).
    pub failures: FailurePlan,
}

impl CompareConfig {
    /// Starts building a comparison at `n` processes. Defaults: 60 ms
    /// interval, skew = interval/3, simulator seed `0xACFC`, no
    /// failures. Validation happens at
    /// [`build`](CompareConfigBuilder::build).
    pub fn builder(n: usize) -> CompareConfigBuilder {
        CompareConfigBuilder {
            n,
            interval_us: 60_000,
            skew_us: None,
            seed: None,
            failures: FailurePlan::none(),
            memory_budget_mib: DEFAULT_MEMORY_BUDGET_MIB,
        }
    }
}

/// Builder for [`CompareConfig`]: named setters over positional fields,
/// with validation ([`ConfigError`]) at [`build`](Self::build) instead
/// of silent clamping at use sites.
#[derive(Debug, Clone)]
pub struct CompareConfigBuilder {
    n: usize,
    interval_us: u64,
    skew_us: Option<u64>,
    seed: Option<u64>,
    failures: FailurePlan,
    memory_budget_mib: u64,
}

impl CompareConfigBuilder {
    /// Checkpoint interval `T` for timer/wave protocols, µs.
    pub fn interval_us(mut self, interval_us: u64) -> Self {
        self.interval_us = interval_us;
        self
    }

    /// Timer skew for uncoordinated/CIC, µs (default: interval/3).
    pub fn skew_us(mut self, skew_us: u64) -> Self {
        self.skew_us = Some(skew_us);
        self
    }

    /// Simulator RNG seed (jitter; default `0xACFC`).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Failure plan to inject (default: none).
    pub fn failures(mut self, failures: FailurePlan) -> Self {
        self.failures = failures;
        self
    }

    /// Memory budget for the guardrail, MiB (default
    /// [`DEFAULT_MEMORY_BUDGET_MIB`]). [`build`](Self::build) refuses
    /// process counts whose estimated footprint exceeds it.
    pub fn memory_budget_mib(mut self, budget_mib: u64) -> Self {
        self.memory_budget_mib = budget_mib;
        self
    }

    /// Validates and produces the config.
    pub fn build(self) -> Result<CompareConfig, ConfigError> {
        if self.n == 0 {
            return Err(ConfigError::ZeroProcs);
        }
        if self.n > MAX_COMPARE_PROCS {
            return Err(ConfigError::TooManyProcs {
                n: self.n,
                max: MAX_COMPARE_PROCS,
            });
        }
        let est_mib = estimated_run_mib(self.n);
        if est_mib > self.memory_budget_mib {
            return Err(ConfigError::MemoryGuardrail {
                n: self.n,
                est_mib,
                budget_mib: self.memory_budget_mib,
            });
        }
        if self.interval_us == 0 {
            return Err(ConfigError::ZeroInterval);
        }
        let mut sim = SimConfig::new(self.n);
        if let Some(seed) = self.seed {
            sim = sim.with_seed(seed);
        }
        Ok(CompareConfig {
            sim,
            interval_us: self.interval_us,
            skew_us: self.skew_us.unwrap_or(self.interval_us / 3),
            failures: self.failures,
        })
    }
}

/// Measured statistics for one protocol on one workload.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Which protocol.
    pub protocol: ProtocolKind,
    /// Whether the run completed.
    pub completed: bool,
    /// Makespan in seconds.
    pub makespan_secs: f64,
    /// Bare (no checkpointing, no failures) makespan in seconds.
    pub bare_secs: f64,
    /// Measured overhead ratio `makespan/bare − 1`.
    pub overhead_ratio: f64,
    /// Total checkpoints taken (all triggers).
    pub checkpoints: u64,
    /// Forced checkpoints (CIC).
    pub forced: u64,
    /// Protocol control messages.
    pub control_messages: u64,
    /// Protocol control bits.
    pub control_bits: u64,
    /// Protocol state piggybacked on application messages, bits (CIC;
    /// zero for every protocol that doesn't ride the app traffic).
    pub piggyback_bits: u64,
    /// Time stalled in checkpoint overhead + coordination, µs.
    pub ckpt_stall_us: u64,
    /// Coordination-only share of [`ckpt_stall_us`](RunStats::ckpt_stall_us)
    /// (wave round-trips, marker floods) — zero for the
    /// application-driven protocol, which is the paper's headline claim
    /// as a measured column.
    pub coord_stall_us: u64,
    /// Failures survived.
    pub failures: u64,
    /// Work lost to rollbacks, µs.
    pub lost_us: u64,
    /// Largest per-process rollback depth over all failures
    /// (checkpoints discarded).
    pub max_rollback_depth: u64,
    /// Message-latency histogram (µs) from the observed run.
    pub latency: HistSnapshot,
    /// Event-queue depth histogram sampled at every pop.
    pub queue_depth: HistSnapshot,
    /// Interval between consecutive checkpoint starts, µs.
    pub ckpt_interval: HistSnapshot,
}

impl RunStats {
    /// The run's stats as a flat JSON object (stable keys; `n` is the
    /// process count of the run). Returned as a
    /// [`Json`](acfc_util::bench::Json) builder so callers pick the
    /// layout — `render()` for pretty artifacts, `render_line()` for
    /// JSONL streams — instead of re-parsing a pre-rendered string.
    pub fn json(&self, n: usize) -> acfc_util::bench::Json {
        let lat = self.latency.percentiles();
        let qd = self.queue_depth.percentiles();
        let ci = self.ckpt_interval.percentiles();
        acfc_util::bench::Json::new()
            .num("n", n as f64)
            .str("protocol", self.protocol.name())
            .num("completed", if self.completed { 1.0 } else { 0.0 })
            .num("makespan_secs", self.makespan_secs)
            .num("bare_secs", self.bare_secs)
            .num("overhead_ratio", self.overhead_ratio)
            .num("checkpoints", self.checkpoints as f64)
            .num("forced_checkpoints", self.forced as f64)
            .num("control_messages", self.control_messages as f64)
            .num("control_bits", self.control_bits as f64)
            .num("piggyback_bits", self.piggyback_bits as f64)
            .num("ckpt_stall_us", self.ckpt_stall_us as f64)
            .num("coord_stall_us", self.coord_stall_us as f64)
            .num("failures", self.failures as f64)
            .num("lost_us", self.lost_us as f64)
            .num("max_rollback_depth", self.max_rollback_depth as f64)
            .num("msg_latency_p50_us", lat.p50 as f64)
            .num("msg_latency_p90_us", lat.p90 as f64)
            .num("msg_latency_p99_us", lat.p99 as f64)
            .num("queue_depth_p50", qd.p50 as f64)
            .num("queue_depth_p90", qd.p90 as f64)
            .num("queue_depth_p99", qd.p99 as f64)
            .num("ckpt_interval_p50_us", ci.p50 as f64)
            .num("ckpt_interval_p90_us", ci.p90 as f64)
            .num("ckpt_interval_p99_us", ci.p99 as f64)
    }
}

/// Hooks that disable checkpointing entirely (the bare baseline).
#[derive(Debug, Clone, Copy, Default)]
struct NoCheckpointing;

impl Hooks for NoCheckpointing {
    fn take_app_checkpoint(&mut self, _p: usize, _now: SimTime) -> bool {
        false
    }

    fn uses_timers(&mut self) -> bool {
        false
    }
}

fn stats_from(
    protocol: ProtocolKind,
    trace: &Trace,
    obs: &SimObs,
    bare_secs: f64,
    piggyback_bits: u64,
) -> RunStats {
    let m = &trace.metrics;
    let makespan = trace.makespan_secs();
    let max_rollback_depth = trace
        .failures
        .iter()
        .flat_map(|f| {
            f.latest_seq
                .iter()
                .zip(&f.restored_seq)
                .map(|(&latest, restored)| latest - restored.unwrap_or(0))
        })
        .max()
        .unwrap_or(0);
    RunStats {
        protocol,
        completed: trace.completed(),
        makespan_secs: makespan,
        bare_secs,
        overhead_ratio: makespan / bare_secs - 1.0,
        checkpoints: m.app_checkpoints
            + m.timer_checkpoints
            + m.forced_checkpoints
            + m.coordinated_checkpoints,
        forced: m.forced_checkpoints,
        control_messages: m.control_messages,
        control_bits: m.control_bits,
        piggyback_bits,
        ckpt_stall_us: m.ckpt_stall_us,
        coord_stall_us: m.coord_stall_us,
        failures: m.failures,
        lost_us: trace.failures.iter().map(|f| f.lost_us).sum(),
        max_rollback_depth,
        latency: obs.msg_latency_us.snap(),
        queue_depth: obs.queue_depth.snap(),
        ckpt_interval: obs.ckpt_interval_us.snap(),
    }
}

/// A program made ready for protocol runs at one process count: compiled
/// once for the bare baseline and every protocol that runs it as
/// written, and — when the application-driven protocol is among those
/// to run — analysed and compiled once more in its transformed form.
/// Every run on one `(program, n)` shares it, so no run analyses or
/// compiles.
#[derive(Debug)]
pub struct PreparedProgram {
    compiled: Compiled,
    app_driven: Option<AppDriven>,
}

impl PreparedProgram {
    /// Compiles `program` and, if `protocols` includes
    /// [`ProtocolKind::AppDriven`], runs its offline analysis for
    /// `nprocs` processes.
    ///
    /// # Panics
    ///
    /// Panics if the application-driven analysis fails on the program.
    pub fn new(program: &Program, nprocs: usize, protocols: &[ProtocolKind]) -> PreparedProgram {
        let app_driven = protocols.contains(&ProtocolKind::AppDriven).then(|| {
            AppDriven::prepare(program, nprocs.min(acfc_core::attr::MAX_ANALYSIS_RANKS))
                .unwrap_or_else(|e| panic!("analysis failed: {e}"))
        });
        PreparedProgram {
            compiled: compile(program),
            app_driven,
        }
    }

    /// Makespan in seconds with checkpointing disabled and no failures
    /// — the `T_bare` denominator of every overhead ratio. Runs that
    /// share a `(program, n, seed)` baseline compute it once and pass
    /// it to [`run_protocol_against`].
    pub fn bare_makespan(&self, sim: &SimConfig) -> f64 {
        let mut hooks = NoCheckpointing;
        run_with_hooks(&self.compiled, sim, &mut hooks).makespan_secs()
    }
}

/// Runs `protocol` on `program` under `config` and returns its stats.
///
/// The application-driven protocol runs the *transformed* program from
/// the offline analysis; every other protocol runs the original (their
/// own schedules replace the application's checkpoint statements). The
/// bare baseline disables checkpoints and failures.
///
/// # Panics
///
/// Panics if the application-driven analysis fails on the program.
pub fn run_protocol(program: &Program, protocol: ProtocolKind, config: &CompareConfig) -> RunStats {
    let prepared = PreparedProgram::new(program, config.sim.nprocs, &[protocol]);
    let bare_secs = prepared.bare_makespan(&config.sim);
    run_protocol_against(&prepared, protocol, config, bare_secs)
}

/// Like [`run_protocol`], but on a program prepared once for many runs
/// and against a caller-supplied bare makespan (from
/// [`PreparedProgram::bare_makespan`]), skipping the redundant baseline
/// run.
///
/// # Panics
///
/// Panics if `protocol` is appl-driven and `prepared` was prepared
/// without it.
pub fn run_protocol_against(
    prepared: &PreparedProgram,
    protocol: ProtocolKind,
    config: &CompareConfig,
    bare_secs: f64,
) -> RunStats {
    let mut obs = SimObs::counters();
    let (trace, piggyback_bits) = run_protocol_observed(prepared, protocol, config, &mut obs);
    stats_from(protocol, &trace, &obs, bare_secs, piggyback_bits)
}

/// Runs `protocol` with a timeline-mode collector and returns both the
/// trace and the collector — the inputs one
/// [`acfc_sim::MergedRun`] track group of the merged Perfetto export
/// needs.
///
/// # Panics
///
/// Panics if the application-driven analysis fails on the program.
pub fn run_protocol_timeline(
    program: &Program,
    protocol: ProtocolKind,
    config: &CompareConfig,
) -> (Trace, SimObs) {
    let prepared = PreparedProgram::new(program, config.sim.nprocs, &[protocol]);
    let mut obs = SimObs::timeline();
    let (trace, _piggyback_bits) = run_protocol_observed(&prepared, protocol, config, &mut obs);
    (trace, obs)
}

/// One observed run under `protocol`, through the one protocol
/// dispatch ([`ProtocolKind::coordinator`]). Returns the trace plus the
/// protocol's piggybacked bits.
fn run_protocol_observed(
    prepared: &PreparedProgram,
    protocol: ProtocolKind,
    config: &CompareConfig,
    obs: &mut SimObs,
) -> (Trace, u64) {
    let compiled = match protocol {
        ProtocolKind::AppDriven => {
            &prepared
                .app_driven
                .as_ref()
                .expect("the program was prepared for appl-driven runs")
                .compiled
        }
        _ => &prepared.compiled,
    };
    let mut coordinator = protocol.coordinator(
        config.sim.nprocs,
        config.interval_us,
        config.skew_us,
        &config.sim.net,
    );
    let picker = coordinator.picker();
    let trace = run_observed_with(
        compiled,
        &config.sim,
        &mut *coordinator,
        config.failures.clone(),
        picker,
        obs,
    );
    (trace, coordinator.piggyback_bits())
}

/// Runs every protocol on the workload against one shared bare
/// baseline; returns stats in [`ProtocolKind::all`] order.
///
/// # Panics
///
/// Panics if the application-driven analysis fails on the program.
pub fn compare_all(program: &Program, config: &CompareConfig) -> Vec<RunStats> {
    let kinds = ProtocolKind::all();
    let prepared = PreparedProgram::new(program, config.sim.nprocs, &kinds);
    let bare_secs = prepared.bare_makespan(&config.sim);
    kinds
        .into_iter()
        .map(|k| run_protocol_against(&prepared, k, config, bare_secs))
        .collect()
}

/// Renders stats as an aligned text table (one row per protocol):
/// makespans and overhead ratio, checkpoint/control counters, the
/// coordination-stall column, and message-latency percentile bounds.
pub fn render_table(stats: &[RunStats]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:>9} {:>9} {:>9} {:>7} {:>7} {:>9} {:>8} {:>9} {:>6} {:>9} {:>17}\n",
        "protocol",
        "makespan",
        "bare",
        "ratio",
        "ckpts",
        "forced",
        "ctrl-msgs",
        "pb-bits",
        "coord-ms",
        "fails",
        "lost-ms",
        "lat-p50/p90/p99"
    ));
    for s in stats {
        let q = s.latency.percentiles();
        out.push_str(&format!(
            "{:<14} {:>8.3}s {:>8.3}s {:>9.4} {:>7} {:>7} {:>9} {:>8} {:>9.1} {:>6} {:>9.1} {:>17}\n",
            s.protocol.name(),
            s.makespan_secs,
            s.bare_secs,
            s.overhead_ratio,
            s.checkpoints,
            s.forced,
            s.control_messages,
            s.piggyback_bits,
            s.coord_stall_us as f64 / 1000.0,
            s.failures,
            s.lost_us as f64 / 1000.0,
            format!("{}/{}/{}µs", q.p50, q.p90, q.p99),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> Program {
        acfc_mpsl::programs::jacobi(6)
    }

    #[test]
    fn all_protocols_complete_failure_free() {
        let cfg = CompareConfig::builder(4).build().unwrap();
        let stats = compare_all(&workload(), &cfg);
        assert_eq!(stats.len(), 8);
        for s in &stats {
            assert!(s.completed, "{} did not complete", s.protocol.name());
            assert!(
                s.overhead_ratio >= 0.0,
                "{}: {}",
                s.protocol.name(),
                s.overhead_ratio
            );
        }
        let table = render_table(&stats);
        assert!(table.contains("appl-driven"));
        assert!(table.contains("CIC-hmnr"));
        assert!(table.contains("coord-ms"));
        assert!(table.contains("pb-bits"));
        assert!(table.contains("lat-p50/p90/p99"));
        assert!(table.lines().count() >= 9);
        // Every run observed the same workload's messages, so the
        // latency histograms are populated and their percentile bounds
        // are ordered.
        for s in &stats {
            assert!(s.latency.count > 0, "{}", s.protocol.name());
            let q = s.latency.percentiles();
            assert!(q.p50 <= q.p90 && q.p90 <= q.p99);
            assert!(s.queue_depth.count > 0);
        }
    }

    /// One preparation and one bare run shared by all eight protocols
    /// reproduce each protocol's own `run_protocol` exactly.
    #[test]
    fn compare_all_matches_one_run_per_protocol() {
        let cfg = CompareConfig::builder(4)
            .failures(FailurePlan::at(vec![(SimTime::from_millis(150), 1)]))
            .build()
            .unwrap();
        let stats = compare_all(&workload(), &cfg);
        for (s, kind) in stats.iter().zip(ProtocolKind::all()) {
            let alone = run_protocol(&workload(), kind, &cfg);
            assert_eq!(s.json(4).render(), alone.json(4).render(), "{kind}");
        }
    }

    #[test]
    fn coordination_stall_separates_coordinated_from_free() {
        let cfg = CompareConfig::builder(4).build().unwrap();
        let stats = compare_all(&workload(), &cfg);
        let by = |k: ProtocolKind| stats.iter().find(|s| s.protocol == k).unwrap();
        assert_eq!(by(ProtocolKind::AppDriven).coord_stall_us, 0);
        assert_eq!(by(ProtocolKind::Uncoordinated).coord_stall_us, 0);
        assert!(by(ProtocolKind::SyncAndStop).coord_stall_us > 0);
        assert!(by(ProtocolKind::ChandyLamport).coord_stall_us > 0);
        // The coordination share never exceeds the total stall.
        for s in &stats {
            assert!(s.coord_stall_us <= s.ckpt_stall_us, "{}", s.protocol.name());
        }
    }

    #[test]
    fn stats_json_carries_percentile_fields() {
        let cfg = CompareConfig::builder(2).build().unwrap();
        let s = run_protocol(&workload(), ProtocolKind::AppDriven, &cfg);
        let json = s.json(2).render();
        for key in [
            "\"protocol\": \"appl-driven\"",
            "\"forced_checkpoints\"",
            "\"control_messages\"",
            "\"coord_stall_us\"",
            "\"msg_latency_p50_us\"",
            "\"msg_latency_p99_us\"",
            "\"queue_depth_p90\"",
            "\"ckpt_interval_p99_us\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn app_driven_has_no_control_traffic_and_others_do() {
        let cfg = CompareConfig::builder(4).build().unwrap();
        let stats = compare_all(&workload(), &cfg);
        let by = |k: ProtocolKind| stats.iter().find(|s| s.protocol == k).unwrap();
        assert_eq!(by(ProtocolKind::AppDriven).control_messages, 0);
        assert_eq!(by(ProtocolKind::Uncoordinated).control_messages, 0);
        assert!(by(ProtocolKind::SyncAndStop).control_messages > 0);
        assert!(by(ProtocolKind::ChandyLamport).control_messages > 0);
        // C-L floods more markers than SaS exchanges control messages
        // (2n(n-1) vs 5(n-1)) once n > 3.
        assert!(
            by(ProtocolKind::ChandyLamport).control_messages
                > by(ProtocolKind::SyncAndStop).control_messages
        );
    }

    #[test]
    fn piggyback_bits_meter_only_the_cic_family() {
        let cfg = CompareConfig::builder(4).build().unwrap();
        let stats = compare_all(&workload(), &cfg);
        let by = |k: ProtocolKind| stats.iter().find(|s| s.protocol == k).unwrap();
        for base in ProtocolKind::base() {
            assert_eq!(by(base).piggyback_bits, 0, "{}", base.name());
        }
        let scalar = by(ProtocolKind::Cic(CicVariant::Index)).piggyback_bits;
        assert!(scalar > 0);
        assert_eq!(
            by(ProtocolKind::Cic(CicVariant::Bcs)).piggyback_bits,
            scalar
        );
        assert_eq!(
            by(ProtocolKind::Cic(CicVariant::Lazy)).piggyback_bits,
            scalar
        );
        // The vector-carrying member pays per-process state on the wire.
        assert!(by(ProtocolKind::Cic(CicVariant::Hmnr)).piggyback_bits > scalar);
        // All members ride the same app traffic: no control messages.
        for v in CicVariant::all() {
            assert_eq!(by(ProtocolKind::Cic(v)).control_messages, 0, "{}", v.name());
        }
    }

    #[test]
    fn comparison_with_failures_still_completes() {
        let mut cfg = CompareConfig::builder(2)
            .interval_us(40_000)
            .build()
            .unwrap();
        cfg.failures = FailurePlan::at(vec![(SimTime::from_millis(150), 0)]);
        for s in compare_all(&workload(), &cfg) {
            assert!(s.completed, "{} failed", s.protocol.name());
            assert_eq!(s.failures, 1, "{}", s.protocol.name());
            assert!(s.lost_us > 0, "{} lost no work?", s.protocol.name());
        }
    }

    #[test]
    fn app_driven_rollback_depth_is_bounded_by_one_wave() {
        // Aligned straight-cut recovery never discards more than the
        // skew between processes: at most 1 for lock-step Jacobi.
        let mut cfg = CompareConfig::builder(2)
            .interval_us(40_000)
            .build()
            .unwrap();
        cfg.failures = FailurePlan::at(vec![(SimTime::from_millis(200), 1)]);
        let s = run_protocol(&workload(), ProtocolKind::AppDriven, &cfg);
        assert!(s.completed);
        assert!(s.max_rollback_depth <= 1, "{}", s.max_rollback_depth);
    }

    #[test]
    fn builder_applies_defaults_and_setters() {
        let cfg = CompareConfig::builder(4).build().unwrap();
        assert_eq!(cfg.sim.nprocs, 4);
        assert_eq!(cfg.interval_us, 60_000);
        assert_eq!(cfg.skew_us, 20_000);
        assert_eq!(cfg.sim.seed, 0xACFC);
        let cfg = CompareConfig::builder(8)
            .interval_us(30_000)
            .skew_us(5_000)
            .seed(7)
            .build()
            .unwrap();
        assert_eq!(cfg.sim.nprocs, 8);
        assert_eq!(cfg.interval_us, 30_000);
        assert_eq!(cfg.skew_us, 5_000);
        assert_eq!(cfg.sim.seed, 7);
    }

    #[test]
    fn builder_rejects_invalid_parameters_with_typed_errors() {
        assert_eq!(
            CompareConfig::builder(0).build().unwrap_err(),
            ConfigError::ZeroProcs
        );
        assert_eq!(
            CompareConfig::builder(MAX_COMPARE_PROCS + 1)
                .build()
                .unwrap_err(),
            ConfigError::TooManyProcs {
                n: MAX_COMPARE_PROCS + 1,
                max: MAX_COMPARE_PROCS
            }
        );
        assert_eq!(
            CompareConfig::builder(2)
                .interval_us(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroInterval
        );
        // The boundary value itself is accepted, not clamped — the
        // default memory budget covers the full supported range.
        assert!(CompareConfig::builder(MAX_COMPARE_PROCS).build().is_ok());
        // Errors render as readable sentences for CLI surfaces.
        let msg = ConfigError::TooManyProcs { n: 4097, max: 4096 }.to_string();
        assert!(msg.contains("4097") && msg.contains("4096"), "{msg}");
    }

    /// A tight caller-supplied budget turns large n into a typed
    /// refusal before anything allocates, and the estimate is monotone
    /// so the refusal names a number the caller can reason about.
    #[test]
    fn memory_guardrail_refuses_over_budget_configs() {
        let err = CompareConfig::builder(1024)
            .memory_budget_mib(8)
            .build()
            .unwrap_err();
        match err {
            ConfigError::MemoryGuardrail {
                n,
                est_mib,
                budget_mib,
            } => {
                assert_eq!(n, 1024);
                assert_eq!(budget_mib, 8);
                assert!(est_mib > 8, "{est_mib}");
                assert_eq!(est_mib, estimated_run_mib(1024));
            }
            other => panic!("expected MemoryGuardrail, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("1024") && msg.contains("budget"), "{msg}");
        // Small fleets sail far under the default budget, and the
        // estimate grows with n.
        assert!(CompareConfig::builder(16).build().is_ok());
        assert!(estimated_run_mib(4096) <= DEFAULT_MEMORY_BUDGET_MIB);
        assert!(estimated_run_mib(256) < estimated_run_mib(2048));
    }

    #[test]
    fn protocol_kind_display_from_str_round_trips_exhaustively() {
        for k in ProtocolKind::all() {
            let rendered = k.to_string();
            assert_eq!(rendered, k.name());
            assert_eq!(rendered.parse::<ProtocolKind>(), Ok(k), "{rendered}");
            // Case-insensitive, whitespace-tolerant.
            assert_eq!(rendered.to_uppercase().parse::<ProtocolKind>(), Ok(k));
            assert_eq!(rendered.to_lowercase().parse::<ProtocolKind>(), Ok(k));
            assert_eq!(format!("  {rendered} ").parse::<ProtocolKind>(), Ok(k));
        }
        for v in CicVariant::all() {
            // Bare `--cic` spellings resolve to the CIC member, both as
            // a ProtocolKind and as a CicVariant.
            assert_eq!(
                v.cli_name().parse::<ProtocolKind>(),
                Ok(ProtocolKind::Cic(v))
            );
            assert_eq!(v.cli_name().parse::<CicVariant>(), Ok(v));
            assert_eq!(v.to_string().parse::<CicVariant>(), Ok(v));
        }
    }

    #[test]
    fn protocol_parse_errors_are_typed_and_list_the_alternatives() {
        let err = "zaphod".parse::<ProtocolKind>().unwrap_err();
        assert_eq!(err.input(), "zaphod");
        let msg = err.to_string();
        for k in ProtocolKind::all() {
            assert!(msg.contains(k.name()), "{msg} missing {}", k.name());
        }
        // A non-CIC protocol name is not a CicVariant.
        let err = "SaS".parse::<CicVariant>().unwrap_err();
        assert_eq!(err.input(), "SaS");
    }
}
