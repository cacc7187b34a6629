//! Per-run simulator observability.
//!
//! [`SimObs`] is an explicit, opt-in collector threaded through the
//! engine ([`crate::run_observed`]): unlike the process-global registry
//! in `acfc-obs`, it is plain owned state scoped to one run, so
//! concurrent runs (the parameter sweeps, the Monte Carlo driver)
//! never share or contend. A run without a collector pays only a
//! never-taken `Option` branch per probe — the `NoHooks` hot path is
//! unchanged.
//!
//! Two collection levels:
//!
//! * **counters** ([`SimObs::counters`]) — scalar totals (events
//!   popped, run-ahead hits, deliveries) plus per-process time
//!   breakdowns and two histograms (event-queue depth, message
//!   latency).
//! * **timeline** ([`SimObs::timeline`]) — additionally keeps the
//!   per-process blocked and checkpoint-stall intervals needed to
//!   render a simulated-time Perfetto track per process
//!   ([`crate::perfetto::timeline_json`]).

use acfc_obs::LocalHist;

/// Per-process simulated-time totals (microseconds).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcObs {
    /// Simulated time spent in `compute` statements.
    pub compute_us: u64,
    /// Simulated time blocked waiting in `recv`.
    pub blocked_us: u64,
    /// Simulated time stalled taking checkpoints (overhead `o` plus
    /// any protocol coordination stall).
    pub ckpt_us: u64,
}

/// A half-open simulated-time interval `[start_us, end_us)` on one
/// process's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Owning process rank.
    pub proc: usize,
    /// Start, µs of simulated time.
    pub start_us: u64,
    /// End, µs of simulated time.
    pub end_us: u64,
}

/// Opt-in per-run collector. Construct with [`SimObs::counters`] or
/// [`SimObs::timeline`] and pass to [`crate::run_observed`].
#[derive(Debug, Default)]
pub struct SimObs {
    /// Whether to keep per-interval timeline data (blocked and
    /// checkpoint slices) in addition to the scalar totals.
    pub keep_timeline: bool,
    /// Events popped off the simulation queue.
    pub events_processed: u64,
    /// Times the engine kept executing inline instead of a queue
    /// round-trip (the run-ahead fast path).
    pub run_ahead_hits: u64,
    /// Messages delivered to an inbox.
    pub messages_delivered: u64,
    /// Distinct inbox channels (receiver, sender) materialised by the
    /// run. Channels are created lazily on first delivery, so for a
    /// sparse topology this stays near the communication graph's edge
    /// count rather than n² — the regression guard for the old eager
    /// `inbox[n][n]` allocation.
    pub inbox_channels: u64,
    /// Vector-clock entries piggybacked on application sends (a
    /// redelivery after rollback carries its original payload and is
    /// not counted again): `n` per send in dense mode, the O(Δ) payload
    /// sizes in delta mode — the transport-volume guard for the
    /// delta encoding.
    pub piggyback_entries: u64,
    /// Per-process simulated-time totals.
    pub per_proc: Vec<ProcObs>,
    /// Queue depth, systematically sampled at every 8th event pop
    /// (non-atomic: the collector is exclusively owned by one
    /// single-threaded run, so recording is plain integer arithmetic).
    /// Recording every pop costs ~2% of engine throughput; 1-in-8
    /// sampling keeps it out of the event budget, and the simulator is
    /// deterministic so the sampled distribution is reproducible run
    /// to run. The engine samples into its own histogram and *merges*
    /// it here at flush — the same buckets also land in
    /// [`Trace::queue_depth`](crate::trace::Trace::queue_depth), so the
    /// observed and post-hoc views agree exactly.
    pub queue_depth: LocalHist,
    /// Message latency (receive completion minus send), µs — the same
    /// definition as [`crate::stats::TraceStats::mean_latency_us`].
    pub msg_latency_us: LocalHist,
    /// Interval between consecutive checkpoint *starts* of the same
    /// process, µs — the online twin of
    /// [`crate::stats::TraceStats::mean_ckpt_interval_us`]. Recorded as
    /// checkpoints happen, so on a run with rollbacks it also counts
    /// checkpoints that are later rolled back (the post-hoc trace stats
    /// count live checkpoints only).
    pub ckpt_interval_us: LocalHist,
    /// Blocked-in-`recv` intervals (timeline mode only).
    pub blocked: Vec<Interval>,
    /// Checkpoint-stall intervals (timeline mode only).
    pub ckpts: Vec<Interval>,
    /// Start of each process's most recent checkpoint, for the
    /// interval histogram.
    last_ckpt_start: Vec<Option<u64>>,
}

impl SimObs {
    /// Scalar counters and histograms only.
    pub fn counters() -> SimObs {
        SimObs::default()
    }

    /// Counters plus the per-process interval data needed for the
    /// simulated-time Perfetto export.
    pub fn timeline() -> SimObs {
        SimObs {
            keep_timeline: true,
            ..SimObs::default()
        }
    }

    pub(crate) fn ensure_procs(&mut self, n: usize) {
        if self.per_proc.len() < n {
            self.per_proc.resize(n, ProcObs::default());
        }
        if self.last_ckpt_start.len() < n {
            self.last_ckpt_start.resize(n, None);
        }
    }

    pub(crate) fn on_blocked(&mut self, proc: usize, start_us: u64, end_us: u64) {
        self.per_proc[proc].blocked_us += end_us - start_us;
        if self.keep_timeline && end_us > start_us {
            self.blocked.push(Interval {
                proc,
                start_us,
                end_us,
            });
        }
    }

    pub(crate) fn on_ckpt_stall(&mut self, proc: usize, start_us: u64, end_us: u64) {
        self.per_proc[proc].ckpt_us += end_us - start_us;
        if let Some(prev) = self.last_ckpt_start[proc] {
            self.ckpt_interval_us.record(start_us.saturating_sub(prev));
        }
        self.last_ckpt_start[proc] = Some(start_us);
        if self.keep_timeline && end_us > start_us {
            self.ckpts.push(Interval {
                proc,
                start_us,
                end_us,
            });
        }
    }

    /// Mirrors the scalar totals into the process-global `acfc-obs`
    /// registry (no-op unless the `obs` feature is compiled in and the
    /// runtime flag is on), so `acfc report` shows simulator counters
    /// next to the analysis spans.
    pub fn publish(&self) {
        acfc_obs::count("sim/events_processed", self.events_processed);
        acfc_obs::count("sim/run_ahead_hits", self.run_ahead_hits);
        acfc_obs::count("sim/messages_delivered", self.messages_delivered);
        acfc_obs::count("sim/inbox_channels", self.inbox_channels);
        acfc_obs::count("sim/piggyback_entries", self.piggyback_entries);
        for t in &self.per_proc {
            acfc_obs::count("sim/compute_us", t.compute_us);
            acfc_obs::count("sim/blocked_us", t.blocked_us);
            acfc_obs::count("sim/ckpt_stall_us", t.ckpt_us);
        }
        acfc_obs::record("sim/queue_depth_max", self.queue_depth.snap().max);
        acfc_obs::record("sim/msg_latency_us_max", self.msg_latency_us.snap().max);
        acfc_obs::record("sim/ckpt_interval_us_max", self.ckpt_interval_us.snap().max);
    }
}
