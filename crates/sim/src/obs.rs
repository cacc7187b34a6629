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
    /// to run. Runs without a collector sample nothing.
    pub queue_depth: LocalHist,
    /// Message latency (receive completion minus send), µs, of every
    /// consumed message.
    pub msg_latency_us: LocalHist,
    /// Interval between consecutive checkpoint *starts* of the same
    /// process, µs. Recorded as checkpoints happen, so on a run with
    /// rollbacks it also counts checkpoints that are later rolled back.
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
    /// registry (no-op unless the runtime flag is on), so `acfc report`
    /// shows simulator counters next to the analysis spans.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::compile;
    use crate::config::SimConfig;
    use crate::engine::run_observed;
    use crate::trace::Trace;
    use acfc_mpsl::programs;

    /// The post-hoc oracle: message latencies of the live messages and
    /// start-to-start intervals of each process's live checkpoints,
    /// folded from the finished trace.
    fn fold_trace(trace: &Trace) -> (LocalHist, LocalHist) {
        let mut latency = LocalHist::new();
        for m in trace.live_messages() {
            if let Some(at) = m.recv_at {
                latency.record(at.saturating_sub(m.sent_at).as_micros());
            }
        }
        let mut intervals = LocalHist::new();
        for p in 0..trace.nprocs {
            for w in trace.live_checkpoints(p).windows(2) {
                intervals.record(w[1].start.saturating_sub(w[0].start).as_micros());
            }
        }
        (latency, intervals)
    }

    /// The collector's probes and a fold over the finished trace are two
    /// independent derivations of the same run; where they measure the
    /// same quantity they must agree exactly.
    #[test]
    fn counters_agree_with_a_fold_over_the_trace() {
        let compiled = compile(&programs::jacobi(5));
        let cfg = SimConfig::new(4);
        let mut obs = SimObs::counters();
        let t = run_observed(&compiled, &cfg, &mut obs);
        assert!(t.completed());
        let (latency, intervals) = fold_trace(&t);

        // Every live message was delivered and consumed exactly once,
        // and the online histogram saw the identical multiset of
        // latencies, bucket for bucket.
        assert_eq!(obs.messages_delivered, t.live_messages().count() as u64);
        assert_eq!(obs.msg_latency_us, latency);
        assert!(latency.snap().count > 0);

        // Failure-free, so the online (all-checkpoints) and post-hoc
        // (live-checkpoints) interval histograms are the same.
        assert_eq!(obs.ckpt_interval_us, intervals);

        // Blocked time: the collector attributes per process what the
        // engine metric accumulates globally, at the same probe site.
        let blocked: u64 = obs.per_proc.iter().map(|p| p.blocked_us).sum();
        assert_eq!(blocked, t.metrics.recv_blocked_us);

        // Checkpoint stalls: obs records o + coordination per
        // checkpoint, the metric the same total.
        let ckpt: u64 = obs.per_proc.iter().map(|p| p.ckpt_us).sum();
        assert_eq!(ckpt, t.metrics.ckpt_stall_us);

        // The engine popped at least one event per delivered message
        // and ran ahead at least once on this workload.
        assert!(obs.events_processed >= obs.messages_delivered);
        assert!(obs.run_ahead_hits > 0);
        // Queue depth is systematically sampled at 1-in-8 event pops.
        let qd = obs.queue_depth.snap();
        assert_eq!(qd.count, obs.events_processed / 8);
        assert!(qd.count > 0, "workload too small to sample the queue");
    }

    /// Pins the collector on a hand-computed deterministic run:
    /// `pingpong(2)` at 2 procs with jitter zeroed.
    ///
    /// Per message (64 bits): the receiver is already blocked when the
    /// message arrives, so `recv_at − sent_at` is exactly the network
    /// delay plus one instruction overhead —
    /// `setup (100) + 64·1ns/1000 (0) + instr (1) = 101 µs`.
    /// Per checkpoint: a stall of `o = 2000 µs`, one checkpoint per
    /// iteration per process.
    #[test]
    fn pinned_on_jitter_free_pingpong() {
        let mut cfg = SimConfig::new(2);
        cfg.net.jitter_us = 0;
        let mut obs = SimObs::counters();
        let t = run_observed(&compile(&programs::pingpong(2)), &cfg, &mut obs);
        assert!(t.completed());
        // 2 iterations × (ping + pong), every one exactly 101 µs, so
        // all three percentiles land on the [64,128) bucket's upper
        // edge.
        let lat = obs.msg_latency_us.snap();
        assert_eq!(lat.count, 4);
        assert_eq!(lat.mean(), 101.0);
        assert_eq!(lat.max, 101);
        let q = lat.percentiles();
        assert_eq!((q.p50, q.p90, q.p99), (128, 128, 128));
        for p in 0..2 {
            assert_eq!(obs.per_proc[p].ckpt_us, 2 * 2000, "P{p}");
        }
        // One interval per process (2 checkpoints each), each at least
        // one round trip (2 × 101 µs) plus the previous iteration's
        // 2000 µs checkpoint stall.
        let ivl = obs.ckpt_interval_us.snap();
        assert_eq!(ivl.count, 2);
        assert!(ivl.mean() > 2.0 * 101.0 + 2000.0);
        let q = ivl.percentiles();
        assert!(q.p50 > 0 && q.p50 <= q.p99);
    }
}
