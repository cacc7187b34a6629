//! # Observability core for ACFC
//!
//! The workspace's perf story (SCC-condensed reachability, the
//! incremental Phase III, the lowered-bytecode engine) was built on
//! end-to-end wall-clock numbers; this crate adds the *interior* view:
//! where the time goes inside an analysis pass, and where simulated
//! time goes inside a run. It has no registry dependencies (it borrows
//! only `acfc-util`'s JSON string escaping) and has one gate: the runtime flag [`set_enabled`] (read by [`enabled`]).
//! Every probe first checks that one relaxed atomic; the disabled cost
//! is a single predictable branch, preserving the `NoHooks` simulator
//! hot path and the analysis throughput numbers.
//!
//! The pieces:
//!
//! * [`Counter`] / [`Histogram`] / [`LocalHist`] — relaxed-atomic
//!   monotone counters, fixed 64-bucket power-of-two histograms, and a
//!   non-atomic histogram twin for exclusively-owned collectors. The
//!   simulator's per-run collector uses them directly, unmetered by
//!   the global flag.
//! * the **registry** — a process-global, thread-safe, hierarchical
//!   (slash-separated names) table behind [`count`], [`record`],
//!   [`snapshot`], and [`reset`].
//! * [`span()`] — RAII wall-clock timers. Each span records its duration
//!   into the registry histogram of the same name and appends a
//!   begin/end pair to a global timeline for Perfetto export
//!   ([`take_wall_spans`], [`perfetto::wall_spans_trace`]).
//! * [`perfetto`] — a Chrome-trace-format (`traceEvents`) JSON writer
//!   with structural validation (balanced B/E, per-track monotone
//!   timestamps), loadable in <https://ui.perfetto.dev>.
//! * [`folded`] — collapses the same span forest into folded stack
//!   lines (`inferno`/flamegraph.pl) and a speedscope JSON document,
//!   the flamegraph-native complements of the Perfetto timeline.
//! * [`serve`](mod@serve) — a zero-dependency `std::net::TcpListener` endpoint
//!   exposing the registry in Prometheus text exposition format, so
//!   long sweeps can be scraped or curl'd mid-run.
//! * [`report`] — plain-text rendering of a [`Snapshot`] for
//!   `acfc report` and the bench harness.
//! * [`stats`] — [`CiAccum`]/[`CiSummary`], a mergeable Welford
//!   accumulator producing mean/stddev/95% CI for replicated-trial
//!   sweeps (the scalar complement of `LocalHist::merge`), plus
//!   [`bootstrap_median_ci`], a seeded bootstrap over a pooled
//!   [`HistSnapshot`] yielding median ± 95% percentile intervals for
//!   heavy-tailed latency columns.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod folded;
pub mod metrics;
pub mod perfetto;
pub mod report;
pub mod serve;
pub mod span;
pub mod stats;

pub use folded::{folded_lines, speedscope_json};
pub use metrics::{
    count, enabled, record, reset, set_enabled, snapshot, Counter, HistSnapshot, Histogram,
    LocalHist, Quantiles, Snapshot,
};
pub use perfetto::TraceBuilder;
pub use report::render;
pub use serve::{prometheus_text, serve, MetricsServer};
pub use span::{span, take_wall_spans, thread_labels, SpanGuard, WallSpan};
pub use stats::{
    bootstrap_median_ci, t_critical_95, CiAccum, CiSummary, MedianCi, BOOTSTRAP_MAX_DRAWS,
    BOOTSTRAP_RESAMPLES,
};
