//! The measured parts. A workload is one or two native parts that get
//! most of `--seconds`; every end-to-end metric the native parts do not
//! produce is filled in by the part that does, because the benchmark
//! contract has every workload report every end-to-end metric.

pub mod analysis;
pub mod ckpt_write;
pub mod kill_recover;
pub mod micro;
pub mod sim;
pub mod sweep;

use crate::harness::{Digests, Ledger, Ops, Storage, Tracer};
use std::collections::BTreeMap;

pub type Metrics = BTreeMap<&'static str, f64>;

/// What a part needs from the run it is part of.
pub struct Ctx<'a> {
    pub store: &'a Storage,
    pub ops: Ops,
    pub digests: Digests,
}

impl Ctx<'_> {
    /// Records an output digest of the part whose home workload is
    /// `home`; see [`Digests::record`].
    pub fn digest(&mut self, home: &str, key: &str, value: u64) {
        self.digests.record(&mut self.ops, home, key, value);
    }
}

pub trait Part {
    /// One repetition with its outputs checked and its digests
    /// recorded; doubles as the warm-up. Not timed.
    fn check(&mut self, ctx: &mut Ctx);

    /// One timed repetition of the part's fixed work. The part keeps
    /// the samples.
    fn rep(&mut self, ctx: &mut Ctx);

    /// This part's end-to-end metrics from the samples so far: the
    /// quickest repetition of each unit of work, then the total.
    fn metrics(&self) -> Metrics;

    /// Traced: one repetition with a span around every call into a
    /// layer, per-layer rows into `ledger`. Returns the wall seconds of
    /// that repetition.
    fn traced(&mut self, ctx: &mut Ctx, tracer: &mut Tracer, ledger: &mut Ledger) -> f64;
}

/// Part names in the order fillers are tried. `sim_compute` comes
/// before `sim_msg`: the message-bound simulation is bound by memory
/// latency, which on this VM moves by ±5 % between runs of one commit,
/// so the other workloads fill `sim_events_per_s` with the steadier
/// part and only `sim_msg_bound` itself carries that noise.
pub const PARTS: [&str; 8] = [
    "analysis",
    "sim_compute",
    "sim_msg",
    "sweep",
    "commit",
    "det_clean",
    "restart",
    "det_kills",
];

/// The native parts of a workload.
pub fn native(workload: &str) -> Option<&'static [&'static str]> {
    Some(match workload {
        "analysis_scale" => &["analysis"],
        "sim_msg_bound" => &["sim_msg"],
        "sim_compute_bound" => &["sim_compute"],
        "sweep_matrix" => &["sweep"],
        "ckpt_write" => &["commit", "det_clean"],
        "kill_recover" => &["restart", "det_kills"],
        _ => return None,
    })
}

/// End-to-end metrics a part produces.
pub fn provides(part: &str) -> &'static [&'static str] {
    match part {
        "analysis" => &["analyze_stmts_per_s", "analyze_p50_ms", "analyze_p90_ms"],
        "sim_msg" | "sim_compute" => &["sim_events_per_s"],
        "sweep" => &["sweep_cells_per_s"],
        "commit" => &[
            "commit_mb_per_s",
            "file_commit_p50_us",
            "log_commit_p50_us",
            "log_commit_p95_us",
            "disk_bytes_per_payload_byte",
        ],
        "det_clean" | "det_kills" => &["runtime_events_per_s"],
        "restart" => &["restart_p50_ms", "load_mb_per_s"],
        other => panic!("unknown part {other}"),
    }
}

pub fn setup(part: &str, seed: u64, store: &Storage, ops: &mut Ops) -> Box<dyn Part> {
    match part {
        "analysis" => Box::new(analysis::Analysis::setup(seed)),
        "sim_msg" => Box::new(sim::Sim::msg_bound(seed)),
        "sim_compute" => Box::new(sim::Sim::compute_bound(seed)),
        "sweep" => Box::new(sweep::Sweep::setup(seed)),
        "commit" => Box::new(ckpt_write::Commit::setup(seed)),
        "det_clean" => Box::new(ckpt_write::DetClean::setup(seed)),
        "restart" => Box::new(kill_recover::Restart::setup(seed, store, ops)),
        "det_kills" => Box::new(kill_recover::DetKills::setup(seed)),
        other => panic!("unknown part {other}"),
    }
}
