//! Communication-induced checkpointing (CIC): the index-based family.
//!
//! The third family in the paper's taxonomy (§1): processes checkpoint
//! on local timers, but every application message piggybacks logical
//! clock state; a receiver whose clock lags the piggybacked one in a
//! dangerous way is **forced** to checkpoint before consuming the
//! message. No control messages are ever sent — the price is unplanned
//! forced checkpoints, whose count grows with communication density
//! and differs sharply across the family (the axis catalogued in "A
//! Rollback in the History of Communication-Induced Checkpointing").
//!
//! Four members live behind the [`CicIndexing`] trait:
//!
//! | variant | piggyback | forces when | clock advance |
//! |---------|-----------|-------------|---------------|
//! | [`CicVariant::Index`] | engine ckpt seq (64 bit) | `m.seq > own_seq`, once per lag unit | every checkpoint |
//! | [`CicVariant::Bcs`]   | protocol index (64 bit)  | `m.idx > idx`, one jump | timer `+1`; forced jumps to `m.idx` |
//! | [`CicVariant::Hmnr`]  | clock + greater bits + ckpt vector (`64 + n + 64n` bit) | `m.clock > clock ∧ sent-in-interval` | timer `+1`; forced absorbs `m.clock` |
//! | [`CicVariant::Lazy`]  | protocol index (64 bit)  | `m.idx > idx`, one jump | first send after a checkpoint `+1` |
//!
//! Every member keeps the no-Z-cycle property — each variant's
//! timestamps are constant between the first send of an interval and
//! the interval's end, non-decreasing along zigzag steps, and strictly
//! increasing across the checkpoints that matter — so all checkpoints
//! are useful. `depgraph::useless_checkpoints` pins that over
//! randomized workloads and failure storms.

use acfc_sim::{CkptTrigger, CutPicker, Hooks, RecvAction, SimTime, TimerCheckpoints};

/// Which member of the CIC family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CicVariant {
    /// The engine-sequence protocol this repo started with: piggyback
    /// the dynamic checkpoint count verbatim and force once per unit
    /// of lag, so recovery can use aligned-sequence cuts.
    Index,
    /// Briatico–Ciuffoletti–Simoncini: scalar index, one forced
    /// checkpoint per lagging receive (the index jumps to `m.idx`).
    Bcs,
    /// Hélary–Mostefaoui–Netzer–Raynal, vector-carrying: scalar clock
    /// plus a per-process checkpoint-clock vector and a boolean
    /// "greater" array on the wire; forces only when the receiver has
    /// sent in its current interval.
    Hmnr,
    /// Lazy index advancement: the index bumps at the first send after
    /// a checkpoint instead of at every checkpoint, so quiet intervals
    /// never inflate the global index.
    Lazy,
}

impl CicVariant {
    /// Every member, in presentation order.
    pub fn all() -> [CicVariant; 4] {
        [
            CicVariant::Index,
            CicVariant::Bcs,
            CicVariant::Hmnr,
            CicVariant::Lazy,
        ]
    }

    /// Short display name (also the `--cic` CLI spelling, minus the
    /// family prefix for the founding member).
    pub fn name(self) -> &'static str {
        match self {
            CicVariant::Index => "CIC",
            CicVariant::Bcs => "CIC-bcs",
            CicVariant::Hmnr => "CIC-hmnr",
            CicVariant::Lazy => "CIC-lazy",
        }
    }

    /// The bare `--cic` CLI spelling (`index`, `bcs`, `hmnr`, `lazy`)
    /// — the family prefix dropped, the founding member spelled out.
    pub fn cli_name(self) -> &'static str {
        match self {
            CicVariant::Index => "index",
            CicVariant::Bcs => "bcs",
            CicVariant::Hmnr => "hmnr",
            CicVariant::Lazy => "lazy",
        }
    }

    /// The obs counter bumped on every forced checkpoint.
    pub fn forced_counter(self) -> &'static str {
        match self {
            CicVariant::Index => "protocols/cic/index/forced_checkpoints",
            CicVariant::Bcs => "protocols/cic/bcs/forced_checkpoints",
            CicVariant::Hmnr => "protocols/cic/hmnr/forced_checkpoints",
            CicVariant::Lazy => "protocols/cic/lazy/forced_checkpoints",
        }
    }

    /// Recovery-line picker matching the variant's guarantee. Only the
    /// founding member aligns its forced checkpoints with the engine
    /// sequence number (it forces once per lag *unit*), so only it may
    /// restore aligned-sequence cuts; the others jump their clocks and
    /// recover through the maximal consistent line.
    pub fn picker(self) -> CutPicker {
        match self {
            CicVariant::Index => CutPicker::AlignedSeq,
            _ => crate::depgraph::max_consistent_picker(),
        }
    }
}

/// The decide-on-receive discipline of one CIC family member: given
/// the piggybacked index/vector state, must this receive force a
/// checkpoint?
///
/// [`CicProtocol`] adapts an implementation to the engine's
/// [`Hooks`]: `stamp` runs at every send, `force_on_recv` is
/// re-consulted until it stops demanding checkpoints (so absorption of
/// the piggybacked knowledge belongs on its `false` path — that is the
/// call that precedes delivery), and `checkpoint_taken` observes every
/// checkpoint the engine records, which is where clocks advance.
pub trait CicIndexing {
    /// Which member this is.
    fn variant(&self) -> CicVariant;

    /// Stamp for an outgoing message from `p` to `to`; `ckpt_seq` is
    /// the engine's dynamic checkpoint count for `p`. Vector-carrying
    /// members return a token into an internal payload store (the
    /// engine transports one `u64` per message; redelivered messages
    /// replay their original token, which is exactly the replay-the-
    /// original-payload semantics rollback needs).
    fn stamp(&mut self, p: usize, to: usize, ckpt_seq: u64) -> u64;

    /// Must `p` force a checkpoint before consuming a message carrying
    /// `piggyback`? Returning `false` means the message is delivered
    /// now, so implementations absorb piggybacked knowledge on that
    /// path.
    fn force_on_recv(&mut self, p: usize, piggyback: u64, own_seq: u64) -> bool;

    /// A checkpoint of `p` was recorded with `trigger`.
    fn checkpoint_taken(&mut self, p: usize, trigger: CkptTrigger);

    /// Width of the piggybacked payload on `p`'s next message, bits.
    fn stamp_bits(&self, p: usize) -> u64;
}

/// The founding member: piggyback the engine checkpoint sequence and
/// force once per unit of lag, catching the receiver all the way up —
/// which is what keeps same-sequence cuts consistent.
#[derive(Debug, Clone, Default)]
pub struct IndexIndexing;

impl CicIndexing for IndexIndexing {
    fn variant(&self) -> CicVariant {
        CicVariant::Index
    }

    fn stamp(&mut self, _p: usize, _to: usize, ckpt_seq: u64) -> u64 {
        ckpt_seq
    }

    fn force_on_recv(&mut self, _p: usize, piggyback: u64, own_seq: u64) -> bool {
        piggyback > own_seq
    }

    fn checkpoint_taken(&mut self, _p: usize, _trigger: CkptTrigger) {}

    fn stamp_bits(&self, _p: usize) -> u64 {
        64
    }
}

/// Briatico–Ciuffoletti–Simoncini: a protocol-owned scalar index per
/// process. Timer checkpoints bump it; a lagging receive forces one
/// checkpoint and jumps the index to the piggybacked value, so deep
/// lag costs a single forced checkpoint instead of one per unit.
#[derive(Debug, Clone)]
pub struct BcsIndexing {
    idx: Vec<u64>,
    pending: Vec<u64>,
}

impl BcsIndexing {
    /// Fresh state for `nprocs` processes, all indexes at zero.
    pub fn new(nprocs: usize) -> BcsIndexing {
        BcsIndexing {
            idx: vec![0; nprocs],
            pending: vec![0; nprocs],
        }
    }
}

impl CicIndexing for BcsIndexing {
    fn variant(&self) -> CicVariant {
        CicVariant::Bcs
    }

    fn stamp(&mut self, p: usize, _to: usize, _ckpt_seq: u64) -> u64 {
        self.idx[p]
    }

    fn force_on_recv(&mut self, p: usize, piggyback: u64, _own_seq: u64) -> bool {
        if piggyback > self.idx[p] {
            self.pending[p] = piggyback;
            true
        } else {
            false
        }
    }

    fn checkpoint_taken(&mut self, p: usize, trigger: CkptTrigger) {
        // Every checkpoint strictly increases the index (the no-Z-cycle
        // invariant): timers by one, forced ones by jumping to the
        // piggybacked value that demanded them.
        self.idx[p] = match trigger {
            CkptTrigger::Forced => self.pending[p].max(self.idx[p] + 1),
            _ => self.idx[p] + 1,
        };
    }

    fn stamp_bits(&self, _p: usize) -> u64 {
        64
    }
}

/// Lazy index advancement: like BCS, but the index bumps at the first
/// send after a checkpoint rather than at the checkpoint itself. A
/// process that checkpoints without communicating never inflates the
/// global index, so receivers lag less and force less. The no-Z-cycle
/// argument survives because any message sent after a checkpoint still
/// carries a strictly larger index than every message received before
/// it, and the index stays constant from an interval's first send to
/// its end.
#[derive(Debug, Clone)]
pub struct LazyIndexing {
    idx: Vec<u64>,
    bumped: Vec<bool>,
    pending: Vec<u64>,
}

impl LazyIndexing {
    /// Fresh state for `nprocs` processes, all indexes at zero.
    pub fn new(nprocs: usize) -> LazyIndexing {
        LazyIndexing {
            idx: vec![0; nprocs],
            bumped: vec![false; nprocs],
            pending: vec![0; nprocs],
        }
    }
}

impl CicIndexing for LazyIndexing {
    fn variant(&self) -> CicVariant {
        CicVariant::Lazy
    }

    fn stamp(&mut self, p: usize, _to: usize, _ckpt_seq: u64) -> u64 {
        if !self.bumped[p] {
            self.idx[p] += 1;
            self.bumped[p] = true;
        }
        self.idx[p]
    }

    fn force_on_recv(&mut self, p: usize, piggyback: u64, _own_seq: u64) -> bool {
        if piggyback > self.idx[p] {
            self.pending[p] = piggyback;
            true
        } else {
            false
        }
    }

    fn checkpoint_taken(&mut self, p: usize, trigger: CkptTrigger) {
        if trigger == CkptTrigger::Forced {
            self.idx[p] = self.pending[p].max(self.idx[p]);
        }
        self.bumped[p] = false;
    }

    fn stamp_bits(&self, _p: usize) -> u64 {
        64
    }
}

/// One HMNR wire payload, captured at send time. The engine transports
/// a token; redelivered messages replay the original payload.
#[derive(Debug, Clone)]
struct HmnrStamp {
    clock: u64,
    /// Bitset over processes: bit `k` set iff the sender's clock was
    /// strictly greater than its knowledge of `k`'s last checkpoint
    /// clock.
    greater: Box<[u64]>,
    /// The sender's knowledge of each process's last checkpoint clock.
    kclock: Box<[u64]>,
}

/// Hélary–Mostefaoui–Netzer–Raynal, vector-carrying: each process
/// keeps a scalar clock plus a vector of the highest checkpoint clock
/// it knows per process, and piggybacks all of it (clock, the boolean
/// "greater" array, the vector). A receive forces a checkpoint only
/// when the receiver has **sent in its current interval** and the
/// message's clock is ahead — the sent-conjunct is what lets HMNR
/// force strictly less than BCS on the same traffic. Clock absorption
/// while the interval has pending sends would break the
/// constant-after-first-send invariant the no-Z-cycle proof needs, so
/// a send freezes the clock until the next checkpoint; the vector
/// knowledge still merges on every delivery.
#[derive(Debug, Clone)]
pub struct HmnrIndexing {
    nprocs: usize,
    clock: Vec<u64>,
    /// `kclock[p][k]`: highest checkpoint clock of `k` known to `p`.
    kclock: Vec<Box<[u64]>>,
    sent: Vec<bool>,
    pending: Vec<u64>,
    store: Vec<HmnrStamp>,
}

impl HmnrIndexing {
    /// Fresh state for `nprocs` processes: zero clocks, empty
    /// knowledge, nothing sent.
    pub fn new(nprocs: usize) -> HmnrIndexing {
        HmnrIndexing {
            nprocs,
            clock: vec![0; nprocs],
            kclock: vec![vec![0; nprocs].into_boxed_slice(); nprocs],
            sent: vec![false; nprocs],
            pending: vec![0; nprocs],
            store: Vec::new(),
        }
    }

    fn absorb(&mut self, p: usize, token: u64) {
        let s = &self.store[token as usize];
        for k in 0..self.nprocs {
            let known = &mut self.kclock[p][k];
            if s.kclock[k] > *known {
                *known = s.kclock[k];
            }
            // `greater[k]` clear means the sender knew `k` had
            // checkpointed at `s.clock` or later.
            if s.greater[k >> 6] & (1 << (k & 63)) == 0 && s.clock > *known {
                *known = s.clock;
            }
        }
        if s.clock > self.clock[p] && !self.sent[p] {
            self.clock[p] = s.clock;
        }
    }
}

impl CicIndexing for HmnrIndexing {
    fn variant(&self) -> CicVariant {
        CicVariant::Hmnr
    }

    fn stamp(&mut self, p: usize, _to: usize, _ckpt_seq: u64) -> u64 {
        self.sent[p] = true;
        let clock = self.clock[p];
        let mut greater = vec![0u64; self.nprocs.div_ceil(64)].into_boxed_slice();
        for k in 0..self.nprocs {
            if clock > self.kclock[p][k] {
                greater[k >> 6] |= 1 << (k & 63);
            }
        }
        self.store.push(HmnrStamp {
            clock,
            greater,
            kclock: self.kclock[p].clone(),
        });
        (self.store.len() - 1) as u64
    }

    fn force_on_recv(&mut self, p: usize, piggyback: u64, _own_seq: u64) -> bool {
        let s = &self.store[piggyback as usize];
        if s.clock > self.clock[p] && self.sent[p] {
            self.pending[p] = piggyback;
            true
        } else {
            self.absorb(p, piggyback);
            false
        }
    }

    fn checkpoint_taken(&mut self, p: usize, trigger: CkptTrigger) {
        self.clock[p] = match trigger {
            CkptTrigger::Forced => {
                let demanded = self.store[self.pending[p] as usize].clock;
                demanded.max(self.clock[p] + 1)
            }
            _ => self.clock[p] + 1,
        };
        self.kclock[p][p] = self.clock[p];
        self.sent[p] = false;
    }

    fn stamp_bits(&self, _p: usize) -> u64 {
        // clock + one greater bit per process + the checkpoint-clock
        // vector.
        64 + self.nprocs as u64 + 64 * self.nprocs as u64
    }
}

/// A CIC family member wired to the engine: timer-driven basic
/// checkpoints plus the member's decide-on-receive discipline, with
/// piggyback traffic metered.
pub struct CicProtocol {
    timers: TimerCheckpoints,
    indexing: Box<dyn CicIndexing + Send>,
    pub(crate) piggyback_bits: u64,
}

impl CicProtocol {
    /// Basic (timer) checkpoints every `interval_us`, with process `p`
    /// phase-shifted by `p · skew_us` (skew is what makes forced
    /// checkpoints happen at all; perfectly aligned timers never lag).
    /// `nprocs` sizes both the timer bank and the member's per-process
    /// clock state.
    pub fn new(variant: CicVariant, nprocs: usize, interval_us: u64, skew_us: u64) -> CicProtocol {
        let indexing: Box<dyn CicIndexing + Send> = match variant {
            CicVariant::Index => Box::new(IndexIndexing),
            CicVariant::Bcs => Box::new(BcsIndexing::new(nprocs)),
            CicVariant::Hmnr => Box::new(HmnrIndexing::new(nprocs)),
            CicVariant::Lazy => Box::new(LazyIndexing::new(nprocs)),
        };
        CicProtocol {
            timers: TimerCheckpoints::new(nprocs, interval_us, skew_us),
            indexing,
            piggyback_bits: 0,
        }
    }

    /// Which member this is.
    pub fn variant(&self) -> CicVariant {
        self.indexing.variant()
    }
}

impl std::fmt::Debug for CicProtocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CicProtocol")
            .field("variant", &self.variant())
            .field("piggyback_bits", &self.piggyback_bits)
            .finish()
    }
}

impl Hooks for CicProtocol {
    fn piggyback(&mut self, p: usize, to: usize, ckpt_seq: u64, _now: SimTime) -> u64 {
        self.piggyback_bits += self.indexing.stamp_bits(p);
        self.indexing.stamp(p, to, ckpt_seq)
    }

    fn on_recv(&mut self, p: usize, piggyback: u64, own_seq: u64, _now: SimTime) -> RecvAction {
        if self.indexing.force_on_recv(p, piggyback, own_seq) {
            acfc_obs::count("protocols/cic/forced_checkpoints", 1);
            acfc_obs::count(self.indexing.variant().forced_counter(), 1);
            RecvAction::ForceCheckpointFirst
        } else {
            RecvAction::Deliver
        }
    }

    fn take_app_checkpoint(&mut self, _p: usize, _now: SimTime) -> bool {
        false
    }

    fn timer_checkpoint_due(&mut self, p: usize, now: SimTime) -> bool {
        self.timers.timer_checkpoint_due(p, now)
    }

    fn checkpoint_taken(&mut self, p: usize, trigger: CkptTrigger, _now: SimTime) {
        self.indexing.checkpoint_taken(p, trigger);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::CheckpointCoordinator;
    use crate::depgraph::{max_consistent_line_of, useless_checkpoints, IntervalIndex};
    use acfc_sim::{compile, run_with_hooks, SimConfig};

    fn run_variant(
        variant: CicVariant,
        prog: &acfc_mpsl::Program,
        n: usize,
        interval_us: u64,
        skew_us: u64,
    ) -> acfc_sim::Trace {
        let cfg = SimConfig::new(n);
        let mut hooks = CicProtocol::new(variant, n, interval_us, skew_us);
        run_with_hooks(&compile(prog), &cfg, &mut hooks)
    }

    #[test]
    fn skewed_timers_force_checkpoints() {
        let p = acfc_mpsl::programs::ring(8, 2048);
        for variant in CicVariant::all() {
            let t = run_variant(variant, &p, 4, 25_000, 9_000);
            assert!(t.completed());
            assert!(t.metrics.timer_checkpoints > 0);
            assert!(
                t.metrics.forced_checkpoints > 0,
                "{}: skewed CIC must force checkpoints",
                variant.name()
            );
            assert_eq!(t.metrics.app_checkpoints, 0);
            assert_eq!(
                t.metrics.control_messages,
                0,
                "{}: CIC piggybacks, no extra messages",
                variant.name()
            );
        }
    }

    #[test]
    fn forced_checkpoints_precede_the_triggering_recv() {
        let p = acfc_mpsl::programs::pingpong(6);
        let cfg = SimConfig::new(2);
        let mut hooks = CicProtocol::new(CicVariant::Index, 2, 15_000, 8_000);
        let t = run_with_hooks(&compile(&p), &cfg, &mut hooks);
        assert!(t.completed());
        // Index invariant of the founding member: no received message
        // may carry an index greater than the receiver's at receive
        // time.
        let idx = IntervalIndex::from_trace(&t);
        for m in t.live_messages() {
            if let Some(rs) = m.recv_step {
                let recv_index = idx.interval_of(m.to, rs);
                assert!(
                    recv_index >= m.piggyback,
                    "receive at index {recv_index} consumed index-{} message",
                    m.piggyback
                );
            }
        }
    }

    #[test]
    fn same_index_cuts_are_consistent() {
        // The founding member's guarantee: the aligned cut at the
        // minimum common index is a recovery line.
        let p = acfc_mpsl::programs::stencil_1d(8);
        let t = run_variant(CicVariant::Index, &p, 4, 20_000, 6_000);
        assert!(t.completed());
        let depth = t.aligned_depth() as u64;
        assert!(depth > 0, "workload must checkpoint");
        // Every aligned cut is consistent under the catch-up rule...
        for i in 1..=depth {
            assert!(
                acfc_sim::consistency::cut_consistency(&t, &vec![i; t.nprocs]),
                "aligned cut {i} inconsistent under CIC"
            );
        }
        // ...and therefore the maximal consistent line dominates the
        // deepest aligned cut (consistent cuts are closed under join).
        let line = max_consistent_line_of(&t);
        for p in 0..t.nprocs {
            assert!(line[p] >= depth, "line {line:?} vs aligned depth {depth}");
        }
    }

    #[test]
    fn dense_communication_forces_more() {
        // Holds for the eager members, whose indexes advance at every
        // timer checkpoint regardless of traffic. Lazy is the designed
        // exception — dense traffic keeps its send-bumped indexes in
        // lockstep — pinned separately below.
        for variant in [CicVariant::Index, CicVariant::Bcs, CicVariant::Hmnr] {
            let sparse = run_variant(variant, &acfc_mpsl::programs::ring(4, 64), 4, 25_000, 9_000);
            let dense = run_variant(variant, &acfc_mpsl::programs::jacobi(12), 4, 25_000, 9_000);
            assert!(sparse.completed() && dense.completed());
            assert!(
                dense.metrics.forced_checkpoints >= sparse.metrics.forced_checkpoints,
                "{}: denser communication should not force fewer checkpoints",
                variant.name()
            );
        }
    }

    #[test]
    fn lazy_indexing_soaks_up_density() {
        // The lazy pitch (an empirical pin, not a theorem): indexes
        // that only bump at the first send after a checkpoint stay in
        // lockstep under steady traffic, so lazy forces no more than
        // BCS on both a sparse ring and a dense stencil — and on the
        // dense one the eager members force strictly more.
        for prog in [
            acfc_mpsl::programs::ring(4, 64),
            acfc_mpsl::programs::jacobi(12),
        ] {
            let lazy = run_variant(CicVariant::Lazy, &prog, 4, 25_000, 9_000);
            let bcs = run_variant(CicVariant::Bcs, &prog, 4, 25_000, 9_000);
            assert!(lazy.completed() && bcs.completed());
            assert!(
                lazy.metrics.forced_checkpoints <= bcs.metrics.forced_checkpoints,
                "lazy {} vs bcs {}",
                lazy.metrics.forced_checkpoints,
                bcs.metrics.forced_checkpoints
            );
        }
        let dense = run_variant(
            CicVariant::Lazy,
            &acfc_mpsl::programs::jacobi(12),
            4,
            25_000,
            9_000,
        );
        let eager = run_variant(
            CicVariant::Bcs,
            &acfc_mpsl::programs::jacobi(12),
            4,
            25_000,
            9_000,
        );
        assert!(dense.metrics.forced_checkpoints < eager.metrics.forced_checkpoints);
    }

    #[test]
    fn bcs_jumps_where_index_catches_up() {
        // Same traffic, same timers: the founding member forces once
        // per lag unit, BCS once per lagging receive — so BCS can
        // never force more.
        for prog in [
            acfc_mpsl::programs::jacobi(12),
            acfc_mpsl::programs::pingpong(10),
            acfc_mpsl::programs::master_worker(8),
        ] {
            let index = run_variant(CicVariant::Index, &prog, 4, 25_000, 9_000);
            let bcs = run_variant(CicVariant::Bcs, &prog, 4, 25_000, 9_000);
            assert!(
                bcs.metrics.forced_checkpoints <= index.metrics.forced_checkpoints,
                "{}: BCS forced {} > Index forced {}",
                prog.name,
                bcs.metrics.forced_checkpoints,
                index.metrics.forced_checkpoints
            );
        }
    }

    #[test]
    fn hmnr_sent_conjunct_weakens_bcs() {
        // HMNR's force predicate is BCS's with an extra "receiver has
        // sent in its current interval" conjunct, so on identical
        // traffic it forces at most as often.
        for prog in [
            acfc_mpsl::programs::jacobi(12),
            acfc_mpsl::programs::stencil_1d(10),
            acfc_mpsl::programs::master_worker(8),
        ] {
            let bcs = run_variant(CicVariant::Bcs, &prog, 4, 25_000, 9_000);
            let hmnr = run_variant(CicVariant::Hmnr, &prog, 4, 25_000, 9_000);
            assert!(
                hmnr.metrics.forced_checkpoints <= bcs.metrics.forced_checkpoints,
                "{}: HMNR forced {} > BCS forced {}",
                prog.name,
                hmnr.metrics.forced_checkpoints,
                bcs.metrics.forced_checkpoints
            );
        }
    }

    #[test]
    fn piggyback_bits_ordered_scalar_below_vector() {
        let p = acfc_mpsl::programs::jacobi(8);
        let n = 4;
        let cfg = SimConfig::new(n);
        let mut bits = Vec::new();
        for variant in CicVariant::all() {
            let mut hooks = CicProtocol::new(variant, n, 25_000, 9_000);
            let t = run_with_hooks(&compile(&p), &cfg, &mut hooks);
            assert!(t.completed());
            assert_eq!(
                hooks.piggyback_bits(),
                t.metrics.app_messages * hooks.indexing.stamp_bits(0),
                "{}: bits must meter every app message",
                variant.name()
            );
            bits.push((variant, hooks.piggyback_bits()));
        }
        let scalar = bits[0].1; // Index; BCS and Lazy match it.
        assert_eq!(bits[1].1, scalar);
        assert_eq!(bits[3].1, scalar);
        assert!(
            bits[2].1 > scalar,
            "vector-carrying HMNR must pay more piggyback bits: {bits:?}"
        );
    }

    #[test]
    fn every_variant_is_z_cycle_free() {
        for variant in CicVariant::all() {
            for prog in [
                acfc_mpsl::programs::jacobi(10),
                acfc_mpsl::programs::pingpong(8),
                acfc_mpsl::programs::master_worker(6),
            ] {
                let t = run_variant(variant, &prog, 4, 25_000, 9_000);
                assert!(t.completed());
                assert_eq!(
                    useless_checkpoints(&t),
                    vec![],
                    "{} on {} has useless checkpoints",
                    variant.name(),
                    prog.name
                );
            }
        }
    }
}
