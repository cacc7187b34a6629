//! Counters, histograms, and the global metric registry.
//!
//! [`Counter`] and [`Histogram`] are always compiled: the simulator's
//! per-run collector embeds them directly (opt-in per run, so they need
//! no global gate). The *registry* functions — [`count`], [`record`],
//! [`snapshot`], [`reset`] — are the sprinkled-through-the-codebase
//! layer and honour both the `enabled` feature and the runtime flag.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// A monotonically increasing event counter (relaxed atomic: counts
/// from concurrent threads merge without ordering cost; exact totals
/// are read only after the measured region quiesces).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zero counter.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.store(0, Relaxed);
    }
}

/// Number of histogram buckets: bucket `i` counts values whose
/// bit-length is `i`, i.e. `v == 0` lands in bucket 0 and `v > 0` in
/// bucket `64 − v.leading_zeros()`, capped at the last bucket.
pub const BUCKETS: usize = 64;

/// A fixed-bucket power-of-two histogram: bucket `i` spans
/// `[2^(i−1), 2^i)` (bucket 0 is exactly zero). Recording is one
/// relaxed `fetch_add` plus two for count/sum — cheap enough for
/// per-event use on the simulator's non-inner-loop paths.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// A fresh empty histogram.
    pub const fn new() -> Histogram {
        // `AtomicU64` is not `Copy`; build the array element-wise.
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// The bucket index of `value`.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_of(value)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(value, Relaxed);
        self.max.fetch_max(value, Relaxed);
    }

    /// A point-in-time copy of the histogram.
    pub fn snap(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Relaxed)).collect(),
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
            max: self.max.load(Relaxed),
        }
    }

    /// Resets all buckets.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
        self.count.store(0, Relaxed);
        self.sum.store(0, Relaxed);
        self.max.store(0, Relaxed);
    }
}

/// A non-atomic [`Histogram`] for collectors with exclusive (`&mut`)
/// access — e.g. the simulator's per-run `SimObs`, which is owned by a
/// single-threaded run. Identical bucketing; recording is a handful of
/// plain integer ops (no RMW bus traffic), cheap enough for probes on
/// the engine's per-event pop path where the atomic variant is not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalHist {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LocalHist {
    fn default() -> LocalHist {
        LocalHist::new()
    }
}

impl LocalHist {
    /// A fresh empty histogram.
    pub const fn new() -> LocalHist {
        LocalHist {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one observation. Count and sum saturate rather than
    /// wrap: a telemetry histogram that has absorbed `u64::MAX` µs of
    /// observations should pin at the ceiling, not roll over to a
    /// plausible-looking small number.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Histogram::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        if value > self.max {
            self.max = value;
        }
    }

    /// A point-in-time copy of the histogram.
    pub fn snap(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: self.buckets.to_vec(),
            count: self.count,
            sum: self.sum,
            max: self.max,
        }
    }

    /// The p50/p90/p99 bucket bounds (see [`HistSnapshot::percentiles`]).
    pub fn percentiles(&self) -> Quantiles {
        self.snap().percentiles()
    }

    /// Folds `other` into `self` bucket-for-bucket: afterwards `self`
    /// holds the distribution of the union of both observation
    /// multisets. The merge is exact (buckets are aligned by
    /// construction), which is what makes per-trial histograms
    /// poolable across a sweep cell's seed replicas. Counts and sums
    /// saturate, so merging extreme telemetry inputs pins at
    /// `u64::MAX` instead of wrapping.
    pub fn merge(&mut self, other: &LocalHist) {
        for (b, &o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b = b.saturating_add(o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Resets all buckets.
    pub fn reset(&mut self) {
        *self = LocalHist::new();
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket counts (see [`Histogram::bucket_of`]).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl HistSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound (exclusive) of the bucket containing the `q`-th
    /// quantile, `q` in `[0, 1]` — e.g. `quantile_bound(0.5)` is a p50
    /// estimate with power-of-two resolution. 0 when empty.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        self.max
    }

    /// The p50/p90/p99 bucket bounds in one struct — the shape every
    /// dashboard column and sweep JSON field uses. Each value is a
    /// [`quantile_bound`](HistSnapshot::quantile_bound): the exclusive
    /// upper edge of the bucket holding that quantile, so it is within
    /// a factor of two of the exact order statistic (pinned by the
    /// differential test in `tests/quantile_differential.rs`).
    pub fn percentiles(&self) -> Quantiles {
        Quantiles {
            p50: self.quantile_bound(0.50),
            p90: self.quantile_bound(0.90),
            p99: self.quantile_bound(0.99),
        }
    }

    /// Folds `other` into `self` (same semantics as
    /// [`LocalHist::merge`]); snapshots of different lengths — e.g. the
    /// empty [`HistSnapshot::default`] accumulator — align on bucket
    /// index, so merging into an empty snapshot copies `other`. Counts
    /// and sums saturate rather than wrap (see [`LocalHist::merge`]).
    pub fn merge(&mut self, other: &HistSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b = b.saturating_add(o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// The non-empty `(bucket_lower_bound, count)` pairs.
    pub fn nonzero(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << (i - 1) }, c))
            .collect()
    }
}

/// Histogram-derived p50/p90/p99 bucket bounds (µs, counts — whatever
/// the histogram recorded). Zero when the histogram is empty.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quantiles {
    /// Median bucket bound.
    pub p50: u64,
    /// 90th-percentile bucket bound.
    pub p90: u64,
    /// 99th-percentile bucket bound.
    pub p99: u64,
}

/// A point-in-time copy of the whole registry, name-sorted (the
/// registry stores names in a BTree, so snapshots are deterministic).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `(name, value)` for every registered counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, snapshot)` for every registered histogram.
    pub histograms: Vec<(String, HistSnapshot)>,
}

static RUNTIME_ENABLED: AtomicBool = AtomicBool::new(false);

/// Switches the registry probes on or off at runtime. A no-op (always
/// off) when the `enabled` feature is not compiled in.
pub fn set_enabled(on: bool) {
    RUNTIME_ENABLED.store(on && cfg!(feature = "enabled"), Relaxed);
}

/// The combined compile-time + runtime gate.
#[inline]
pub(crate) fn runtime_enabled() -> bool {
    cfg!(feature = "enabled") && RUNTIME_ENABLED.load(Relaxed)
}

#[cfg(feature = "enabled")]
mod registry {
    use super::{Counter, Histogram, Snapshot};
    use std::collections::BTreeMap;
    use std::sync::{Mutex, OnceLock};

    /// Registered metrics are leaked to `'static`: the name set is the
    /// finite set of instrumentation points, so the "leak" is a
    /// one-time arena for process-lifetime objects.
    struct Registry {
        counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
        histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
    }

    fn registry() -> &'static Registry {
        static REG: OnceLock<Registry> = OnceLock::new();
        REG.get_or_init(|| Registry {
            counters: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        })
    }

    pub(super) fn counter(name: &'static str) -> &'static Counter {
        let mut map = registry().counters.lock().expect("obs registry poisoned");
        map.entry(name).or_insert_with(|| Box::leak(Box::default()))
    }

    pub(super) fn histogram(name: &'static str) -> &'static Histogram {
        let mut map = registry().histograms.lock().expect("obs registry poisoned");
        map.entry(name)
            .or_insert_with(|| Box::leak(Box::new(Histogram::new())))
    }

    pub(super) fn snapshot() -> Snapshot {
        let reg = registry();
        let counters = reg
            .counters
            .lock()
            .expect("obs registry poisoned")
            .iter()
            .map(|(&k, v)| (k.to_string(), v.get()))
            .collect();
        let histograms = reg
            .histograms
            .lock()
            .expect("obs registry poisoned")
            .iter()
            .map(|(&k, v)| (k.to_string(), v.snap()))
            .collect();
        Snapshot {
            counters,
            histograms,
        }
    }

    pub(super) fn reset() {
        let reg = registry();
        for c in reg.counters.lock().expect("obs registry poisoned").values() {
            c.reset();
        }
        for h in reg
            .histograms
            .lock()
            .expect("obs registry poisoned")
            .values()
        {
            h.reset();
        }
    }
}

/// Adds `delta` to the named registry counter. Hierarchical names use
/// slash separators (`"core/phase3/moves"`). No-op unless obs is
/// compiled in and runtime-enabled.
#[inline]
pub fn count(name: &'static str, delta: u64) {
    if !runtime_enabled() {
        return;
    }
    #[cfg(feature = "enabled")]
    registry::counter(name).add(delta);
    #[cfg(not(feature = "enabled"))]
    let _ = (name, delta);
}

/// Records `value` into the named registry histogram. No-op unless obs
/// is compiled in and runtime-enabled.
#[inline]
pub fn record(name: &'static str, value: u64) {
    if !runtime_enabled() {
        return;
    }
    #[cfg(feature = "enabled")]
    registry::histogram(name).record(value);
    #[cfg(not(feature = "enabled"))]
    let _ = (name, value);
}

/// A point-in-time copy of every registered metric (empty when the
/// feature is off). Reading does not require the runtime flag, so a
/// harness can disable, then snapshot, then report.
pub fn snapshot() -> Snapshot {
    #[cfg(feature = "enabled")]
    {
        registry::snapshot()
    }
    #[cfg(not(feature = "enabled"))]
    Snapshot::default()
}

/// Zeroes every registered metric (names stay registered).
pub fn reset() {
    #[cfg(feature = "enabled")]
    registry::reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_adds_and_resets() {
        let c = Counter::new();
        c.add(3);
        c.add(4);
        assert_eq!(c.get(), 7);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn histogram_buckets_are_power_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_stats() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 100] {
            h.record(v);
        }
        let s = h.snap();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 106);
        assert_eq!(s.max, 100);
        assert!((s.mean() - 21.2).abs() < 1e-9);
        // Buckets: 0→[0], 1→[1], 2→[2,3], 7→[100].
        assert_eq!(s.nonzero(), vec![(0, 1), (1, 1), (2, 2), (64, 1)]);
        assert_eq!(s.quantile_bound(0.0), 0);
        assert_eq!(s.quantile_bound(0.5), 4); // 3rd of 5 obs is in [2,4)
        assert_eq!(s.quantile_bound(1.0), 128);
    }

    #[test]
    fn merged_histograms_equal_jointly_recorded_one() {
        let mut a = LocalHist::new();
        let mut b = LocalHist::new();
        let mut joint = LocalHist::new();
        for v in [0u64, 1, 5, 9, 100] {
            a.record(v);
            joint.record(v);
        }
        for v in [2u64, 3, 1000, 9] {
            b.record(v);
            joint.record(v);
        }
        a.merge(&b);
        assert_eq!(a, joint);
        assert_eq!(a.snap(), joint.snap());
        // Snapshot-level merge agrees, including into the empty default.
        let mut s = HistSnapshot::default();
        s.merge(&LocalHist::new().snap());
        assert_eq!(s.count, 0);
        let mut s = HistSnapshot::default();
        s.merge(&b.snap());
        assert_eq!(s, b.snap());
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let s = Histogram::new().snap();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile_bound(0.5), 0);
        assert!(s.nonzero().is_empty());
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn registry_counts_only_when_enabled() {
        // Serialise with other registry tests via a dedicated name.
        count("test/gated", 5);
        assert!(
            !snapshot()
                .counters
                .iter()
                .any(|(n, v)| n == "test/gated" && *v > 0),
            "disabled probe must not record"
        );
        set_enabled(true);
        count("test/gated", 5);
        record("test/gated_hist", 7);
        set_enabled(false);
        let snap = snapshot();
        let c = snap
            .counters
            .iter()
            .find(|(n, _)| n == "test/gated")
            .unwrap();
        assert_eq!(c.1, 5);
        let h = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "test/gated_hist")
            .unwrap();
        assert_eq!(h.1.count, 1);
        assert_eq!(h.1.sum, 7);
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn feature_off_is_inert() {
        set_enabled(true);
        assert!(!crate::enabled());
        count("test/never", 1);
        record("test/never", 1);
        assert_eq!(snapshot(), Snapshot::default());
    }
}
