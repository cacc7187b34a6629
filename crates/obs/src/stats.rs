//! Replicated-trial aggregation: running mean/stddev and 95%
//! confidence intervals.
//!
//! The sweep engine runs every (workload, n, failure-rate, protocol)
//! cell under many seeds and needs per-cell summary statistics without
//! buffering the trials. [`CiAccum`] is a Welford accumulator: one
//! `push` per trial, O(1) state, numerically stable, and mergeable
//! (Chan et al.'s pairwise combination) so partial accumulators from
//! split workers can be folded together — the scalar counterpart of
//! [`LocalHist::merge`](crate::LocalHist::merge), which pools the
//! histogram-shaped metrics across the same trials.
//!
//! The derived [`CiSummary`] reports the sample standard deviation
//! (n−1 denominator) and a Student-t 95% confidence half-width. With a
//! single trial the interval is undefined and is reported as *absent*
//! (`None`), never as NaN — a `seeds = 1` sweep degrades to plain
//! means instead of poisoning downstream JSON.

/// Two-sided 95% Student-t critical value (`t_{0.975, df}`).
///
/// Exact table entries for the small degrees of freedom a seeds-per-cell
/// sweep actually produces (df ≤ 30), then the coarser standard
/// breakpoints, then the normal limit 1.96. Monotonically decreasing in
/// `df`, so interpolation error only ever *widens* the interval.
pub fn t_critical_95(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::NAN, // no interval exists; callers gate on count ≥ 2
        1..=30 => TABLE[(df - 1) as usize],
        31..=40 => 2.021,
        41..=60 => 2.000,
        61..=120 => 1.980,
        _ => 1.960,
    }
}

/// A running mean/variance accumulator (Welford's algorithm) with
/// pairwise merging.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CiAccum {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl CiAccum {
    /// A fresh empty accumulator.
    pub const fn new() -> CiAccum {
        CiAccum {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let d = x - self.mean;
        self.mean += d / self.count as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Folds `other` into `self` (Chan et al. parallel combination):
    /// the result summarises the union of both observation multisets.
    pub fn merge(&mut self, other: &CiAccum) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let d = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += d * n2 / total;
        self.m2 += other.m2 + d * d * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Unbiased sample variance (n−1 denominator); 0 with fewer than
    /// two observations. Welford's `m2` is a sum of squares, so this is
    /// never negative (modulo a clamp against −0.0 rounding).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).max(0.0)
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Half-width of the Student-t 95% confidence interval for the
    /// mean: `t_{0.975, n−1} · s / √n`. `None` with fewer than two
    /// observations (the interval is undefined, not zero).
    pub fn ci95_half(&self) -> Option<f64> {
        if self.count < 2 {
            return None;
        }
        Some(t_critical_95(self.count - 1) * self.stddev() / (self.count as f64).sqrt())
    }

    /// The frozen summary of everything pushed so far.
    pub fn summary(&self) -> CiSummary {
        CiSummary {
            count: self.count,
            mean: self.mean(),
            stddev: self.stddev(),
            ci95_half: self.ci95_half(),
        }
    }
}

/// Frozen per-metric summary of a replicated trial set: the shape every
/// aggregate sweep row carries per column.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CiSummary {
    /// Number of trials aggregated.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 when count < 2).
    pub stddev: f64,
    /// Student-t 95% confidence half-width; `None` when count < 2
    /// (reported as absent, never NaN).
    pub ci95_half: Option<f64>,
}

impl CiSummary {
    /// `mean ± ci95` when the interval exists, plain `mean` otherwise,
    /// with `digits` fractional digits — the table-cell rendering.
    pub fn render(&self, digits: usize) -> String {
        match self.ci95_half {
            Some(ci) => format!("{:.*}±{:.*}", digits, self.mean, digits, ci),
            None => format!("{:.*}", digits, self.mean),
        }
    }
}

/// Bootstrap median and 95% percentile interval over a pooled
/// [`HistSnapshot`](crate::HistSnapshot). All three values are bucket
/// *bounds* in the sense of
/// [`quantile_bound`](crate::HistSnapshot::quantile_bound): the
/// exclusive upper edge of the bucket holding the order statistic, so
/// they are directly comparable with the `p50`/`p99` columns they sit
/// next to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MedianCi {
    /// Median bound of the pooled distribution itself.
    pub median: u64,
    /// 2.5th percentile of the resampled medians (interval low edge).
    pub lo: u64,
    /// 97.5th percentile of the resampled medians (interval high edge).
    pub hi: u64,
    /// Resamples drawn.
    pub resamples: u32,
}

/// Default bootstrap resample count used by the sweep columns.
pub const BOOTSTRAP_RESAMPLES: u32 = 200;

/// Per-resample draw cap. Resampling cost is `resamples × min(count,
/// cap)` draws, each one splitmix64 step, one 64 × 128-bit multiply
/// and one load from a 1 KiB bucket table, plus 1024 binary searches
/// per call to build the table. No draw divides; only the few that land
/// in a slot a bucket boundary crosses take a remainder and a search.
/// Capping turns the full bootstrap into an `m`-out-of-`n` bootstrap
/// on huge pools, which only *widens* the interval.
pub const BOOTSTRAP_MAX_DRAWS: u64 = 4096;

/// splitmix64 — the same sequence as `acfc_util::rng::SplitMix64`.
/// Sequence quality is ample for resampling indices.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Top bits of a draw's position that index the bucket table.
const SLOT_BITS: u32 = 10;

/// Entries in the bucket table.
const SLOTS: usize = 1 << SLOT_BITS;

/// Bucket-table entry of a slot that a bucket boundary crosses: draws
/// there fall back to the exact remainder and a search.
const MIXED: u8 = u8::MAX;

/// The bucket table of one bootstrap call over `cum`, the cumulative
/// bucket counts (`total` is the last). Remainder `r` of a draw sits at
/// `[r, r + 1) / total` in `[0, 1)`, and slot `s` covers
/// `[s, s + 1) / SLOTS`; the slot's entry is the bucket of every
/// remainder that reaches it, or [`MIXED`] when those span a boundary.
fn slot_table(cum: &[u64], total: u64) -> [u8; SLOTS] {
    let mut table = [MIXED; SLOTS];
    for (s, slot) in table.iter_mut().enumerate() {
        let first = ((s as u128 * total as u128) >> SLOT_BITS) as u64;
        let last = (((s as u128 + 1) * total as u128 - 1) >> SLOT_BITS) as u64;
        let b = cum.partition_point(|&c| c <= first);
        if cum[b] > last {
            // `MIXED` itself, or a bucket index past it, stays exact.
            *slot = u8::try_from(b).unwrap_or(MIXED);
        }
    }
    table
}

/// Median bound of a discrete sample given per-bucket tallies aligned
/// with `bounds`: the bound of the bucket where the cumulative count
/// first reaches `ceil(total/2)`.
fn median_bound(bounds: &[u64], tally: &[u64], total: u64) -> u64 {
    let target = total.div_ceil(2);
    let mut seen = 0u64;
    for (i, &c) in tally.iter().enumerate() {
        seen += c;
        if seen >= target {
            return bounds[i];
        }
    }
    *bounds.last().expect("non-empty tally")
}

/// Bootstrap median ± 95% percentile interval of the distribution
/// pooled in `snap` — the median-based companion to [`CiAccum`] for
/// heavy-tailed columns, where a mean ± t-interval is dominated by the
/// tail. Resampling is seeded and deterministic: the same snapshot,
/// `resamples`, and `seed` always produce the same interval, so sweep
/// output stays byte-identical at any thread count.
///
/// Each draw is a uniform remainder `r` in `[0, total)` by rejection
/// (no modulo bias), and lands in the bucket whose cumulative-count
/// range holds `r`. The remainder is never divided out: with
/// `M = ⌈2^128 / total⌉`, the top bits of `M·x mod 2^128` are the
/// position of `x mod total` in `[0, 1)` (Lemire, Kaser & Kurz, "Faster
/// Remainder by Direct Computation", 2019), and a per-call table over
/// those bits names the bucket; only a slot a bucket boundary crosses
/// takes the exact `x % total` and a search.
///
/// Returns `None` when the snapshot is empty or `resamples` is 0.
pub fn bootstrap_median_ci(
    snap: &crate::HistSnapshot,
    resamples: u32,
    seed: u64,
) -> Option<MedianCi> {
    // The empirical distribution: per non-empty bucket, its upper
    // bound (quantile_bound convention) and cumulative count.
    let mut bounds = Vec::new();
    let mut cum = Vec::new();
    let mut seen = 0u64;
    for (i, &c) in snap.buckets.iter().enumerate() {
        if c > 0 {
            seen += c;
            bounds.push(if i == 0 { 0 } else { 1u64 << i });
            cum.push(seen);
        }
    }
    // Draw over the buckets themselves: the tallies index them. Every
    // histogram's snapshot has `count` equal to this sum.
    let total = seen;
    if total == 0 || resamples == 0 {
        return None;
    }
    let draws = total.min(BOOTSTRAP_MAX_DRAWS);
    let zone = u64::MAX - u64::MAX % total;
    // ⌈2^128 / total⌉, which wraps to 0 ≡ 2^128 for total = 1.
    let m = (u128::MAX / total as u128).wrapping_add(1);
    let slots = slot_table(&cum, total);
    let mut rng = SplitMix(seed ^ 0x1957_0ca1_b007_57a9);
    let mut meds = Vec::with_capacity(resamples as usize);
    let mut tally = vec![0u64; bounds.len()];
    for _ in 0..resamples {
        tally.fill(0);
        let mut taken = 0;
        while taken < draws {
            let x = rng.next();
            if x >= zone {
                continue;
            }
            taken += 1;
            let b = match slots[(m.wrapping_mul(x as u128) >> (128 - SLOT_BITS)) as usize] {
                MIXED => cum.partition_point(|&c| c <= x % total),
                b => b as usize,
            };
            tally[b] += 1;
        }
        meds.push(median_bound(&bounds, &tally, draws));
    }
    meds.sort_unstable();
    // Percentile bootstrap: the 2.5th/97.5th order statistics of the
    // resampled medians (ceil-rank, clamped to the sample).
    let rank = |q: f64| -> u64 {
        let r = (q * resamples as f64).ceil().max(1.0) as usize;
        meds[r.min(meds.len()) - 1]
    };
    Some(MedianCi {
        median: snap.quantile_bound(0.5),
        lo: rank(0.025),
        hi: rank(0.975),
        resamples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_observation_has_no_interval() {
        let mut a = CiAccum::new();
        a.push(42.0);
        let s = a.summary();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.ci95_half, None);
        assert_eq!(s.render(1), "42.0");
    }

    #[test]
    fn identical_trials_have_zero_width_interval() {
        let mut a = CiAccum::new();
        for _ in 0..7 {
            a.push(3.5);
        }
        let s = a.summary();
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.ci95_half, Some(0.0));
        assert_eq!(s.render(2), "3.50±0.00");
    }

    #[test]
    fn known_small_sample() {
        // x = [2, 4, 4, 4, 5, 5, 7, 9]: mean 5, sample variance 32/7.
        let mut a = CiAccum::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            a.push(x);
        }
        assert_eq!(a.count(), 8);
        assert!((a.mean() - 5.0).abs() < 1e-12);
        assert!((a.variance() - 32.0 / 7.0).abs() < 1e-12);
        let ci = a.ci95_half().unwrap();
        // t_{0.975,7} = 2.365; s/√8 = √(32/7)/√8.
        let expect = 2.365 * (32.0f64 / 7.0).sqrt() / 8.0f64.sqrt();
        assert!((ci - expect).abs() < 1e-12, "{ci} vs {expect}");
        assert_eq!(a.min(), Some(2.0));
        assert_eq!(a.max(), Some(9.0));
    }

    #[test]
    fn merge_matches_sequential_pushes() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64) * 0.37 - 12.0).collect();
        let mut whole = CiAccum::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = CiAccum::new();
        let mut right = CiAccum::new();
        for &x in &xs[..33] {
            left.push(x);
        }
        for &x in &xs[33..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        // Merging an empty accumulator is the identity, both ways.
        let mut empty = CiAccum::new();
        empty.merge(&whole);
        assert_eq!(empty.summary(), whole.summary());
        let before = whole.summary();
        whole.merge(&CiAccum::new());
        assert_eq!(whole.summary(), before);
    }

    #[test]
    fn t_table_is_monotone_and_bounded() {
        let mut prev = f64::INFINITY;
        for df in 1..200 {
            let t = t_critical_95(df);
            assert!(t <= prev, "df={df}");
            assert!(t >= 1.96, "df={df}");
            prev = t;
        }
        assert_eq!(t_critical_95(1), 12.706);
        assert_eq!(t_critical_95(1_000_000), 1.960);
        assert!(t_critical_95(0).is_nan());
    }
}
