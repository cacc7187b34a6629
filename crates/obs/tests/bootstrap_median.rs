//! Pins `bootstrap_median_ci` against two references.
//!
//! - A brute-force reference replays the identical seeded draw sequence
//!   but materialises every resample as a sorted vector and takes the
//!   order statistic directly, instead of the tally-and-scan the
//!   production path uses. Any divergence in draw mapping, median
//!   definition, draw cap, or percentile ranking shows up as an exact
//!   mismatch on small pools.
//! - The former production draw loop: a rejection-sampled `x % n` and
//!   a binary search per draw. The production path finds the same
//!   bucket without dividing, so the two must agree on every snapshot
//!   and seed, including totals far beyond anything a pool can
//!   materialise.

use acfc_obs::{bootstrap_median_ci, HistSnapshot, LocalHist, MedianCi, BOOTSTRAP_MAX_DRAWS};

/// The same splitmix64 the production bootstrap seeds itself with.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let x = self.next();
            if x < zone {
                return x % n;
            }
        }
    }
}

fn bound_of(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else {
        1u64 << bucket
    }
}

/// Ceil-rank percentiles of the resampled medians, as the production
/// path reports them.
fn interval(snap: &HistSnapshot, mut meds: Vec<u64>, resamples: u32) -> MedianCi {
    meds.sort_unstable();
    let rank = |q: f64| -> u64 {
        let r = (q * resamples as f64).ceil().max(1.0) as usize;
        meds[r.min(meds.len()) - 1]
    };
    MedianCi {
        median: snap.quantile_bound(0.5),
        lo: rank(0.025),
        hi: rank(0.975),
        resamples,
    }
}

/// Brute-force reference: identical seeding and draw order, but each
/// resample of `min(total, BOOTSTRAP_MAX_DRAWS)` draws is materialised
/// and sorted, and the median is its ceil(draws/2)-th order statistic.
fn brute_force(snap: &HistSnapshot, resamples: u32, seed: u64) -> Option<MedianCi> {
    if snap.count == 0 || resamples == 0 {
        return None;
    }
    // The empirical distribution the production path sees: one entry
    // per observation, carrying its bucket's upper bound.
    let mut pool: Vec<u64> = Vec::new();
    for (i, &c) in snap.buckets.iter().enumerate() {
        pool.extend(std::iter::repeat_n(bound_of(i), c as usize));
    }
    let total = pool.len() as u64;
    let draws = total.min(BOOTSTRAP_MAX_DRAWS);
    let mut rng = SplitMix(seed ^ 0x1957_0ca1_b007_57a9);
    let mut meds = Vec::new();
    for _ in 0..resamples {
        let mut sample: Vec<u64> = (0..draws)
            .map(|_| pool[rng.below(total) as usize])
            .collect();
        sample.sort_unstable();
        meds.push(sample[(draws.div_ceil(2) - 1) as usize]);
    }
    Some(interval(snap, meds, resamples))
}

/// The former production draw loop: per draw, a rejection-sampled
/// remainder and a binary search over the cumulative counts.
fn divide_and_search(snap: &HistSnapshot, resamples: u32, seed: u64) -> Option<MedianCi> {
    if snap.count == 0 || resamples == 0 {
        return None;
    }
    let mut bounds = Vec::new();
    let mut cum = Vec::new();
    let mut seen = 0u64;
    for (i, &c) in snap.buckets.iter().enumerate() {
        if c > 0 {
            seen += c;
            bounds.push(bound_of(i));
            cum.push(seen);
        }
    }
    let total = snap.count;
    let draws = total.min(BOOTSTRAP_MAX_DRAWS);
    let mut rng = SplitMix(seed ^ 0x1957_0ca1_b007_57a9);
    let mut meds = Vec::with_capacity(resamples as usize);
    let mut tally = vec![0u64; bounds.len()];
    for _ in 0..resamples {
        tally.fill(0);
        for _ in 0..draws {
            let u = rng.below(total);
            let b = cum.partition_point(|&c| c <= u);
            tally[b] += 1;
        }
        meds.push(median_bound(&bounds, &tally, draws));
    }
    Some(interval(snap, meds, resamples))
}

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

fn snap_of(values: &[u64]) -> HistSnapshot {
    let mut hist = LocalHist::new();
    for &v in values {
        hist.record(v);
    }
    hist.snap()
}

/// A snapshot holding `(bucket, count)` pairs, with `count` their sum —
/// the invariant every histogram's snapshot keeps.
fn snap_with(parts: &[(usize, u64)]) -> HistSnapshot {
    let mut buckets = vec![0u64; 64];
    for &(b, c) in parts {
        buckets[b] += c;
    }
    HistSnapshot {
        count: parts.iter().map(|&(_, c)| c).sum(),
        buckets,
        ..HistSnapshot::default()
    }
}

/// `total` split at random over 1 to 8 random buckets (0 and 63
/// included in the candidates).
fn random_split(rng: &mut SplitMix, total: u64) -> HistSnapshot {
    let k = 1 + rng.below(8);
    let mut parts = Vec::new();
    let mut left = total;
    for i in 0..k {
        let c = if i + 1 == k {
            left
        } else {
            rng.below(left.saturating_add(1))
        };
        parts.push((rng.below(64) as usize, c));
        left -= c;
    }
    snap_with(&parts)
}

#[track_caller]
fn assert_same_as_divide_and_search(snap: &HistSnapshot, resamples: u32, seed: u64) {
    assert_eq!(
        bootstrap_median_ci(snap, resamples, seed),
        divide_and_search(snap, resamples, seed),
        "buckets {:?} resamples {resamples} seed {seed:#x}",
        snap.buckets
    );
}

#[test]
fn matches_brute_force_reference_on_small_inputs() {
    let cases: Vec<Vec<u64>> = vec![
        vec![7],
        vec![0, 0, 0, 1],
        vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        vec![100, 100, 100, 4000, 4000, 250_000],
        (0..40).map(|i| i * i).collect(),
        vec![u64::MAX, 1, 2, 3],
    ];
    for (ci, values) in cases.iter().enumerate() {
        for seed in [0u64, 1, 0xACFC, 0xDEAD_BEEF] {
            let snap = snap_of(values);
            let got = bootstrap_median_ci(&snap, 64, seed);
            assert_eq!(
                got,
                brute_force(&snap, 64, seed),
                "case {ci} seed {seed:#x}"
            );
        }
    }
}

/// Pools larger than the draw cap resample `BOOTSTRAP_MAX_DRAWS` of
/// them, and the brute force takes its median over that many too.
#[test]
fn matches_brute_force_reference_above_the_draw_cap() {
    let cap = BOOTSTRAP_MAX_DRAWS;
    for (parts, seed) in [
        (vec![(3, cap / 2), (4, cap / 2 + 1)], 1u64),
        (vec![(0, 3000), (9, 2000), (63, 1)], 2),
        (vec![(5, 2 * cap), (6, 2 * cap - 1)], 0xACFC_B007),
    ] {
        let snap = snap_with(&parts);
        assert!(snap.count > cap);
        let got = bootstrap_median_ci(&snap, 16, seed);
        assert_eq!(got, brute_force(&snap, 16, seed), "{parts:?}");
    }
}

/// Every total a small pool can have, each split at random, and once
/// more split at its middle, where a single misplaced draw is most
/// likely to move a resample's median.
#[test]
fn matches_divide_and_search_at_every_small_total() {
    let mut rng = SplitMix(0xB007_57A9);
    for total in 1..=2000u64 {
        let seed = rng.next();
        assert_same_as_divide_and_search(&random_split(&mut rng, total), 4, seed);
        let half = snap_with(&[(2, total / 2), (7, total - total / 2)]);
        assert_same_as_divide_and_search(&half, 4, seed);
    }
}

#[test]
fn matches_divide_and_search_above_the_draw_cap() {
    let mut rng = SplitMix(0xCA9);
    for total in [
        BOOTSTRAP_MAX_DRAWS + 1,
        3 * BOOTSTRAP_MAX_DRAWS,
        1_000_003,
        1 << 32,
        (1 << 46) - 7,
    ] {
        for seed in [0u64, 7, 0xACFC_B007] {
            assert_same_as_divide_and_search(&random_split(&mut rng, total), 8, seed);
        }
    }
}

/// Totals whose rejection zone discards up to half of all outputs, and
/// the largest totals there are: the same outputs must be consumed.
#[test]
fn matches_divide_and_search_on_rejection_heavy_totals() {
    let mut rng = SplitMix(0x2_0001);
    for total in [(1 << 63) + 1, 3 << 61, u64::MAX - 1, u64::MAX] {
        for seed in [1u64, 0xDEAD_BEEF] {
            let split = random_split(&mut rng, total);
            assert_same_as_divide_and_search(&split, 4, seed);
            let edges = snap_with(&[(0, total / 2), (63, total - total / 2)]);
            assert_same_as_divide_and_search(&edges, 4, seed);
        }
    }
}

#[test]
fn matches_divide_and_search_on_the_edge_buckets() {
    for seed in [0u64, 1, 0xACFC, 0xDEAD_BEEF] {
        for parts in [
            vec![(0, 5)],
            vec![(63, 5)],
            vec![(0, 1), (63, 1)],
            vec![(0, 999), (63, 1001)],
            vec![(0, 1), (31, 5000), (63, 1)],
        ] {
            assert_same_as_divide_and_search(&snap_with(&parts), 16, seed);
        }
    }
}

/// `count` disagreeing with the buckets (the fields are public) must
/// not send a draw past the last bucket: draws cover the buckets.
#[test]
fn draws_cover_the_buckets_not_the_count_field() {
    let snap = HistSnapshot {
        buckets: vec![1],
        count: 2,
        ..HistSnapshot::default()
    };
    let m = bootstrap_median_ci(&snap, 10, 3).unwrap();
    assert_eq!((m.lo, m.hi), (0, 0));
}

#[test]
fn empty_and_zero_resamples_are_absent() {
    assert_eq!(bootstrap_median_ci(&snap_of(&[]), 100, 1), None);
    assert_eq!(bootstrap_median_ci(&snap_of(&[1, 2, 3]), 0, 1), None);
}

#[test]
fn degenerate_pool_gives_degenerate_interval() {
    let m = bootstrap_median_ci(&snap_of(&[500; 12]), 100, 7).unwrap();
    // Every draw lands in the same bucket, so the interval collapses.
    assert_eq!(m.lo, m.hi);
    assert_eq!(m.lo, m.median);
}

#[test]
fn interval_is_ordered_and_deterministic() {
    let values: Vec<u64> = (0..200).map(|i| (i * 37) % 10_000).collect();
    let snap = snap_of(&values);
    let a = bootstrap_median_ci(&snap, 200, 42).unwrap();
    let b = bootstrap_median_ci(&snap, 200, 42).unwrap();
    assert_eq!(a, b);
    assert!(a.lo <= a.hi);
    assert!(a.lo <= a.median && a.median <= a.hi);
    assert_eq!(a.resamples, 200);
}
