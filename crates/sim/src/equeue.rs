//! The engine's future-event list.
//!
//! Events are keyed by `(time_us, seq)` where `seq` is a unique,
//! monotonically increasing tiebreak assigned at push time, so keys are
//! totally ordered and FIFO within equal timestamps. The engine
//! previously kept one sorted `VecDeque` and paid an O(queue) memmove
//! (`partition_point` + `insert`) on every out-of-order schedule — fine
//! at n = 8, quadratic pain at n = 2048 where thousands of deliveries
//! are in flight.
//!
//! [`CalendarQueue`] replaces it: a classic calendar queue (Brown 1988)
//! bucketing events by `time >> shift` into a power-of-two ring of
//! "days". Each bucket is a small binary min-heap ordered by key —
//! heaps rather than sorted runs because the engine's workloads are
//! tie-heavy (lock-step stencils put thousands of events in the same
//! day), and a sorted bucket degrades to an O(bucket) memmove per
//! operation exactly when buckets fill up. Push is an O(log bucket)
//! sift into one bucket; pop walks the day cursor to the next nonempty
//! in-year bucket and sifts its root out. The structure self-tunes: it
//! rebuilds when occupancy drifts outside the sweet spot or when pops
//! spend too long walking empty days (width too small for the current
//! event spread).
//!
//! Pop order is *identical* to the old sorted queue — keys are unique,
//! so both structures realise the same total order. The unit tests keep
//! the old implementation (`SortedVecQueue`) as the reference for a
//! differential check; the engine's golden traces double as an
//! end-to-end pin.

/// How many full-year cursor sweeps (ending in a global-min scan) we
/// tolerate before concluding the bucket width is mistuned and
/// rebuilding around the observed event spread.
const MAX_OVERFLOW_SCANS: u32 = 4;

/// Re-examine tuning after this many pushes even if occupancy triggers
/// never fire (cheap: rebuilds only happen if parameters actually move).
const TUNE_INTERVAL: u32 = 8192;

/// A self-tuning calendar queue over `(time, seq, item)` entries with
/// unique `(time, seq)` keys. See the module docs.
pub struct CalendarQueue<T> {
    /// Power-of-two ring of day buckets, each a binary min-heap by key.
    buckets: Vec<Vec<(u64, u64, T)>>,
    /// `buckets.len() - 1`.
    mask: u64,
    /// Bucket width is `1 << shift` microseconds.
    shift: u32,
    /// Cursor: no live key has `time >> shift < cur_day`.
    cur_day: u64,
    len: usize,
    overflow_scans: u32,
    pushes_since_tune: u32,
}

impl<T> CalendarQueue<T> {
    /// An empty queue with the initial (16-bucket, 16 µs-day) calendar;
    /// it retunes itself as events arrive.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..16).map(|_| Vec::new()).collect(),
            mask: 15,
            shift: 4,
            cur_day: 0,
            len: 0,
            overflow_scans: 0,
            pushes_since_tune: 0,
        }
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues `item` under the unique key `(t, seq)`.
    pub fn push(&mut self, t: u64, seq: u64, item: T) {
        let day = t >> self.shift;
        // Keep the cursor invariant: it must never sit past the minimum
        // live day. (The engine never schedules into the past, but the
        // structure doesn't rely on that.)
        if self.len == 0 || day < self.cur_day {
            self.cur_day = day;
        }
        let b = &mut self.buckets[(day & self.mask) as usize];
        bucket_push(b, (t, seq, item));
        self.len += 1;
        self.pushes_since_tune += 1;
        if self.len > 2 * self.buckets.len()
            || (self.buckets.len() > 16 && self.len * 8 < self.buckets.len())
            || self.pushes_since_tune >= TUNE_INTERVAL
        {
            self.retune();
        }
    }

    /// Advances `cur_day` to the minimum live key's day and returns that
    /// key. `&mut` because the cursor (and tuning stats) move; the set of
    /// queued events is untouched.
    pub fn peek_key(&mut self) -> Option<(u64, u64)> {
        if self.len == 0 {
            return None;
        }
        let mut steps = 0u64;
        loop {
            let b = &self.buckets[(self.cur_day & self.mask) as usize];
            // The heap root is the bucket minimum; it belongs to the
            // cursor's year iff its day matches exactly (any event in an
            // earlier year would itself be the minimum).
            if let Some(&(t, s, _)) = b.first() {
                if t >> self.shift == self.cur_day {
                    return Some((t, s));
                }
            }
            self.cur_day += 1;
            steps += 1;
            if steps > self.mask {
                // A full year of empty days: the next event is more than
                // nbuckets × width away. Jump straight to the global
                // minimum, and note the mistuning.
                let (t, s) = self
                    .buckets
                    .iter()
                    .filter_map(|b| b.first())
                    .map(|&(t, s, _)| (t, s))
                    .min()
                    .expect("len > 0 but no bucket has a front");
                self.cur_day = t >> self.shift;
                self.overflow_scans += 1;
                if self.overflow_scans >= MAX_OVERFLOW_SCANS {
                    self.retune();
                }
                return Some((t, s));
            }
        }
    }

    /// Removes and returns the minimum entry.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        self.peek_key()?;
        let b = &mut self.buckets[(self.cur_day & self.mask) as usize];
        let out = bucket_pop(b);
        self.len -= 1;
        Some(out)
    }

    /// Rebuilds the bucket array sized to the current population, with
    /// the width chosen so the live events spread across roughly one
    /// year (mean gap ≈ one day).
    fn retune(&mut self) {
        self.pushes_since_tune = 0;
        self.overflow_scans = 0;
        let (mut min_t, mut max_t) = (u64::MAX, 0u64);
        for b in &self.buckets {
            for &(t, _, _) in b {
                min_t = min_t.min(t);
                max_t = max_t.max(t);
            }
        }
        let nbuckets = self.len.clamp(16, 1 << 16).next_power_of_two();
        let shift = if self.len < 2 {
            4
        } else {
            let gap = ((max_t - min_t) / self.len as u64).max(1);
            (63 - gap.leading_zeros()).min(40)
        };
        if nbuckets == self.buckets.len() && shift == self.shift {
            return;
        }
        let mut items: Vec<(u64, u64, T)> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            items.append(b);
        }
        items.sort_unstable_by_key(|&(t, s, _)| (t, s));
        if self.buckets.len() < nbuckets {
            self.buckets.resize_with(nbuckets, Vec::new);
        } else {
            self.buckets.truncate(nbuckets);
        }
        self.mask = nbuckets as u64 - 1;
        self.shift = shift;
        self.cur_day = if items.is_empty() {
            0
        } else {
            items[0].0 >> shift
        };
        // Sorted reinsert: appending ascending keys keeps every bucket
        // a valid heap with zero sift work.
        for (t, seq, item) in items {
            let b = &mut self.buckets[((t >> shift) & self.mask) as usize];
            b.push((t, seq, item));
        }
    }
}

/// Sift-up insertion into one bucket heap (min by `(t, seq)`).
fn bucket_push<T>(b: &mut Vec<(u64, u64, T)>, entry: (u64, u64, T)) {
    b.push(entry);
    let mut i = b.len() - 1;
    while i > 0 {
        let parent = (i - 1) / 2;
        if (b[parent].0, b[parent].1) <= (b[i].0, b[i].1) {
            break;
        }
        b.swap(i, parent);
        i = parent;
    }
}

/// Removes the root (minimum) of one nonempty bucket heap.
fn bucket_pop<T>(b: &mut Vec<(u64, u64, T)>) -> (u64, u64, T) {
    let last = b.len() - 1;
    b.swap(0, last);
    let out = b.pop().expect("bucket_pop on empty bucket");
    let mut i = 0;
    loop {
        let l = 2 * i + 1;
        if l >= b.len() {
            break;
        }
        let r = l + 1;
        let c = if r < b.len() && (b[r].0, b[r].1) < (b[l].0, b[l].1) {
            r
        } else {
            l
        };
        if (b[c].0, b[c].1) < (b[i].0, b[i].1) {
            b.swap(i, c);
            i = c;
        } else {
            break;
        }
    }
    out
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acfc_util::rng::Rng;
    use std::collections::VecDeque;

    /// Reference implementation: the engine's original sorted
    /// `VecDeque` (binary-search insert, pop-front).
    struct SortedVecQueue<T> {
        q: VecDeque<(u64, u64, T)>,
    }

    impl<T> SortedVecQueue<T> {
        fn new() -> Self {
            SortedVecQueue { q: VecDeque::new() }
        }

        fn len(&self) -> usize {
            self.q.len()
        }

        fn is_empty(&self) -> bool {
            self.q.is_empty()
        }

        fn push(&mut self, t: u64, seq: u64, item: T) {
            let key = (t, seq);
            if self.q.back().is_none_or(|&(bt, bs, _)| (bt, bs) <= key) {
                self.q.push_back((t, seq, item));
            } else {
                let at = self.q.partition_point(|&(qt, qs, _)| (qt, qs) < key);
                self.q.insert(at, (t, seq, item));
            }
        }

        fn pop(&mut self) -> Option<(u64, u64, T)> {
            self.q.pop_front()
        }
    }

    /// Drives both queues through the same randomized push/pop schedule
    /// and asserts identical pop order (keys and payloads).
    fn differential(seed: u64, ops: usize, time_gen: impl Fn(&mut Rng, u64) -> u64) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut cal: CalendarQueue<u64> = CalendarQueue::new();
        let mut refq: SortedVecQueue<u64> = SortedVecQueue::new();
        let mut seq = 0u64;
        let mut clock = 0u64; // loosely advancing "now"
        for op in 0..ops {
            // Bias towards pushes early, drain later.
            let push = refq.is_empty() || rng.next_u64() % 100 < if op < ops / 2 { 70 } else { 35 };
            if push {
                let t = time_gen(&mut rng, clock);
                cal.push(t, seq, seq);
                refq.push(t, seq, seq);
                seq += 1;
            } else {
                let want = refq.pop().unwrap();
                assert_eq!(cal.peek_key(), Some((want.0, want.1)));
                let got = cal.pop().unwrap();
                assert_eq!(got, want, "divergent pop at op {op}");
                clock = clock.max(want.0);
            }
            assert_eq!(cal.len(), refq.len());
        }
        // Drain both completely.
        while let Some(want) = refq.pop() {
            assert_eq!(cal.pop().unwrap(), want);
        }
        assert_eq!(cal.len(), 0);
    }

    #[test]
    fn differential_uniform_times() {
        differential(1, 4000, |rng, now| now + rng.next_u64() % 1000);
    }

    #[test]
    fn differential_heavy_ties_fifo_within_key() {
        // Timestamps drawn from a tiny set: most keys collide on time
        // and order is decided by seq (FIFO). This pins the tiebreak.
        differential(2, 4000, |rng, _| rng.next_u64() % 8);
    }

    #[test]
    fn differential_clustered_with_huge_gaps() {
        // Bursts around "now" plus occasional far-future outliers — the
        // shape that forces cursor overflow scans and retuning.
        differential(3, 4000, |rng, now| {
            if rng.next_u64() % 20 == 0 {
                now + 1_000_000 + rng.next_u64() % 1_000_000
            } else {
                now + rng.next_u64() % 64
            }
        });
    }

    #[test]
    fn differential_engine_like_schedule() {
        // Mimics the engine: mostly short compute yields at `now`, plus
        // message deliveries ~setup+jitter in the future.
        differential(4, 6000, |rng, now| match rng.next_u64() % 10 {
            0..=5 => now,
            6..=8 => now + 100 + rng.next_u64() % 40,
            _ => now + 4000,
        });
    }

    #[test]
    fn differential_large_population() {
        // Enough live entries to force several grow/shrink rebuilds.
        differential(5, 60_000, |rng, now| now + rng.next_u64() % 10_000);
    }

    #[test]
    fn push_below_cursor_is_found_first() {
        let mut q: CalendarQueue<&str> = CalendarQueue::new();
        q.push(10_000, 0, "late");
        assert_eq!(q.peek_key(), Some((10_000, 0)));
        // Cursor has advanced to the late event's day; an earlier push
        // must still come out first.
        q.push(5, 1, "early");
        assert_eq!(q.pop().unwrap().2, "early");
        assert_eq!(q.pop().unwrap().2, "late");
        assert!(q.pop().is_none());
    }

    #[test]
    fn empty_queue_behaves() {
        let mut q: CalendarQueue<()> = CalendarQueue::new();
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_key(), None);
        assert!(q.pop().is_none());
    }
}
