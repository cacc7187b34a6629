//! Vector clocks.
//!
//! The paper's safety property (Definition 2.1) is stated in terms of
//! Lamport's happened-before relation. Vector clocks characterise it
//! exactly: for events `e`, `f` in a trace, `e → f` iff `VC(e) < VC(f)`
//! (componentwise ≤ with at least one strict). The simulator stamps
//! every send, receive, and checkpoint event with a vector clock, and the
//! consistency checker compares checkpoint stamps pairwise.
//!
//! # Storage
//!
//! Three representations share one logical type:
//!
//! * **inline** — up to [`INLINE`] components in a fixed buffer, so a
//!   clone into a record is a plain memcpy (every bench-sized n);
//! * **dense heap** — a `Vec<u64>` beyond that (the engine's working
//!   clocks in dense mode, so up to `DENSE_CLOCK_MAX` processes by
//!   default);
//! * **sparse** — an `Arc`-shared sorted list of the *nonzero*
//!   `(index, value)` entries, used by the engine's large-n delta-clock
//!   mode to stamp checkpoints in O(support) space instead of O(n).
//!   Neighbour-exchange workloads keep the support small (information
//!   travels one hop per iteration), so at n = 2048 a stamp is a few
//!   hundred bytes instead of 16 KiB. (The delta-mode *working* clocks
//!   are not `VectorClock`s at all: the engine keeps them as plain
//!   sorted entry lists with last-update stamps, and copies one into a
//!   sparse stamp per checkpoint.)
//!
//! Comparison, equality, hashing, and display are representation-
//! independent: a sparse stamp equals the dense clock with the same
//! components. Sparse stamps are immutable — [`tick`](VectorClock::tick)
//! and merging *into* one panic; they are snapshots, not working clocks.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Component counts up to this stay inline (no heap allocation), so
/// cloning a clock into a message or checkpoint record is a plain
/// memcpy for every bench-sized process count.
const INLINE: usize = 8;

/// Clock storage; see the module docs for the three representations.
#[derive(Clone)]
enum Repr {
    Small { len: u8, buf: [u64; INLINE] },
    Heap(Vec<u64>),
    Sparse { n: u32, entries: Arc<[(u32, u64)]> },
}

/// A vector clock over `n` processes.
#[derive(Clone)]
pub struct VectorClock(Repr);

impl VectorClock {
    /// The zero clock for `n` processes.
    pub fn new(n: usize) -> VectorClock {
        if n <= INLINE {
            VectorClock(Repr::Small {
                len: n as u8,
                buf: [0; INLINE],
            })
        } else {
            VectorClock(Repr::Heap(vec![0; n]))
        }
    }

    /// A sparse clock stamp over `n` processes from its nonzero
    /// `(index, value)` entries. Entries must be sorted by index with
    /// indices `< n`; zero-valued entries are dropped (the sparse form
    /// is canonical: it stores exactly the nonzero components).
    ///
    /// # Panics
    ///
    /// Panics if entries are unsorted, duplicated, or out of range.
    pub fn from_entries(n: usize, entries: impl IntoIterator<Item = (u32, u64)>) -> VectorClock {
        let entries: Vec<(u32, u64)> = entries.into_iter().filter(|&(_, v)| v != 0).collect();
        assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "sparse clock entries must be sorted by index without duplicates"
        );
        assert!(
            entries.last().is_none_or(|&(i, _)| (i as usize) < n),
            "sparse clock entry index out of range"
        );
        VectorClock(Repr::Sparse {
            n: n as u32,
            entries: entries.into(),
        })
    }

    /// A sparse stamp copied from entries that are already canonical
    /// (sorted by index, nonzero, in range), as the engine's sparse
    /// working clocks keep them: one allocation and a copy, no filter,
    /// no validation outside debug builds.
    pub(crate) fn from_sorted_nonzero(n: usize, entries: &[(u32, u64)]) -> VectorClock {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0)
                && entries.iter().all(|&(i, v)| v != 0 && (i as usize) < n),
            "entries must be canonical"
        );
        VectorClock(Repr::Sparse {
            n: n as u32,
            entries: entries.into(),
        })
    }

    /// `true` for the immutable sparse-stamp representation.
    pub fn is_sparse(&self) -> bool {
        matches!(self.0, Repr::Sparse { .. })
    }

    fn dense_slice(&self) -> Option<&[u64]> {
        match &self.0 {
            Repr::Small { len, buf } => Some(&buf[..*len as usize]),
            Repr::Heap(v) => Some(v),
            Repr::Sparse { .. } => None,
        }
    }

    fn as_slice(&self) -> &[u64] {
        self.dense_slice()
            .expect("operation requires a dense clock, got a sparse stamp")
    }

    fn as_mut_slice(&mut self) -> &mut [u64] {
        match &mut self.0 {
            Repr::Small { len, buf } => &mut buf[..*len as usize],
            Repr::Heap(v) => v,
            Repr::Sparse { .. } => panic!("sparse clock stamps are immutable"),
        }
    }

    /// The nonzero `(index, value)` components in index order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        // One of the two sides is always empty.
        let (dense, sparse): (&[u64], &[(u32, u64)]) = match &self.0 {
            Repr::Sparse { entries, .. } => (&[], entries),
            _ => (self.as_slice(), &[]),
        };
        dense
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != 0)
            .map(|(i, &v)| (i as u32, v))
            .chain(sparse.iter().copied())
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Small { len, .. } => *len as usize,
            Repr::Heap(v) => v.len(),
            Repr::Sparse { n, .. } => *n as usize,
        }
    }

    /// `true` if the clock has no components.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Component for process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn get(&self, p: usize) -> u64 {
        match &self.0 {
            Repr::Sparse { n, entries } => {
                assert!(p < *n as usize, "component {p} out of range");
                entries
                    .binary_search_by_key(&(p as u32), |&(i, _)| i)
                    .map(|k| entries[k].1)
                    .unwrap_or(0)
            }
            _ => self.as_slice()[p],
        }
    }

    /// Ticks process `p`'s own component (call on every local event).
    ///
    /// # Panics
    ///
    /// Panics on a sparse stamp (stamps are immutable).
    pub fn tick(&mut self, p: usize) {
        self.as_mut_slice()[p] += 1;
    }

    /// Merges in a received clock: componentwise max. (The receiver must
    /// also [`tick`](Self::tick) its own component.) The merged-in clock
    /// may be sparse; `self` must be dense.
    ///
    /// # Panics
    ///
    /// Panics if `self` is a sparse stamp or the sizes differ.
    pub fn merge(&mut self, other: &VectorClock) {
        let a = self.as_mut_slice();
        match &other.0 {
            Repr::Sparse { n, entries } => {
                assert_eq!(a.len(), *n as usize, "clock size mismatch");
                for &(i, v) in entries.iter() {
                    let c = &mut a[i as usize];
                    *c = (*c).max(v);
                }
            }
            _ => {
                let b = other.as_slice();
                assert_eq!(a.len(), b.len(), "clock size mismatch");
                for (a, b) in a.iter_mut().zip(b) {
                    *a = (*a).max(*b);
                }
            }
        }
    }

    /// Causal comparison:
    ///
    /// * `Some(Ordering::Less)` — `self` happened before `other`
    /// * `Some(Ordering::Greater)` — `other` happened before `self`
    /// * `Some(Ordering::Equal)` — identical stamps (same event)
    /// * `None` — concurrent
    pub fn causal_cmp(&self, other: &VectorClock) -> Option<Ordering> {
        assert_eq!(self.len(), other.len(), "clock size mismatch");
        let (mut le, mut ge) = (true, true);
        if let (Some(x), Some(y)) = (self.dense_slice(), other.dense_slice()) {
            for (a, b) in x.iter().zip(y) {
                if a < b {
                    ge = false;
                }
                if a > b {
                    le = false;
                }
            }
        } else {
            // At least one side is sparse: a merged walk over the two
            // nonzero-entry sequences. Components absent from both are
            // equal (0 = 0) and cannot affect the flags.
            let mut xs = self.iter_nonzero().peekable();
            let mut ys = other.iter_nonzero().peekable();
            loop {
                let (a, b) = match (xs.peek().copied(), ys.peek().copied()) {
                    (None, None) => break,
                    (Some((_, a)), None) => {
                        xs.next();
                        (a, 0)
                    }
                    (None, Some((_, b))) => {
                        ys.next();
                        (0, b)
                    }
                    (Some((i, a)), Some((j, b))) => match i.cmp(&j) {
                        Ordering::Less => {
                            xs.next();
                            (a, 0)
                        }
                        Ordering::Greater => {
                            ys.next();
                            (0, b)
                        }
                        Ordering::Equal => {
                            xs.next();
                            ys.next();
                            (a, b)
                        }
                    },
                };
                if a < b {
                    ge = false;
                }
                if a > b {
                    le = false;
                }
            }
        }
        match (le, ge) {
            (true, true) => Some(Ordering::Equal),
            (true, false) => Some(Ordering::Less),
            (false, true) => Some(Ordering::Greater),
            (false, false) => None,
        }
    }

    /// `true` iff `self` happened strictly before `other`.
    pub fn happened_before(&self, other: &VectorClock) -> bool {
        self.causal_cmp(other) == Some(Ordering::Less)
    }

    /// `true` iff neither stamp happened before the other.
    pub fn concurrent_with(&self, other: &VectorClock) -> bool {
        self.causal_cmp(other).is_none()
    }

    /// The raw components.
    ///
    /// # Panics
    ///
    /// Panics on a sparse stamp (it has no contiguous component slice);
    /// use [`get`](Self::get) or [`iter_nonzero`](Self::iter_nonzero).
    pub fn components(&self) -> &[u64] {
        self.as_slice()
    }
}

impl PartialEq for VectorClock {
    fn eq(&self, other: &Self) -> bool {
        match (self.dense_slice(), other.dense_slice()) {
            (Some(a), Some(b)) => a == b,
            _ => self.len() == other.len() && self.iter_nonzero().eq(other.iter_nonzero()),
        }
    }
}
impl Eq for VectorClock {}

impl Hash for VectorClock {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Representation-independent: hash the full logical component
        // sequence (length-prefixed, like slice hashing), walking the
        // sparse entries against an implicit zero background.
        state.write_usize(self.len());
        match &self.0 {
            Repr::Sparse { n, entries } => {
                let mut next = entries.iter().peekable();
                for i in 0..*n {
                    let v = match next.peek() {
                        Some(&&(j, v)) if j == i => {
                            next.next();
                            v
                        }
                        _ => 0,
                    };
                    v.hash(state);
                }
            }
            _ => {
                for v in self.as_slice() {
                    v.hash(state);
                }
            }
        }
    }
}

impl fmt::Debug for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Repr::Sparse { n, entries } => f
                .debug_struct("VectorClock")
                .field("n", n)
                .field("sparse", entries)
                .finish(),
            _ => f
                .debug_tuple("VectorClock")
                .field(&self.as_slice())
                .finish(),
        }
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        match &self.0 {
            Repr::Sparse { n, entries } => {
                let mut next = entries.iter().peekable();
                for i in 0..*n {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    match next.peek() {
                        Some(&&(j, v)) if j == i => {
                            next.next();
                            write!(f, "{v}")?;
                        }
                        _ => write!(f, "0")?,
                    }
                }
            }
            _ => {
                for (i, v) in self.as_slice().iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
            }
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_clocks_are_equal() {
        let a = VectorClock::new(3);
        let b = VectorClock::new(3);
        assert_eq!(a.causal_cmp(&b), Some(Ordering::Equal));
    }

    #[test]
    fn tick_makes_strictly_later() {
        let a = VectorClock::new(2);
        let mut b = a.clone();
        b.tick(0);
        assert!(a.happened_before(&b));
        assert!(!b.happened_before(&a));
        assert_eq!(b.get(0), 1);
    }

    #[test]
    fn independent_ticks_are_concurrent() {
        let mut a = VectorClock::new(2);
        let mut b = VectorClock::new(2);
        a.tick(0);
        b.tick(1);
        assert!(a.concurrent_with(&b));
        assert!(b.concurrent_with(&a));
    }

    #[test]
    fn message_transfer_creates_order() {
        // p0: e1 (send). p1: merge + tick (recv) = e2. e1 -> e2.
        let mut p0 = VectorClock::new(2);
        p0.tick(0); // send event stamp
        let sent = p0.clone();
        let mut p1 = VectorClock::new(2);
        p1.merge(&sent);
        p1.tick(1); // recv event stamp
        assert!(sent.happened_before(&p1));
    }

    #[test]
    fn merge_is_componentwise_max() {
        let mut a = VectorClock::new(3);
        a.tick(0);
        a.tick(0);
        let mut b = VectorClock::new(3);
        b.tick(1);
        a.merge(&b);
        assert_eq!(a.components(), &[2, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn size_mismatch_panics() {
        let a = VectorClock::new(2);
        let b = VectorClock::new(3);
        let _ = a.causal_cmp(&b);
    }

    #[test]
    fn transitivity_spot_check() {
        let mut a = VectorClock::new(2);
        a.tick(0);
        let mut b = a.clone();
        b.tick(0);
        let mut c = b.clone();
        c.merge(&b);
        c.tick(1);
        assert!(a.happened_before(&b));
        assert!(b.happened_before(&c));
        assert!(a.happened_before(&c));
    }

    /// Builds the dense twin of a sparse stamp.
    fn dense_of(n: usize, entries: &[(u32, u64)]) -> VectorClock {
        let mut d = VectorClock::new(n);
        for &(i, v) in entries {
            for _ in 0..v {
                d.tick(i as usize);
            }
        }
        d
    }

    #[test]
    fn sparse_equals_its_dense_twin() {
        let entries = [(1u32, 3u64), (7, 1), (40, 9)];
        let s = VectorClock::from_entries(64, entries);
        let d = dense_of(64, &entries);
        assert_eq!(s, d);
        assert_eq!(d, s);
        assert_eq!(s.causal_cmp(&d), Some(Ordering::Equal));
        assert_eq!(s.get(40), 9);
        assert_eq!(s.get(0), 0);
        assert_eq!(s.len(), 64);
        assert!(s.is_sparse() && !d.is_sparse());
    }

    #[test]
    fn sparse_causal_cmp_matches_dense() {
        type Entries = &'static [(u32, u64)];
        let n = 32;
        let cases: [(Entries, Entries); 4] = [
            (&[(0, 1)], &[(0, 2)]),                   // less
            (&[(0, 2), (5, 1)], &[(0, 2)]),           // greater
            (&[(0, 1)], &[(9, 1)]),                   // concurrent
            (&[(3, 4), (20, 2)], &[(3, 4), (20, 2)]), // equal
        ];
        for (ea, eb) in cases {
            let (sa, sb) = (
                VectorClock::from_entries(n, ea.iter().copied()),
                VectorClock::from_entries(n, eb.iter().copied()),
            );
            let (da, db) = (dense_of(n, ea), dense_of(n, eb));
            let want = da.causal_cmp(&db);
            assert_eq!(sa.causal_cmp(&sb), want, "{ea:?} vs {eb:?}");
            assert_eq!(sa.causal_cmp(&db), want, "sparse-dense {ea:?} vs {eb:?}");
            assert_eq!(da.causal_cmp(&sb), want, "dense-sparse {ea:?} vs {eb:?}");
        }
    }

    #[test]
    fn merging_sparse_into_dense_is_componentwise_max() {
        let mut d = dense_of(16, &[(0, 5), (3, 1)]);
        let s = VectorClock::from_entries(16, [(3u32, 4u64), (10, 2)]);
        d.merge(&s);
        assert_eq!(d.get(0), 5);
        assert_eq!(d.get(3), 4);
        assert_eq!(d.get(10), 2);
    }

    #[test]
    fn sparse_display_and_hash_match_dense() {
        use std::collections::hash_map::DefaultHasher;
        let entries = [(1u32, 2u64), (8, 7)];
        let s = VectorClock::from_entries(10, entries);
        let d = dense_of(10, &entries);
        assert_eq!(s.to_string(), d.to_string());
        let h = |c: &VectorClock| {
            let mut h = DefaultHasher::new();
            c.hash(&mut h);
            h.finish()
        };
        assert_eq!(h(&s), h(&d));
    }

    #[test]
    fn sparse_drops_zero_entries_and_iterates_nonzero() {
        let s = VectorClock::from_entries(12, [(2u32, 0u64), (5, 3)]);
        assert_eq!(s.iter_nonzero().collect::<Vec<_>>(), vec![(5, 3)]);
        assert_eq!(s, VectorClock::from_entries(12, [(5u32, 3u64)]));
    }

    #[test]
    #[should_panic(expected = "immutable")]
    fn ticking_a_sparse_stamp_panics() {
        let mut s = VectorClock::from_entries(12, [(5u32, 3u64)]);
        s.tick(0);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_sparse_entries_panic() {
        let _ = VectorClock::from_entries(12, [(5u32, 3u64), (2, 1)]);
    }
}
