//! # Shared runtime utilities for ACFC
//!
//! Everything in this crate exists so the rest of the workspace needs
//! **zero registry dependencies** (DESIGN.md §5: small enough to own):
//!
//! * [`rng`] — a seeded PRNG (SplitMix64 seeding, xoshiro256++ core)
//!   replacing the former `rand::SmallRng` uses. [`rng::Rng::stream`]
//!   derives independent sub-streams for deterministic parallel
//!   Monte-Carlo chunking.
//! * [`parallel`] — a `std::thread::scope`-based fan-out helper used by
//!   the multi-`n` re-checks, Monte-Carlo trial batches, and figure
//!   sweeps. Honors `ACFC_THREADS` and `std::thread::available_parallelism`.
//! * [`check`] — a miniature property-test harness (seeded generators +
//!   a `forall` runner) replacing the former `proptest` dev-dependency.
//! * [`bench`](mod@bench) — a one-shot wall-clock timer for the `benchmark/`
//!   package, a tiny JSON writer for the sweep and compare artifacts,
//!   and the workspace's one JSON string escaper.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bench;
pub mod check;
pub mod parallel;
pub mod rng;

pub use check::{forall, Gen};
pub use parallel::{
    configured_threads, par_for_each_ordered_labeled, par_map, par_map_labeled, par_map_threads,
    par_map_threads_labeled,
};
pub use rng::Rng;
