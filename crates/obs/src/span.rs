//! RAII wall-clock spans.
//!
//! `let _s = obs::span("core/phase2/matching");` times the enclosing
//! scope. On drop the span (a) records its duration in microseconds
//! into the registry histogram of the same name (so `acfc report` can
//! print a latency table) and (b) appends a begin/end pair to the
//! process-global span log for Perfetto export. Spans nest naturally:
//! the log keeps per-thread begin/end ordering, which is exactly the
//! stack discipline the Chrome trace format's `B`/`E` events encode.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One completed wall-clock span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WallSpan {
    /// Hierarchical span name (slash-separated).
    pub name: &'static str,
    /// Dense id of the recording thread (0 = first thread observed).
    pub tid: u64,
    /// Start, µs since the process's first obs use.
    pub start_us: u64,
    /// End, µs since the process's first obs use.
    pub end_us: u64,
}

/// All timestamps are measured from one process-wide anchor so spans
/// from different threads share a timeline.
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

fn log() -> &'static Mutex<Vec<WallSpan>> {
    static LOG: OnceLock<Mutex<Vec<WallSpan>>> = OnceLock::new();
    LOG.get_or_init(|| Mutex::new(Vec::new()))
}

fn labels() -> &'static Mutex<Vec<(u64, String)>> {
    static LABELS: OnceLock<Mutex<Vec<(u64, String)>>> = OnceLock::new();
    LABELS.get_or_init(|| Mutex::new(Vec::new()))
}

fn this_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static TID: u64 = {
            let tid = NEXT.fetch_add(1, Relaxed);
            // Capture the OS thread name once, at dense-tid assignment,
            // so Perfetto tracks of labeled worker threads
            // (util::parallel::par_map_labeled) render as "sweep-3"
            // instead of "thread 7".
            if let Some(name) = std::thread::current().name() {
                labels()
                    .lock()
                    .expect("obs label map poisoned")
                    .push((tid, name.to_string()));
            }
            tid
        };
    }
    TID.with(|t| *t)
}

/// An active span; records on drop.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

/// Starts a wall-clock span over the enclosing scope. Returns an inert
/// guard when obs is runtime-disabled.
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::metrics::enabled() {
        return SpanGuard { name, start: None };
    }
    // Touch the anchor before taking the start time so the first span
    // does not start before the epoch it is measured against.
    anchor();
    SpanGuard {
        name,
        start: Some(Instant::now()),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let end = Instant::now();
        let base = anchor();
        let span = WallSpan {
            name: self.name,
            tid: this_tid(),
            start_us: start.duration_since(base).as_micros() as u64,
            end_us: end.duration_since(base).as_micros() as u64,
        };
        crate::metrics::record(self.name, span.end_us - span.start_us);
        log().lock().expect("obs span log poisoned").push(span);
    }
}

/// Drains the process-global span log (completed spans, in completion
/// order). The caller owns the returned spans; subsequent calls see
/// only newer spans.
pub fn take_wall_spans() -> Vec<WallSpan> {
    std::mem::take(&mut *log().lock().expect("obs span log poisoned"))
}

/// `(tid, label)` for every recording thread that had an OS thread
/// name when its dense tid was assigned, in assignment order. Labels
/// are never drained: tids are process-lifetime, so the map only
/// grows.
pub fn thread_labels() -> Vec<(u64, String)> {
    labels().lock().expect("obs label map poisoned").clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{flag_lock, set_enabled};

    #[test]
    fn span_records_into_log_and_histogram() {
        let _flag = flag_lock();
        set_enabled(true);
        {
            let _outer = span("test/span_outer");
            let _inner = span("test/span_inner");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        set_enabled(false);
        let spans = take_wall_spans();
        let outer = spans.iter().find(|s| s.name == "test/span_outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "test/span_inner").unwrap();
        // Inner nests within outer on the same thread.
        assert_eq!(outer.tid, inner.tid);
        assert!(outer.start_us <= inner.start_us);
        assert!(inner.end_us <= outer.end_us);
        assert!(outer.end_us - outer.start_us >= 1000, "slept ≥1ms");
        let snap = crate::metrics::snapshot();
        let h = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "test/span_outer")
            .expect("span duration histogram registered");
        assert!(h.1.count >= 1);
    }

    #[test]
    fn disabled_span_is_silent() {
        let _flag = flag_lock();
        set_enabled(false);
        let _ = take_wall_spans();
        {
            let _s = span("test/span_disabled");
        }
        assert!(take_wall_spans()
            .iter()
            .all(|s| s.name != "test/span_disabled"));
    }
}
