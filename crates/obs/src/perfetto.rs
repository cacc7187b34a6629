//! Chrome-trace-format (Perfetto-loadable) JSON export.
//!
//! The [Trace Event Format] is the lingua franca of timeline viewers:
//! a `traceEvents` array of begin/end (`B`/`E`) slices, instant
//! markers (`i`), counter samples (`C`), flow arrows (`s`/`f`), and
//! metadata (`M`), with timestamps in microseconds. Both of this
//! repo's timelines fit it directly — wall-clock analysis spans (one
//! track per OS thread) and *simulated-time* runs (one track per
//! simulated process, `SimTime` already being µs).
//!
//! The writer is append-only and deterministic: events render in
//! insertion order, one per line, so golden files diff cleanly. It is
//! pure formatting with no hot-path cost.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::span::WallSpan;
use acfc_util::bench::JsonEscaped;
use std::fmt::Write as _;

/// Event phase, a subset of the trace event format sufficient for the
/// repo's two timeline flavours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Begin,
    End,
    Instant,
    FlowStart,
    FlowEnd,
    Counter,
    Meta,
}

impl Phase {
    fn tag(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
            Phase::FlowStart => "s",
            Phase::FlowEnd => "f",
            Phase::Counter => "C",
            Phase::Meta => "M",
        }
    }
}

#[derive(Debug, Clone)]
struct Event {
    name: String,
    cat: &'static str,
    ph: Phase,
    ts: u64,
    pid: u64,
    tid: u64,
    /// Flow id (`s`/`f` events).
    id: Option<u64>,
    /// Pre-rendered `args` object body, e.g. `"value": 3`.
    args: Option<String>,
}

/// Builds a Chrome-trace-format JSON document event by event.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    events: Vec<Event>,
}

impl TraceBuilder {
    /// An empty trace.
    pub fn new() -> TraceBuilder {
        TraceBuilder::default()
    }

    fn push(&mut self, ev: Event) {
        self.events.push(ev);
    }

    /// Names the process `pid` in the viewer's track hierarchy.
    pub fn process_name(&mut self, pid: u64, name: &str) {
        self.push(Event {
            name: "process_name".into(),
            cat: "__metadata",
            ph: Phase::Meta,
            ts: 0,
            pid,
            tid: 0,
            id: None,
            args: Some(format!("\"name\": \"{}\"", JsonEscaped(name))),
        });
    }

    /// Names the track `(pid, tid)`.
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.push(Event {
            name: "thread_name".into(),
            cat: "__metadata",
            ph: Phase::Meta,
            ts: 0,
            pid,
            tid,
            id: None,
            args: Some(format!("\"name\": \"{}\"", JsonEscaped(name))),
        });
    }

    /// Opens a slice on track `(pid, tid)` at `ts_us`.
    pub fn begin(&mut self, pid: u64, tid: u64, ts_us: u64, name: &str, cat: &'static str) {
        self.push(Event {
            name: name.into(),
            cat,
            ph: Phase::Begin,
            ts: ts_us,
            pid,
            tid,
            id: None,
            args: None,
        });
    }

    /// Closes the innermost open slice on track `(pid, tid)`.
    pub fn end(&mut self, pid: u64, tid: u64, ts_us: u64) {
        self.push(Event {
            name: String::new(),
            cat: "",
            ph: Phase::End,
            ts: ts_us,
            pid,
            tid,
            id: None,
            args: None,
        });
    }

    /// A zero-duration marker. `scope` is `'g'` (global line across all
    /// tracks), `'p'` (process), or `'t'` (thread-local tick).
    pub fn instant(&mut self, pid: u64, tid: u64, ts_us: u64, name: &str, scope: char) {
        self.push(Event {
            name: name.into(),
            cat: "marker",
            ph: Phase::Instant,
            ts: ts_us,
            pid,
            tid,
            id: None,
            args: Some(format!("\"s\": \"{scope}\"")),
        });
    }

    /// Starts flow arrow `id` at `(pid, tid, ts_us)`.
    pub fn flow_start(&mut self, pid: u64, tid: u64, ts_us: u64, name: &str, id: u64) {
        self.push(Event {
            name: name.into(),
            cat: "flow",
            ph: Phase::FlowStart,
            ts: ts_us,
            pid,
            tid,
            id: Some(id),
            args: None,
        });
    }

    /// Ends flow arrow `id` at `(pid, tid, ts_us)` (binding to the
    /// enclosing slice's end, the viewer's default for `bp: "e"`).
    pub fn flow_end(&mut self, pid: u64, tid: u64, ts_us: u64, name: &str, id: u64) {
        self.push(Event {
            name: name.into(),
            cat: "flow",
            ph: Phase::FlowEnd,
            ts: ts_us,
            pid,
            tid,
            id: Some(id),
            args: None,
        });
    }

    /// A counter-track sample (rendered as an area chart by viewers).
    pub fn counter(&mut self, pid: u64, tid: u64, ts_us: u64, name: &str, value: u64) {
        self.push(Event {
            name: name.into(),
            cat: "counter",
            ph: Phase::Counter,
            ts: ts_us,
            pid,
            tid,
            id: None,
            args: Some(format!("\"value\": {value}")),
        });
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Structural well-formedness: per track (`pid`, `tid`), non-meta
    /// timestamps must be non-decreasing in emission order and `B`/`E`
    /// slices must balance (every `E` closes an open `B`, nothing left
    /// open); every flow id must have exactly one start and one end,
    /// with the start at or before the end.
    pub fn validate(&self) -> Result<(), String> {
        use std::collections::BTreeMap;
        let mut last_ts: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        let mut open: BTreeMap<(u64, u64), Vec<&str>> = BTreeMap::new();
        let mut flows: BTreeMap<u64, (u64, u64)> = BTreeMap::new(); // id -> (starts, ends)
        let mut flow_ts: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for ev in &self.events {
            if ev.ph == Phase::Meta {
                continue;
            }
            let track = (ev.pid, ev.tid);
            if let Some(&prev) = last_ts.get(&track) {
                if ev.ts < prev {
                    return Err(format!(
                        "track {track:?}: timestamp {} precedes {}",
                        ev.ts, prev
                    ));
                }
            }
            last_ts.insert(track, ev.ts);
            match ev.ph {
                Phase::Begin => open.entry(track).or_default().push(&ev.name),
                Phase::End if open.entry(track).or_default().pop().is_none() => {
                    return Err(format!("track {track:?}: E with no open B at ts {}", ev.ts));
                }
                Phase::End => {}
                Phase::FlowStart => {
                    let id = ev.id.expect("flow events carry an id");
                    flows.entry(id).or_default().0 += 1;
                    flow_ts.entry(id).or_default().0 = ev.ts;
                }
                Phase::FlowEnd => {
                    let id = ev.id.expect("flow events carry an id");
                    flows.entry(id).or_default().1 += 1;
                    flow_ts.entry(id).or_default().1 = ev.ts;
                }
                _ => {}
            }
        }
        for (track, stack) in &open {
            if !stack.is_empty() {
                return Err(format!(
                    "track {track:?}: {} unbalanced B event(s), first {:?}",
                    stack.len(),
                    stack[0]
                ));
            }
        }
        for (id, (starts, ends)) in &flows {
            if *starts != 1 || *ends != 1 {
                return Err(format!("flow {id}: {starts} start(s), {ends} end(s)"));
            }
            let (s, e) = flow_ts[id];
            if s > e {
                return Err(format!("flow {id}: starts at {s} after ending at {e}"));
            }
        }
        Ok(())
    }

    /// Renders the JSON document (one event per line, insertion order).
    pub fn render(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, ev) in self.events.iter().enumerate() {
            let _ = write!(
                out,
                "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"{}\", \"ts\": {}, \"pid\": {}, \"tid\": {}",
                JsonEscaped(&ev.name),
                JsonEscaped(ev.cat),
                ev.ph.tag(),
                ev.ts,
                ev.pid,
                ev.tid
            );
            if let Some(id) = ev.id {
                let _ = write!(out, ", \"id\": {id}");
            }
            if ev.ph == Phase::FlowEnd {
                out.push_str(", \"bp\": \"e\"");
            }
            if let Some(args) = &ev.args {
                let _ = write!(out, ", \"args\": {{{args}}}");
            }
            out.push('}');
            if i + 1 < self.events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("], \"displayTimeUnit\": \"ms\"}\n");
        out
    }
}

/// Converts completed wall-clock spans into a one-process trace (one
/// track per recording thread). Spans on a thread form a properly
/// nested forest (RAII guarantees it), re-emitted here as balanced
/// `B`/`E` pairs via a stack sweep. Tracks of labeled worker threads
/// (see [`crate::span::thread_labels`]) are named by their label.
pub fn wall_spans_trace(spans: &[WallSpan]) -> TraceBuilder {
    let labels = crate::span::thread_labels();
    let mut tb = TraceBuilder::new();
    tb.process_name(0, "acfc (wall clock)");
    let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for &tid in &tids {
        match labels.iter().find(|(t, _)| *t == tid) {
            Some((_, label)) => tb.thread_name(0, tid, label),
            None => tb.thread_name(0, tid, &format!("thread {tid}")),
        }
        let mut mine: Vec<&WallSpan> = spans.iter().filter(|s| s.tid == tid).collect();
        // Outer spans first at equal starts (the longer one encloses).
        mine.sort_by_key(|s| (s.start_us, u64::MAX - s.end_us));
        let mut stack: Vec<&WallSpan> = Vec::new();
        for s in mine {
            while stack.last().is_some_and(|t| t.end_us <= s.start_us) {
                let t = stack.pop().expect("checked non-empty");
                tb.end(0, tid, t.end_us);
            }
            tb.begin(0, tid, s.start_us, s.name, "analysis");
            stack.push(s);
        }
        while let Some(t) = stack.pop() {
            tb.end(0, tid, t.end_us);
        }
    }
    tb
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_validate_a_small_trace() {
        let mut tb = TraceBuilder::new();
        tb.process_name(1, "sim");
        tb.thread_name(1, 0, "P0");
        tb.begin(1, 0, 0, "compute", "sim");
        tb.flow_start(1, 0, 5, "msg", 1);
        tb.end(1, 0, 10);
        tb.thread_name(1, 1, "P1");
        tb.begin(1, 1, 2, "blocked", "sim");
        tb.flow_end(1, 1, 8, "msg", 1);
        tb.end(1, 1, 8);
        tb.instant(1, 1, 9, "recovery line 1", 'g');
        tb.counter(1, 0, 11, "queue depth", 3);
        assert!(tb.validate().is_ok(), "{:?}", tb.validate());
        let json = tb.render();
        assert!(json.starts_with("{\"traceEvents\": ["));
        assert!(json.trim_end().ends_with("\"displayTimeUnit\": \"ms\"}"));
        assert!(json.contains("\"ph\": \"B\""));
        assert!(json.contains("\"bp\": \"e\""));
        assert!(json.contains("\"s\": \"g\""));
        assert!(json.contains("\"value\": 3"));
        assert_eq!(tb.len(), 11);
    }

    #[test]
    fn validation_rejects_unbalanced_and_backwards() {
        let mut tb = TraceBuilder::new();
        tb.begin(1, 0, 5, "a", "t");
        assert!(tb.validate().unwrap_err().contains("unbalanced"));
        tb.end(1, 0, 3); // goes backwards
        assert!(tb.validate().unwrap_err().contains("precedes"));

        let mut tb = TraceBuilder::new();
        tb.end(1, 0, 1);
        assert!(tb.validate().unwrap_err().contains("no open B"));

        let mut tb = TraceBuilder::new();
        tb.flow_start(1, 0, 1, "m", 7);
        assert!(tb.validate().unwrap_err().contains("flow 7"));
    }

    #[test]
    fn names_are_escaped() {
        let mut tb = TraceBuilder::new();
        tb.begin(1, 0, 0, "a \"b\"\n\\", "t");
        tb.end(1, 0, 1);
        let json = tb.render();
        assert!(json.contains("a \\\"b\\\"\\n\\\\"));
    }

    #[test]
    fn wall_spans_rebuild_nesting() {
        use crate::span::WallSpan;
        let spans = vec![
            // Completion order: inner before outer, plus a later sibling
            // and a zero-length span.
            WallSpan {
                name: "inner",
                tid: 0,
                start_us: 2,
                end_us: 4,
            },
            WallSpan {
                name: "outer",
                tid: 0,
                start_us: 0,
                end_us: 10,
            },
            WallSpan {
                name: "zero",
                tid: 0,
                start_us: 12,
                end_us: 12,
            },
            WallSpan {
                name: "late",
                tid: 0,
                start_us: 13,
                end_us: 20,
            },
            WallSpan {
                name: "other-thread",
                tid: 1,
                start_us: 1,
                end_us: 2,
            },
        ];
        let tb = wall_spans_trace(&spans);
        assert!(tb.validate().is_ok(), "{:?}", tb.validate());
        let json = tb.render();
        // 5 B + 5 E + 1 process_name + 2 thread_name.
        assert_eq!(tb.len(), 13);
        assert!(json.contains("\"name\": \"outer\""));
        assert!(json.contains("\"name\": \"thread 1\""));
    }
}
