//! Folded-stacks and speedscope export of the wall-span forest.
//!
//! [`crate::take_wall_spans`] yields a per-thread forest of RAII spans;
//! this module collapses it into the two interchange formats profiler
//! tooling actually eats:
//!
//! * **Folded lines** ([`folded_lines`]) — Brendan Gregg's collapsed
//!   stack format, `frame;frame;frame value`, one line per distinct
//!   stack, value = *self time* in microseconds. Pipe straight into
//!   `inferno-flamegraph` or `flamegraph.pl` to get an SVG flamegraph.
//! * **Speedscope JSON** ([`speedscope_json`]) — the evented profile
//!   format of <https://www.speedscope.app>: one profile per recording
//!   thread, open/close events in timeline order, so the same capture
//!   is inspectable as time-order, left-heavy, and sandwich views.
//!
//! Both emitters are deterministic given the same span forest: frames
//! are index-assigned in sorted-name order, folded lines render in
//! lexicographic path order, and threads render in dense-tid order.
//! Wall-clock *timings* vary run to run, of course — the golden pin in
//! `tests/golden_folded.rs` therefore feeds a synthetic fixed forest.
//!
//! Each thread's stack root is the thread's label (see
//! [`crate::thread_labels`]) or `thread N` when unlabeled, so sweep
//! flamegraphs attribute work to `sweep-3` rather than an anonymous
//! tid, and per-worker imbalance is visible as unequal root widths.

use crate::span::WallSpan;
use acfc_util::bench::JsonEscaped;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The root frame for `tid`: its label, or `thread N`.
fn thread_frame(tid: u64, labels: &[(u64, String)]) -> String {
    labels
        .iter()
        .find(|(t, _)| *t == tid)
        .map(|(_, l)| l.clone())
        .unwrap_or_else(|| format!("thread {tid}"))
}

/// The dense tids present in `spans`, ascending.
fn tids_of(spans: &[WallSpan]) -> Vec<u64> {
    let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    tids
}

/// One thread's spans in sweep order: by start, outer-first at ties
/// (the longer span encloses) — the same comparator the Perfetto
/// exporter uses, so both exports agree on the nesting.
fn sorted_spans_of(spans: &[WallSpan], tid: u64) -> Vec<&WallSpan> {
    let mut mine: Vec<&WallSpan> = spans.iter().filter(|s| s.tid == tid).collect();
    mine.sort_by_key(|s| (s.start_us, u64::MAX - s.end_us));
    mine
}

/// Collapses the span forest into folded stack lines
/// (`root;frame;frame self_us`), aggregated over all occurrences of
/// each distinct stack and emitted in lexicographic path order. The
/// value is **self time**: a span's duration minus its direct
/// children's durations (saturating, so clock jitter at the µs edges
/// never goes negative) — exactly what a flamegraph's box widths mean.
pub fn folded_lines(spans: &[WallSpan], labels: &[(u64, String)]) -> String {
    let mut agg: BTreeMap<String, u64> = BTreeMap::new();
    for tid in tids_of(spans) {
        let root = thread_frame(tid, labels);
        // Stack of (open span, accumulated direct-child time).
        let mut stack: Vec<(&WallSpan, u64)> = Vec::new();
        let close = |stack: &mut Vec<(&WallSpan, u64)>, agg: &mut BTreeMap<String, u64>| {
            let (s, child_us) = stack.pop().expect("close on non-empty stack");
            let self_us = (s.end_us - s.start_us).saturating_sub(child_us);
            let mut path = root.clone();
            for (ancestor, _) in stack.iter() {
                path.push(';');
                path.push_str(ancestor.name);
            }
            path.push(';');
            path.push_str(s.name);
            *agg.entry(path).or_insert(0) += self_us;
        };
        for s in sorted_spans_of(spans, tid) {
            while stack.last().is_some_and(|(t, _)| t.end_us <= s.start_us) {
                close(&mut stack, &mut agg);
            }
            if let Some((_, child_us)) = stack.last_mut() {
                *child_us += s.end_us - s.start_us;
            }
            stack.push((s, 0));
        }
        while !stack.is_empty() {
            close(&mut stack, &mut agg);
        }
    }
    let mut out = String::new();
    for (path, self_us) in &agg {
        let _ = writeln!(out, "{path} {self_us}");
    }
    out
}

/// Renders the span forest as a speedscope file (evented format, one
/// profile per thread, microsecond unit) loadable without edits at
/// <https://www.speedscope.app>. `name` becomes the document title.
///
/// Frames are shared across profiles and index-assigned in sorted-name
/// order; per profile, events are the balanced open/close sequence the
/// stack sweep reconstructs, with closes emitted before an equal-
/// timestamp open (the nesting discipline speedscope requires).
pub fn speedscope_json(spans: &[WallSpan], labels: &[(u64, String)], name: &str) -> String {
    // Shared frame table, sorted for deterministic indices.
    let mut frame_names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    frame_names.sort_unstable();
    frame_names.dedup();
    let frame_idx: BTreeMap<&str, usize> = frame_names
        .iter()
        .enumerate()
        .map(|(i, &n)| (n, i))
        .collect();

    let mut out = String::from("{\n");
    out.push_str("  \"$schema\": \"https://www.speedscope.app/file-format-schema.json\",\n");
    out.push_str("  \"exporter\": \"acfc\",\n");
    let _ = writeln!(out, "  \"name\": \"{}\",", JsonEscaped(name));
    out.push_str("  \"shared\": {\"frames\": [\n");
    for (i, n) in frame_names.iter().enumerate() {
        let comma = if i + 1 < frame_names.len() { "," } else { "" };
        let _ = writeln!(out, "    {{\"name\": \"{}\"}}{comma}", JsonEscaped(n));
    }
    out.push_str("  ]},\n");
    out.push_str("  \"profiles\": [\n");

    let tids = tids_of(spans);
    for (k, &tid) in tids.iter().enumerate() {
        let mine = sorted_spans_of(spans, tid);
        let start = mine.iter().map(|s| s.start_us).min().unwrap_or(0);
        let end = mine.iter().map(|s| s.end_us).max().unwrap_or(0);
        let _ = writeln!(out, "    {{\"type\": \"evented\",");
        let _ = writeln!(
            out,
            "     \"name\": \"{}\",",
            JsonEscaped(&thread_frame(tid, labels))
        );
        let _ = writeln!(out, "     \"unit\": \"microseconds\",");
        let _ = writeln!(out, "     \"startValue\": {start},");
        let _ = writeln!(out, "     \"endValue\": {end},");
        out.push_str("     \"events\": [\n");
        // (type, frame, at) triples from the same stack sweep as the
        // folded emitter, so both formats agree on the nesting.
        let mut events: Vec<(char, usize, u64)> = Vec::new();
        let mut stack: Vec<&WallSpan> = Vec::new();
        for s in mine {
            while stack.last().is_some_and(|t| t.end_us <= s.start_us) {
                let t = stack.pop().expect("checked non-empty");
                events.push(('C', frame_idx[t.name], t.end_us));
            }
            events.push(('O', frame_idx[s.name], s.start_us));
            stack.push(s);
        }
        while let Some(t) = stack.pop() {
            events.push(('C', frame_idx[t.name], t.end_us));
        }
        for (i, (ty, frame, at)) in events.iter().enumerate() {
            let comma = if i + 1 < events.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "      {{\"type\": \"{ty}\", \"frame\": {frame}, \"at\": {at}}}{comma}"
            );
        }
        let comma = if k + 1 < tids.len() { "," } else { "" };
        let _ = writeln!(out, "     ]}}{comma}");
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forest() -> Vec<WallSpan> {
        vec![
            // tid 0: outer [0,10] wrapping inner [2,4], then a sibling
            // leaf [12,20]; tid 1: one span, labeled thread.
            WallSpan {
                name: "outer",
                tid: 0,
                start_us: 0,
                end_us: 10,
            },
            WallSpan {
                name: "inner",
                tid: 0,
                start_us: 2,
                end_us: 4,
            },
            WallSpan {
                name: "late",
                tid: 0,
                start_us: 12,
                end_us: 20,
            },
            WallSpan {
                name: "cell",
                tid: 1,
                start_us: 1,
                end_us: 6,
            },
        ]
    }

    fn labels() -> Vec<(u64, String)> {
        vec![(1, "sweep-0".to_string())]
    }

    #[test]
    fn folded_lines_attribute_self_time_per_stack() {
        let text = folded_lines(&forest(), &labels());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                "sweep-0;cell 5",
                "thread 0;late 8",
                "thread 0;outer 8",
                "thread 0;outer;inner 2",
            ]
        );
        // Self times over a thread sum to its spans' total self time.
        let total: u64 = lines
            .iter()
            .filter(|l| l.starts_with("thread 0"))
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, 10 + 8); // outer's 10 (inner is inside) + late's 8
    }

    #[test]
    fn folded_lines_aggregate_repeated_stacks() {
        let spans = vec![
            WallSpan {
                name: "cell",
                tid: 0,
                start_us: 0,
                end_us: 3,
            },
            WallSpan {
                name: "cell",
                tid: 0,
                start_us: 5,
                end_us: 9,
            },
        ];
        assert_eq!(folded_lines(&spans, &[]), "thread 0;cell 7\n");
    }

    #[test]
    fn empty_forest_renders_empty_documents() {
        assert_eq!(folded_lines(&[], &[]), "");
        let json = speedscope_json(&[], &[], "empty");
        assert!(json.contains("\"profiles\": [\n  ]"));
        assert!(json.contains("speedscope.app/file-format-schema.json"));
    }

    #[test]
    fn speedscope_events_balance_and_stay_monotone() {
        let json = speedscope_json(&forest(), &labels(), "t");
        // One profile per thread, named by label where present.
        assert_eq!(json.matches("\"type\": \"evented\"").count(), 2);
        assert!(json.contains("\"name\": \"sweep-0\""));
        assert!(json.contains("\"name\": \"thread 0\""));
        assert!(json.contains("\"unit\": \"microseconds\""));
        // O and C counts balance overall.
        assert_eq!(
            json.matches("\"type\": \"O\"").count(),
            json.matches("\"type\": \"C\"").count()
        );
        // Frames are sorted: cell, inner, late, outer.
        let frames_at = json.find("\"frames\"").unwrap();
        let cell = json[frames_at..].find("\"cell\"").unwrap();
        let outer = json[frames_at..].find("\"outer\"").unwrap();
        assert!(cell < outer, "frame table is name-sorted");
        // Event timestamps are non-decreasing within each profile.
        let mut last_at = 0u64;
        for line in json.lines() {
            if line.contains("\"type\": \"evented\"") {
                last_at = 0;
            }
            if let Some(at) = line.split("\"at\": ").nth(1) {
                let at: u64 = at.trim_end_matches(['}', ',', ' ']).parse().unwrap();
                assert!(at >= last_at, "{line}");
                last_at = at;
            }
        }
    }

    #[test]
    fn zero_length_spans_survive_both_emitters() {
        let spans = vec![WallSpan {
            name: "zero",
            tid: 0,
            start_us: 5,
            end_us: 5,
        }];
        assert_eq!(folded_lines(&spans, &[]), "thread 0;zero 0\n");
        let json = speedscope_json(&spans, &[], "z");
        assert!(json.contains("\"startValue\": 5"));
        assert!(json.contains("\"endValue\": 5"));
    }
}
