//! Plain-text export of traces.
//!
//! The simulator's traces are the evidence base for every claim in this
//! reproduction; these exporters render them as a run summary, the
//! golden-file format and a space-time diagram description, so a run
//! can be inspected without writing Rust. No serialisation dependency
//! is used on purpose — the formats are trivial and stable.

use crate::trace::{CkptTrigger, Trace};
use std::fmt::Write;

fn trigger_tag(t: CkptTrigger) -> &'static str {
    match t {
        CkptTrigger::AppStatement => "app",
        CkptTrigger::Timer => "timer",
        CkptTrigger::Forced => "forced",
        CkptTrigger::Coordinated => "coordinated",
    }
}

/// A compact, human-readable run summary.
pub fn summary(trace: &Trace) -> String {
    let m = &trace.metrics;
    let mut out = String::new();
    let _ = writeln!(out, "program:    {}", trace.program);
    let _ = writeln!(out, "processes:  {}", trace.nprocs);
    let _ = writeln!(out, "outcome:    {:?}", trace.outcome);
    let _ = writeln!(out, "makespan:   {:.6}s", trace.makespan_secs());
    let _ = writeln!(
        out,
        "messages:   {} app ({} bits), {} control ({} bits)",
        m.app_messages, m.app_bits, m.control_messages, m.control_bits
    );
    let _ = writeln!(
        out,
        "checkpoints: {} app, {} timer, {} forced, {} coordinated",
        m.app_checkpoints, m.timer_checkpoints, m.forced_checkpoints, m.coordinated_checkpoints
    );
    let _ = writeln!(
        out,
        "stall:      {:.3}ms checkpointing, {:.3}ms blocked in recv",
        m.ckpt_stall_us as f64 / 1000.0,
        m.recv_blocked_us as f64 / 1000.0
    );
    let _ = writeln!(
        out,
        "failures:   {} (recovery charged {:.3}ms)",
        m.failures,
        m.recovery_us as f64 / 1000.0
    );
    let _ = writeln!(out, "ckpts/proc: {:?}", trace.checkpoint_counts());
    out
}

/// A canonical, exhaustive rendering of a trace for golden-trace pins:
/// every message, checkpoint (with its restorable snapshot), failure,
/// and metric, in a layout-independent order. Two engines produce the
/// same golden text iff their observable simulations are bit-identical.
pub fn golden(trace: &Trace) -> String {
    let mut out = String::new();
    let opt_t = |t: Option<crate::time::SimTime>| match t {
        Some(x) => x.as_micros().to_string(),
        None => "-".into(),
    };
    let _ = writeln!(
        out,
        "program={} nprocs={} outcome={:?} finished_us={}",
        trace.program,
        trace.nprocs,
        trace.outcome,
        trace.finished_at.as_micros()
    );
    let _ = writeln!(
        out,
        "proc_end_us={:?}",
        trace
            .proc_end
            .iter()
            .map(|t| t.as_micros())
            .collect::<Vec<_>>()
    );
    let m = &trace.metrics;
    let _ = writeln!(
        out,
        "metrics app_messages={} app_bits={} control_messages={} control_bits={} \
         app_ckpts={} timer_ckpts={} forced_ckpts={} coordinated_ckpts={} \
         ckpt_stall_us={} recv_blocked_us={} failures={} recovery_us={}",
        m.app_messages,
        m.app_bits,
        m.control_messages,
        m.control_bits,
        m.app_checkpoints,
        m.timer_checkpoints,
        m.forced_checkpoints,
        m.coordinated_checkpoints,
        m.ckpt_stall_us,
        m.recv_blocked_us,
        m.failures,
        m.recovery_us
    );
    for msg in &trace.messages {
        let _ = writeln!(
            out,
            "msg id={} from={} to={} bits={} send_stmt={} sent_us={} send_vc={} send_step={} \
             piggyback={} delivered_us={} recv_us={} recv_vc={} recv_step={} recv_stmt={} \
             rolled_back={}",
            msg.id.0,
            msg.from,
            msg.to,
            msg.size_bits,
            msg.send_stmt,
            msg.sent_at.as_micros(),
            msg.send_vc,
            msg.send_step,
            msg.piggyback,
            opt_t(msg.delivered_at),
            opt_t(msg.recv_at),
            msg.recv_vc
                .as_ref()
                .map(|v| v.to_string())
                .unwrap_or_else(|| "-".into()),
            msg.recv_step
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".into()),
            msg.recv_stmt
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".into()),
            msg.rolled_back,
        );
    }
    for c in &trace.checkpoints {
        let snap_vars: Vec<String> = c
            .snapshot
            .vars_sorted()
            .into_iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let snap_insts: Vec<String> = c
            .snapshot
            .stmt_instances_sorted()
            .into_iter()
            .map(|(k, v)| format!("{k}:{v}"))
            .collect();
        let _ = writeln!(
            out,
            "ckpt proc={} seq={} stmt={} instance={} label={} trigger={} start_us={} \
             durable_us={} vc={} step={} rolled_back={} snap_pc={} snap_seq={} snap_step={} \
             snap_vc={} snap_vars=[{}] snap_insts=[{}]",
            c.proc,
            c.seq,
            c.stmt.map(|s| s.to_string()).unwrap_or_else(|| "-".into()),
            c.instance,
            c.label.as_deref().unwrap_or("-"),
            trigger_tag(c.trigger),
            c.start.as_micros(),
            c.durable_at.as_micros(),
            c.vc,
            c.step,
            c.rolled_back,
            c.snapshot.pc,
            c.snapshot.ckpt_seq,
            c.snapshot.step,
            c.snapshot.vc,
            snap_vars.join(","),
            snap_insts.join(","),
        );
    }
    for f in &trace.failures {
        let _ = writeln!(
            out,
            "failure proc={} at_us={} restored_seq={:?} latest_seq={:?} lost_us={}",
            f.proc,
            f.at.as_micros(),
            f.restored_seq,
            f.latest_seq,
            f.lost_us
        );
    }
    out
}

/// A textual space-time diagram: per process, the ordered timeline of
/// its sends (`s→q`), receives (`r←p`), and checkpoints (`C#`), in the
/// style of the paper's execution figures (Figures 3, 5, 6).
pub fn spacetime(trace: &Trace) -> String {
    #[derive(PartialEq, PartialOrd)]
    struct Entry(f64, String);
    let mut lanes: Vec<Vec<Entry>> = (0..trace.nprocs).map(|_| Vec::new()).collect();
    for m in trace.live_messages() {
        lanes[m.from].push(Entry(m.sent_at.as_secs_f64(), format!("s→{}", m.to)));
        if let Some(at) = m.recv_at {
            lanes[m.to].push(Entry(at.as_secs_f64(), format!("r←{}", m.from)));
        }
    }
    for c in trace.checkpoints.iter().filter(|c| !c.rolled_back) {
        lanes[c.proc].push(Entry(c.start.as_secs_f64(), format!("C{}", c.seq)));
    }
    let mut out = String::new();
    for (p, lane) in lanes.iter_mut().enumerate() {
        lane.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
        let _ = write!(out, "P{p}:");
        for Entry(_, tag) in lane.iter() {
            let _ = write!(out, " {tag}");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::compile;
    use crate::config::SimConfig;
    use crate::engine::run;
    use acfc_mpsl::programs;

    fn trace() -> Trace {
        run(&compile(&programs::pingpong(2)), &SimConfig::new(2))
    }

    #[test]
    fn summary_mentions_the_essentials() {
        let t = trace();
        let s = summary(&t);
        assert!(s.contains("pingpong"));
        assert!(s.contains("Completed"));
        assert!(s.contains("ckpts/proc"));
    }

    #[test]
    fn spacetime_orders_each_lane() {
        let t = trace();
        let st = spacetime(&t);
        let lines: Vec<&str> = st.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("P0:"));
        // Rank 0 serves first: its first event is the send.
        assert!(lines[0].contains("s→1"));
        assert!(lines[1].contains("r←0"));
        // Checkpoints appear once per iteration.
        assert_eq!(lines[0].matches('C').count(), 2);
    }
}
