//! Human-readable explanations of analysis results.
//!
//! Condition-1 violations are paths in the extended CFG; raw node ids
//! are opaque to users. This module renders violations with
//! source-level labels, in the style of the paper's worked examples
//! ("the path ⟨C₁ᴮ, Send, Recv, while, C₁ᴬ⟩ …").

use crate::condition::Violation;
use crate::extended::ExtendedCfg;
use acfc_cfg::node_label;
use std::fmt::Write;

/// Renders one violation with its witness path in source-level terms.
pub fn explain_violation(g: &ExtendedCfg, v: &Violation) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "straight cut S_{} is not guaranteed to be a recovery line:",
        v.index
    );
    let _ = writeln!(
        out,
        "  checkpoint {} can happen-before checkpoint {}{}",
        node_label(&g.cfg, v.from),
        node_label(&g.cfg, v.to),
        if v.only_via_back_edge {
            " (across loop iterations)"
        } else {
            ""
        }
    );
    let _ = write!(out, "  via the path ⟨");
    for (i, &n) in v.witness.iter().enumerate() {
        if i > 0 {
            let prev = v.witness[i - 1];
            let is_msg = g
                .message_edges
                .iter()
                .any(|e| e.send == prev && e.recv == n);
            let _ = write!(out, "{}", if is_msg { " ⇒ " } else { ", " });
        }
        let _ = write!(out, "{}", node_label(&g.cfg, n));
    }
    let _ = writeln!(out, "⟩");
    let _ = writeln!(
        out,
        "  (⇒ marks a message edge; Algorithm 3.2 will move the later checkpoint back)"
    );
    out
}

/// Renders every violation.
pub fn explain_violations(g: &ExtendedCfg, violations: &[Violation]) -> String {
    if violations.is_empty() {
        return "Condition 1 holds: every straight cut of checkpoints is a \
                recovery line in any further execution.\n"
            .to_string();
    }
    violations.iter().map(|v| explain_violation(g, v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::compute_attrs;
    use crate::condition::{check_condition1, LoopPolicy};
    use crate::cuts::{index_checkpoints, CheckpointIndex};
    use crate::iddep::analyze_iddep;
    use crate::matching::{match_send_recv, MatchingMode};
    use acfc_cfg::build_cfg;
    use acfc_mpsl::programs;

    fn setup(p: &acfc_mpsl::Program) -> (ExtendedCfg, CheckpointIndex, Vec<Violation>) {
        let (cfg, lowered) = build_cfg(p);
        let iddep = analyze_iddep(&cfg, &lowered);
        let attrs = compute_attrs(&cfg, 8, &iddep);
        let m = match_send_recv(&cfg, &attrs, &iddep, MatchingMode::FifoOrdered);
        let idx = index_checkpoints(&cfg, &lowered);
        let g = ExtendedCfg::build(cfg, &m);
        let v = check_condition1(&g, &idx, LoopPolicy::Optimized);
        (g, idx, v)
    }

    #[test]
    fn violation_explanation_reads_like_the_paper() {
        let (g, _, v) = setup(&programs::fig5());
        assert_eq!(v.len(), 1);
        let text = explain_violation(&g, &v[0]);
        assert!(text.contains("S_1"));
        assert!(text.contains("chkpt"));
        assert!(text.contains('⇒'), "message edge marked: {text}");
        assert!(text.contains("send to"));
        assert!(text.contains("recv from"));
    }

    #[test]
    fn clean_program_reports_condition_holds() {
        let (g, _, v) = setup(&programs::jacobi(3));
        let text = explain_violations(&g, &v);
        assert!(text.contains("Condition 1 holds"));
    }

    #[test]
    fn back_edge_violations_are_called_out() {
        let (g, _, v) = setup(&programs::fig6(3));
        assert_eq!(v.len(), 1);
        let text = explain_violation(&g, &v[0]);
        assert!(text.contains("across loop iterations"), "{text}");
    }
}
