//! Shared helpers for the ACFC benchmark harness.
//!
//! The binaries in `src/bin/` regenerate the paper's evaluation figures
//! (Figure 8: overhead ratio vs. number of processes; Figure 9:
//! overhead ratio vs. message setup time), and the wall-clock benches in
//! `benches/` measure the model primitives and the analysis design
//! choices. End-to-end performance is tracked by the standalone
//! `benchmark/` crate, not here. This library holds the pieces the
//! binaries share: the simulator-vs-model validation runs and
//! plain-text rendering.

use acfc_mpsl::programs;
use acfc_perfmodel::{ModelParams, Row};
use acfc_protocols::{compare_all, CompareConfig, RunStats};
use acfc_sim::FailurePlan;

/// Renders figure rows plus a short provenance header.
pub fn render_figure(title: &str, x_label: &str, rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {title}\n"));
    out.push_str(&acfc_perfmodel::to_tsv(x_label, rows));
    out
}

/// Runs the message-level simulator comparison that accompanies the
/// analytic figures: every protocol on a Jacobi workload at `n`
/// processes with one injected failure.
pub fn empirical_comparison(n: usize, seed: u64) -> Vec<RunStats> {
    let program = programs::jacobi(8);
    let cfg = CompareConfig::builder(n)
        .seed(seed)
        .failures(FailurePlan::at(vec![(
            acfc_sim::SimTime::from_millis(250),
            0,
        )]))
        .build()
        .unwrap();
    compare_all(&program, &cfg)
}

/// The model parameters used for all regenerated figures (the paper's
/// §4 constants; see `DESIGN.md` for the `w_m`/`w_b` choices).
pub fn paper_params() -> ModelParams {
    ModelParams::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_figure_has_header() {
        let rows = acfc_perfmodel::figure8(&paper_params(), &[2, 4]);
        let text = render_figure("Figure 8", "n", &rows);
        assert!(text.starts_with("# Figure 8\n"));
        assert_eq!(text.lines().count(), 4);
    }
}
