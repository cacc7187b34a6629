//! Head-to-head protocol comparison (the empirical companion to the
//! paper's Figures 8/9): the application-driven protocol against
//! uncoordinated, SaS, Chandy–Lamport, and communication-induced
//! checkpointing, on the same workload with the same injected failure.
//!
//! ```text
//! cargo run --release --example protocol_comparison [nprocs]
//! ```

use acfc_mpsl::programs;
use acfc_perfmodel::{figure8, ModelParams};
use acfc_protocols::{compare_all, render_table, AppDriven, CompareConfig};
use acfc_sim::{run_observed, FailurePlan, SimConfig, SimObs, SimTime};

fn main() {
    let n = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4usize);

    // Message-level simulation.
    let program = programs::jacobi(10);
    let cfg = CompareConfig::builder(n)
        .interval_us(80_000)
        .failures(FailurePlan::at(vec![(SimTime::from_millis(300), 0)]))
        .build()
        .expect("valid comparison config");
    println!(
        "workload: {} at n={n}, one failure at t=300ms\n",
        program.name
    );
    let stats = compare_all(&program, &cfg);
    print!("{}", render_table(&stats));

    println!("\nkey observations (the paper's claims, measured):");
    let by = |name: &str| stats.iter().find(|s| s.protocol.name() == name).unwrap();
    println!(
        "  appl-driven control messages: {} (SaS: {}, C-L: {})",
        by("appl-driven").control_messages,
        by("SaS").control_messages,
        by("C-L").control_messages
    );
    println!(
        "  appl-driven forced checkpoints: {} (CIC: {})",
        by("appl-driven").forced,
        by("CIC").forced
    );
    println!(
        "  appl-driven max rollback depth: {} (uncoordinated: {})",
        by("appl-driven").max_rollback_depth,
        by("uncoordinated").max_rollback_depth
    );

    // Utilisation breakdown of the application-driven run, per process
    // as the engine's probes measured it.
    let ad = AppDriven::prepare(&program, n.min(128)).expect("analysis");
    let mut obs = SimObs::counters();
    run_observed(&ad.compiled, &SimConfig::new(n), &mut obs);
    println!("\nappl-driven utilisation (failure-free):");
    for (p, t) in obs.per_proc.iter().enumerate() {
        println!(
            "  P{p}: compute {:.1} ms, blocked {:.1} ms, checkpoint stall {:.1} ms",
            t.compute_us as f64 / 1000.0,
            t.blocked_us as f64 / 1000.0,
            t.ckpt_us as f64 / 1000.0
        );
    }

    // Analytic model at the same n, for comparison of the shape.
    println!("\nanalytic overhead ratios at n={n} (paper's §4 model):");
    let rows = figure8(&ModelParams::default(), &[n]);
    println!(
        "  appl-driven {:.4e}   SaS {:.4e}   C-L {:.4e}",
        rows[0].app_driven, rows[0].sas, rows[0].chandy_lamport
    );
}
