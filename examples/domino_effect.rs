//! The domino effect (§1), demonstrated and then eliminated.
//!
//! Uncoordinated checkpointing on the classic request/reply zigzag:
//! every checkpoint of the replier is orphaned by a request and every
//! staggered cut by a reply, so rollback propagation cascades all the
//! way to the initial state. The paper's offline analysis relocates the
//! checkpoints so that recovery never discards more than the current
//! interval.
//!
//! ```text
//! cargo run --example domino_effect
//! ```

use acfc_protocols::{domino_report, domino_stream, AppDriven, CheckpointCoordinator};
use acfc_sim::{compile, run, run_with_failures, FailurePlan, NoHooks, SimConfig, SimTime};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rounds = 10;
    let program = domino_stream(rounds);
    println!("workload: request/reply zigzag, {rounds} rounds, n=2\n");

    // --- As written: the domino effect -------------------------------
    let trace = run(&compile(&program), &SimConfig::new(2));
    let rep = domino_report(&trace);
    println!("uncoordinated placement (as written):");
    println!("  checkpoints taken per process:   {:?}", rep.counts);
    println!("  maximal consistent line:         {:?}", rep.line);
    println!("  checkpoints discarded (domino):  {:?}", rep.depths);
    println!("  full restart forced:             {}", rep.full_restart);
    assert!(rep.full_restart);

    // What that means when a failure actually happens: recover with the
    // maximal-consistent-line picker and watch the lost work.
    let plan = FailurePlan::at(vec![(SimTime::from_millis(80), 1)]);
    let mut hooks = NoHooks;
    let t = run_with_failures(
        &compile(&program),
        &SimConfig::new(2),
        &mut hooks,
        plan.clone(),
        acfc_protocols::uncoordinated_picker(),
    );
    assert!(t.completed());
    let f = &t.failures[0];
    println!(
        "  on failure at t=80ms: restored {:?} (latest were {:?}), {:.1} ms of work lost\n",
        f.restored_seq,
        f.latest_seq,
        f.lost_us as f64 / 1000.0
    );

    // --- After the paper's analysis ----------------------------------
    let ad = AppDriven::prepare(&program, 4)?;
    println!("application-driven placement (after the offline analysis):");
    for m in &ad.analysis.moves {
        println!("  [S_{}] {}", m.index, m.description);
    }
    let trace = run(&ad.compiled, &SimConfig::new(2));
    let rep = domino_report(&trace);
    println!("  checkpoints taken per process:   {:?}", rep.counts);
    println!("  maximal consistent line:         {:?}", rep.line);
    println!("  checkpoints discarded (domino):  {:?}", rep.depths);
    assert!(rep.depths.iter().all(|&d| d == 0));

    // The application-driven coordinator's picker: straight cuts.
    let picker = hooks.picker();
    let t = run_with_failures(&ad.compiled, &SimConfig::new(2), &mut hooks, plan, picker);
    assert!(t.completed());
    let f = &t.failures[0];
    println!(
        "  on the same failure: restored {:?} (latest were {:?}), {:.1} ms lost — bounded by one interval",
        f.restored_seq,
        f.latest_seq,
        f.lost_us as f64 / 1000.0
    );
    Ok(())
}
