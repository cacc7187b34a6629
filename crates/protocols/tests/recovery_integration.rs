//! Cross-protocol recovery integration: every protocol must survive
//! injected failures, recover from a *consistent* line, and finish the
//! computation with the correct results.

use acfc_mpsl::{parse, programs};
use acfc_protocols::{
    uncoordinated_hooks, uncoordinated_picker, AppDriven, ChandyLamport, CheckpointCoordinator,
    CicProtocol, CicVariant, IntervalIndex, SyncAndStop,
};
use acfc_sim::{
    compile, run, run_with_failures, CutPicker, FailurePlan, Hooks, NoHooks, SimConfig, SimTime,
    Trace,
};

fn storm() -> FailurePlan {
    FailurePlan::at(vec![
        (SimTime::from_millis(90), 0),
        (SimTime::from_millis(210), 1),
        (SimTime::from_millis(330), 2),
    ])
}

/// The restored line at each failure must satisfy the no-orphan
/// definition against the (post-hoc known) message history.
fn restored_lines_consistent(trace: &Trace) {
    let idx = IntervalIndex::from_trace(trace);
    for f in &trace.failures {
        for m in trace.live_messages() {
            let (Some(rs), Some(sc), Some(rc)) = (
                m.recv_step,
                f.restored_seq[m.from].or(Some(0)),
                f.restored_seq[m.to].or(Some(0)),
            ) else {
                continue;
            };
            // Only judge messages that existed by the failure time.
            if m.sent_at > f.at {
                continue;
            }
            let orphan =
                idx.interval_of(m.from, m.send_step) >= sc && idx.interval_of(m.to, rs) < rc;
            assert!(
                !orphan,
                "failure at {:?} restored an inconsistent line {:?}",
                f.at, f.restored_seq
            );
        }
    }
}

#[test]
fn app_driven_survives_a_failure_storm() {
    let p = programs::jacobi(8);
    let ad = AppDriven::prepare(&p, 3).unwrap();
    let t = run_with_failures(
        &ad.compiled,
        &SimConfig::new(3),
        &mut NoHooks,
        storm(),
        NoHooks.picker(),
    );
    assert!(t.completed(), "{:?}", t.outcome);
    assert_eq!(t.metrics.failures, 3);
    assert_eq!(t.checkpoint_counts(), vec![8, 8, 8]);
    restored_lines_consistent(&t);
}

#[test]
fn sas_survives_a_failure_storm() {
    let p = programs::jacobi(8);
    let cfg = SimConfig::new(3);
    let mut hooks = SyncAndStop::new(3, 60_000, cfg.net.clone());
    let t = run_with_failures(
        &compile(&p),
        &cfg,
        &mut hooks,
        storm(),
        CutPicker::LatestPerProcess,
    );
    assert!(t.completed(), "{:?}", t.outcome);
    assert_eq!(t.metrics.failures, 3);
}

#[test]
fn chandy_lamport_survives_a_failure_storm() {
    let p = programs::jacobi(8);
    let cfg = SimConfig::new(3);
    let mut hooks = ChandyLamport::new(3, 60_000, cfg.net.clone());
    let t = run_with_failures(
        &compile(&p),
        &cfg,
        &mut hooks,
        storm(),
        CutPicker::LatestPerProcess,
    );
    assert!(t.completed(), "{:?}", t.outcome);
    assert_eq!(t.metrics.failures, 3);
}

#[test]
fn cic_survives_a_failure_storm_with_aligned_recovery() {
    let p = programs::jacobi(8);
    let cfg = SimConfig::new(3);
    let mut hooks = CicProtocol::new(CicVariant::Index, 3, 40_000, 13_000);
    let t = run_with_failures(
        &compile(&p),
        &cfg,
        &mut hooks,
        storm(),
        CutPicker::AlignedSeq,
    );
    assert!(t.completed(), "{:?}", t.outcome);
    assert_eq!(t.metrics.failures, 3);
    restored_lines_consistent(&t);
}

#[test]
fn uncoordinated_survives_with_rollback_propagation() {
    let p = programs::jacobi(8);
    let cfg = SimConfig::new(3);
    let mut hooks = uncoordinated_hooks(3, 45_000, 17_000);
    let t = run_with_failures(
        &compile(&p),
        &cfg,
        &mut hooks,
        storm(),
        uncoordinated_picker(),
    );
    assert!(t.completed(), "{:?}", t.outcome);
    assert_eq!(t.metrics.failures, 3);
    restored_lines_consistent(&t);
}

#[test]
fn recovered_computation_produces_the_failure_free_state() {
    // A program with a nontrivial accumulator: recovery must replay to
    // the identical final variable state under every protocol picker.
    let src = "program acc; param iters = 8; var i, total;
        for i in 0..iters {
          total := total + (rank + 1) * i;
          compute 15;
          send to (rank + 1) % nprocs size 256;
          recv from (rank - 1) % nprocs;
          checkpoint;
        }";
    let p = parse(src).unwrap();
    let c = compile(&p);
    let cfg = SimConfig::new(3);
    let clean = run(&c, &cfg);
    assert!(clean.completed());
    let final_vars = |t: &Trace, proc: usize| {
        t.live_checkpoints(proc)
            .last()
            .unwrap()
            .snapshot
            .vars
            .clone()
    };
    let ad = AppDriven::prepare(&p, 3).unwrap();
    let failed = run_with_failures(&ad.compiled, &cfg, &mut NoHooks, storm(), NoHooks.picker());
    assert!(failed.completed(), "{:?}", failed.outcome);
    for proc in 0..3 {
        assert_eq!(
            final_vars(&clean, proc)["total"],
            final_vars(&failed, proc)["total"],
            "proc {proc} diverged after recovery"
        );
    }
}

#[test]
fn protocols_do_not_interfere_with_application_semantics() {
    // Message payloads/volume identical across protocols (checkpoints
    // are transparent to the application).
    let p = programs::stencil_1d(5);
    let cfg = SimConfig::new(4);
    let bare = run(&compile(&p), &cfg);
    let mut sas: Box<dyn Hooks> = Box::new(SyncAndStop::new(4, 70_000, cfg.net.clone()));
    let with_sas = acfc_sim::run_with_hooks(&compile(&p), &cfg, sas.as_mut());
    assert_eq!(bare.metrics.app_messages, with_sas.metrics.app_messages);
    assert_eq!(bare.metrics.app_bits, with_sas.metrics.app_bits);
}
