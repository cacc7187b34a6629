//! Regression: `run_det` is the simulator's engine with a backend and
//! a run log attached, and attaching them must not perturb the run. For
//! every protocol, with and without kills, its trace equals the one the
//! simulator's own protocol dispatch (`acfc_protocols::compare`)
//! produces — which also pins that `coordinator_for` pairs each
//! protocol with the hooks and the cut picker the simulator uses — and
//! what reaches the backend is what the trace records.

use acfc_protocols::{run_protocol_timeline, CompareConfig, ProtocolKind};
use acfc_runtime::{coordinator_for, run_det, DetRun, InMemoryBackend};
use acfc_sim::{
    compile, golden, run_with_backend, CutPicker, FailurePlan, NetworkModel, NoHooks, SimConfig,
    SimTime, StateBackend, StateSnapshot, Trace, DENSE_CLOCK_MAX,
};
use std::collections::BTreeMap;

mod common;
use common::{PayloadLog, LATE_BINDING};

const NPROCS: usize = 4;
const INTERVAL_US: u64 = 60_000;
const SKEW_US: u64 = INTERVAL_US / 3;

fn det_run(
    kind: ProtocolKind,
    program: &acfc_mpsl::Program,
    cfg: &SimConfig,
    plan: FailurePlan,
    backend: &mut dyn StateBackend,
) -> DetRun {
    let mut prep = coordinator_for(
        kind,
        program,
        cfg.nprocs,
        INTERVAL_US,
        SKEW_US,
        NetworkModel::default(),
    )
    .expect("coordinator builds");
    run_det(
        &prep.compiled,
        cfg,
        prep.coordinator.as_mut(),
        backend,
        plan,
    )
}

/// `run_det`'s trace next to the simulator's for the same cell.
fn both(kind: ProtocolKind, program: &acfc_mpsl::Program, plan: FailurePlan) -> (Trace, Trace) {
    let cmp = CompareConfig::builder(NPROCS)
        .interval_us(INTERVAL_US)
        .skew_us(SKEW_US)
        .failures(plan.clone())
        .build()
        .expect("valid comparison");
    let (sim, _) = run_protocol_timeline(program, kind, &cmp);
    let det = det_run(kind, program, &cmp.sim, plan, &mut InMemoryBackend::new());
    (sim, det.trace)
}

fn assert_traces_equal(ctx: &str, sim: &Trace, rt: &Trace) {
    // `golden` renders every message, checkpoint (snapshot included)
    // and failure record; the metrics it leaves out ride along.
    assert_eq!(golden(sim), golden(rt), "{ctx}");
    assert_eq!(
        format!("{:?}", sim.metrics),
        format!("{:?}", rt.metrics),
        "{ctx}: metrics"
    );
}

fn live_checkpoints(trace: &Trace) -> Vec<(usize, u64)> {
    let mut live: Vec<(usize, u64)> = trace
        .checkpoints
        .iter()
        .filter(|c| !c.rolled_back)
        .map(|c| (c.proc, c.seq))
        .collect();
    live.sort_unstable();
    live
}

#[test]
fn det_runtime_matches_simulator_on_all_stock_programs() {
    for program in acfc_mpsl::programs::all_stock() {
        for kind in ProtocolKind::all() {
            let (sim, rt) = both(kind, &program, FailurePlan::none());
            assert_traces_equal(&format!("{} under {kind}", program.name), &sim, &rt);
        }
    }
}

#[test]
fn det_runtime_matches_simulator_under_kills() {
    let plan = FailurePlan::at(vec![
        (SimTime::from_micros(180_000), 1),
        (SimTime::from_micros(420_000), 2),
    ]);
    let program = acfc_mpsl::programs::jacobi(8);
    for kind in ProtocolKind::all() {
        let (sim, rt) = both(kind, &program, plan.clone());
        assert!(
            !rt.failures.is_empty(),
            "{kind}: the kill schedule should actually fire"
        );
        assert_traces_equal(&format!("jacobi-kills under {kind}"), &sim, &rt);
    }
}

#[test]
fn backend_committed_set_tracks_live_checkpoints_through_rollback() {
    let plan = FailurePlan::at(vec![(SimTime::from_micros(200_000), 0)]);
    let program = acfc_mpsl::programs::jacobi(8);
    for kind in ProtocolKind::all() {
        let mut backend = InMemoryBackend::new();
        let cfg = SimConfig::new(NPROCS);
        let run = det_run(kind, &program, &cfg, plan.clone(), &mut backend);
        assert_eq!(
            backend.committed().unwrap(),
            live_checkpoints(&run.trace),
            "{kind}: backend vs live checkpoints"
        );
    }
}

/// One process more than dense clocks carry: the run goes through the
/// engine's delta-clock transport and commits sparse stamps.
#[test]
fn det_runtime_recovers_a_kill_above_the_dense_clock_limit() {
    let n = DENSE_CLOCK_MAX + 1;
    let cfg = SimConfig::new(n);
    assert!(cfg.clock_mode.is_delta(n));
    let program = acfc_mpsl::programs::jacobi(10);
    let kind = ProtocolKind::AppDriven;
    let clean = det_run(
        kind,
        &program,
        &cfg,
        FailurePlan::none(),
        &mut InMemoryBackend::new(),
    );
    assert!(clean.trace.completed(), "{:?}", clean.trace.outcome);

    let mut backend = InMemoryBackend::new();
    let plan = FailurePlan::at(vec![(SimTime::from_micros(200_000), 7)]);
    let killed = det_run(kind, &program, &cfg, plan, &mut backend);
    assert!(killed.trace.completed(), "{:?}", killed.trace.outcome);
    assert_eq!(killed.trace.failures.len(), 1, "the kill fires mid-run");
    let failure = &killed.trace.failures[0];
    assert!(
        failure.restored_seq.iter().all(|s| s.is_some()) && failure.lost_us > 0,
        "{failure:?}"
    );
    assert_eq!(
        backend.committed().unwrap(),
        live_checkpoints(&killed.trace)
    );
    assert_eq!(killed.final_vars, clean.final_vars);
    assert_eq!(killed.final_vars.len(), n);
}

#[test]
fn committed_payloads_equal_from_record_when_the_binding_row_changes() {
    let program = acfc_mpsl::parse(LATE_BINDING).expect("parses");
    let compiled = compile(&program);
    let cfg = SimConfig::new(NPROCS);
    let expected = |trace: &Trace| -> BTreeMap<(usize, u64), Vec<u8>> {
        assert!(trace.completed(), "{:?}", trace.outcome);
        trace
            .checkpoints
            .iter()
            .filter(|rec| !rec.rolled_back)
            .map(|rec| {
                (
                    (rec.proc, rec.seq),
                    StateSnapshot::from_record(rec).encode(),
                )
            })
            .collect()
    };
    let var_names = |payloads: &BTreeMap<(usize, u64), Vec<u8>>, key| {
        let snap = StateSnapshot::decode(&payloads[&key]).expect("decodes");
        snap.vars.into_iter().map(|(k, _)| k).collect::<Vec<_>>()
    };
    // Failure-free, then with a kill just after process 1 binds `late`:
    // the rollback unbinds it again and re-execution binds it anew.
    let (clean, _) = run_with_backend(
        &compiled,
        &cfg,
        &mut NoHooks,
        FailurePlan::none(),
        CutPicker::AlignedSeq,
        &mut PayloadLog::default(),
    );
    let binds_at = clean
        .checkpoints
        .iter()
        .find(|c| (c.proc, c.seq) == (1, 6))
        .expect("sixth checkpoint")
        .start;
    for plan in [FailurePlan::none(), FailurePlan::at(vec![(binds_at, 1)])] {
        // The passive coordinator of any accepted program takes every
        // `checkpoint` statement; the analysis itself is not under test.
        let mut prep = coordinator_for(
            ProtocolKind::AppDriven,
            &acfc_mpsl::programs::jacobi(1),
            NPROCS,
            INTERVAL_US,
            SKEW_US,
            NetworkModel::default(),
        )
        .expect("coordinator builds");
        let mut log = PayloadLog::default();
        let det = run_det(
            &compiled,
            &cfg,
            prep.coordinator.as_mut(),
            &mut log,
            plan.clone(),
        );
        assert_eq!(det.trace.failures.len(), plan.events().len());
        assert_eq!(log.0.len(), 10 * NPROCS);
        assert_eq!(log.0, expected(&det.trace));
        assert_eq!(var_names(&log.0, (0, 5)), ["acc", "i"]);
        assert_eq!(var_names(&log.0, (0, 6)), ["acc", "i", "late"]);
    }
}
