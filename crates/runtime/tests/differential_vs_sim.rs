//! Differential pin: the deterministic runtime scheduler reproduces
//! the simulator engine's traces exactly — same messages (times,
//! clocks, piggybacks), same checkpoints (snapshots included), same
//! failure/rollback records, same metrics — for every protocol, with
//! and without kills, on all stock programs.

use acfc_protocols::{
    max_consistent_picker, uncoordinated_hooks, uncoordinated_picker, AppDriven, ChandyLamport,
    CicProtocol, ProtocolKind, SyncAndStop,
};
use acfc_runtime::{coordinator_for, run_det, InMemoryBackend};
use acfc_sim::{
    compile, run_with_backend, run_with_failures, CutPicker, FailurePlan, NetworkModel, NoHooks,
    SimConfig, SimTime, StateBackend, StateSnapshot, Trace,
};
use std::collections::BTreeMap;

mod common;
use common::{PayloadLog, LATE_BINDING};

const NPROCS: usize = 4;
const INTERVAL_US: u64 = 60_000;
const SKEW_US: u64 = INTERVAL_US / 3;

/// Simulator-side reference run, mirroring the protocol dispatch the
/// runtime's `coordinator_for` performs.
fn sim_reference(kind: ProtocolKind, program: &acfc_mpsl::Program, plan: FailurePlan) -> Trace {
    let cfg = SimConfig::new(NPROCS);
    let net = NetworkModel::default();
    match kind {
        ProtocolKind::AppDriven => {
            let ad = AppDriven::prepare(program, NPROCS).expect("analysis accepts stock programs");
            let mut hooks = NoHooks;
            run_with_failures(&ad.compiled, &cfg, &mut hooks, plan, CutPicker::AlignedSeq)
        }
        ProtocolKind::Uncoordinated => {
            let mut hooks = uncoordinated_hooks(NPROCS, INTERVAL_US, SKEW_US);
            run_with_failures(
                &compile(program),
                &cfg,
                &mut hooks,
                plan,
                uncoordinated_picker(),
            )
        }
        ProtocolKind::SyncAndStop => {
            let mut hooks = SyncAndStop::new(NPROCS, INTERVAL_US, net);
            run_with_failures(
                &compile(program),
                &cfg,
                &mut hooks,
                plan,
                max_consistent_picker(),
            )
        }
        ProtocolKind::ChandyLamport => {
            let mut hooks = ChandyLamport::new(NPROCS, INTERVAL_US, net);
            run_with_failures(
                &compile(program),
                &cfg,
                &mut hooks,
                plan,
                max_consistent_picker(),
            )
        }
        ProtocolKind::Cic(variant) => {
            let mut hooks = CicProtocol::new(variant, NPROCS, INTERVAL_US, SKEW_US);
            let picker = hooks.picker();
            run_with_failures(&compile(program), &cfg, &mut hooks, plan, picker)
        }
    }
}

/// Runtime-side run through the trait pair.
fn runtime_run(
    kind: ProtocolKind,
    program: &acfc_mpsl::Program,
    plan: FailurePlan,
) -> (Trace, InMemoryBackend) {
    let mut prep = coordinator_for(
        kind,
        program,
        NPROCS,
        INTERVAL_US,
        SKEW_US,
        NetworkModel::default(),
    )
    .expect("coordinator builds");
    let cfg = SimConfig::new(NPROCS);
    let mut backend = InMemoryBackend::new();
    let run = run_det(
        &prep.compiled,
        &cfg,
        prep.coordinator.as_mut(),
        &mut backend,
        plan,
    );
    (run.trace, backend)
}

fn assert_traces_equal(kind: ProtocolKind, program: &str, sim: &Trace, rt: &Trace) {
    let ctx = format!("{program} under {kind}");
    assert_eq!(sim.nprocs, rt.nprocs, "{ctx}: nprocs");
    assert_eq!(sim.program, rt.program, "{ctx}: program name");
    assert_eq!(sim.outcome, rt.outcome, "{ctx}: outcome");
    assert_eq!(sim.finished_at, rt.finished_at, "{ctx}: finished_at");
    assert_eq!(sim.proc_end, rt.proc_end, "{ctx}: proc_end");
    assert_eq!(
        format!("{:?}", sim.metrics),
        format!("{:?}", rt.metrics),
        "{ctx}: metrics"
    );
    assert_eq!(
        sim.messages.len(),
        rt.messages.len(),
        "{ctx}: message count"
    );
    for (a, b) in sim.messages.iter().zip(&rt.messages) {
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{ctx}: message {:?}",
            a.id
        );
    }
    assert_eq!(
        sim.checkpoints.len(),
        rt.checkpoints.len(),
        "{ctx}: checkpoint count"
    );
    for (a, b) in sim.checkpoints.iter().zip(&rt.checkpoints) {
        let at = format!("{ctx}: checkpoint ({}, {})", a.proc, a.seq);
        assert_eq!(a.proc, b.proc, "{at}: proc");
        assert_eq!(a.seq, b.seq, "{at}: seq");
        assert_eq!(a.stmt, b.stmt, "{at}: stmt");
        assert_eq!(a.instance, b.instance, "{at}: instance");
        assert_eq!(a.label, b.label, "{at}: label");
        assert_eq!(a.trigger, b.trigger, "{at}: trigger");
        assert_eq!(a.start, b.start, "{at}: start");
        assert_eq!(a.durable_at, b.durable_at, "{at}: durable_at");
        assert_eq!(a.vc, b.vc, "{at}: vc");
        assert_eq!(a.step, b.step, "{at}: step");
        assert_eq!(a.rolled_back, b.rolled_back, "{at}: rolled_back");
        // Set-semantic snapshot equality (bound pairs, nonzero instance
        // counters, representation-independent clocks).
        assert_eq!(a.snapshot, b.snapshot, "{at}: snapshot");
    }
    assert_eq!(sim.failures.len(), rt.failures.len(), "{ctx}: failures");
    for (a, b) in sim.failures.iter().zip(&rt.failures) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{ctx}: failure record");
    }
}

#[test]
fn det_runtime_matches_simulator_on_all_stock_programs() {
    for program in acfc_mpsl::programs::all_stock() {
        let name = program.name.clone();
        for kind in ProtocolKind::all() {
            let sim = sim_reference(kind, &program, FailurePlan::none());
            let (rt, _) = runtime_run(kind, &program, FailurePlan::none());
            assert_traces_equal(kind, &name, &sim, &rt);
        }
    }
}

#[test]
fn det_runtime_matches_simulator_under_kills() {
    let plan = || {
        FailurePlan::at(vec![
            (SimTime::from_micros(180_000), 1),
            (SimTime::from_micros(420_000), 2),
        ])
    };
    let program = acfc_mpsl::programs::jacobi(8);
    for kind in ProtocolKind::all() {
        let sim = sim_reference(kind, &program, plan());
        let (rt, _) = runtime_run(kind, &program, plan());
        assert!(
            !rt.failures.is_empty(),
            "{kind}: the kill schedule should actually fire"
        );
        assert_traces_equal(kind, "jacobi-kills", &sim, &rt);
    }
}

#[test]
fn backend_committed_set_tracks_live_checkpoints_through_rollback() {
    let plan = FailurePlan::at(vec![(SimTime::from_micros(200_000), 0)]);
    let program = acfc_mpsl::programs::jacobi(8);
    for kind in ProtocolKind::all() {
        let (trace, mut backend) = runtime_run(kind, &program, plan.clone());
        let mut live: Vec<(usize, u64)> = trace
            .checkpoints
            .iter()
            .filter(|c| !c.rolled_back)
            .map(|c| (c.proc, c.seq))
            .collect();
        live.sort_unstable();
        let committed = backend.committed().unwrap();
        assert_eq!(committed, live, "{kind}: backend vs live checkpoints");
    }
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
    let clean = run_with_failures(
        &compiled,
        &cfg,
        &mut NoHooks,
        FailurePlan::none(),
        CutPicker::AlignedSeq,
    );
    let binds_at = clean
        .checkpoints
        .iter()
        .find(|c| (c.proc, c.seq) == (1, 6))
        .expect("sixth checkpoint")
        .start;
    for plan in [FailurePlan::none(), FailurePlan::at(vec![(binds_at, 1)])] {
        let mut sim_log = PayloadLog::default();
        let sim = run_with_backend(
            &compiled,
            &cfg,
            &mut NoHooks,
            plan.clone(),
            CutPicker::AlignedSeq,
            &mut sim_log,
        );
        assert_eq!(sim.failures.len(), plan.events().len());
        assert_eq!(sim_log.0.len(), 10 * NPROCS);
        assert_eq!(sim_log.0, expected(&sim), "run_with_backend");
        assert_eq!(var_names(&sim_log.0, (0, 5)), ["acc", "i"]);
        assert_eq!(var_names(&sim_log.0, (0, 6)), ["acc", "i", "late"]);

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
        let mut det_log = PayloadLog::default();
        let det = run_det(
            &compiled,
            &cfg,
            prep.coordinator.as_mut(),
            &mut det_log,
            plan,
        );
        assert_eq!(det_log.0, expected(&det.trace), "run_det");
        assert_eq!(det_log.0, sim_log.0, "run_det vs run_with_backend");
    }
}
