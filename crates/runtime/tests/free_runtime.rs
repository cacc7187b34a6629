//! Integration tests for the free-running scheduler: live OS threads
//! over real channels, protocol timers on virtual clocks, and
//! kill/recover driven entirely through the [`StateBackend`].
//!
//! Message payloads carry no data in MPSL (sends model size, receives
//! model synchronisation), so every program's final variable state is
//! deterministic regardless of thread interleaving — which makes the
//! free scheduler directly comparable against the deterministic one:
//! same final answer, always, including after crash recovery.

use acfc_protocols::ProtocolKind;
use acfc_runtime::{
    backend_for, coordinator_for, run_det, run_free, FailureInjector, FreeConfig, InMemoryBackend,
    RunEvent, RunReport,
};
use acfc_sim::backend::{StateBackend, StateSnapshot};
use acfc_sim::{FailurePlan, NetworkModel, Outcome, SimConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

mod common;
use common::{PayloadLog, LATE_BINDING};

const NPROCS: usize = 4;
const INTERVAL_US: u64 = 60_000;
const SKEW_US: u64 = INTERVAL_US / 3;

fn tmpdir(tag: &str) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let d = std::env::temp_dir().join(format!(
        "acfc-free-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Reference final state from the deterministic scheduler (no kills).
fn det_final_vars(kind: ProtocolKind, program: &acfc_mpsl::Program) -> Vec<Vec<(String, i64)>> {
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
        FailurePlan::none(),
    );
    assert_eq!(
        run.trace.outcome,
        Outcome::Completed,
        "{kind}: det reference must complete"
    );
    run.final_vars
}

fn free_run(
    kind: ProtocolKind,
    program: &acfc_mpsl::Program,
    backend: &mut (dyn StateBackend + Send),
    injector: &FailureInjector,
) -> RunReport {
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
    run_free(
        &prep.compiled,
        &cfg,
        prep.coordinator.as_mut(),
        backend,
        injector,
        &FreeConfig::default(),
    )
}

fn count_events(report: &RunReport) -> (usize, usize, u64) {
    let kills = report
        .events
        .iter()
        .filter(|e| matches!(e, RunEvent::Kill { .. }))
        .count();
    let recoveries = report
        .events
        .iter()
        .filter(|e| matches!(e, RunEvent::Recovery { .. }))
        .count();
    let reported_failures = report
        .events
        .iter()
        .find_map(|e| match e {
            RunEvent::RunEnd { failures, .. } => Some(*failures),
            _ => None,
        })
        .expect("run emits a RunEnd event");
    (kills, recoveries, reported_failures)
}

#[test]
fn free_mode_final_state_matches_det_mode() {
    let programs = [
        acfc_mpsl::programs::jacobi(6),
        acfc_mpsl::programs::jacobi_odd_even(5),
        acfc_mpsl::programs::ring(5, 4096),
        acfc_mpsl::programs::pingpong(6),
    ];
    for program in &programs {
        for kind in [ProtocolKind::AppDriven, ProtocolKind::Uncoordinated] {
            let expected = det_final_vars(kind, program);
            let mut backend = InMemoryBackend::new();
            let report = free_run(kind, program, &mut backend, &FailureInjector::none());
            let ctx = format!("{} under {kind}", program.name);
            assert_eq!(report.outcome, Outcome::Completed, "{ctx}: outcome");
            assert_eq!(report.final_vars, expected, "{ctx}: final state");
        }
    }
}

#[test]
fn free_mode_completes_under_every_protocol() {
    let program = acfc_mpsl::programs::jacobi(5);
    for kind in ProtocolKind::all() {
        let mut backend = InMemoryBackend::new();
        let report = free_run(kind, &program, &mut backend, &FailureInjector::none());
        assert_eq!(report.outcome, Outcome::Completed, "{kind}: outcome");
        let (_, _, failures) = count_events(&report);
        assert_eq!(failures, 0, "{kind}: no kills were scheduled");
        // Every protocol actually checkpoints on this program (app
        // statements for the passive coordinator, timers for the rest).
        assert!(
            report
                .events
                .iter()
                .any(|e| matches!(e, RunEvent::Checkpoint { .. })),
            "{kind}: no checkpoints taken"
        );
    }
}

#[test]
fn free_mode_kill_recovers_and_recomputes_the_same_answer() {
    let program = acfc_mpsl::programs::jacobi(8);
    for kind in [ProtocolKind::AppDriven, ProtocolKind::Uncoordinated] {
        let expected = det_final_vars(kind, &program);
        for backend_name in ["mem", "file", "log"] {
            let dir = tmpdir(&format!("kill-{backend_name}"));
            let mut backend = backend_for(backend_name, &dir).expect("backend opens");
            let injector = FailureInjector::at(vec![(150_000, 1)]);
            let report = free_run(kind, &program, backend.as_mut(), &injector);
            let ctx = format!("{kind} on {backend_name}");
            assert_eq!(report.outcome, Outcome::Completed, "{ctx}: outcome");
            let (kills, recoveries, failures) = count_events(&report);
            assert_eq!(kills, 1, "{ctx}: the scheduled kill fires exactly once");
            assert_eq!(recoveries, 1, "{ctx}: one recovery round");
            assert_eq!(failures, 1, "{ctx}: RunEnd counts the failure");
            // Recovery restored a consistent cut and re-ran: the final
            // answer is the same as a run that never crashed.
            assert_eq!(report.final_vars, expected, "{ctx}: final state");
            // Whatever survived in the backend still loads cleanly.
            let committed = backend.committed().expect("committed enumerates");
            for &(p, seq) in &committed {
                backend.load(p, seq).expect("committed snapshot loads");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn free_mode_durable_backend_survives_reopen_after_kill() {
    let program = acfc_mpsl::programs::jacobi(8);
    let dir = tmpdir("reopen");
    let injector = FailureInjector::at(vec![(120_000, 2)]);
    let committed = {
        let mut backend = backend_for("file", &dir).expect("backend opens");
        let report = free_run(
            ProtocolKind::Uncoordinated,
            &program,
            backend.as_mut(),
            &injector,
        );
        assert_eq!(report.outcome, Outcome::Completed);
        backend.committed().expect("committed enumerates")
    };
    assert!(
        !committed.is_empty(),
        "an uncoordinated run past one interval has committed checkpoints"
    );
    // A fresh process opening the same directory sees the same set.
    let mut reopened = backend_for("file", &dir).expect("backend reopens");
    assert_eq!(reopened.committed().expect("enumerates"), committed);
    for &(p, seq) in &committed {
        let snap = reopened.load(p, seq).expect("snapshot loads after reopen");
        assert_eq!((snap.proc, snap.seq), (p, seq));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn free_mode_commits_the_payloads_the_simulator_records() {
    // A variable binds between two checkpoints, and a kill rolls the
    // binding back: every payload a worker thread commits is still the
    // encoding of the simulator's record of that checkpoint.
    let program = acfc_mpsl::parse(LATE_BINDING).expect("parses");
    let compiled = acfc_sim::compile(&program);
    let cfg = SimConfig::new(NPROCS);
    let sim = acfc_sim::run(&compiled, &cfg);
    assert!(sim.completed());
    let expected: BTreeMap<(usize, u64), Vec<u8>> = sim
        .checkpoints
        .iter()
        .map(|rec| {
            (
                (rec.proc, rec.seq),
                StateSnapshot::from_record(rec).encode(),
            )
        })
        .collect();
    let binds_at = sim
        .checkpoints
        .iter()
        .find(|c| (c.proc, c.seq) == (1, 6))
        .expect("sixth checkpoint")
        .start
        .as_micros();
    for injector in [
        FailureInjector::none(),
        FailureInjector::at(vec![(binds_at, 1)]),
    ] {
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
        let report = run_free(
            &compiled,
            &cfg,
            prep.coordinator.as_mut(),
            &mut log,
            &injector,
            &FreeConfig::default(),
        );
        assert_eq!(report.outcome, Outcome::Completed);
        let (kills, ..) = count_events(&report);
        assert_eq!(kills, usize::from(!injector.is_empty()));
        assert_eq!(log.0, expected, "{kills} kill(s)");
    }
}
