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
    backend_for, coordinator_for, run_det, run_free, CheckpointCoordinator, FailureInjector,
    FreeConfig, InMemoryBackend, RunEvent, RunReport,
};
use acfc_sim::backend::{StateBackend, StateSnapshot};
use acfc_sim::bytecode::{LowInstr, LowSrc};
use acfc_sim::{
    compile, Compiled, CutPicker, FailurePlan, Hooks, NetworkModel, NoHooks, Outcome, RecvAction,
    SimConfig, SimTime, Trace, FORCED_RUNAWAY,
};
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

/// The simulator's run of `compiled` and the encoding of every
/// checkpoint it records, by `(proc, seq)`.
fn sim_payloads(compiled: &Compiled, cfg: &SimConfig) -> (Trace, BTreeMap<(usize, u64), Vec<u8>>) {
    let sim = acfc_sim::run(compiled, cfg);
    assert!(sim.completed(), "{}: {:?}", compiled.name, sim.outcome);
    let payloads = sim
        .checkpoints
        .iter()
        .map(|rec| {
            (
                (rec.proc, rec.seq),
                StateSnapshot::from_record(rec).encode(),
            )
        })
        .collect();
    (sim, payloads)
}

/// What free mode commits for `compiled` under the application-driven
/// coordinator and `injector`'s kills.
fn free_payloads(
    compiled: &Compiled,
    cfg: &SimConfig,
    injector: &FailureInjector,
) -> BTreeMap<(usize, u64), Vec<u8>> {
    let mut log = PayloadLog::default();
    let report = run_free(
        compiled,
        cfg,
        &mut NoHooks,
        &mut log,
        injector,
        &FreeConfig::default(),
    );
    assert_eq!(report.outcome, Outcome::Completed, "{}", compiled.name);
    let (kills, ..) = count_events(&report);
    assert_eq!(
        kills,
        usize::from(!injector.is_empty()),
        "{}",
        compiled.name
    );
    log.0
}

#[test]
fn free_mode_commits_the_payloads_the_simulator_records() {
    // Each payload pins pc, step, vector clock, values, binding row and
    // statement instances at one checkpoint, so equal payloads make this
    // an instruction-level differential between the stepper's two
    // schedulers. Free mode resolves `recv from any` by the lowest buffered
    // sender and the engine by the earliest delivery, so only programs
    // whose receives name their source have one answer.
    let cfg = SimConfig::new(NPROCS).with_inputs(vec![3, 7]);
    let mut skipped = Vec::new();
    for program in acfc_mpsl::programs::all_stock() {
        let compiled = compile(&program);
        let any_source = compiled.lowered.iter().any(|i| {
            matches!(
                i,
                LowInstr::Recv {
                    src: LowSrc::Any,
                    ..
                }
            )
        });
        if any_source {
            skipped.push(program.name);
            continue;
        }
        let (_, expected) = sim_payloads(&compiled, &cfg);
        let committed = free_payloads(&compiled, &cfg, &FailureInjector::none());
        assert_eq!(committed, expected, "{}", program.name);
    }
    assert_eq!(
        skipped,
        ["master_worker", "rotation_shuffle", "bcast_reduce"]
    );

    // A variable binds between two checkpoints, and a kill rolls the
    // binding back: every payload a worker thread commits is still the
    // encoding of the simulator's record of that checkpoint.
    let compiled = compile(&acfc_mpsl::parse(LATE_BINDING).expect("parses"));
    let cfg = SimConfig::new(NPROCS);
    let (sim, expected) = sim_payloads(&compiled, &cfg);
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
        let committed = free_payloads(&compiled, &cfg, &injector);
        assert_eq!(committed, expected, "kills: {}", !injector.is_empty());
    }
}

#[test]
fn every_scheduler_reports_stepper_errors_the_same_way() {
    // Rank 1 fails; rank 0 halts without communicating.
    let error = |msg: &str| Outcome::RuntimeError(1, msg.to_string());
    let cases = [
        ("compute 3 - 5;", error("negative compute cost -2")),
        ("send to 0 size 0 - 8;", error("negative message size -8")),
        (
            "send to nprocs;",
            error("rank expression evaluated to 2, out of range"),
        ),
        (
            "recv from 0 - 1;",
            error("rank expression evaluated to -1, out of range"),
        ),
        ("late := missing + 1;", error("unbound variable `missing`")),
        ("while 1 { }", Outcome::StepLimit(1)),
    ];
    for (body, expected) in cases {
        let src = format!("program t; if rank == 1 {{ {body} }}");
        let compiled = compile(&acfc_mpsl::parse(&src).expect("parses"));
        let mut cfg = SimConfig::new(2);
        cfg.max_steps_per_proc = 1_000;
        let sim = acfc_sim::run(&compiled, &cfg).outcome;
        let det = run_det(
            &compiled,
            &cfg,
            &mut NoHooks,
            &mut InMemoryBackend::new(),
            FailurePlan::none(),
        )
        .trace
        .outcome;
        let free = run_free(
            &compiled,
            &cfg,
            &mut NoHooks,
            &mut InMemoryBackend::new(),
            &FailureInjector::none(),
            &FreeConfig::default(),
        )
        .outcome;
        assert_eq!(sim, expected, "{body}: simulator");
        assert_eq!(det, expected, "{body}: run_det");
        assert_eq!(free, expected, "{body}: run_free");
    }
}

/// A protocol that demands a forced checkpoint before every delivery,
/// however many it has already been given.
struct AlwaysForce;

impl Hooks for AlwaysForce {
    fn on_recv(&mut self, _p: usize, _piggyback: u64, _own: u64, _now: SimTime) -> RecvAction {
        RecvAction::ForceCheckpointFirst
    }

    fn uses_timers(&mut self) -> bool {
        false
    }
}

impl CheckpointCoordinator for AlwaysForce {
    fn name(&self) -> &'static str {
        "always-force"
    }

    fn picker(&self) -> CutPicker {
        CutPicker::AlignedSeq
    }
}

#[test]
fn runaway_forced_checkpoints_end_the_run_with_a_runtime_error() {
    let src = "program t; if rank == 0 { send to 1; } else { recv from 0; }";
    let compiled = compile(&acfc_mpsl::parse(src).expect("parses"));
    let cfg = SimConfig::new(2);
    let expected = Outcome::RuntimeError(1, FORCED_RUNAWAY.to_string());
    let sim = acfc_sim::run_with_failures(
        &compiled,
        &cfg,
        &mut AlwaysForce,
        FailurePlan::none(),
        CutPicker::AlignedSeq,
    );
    assert_eq!(sim.outcome, expected, "simulator");
    let det = run_det(
        &compiled,
        &cfg,
        &mut AlwaysForce,
        &mut InMemoryBackend::new(),
        FailurePlan::none(),
    );
    assert_eq!(det.trace.outcome, expected, "run_det");
    let free = run_free(
        &compiled,
        &cfg,
        &mut AlwaysForce,
        &mut InMemoryBackend::new(),
        &FailureInjector::none(),
        &FreeConfig::default(),
    );
    assert_eq!(free.outcome, expected, "run_free");
}
