//! Free-mode recovery over a store that fails or hands back a snapshot
//! the program cannot hold: the run ends with a runtime error naming
//! the killed worker, the shape the engine gives a failing commit or
//! discard, instead of a panic on the controller thread.

use acfc_runtime::{run_free, FailureInjector, FreeConfig, InMemoryBackend};
use acfc_sim::{compile, BackendError, NoHooks, Outcome, SimConfig, StateBackend, StateSnapshot};

/// What the store does to each snapshot it loads.
type OnLoad = fn(StateSnapshot) -> Result<StateSnapshot, BackendError>;

/// The in-memory store with every loaded snapshot passed through
/// `on_load` (recovery is the only caller of `load` in free mode).
struct Faulty {
    inner: InMemoryBackend,
    on_load: OnLoad,
}

impl StateBackend for Faulty {
    fn name(&self) -> &'static str {
        "faulty"
    }

    fn commit(&mut self, snap: &StateSnapshot) -> Result<(), BackendError> {
        self.inner.commit(snap)
    }

    fn load(&mut self, proc: usize, seq: u64) -> Result<StateSnapshot, BackendError> {
        self.inner.load(proc, seq).and_then(self.on_load)
    }

    fn committed(&mut self) -> Result<Vec<(usize, u64)>, BackendError> {
        self.inner.committed()
    }

    fn discard_after(&mut self, proc: usize, seq: u64) -> Result<(), BackendError> {
        self.inner.discard_after(proc, seq)
    }
}

/// Runs eight Jacobi sweeps on four workers, kills worker 1 in its
/// sixth, and returns how the run ended. Neighbour exchanges keep every
/// worker within two sweeps of it, so the restored line has a
/// checkpoint for every worker whatever the interleaving.
fn killed_run(on_load: OnLoad) -> Outcome {
    let compiled = compile(&acfc_mpsl::programs::jacobi(8));
    let mut store = Faulty {
        inner: InMemoryBackend::new(),
        on_load,
    };
    run_free(
        &compiled,
        &SimConfig::new(4),
        &mut NoHooks,
        &mut store,
        &FailureInjector::at(vec![(300_000, 1)]),
        &FreeConfig::default(),
    )
    .outcome
}

#[test]
fn a_failing_load_ends_the_run_with_a_runtime_error() {
    let outcome = killed_run(|_| Err(BackendError::Io("disk gone".into())));
    let expected = "backend load: backend I/O error: disk gone";
    assert_eq!(outcome, Outcome::RuntimeError(1, expected.into()));
}

#[test]
fn a_snapshot_the_program_cannot_hold_is_corrupt() {
    let cases: [(OnLoad, &str); 3] = [
        (
            |mut snap| {
                snap.vars.push(("no_such_var".into(), 1));
                Ok(snap)
            },
            "process 0: unknown variable `no_such_var`",
        ),
        (
            |mut snap| {
                snap.stmt_instances.push((9999, 1));
                Ok(snap)
            },
            "process 0: unknown statement 9999",
        ),
        (
            |snap| Ok(StateSnapshot { nprocs: 9, ..snap }),
            "snapshot of process 0 of 9 in a run of 4",
        ),
    ];
    for (edit, what) in cases {
        let expected = format!("backend load: corrupt checkpoint: {what}");
        assert_eq!(killed_run(edit), Outcome::RuntimeError(1, expected));
    }
}
