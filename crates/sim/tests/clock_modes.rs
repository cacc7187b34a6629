//! Differential test: delta-encoded clock piggybacks against dense
//! vector-clock semantics.
//!
//! The engine's delta mode (the default above `DENSE_CLOCK_MAX`
//! processes) keeps sparse working clocks, transports only the
//! components changed since the last send on each channel and stamps
//! checkpoints with sparse clocks. These tests force both modes on
//! identical configurations — above and below the auto cutoff, with
//! and without failures — and assert the observable causal structure is
//! identical: same timing, same checkpoint stamps (compared across
//! representations), same consistency verdicts; and that the transport
//! carries exactly the per-channel changes, counted.

use acfc_mpsl::programs;
use acfc_sim::{
    compile, consistency, run, run_observed, run_with_failures, ClockMode, CutPicker, FailurePlan,
    NoHooks, SimConfig, SimObs, SimTime, Trace, VectorClock, DENSE_CLOCK_MAX,
};
use std::collections::HashMap;

fn run_mode(
    prog: &acfc_mpsl::Program,
    n: usize,
    mode: ClockMode,
    fail_ms: &[(u64, usize)],
) -> Trace {
    let fails: Vec<_> = fail_ms
        .iter()
        .map(|&(ms, p)| (SimTime::from_millis(ms), p))
        .collect();
    run_failing_at(prog, n, mode, fails)
}

fn run_failing_at(
    prog: &acfc_mpsl::Program,
    n: usize,
    mode: ClockMode,
    fails: Vec<(SimTime, usize)>,
) -> Trace {
    let c = compile(prog);
    // Inputs for the stock programs that read `input(·)`.
    let cfg = SimConfig::new(n)
        .with_clock_mode(mode)
        .with_inputs(vec![3, 7]);
    if fails.is_empty() {
        run(&c, &cfg)
    } else {
        let mut hooks = NoHooks;
        let plan = FailurePlan::at(fails);
        run_with_failures(&c, &cfg, &mut hooks, plan, CutPicker::AlignedSeq)
    }
}

fn assert_equivalent(dense: &Trace, delta: &Trace, what: &str) {
    assert_eq!(dense.outcome, delta.outcome, "{what}: outcome");
    assert_eq!(dense.finished_at, delta.finished_at, "{what}: makespan");
    assert_eq!(
        dense.metrics.instructions, delta.metrics.instructions,
        "{what}: instructions"
    );
    assert_eq!(
        dense.checkpoints.len(),
        delta.checkpoints.len(),
        "{what}: checkpoint count"
    );
    for (a, b) in dense.checkpoints.iter().zip(&delta.checkpoints) {
        // Cross-representation equality: b.vc is sparse, a.vc dense.
        assert_eq!(a.vc, b.vc, "{what}: stamp of ckpt {}/{}", a.proc, a.seq);
        assert_eq!(a.snapshot.vc, b.snapshot.vc, "{what}: snapshot stamp");
        assert_eq!(a.rolled_back, b.rolled_back, "{what}: rollback mark");
        assert_eq!(a.step, b.step, "{what}: step");
    }
    for (a, b) in dense.messages.iter().zip(&delta.messages) {
        assert_eq!(a.sent_at, b.sent_at, "{what}: send time");
        assert_eq!(a.recv_at, b.recv_at, "{what}: recv time");
        assert_eq!(a.rolled_back, b.rolled_back, "{what}: msg rollback");
    }
    // The consistency checker consumes checkpoint stamps; it must reach
    // the same verdicts through sparse stamps as through dense ones.
    assert_eq!(
        consistency::straight_cut_failures(dense),
        consistency::straight_cut_failures(delta),
        "{what}: straight-cut verdicts"
    );
}

/// Above the auto cutoff with a failure-free neighbour exchange.
#[test]
fn delta_matches_dense_above_cutoff() {
    let n = DENSE_CLOCK_MAX + 16;
    for prog in [programs::jacobi(6), programs::stencil_1d(6)] {
        let dense = run_mode(&prog, n, ClockMode::Dense, &[]);
        let delta = run_mode(&prog, n, ClockMode::Delta, &[]);
        assert!(dense.completed(), "{}: {:?}", prog.name, dense.outcome);
        assert_equivalent(&dense, &delta, &prog.name);
        // Spot-check the representations actually differ.
        assert!(!dense.checkpoints[0].vc.is_sparse());
        assert!(delta.checkpoints[0].vc.is_sparse());
    }
}

/// Auto mode resolves to delta above the cutoff and dense below it.
#[test]
fn auto_mode_picks_representation_by_n() {
    let prog = programs::jacobi(3);
    let small = run_mode(&prog, 4, ClockMode::Auto, &[]);
    assert!(!small.checkpoints[0].vc.is_sparse());
    let large = run_mode(&prog, DENSE_CLOCK_MAX + 1, ClockMode::Auto, &[]);
    assert!(large.checkpoints[0].vc.is_sparse());
}

/// Rollback is the hard case: resetting every channel and last-update
/// stamp must force full-support resends, and redelivered messages
/// must replay their original payloads. Two failures stress repeated
/// rollback.
#[test]
fn delta_matches_dense_through_failures() {
    let n = DENSE_CLOCK_MAX + 8;
    let prog = programs::jacobi(6);
    let fails = [(60u64, 0usize), (140, n / 2)];
    let dense = run_mode(&prog, n, ClockMode::Dense, &fails);
    let delta = run_mode(&prog, n, ClockMode::Delta, &fails);
    assert!(dense.completed(), "{:?}", dense.outcome);
    assert_eq!(dense.metrics.failures, 2);
    assert_equivalent(&dense, &delta, "jacobi+failures");
}

/// Every stock communication shape — all-to-one, skewed, trees,
/// wavefronts, wildcard receives — failure-free and through two
/// failures: the first strikes 1 µs in, before any straight cut exists
/// (unless the program checkpoints at time 0), so every process takes
/// the restart-from-initial-state branch; the second lands mid-way
/// through the re-execution and restores from checkpoints where the
/// program has them.
#[test]
fn delta_matches_dense_on_irregular_topologies() {
    let n = DENSE_CLOCK_MAX + 4;
    let recovery = SimConfig::new(n).cost.recovery_us;
    let mut restarts = 0;
    let mut progs = programs::all_stock();
    // More rounds than the stock sizes: repeated sends on channels that
    // have already merged.
    progs.extend([programs::master_worker(4), programs::pipeline_skewed(4)]);
    for prog in &progs {
        let dense = run_mode(prog, n, ClockMode::Dense, &[]);
        let delta = run_mode(prog, n, ClockMode::Delta, &[]);
        assert!(dense.completed(), "{}: {:?}", prog.name, dense.outcome);
        assert_equivalent(&dense, &delta, &prog.name);

        let first = SimTime::from_micros(1);
        let second = SimTime::from_micros(1 + recovery + dense.finished_at.as_micros() / 2);
        let fails = vec![(first, 0), (second, n / 2)];
        let dense = run_failing_at(prog, n, ClockMode::Dense, fails.clone());
        let delta = run_failing_at(prog, n, ClockMode::Delta, fails);
        let what = format!("{} with failures", prog.name);
        assert_eq!(dense.failures.len(), 2, "{what}: {:?}", dense.outcome);
        if dense.failures[0].restored_seq.iter().all(Option::is_none) {
            restarts += 1;
        }
        assert_equivalent(&dense, &delta, &what);
    }
    assert!(
        restarts >= progs.len() - 1,
        "only {restarts} programs restarted from the initial state"
    );
}

/// Σ over messages of the components of `send_vc` that differ from the
/// previous `send_vc` on the same `(from, to)` channel (the first
/// message on a channel: its nonzero components) — the least any
/// encoding that ships each channel's receiver only what changed can
/// carry, read off a dense run.
fn dense_delta_volume(dense: &Trace) -> u64 {
    let mut prev: HashMap<(usize, usize), &VectorClock> = HashMap::new();
    let mut total = 0;
    for m in &dense.messages {
        let now = m.send_vc.components();
        total += match prev.insert((m.from, m.to), &m.send_vc) {
            Some(before) => now
                .iter()
                .zip(before.components())
                .filter(|(a, b)| a != b)
                .count(),
            None => now.iter().filter(|&&v| v != 0).count(),
        } as u64;
    }
    total
}

/// Transport volume, pinned by a count: failure-free, the entries the
/// delta encoding piggybacks are exactly the per-channel Δ of the dense
/// stamps — nothing resent, nothing missed — on every stock program and
/// on two shapes where one rank first learns about everyone: a gather
/// followed by repeated sends to one rank (after the first, each payload
/// is the own entry alone) and by a ping-pong (each payload is the own
/// entry plus the partner's).
#[test]
fn piggybacked_entries_equal_the_dense_delta() {
    let n = DENSE_CLOCK_MAX + 8;
    let rounds = 16;
    let gather = "for i in 0..nprocs - 1 { recv from any; }";
    let shapes = [
        format!(
            "program gather_repeat; var i;
             if rank == 0 {{ {gather} for i in 0..{rounds} {{ send to 1 size 64; }} }}
             else {{ send to 0 size 64;
                    if rank == 1 {{ for i in 0..{rounds} {{ recv from 0; }} }} }}"
        ),
        format!(
            "program gather_pingpong; var i;
             if rank == 0 {{ {gather}
                for i in 0..{rounds} {{ send to 1 size 64; recv from 1; }} }}
             else {{ send to 0 size 64;
                    if rank == 1 {{ for i in 0..{rounds} {{ recv from 0; send to 0 size 64; }} }} }}"
        ),
    ];
    let mut progs = programs::all_stock();
    progs.extend(
        shapes
            .iter()
            .map(|s| acfc_mpsl::parse(s).expect("shape parses")),
    );
    for prog in progs {
        let c = compile(&prog);
        let cfg = |mode| {
            SimConfig::new(n)
                .with_clock_mode(mode)
                .with_inputs(vec![3, 7])
        };
        let dense = run(&c, &cfg(ClockMode::Dense));
        assert!(dense.completed(), "{}: {:?}", prog.name, dense.outcome);
        let mut obs = SimObs::counters();
        let delta = run_observed(&c, &cfg(ClockMode::Delta), &mut obs);
        assert_equivalent(&dense, &delta, &prog.name);
        assert_eq!(
            obs.piggyback_entries,
            dense_delta_volume(&dense),
            "{}: entries piggybacked over {} messages",
            prog.name,
            dense.messages.len()
        );
    }
    // In numbers, for the gather-then-repeat shape: n − 1 one-entry
    // gather messages, one full-support (n-entry) payload, then the own
    // entry alone.
    let c = compile(&acfc_mpsl::parse(&shapes[0]).unwrap());
    let mut obs = SimObs::counters();
    run_observed(
        &c,
        &SimConfig::new(n).with_clock_mode(ClockMode::Delta),
        &mut obs,
    );
    let n = n as u64;
    assert_eq!(obs.piggyback_entries, (n - 1) + n + (rounds - 1));
}

/// Index-piggybacking hooks that *force* checkpoints on lagging
/// receives (the CIC discipline, restated locally): the engine's
/// forced-checkpoint path must behave identically under both clock
/// representations, including the piggyback channel the hooks ride.
struct ForcingHooks {
    timers: acfc_sim::TimerCheckpoints,
}

impl acfc_sim::Hooks for ForcingHooks {
    fn piggyback(&mut self, _p: usize, _to: usize, ckpt_seq: u64, _now: SimTime) -> u64 {
        ckpt_seq
    }

    fn on_recv(
        &mut self,
        _p: usize,
        piggyback: u64,
        own_seq: u64,
        _now: SimTime,
    ) -> acfc_sim::RecvAction {
        if piggyback > own_seq {
            acfc_sim::RecvAction::ForceCheckpointFirst
        } else {
            acfc_sim::RecvAction::Deliver
        }
    }

    fn take_app_checkpoint(&mut self, _p: usize, _now: SimTime) -> bool {
        false
    }

    fn timer_checkpoint_due(&mut self, p: usize, now: SimTime) -> bool {
        acfc_sim::Hooks::timer_checkpoint_due(&mut self.timers, p, now)
    }
}

/// Forced checkpoints above the cutoff: skewed timers make receivers
/// lag their senders, so the forcing path runs under both modes — the
/// traces (timing, stamps, forced-checkpoint placement) must agree.
#[test]
fn delta_matches_dense_with_forcing_hooks_above_cutoff() {
    let n = DENSE_CLOCK_MAX + 8;
    let prog = programs::stencil_1d(8);
    let c = compile(&prog);
    let mut traces = Vec::new();
    for mode in [ClockMode::Dense, ClockMode::Delta] {
        let cfg = SimConfig::new(n).with_clock_mode(mode);
        let mut hooks = ForcingHooks {
            timers: acfc_sim::TimerCheckpoints::new(n, 25_000, 9_000),
        };
        let t = acfc_sim::run_with_hooks(&c, &cfg, &mut hooks);
        assert!(t.completed(), "{mode:?}: {:?}", t.outcome);
        traces.push(t);
    }
    let forced = traces[0].metrics.forced_checkpoints;
    assert!(forced > 0, "skewed timers must force under both modes");
    assert_eq!(forced, traces[1].metrics.forced_checkpoints);
    assert_equivalent(&traces[0], &traces[1], "forcing stencil");
}
