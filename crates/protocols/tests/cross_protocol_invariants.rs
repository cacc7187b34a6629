//! Cross-protocol invariants behind the comparison dashboard: the
//! numbers `acfc compare` tabulates are only meaningful if the
//! protocols actually behave as labeled. Pins, over seeded workloads
//! and failure plans:
//!
//! * the application-driven protocol is *coordination-free as
//!   measured* — zero forced checkpoints, zero control messages, zero
//!   coordination stall;
//! * the coordinated baselines really do coordinate — nonzero control
//!   traffic (SaS, C-L) or forced checkpoints (CIC);
//! * every protocol's restored recovery lines pass the
//!   `acfc_sim::consistency` checkers (vector-clock violations and the
//!   orphan-message oracle agree: no orphans).

use acfc_mpsl::{programs, Program};
use acfc_protocols::{
    run_protocol, run_protocol_timeline, CicVariant, CompareConfig, ProtocolKind,
};
use acfc_sim::{consistency, FailurePlan, SimTime, Trace};

/// Seeded workloads: (program, nprocs) pairs with distinct
/// communication shapes.
fn workloads() -> Vec<(Program, usize)> {
    vec![
        (programs::jacobi(8), 4),
        (programs::stencil_1d(6), 4),
        (programs::master_worker(6), 4),
    ]
}

/// A fixed three-failure storm that reliably forces rollbacks on the
/// workloads above.
fn storm() -> FailurePlan {
    FailurePlan::at(vec![
        (SimTime::from_millis(90), 0),
        (SimTime::from_millis(210), 1),
        (SimTime::from_millis(330), 2),
    ])
}

fn seeded_config(n: usize, seed: u64) -> CompareConfig {
    CompareConfig::builder(n)
        .seed(seed)
        .failures(FailurePlan::exponential(
            n,
            1.0,
            SimTime::from_millis(400),
            seed,
        ))
        .build()
        .unwrap()
}

#[test]
fn app_driven_is_coordination_free_on_every_seeded_workload() {
    for (program, n) in workloads() {
        for seed in [1u64, 7, 42] {
            let cfg = seeded_config(n, seed);
            let s = run_protocol(&program, ProtocolKind::AppDriven, &cfg);
            let ctx = format!("{} n={n} seed={seed}", program.name);
            assert!(s.completed, "{ctx}: did not complete");
            assert_eq!(s.forced, 0, "{ctx}: forced checkpoints");
            assert_eq!(s.control_messages, 0, "{ctx}: control messages");
            assert_eq!(s.control_bits, 0, "{ctx}: control bits");
            assert_eq!(s.coord_stall_us, 0, "{ctx}: coordination stall");
        }
    }
}

#[test]
fn coordinated_baselines_pay_measurable_coordination() {
    for (program, n) in workloads() {
        let cfg = seeded_config(n, 3);
        let ctx = &program.name;
        let sas = run_protocol(&program, ProtocolKind::SyncAndStop, &cfg);
        assert!(sas.completed && sas.control_messages > 0, "{ctx}: SaS");
        assert!(sas.coord_stall_us > 0, "{ctx}: SaS stall");
        let cl = run_protocol(&program, ProtocolKind::ChandyLamport, &cfg);
        assert!(cl.completed && cl.control_messages > 0, "{ctx}: C-L");
        // CIC coordinates through the data plane instead: piggybacked
        // indices force checkpoints but send no extra messages.
        let cic = run_protocol(&program, ProtocolKind::Cic(CicVariant::Index), &cfg);
        assert!(cic.completed, "{ctx}: CIC");
        assert_eq!(cic.control_messages, 0, "{ctx}: CIC piggybacks only");
        assert!(cic.forced > 0, "{ctx}: CIC forced checkpoints");
    }
}

/// Checks every failure's restored line that survives to the end of
/// the run (later failures can discard a restored checkpoint, in which
/// case the cut no longer resolves); returns how many were checked.
fn restored_lines_pass_consistency(trace: &Trace, ctx: &str) -> usize {
    let mut checked = 0;
    for f in &trace.failures {
        let Some(cut): Option<Vec<u64>> = f.restored_seq.iter().copied().collect() else {
            continue; // a process restored to its initial state
        };
        let Some(records) = consistency::resolve_cut(trace, &cut) else {
            continue;
        };
        let violations = consistency::cut_violations(&records);
        assert!(
            violations.is_empty(),
            "{ctx}: restored line {cut:?} at {:?} has clock violations: {violations:?}",
            f.at
        );
        assert!(
            consistency::cut_consistency_oracle(trace, &cut),
            "{ctx}: restored line {cut:?} at {:?} orphans a message",
            f.at
        );
        checked += 1;
    }
    checked
}

#[test]
fn every_protocols_recovery_line_is_consistent() {
    let mut checked = 0;
    for (program, n) in workloads() {
        for kind in ProtocolKind::all() {
            let cfg = CompareConfig::builder(n).failures(storm()).build().unwrap();
            let (trace, _obs) = run_protocol_timeline(&program, kind, &cfg);
            let ctx = format!("{} under {}", program.name, kind.name());
            assert!(trace.completed(), "{ctx}: did not complete");
            assert_eq!(trace.metrics.failures, 3, "{ctx}");
            checked += restored_lines_pass_consistency(&trace, &ctx);
            if kind == ProtocolKind::AppDriven {
                // The paper's guarantee is stronger for app-driven:
                // *every* straight cut is a recovery line, not just the
                // ones recovery happened to use.
                assert!(
                    consistency::all_straight_cuts_consistent(&trace),
                    "{ctx}: straight cuts {:?}",
                    consistency::straight_cut_failures(&trace)
                );
            }
        }
    }
    assert!(
        checked >= 10,
        "only {checked} restored lines were checkable — storm too weak"
    );
}

// ---------------------------------------------------------------------
// Randomized Z-cycle-freedom and differential properties for the CIC
// family, `util::forall`-driven: each case is one
// (workload, n, λ, interval, seed) cell, replayable via
// ACFC_CHECK_CASE (see `acfc_util::check`).
// ---------------------------------------------------------------------

use acfc_protocols::depgraph::{
    useful_by_rollback, useless_checkpoints, useless_checkpoints_in, IntervalIndex,
};
use acfc_protocols::{run_protocol_against, PreparedProgram};
use acfc_util::check::{forall, Gen};

/// One randomized cell: a workload instantiated at a random scale, a
/// process count it supports, and a seeded config with a random
/// checkpoint interval/skew and (sometimes) a random failure storm.
fn random_cell(g: &mut Gen, with_failures: bool) -> (Program, usize, CompareConfig) {
    let (program, n) = match g.usize_in(0, 5) {
        0 => (programs::jacobi(g.i64_in(4, 12)), g.usize_in(2, 7)),
        1 => (programs::stencil_1d(g.i64_in(4, 10)), g.usize_in(2, 7)),
        2 => (programs::master_worker(g.i64_in(4, 9)), g.usize_in(2, 6)),
        3 => (programs::pingpong(g.i64_in(4, 11)), 2),
        _ => (
            programs::ring(g.i64_in(4, 10), 1 << g.i64_in(6, 12)),
            g.usize_in(2, 7),
        ),
    };
    let seed = g.u64_in(1, u64::MAX);
    let lambda = if !with_failures || g.prob(0.3) {
        0.0
    } else {
        g.f64_in(0.5, 4.0)
    };
    let failures = if lambda > 0.0 {
        FailurePlan::exponential(n, lambda, SimTime::from_millis(g.u64_in(150, 450)), seed)
    } else {
        FailurePlan::none()
    };
    let cfg = CompareConfig::builder(n)
        .interval_us(g.u64_in(12_000, 80_000))
        .skew_us(g.u64_in(0, 15_000))
        .seed(seed)
        .failures(failures)
        .build()
        .unwrap();
    (program, n, cfg)
}

#[test]
fn every_cic_variant_is_z_cycle_free_on_randomized_cells() {
    // The family's core guarantee, the paper's "all checkpoints
    // useful": no run of any variant — across random workloads,
    // process counts, failure storms, intervals, and seeds — places a
    // checkpoint on a Z-cycle. 100 randomized cells per variant.
    for variant in CicVariant::all() {
        forall("cic_z_cycle_free", 100, |g| {
            let (program, n, cfg) = random_cell(g, true);
            let (trace, _) = run_protocol_timeline(&program, ProtocolKind::Cic(variant), &cfg);
            let ctx = format!("case {} {} n={n} {}", g.case, program.name, variant.name());
            assert!(trace.completed(), "{ctx}: did not complete");
            let useless = useless_checkpoints(&trace);
            assert!(
                useless.is_empty(),
                "{ctx}: checkpoints on Z-cycles: {useless:?}"
            );
        });
    }
}

#[test]
fn z_cycle_checker_matches_the_rollback_oracle_on_random_traces() {
    // Differential pin of the checker itself, on traces rich in
    // useless checkpoints: uncoordinated skewed timers place
    // checkpoints arbitrarily, so both verdicts occur. Every
    // checkpoint's SCC verdict must match the lattice-fixpoint oracle.
    forall("z_cycle_checker_vs_oracle", 100, |g| {
        let (program, n, cfg) = random_cell(g, true);
        let (trace, _) = run_protocol_timeline(&program, ProtocolKind::Uncoordinated, &cfg);
        let ctx = format!("case {} {} n={n}", g.case, program.name);
        assert!(trace.completed(), "{ctx}: did not complete");
        let idx = IntervalIndex::from_trace(&trace);
        let useless = useless_checkpoints_in(&idx, trace.messages.iter());
        for p in 0..idx.nprocs() {
            for i in 1..=idx.count(p) {
                let on_cycle = useless.contains(&(p, i));
                let useful = useful_by_rollback(&idx, trace.messages.iter(), p, i);
                assert_eq!(
                    useful, !on_cycle,
                    "{ctx}: ({p}, {i}) oracle useful={useful} vs checker on_cycle={on_cycle}"
                );
            }
        }
    });
}

#[test]
fn cic_differential_orderings_hold_on_paired_random_cells() {
    // Paired-seed differential suite: on the *same* failure-free cell
    // (identical program, config, seed),
    //   * HMNR's sent-conjunct can only weaken the BCS predicate:
    //     forced(HMNR) ≤ forced(BCS);
    //   * BCS's index jump can only skip forces the founding member
    //     pays per lag unit: forced(BCS) ≤ forced(Index);
    //   * the app-driven protocol forces nothing, every CIC variant
    //     forces ≥ that zero (trivially) with zero control messages;
    //   * piggyback widths are ordered scalar < vector.
    //
    // The orderings are *pointwise* claims about identical executions,
    // so the cells are failure-free: under a storm the variants restore
    // different recovery lines (aligned-seq vs. maximal consistent),
    // the replays diverge, and only the paired *means* stay ordered —
    // which is what the sweep CI job asserts over JSONL rows.
    forall("cic_differential_orderings", 100, |g| {
        let (program, n, cfg) = random_cell(g, false);
        let ctx = format!("case {} {} n={n}", g.case, program.name);
        // The bare makespan is irrelevant to the counted quantities;
        // share an arbitrary one instead of re-running the baseline.
        let prepared = PreparedProgram::new(&program, n, &ProtocolKind::all());
        let run = |k: ProtocolKind| run_protocol_against(&prepared, k, &cfg, 1.0);
        let index = run(ProtocolKind::Cic(CicVariant::Index));
        let bcs = run(ProtocolKind::Cic(CicVariant::Bcs));
        let hmnr = run(ProtocolKind::Cic(CicVariant::Hmnr));
        let lazy = run(ProtocolKind::Cic(CicVariant::Lazy));
        let app = run(ProtocolKind::AppDriven);
        for s in [&index, &bcs, &hmnr, &lazy] {
            assert!(s.completed, "{ctx}: {} did not complete", s.protocol.name());
            assert_eq!(s.control_messages, 0, "{ctx}: CIC sends no control");
        }
        assert_eq!(app.forced, 0, "{ctx}: app-driven forces");
        assert!(
            hmnr.forced <= bcs.forced,
            "{ctx}: hmnr {} > bcs {}",
            hmnr.forced,
            bcs.forced
        );
        assert!(
            bcs.forced <= index.forced,
            "{ctx}: bcs {} > index {}",
            bcs.forced,
            index.forced
        );
        // Scalar piggybacks are 64 bits/message for Index, BCS, and
        // lazy alike; HMNR's vector costs strictly more per message.
        assert_eq!(index.piggyback_bits, bcs.piggyback_bits, "{ctx}");
        assert_eq!(index.piggyback_bits, lazy.piggyback_bits, "{ctx}");
        if index.piggyback_bits > 0 {
            assert!(
                hmnr.piggyback_bits > index.piggyback_bits,
                "{ctx}: vector {} !> scalar {}",
                hmnr.piggyback_bits,
                index.piggyback_bits
            );
        }
    });
}

#[test]
fn baseline_restored_cuts_survive_randomized_storms() {
    // The non-CIC baselines' recovery lines under random failure
    // storms: every restored cut that resolves must pass both
    // consistency checkers.
    for kind in [
        ProtocolKind::Uncoordinated,
        ProtocolKind::SyncAndStop,
        ProtocolKind::ChandyLamport,
    ] {
        forall("baseline_restored_cuts", 100, |g| {
            let (program, n, cfg) = random_cell(g, true);
            let (trace, _) = run_protocol_timeline(&program, kind, &cfg);
            let ctx = format!("case {} {} n={n} {}", g.case, program.name, kind.name());
            assert!(trace.completed(), "{ctx}: did not complete");
            restored_lines_pass_consistency(&trace, &ctx);
        });
    }
}
