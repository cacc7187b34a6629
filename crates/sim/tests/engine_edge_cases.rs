//! Engine semantics at the edges: self-messages, zero-size payloads,
//! single-process runs, parameter overrides, input vectors, deep
//! sequential programs (inline-budget yielding), and empty programs.

use acfc_mpsl::parse;
use acfc_sim::{compile, consistency, run, Outcome, SimConfig};

#[test]
fn self_send_is_delivered() {
    let p = parse("program t; send to rank size 128; recv from rank;").unwrap();
    let t = run(&compile(&p), &SimConfig::new(2));
    assert!(t.completed(), "{:?}", t.outcome);
    assert_eq!(t.messages.len(), 2);
    for m in &t.messages {
        assert_eq!(m.from, m.to);
        assert!(m.is_received());
        assert!(
            m.recv_at.unwrap() > m.sent_at,
            "network delay still applies"
        );
    }
}

#[test]
fn zero_size_message_works() {
    let p = parse(
        "program t; if rank == 0 { send to 1 size 0; } else { if rank == 1 { recv from 0; } }",
    )
    .unwrap();
    let t = run(&compile(&p), &SimConfig::new(2));
    assert!(t.completed());
    assert_eq!(t.messages[0].size_bits, 0);
    assert_eq!(t.metrics.app_bits, 0);
}

#[test]
fn single_process_run() {
    let p = parse("program t; var i; for i in 0..5 { compute 3; checkpoint; }").unwrap();
    let t = run(&compile(&p), &SimConfig::new(1));
    assert!(t.completed());
    assert_eq!(t.checkpoint_counts(), vec![5]);
    assert!(consistency::all_straight_cuts_consistent(&t));
}

#[test]
fn inputs_steer_control_flow() {
    let p = parse(
        "program t;
         if input(0) > 0 {
           checkpoint \"hot\";
         } else {
           checkpoint \"cold\";
         }",
    )
    .unwrap();
    let c = compile(&p);
    let hot = run(&c, &SimConfig::new(1).with_inputs(vec![5]));
    let cold = run(&c, &SimConfig::new(1).with_inputs(vec![-1]));
    assert_eq!(hot.checkpoints[0].label.as_deref(), Some("hot"));
    assert_eq!(cold.checkpoints[0].label.as_deref(), Some("cold"));
}

#[test]
fn missing_input_is_a_runtime_error() {
    let p = parse("program t; compute input(3);").unwrap();
    let t = run(&compile(&p), &SimConfig::new(1));
    match t.outcome {
        Outcome::RuntimeError(0, msg) => assert!(msg.contains("input"), "{msg}"),
        other => panic!("expected runtime error, got {other:?}"),
    }
}

#[test]
fn empty_program_finishes_at_time_zero() {
    let p = parse("program t;").unwrap();
    let t = run(&compile(&p), &SimConfig::new(3));
    assert!(t.completed());
    assert_eq!(t.finished_at.as_micros(), 0);
    assert_eq!(t.messages.len(), 0);
}

#[test]
fn long_sequential_program_respects_inline_yields() {
    // Thousands of zero-cost assignments force the engine through its
    // inline budget repeatedly; the run must still complete with time
    // strictly advancing.
    let p = parse(
        "program t; param reps = 5000; var i, acc;
         for i in 0..reps { acc := acc + 1; }
         checkpoint;",
    )
    .unwrap();
    let t = run(&compile(&p), &SimConfig::new(2));
    assert!(t.completed(), "{:?}", t.outcome);
    assert!(t.finished_at.as_micros() > 5000, "instr overhead accrues");
    let snap = &t.live_checkpoints(0)[0].snapshot;
    assert_eq!(snap.vars["acc"], 5000);
}

#[test]
fn division_by_zero_reports_the_process() {
    let p = parse("program t; var x; if rank == 1 { x := 1 / (rank - 1); } compute 1;").unwrap();
    let t = run(&compile(&p), &SimConfig::new(3));
    match t.outcome {
        Outcome::RuntimeError(1, msg) => assert!(msg.contains("zero"), "{msg}"),
        other => panic!("expected runtime error on rank 1, got {other:?}"),
    }
}

#[test]
fn deadlock_reports_all_blocked_ranks() {
    let p = parse("program t; recv from (rank + 1) % nprocs;").unwrap();
    let t = run(&compile(&p), &SimConfig::new(3));
    match t.outcome {
        Outcome::Deadlock(ranks) => assert_eq!(ranks, vec![0, 1, 2]),
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn makespan_scales_with_compute() {
    let short = parse("program t; compute 10;").unwrap();
    let long = parse("program t; compute 1000;").unwrap();
    let ts = run(&compile(&short), &SimConfig::new(1));
    let tl = run(&compile(&long), &SimConfig::new(1));
    let ratio = tl.finished_at.as_micros() as f64 / ts.finished_at.as_micros() as f64;
    assert!((ratio - 100.0).abs() < 5.0, "compute dominates: {ratio}");
}
