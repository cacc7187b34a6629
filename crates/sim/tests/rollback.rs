//! The coordinated rollback both schedulers share
//! (`acfc_sim::failure::rollback`), on hand-built records: which sends
//! it undoes, which messages it re-delivers and in what order, which it
//! keeps, the work it reports lost, and a picker that names a
//! checkpoint nobody holds.

use acfc_mpsl::StmtId;
use acfc_sim::backend::var_store;
use acfc_sim::failure::{rollback, Rollback};
use acfc_sim::{
    CheckpointRecord, CkptTrigger, CutPicker, MessageRecord, MsgId, SimTime, Snapshot,
    StmtInstances, VectorClock,
};

fn ckpt(proc: usize, seq: u64, step: u64, start_us: u64) -> CheckpointRecord {
    CheckpointRecord {
        proc,
        seq,
        stmt: None,
        instance: 0,
        label: None,
        trigger: CkptTrigger::AppStatement,
        start: SimTime(start_us),
        durable_at: SimTime::ZERO,
        vc: VectorClock::new(2),
        step,
        snapshot: Snapshot {
            pc: 0,
            vars: var_store([]),
            vc: VectorClock::new(2),
            ckpt_seq: seq,
            stmt_instances: StmtInstances::default(),
            step,
        },
        rolled_back: false,
    }
}

/// A message with every receive field set when `recv_step` is.
fn msg(from: usize, to: usize, send_step: u64, recv_step: Option<u64>) -> MessageRecord {
    let received = recv_step.map(|_| SimTime(1));
    MessageRecord {
        id: MsgId(0),
        from,
        to,
        size_bits: 8,
        send_stmt: StmtId(0),
        sent_at: SimTime::ZERO,
        send_vc: VectorClock::new(2),
        send_step,
        piggyback: 0,
        delivered_at: received,
        recv_at: received,
        recv_vc: recv_step.map(|_| VectorClock::new(2)),
        recv_step,
        recv_stmt: recv_step.map(|_| StmtId(1)),
        rolled_back: false,
    }
}

/// Two processes. Process 0 checkpoints at steps 10 and 30, process 1
/// at step 20, so the aligned line is `[1, 1]` with cut steps `[10, 20]`
/// and process 0's second checkpoint is rolled back. Each message is
/// commented with its fate at that cut.
fn scenario(picker: CutPicker) -> (Vec<CheckpointRecord>, Vec<MessageRecord>, Rollback) {
    let mut ckpts = vec![
        ckpt(0, 1, 10, 100),
        ckpt(0, 2, 30, 500),
        ckpt(1, 1, 20, 200),
    ];
    let mut msgs = vec![
        msg(0, 1, 12, Some(15)), // orphan: sent after 0's cut, received
        msg(1, 0, 25, None),     // orphan: sent after 1's cut
        msg(1, 0, 5, Some(8)),   // received before 0's cut: kept
        msg(1, 0, 7, Some(11)),  // received after 0's cut: in transit
        msg(0, 1, 9, None),      // never received: in transit
        msg(1, 0, 3, None),      // never received: in transit
    ];
    let now = [SimTime(1000), SimTime(900)];
    let rb = rollback(&picker, &mut ckpts, &mut msgs, &now);
    (ckpts, msgs, rb)
}

#[test]
fn restores_the_picked_line() {
    let (ckpts, _, rb) = scenario(CutPicker::AlignedSeq);
    assert_eq!(rb.picked, [Some(1), Some(1)]);
    assert_eq!(rb.latest_seq, [2, 1]);
    assert_eq!(rb.restored, [Some(0), Some(2)]);
    let rolled: Vec<bool> = ckpts.iter().map(|c| c.rolled_back).collect();
    assert_eq!(rolled, [false, true, false]);
}

#[test]
fn undoes_orphan_sends() {
    let (_, msgs, rb) = scenario(CutPicker::AlignedSeq);
    for i in [0, 1] {
        assert!(msgs[i].rolled_back && !rb.in_transit.contains(&i), "{i}");
    }
}

#[test]
fn redelivers_in_transit_messages_in_sender_order() {
    let (_, msgs, rb) = scenario(CutPicker::AlignedSeq);
    // (sender, send step): (0, 9), (1, 3), (1, 7).
    assert_eq!(rb.in_transit, [4, 5, 3]);
    for &i in &rb.in_transit {
        let m = &msgs[i];
        assert!(
            !m.rolled_back && m.recv_step.is_none() && m.recv_at.is_none(),
            "{i}"
        );
        assert!(m.delivered_at.is_none() && m.recv_vc.is_none() && m.recv_stmt.is_none());
    }
}

#[test]
fn keeps_messages_received_before_the_cut() {
    let (_, msgs, rb) = scenario(CutPicker::AlignedSeq);
    assert!(msgs[2].is_received() && !rb.in_transit.contains(&2));
    assert_eq!(msgs[2].recv_step, Some(8));
}

#[test]
fn lost_work_is_time_since_each_restored_start() {
    let (_, _, rb) = scenario(CutPicker::AlignedSeq);
    assert_eq!(rb.lost_us, (1000 - 100) + (900 - 200));
    // A process rolled back to its initial state loses everything.
    let (_, _, rb) = scenario(CutPicker::Custom(Box::new(|_| vec![None, Some(1)])));
    assert_eq!(rb.lost_us, 1000 + (900 - 200));
}

#[test]
#[should_panic(expected = "picker chose missing seq Some(7) for proc 0")]
fn rejects_a_picked_seq_without_a_live_record() {
    scenario(CutPicker::Custom(Box::new(|_| vec![Some(7), None])));
}
