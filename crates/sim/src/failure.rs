//! Failure injection, recovery-line selection and the rollback itself.
//!
//! Failures follow the paper's model (§4): each process fails
//! independently with an exponentially distributed time-to-failure of
//! rate `λ`. On a failure every scheduler performs one *coordinated
//! rollback*, written once here as [`rollback`]: every process is
//! restored to the checkpoint chosen by a [`CutPicker`], sends the
//! line orphans are undone, in-transit messages at the cut are
//! re-delivered, and everyone resumes after the recovery overhead `R`.
//! The engine feeds it the records of its trace; the free-running
//! runtime feeds it records built from the snapshots it loads back out
//! of its store, and its send log. Each then restores processes from
//! its own source and re-injects the returned messages its own way.

use crate::backend::StateBackend;
use crate::time::SimTime;
use crate::trace::{CheckpointRecord, MessageRecord, Outcome};
use acfc_util::rng::Rng;

/// A schedule of failures to inject: `(time, process)` pairs.
#[derive(Debug, Clone, Default)]
pub struct FailurePlan {
    events: Vec<(SimTime, usize)>,
}

impl FailurePlan {
    /// No failures.
    pub fn none() -> FailurePlan {
        FailurePlan::default()
    }

    /// An explicit list of `(time, process)` failures.
    pub fn at(mut events: Vec<(SimTime, usize)>) -> FailurePlan {
        events.sort();
        FailurePlan { events }
    }

    /// Draws failures with per-process exponential rate
    /// `lambda_per_sec` over `[0, horizon]`, seeded and deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `lambda_per_sec` is not finite and positive.
    pub fn exponential(
        nprocs: usize,
        lambda_per_sec: f64,
        horizon: SimTime,
        seed: u64,
    ) -> FailurePlan {
        assert!(
            lambda_per_sec.is_finite() && lambda_per_sec > 0.0,
            "lambda must be positive"
        );
        let mut rng = Rng::seed_from_u64(seed);
        let mut events = Vec::new();
        for p in 0..nprocs {
            let mut t = 0.0f64;
            loop {
                t += rng.exp(lambda_per_sec);
                let us = (t * 1e6) as u64;
                if us > horizon.as_micros() {
                    break;
                }
                events.push((SimTime(us), p));
            }
        }
        events.sort();
        FailurePlan { events }
    }

    /// The planned failures, time-ordered.
    pub fn events(&self) -> &[(SimTime, usize)] {
        &self.events
    }

    /// Number of planned failures.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no failures are planned.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// What a recovery-line picker sees at failure time: the live
/// checkpoint records and every message record. [`rollback`] borrows
/// both in place (building a view is O(checkpoints) pointer pushes, not
/// a deep copy) from whatever its caller holds — the engine's trace, or
/// the free-running runtime's loaded snapshots and send log.
#[derive(Debug)]
pub struct RecoveryView<'t> {
    /// Live checkpoints per process, in `seq` order.
    pub live: &'t [Vec<&'t CheckpointRecord>],
    /// All messages so far (check `rolled_back` before using a record).
    pub messages: &'t [MessageRecord],
}

/// The signature of a [`CutPicker::Custom`] recovery-line function.
pub type PickerFn = Box<dyn Fn(&RecoveryView<'_>) -> Vec<Option<u64>> + Send + Sync>;

/// Chooses the recovery line (one checkpoint `seq` per process, `None`
/// meaning "roll back to the initial state") given each process's live
/// checkpoints.
pub enum CutPicker {
    /// The paper's straight-cut recovery: every process rolls back to
    /// its `i`-th checkpoint, where `i` is the largest index at which
    /// **all** processes have a checkpoint. This is the recovery the
    /// application-driven analysis guarantees to be consistent.
    AlignedSeq,
    /// Every process rolls back to its own latest checkpoint. This is
    /// what coordinated protocols (SaS, C-L) guarantee to be consistent
    /// because their checkpoints form synchronized waves.
    LatestPerProcess,
    /// Custom selection (e.g. the maximal-consistent-line computation
    /// used by the uncoordinated baseline).
    Custom(PickerFn),
}

impl std::fmt::Debug for CutPicker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CutPicker::AlignedSeq => write!(f, "AlignedSeq"),
            CutPicker::LatestPerProcess => write!(f, "LatestPerProcess"),
            CutPicker::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

impl CutPicker {
    /// Applies the picker.
    pub fn pick(&self, view: &RecoveryView<'_>) -> Vec<Option<u64>> {
        let live = view.live;
        match self {
            CutPicker::AlignedSeq => {
                let depth = live.iter().map(|v| v.len() as u64).min().unwrap_or(0);
                if depth == 0 {
                    vec![None; live.len()]
                } else {
                    vec![Some(depth); live.len()]
                }
            }
            CutPicker::LatestPerProcess => live.iter().map(|v| v.last().map(|c| c.seq)).collect(),
            CutPicker::Custom(f) => {
                let picked = f(view);
                assert_eq!(picked.len(), live.len(), "picker returned wrong arity");
                picked
            }
        }
    }
}

/// What one coordinated [`rollback`] decided.
#[derive(Debug)]
pub struct Rollback {
    /// The recovery line: per process, the restored checkpoint `seq`
    /// (`None` = initial state).
    pub picked: Vec<Option<u64>>,
    /// Each process's latest live checkpoint `seq` before the rollback
    /// (`0` = none).
    pub latest_seq: Vec<u64>,
    /// Per process, the index of the restored record in the checkpoint
    /// slice [`rollback`] was given (`None` = initial state).
    pub restored: Vec<Option<usize>>,
    /// Virtual time charged since each restored checkpoint began,
    /// summed over processes (µs) — see
    /// [`FailureRecord::lost_us`](crate::trace::FailureRecord::lost_us).
    pub lost_us: u64,
    /// Indices of the messages in transit at the cut, in
    /// `(sender, send step)` order, so re-delivering them in this order
    /// keeps every channel FIFO.
    pub in_transit: Vec<usize>,
}

impl Rollback {
    /// Drops every committed snapshot past the line from `store`, so its
    /// committed set keeps tracking the live checkpoints. Every process
    /// is tried; the first failure comes back as the run's outcome.
    pub fn discard_after(&self, store: &mut dyn StateBackend) -> Result<(), Outcome> {
        let mut first = Ok(());
        for (q, p) in self.picked.iter().enumerate() {
            if let Err(e) = store.discard_after(q, p.unwrap_or(0)) {
                first = first.and(Err(Outcome::RuntimeError(
                    q,
                    format!("backend discard: {e}"),
                )));
            }
        }
        first
    }
}

/// The coordinated rollback every scheduler performs on a failure:
/// picks the recovery line over the live `checkpoints` and `messages`,
/// marks the checkpoints past it and the sends it orphans (sent after
/// the sender's cut) as rolled back, and clears the receive fields of
/// every message in transit at the cut (sent before the sender's cut,
/// not received before the receiver's) so it can be delivered again.
/// `now` holds each process's virtual time at the failure; its length
/// is the process count.
///
/// # Panics
///
/// Panics if the picker names a `seq` that has no live record.
pub fn rollback(
    picker: &CutPicker,
    checkpoints: &mut [CheckpointRecord],
    messages: &mut [MessageRecord],
    now: &[SimTime],
) -> Rollback {
    let nprocs = now.len();
    let mut live: Vec<Vec<&CheckpointRecord>> = vec![Vec::new(); nprocs];
    for c in checkpoints.iter() {
        if !c.rolled_back {
            live[c.proc].push(c);
        }
    }
    let picked = picker.pick(&RecoveryView {
        live: &live,
        messages,
    });
    let latest_seq: Vec<u64> = live.iter().map(|v| v.last().map_or(0, |c| c.seq)).collect();
    drop(live);
    // Cut positions (per-process step numbers) and the restored
    // records, kept as indices so the records can be marked below.
    let mut cut_step = vec![0u64; nprocs];
    let mut restored: Vec<Option<usize>> = vec![None; nprocs];
    for (i, c) in checkpoints.iter().enumerate() {
        if !c.rolled_back && picked[c.proc] == Some(c.seq) {
            cut_step[c.proc] = c.step;
            restored[c.proc] = Some(i);
        }
    }
    for q in 0..nprocs {
        assert!(
            picked[q].is_none() || restored[q].is_some(),
            "picker chose missing seq {:?} for proc {q}",
            picked[q]
        );
    }
    let lost_us = restored
        .iter()
        .zip(now)
        .map(|(r, &t)| {
            let back_to = r.map_or(SimTime::ZERO, |i| checkpoints[i].start);
            t.saturating_sub(back_to).as_micros()
        })
        .sum();
    for c in checkpoints.iter_mut() {
        if !c.rolled_back && c.step > cut_step[c.proc] {
            c.rolled_back = true;
        }
    }
    let mut in_transit = Vec::new();
    for (i, m) in messages.iter_mut().enumerate() {
        if m.rolled_back {
            continue;
        }
        if m.send_step > cut_step[m.from] {
            m.rolled_back = true;
            continue;
        }
        let received_before_cut = m.recv_step.is_some_and(|rs| rs <= cut_step[m.to]);
        if !received_before_cut {
            m.delivered_at = None;
            m.recv_at = None;
            m.recv_vc = None;
            m.recv_step = None;
            m.recv_stmt = None;
            in_transit.push(i);
        }
    }
    in_transit.sort_by_key(|&i| (messages[i].from, messages[i].send_step));
    Rollback {
        picked,
        latest_seq,
        restored,
        lost_us,
        in_transit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VectorClock;
    use crate::trace::{CkptTrigger, Snapshot, StmtInstances};

    fn ckpt(proc: usize, seq: u64) -> CheckpointRecord {
        CheckpointRecord {
            proc,
            seq,
            stmt: None,
            instance: 0,
            label: None,
            trigger: CkptTrigger::AppStatement,
            start: SimTime::ZERO,
            durable_at: SimTime::ZERO,
            vc: VectorClock::new(2),
            step: seq,
            snapshot: Snapshot {
                pc: 0,
                vars: crate::backend::var_store([]),
                vc: VectorClock::new(2),
                ckpt_seq: seq,
                stmt_instances: StmtInstances::default(),
                step: seq,
            },
            rolled_back: false,
        }
    }

    /// Borrowed view of owned per-process checkpoint lists, as the
    /// engine builds at failure time.
    fn as_view(owned: &[Vec<CheckpointRecord>]) -> Vec<Vec<&CheckpointRecord>> {
        owned.iter().map(|v| v.iter().collect()).collect()
    }

    #[test]
    fn exponential_plan_is_deterministic_and_sorted() {
        let a = FailurePlan::exponential(4, 0.5, SimTime::from_secs(100), 42);
        let b = FailurePlan::exponential(4, 0.5, SimTime::from_secs(100), 42);
        assert_eq!(a.events(), b.events());
        assert!(a.events().windows(2).all(|w| w[0].0 <= w[1].0));
        let c = FailurePlan::exponential(4, 0.5, SimTime::from_secs(100), 43);
        assert_ne!(a.events(), c.events());
    }

    #[test]
    fn exponential_rate_roughly_matches() {
        // rate 1/s over 200s for 1 process: expect ~200 failures.
        let plan = FailurePlan::exponential(1, 1.0, SimTime::from_secs(200), 7);
        let n = plan.len() as f64;
        assert!((140.0..260.0).contains(&n), "{n}");
    }

    #[test]
    fn aligned_seq_uses_min_depth() {
        let live = vec![
            vec![ckpt(0, 1), ckpt(0, 2), ckpt(0, 3)],
            vec![ckpt(1, 1), ckpt(1, 2)],
        ];
        let live = as_view(&live);
        assert_eq!(
            CutPicker::AlignedSeq.pick(&RecoveryView {
                live: &live,
                messages: &[]
            }),
            vec![Some(2), Some(2)]
        );
    }

    #[test]
    fn aligned_seq_empty_means_initial() {
        let live = vec![vec![ckpt(0, 1)], vec![]];
        let live = as_view(&live);
        assert_eq!(
            CutPicker::AlignedSeq.pick(&RecoveryView {
                live: &live,
                messages: &[]
            }),
            vec![None, None]
        );
    }

    #[test]
    fn latest_per_process() {
        let live = vec![vec![ckpt(0, 1), ckpt(0, 2)], vec![]];
        let live = as_view(&live);
        assert_eq!(
            CutPicker::LatestPerProcess.pick(&RecoveryView {
                live: &live,
                messages: &[]
            }),
            vec![Some(2), None]
        );
    }

    #[test]
    fn custom_picker_invoked() {
        let picker = CutPicker::Custom(Box::new(|view| vec![None; view.live.len()]));
        let live = vec![vec![ckpt(0, 1)]];
        let live = as_view(&live);
        assert_eq!(
            picker.pick(&RecoveryView {
                live: &live,
                messages: &[]
            }),
            vec![None]
        );
    }

    #[test]
    fn explicit_plan_sorts() {
        let plan = FailurePlan::at(vec![(SimTime::from_secs(5), 1), (SimTime::from_secs(2), 0)]);
        assert_eq!(plan.events()[0].1, 0);
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
        assert!(FailurePlan::none().is_empty());
    }
}
