//! Protocol hook points.
//!
//! The engine executes the *application*; checkpointing **protocols**
//! (the paper's comparison baselines — uncoordinated, sync-and-stop,
//! Chandy–Lamport, communication-induced) customise its behaviour through
//! this trait. The application-driven protocol of the paper is the
//! degenerate case: no hooks at all ([`NoHooks`]) — checkpoints happen
//! exactly where the offline analysis placed the statements, with no
//! control messages and no coordination stall, which is the paper's
//! central claim.

use crate::time::SimTime;
use crate::trace::CkptTrigger;

/// Action a protocol can demand when a message is received.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvAction {
    /// Deliver normally.
    Deliver,
    /// Take a forced checkpoint *before* delivering (communication-
    /// induced checkpointing).
    ForceCheckpointFirst,
}

/// How many forced checkpoints a protocol may demand before one
/// receive (index-based CIC catching up several indices needs a few);
/// past it the run ends with the runtime error [`FORCED_RUNAWAY`].
pub const MAX_FORCED_PER_RECV: u32 = 100_000;

/// The runtime error of a protocol whose forced checkpoints never
/// satisfy it.
pub const FORCED_RUNAWAY: &str = "hooks demanded forced checkpoints without converging";

/// Extra cost a protocol charges when a checkpoint is taken.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordinationCost {
    /// Additional stall imposed on the process, µs (e.g. the
    /// synchronise-and-stop quiesce time).
    pub stall_us: u64,
    /// Control messages exchanged (counted into metrics; modelled as
    /// off-band traffic).
    pub control_messages: u64,
    /// Control bits exchanged.
    pub control_bits: u64,
}

/// Protocol customisation points. All methods have no-op defaults.
pub trait Hooks {
    /// Value to piggyback on an outgoing application message from `p`
    /// to `to`. The engine passes the sender's current dynamic
    /// checkpoint sequence number, which index-based CIC protocols
    /// piggyback verbatim; vector-carrying protocols use `to` for
    /// per-peer send tracking and return a token into their own
    /// payload store.
    fn piggyback(&mut self, _p: usize, _to: usize, ckpt_seq: u64, _now: SimTime) -> u64 {
        ckpt_seq
    }

    /// Called when process `p` is about to consume a message carrying
    /// `piggyback`; `own_seq` is `p`'s current checkpoint count.
    fn on_recv(&mut self, _p: usize, _piggyback: u64, _own_seq: u64, _now: SimTime) -> RecvAction {
        RecvAction::Deliver
    }

    /// Whether an application `checkpoint` statement should actually
    /// take a checkpoint (`false` = skip; baseline protocols that use
    /// their own schedule return `false`).
    fn take_app_checkpoint(&mut self, _p: usize, _now: SimTime) -> bool {
        true
    }

    /// Polled at instruction boundaries: return `true` to take a
    /// protocol-scheduled (timer) checkpoint now.
    fn timer_checkpoint_due(&mut self, _p: usize, _now: SimTime) -> bool {
        false
    }

    /// Whether [`Hooks::timer_checkpoint_due`] can ever return `true`.
    /// Queried once per run: when `false`, the engine elides the
    /// per-instruction timer poll entirely. The default is
    /// conservatively `true` — an implementation that never schedules
    /// timer checkpoints may override this to `false` as a pure
    /// optimisation, and forgetting to do so only costs the poll.
    fn uses_timers(&mut self) -> bool {
        true
    }

    /// Whether every customisation point keeps its default behaviour.
    /// Queried once per run: when `true`, the engine skips the dynamic
    /// hook dispatch on the per-message and per-checkpoint hot paths
    /// and inlines the defaults (deliver, piggyback the sequence
    /// number, honour application checkpoints, charge nothing).
    /// [`NoHooks`] — the paper's application-driven protocol — answers
    /// `true`; an implementation overriding any other method must leave
    /// this `false` (the default).
    fn passive(&mut self) -> bool {
        false
    }

    /// The trigger recorded for checkpoints fired by
    /// [`Hooks::timer_checkpoint_due`]. Coordinated protocols (SaS,
    /// Chandy–Lamport) override this to
    /// [`CkptTrigger::Coordinated`].
    fn timer_trigger(&mut self, _p: usize) -> CkptTrigger {
        CkptTrigger::Timer
    }

    /// Coordination cost charged whenever a checkpoint is taken
    /// (any trigger). The paper's application-driven protocol charges
    /// nothing — that is the point.
    fn coordination_cost(&mut self, _p: usize, _now: SimTime) -> CoordinationCost {
        CoordinationCost::default()
    }

    /// Called after a checkpoint of `p` has been recorded (any
    /// trigger). Index-based CIC protocols use this to advance their
    /// logical clocks: a timer checkpoint bumps the local index, a
    /// forced one absorbs the piggybacked value that demanded it.
    fn checkpoint_taken(&mut self, _p: usize, _trigger: CkptTrigger, _now: SimTime) {}
}

/// The application-driven (coordination-free) behaviour: checkpoints
/// exactly at the analysis-placed statements, zero protocol cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHooks;

impl Hooks for NoHooks {
    fn uses_timers(&mut self) -> bool {
        false
    }

    fn passive(&mut self) -> bool {
        true
    }
}

/// A simple timer-driven schedule: take a local checkpoint every
/// `interval_us`, optionally skewed per process, ignoring application
/// checkpoint statements. This is the *uncoordinated* baseline; the
/// richer protocols in `acfc-protocols` build on the same mechanism.
#[derive(Debug, Clone)]
pub struct TimerCheckpoints {
    intervals: Vec<u64>,
    next_due: Vec<u64>,
    /// Whether application checkpoint statements are honoured too.
    pub keep_app_checkpoints: bool,
}

impl TimerCheckpoints {
    /// Every process checkpoints every `interval_us`, with process `p`
    /// phase-shifted by `p * skew_us`.
    pub fn new(nprocs: usize, interval_us: u64, skew_us: u64) -> TimerCheckpoints {
        assert!(interval_us > 0, "interval must be positive");
        TimerCheckpoints {
            intervals: vec![interval_us; nprocs],
            next_due: (0..nprocs)
                .map(|p| interval_us + p as u64 * skew_us)
                .collect(),
            keep_app_checkpoints: false,
        }
    }
}

impl Hooks for TimerCheckpoints {
    fn take_app_checkpoint(&mut self, _p: usize, _now: SimTime) -> bool {
        self.keep_app_checkpoints
    }

    fn timer_checkpoint_due(&mut self, p: usize, now: SimTime) -> bool {
        if now.as_micros() >= self.next_due[p] {
            // Schedule strictly after `now` so one poll fires at most one
            // checkpoint even if the process fell behind.
            let iv = self.intervals[p];
            let mut due = self.next_due[p];
            while due <= now.as_micros() {
                due += iv;
            }
            self.next_due[p] = due;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nohooks_defaults() {
        let mut h = NoHooks;
        assert_eq!(h.piggyback(0, 1, 7, SimTime::ZERO), 7);
        assert_eq!(h.on_recv(0, 3, 1, SimTime::ZERO), RecvAction::Deliver);
        assert!(h.take_app_checkpoint(0, SimTime::ZERO));
        assert!(!h.timer_checkpoint_due(0, SimTime::ZERO));
        assert_eq!(
            h.coordination_cost(0, SimTime::ZERO),
            CoordinationCost::default()
        );
    }

    #[test]
    fn timer_fires_once_per_interval() {
        let mut h = TimerCheckpoints::new(1, 100, 0);
        assert!(!h.timer_checkpoint_due(0, SimTime::from_micros(50)));
        assert!(h.timer_checkpoint_due(0, SimTime::from_micros(100)));
        // Immediately after firing, not due again.
        assert!(!h.timer_checkpoint_due(0, SimTime::from_micros(100)));
        assert!(h.timer_checkpoint_due(0, SimTime::from_micros(200)));
    }

    #[test]
    fn timer_catches_up_without_bursts() {
        let mut h = TimerCheckpoints::new(1, 100, 0);
        // Process was busy until t=550; only one checkpoint fires, and
        // the next is due at 600.
        assert!(h.timer_checkpoint_due(0, SimTime::from_micros(550)));
        assert!(!h.timer_checkpoint_due(0, SimTime::from_micros(550)));
        assert!(h.timer_checkpoint_due(0, SimTime::from_micros(600)));
    }

    #[test]
    fn skew_offsets_processes() {
        let mut h = TimerCheckpoints::new(2, 100, 30);
        assert!(h.timer_checkpoint_due(0, SimTime::from_micros(100)));
        assert!(!h.timer_checkpoint_due(1, SimTime::from_micros(100)));
        assert!(h.timer_checkpoint_due(1, SimTime::from_micros(130)));
    }

    #[test]
    fn app_checkpoints_suppressed_by_default() {
        let mut h = TimerCheckpoints::new(1, 100, 0);
        assert!(!h.take_app_checkpoint(0, SimTime::ZERO));
        h.keep_app_checkpoints = true;
        assert!(h.take_app_checkpoint(0, SimTime::ZERO));
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_panics() {
        let _ = TimerCheckpoints::new(1, 0, 0);
    }
}
