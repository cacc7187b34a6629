//! The synchronise-and-stop (SaS) coordinated protocol.
//!
//! §4.1 of the paper: in SaS all processes stop during checkpointing, so
//! the collection of wave checkpoints is trivially a recovery line; the
//! coordinator broadcasts three messages per wave and every other
//! process sends two replies, all 8-bit control messages, giving
//! `M(SaS) = 5(n−1)(w_m + 8·w_b)` of message overhead per wave, plus the
//! quiesce stall while everyone synchronises.
//!
//! Modelling: waves occur at multiples of the checkpoint interval `T`;
//! every process takes a [`CkptTrigger::Coordinated`](acfc_sim::CkptTrigger) checkpoint at the
//! wave boundary, stalled by the synchronisation cost; the control
//! messages are charged to the metrics on the coordinator (counted once
//! per wave, not once per process). Application `checkpoint` statements
//! are suppressed — SaS brings its own schedule.

use acfc_sim::{CoordinationCost, Hooks, NetworkModel, SimTime};

/// Per-wave control-message count: `5(n−1)` (three broadcast legs plus
/// two replies from each of the `n−1` participants).
pub fn sas_control_messages(n: usize) -> u64 {
    5 * (n as u64 - 1)
}

/// SaS protocol hooks.
#[derive(Debug, Clone)]
pub struct SyncAndStop {
    nprocs: usize,
    interval_us: u64,
    next_wave: Vec<u64>,
    /// Stall imposed on every process per wave (the stop-the-world
    /// synchronisation): two control round-trips by default.
    pub sync_stall_us: u64,
    /// Control bits per message (the paper's 8-bit program messages).
    pub control_bits: u64,
}

impl SyncAndStop {
    /// A SaS schedule with waves every `interval_us`.
    ///
    /// # Panics
    ///
    /// Panics if `interval_us == 0` or `nprocs == 0`.
    pub fn new(nprocs: usize, interval_us: u64, net: NetworkModel) -> SyncAndStop {
        assert!(interval_us > 0, "interval must be positive");
        assert!(nprocs > 0, "need at least one process");
        let rt = net.base_delay_us(8);
        SyncAndStop {
            nprocs,
            interval_us,
            next_wave: vec![interval_us; nprocs],
            // Stop + checkpoint + resume: the coordinator exchanges
            // ~4 one-way control legs with the slowest participant.
            sync_stall_us: 4 * rt,
            control_bits: 8,
        }
    }
}

impl Hooks for SyncAndStop {
    fn take_app_checkpoint(&mut self, _p: usize, _now: SimTime) -> bool {
        false
    }

    fn timer_trigger(&mut self, _p: usize) -> acfc_sim::CkptTrigger {
        acfc_sim::CkptTrigger::Coordinated
    }

    fn timer_checkpoint_due(&mut self, p: usize, now: SimTime) -> bool {
        if now.as_micros() >= self.next_wave[p] {
            let mut due = self.next_wave[p];
            while due <= now.as_micros() {
                due += self.interval_us;
            }
            self.next_wave[p] = due;
            true
        } else {
            false
        }
    }

    fn coordination_cost(&mut self, p: usize, _now: SimTime) -> CoordinationCost {
        acfc_obs::count("protocols/sas/coordination_stall_us", self.sync_stall_us);
        if p == 0 {
            acfc_obs::count(
                "protocols/sas/control_messages",
                sas_control_messages(self.nprocs),
            );
        }
        CoordinationCost {
            stall_us: self.sync_stall_us,
            // Charge the wave's control traffic once, on the coordinator.
            control_messages: if p == 0 {
                sas_control_messages(self.nprocs)
            } else {
                0
            },
            control_bits: if p == 0 {
                sas_control_messages(self.nprocs) * self.control_bits
            } else {
                0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acfc_sim::{compile, run_with_hooks, CkptTrigger, SimConfig};

    #[test]
    fn control_message_formula() {
        assert_eq!(sas_control_messages(2), 5);
        assert_eq!(sas_control_messages(10), 45);
    }

    #[test]
    fn waves_checkpoint_every_process() {
        let p = acfc_mpsl::programs::jacobi(8);
        let cfg = SimConfig::new(4);
        let mut hooks = SyncAndStop::new(4, 50_000, cfg.net.clone());
        let t = run_with_hooks(&compile(&p), &cfg, &mut hooks);
        assert!(t.completed());
        assert_eq!(t.metrics.app_checkpoints, 0);
        assert!(t.metrics.coordinated_checkpoints > 0);
        // Each process checkpointed the same number of waves (±1 at the
        // end of the run).
        let counts = t.checkpoint_counts();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max - min <= 1, "{counts:?}");
        assert!(t
            .checkpoints
            .iter()
            .all(|c| c.trigger == CkptTrigger::Coordinated));
    }

    #[test]
    fn control_traffic_charged_once_per_wave() {
        let p = acfc_mpsl::programs::jacobi(8);
        let cfg = SimConfig::new(4);
        let mut hooks = SyncAndStop::new(4, 50_000, cfg.net.clone());
        let t = run_with_hooks(&compile(&p), &cfg, &mut hooks);
        let waves = t
            .checkpoints
            .iter()
            .filter(|c| c.proc == 0 && !c.rolled_back)
            .count() as u64;
        assert_eq!(t.metrics.control_messages, waves * sas_control_messages(4));
        assert_eq!(t.metrics.control_bits, waves * sas_control_messages(4) * 8);
    }

    #[test]
    fn stall_slows_down_the_run() {
        let p = acfc_mpsl::programs::jacobi(6);
        let cfg = SimConfig::new(2);
        let base = acfc_sim::run(&compile(&p), &cfg);
        let mut hooks = SyncAndStop::new(2, 30_000, cfg.net.clone());
        hooks.sync_stall_us = 20_000; // exaggerated, but below the interval
        let t = run_with_hooks(&compile(&p), &cfg, &mut hooks);
        assert!(t.completed());
        assert!(t.finished_at > base.finished_at);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_rejected() {
        let _ = SyncAndStop::new(2, 0, NetworkModel::default());
    }
}
