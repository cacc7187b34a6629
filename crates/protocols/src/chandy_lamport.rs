//! The Chandy–Lamport distributed-snapshots protocol.
//!
//! §4.1: in a fully connected network of `n` nodes, C-L generates
//! `2n(n−1)` marker messages per snapshot, each 8 bits, giving
//! `M(C-L) = 2n(n−1)(w_m + 8·w_b)`. Unlike SaS it does not stop the
//! world: the initiator checkpoints and floods markers; every other
//! process checkpoints upon its first marker and relays markers on all
//! outgoing channels, recording channel state until markers return.
//!
//! Modelling: snapshot waves start at multiples of the interval `T`;
//! the initiator (rank 0) checkpoints at the wave boundary and every
//! other process at the boundary plus one marker propagation delay
//! (first-marker arrival in a fully connected network). Channel-state
//! recording is charged as a per-checkpoint stall proportional to the
//! process's channel count; the `2n(n−1)` markers are charged to the
//! metrics on the initiator, once per wave. Application `checkpoint`
//! statements are suppressed.

use acfc_sim::{CoordinationCost, Hooks, NetworkModel, SimTime};

/// Per-wave marker count in a fully connected network: `2n(n−1)`.
pub fn cl_control_messages(n: usize) -> u64 {
    2 * (n as u64) * (n as u64 - 1)
}

/// Chandy–Lamport protocol hooks.
#[derive(Debug, Clone)]
pub struct ChandyLamport {
    nprocs: usize,
    interval_us: u64,
    next_wave: Vec<u64>,
    /// Extra stall per checkpoint for recording incoming-channel state.
    pub channel_record_us: u64,
    /// Marker size in bits.
    pub control_bits: u64,
}

impl ChandyLamport {
    /// A C-L schedule with snapshot waves every `interval_us`.
    ///
    /// # Panics
    ///
    /// Panics if `interval_us == 0` or `nprocs == 0`.
    pub fn new(nprocs: usize, interval_us: u64, net: NetworkModel) -> ChandyLamport {
        assert!(interval_us > 0, "interval must be positive");
        assert!(nprocs > 0, "need at least one process");
        let marker_delay_us = net.base_delay_us(8);
        ChandyLamport {
            nprocs,
            interval_us,
            // Non-initiators checkpoint one marker hop later.
            next_wave: (0..nprocs)
                .map(|p| interval_us + if p == 0 { 0 } else { marker_delay_us })
                .collect(),
            channel_record_us: (nprocs as u64 - 1) * 10,
            control_bits: 8,
        }
    }
}

impl Hooks for ChandyLamport {
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
        acfc_obs::count(
            "protocols/chandy_lamport/channel_record_us",
            self.channel_record_us,
        );
        if p == 0 {
            acfc_obs::count(
                "protocols/chandy_lamport/marker_messages",
                cl_control_messages(self.nprocs),
            );
        }
        CoordinationCost {
            stall_us: self.channel_record_us,
            control_messages: if p == 0 {
                cl_control_messages(self.nprocs)
            } else {
                0
            },
            control_bits: if p == 0 {
                cl_control_messages(self.nprocs) * self.control_bits
            } else {
                0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acfc_sim::{compile, run_with_hooks, SimConfig};

    #[test]
    fn marker_count_formula() {
        assert_eq!(cl_control_messages(2), 4);
        assert_eq!(cl_control_messages(4), 24);
    }

    #[test]
    fn waves_reach_everyone_with_marker_skew() {
        let p = acfc_mpsl::programs::jacobi(8);
        let cfg = SimConfig::new(3);
        let mut hooks = ChandyLamport::new(3, 40_000, cfg.net.clone());
        let t = run_with_hooks(&compile(&p), &cfg, &mut hooks);
        assert!(t.completed());
        assert!(t.metrics.coordinated_checkpoints > 0);
        assert_eq!(t.metrics.app_checkpoints, 0);
        // Non-initiators take their wave checkpoints at least one
        // marker delay after the initiator's.
        let c0: Vec<_> = t
            .checkpoints
            .iter()
            .filter(|c| c.proc == 0)
            .map(|c| c.start)
            .collect();
        let c1: Vec<_> = t
            .checkpoints
            .iter()
            .filter(|c| c.proc == 1)
            .map(|c| c.start)
            .collect();
        assert!(!c0.is_empty() && !c1.is_empty());
        assert!(c1[0] >= c0[0]);
    }

    #[test]
    fn markers_charged_per_wave_on_initiator() {
        let p = acfc_mpsl::programs::jacobi(8);
        let cfg = SimConfig::new(4);
        let mut hooks = ChandyLamport::new(4, 40_000, cfg.net.clone());
        let t = run_with_hooks(&compile(&p), &cfg, &mut hooks);
        let waves = t
            .checkpoints
            .iter()
            .filter(|c| c.proc == 0 && !c.rolled_back)
            .count() as u64;
        assert_eq!(t.metrics.control_messages, waves * cl_control_messages(4));
    }

    #[test]
    fn latest_wave_checkpoints_form_a_recovery_line() {
        use crate::depgraph::max_consistent_line_of;
        // C-L's raison d'être: the snapshot is consistent. In our
        // model the wave checkpoints are closely synchronised, so the
        // maximal consistent line should keep (nearly) all of them.
        let p = acfc_mpsl::programs::jacobi(10);
        let cfg = SimConfig::new(3);
        let mut hooks = ChandyLamport::new(3, 60_000, cfg.net.clone());
        let t = run_with_hooks(&compile(&p), &cfg, &mut hooks);
        assert!(t.completed());
        let counts: Vec<u64> = t.checkpoint_counts().iter().map(|&c| c as u64).collect();
        let line = max_consistent_line_of(&t);
        for p in 0..t.nprocs {
            assert!(
                counts[p] - line[p] <= 1,
                "wave checkpoints should be near-consistent: counts {counts:?} line {line:?}"
            );
        }
    }
}
