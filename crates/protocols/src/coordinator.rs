//! The one protocol dispatch: [`ProtocolKind`] to a running protocol.
//!
//! The decisions themselves — piggyback, on-receive, timers,
//! coordination cost — are the simulator's [`Hooks`], implemented once
//! per protocol in this crate. [`CheckpointCoordinator`] adds what a
//! caller needs around them: the protocol's name for reports, the
//! recovery-line picker that matches its placement guarantees, and its
//! piggyback meter. [`ProtocolKind::coordinator`] is the only place a
//! protocol's hooks are built, so the simulator's comparisons and the
//! runtime's schedulers run the same constructor with the same
//! arguments.

use crate::cic::CicProtocol;
use crate::compare::ProtocolKind;
use crate::depgraph::max_consistent_picker;
use crate::uncoordinated::{uncoordinated_hooks, uncoordinated_picker};
use crate::{ChandyLamport, SyncAndStop};
use acfc_sim::{CutPicker, Hooks, NetworkModel, NoHooks, TimerCheckpoints};

/// A protocol's [`Hooks`] plus what a caller needs around them. `Send`
/// because the free-running runtime scheduler shares the coordinator
/// between worker threads (behind a mutex).
pub trait CheckpointCoordinator: Hooks + Send {
    /// Short stable identifier for reports and the CLI
    /// ([`ProtocolKind::name`]).
    fn name(&self) -> &'static str;

    /// A fresh recovery-line picker consistent with this protocol's
    /// checkpoint placement guarantees.
    fn picker(&self) -> CutPicker;

    /// Protocol state piggybacked on application messages over the run
    /// so far, bits. Zero for every protocol that does not ride the
    /// application traffic; the CIC family meters its own payload.
    fn piggyback_bits(&self) -> u64 {
        0
    }
}

/// The application-driven protocol: no hooks, straight-cut recovery.
impl CheckpointCoordinator for NoHooks {
    fn name(&self) -> &'static str {
        ProtocolKind::AppDriven.name()
    }

    fn picker(&self) -> CutPicker {
        CutPicker::AlignedSeq
    }
}

/// The uncoordinated protocol: independent skewed timers, recovery by
/// rollback propagation to the maximal consistent line.
impl CheckpointCoordinator for TimerCheckpoints {
    fn name(&self) -> &'static str {
        ProtocolKind::Uncoordinated.name()
    }

    fn picker(&self) -> CutPicker {
        uncoordinated_picker()
    }
}

/// The simulator approximates the SaS wave stop with a stall, so
/// in-flight messages can straddle a wave boundary on asymmetric
/// workloads; restoring the maximal consistent line over the wave
/// checkpoints (= latest-per-process when the wave is tight) keeps
/// recovery orphan-free.
impl CheckpointCoordinator for SyncAndStop {
    fn name(&self) -> &'static str {
        ProtocolKind::SyncAndStop.name()
    }

    fn picker(&self) -> CutPicker {
        max_consistent_picker()
    }
}

impl CheckpointCoordinator for ChandyLamport {
    fn name(&self) -> &'static str {
        ProtocolKind::ChandyLamport.name()
    }

    fn picker(&self) -> CutPicker {
        max_consistent_picker()
    }
}

impl CheckpointCoordinator for CicProtocol {
    fn name(&self) -> &'static str {
        self.variant().name()
    }

    fn picker(&self) -> CutPicker {
        self.variant().picker()
    }

    fn piggyback_bits(&self) -> u64 {
        self.piggyback_bits
    }
}

impl ProtocolKind {
    /// Builds this protocol's coordinator for `nprocs` processes: timer
    /// and wave protocols checkpoint every `interval_us`, uncoordinated
    /// and CIC timers are phase-shifted by `p · skew_us`, and the waves
    /// charge their control traffic on `net`. The application-driven
    /// protocol takes none of these: it runs the analysis-transformed
    /// program, which its caller prepares.
    ///
    /// # Panics
    ///
    /// Panics if `interval_us` is 0 for any protocol but
    /// [`ProtocolKind::AppDriven`].
    pub fn coordinator(
        self,
        nprocs: usize,
        interval_us: u64,
        skew_us: u64,
        net: &NetworkModel,
    ) -> Box<dyn CheckpointCoordinator> {
        match self {
            ProtocolKind::AppDriven => Box::new(NoHooks),
            ProtocolKind::Uncoordinated => {
                Box::new(uncoordinated_hooks(nprocs, interval_us, skew_us))
            }
            ProtocolKind::SyncAndStop => {
                Box::new(SyncAndStop::new(nprocs, interval_us, net.clone()))
            }
            ProtocolKind::ChandyLamport => {
                Box::new(ChandyLamport::new(nprocs, interval_us, net.clone()))
            }
            ProtocolKind::Cic(variant) => {
                Box::new(CicProtocol::new(variant, nprocs, interval_us, skew_us))
            }
        }
    }
}
