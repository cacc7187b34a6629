//! Simulation configuration: network delay model, cost model, and the
//! vector-clock representation policy.

/// Largest process count at which [`ClockMode::Auto`] keeps dense
/// vector clocks. Below this, every process works on a full n-entry
/// clock, every send clones it into the message record (cheap — inline
/// or one small `Vec`) and traces carry complete per-message stamps.
/// Above it the engine switches to sparse working clocks, O(Δ) delta
/// piggybacks and sparse checkpoint stamps: semantically equivalent
/// clocks, costing O(support) per process instead of O(n), but message
/// records no longer embed per-message stamps (n² × 8 bytes each would
/// dominate memory).
pub const DENSE_CLOCK_MAX: usize = 64;

/// How the engine represents and transports vector clocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// Dense for `nprocs ≤` [`DENSE_CLOCK_MAX`], delta above. The
    /// default: small runs keep byte-identical traces, large runs scale.
    #[default]
    Auto,
    /// Full working clocks, and full clocks on every message and
    /// checkpoint, regardless of n.
    Dense,
    /// At any n: per-process working clocks that hold only their
    /// nonzero entries, each with a last-update stamp; piggybacks that
    /// carry only the entries changed since the last send on the
    /// channel; and sparse checkpoint stamps.
    Delta,
}

impl ClockMode {
    /// Resolves the policy for a given process count.
    pub fn is_delta(self, nprocs: usize) -> bool {
        match self {
            ClockMode::Auto => nprocs > DENSE_CLOCK_MAX,
            ClockMode::Dense => false,
            ClockMode::Delta => true,
        }
    }
}

/// Network delay model, following the paper's §4 parameterisation: the
/// cost of a message is a per-message *setup time* `w_m` plus a *per-bit
/// delay* `w_b`, with optional bounded uniform jitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkModel {
    /// `w_m`: per-message setup time, microseconds.
    pub setup_us: u64,
    /// `w_b`: per-bit transmission delay, **nanoseconds per bit** (kept
    /// in nanoseconds so that small control messages get nonzero cost
    /// without floating point).
    pub per_bit_ns: u64,
    /// Uniform jitter in `[0, jitter_us]` added per message (seeded,
    /// deterministic).
    pub jitter_us: u64,
}

impl NetworkModel {
    /// Deterministic portion of the delay for a message of `size_bits`.
    pub fn base_delay_us(&self, size_bits: u64) -> u64 {
        self.setup_us + (size_bits * self.per_bit_ns) / 1000
    }
}

impl Default for NetworkModel {
    /// A LAN-ish default: 100 µs setup, 1 ns/bit (~1 Gb/s), 20 µs jitter.
    fn default() -> NetworkModel {
        NetworkModel {
            setup_us: 100,
            per_bit_ns: 1,
            jitter_us: 20,
        }
    }
}

/// Local cost model for instruction execution and checkpointing.
///
/// The checkpoint parameters mirror the paper's: `o` (overhead: how long
/// the process is stalled), `l ≥ o` (latency: when the checkpoint is
/// durable on stable storage), and `R` (recovery: time to restart from a
/// checkpoint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// Simulated microseconds per `compute` cost unit (default: one
    /// cost unit = 1 ms).
    pub compute_unit_us: u64,
    /// Bookkeeping cost of any other instruction, microseconds (≥ 1 so
    /// simulated time always advances).
    pub instr_overhead_us: u64,
    /// Local cost of issuing a send, microseconds.
    pub send_overhead_us: u64,
    /// `o`: checkpoint overhead (process stall), microseconds.
    pub ckpt_overhead_us: u64,
    /// `l`: checkpoint latency (time to stable storage), microseconds.
    pub ckpt_latency_us: u64,
    /// `R`: recovery overhead on rollback, microseconds.
    pub recovery_us: u64,
}

impl Default for CostModel {
    /// Small, test-friendly defaults (checkpoints cost 2 ms, recover in
    /// 5 ms). The paper's measured constants (`o = 1.78 s`,
    /// `l = 4.292 s`, `R = 3.32 s`) are available via
    /// [`CostModel::paper_starfish`].
    fn default() -> CostModel {
        CostModel {
            compute_unit_us: 1_000,
            instr_overhead_us: 1,
            send_overhead_us: 5,
            ckpt_overhead_us: 2_000,
            ckpt_latency_us: 4_000,
            recovery_us: 5_000,
        }
    }
}

impl CostModel {
    /// The constants the paper measured on Starfish (§4): `o = 1.78 s`,
    /// `l = 4.292 s`, `R = 3.32 s`.
    pub fn paper_starfish() -> CostModel {
        CostModel {
            ckpt_overhead_us: 1_780_000,
            ckpt_latency_us: 4_292_000,
            recovery_us: 3_320_000,
            ..CostModel::default()
        }
    }
}

/// Full simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of processes.
    pub nprocs: usize,
    /// RNG seed (jitter and any scheduling randomisation).
    pub seed: u64,
    /// Program input vector (`input(k)` reads `inputs[k]`).
    pub inputs: Vec<i64>,
    /// Parameter overrides applied on top of the program defaults.
    pub param_overrides: Vec<(String, i64)>,
    /// Network delay model.
    pub net: NetworkModel,
    /// Local cost model.
    pub cost: CostModel,
    /// Hard cap on instructions executed per process (runaway guard).
    pub max_steps_per_proc: u64,
    /// Vector-clock representation policy (see [`ClockMode`]).
    pub clock_mode: ClockMode,
}

impl SimConfig {
    /// A configuration for `nprocs` processes with all defaults.
    pub fn new(nprocs: usize) -> SimConfig {
        SimConfig {
            nprocs,
            seed: 0xACFC,
            inputs: Vec::new(),
            param_overrides: Vec::new(),
            net: NetworkModel::default(),
            cost: CostModel::default(),
            max_steps_per_proc: 2_000_000,
            clock_mode: ClockMode::Auto,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> SimConfig {
        self.seed = seed;
        self
    }

    /// Sets the input vector.
    pub fn with_inputs(mut self, inputs: Vec<i64>) -> SimConfig {
        self.inputs = inputs;
        self
    }

    /// Adds a parameter override.
    pub fn with_param(mut self, name: &str, value: i64) -> SimConfig {
        self.param_overrides.push((name.to_string(), value));
        self
    }

    /// Sets the vector-clock representation policy.
    pub fn with_clock_mode(mut self, mode: ClockMode) -> SimConfig {
        self.clock_mode = mode;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_delay_combines_setup_and_bits() {
        let net = NetworkModel {
            setup_us: 100,
            per_bit_ns: 2,
            jitter_us: 0,
        };
        // 4000 bits * 2 ns = 8000 ns = 8 us.
        assert_eq!(net.base_delay_us(4000), 108);
        assert_eq!(net.base_delay_us(0), 100);
    }

    #[test]
    fn sub_microsecond_bits_truncate() {
        let net = NetworkModel {
            setup_us: 0,
            per_bit_ns: 1,
            jitter_us: 0,
        };
        assert_eq!(net.base_delay_us(999), 0);
        assert_eq!(net.base_delay_us(1000), 1);
    }

    #[test]
    fn paper_constants() {
        let c = CostModel::paper_starfish();
        assert_eq!(c.ckpt_overhead_us, 1_780_000);
        assert_eq!(c.ckpt_latency_us, 4_292_000);
        assert_eq!(c.recovery_us, 3_320_000);
        assert!(c.ckpt_latency_us >= c.ckpt_overhead_us);
    }

    #[test]
    fn clock_mode_resolution() {
        assert!(!ClockMode::Auto.is_delta(DENSE_CLOCK_MAX));
        assert!(ClockMode::Auto.is_delta(DENSE_CLOCK_MAX + 1));
        assert!(!ClockMode::Dense.is_delta(4096));
        assert!(ClockMode::Delta.is_delta(2));
        assert_eq!(SimConfig::new(4).clock_mode, ClockMode::Auto);
        assert_eq!(
            SimConfig::new(4)
                .with_clock_mode(ClockMode::Delta)
                .clock_mode,
            ClockMode::Delta
        );
    }

    #[test]
    fn builder_methods() {
        let cfg = SimConfig::new(4)
            .with_seed(7)
            .with_inputs(vec![1, 2])
            .with_param("iters", 9);
        assert_eq!(cfg.nprocs, 4);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.inputs, vec![1, 2]);
        assert_eq!(cfg.param_overrides, vec![("iters".to_string(), 9)]);
    }
}
