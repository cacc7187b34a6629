//! The discrete-event simulation engine.
//!
//! Executes a compiled SPMD program on `n` simulated processes over
//! reliable FIFO channels (the paper's system model, §2): asynchronous
//! sends, *blocking* receives, deterministic per-process transition
//! functions, vector-clock stamping of every send/receive/checkpoint
//! event, optional failure injection with coordinated rollback, and
//! protocol customisation via [`Hooks`].
//!
//! Determinism: given the same program, configuration, hooks, and
//! failure plan, a run is bit-for-bit reproducible (the only randomness
//! is the seeded network jitter).

use crate::backend::{SlotNames, SlotSnapshot, SlotState, StateBackend};
use crate::bytecode::Compiled;
use crate::clock::VectorClock;
use crate::config::SimConfig;
use crate::equeue::CalendarQueue;
use crate::failure::{CutPicker, FailurePlan};
use crate::hooks::{
    CoordinationCost, Hooks, NoHooks, RecvAction, FORCED_RUNAWAY, MAX_FORCED_PER_RECV,
};
use crate::obs::SimObs;
use crate::runlog::{trigger_name, RunEvent, RunLog};
use crate::step::{Step, Stepper};
use crate::time::SimTime;
use crate::trace::{
    CheckpointRecord, CkptTrigger, FailureRecord, MessageRecord, Metrics, MsgId, Outcome, Snapshot,
    StmtInstances, Trace, VarStore,
};
use acfc_mpsl::StmtId;
use acfc_util::rng::Rng;
use std::sync::Arc;

/// Runs `compiled` under `config` with the application-driven behaviour
/// (no protocol hooks, no failures).
///
/// # Examples
///
/// ```
/// let p = acfc_mpsl::programs::jacobi(3);
/// let trace = acfc_sim::run(&acfc_sim::compile(&p), &acfc_sim::SimConfig::new(4));
/// assert!(trace.completed());
/// assert_eq!(trace.checkpoint_counts(), vec![3, 3, 3, 3]);
/// ```
pub fn run(compiled: &Compiled, config: &SimConfig) -> Trace {
    let mut hooks = NoHooks;
    run_with_hooks(compiled, config, &mut hooks)
}

/// Runs with protocol hooks and no failures.
pub fn run_with_hooks(compiled: &Compiled, config: &SimConfig, hooks: &mut dyn Hooks) -> Trace {
    Engine::new(
        compiled,
        config,
        hooks,
        FailurePlan::none(),
        CutPicker::AlignedSeq,
        None,
        None,
    )
    .run()
}

/// Runs with hooks, injected failures, and the given recovery-line
/// picker.
pub fn run_with_failures(
    compiled: &Compiled,
    config: &SimConfig,
    hooks: &mut dyn Hooks,
    plan: FailurePlan,
    picker: CutPicker,
) -> Trace {
    Engine::new(compiled, config, hooks, plan, picker, None, None).run()
}

/// Fully general run with a [`StateBackend`] attached: every checkpoint
/// the engine records is also committed to the backend, and rollbacks
/// discard from it, so the backend's committed set tracks the trace's
/// live checkpoints; the [`RunLog`] returned with the trace lists the
/// commits, kills, recoveries and halts in the order they happened and
/// the variables each process ended with. The default entry points
/// pass no backend and pay one never-taken branch per checkpoint, halt
/// and failure.
pub fn run_with_backend(
    compiled: &Compiled,
    config: &SimConfig,
    hooks: &mut dyn Hooks,
    plan: FailurePlan,
    picker: CutPicker,
    backend: &mut dyn StateBackend,
) -> (Trace, RunLog) {
    let mut log = RunLog::default();
    // Typed so that `backend` is reborrowed for as long as `log` lives.
    let durable: (&mut dyn StateBackend, _) = (backend, &mut log);
    let trace = Engine::new(compiled, config, hooks, plan, picker, None, Some(durable)).run();
    (trace, log)
}

/// Runs like [`run`] while filling the per-run [`SimObs`] collector
/// (counters, histograms, and — in timeline mode — the interval data
/// behind the simulated-time Perfetto export).
pub fn run_observed(compiled: &Compiled, config: &SimConfig, obs: &mut SimObs) -> Trace {
    let mut hooks = NoHooks;
    Engine::new(
        compiled,
        config,
        &mut hooks,
        FailurePlan::none(),
        CutPicker::AlignedSeq,
        Some(obs),
        None,
    )
    .run()
}

/// Fully general observed run: hooks, failure plan, recovery-line
/// picker, and a [`SimObs`] collector.
pub fn run_observed_with(
    compiled: &Compiled,
    config: &SimConfig,
    hooks: &mut dyn Hooks,
    plan: FailurePlan,
    picker: CutPicker,
    obs: &mut SimObs,
) -> Trace {
    Engine::new(compiled, config, hooks, plan, picker, Some(obs), None).run()
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Ev {
    /// Resume execution of a process (with its rollback epoch).
    Ready { p: usize, epoch: u64 },
    /// Network delivery of a message: an arena slot plus the slot
    /// generation observed at scheduling time. A stale generation means
    /// the flight was cancelled (rollback) and the event is ignored.
    Arrive { slot: u32, gen: u32 },
    /// Injected failure of a process.
    Fail { p: usize },
}

#[derive(Debug, Clone, PartialEq)]
enum PState {
    Ready,
    Blocked {
        src: Option<usize>,
        stmt: StmtId,
        since: SimTime,
    },
    Halted,
}

/// Per-process state in struct-of-arrays layout: one flat slab per
/// field, indexed by rank (and rank × slot for the variable tables), so
/// the stepping loop walks contiguous memory instead of chasing
/// per-process structs. At n = 2048 this is the difference between a
/// handful of big allocations and tens of thousands of little ones.
struct ProcTable {
    /// Variable slots per process (the compile-time slot table size).
    nslots: usize,
    /// Statement-instance counters per process.
    stmt_limit: usize,
    /// Variable values, `n × nslots`, row per process.
    vars: Vec<i64>,
    /// Whether each slot is bound (declared, or assigned at least
    /// once); reads of unbound slots are runtime errors, exactly as
    /// lookups in the map-based store were. `n × nslots`.
    bound: Vec<bool>,
    /// Shared copy of each process's `bound` row handed to snapshots;
    /// invalidated on the rare false→true flip so the common checkpoint
    /// clones a refcount instead of a vector.
    bound_arc: Vec<Option<Arc<[bool]>>>,
    pc: Vec<usize>,
    /// Dense working clocks; empty in delta mode, whose sparse clocks
    /// live in [`DeltaState`].
    vc: Vec<VectorClock>,
    state: Vec<PState>,
    ckpt_seq: Vec<u64>,
    /// Instance counters indexed densely by statement id, `n × stmt_limit`.
    stmt_instances: Vec<u64>,
    step: Vec<u64>,
    executed: Vec<u64>,
    now: Vec<SimTime>,
}

impl ProcTable {
    fn vars_of(&self, p: usize) -> &[i64] {
        &self.vars[p * self.nslots..(p + 1) * self.nslots]
    }
    fn bound_of(&self, p: usize) -> &[bool] {
        &self.bound[p * self.nslots..(p + 1) * self.nslots]
    }
    fn insts_of(&self, p: usize) -> &[u64] {
        &self.stmt_instances[p * self.stmt_limit..(p + 1) * self.stmt_limit]
    }
    fn insts_of_mut(&mut self, p: usize) -> &mut [u64] {
        &mut self.stmt_instances[p * self.stmt_limit..(p + 1) * self.stmt_limit]
    }
}

/// Sentinel for "no slot / no link" in the message arena.
const NIL: u32 = u32::MAX;

/// One in-flight message: the record index it carries, a generation
/// that invalidates scheduled arrivals when the flight is cancelled,
/// and the intrusive link threading the receiver's per-channel FIFO.
struct FlightSlot {
    msg: u32,
    gen: u32,
    next: u32,
}

/// Generation-indexed slab of in-flight messages with a free list.
/// Replaces the old per-message `msg_token` vector (which grew with
/// *every* message ever sent) with storage proportional to the number
/// of messages actually in flight.
struct MsgArena {
    slots: Vec<FlightSlot>,
    free: Vec<u32>,
}

impl MsgArena {
    fn new() -> MsgArena {
        MsgArena {
            slots: Vec::with_capacity(1024),
            free: Vec::new(),
        }
    }

    fn alloc(&mut self, msg: usize) -> (u32, u32) {
        if let Some(s) = self.free.pop() {
            let slot = &mut self.slots[s as usize];
            slot.msg = msg as u32;
            slot.next = NIL;
            (s, slot.gen)
        } else {
            let s = self.slots.len() as u32;
            self.slots.push(FlightSlot {
                msg: msg as u32,
                gen: 0,
                next: NIL,
            });
            (s, 0)
        }
    }

    fn release(&mut self, s: u32) {
        let slot = &mut self.slots[s as usize];
        debug_assert!(slot.msg != NIL, "double free of flight slot");
        slot.msg = NIL;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(s);
    }

    fn is_live(&self, s: u32, gen: u32) -> bool {
        let slot = &self.slots[s as usize];
        slot.gen == gen && slot.msg != NIL
    }
}

/// One receiver-side channel: delivered-but-unconsumed flight slots as
/// an intrusive FIFO through the arena. Channels are created lazily on
/// first delivery and kept sorted by sender rank, so a sparse topology
/// materialises its edge set instead of the old eager `inbox[n][n]`
/// matrix of `VecDeque`s (4M queues at n = 2048).
struct InChan {
    src: u32,
    head: u32,
    tail: u32,
}

/// One sender-side channel: FIFO delivery-time watermark plus, in delta
/// mode, how far its receiver is covered. Created lazily per (sender,
/// dest) pair and kept sorted by dest — replaces the old
/// `chan_last[n × n]` array.
struct OutChan {
    dest: u32,
    last: SimTime,
    /// Delta mode: the sender's own clock component at the previous
    /// send on this channel (0 when there was none since the channel
    /// was created or a rollback reset it). The next payload carries
    /// the entries stamped after it.
    sent_own: u64,
}

/// Large-n sparse clocks (engine side). A process's working clock is
/// the sorted list of its nonzero `(index, value)` entries, so it costs
/// O(support), not O(n). Each entry carries a last-update stamp — the
/// owner's own component at the event that last raised it (the
/// Singhal–Kshemkalyani technique) — so a send on `p → q` carries the
/// own entry plus exactly the entries stamped after `p`'s own component
/// at the previous send on that channel: the O(Δ) piggyback, already
/// sorted. For the paper's neighbour-exchange workloads the support
/// grows one hop per iteration, so checkpoint stamps stay small even at
/// n = 2048. Payloads are values, not diffs, so redelivery after a
/// rollback is safe: merging is a componentwise max, and replaying an
/// old payload can never regress a clock.
struct DeltaState {
    /// Per-process working clock: nonzero entries sorted by index. The
    /// own entry always equals the process's step count.
    clocks: Vec<Vec<(u32, u64)>>,
    /// Last-update stamps, parallel to `clocks`.
    stamps: Vec<Vec<u64>>,
    /// Per-process largest stamp written by a merge (or a restore): a
    /// channel whose previous send is at least that recent is owed the
    /// own entry alone.
    merged_at: Vec<u64>,
    /// Every payload, flat, in send order; kept for the lifetime of the
    /// run so rolled-back messages can be redelivered with their
    /// original payload.
    payload: Vec<(u32, u64)>,
    /// Per message, parallel to `Engine::messages`: its payload's
    /// `(start, len)` in `payload`.
    spans: Vec<(u32, u32)>,
    /// Merge scratch: payload entries absent from the receiver's clock.
    missing: Vec<(u32, u64)>,
}

impl DeltaState {
    fn new(n: usize) -> DeltaState {
        DeltaState {
            clocks: vec![Vec::new(); n],
            stamps: vec![Vec::new(); n],
            merged_at: vec![0; n],
            // Room for `Engine::messages`' initial 16 messages per
            // process at four entries each.
            payload: Vec::with_capacity((n * 64).max(1024)),
            spans: Vec::with_capacity((n * 16).max(384)),
            missing: Vec::new(),
        }
    }

    /// Sets `p`'s own entry to `own`, its new step count (one more than
    /// before: every event ticks it once).
    fn tick(&mut self, p: usize, own: u64) {
        let (clock, stamps) = (&mut self.clocks[p], &mut self.stamps[p]);
        match clock.binary_search_by_key(&(p as u32), |e| e.0) {
            Ok(k) => {
                debug_assert_eq!(clock[k].1 + 1, own, "own component tracks the step count");
                clock[k].1 = own;
                stamps[k] = own;
            }
            Err(k) => {
                debug_assert_eq!(own, 1, "own component tracks the step count");
                clock.insert(k, (p as u32, own));
                stamps.insert(k, own);
            }
        }
    }

    /// Appends the payload of a send by `p`, whose own component this
    /// send ticked to `own`, on a channel whose previous send left
    /// `since`: the entries stamped after `since`, the own entry among
    /// them. With no merge since then that is the own entry alone,
    /// written without a scan.
    fn push_payload(&mut self, p: usize, own: u64, since: u64) {
        let start = self.payload.len();
        if self.merged_at[p] <= since {
            self.payload.push((p as u32, own));
        } else {
            // Branch-free filter: copy every entry, keep the fresh ones.
            let (clock, stamps) = (&self.clocks[p], &self.stamps[p]);
            self.payload.resize(start + clock.len(), (0, 0));
            let mut end = start;
            for (&e, &s) in clock.iter().zip(stamps) {
                self.payload[end] = e;
                end += usize::from(s > since);
            }
            self.payload.truncate(end);
        }
        let start = u32::try_from(start).expect("payload arena overflow");
        let len = self.payload.len() as u32 - start;
        self.spans.push((start, len));
    }

    /// Merges message `m`'s payload into `p`'s clock (componentwise
    /// max), stamping every raised entry with `at`, the own component
    /// of the receive event. Entries already present are found by
    /// galloping from the previous hit and updated in place — a
    /// one-entry payload costs O(log support), a payload covering the
    /// whole clock one linear walk — and absent ones are merged in from
    /// the back in one O(support) pass.
    fn merge(&mut self, p: usize, m: usize, at: u64) {
        let (start, len) = self.spans[m];
        let payload = &self.payload[start as usize..(start + len) as usize];
        let (clock, stamps) = (&mut self.clocks[p], &mut self.stamps[p]);
        let missing = &mut self.missing;
        missing.clear();
        let mut raised = false;
        let mut lo = 0;
        for &(i, v) in payload {
            match gallop(clock, lo, i) {
                Ok(k) => {
                    if v > clock[k].1 {
                        clock[k].1 = v;
                        stamps[k] = at;
                        raised = true;
                    }
                    lo = k + 1;
                }
                Err(k) => {
                    lo = k;
                    missing.push((i, v));
                }
            }
        }
        if !missing.is_empty() {
            raised = true;
            let (mut i, mut j) = (clock.len(), missing.len());
            clock.resize(i + j, (0, 0));
            stamps.resize(i + j, 0);
            while j > 0 {
                let w = i + j - 1;
                if i > 0 && clock[i - 1].0 > missing[j - 1].0 {
                    clock[w] = clock[i - 1];
                    stamps[w] = stamps[i - 1];
                    i -= 1;
                } else {
                    clock[w] = missing[j - 1];
                    stamps[w] = at;
                    j -= 1;
                }
            }
        }
        if raised {
            self.merged_at[p] = at;
        }
    }

    /// Resets `q`'s clock to a checkpoint stamp (`None`: the initial
    /// zero clock) taken at step `own`. Every entry is stamped `own`
    /// and the caller resets every out-channel, so the next send on
    /// each channel carries the full support.
    fn restore(&mut self, q: usize, stamp: Option<&VectorClock>, own: u64) {
        let clock = &mut self.clocks[q];
        clock.clear();
        clock.extend(stamp.into_iter().flat_map(VectorClock::iter_nonzero));
        debug_assert_eq!(
            clock.iter().find(|e| e.0 == q as u32).map_or(0, |e| e.1),
            own,
            "own component tracks the step count"
        );
        self.stamps[q].clear();
        self.stamps[q].resize(clock.len(), own);
        self.merged_at[q] = own;
    }
}

/// Where index `i` is (`Ok`) or belongs (`Err`) in the sorted `clock`,
/// given that every entry before `lo` is smaller: an exponential probe
/// from `lo`, then a binary search in the last bracket — O(log d) for
/// a target `d` entries on.
fn gallop(clock: &[(u32, u64)], mut lo: usize, i: u32) -> Result<usize, usize> {
    let mut bound = 1;
    while lo + bound <= clock.len() && clock[lo + bound - 1].0 < i {
        lo += bound;
        bound *= 2;
    }
    let hi = (lo + bound).min(clock.len());
    match clock[lo..hi].binary_search_by_key(&i, |e| e.0) {
        Ok(k) => Ok(lo + k),
        Err(k) => Err(lo + k),
    }
}

struct Engine<'a> {
    compiled: &'a Compiled,
    config: &'a SimConfig,
    hooks: &'a mut dyn Hooks,
    picker: CutPicker,
    procs: ProcTable,
    epochs: Vec<u64>,
    /// Pending events keyed by `(time_us, seq)`. Keys are unique (the
    /// seq tiebreak), so the calendar queue pops exactly the order the
    /// old sorted deque (or a binary heap on `Reverse(key)`) would —
    /// see `crate::equeue` for the differential tests pinning this.
    queue: CalendarQueue<Ev>,
    heap_seq: u64,
    /// In-flight message slots (send → consume), generation-indexed.
    arena: MsgArena,
    /// Receiver-side channels, lazily created, sorted by sender rank.
    inbox: Vec<Vec<InChan>>,
    /// Sender-side channels, lazily created, sorted by dest rank.
    out: Vec<Vec<OutChan>>,
    /// Lazily materialised inbox channels, for the allocation
    /// regression guard (flushed to [`SimObs::inbox_channels`]).
    inbox_channels: u64,
    /// Delta-clock state; `None` in dense mode.
    delta: Option<DeltaState>,
    messages: Vec<MessageRecord>,
    checkpoints: Vec<CheckpointRecord>,
    failures: Vec<FailureRecord>,
    metrics: Metrics,
    rng: Rng,
    outcome: Option<Outcome>,
    max_time: SimTime,
    inline_budget: u32,
    /// The interpreter every process is stepped through.
    stepper: Stepper<'a>,
    /// Snapshot of [`Hooks::uses_timers`]; when `false` the
    /// per-instruction timer poll is elided.
    use_timer_hook: bool,
    /// Snapshot of [`Hooks::passive`]; when `true` the per-message and
    /// per-checkpoint hook dispatch is skipped.
    passive_hooks: bool,
    /// Opt-in per-run observability collector; `None` (the default
    /// entry points) costs one never-taken branch per probe.
    obs: Option<&'a mut SimObs>,
    /// Opt-in durable state backend: committed on every checkpoint,
    /// discarded from on rollback; `None` (the default entry points)
    /// costs one never-taken branch per checkpoint, halt and failure.
    backend: Option<Durable<'a>>,
    /// Events popped off the queue — counted unconditionally (one
    /// plain add beats an `Option` branch in the hot loop) and copied
    /// into [`SimObs`] when a collector is attached.
    events_processed: u64,
    /// Run-ahead fast-path hits, same unconditional scheme.
    run_ahead_hits: u64,
    /// Per-process simulated compute µs, same unconditional scheme.
    compute_us: Vec<u64>,
}

/// The attached durable store, the reusable portable snapshot of each
/// process that is committed to it, and the log of what was committed,
/// killed, recovered and halted.
struct Durable<'a> {
    store: &'a mut dyn StateBackend,
    /// The variable slot table in name order.
    names: SlotNames,
    ports: Vec<SlotSnapshot>,
    log: &'a mut RunLog,
}

const INLINE_BUDGET: u32 = 256;

impl<'a> Engine<'a> {
    fn new(
        compiled: &'a Compiled,
        config: &'a SimConfig,
        hooks: &'a mut dyn Hooks,
        plan: FailurePlan,
        picker: CutPicker,
        mut obs: Option<&'a mut SimObs>,
        backend: Option<(&'a mut dyn StateBackend, &'a mut RunLog)>,
    ) -> Engine<'a> {
        let n = config.nprocs;
        assert!(n >= 1, "need at least one process");
        if let Some(o) = obs.as_deref_mut() {
            o.ensure_procs(n);
        }
        // Declared variables occupy the leading slots and start bound
        // (initialised to 0); undeclared names bind on first assign.
        let nslots = compiled.var_names.len();
        let declared = compiled.vars.len();
        let stmt_limit = compiled.stmt_limit as usize;
        let mut bound = vec![false; n * nslots];
        for p in 0..n {
            bound[p * nslots..p * nslots + declared].fill(true);
        }
        let delta = config.clock_mode.is_delta(n).then(|| DeltaState::new(n));
        let procs = ProcTable {
            nslots,
            stmt_limit,
            vars: vec![0; n * nslots],
            bound,
            bound_arc: vec![None; n],
            pc: vec![0; n],
            vc: match delta {
                Some(_) => Vec::new(),
                None => (0..n).map(|_| VectorClock::new(n)).collect(),
            },
            state: vec![PState::Ready; n],
            ckpt_seq: vec![0; n],
            stmt_instances: vec![0; n * stmt_limit],
            step: vec![0; n],
            executed: vec![0; n],
            now: vec![SimTime::ZERO; n],
        };
        let use_timer_hook = hooks.uses_timers();
        let passive_hooks = hooks.passive();
        let mut engine = Engine {
            compiled,
            config,
            hooks,
            picker,
            procs,
            epochs: vec![0; n],
            queue: CalendarQueue::new(),
            heap_seq: 0,
            arena: MsgArena::new(),
            inbox: (0..n).map(|_| Vec::new()).collect(),
            out: (0..n).map(|_| Vec::new()).collect(),
            inbox_channels: 0,
            delta,
            // Records embed inline vector clocks, so Vec doubling
            // re-copies them wholesale; start large enough that
            // typical runs never regrow (profiling showed realloc
            // memcpy as the single largest engine cost otherwise),
            // scaling with n for the large-n workloads.
            messages: Vec::with_capacity((n * 16).max(384)),
            checkpoints: Vec::with_capacity((n * 8).max(192)),
            failures: Vec::new(),
            metrics: Metrics::default(),
            rng: Rng::seed_from_u64(config.seed),
            outcome: None,
            max_time: SimTime::ZERO,
            inline_budget: INLINE_BUDGET,
            stepper: Stepper::new(compiled, config),
            use_timer_hook,
            passive_hooks,
            obs,
            backend: backend.map(|(store, log)| {
                let names = SlotNames::new(compiled.var_names.clone());
                let ports = (0..n)
                    .map(|p| SlotSnapshot::new(names.clone(), p, n))
                    .collect();
                Durable {
                    store,
                    names,
                    ports,
                    log,
                }
            }),
            events_processed: 0,
            run_ahead_hits: 0,
            compute_us: vec![0; n],
        };
        for p in 0..n {
            engine.push(SimTime::ZERO, Ev::Ready { p, epoch: 0 });
        }
        for &(t, p) in plan.events() {
            engine.push(t, Ev::Fail { p });
        }
        engine
    }

    fn push(&mut self, t: SimTime, ev: Ev) {
        self.heap_seq += 1;
        self.queue.push(t.as_micros(), self.heap_seq, ev);
    }

    fn note_time(&mut self, t: SimTime) {
        if t > self.max_time {
            self.max_time = t;
        }
    }

    fn run(mut self) -> Trace {
        // One span per run, not per event: the pop loop is the ~60M
        // events/s hot path and must stay probe-free.
        let _span = acfc_obs::span("sim/event_loop");
        while let Some((t_us, _, ev)) = self.queue.pop() {
            if self.outcome.is_some() {
                break;
            }
            let t = SimTime(t_us);
            self.note_time(t);
            self.events_processed += 1;
            if self.events_processed & 7 == 0 {
                if let Some(o) = self.obs.as_deref_mut() {
                    o.queue_depth.record(self.queue.len() as u64);
                }
            }
            match ev {
                Ev::Ready { p, epoch } => {
                    if epoch == self.epochs[p] && self.procs.state[p] == PState::Ready {
                        self.execute(p, t);
                    }
                }
                Ev::Arrive { slot, gen } => {
                    // A live slot has not been consumed, and cancelled
                    // flights (rollback) bumped the generation; each
                    // generation schedules exactly one arrival, so a
                    // matching live slot is always undelivered.
                    if self.arena.is_live(slot, gen) {
                        self.deliver(slot, t);
                    }
                }
                Ev::Fail { p } => self.handle_failure(p, t),
            }
        }
        let outcome = self.outcome.take().unwrap_or_else(|| {
            let blocked: Vec<usize> = self
                .procs
                .state
                .iter()
                .enumerate()
                .filter(|(_, q)| !matches!(q, PState::Halted))
                .map(|(i, _)| i)
                .collect();
            if blocked.is_empty() {
                Outcome::Completed
            } else {
                Outcome::Deadlock(blocked)
            }
        });
        self.metrics.instructions = self.procs.executed.iter().sum();
        if let Some(o) = self.obs.as_deref_mut() {
            o.events_processed += self.events_processed;
            o.run_ahead_hits += self.run_ahead_hits;
            o.inbox_channels += self.inbox_channels;
            o.piggyback_entries += match &self.delta {
                Some(d) => d.payload.len() as u64,
                None => self.metrics.app_messages * self.config.nprocs as u64,
            };
            for (p, &us) in self.compute_us.iter().enumerate() {
                o.per_proc[p].compute_us += us;
            }
        }
        if let Some(d) = self.backend.as_mut() {
            d.log.final_vars = (0..self.config.nprocs)
                .map(|p| {
                    d.names
                        .bound_pairs(self.procs.vars_of(p), self.procs.bound_of(p))
                })
                .collect();
        }
        Trace {
            nprocs: self.config.nprocs,
            program: self.compiled.name.clone(),
            messages: self.messages,
            checkpoints: self.checkpoints,
            failures: self.failures,
            proc_end: self.procs.now.clone(),
            finished_at: self.max_time,
            metrics: self.metrics,
            outcome,
        }
    }

    fn runtime_error(&mut self, p: usize, e: impl Into<String>) {
        self.outcome = Some(Outcome::RuntimeError(p, e.into()));
    }

    /// Executes instructions of `p` starting at simulated time `t` until
    /// the process blocks, halts, yields after a time-consuming
    /// instruction, or exhausts the inline budget.
    fn execute(&mut self, p: usize, t: SimTime) {
        let mut now = t;
        let mut inline = 0u32;
        // Hoisted loop invariants: `&mut self` calls in the body defeat
        // the optimizer's own load hoisting.
        let max_steps = self.config.max_steps_per_proc;
        let slots = p * self.procs.nslots..(p + 1) * self.procs.nslots;
        loop {
            if self.outcome.is_some() {
                return;
            }
            if self.procs.executed[p] >= max_steps {
                self.outcome = Some(Outcome::StepLimit(p));
                return;
            }
            if self.use_timer_hook && self.hooks.timer_checkpoint_due(p, now) {
                // Timer checkpoints count toward the step budget so a
                // protocol whose stall exceeds its interval (and would
                // otherwise checkpoint forever without executing a
                // single instruction) trips the runaway guard instead
                // of looping.
                self.procs.executed[p] += 1;
                let trigger = self.hooks.timer_trigger(p);
                self.take_checkpoint(p, None, None, trigger, &mut now);
                if self.can_run_ahead(now) {
                    self.mark_progress(p, now);
                    continue;
                }
                self.yield_ready(p, now);
                return;
            }
            inline += 1;
            if inline > self.inline_budget {
                self.yield_ready(p, now);
                return;
            }
            self.procs.executed[p] += 1;
            let step = self.stepper.step(
                p,
                &mut self.procs.pc[p],
                &mut self.procs.vars[slots.clone()],
                &mut self.procs.bound[slots.clone()],
            );
            match step {
                Step::Local { cost_us } => now += cost_us,
                Step::Bound { cost_us } => {
                    now += cost_us;
                    self.procs.bound_arc[p] = None;
                }
                Step::Compute { cost_us, work_us } => {
                    now += cost_us;
                    self.compute_us[p] += work_us;
                    if self.can_run_ahead(now) {
                        self.mark_progress(p, now);
                        continue;
                    }
                    self.yield_ready(p, now);
                    return;
                }
                Step::Send { to, bits, stmt } => {
                    self.do_send(p, to, bits, stmt, now);
                    now += self.config.cost.send_overhead_us;
                }
                Step::Recv { want, stmt } => {
                    if let Some(m) = self.pick_inbox(p, want) {
                        now = self.consume_message(p, m, stmt, now);
                        self.procs.pc[p] += 1;
                        if self.outcome.is_some() {
                            return;
                        }
                    } else {
                        self.procs.state[p] = PState::Blocked {
                            src: want,
                            stmt,
                            since: now,
                        };
                        self.procs.now[p] = now;
                        self.note_time(now);
                        return;
                    }
                }
                Step::Checkpoint { stmt, label } => {
                    if self.passive_hooks || self.hooks.take_app_checkpoint(p, now) {
                        self.take_checkpoint(
                            p,
                            Some(stmt),
                            label.cloned(),
                            CkptTrigger::AppStatement,
                            &mut now,
                        );
                        if self.can_run_ahead(now) {
                            self.mark_progress(p, now);
                            continue;
                        }
                        self.yield_ready(p, now);
                        return;
                    }
                    now += self.config.cost.instr_overhead_us;
                }
                Step::Halt => {
                    self.procs.state[p] = PState::Halted;
                    self.procs.now[p] = now;
                    self.note_time(now);
                    if let Some(d) = self.backend.as_mut() {
                        d.log.events.push(RunEvent::Halt {
                            proc: p,
                            vtime_us: now.as_micros(),
                        });
                    }
                    return;
                }
                Step::Error(e) => {
                    self.runtime_error(p, e);
                    return;
                }
            }
        }
    }

    /// `true` when no queued event is due at or before `now`: the
    /// running process may then keep executing inline, because the
    /// yield-then-pop round trip through the heap would pop the very
    /// `Ready` event it pushed (ties break by push order, so only a
    /// strictly later heap top guarantees this). Skipping the round
    /// trip leaves the popped event sequence — and hence the trace —
    /// unchanged.
    fn can_run_ahead(&mut self, now: SimTime) -> bool {
        // `&mut`: peeking the calendar queue advances its day cursor.
        match self.queue.peek_key() {
            None => true,
            Some((t, _)) => t > now.as_micros(),
        }
    }

    /// The bookkeeping of [`Self::yield_ready`] without the heap round
    /// trip, for the [`Self::can_run_ahead`] fast path. Every caller is
    /// a run-ahead hit, so the counter lives here.
    fn mark_progress(&mut self, p: usize, now: SimTime) {
        self.procs.now[p] = now;
        self.note_time(now);
        self.run_ahead_hits += 1;
    }

    fn yield_ready(&mut self, p: usize, now: SimTime) {
        self.procs.now[p] = now;
        self.note_time(now);
        let epoch = self.epochs[p];
        self.push(now, Ev::Ready { p, epoch });
    }

    /// Index of the sender-side channel `from → to`, creating it on
    /// first use (a fresh channel has seen no send, so delta mode's
    /// first send on it is a full-support payload).
    fn out_chan(&mut self, from: usize, to: usize) -> usize {
        let chans = &mut self.out[from];
        match chans.binary_search_by_key(&(to as u32), |c| c.dest) {
            Ok(i) => i,
            Err(i) => {
                chans.insert(
                    i,
                    OutChan {
                        dest: to as u32,
                        last: SimTime::ZERO,
                        sent_own: 0,
                    },
                );
                i
            }
        }
    }

    /// Ticks `p`'s own clock component, which always equals its step
    /// count (every send, receive and checkpoint ticks both).
    fn tick(&mut self, p: usize) {
        self.procs.step[p] += 1;
        match self.delta.as_mut() {
            Some(d) => d.tick(p, self.procs.step[p]),
            None => self.procs.vc[p].tick(p),
        }
    }

    fn do_send(&mut self, p: usize, to: usize, bits: u64, stmt: StmtId, now: SimTime) {
        self.tick(p);
        let piggyback = if self.passive_hooks {
            self.procs.ckpt_seq[p]
        } else {
            self.hooks.piggyback(p, to, self.procs.ckpt_seq[p], now)
        };
        let jitter = if self.config.net.jitter_us > 0 {
            self.rng.gen_u64_inclusive(self.config.net.jitter_us)
        } else {
            0
        };
        let delay = self.config.net.base_delay_us(bits) + jitter;
        let sent_at = now + self.config.cost.send_overhead_us;
        let ci = self.out_chan(p, to);
        let chan = &mut self.out[p][ci];
        let deliver_at = SimTime((sent_at.as_micros() + delay).max(chan.last.as_micros()));
        chan.last = deliver_at;
        let id = MsgId(self.messages.len() as u64);
        let idx = self.messages.len();
        let send_vc = if let Some(d) = self.delta.as_mut() {
            // O(Δ) piggyback: the payload covers every component that
            // changed since the previous send on this channel, the own
            // component among them. The record itself gets an empty
            // placeholder — at large n, embedding full stamps in every
            // record is exactly what delta mode exists to avoid.
            let own = self.procs.step[p];
            d.push_payload(p, own, std::mem::replace(&mut chan.sent_own, own));
            VectorClock::new(0)
        } else {
            self.procs.vc[p].clone()
        };
        self.messages.push(MessageRecord {
            id,
            from: p,
            to,
            size_bits: bits,
            send_stmt: stmt,
            sent_at,
            send_vc,
            send_step: self.procs.step[p],
            piggyback,
            delivered_at: None,
            recv_at: None,
            recv_vc: None,
            recv_step: None,
            recv_stmt: None,
            rolled_back: false,
        });
        self.metrics.app_messages += 1;
        self.metrics.app_bits += bits;
        let (slot, gen) = self.arena.alloc(idx);
        self.push(deliver_at, Ev::Arrive { slot, gen });
    }

    /// Picks the next consumable message for `p` from `want` (None =
    /// any). FIFO per channel; for `any`, earliest delivery wins
    /// (ties: lowest sender rank — the channel list is sorted by
    /// sender, and only a strictly earlier delivery displaces a
    /// candidate). Frees the flight slot.
    fn pick_inbox(&mut self, p: usize, want: Option<usize>) -> Option<usize> {
        match want {
            Some(src) => {
                let ci = self.inbox[p]
                    .binary_search_by_key(&(src as u32), |c| c.src)
                    .ok()?;
                self.pop_chan(p, ci)
            }
            None => {
                let mut best: Option<(SimTime, usize)> = None;
                for (ci, c) in self.inbox[p].iter().enumerate() {
                    if c.head != NIL {
                        let m = self.arena.slots[c.head as usize].msg as usize;
                        let at = self.messages[m].delivered_at.expect("inboxed => delivered");
                        if best.is_none_or(|(bt, _)| at < bt) {
                            best = Some((at, ci));
                        }
                    }
                }
                best.and_then(|(_, ci)| self.pop_chan(p, ci))
            }
        }
    }

    /// Pops the head flight of inbox channel `ci` of process `p`,
    /// releasing its slot and returning the message index.
    fn pop_chan(&mut self, p: usize, ci: usize) -> Option<usize> {
        let c = &mut self.inbox[p][ci];
        if c.head == NIL {
            return None;
        }
        let s = c.head;
        let slot = &self.arena.slots[s as usize];
        let m = slot.msg as usize;
        c.head = slot.next;
        if c.head == NIL {
            c.tail = NIL;
        }
        self.arena.release(s);
        Some(m)
    }

    /// Completes a receive of message `m` by process `p` at local time
    /// `at`; returns the time after the receive (and any forced
    /// checkpoint).
    fn consume_message(&mut self, p: usize, m: usize, stmt: StmtId, at: SimTime) -> SimTime {
        let mut now = at;
        let piggyback = self.messages[m].piggyback;
        // A protocol may need several forced checkpoints to catch up
        // (e.g. index-based CIC when the sender is multiple indices
        // ahead); re-consult the hooks with the updated sequence number
        // until they are satisfied, with a generous runaway guard.
        let mut guard = 0u32;
        while !self.passive_hooks {
            let own_seq = self.procs.ckpt_seq[p];
            if self.hooks.on_recv(p, piggyback, own_seq, now) != RecvAction::ForceCheckpointFirst {
                break;
            }
            self.take_checkpoint(p, None, None, CkptTrigger::Forced, &mut now);
            guard += 1;
            if guard >= MAX_FORCED_PER_RECV {
                self.runtime_error(p, FORCED_RUNAWAY);
                return now;
            }
        }
        if let Some(d) = self.delta.as_mut() {
            // Merge the O(Δ) payload, stamping what it raises with the
            // receive event's own component (the tick below).
            d.merge(p, m, self.procs.step[p] + 1);
        } else {
            // Disjoint borrows: the sender's clock is read from the
            // message records while the receiver's is updated in place
            // — no clone.
            self.procs.vc[p].merge(&self.messages[m].send_vc);
        }
        self.tick(p);
        now += self.config.cost.instr_overhead_us;
        let rec = &mut self.messages[m];
        rec.recv_at = Some(now);
        // Delta mode leaves per-message receive stamps out of the
        // record (they would be O(n) each); checkpoint stamps carry the
        // causality the consistency checker needs.
        rec.recv_vc = self.delta.is_none().then(|| self.procs.vc[p].clone());
        rec.recv_step = Some(self.procs.step[p]);
        rec.recv_stmt = Some(stmt);
        let sent_at = rec.sent_at;
        if let Some(o) = self.obs.as_deref_mut() {
            o.msg_latency_us
                .record(now.saturating_sub(sent_at).as_micros());
        }
        now
    }

    fn take_checkpoint(
        &mut self,
        p: usize,
        stmt: Option<StmtId>,
        label: Option<Arc<str>>,
        trigger: CkptTrigger,
        now: &mut SimTime,
    ) {
        let coord = if self.passive_hooks {
            CoordinationCost::default()
        } else {
            self.hooks.coordination_cost(p, *now)
        };
        let compiled = self.compiled;
        self.tick(p);
        self.procs.ckpt_seq[p] += 1;
        let instance = match stmt {
            Some(sid) => {
                let e = &mut self.procs.insts_of_mut(p)[sid.0 as usize];
                *e += 1;
                *e
            }
            None => 0,
        };
        let start = *now;
        let stall = self.config.cost.ckpt_overhead_us + coord.stall_us;
        // Dense mode embeds the working clock; delta mode copies its
        // sorted entries into one sparse stamp — O(support), not O(n) —
        // shared (refcounted) between the record and the snapshot.
        let vc_stamp = if let Some(d) = self.delta.as_ref() {
            VectorClock::from_sorted_nonzero(self.config.nprocs, &d.clocks[p])
        } else {
            self.procs.vc[p].clone()
        };
        let base = p * self.procs.nslots;
        let bound_row = &self.procs.bound[base..base + self.procs.nslots];
        let snapshot = Snapshot {
            pc: self.procs.pc[p],
            vars: VarStore {
                names: compiled.var_names.clone(),
                values: self.procs.vars[base..base + self.procs.nslots].to_vec(),
                bound: self.procs.bound_arc[p]
                    .get_or_insert_with(|| bound_row.into())
                    .clone(),
            },
            vc: vc_stamp.clone(),
            ckpt_seq: self.procs.ckpt_seq[p],
            stmt_instances: StmtInstances(self.procs.insts_of(p).to_vec()),
            step: self.procs.step[p],
        };
        self.checkpoints.push(CheckpointRecord {
            proc: p,
            seq: self.procs.ckpt_seq[p],
            stmt,
            instance,
            label,
            trigger,
            start,
            durable_at: start + self.config.cost.ckpt_latency_us + coord.stall_us,
            vc: vc_stamp,
            step: self.procs.step[p],
            snapshot,
            rolled_back: false,
        });
        if let Some(d) = self.backend.as_mut() {
            let rec = self.checkpoints.last().expect("just pushed");
            let snap = d.ports[p].fill(SlotState {
                seq: rec.seq,
                trigger,
                label: rec.label.as_deref(),
                pc: rec.snapshot.pc,
                step: rec.step,
                values: &rec.snapshot.vars.values,
                bound: &rec.snapshot.vars.bound,
                vc: &rec.vc,
                stmt_instances: &rec.snapshot.stmt_instances.0,
            });
            if let Err(e) = d.store.commit(snap) {
                self.outcome
                    .get_or_insert(Outcome::RuntimeError(p, format!("backend commit: {e}")));
            }
            d.log.events.push(RunEvent::Checkpoint {
                proc: p,
                seq: rec.seq,
                trigger: trigger_name(trigger),
                vtime_us: start.as_micros(),
            });
        }
        *now = start + stall;
        if let Some(o) = self.obs.as_deref_mut() {
            o.on_ckpt_stall(p, start.as_micros(), now.as_micros());
        }
        self.metrics.ckpt_stall_us += stall;
        self.metrics.coord_stall_us += coord.stall_us;
        self.metrics.control_messages += coord.control_messages;
        self.metrics.control_bits += coord.control_bits;
        match trigger {
            CkptTrigger::AppStatement => self.metrics.app_checkpoints += 1,
            CkptTrigger::Timer => self.metrics.timer_checkpoints += 1,
            CkptTrigger::Forced => self.metrics.forced_checkpoints += 1,
            CkptTrigger::Coordinated => self.metrics.coordinated_checkpoints += 1,
        }
        if !self.passive_hooks {
            self.hooks.checkpoint_taken(p, trigger, *now);
        }
    }

    /// Index of the receiver-side channel `to ← src`, creating it on
    /// first delivery (the lazy replacement for the old n² inbox).
    fn in_chan(&mut self, to: usize, src: usize) -> usize {
        let chans = &mut self.inbox[to];
        match chans.binary_search_by_key(&(src as u32), |c| c.src) {
            Ok(i) => i,
            Err(i) => {
                chans.insert(
                    i,
                    InChan {
                        src: src as u32,
                        head: NIL,
                        tail: NIL,
                    },
                );
                self.inbox_channels += 1;
                i
            }
        }
    }

    fn deliver(&mut self, slot: u32, t: SimTime) {
        let m = self.arena.slots[slot as usize].msg as usize;
        self.messages[m].delivered_at = Some(t);
        let to = self.messages[m].to;
        let from = self.messages[m].from;
        let ci = self.in_chan(to, from);
        // Append to the channel's intrusive FIFO.
        self.arena.slots[slot as usize].next = NIL;
        let c = &mut self.inbox[to][ci];
        if c.tail == NIL {
            c.head = slot;
            c.tail = slot;
        } else {
            let prev = c.tail;
            c.tail = slot;
            self.arena.slots[prev as usize].next = slot;
        }
        if let Some(o) = self.obs.as_deref_mut() {
            o.messages_delivered += 1;
        }
        // Unblock a matching waiter.
        let (want, stmt, since) = match self.procs.state[to] {
            PState::Blocked { src, stmt, since } => (src, stmt, since),
            _ => return,
        };
        if want.is_some() && want != Some(from) {
            return;
        }
        let m2 = self
            .pick_inbox(to, want)
            .expect("arrival just enqueued a candidate");
        let at = SimTime(t.as_micros().max(since.as_micros()));
        self.metrics.recv_blocked_us += at - since;
        if let Some(o) = self.obs.as_deref_mut() {
            o.on_blocked(to, since.as_micros(), at.as_micros());
        }
        self.procs.state[to] = PState::Ready;
        let done = self.consume_message(to, m2, stmt, at);
        if self.outcome.is_some() {
            return;
        }
        self.procs.pc[to] += 1;
        if self.can_run_ahead(done) {
            self.mark_progress(to, done);
            self.execute(to, done);
        } else {
            self.yield_ready(to, done);
        }
    }

    fn handle_failure(&mut self, p: usize, t: SimTime) {
        let _span = acfc_obs::span("sim/recovery");
        // A failure of an already-halted process (or after global
        // completion) is ignored.
        if matches!(self.procs.state[p], PState::Halted)
            && self.procs.state.iter().all(|q| matches!(q, PState::Halted))
        {
            return;
        }
        self.metrics.failures += 1;
        let nprocs = self.config.nprocs;
        // The rollback `run_free` performs too; what follows it is the
        // engine's own: the store, the channels, re-scheduling, and the
        // restore from the trace's snapshots.
        let rb = crate::failure::rollback(
            &self.picker,
            &mut self.checkpoints,
            &mut self.messages,
            &self.procs.now,
        );
        if let Some(d) = self.backend.as_mut() {
            if let Err(o) = rb.discard_after(d.store) {
                self.outcome.get_or_insert(o);
            }
        }
        let resume = t + self.config.cost.recovery_us;
        self.metrics.recovery_us += self.config.cost.recovery_us * self.config.nprocs as u64;
        // Clear channel state: every live flight slot is cancelled
        // (bumping its generation, which invalidates any scheduled
        // arrival), inbox FIFOs are unlinked, and the sender-side
        // delivery watermarks reset. The channel entries themselves are
        // kept — the topology survives the rollback.
        for s in 0..self.arena.slots.len() {
            if self.arena.slots[s].msg != NIL {
                self.arena.release(s as u32);
            }
        }
        for chans in &mut self.inbox {
            for c in chans.iter_mut() {
                c.head = NIL;
                c.tail = NIL;
            }
        }
        for chans in &mut self.out {
            for c in chans.iter_mut() {
                c.last = SimTime::ZERO;
                c.sent_own = 0;
            }
        }
        // Re-schedule in-flight deliveries (fresh jitter, FIFO per
        // channel preserved by delivery-time monotonicity below).
        for &i in &rb.in_transit {
            let m = &self.messages[i];
            let (from, to, bits) = (m.from, m.to, m.size_bits);
            let jitter = if self.config.net.jitter_us > 0 {
                self.rng.gen_u64_inclusive(self.config.net.jitter_us)
            } else {
                0
            };
            let ci = self.out_chan(from, to);
            let chan = &mut self.out[from][ci];
            let deliver_at = SimTime(
                (resume.as_micros() + self.config.net.base_delay_us(bits) + jitter)
                    .max(chan.last.as_micros()),
            );
            chan.last = deliver_at;
            let (slot, gen) = self.arena.alloc(i);
            self.push(deliver_at, Ev::Arrive { slot, gen });
        }
        // Restore processes in place, reusing each process's existing
        // rows instead of allocating fresh ones. In delta mode the
        // sparse snapshot stamp becomes the working clock with every
        // entry stamped at the restored step; with the out-channels
        // reset above, the next send on each carries the full support —
        // always correct under max-merge.
        #[allow(clippy::needless_range_loop)]
        for q in 0..nprocs {
            self.epochs[q] += 1;
            let base = q * self.procs.nslots;
            let nslots = self.procs.nslots;
            match rb.restored[q] {
                Some(i) => {
                    let snap = &self.checkpoints[i].snapshot;
                    self.procs.pc[q] = snap.pc;
                    self.procs.vars[base..base + nslots].copy_from_slice(&snap.vars.values);
                    self.procs.bound[base..base + nslots].copy_from_slice(&snap.vars.bound);
                    self.procs.bound_arc[q] = Some(snap.vars.bound.clone());
                    match self.delta.as_mut() {
                        Some(d) => d.restore(q, Some(&snap.vc), snap.step),
                        None => self.procs.vc[q].clone_from(&snap.vc),
                    }
                    self.procs.ckpt_seq[q] = snap.ckpt_seq;
                    self.procs
                        .insts_of_mut(q)
                        .copy_from_slice(&snap.stmt_instances.0);
                    self.procs.step[q] = snap.step;
                }
                None => {
                    self.procs.pc[q] = 0;
                    // As with the map-based store, values reset to 0
                    // but binding state is untouched.
                    self.procs.vars[base..base + nslots].fill(0);
                    match self.delta.as_mut() {
                        Some(d) => d.restore(q, None, 0),
                        None => self.procs.vc[q] = VectorClock::new(nprocs),
                    }
                    self.procs.ckpt_seq[q] = 0;
                    self.procs.insts_of_mut(q).fill(0);
                    self.procs.step[q] = 0;
                }
            }
            self.procs.state[q] = PState::Ready;
            self.procs.now[q] = resume;
            let epoch = self.epochs[q];
            self.push(resume, Ev::Ready { p: q, epoch });
        }
        if let Some(d) = self.backend.as_mut() {
            d.log.events.push(RunEvent::Kill {
                proc: p,
                vtime_us: t.as_micros(),
            });
            d.log.events.push(RunEvent::Recovery {
                killed: p,
                vtime_us: resume.as_micros(),
                restored: rb.picked.clone(),
                redelivered: rb.in_transit.len(),
                lost_us: rb.lost_us,
            });
        }
        self.failures.push(FailureRecord {
            proc: p,
            at: t,
            restored_seq: rb.picked,
            latest_seq: rb.latest_seq,
            lost_us: rb.lost_us,
        });
        self.note_time(resume);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::compile;
    use acfc_mpsl::{parse, programs};

    fn quick(src: &str, n: usize) -> Trace {
        run(&compile(&parse(src).unwrap()), &SimConfig::new(n))
    }

    #[test]
    fn empty_program_completes() {
        let t = quick("program t; compute 1;", 2);
        assert!(t.completed());
        assert_eq!(t.metrics.app_messages, 0);
    }

    #[test]
    fn single_message_delivered_in_order() {
        let t = quick(
            "program t; if rank == 0 { send to 1 size 1000; } else { if rank == 1 { recv from 0; } }",
            2,
        );
        assert!(t.completed());
        assert_eq!(t.messages.len(), 1);
        let m = &t.messages[0];
        assert!(m.is_received());
        assert!(m.recv_at.unwrap() > m.sent_at);
        assert!(m.send_vc.happened_before(m.recv_vc.as_ref().unwrap()));
    }

    #[test]
    fn fifo_order_preserved_per_channel() {
        let t = quick(
            "program t; var i;
             if rank == 0 {
               for i in 0..5 { send to 1 size 10000; }
             } else {
               if rank == 1 { for i in 0..5 { recv from 0; } }
             }",
            2,
        );
        assert!(t.completed());
        let mut recvs: Vec<(SimTime, u64)> = t
            .messages
            .iter()
            .map(|m| (m.recv_at.unwrap(), m.send_step))
            .collect();
        recvs.sort();
        let steps: Vec<u64> = recvs.iter().map(|&(_, s)| s).collect();
        let mut sorted = steps.clone();
        sorted.sort();
        assert_eq!(steps, sorted, "receives out of send order");
    }

    #[test]
    fn blocking_recv_waits_for_sender() {
        let t = quick(
            "program t;
             if rank == 0 { compute 100; send to 1 size 8; } else {
               if rank == 1 { recv from 0; } }",
            2,
        );
        assert!(t.completed());
        assert!(t.metrics.recv_blocked_us > 0);
    }

    #[test]
    fn unmatched_recv_deadlocks() {
        let t = quick("program t; if rank == 0 { recv from 1; }", 2);
        assert_eq!(t.outcome, Outcome::Deadlock(vec![0]));
    }

    #[test]
    fn runtime_error_on_bad_rank() {
        let t = quick("program t; send to 99;", 2);
        assert!(matches!(t.outcome, Outcome::RuntimeError(_, _)));
    }

    #[test]
    fn step_limit_stops_infinite_loop() {
        let mut cfg = SimConfig::new(1);
        cfg.max_steps_per_proc = 1000;
        let t = run(
            &compile(&parse("program t; while 1 { compute 0; }").unwrap()),
            &cfg,
        );
        assert!(matches!(t.outcome, Outcome::StepLimit(0)));
    }

    #[test]
    fn jacobi_runs_and_checkpoints() {
        let t = run(&compile(&programs::jacobi(4)), &SimConfig::new(4));
        assert!(t.completed(), "{:?}", t.outcome);
        assert_eq!(t.checkpoint_counts(), vec![4, 4, 4, 4]);
        assert_eq!(t.metrics.app_checkpoints, 16);
        // 2 sends per proc per iteration.
        assert_eq!(t.metrics.app_messages, 4 * 4 * 2);
        assert_eq!(t.aligned_depth(), 4);
        assert!(t.straight_cut(4).is_some());
        assert!(t.straight_cut(5).is_none());
    }

    #[test]
    fn all_stock_programs_complete() {
        for p in programs::all_stock() {
            // fig6 requires even nprocs; use 4 everywhere.
            let t = run(&compile(&p), &SimConfig::new(4).with_inputs(vec![3, 7]));
            assert!(t.completed(), "{}: {:?}", p.name, t.outcome);
        }
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let p = programs::jacobi_odd_even(3);
        let c = compile(&p);
        let t1 = run(&c, &SimConfig::new(4).with_seed(9));
        let t2 = run(&c, &SimConfig::new(4).with_seed(9));
        assert_eq!(t1.finished_at, t2.finished_at);
        assert_eq!(t1.messages.len(), t2.messages.len());
        for (a, b) in t1.messages.iter().zip(&t2.messages) {
            assert_eq!(a.sent_at, b.sent_at);
            assert_eq!(a.recv_at, b.recv_at);
        }
    }

    #[test]
    fn different_seed_changes_timing() {
        let p = programs::jacobi(3);
        let c = compile(&p);
        let t1 = run(&c, &SimConfig::new(4).with_seed(1));
        let t2 = run(&c, &SimConfig::new(4).with_seed(2));
        // Jitter differs; makespan almost surely differs.
        assert_ne!(t1.finished_at, t2.finished_at);
    }

    #[test]
    fn vector_clocks_order_checkpoints_causally() {
        let t = run(&compile(&programs::pingpong_skewed(2)), &SimConfig::new(2));
        assert!(t.completed());
        // Rank 0 checkpoints before its send; rank 1 after its recv:
        // same-iteration checkpoints must be causally ordered.
        let c0 = t.live_checkpoints(0);
        let c1 = t.live_checkpoints(1);
        assert!(c0[0].vc.happened_before(&c1[0].vc));
    }

    #[test]
    fn recv_any_consumes_everything() {
        let t = quick(
            "program t;
             if rank == 0 { recv from any; recv from any; } else { send to 0 size 64; }",
            3,
        );
        assert!(t.completed());
        assert!(t.messages.iter().all(|m| m.is_received()));
    }

    #[test]
    fn failure_rolls_back_and_completes() {
        let p = programs::jacobi(5);
        let c = compile(&p);
        let cfg = SimConfig::new(2);
        // Fail rank 0 mid-run.
        let plan = FailurePlan::at(vec![(SimTime::from_millis(200), 0)]);
        let mut hooks = NoHooks;
        let t = run_with_failures(&c, &cfg, &mut hooks, plan, CutPicker::AlignedSeq);
        assert!(t.completed(), "{:?}", t.outcome);
        assert_eq!(t.metrics.failures, 1);
        assert_eq!(t.failures.len(), 1);
        // Final live state: every process finished all 5 checkpoints.
        assert_eq!(t.checkpoint_counts(), vec![5, 5]);
        // Some checkpoints were rolled back or re-executed.
        let failure_free = run(&c, &cfg);
        assert!(t.finished_at > failure_free.finished_at);
    }

    #[test]
    fn failure_before_any_checkpoint_restarts_from_scratch() {
        let p = programs::jacobi(2);
        let c = compile(&p);
        let cfg = SimConfig::new(2);
        let plan = FailurePlan::at(vec![(SimTime::from_micros(100), 1)]);
        let mut hooks = NoHooks;
        let t = run_with_failures(&c, &cfg, &mut hooks, plan, CutPicker::AlignedSeq);
        assert!(t.completed(), "{:?}", t.outcome);
        assert_eq!(t.failures[0].restored_seq, vec![None, None]);
        assert_eq!(t.checkpoint_counts(), vec![2, 2]);
    }

    #[test]
    fn repeated_failures_still_complete() {
        let p = programs::ring(4, 256);
        let c = compile(&p);
        let cfg = SimConfig::new(3);
        // ring(4) with 25 ms sweeps finishes in ~100 ms failure-free;
        // early, closely spaced failures all land inside the
        // (rollback-extended) run.
        let plan = FailurePlan::at(vec![
            (SimTime::from_millis(30), 0),
            (SimTime::from_millis(60), 1),
            (SimTime::from_millis(90), 2),
        ]);
        let mut hooks = NoHooks;
        let t = run_with_failures(&c, &cfg, &mut hooks, plan, CutPicker::AlignedSeq);
        assert!(t.completed(), "{:?}", t.outcome);
        assert_eq!(t.metrics.failures, 3);
        assert_eq!(t.checkpoint_counts(), vec![4, 4, 4]);
    }

    #[test]
    fn inbox_channels_track_topology_not_n_squared() {
        use crate::obs::SimObs;
        // jacobi on a ring: each process receives from exactly two
        // neighbours, so 8 procs materialise 16 inbox channels — not
        // the 64 the old eager n×n matrix allocated.
        let c = compile(&programs::jacobi(4));
        let mut obs = SimObs::counters();
        let t = run_observed(&c, &SimConfig::new(8), &mut obs);
        assert!(t.completed());
        assert_eq!(obs.inbox_channels, 16);
    }

    #[test]
    fn delta_mode_matches_dense_semantics_small_n() {
        use crate::config::ClockMode;
        for prog in [programs::jacobi(5), programs::jacobi_odd_even(4)] {
            let c = compile(&prog);
            let dense = run(&c, &SimConfig::new(4).with_clock_mode(ClockMode::Dense));
            let delta = run(&c, &SimConfig::new(4).with_clock_mode(ClockMode::Delta));
            assert_eq!(dense.finished_at, delta.finished_at);
            assert_eq!(dense.checkpoints.len(), delta.checkpoints.len());
            for (a, b) in dense.checkpoints.iter().zip(&delta.checkpoints) {
                assert_eq!(a.vc, b.vc, "{}: checkpoint stamp diverged", prog.name);
                assert!(b.vc.is_sparse());
                assert_eq!(a.step, b.step);
            }
        }
    }

    #[test]
    fn delta_mode_survives_rollback_with_equal_stamps() {
        use crate::config::ClockMode;
        let c = compile(&programs::jacobi(5));
        let plan = || FailurePlan::at(vec![(SimTime::from_millis(60), 0)]);
        let mut h1 = NoHooks;
        let mut h2 = NoHooks;
        let dense = run_with_failures(
            &c,
            &SimConfig::new(4).with_clock_mode(ClockMode::Dense),
            &mut h1,
            plan(),
            CutPicker::AlignedSeq,
        );
        let delta = run_with_failures(
            &c,
            &SimConfig::new(4).with_clock_mode(ClockMode::Delta),
            &mut h2,
            plan(),
            CutPicker::AlignedSeq,
        );
        assert!(dense.completed() && delta.completed());
        assert_eq!(dense.finished_at, delta.finished_at);
        assert_eq!(dense.checkpoints.len(), delta.checkpoints.len());
        for (a, b) in dense.checkpoints.iter().zip(&delta.checkpoints) {
            assert_eq!(a.vc, b.vc);
            assert_eq!(a.rolled_back, b.rolled_back);
        }
        assert_eq!(
            crate::consistency::straight_cut_failures(&dense),
            crate::consistency::straight_cut_failures(&delta)
        );
    }

    #[test]
    fn timer_hooks_generate_checkpoints() {
        use crate::hooks::TimerCheckpoints;
        let p = programs::jacobi(4);
        let c = compile(&p);
        let cfg = SimConfig::new(2);
        let mut hooks = TimerCheckpoints::new(2, 10_000, 1_000);
        let t = run_with_hooks(&c, &cfg, &mut hooks);
        assert!(t.completed());
        assert_eq!(t.metrics.app_checkpoints, 0, "app statements suppressed");
        assert!(t.metrics.timer_checkpoints > 0);
    }
}
