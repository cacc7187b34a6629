//! Deterministic scheduler: the runtime's replayable execution mode.
//!
//! Runs lowered workers under a virtual-time event scheduler that is a
//! *faithful structural mirror* of the simulator engine — the same
//! event queue discipline (time, then push order), the same run-ahead
//! fast path and inline budget, the same jitter RNG draw points — so
//! that, given the same program, configuration, coordinator, and kill
//! schedule, the recorded event order is bit-for-bit identical to the
//! simulator's golden traces. The differential tests pin exactly this.
//!
//! The mirror is deliberately *not* a re-export of the simulator: it
//! dispatches through the runtime's [`CheckpointCoordinator`] /
//! [`StateBackend`] trait pair (the simulator dispatches through
//! [`Hooks`](acfc_sim::Hooks)), commits every checkpoint to the
//! backend, restores kill victims from the backend-backed recovery
//! line, and emits the [`RunEvent`] log the CLI renders. Subtleties the
//! mirror must preserve (learned the hard way — see the differential
//! tests):
//!
//! - The inline budget accumulates across run-ahead continuations; a
//!   scheduler that yields after every time-advancing instruction
//!   resets it per resume, shifting yield points and hence the global
//!   interleaving and the jitter draw order.
//! - Ties in the event queue break by push order (`heap_seq`), so the
//!   *sequence of pushes* must match, not just the set of events.
//! - Dense vector clocks only: delta-clock transport is a simulator
//!   scale optimisation and out of scope here (workers are real OS
//!   threads in free mode; n stays small).

use crate::coordinator::CheckpointCoordinator;
use crate::report::{outcome_name, trigger_name, RunEvent, RunReport};
use acfc_mpsl::lowered::{eval_ops, Op, SlotEnv};
use acfc_mpsl::{EvalError, StmtId};
use acfc_obs::LocalHist;
use acfc_sim::backend::{self, SlotNames, SlotSnapshot, SlotState, StateBackend};
use acfc_sim::bytecode::{Compiled, ExprRef, LowInstr, LowSrc, NO_LABEL};
use acfc_sim::failure::RecoveryView;
use acfc_sim::trace::{
    CheckpointRecord, CkptTrigger, FailureRecord, MessageRecord, Metrics, MsgId, Outcome, Snapshot,
    Trace, VarStore,
};
use acfc_sim::{
    CalendarQueue, CoordinationCost, CutPicker, FailurePlan, SimConfig, SimTime, VectorClock,
};
use acfc_util::rng::Rng;
use std::sync::Arc;

/// Result of a deterministic run: the simulator-comparable trace plus
/// the runtime event log.
#[derive(Debug)]
pub struct DetRun {
    /// Full trace in the simulator's format — directly comparable
    /// (field by field) against `acfc_sim::run*` output.
    pub trace: Trace,
    /// Ordered runtime events (checkpoints, kills, recoveries, halts).
    pub events: Vec<RunEvent>,
    /// Final bound variables per worker, sorted by name.
    pub final_vars: Vec<Vec<(String, i64)>>,
}

impl DetRun {
    /// Wraps the run as a [`RunReport`] — `RunStart`/`RunEnd` framing
    /// around the event log plus end-of-run aggregates — so both
    /// schedulers emit the same JSONL transcript shape.
    pub fn into_report(self, coordinator: &str, backend: &str) -> RunReport {
        let vtime_us = self.trace.finished_at.as_micros();
        let checkpoints = self
            .events
            .iter()
            .filter(|e| matches!(e, RunEvent::Checkpoint { .. }))
            .count() as u64;
        let messages = self.trace.messages.len() as u64;
        let failures = self.trace.failures.len() as u64;
        let mut events = Vec::with_capacity(self.events.len() + 2);
        events.push(RunEvent::RunStart {
            program: self.trace.program.clone(),
            nprocs: self.trace.nprocs,
            coordinator: coordinator.to_string(),
            backend: backend.to_string(),
            mode: "det",
        });
        events.extend(self.events);
        events.push(RunEvent::RunEnd {
            outcome: outcome_name(&self.trace.outcome),
            vtime_us,
            checkpoints,
            messages,
            failures,
        });
        RunReport {
            program: self.trace.program.clone(),
            nprocs: self.trace.nprocs,
            coordinator: coordinator.to_string(),
            backend: backend.to_string(),
            mode: "det",
            outcome: self.trace.outcome.clone(),
            vtime_us,
            events,
            final_vars: self.final_vars,
        }
    }
}

/// Runs `compiled` deterministically: virtual time, seeded jitter, the
/// coordinator deciding checkpoint placement, every checkpoint
/// committed to `backend`, and kills from `plan` recovered via the
/// coordinator's cut picker over the backend's committed set.
///
/// # Panics
///
/// Panics when `config` selects delta-clock mode (`n` above
/// [`acfc_sim::DENSE_CLOCK_MAX`] under `ClockMode::Auto`): the
/// deterministic runtime supports dense clocks only.
pub fn run_det(
    compiled: &Compiled,
    config: &SimConfig,
    coordinator: &mut dyn CheckpointCoordinator,
    backend: &mut dyn StateBackend,
    plan: FailurePlan,
) -> DetRun {
    assert!(
        !config.clock_mode.is_delta(config.nprocs),
        "the deterministic runtime supports dense vector clocks only \
         (n <= DENSE_CLOCK_MAX or ClockMode::Dense)"
    );
    let picker = coordinator.picker();
    DetEngine::new(compiled, config, coordinator, backend, plan, picker).run()
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Ev {
    Ready { p: usize, epoch: u64 },
    Arrive { slot: u32, gen: u32 },
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

const NIL: u32 = u32::MAX;

struct FlightSlot {
    msg: u32,
    gen: u32,
    next: u32,
}

struct MsgArena {
    slots: Vec<FlightSlot>,
    free: Vec<u32>,
}

impl MsgArena {
    fn new() -> MsgArena {
        MsgArena {
            slots: Vec::new(),
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

struct InChan {
    src: u32,
    head: u32,
    tail: u32,
}

struct OutChan {
    dest: u32,
    last: SimTime,
}

struct Procs {
    nslots: usize,
    stmt_limit: usize,
    vars: Vec<i64>,
    bound: Vec<bool>,
    /// Shared copy of each process's `bound` row handed to snapshots;
    /// dropped on a false→true flip, so the common checkpoint bumps a
    /// refcount.
    bound_arc: Vec<Option<Arc<[bool]>>>,
    pc: Vec<usize>,
    vc: Vec<VectorClock>,
    state: Vec<PState>,
    ckpt_seq: Vec<u64>,
    stmt_instances: Vec<u64>,
    step: Vec<u64>,
    executed: Vec<u64>,
    now: Vec<SimTime>,
}

impl Procs {
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

struct DetEngine<'a> {
    compiled: &'a Compiled,
    config: &'a SimConfig,
    coord: &'a mut dyn CheckpointCoordinator,
    backend: &'a mut dyn StateBackend,
    picker: CutPicker,
    procs: Procs,
    epochs: Vec<u64>,
    queue: CalendarQueue<Ev>,
    heap_seq: u64,
    arena: MsgArena,
    inbox: Vec<Vec<InChan>>,
    out: Vec<Vec<OutChan>>,
    messages: Vec<MessageRecord>,
    checkpoints: Vec<CheckpointRecord>,
    /// The variable slot table in name order.
    names: SlotNames,
    /// One reusable portable snapshot per worker: what gets committed.
    ports: Vec<SlotSnapshot>,
    failures: Vec<FailureRecord>,
    metrics: Metrics,
    rng: Rng,
    outcome: Option<Outcome>,
    max_time: SimTime,
    inline_budget: u32,
    params: Vec<Option<i64>>,
    eval_stack: Vec<i64>,
    use_timer: bool,
    passive: bool,
    events_processed: u64,
    queue_depth: LocalHist,
    events: Vec<RunEvent>,
}

const INLINE_BUDGET: u32 = 256;

impl<'a> DetEngine<'a> {
    fn new(
        compiled: &'a Compiled,
        config: &'a SimConfig,
        coord: &'a mut dyn CheckpointCoordinator,
        backend: &'a mut dyn StateBackend,
        plan: FailurePlan,
        picker: CutPicker,
    ) -> DetEngine<'a> {
        let n = config.nprocs;
        assert!(n >= 1, "need at least one worker");
        let mut params: Vec<Option<i64>> = vec![None; compiled.param_names.len()];
        let slot_of = |name: &str| compiled.param_names.iter().position(|p| p == name);
        for (k, v) in &compiled.params {
            if let Some(s) = slot_of(k) {
                params[s] = Some(*v);
            }
        }
        for (k, v) in &config.param_overrides {
            if let Some(s) = slot_of(k) {
                params[s] = Some(*v);
            }
        }
        let nslots = compiled.var_names.len();
        let declared = compiled.vars.len();
        let stmt_limit = compiled.stmt_limit as usize;
        let mut bound = vec![false; n * nslots];
        for p in 0..n {
            bound[p * nslots..p * nslots + declared].fill(true);
        }
        let procs = Procs {
            nslots,
            stmt_limit,
            vars: vec![0; n * nslots],
            bound,
            bound_arc: vec![None; n],
            pc: vec![0; n],
            vc: (0..n).map(|_| VectorClock::new(n)).collect(),
            state: vec![PState::Ready; n],
            ckpt_seq: vec![0; n],
            stmt_instances: vec![0; n * stmt_limit],
            step: vec![0; n],
            executed: vec![0; n],
            now: vec![SimTime::ZERO; n],
        };
        let use_timer = coord.uses_timers();
        let passive = coord.passive();
        let names = SlotNames::new(compiled.var_names.clone());
        let mut engine = DetEngine {
            compiled,
            config,
            coord,
            backend,
            picker,
            procs,
            epochs: vec![0; n],
            queue: CalendarQueue::new(),
            heap_seq: 0,
            arena: MsgArena::new(),
            inbox: (0..n).map(|_| Vec::new()).collect(),
            out: (0..n).map(|_| Vec::new()).collect(),
            messages: Vec::new(),
            checkpoints: Vec::new(),
            ports: (0..n)
                .map(|p| SlotSnapshot::new(names.clone(), p, n))
                .collect(),
            names,
            failures: Vec::new(),
            metrics: Metrics::default(),
            rng: Rng::seed_from_u64(config.seed),
            outcome: None,
            max_time: SimTime::ZERO,
            inline_budget: INLINE_BUDGET,
            params,
            eval_stack: Vec::new(),
            use_timer,
            passive,
            events_processed: 0,
            queue_depth: LocalHist::new(),
            events: Vec::new(),
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

    fn run(mut self) -> DetRun {
        let _span = acfc_obs::span("runtime/det_loop");
        while let Some((t_us, _, ev)) = self.queue.pop() {
            if self.outcome.is_some() {
                break;
            }
            let t = SimTime(t_us);
            self.note_time(t);
            self.events_processed += 1;
            if self.events_processed & 7 == 0 {
                self.queue_depth.record(self.queue.len() as u64);
            }
            match ev {
                Ev::Ready { p, epoch } => {
                    if epoch == self.epochs[p] && self.procs.state[p] == PState::Ready {
                        self.execute(p, t);
                    }
                }
                Ev::Arrive { slot, gen } => {
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
        let final_vars: Vec<Vec<(String, i64)>> = (0..self.config.nprocs)
            .map(|p| {
                self.names
                    .bound_pairs(self.procs.vars_of(p), self.procs.bound_of(p))
            })
            .collect();
        let trace = Trace {
            nprocs: self.config.nprocs,
            program: self.compiled.name.clone(),
            messages: self.messages,
            checkpoints: self.checkpoints,
            failures: self.failures,
            proc_end: self.procs.now.clone(),
            finished_at: self.max_time,
            metrics: self.metrics,
            queue_depth: self.queue_depth.snap(),
            outcome,
        };
        DetRun {
            trace,
            events: self.events,
            final_vars,
        }
    }

    fn runtime_error(&mut self, p: usize, e: impl std::fmt::Display) {
        self.outcome = Some(Outcome::RuntimeError(p, e.to_string()));
    }

    fn eval_ref(&mut self, p: usize, r: ExprRef) -> Result<i64, EvalError> {
        let compiled = self.compiled;
        let vars = self.procs.vars_of(p);
        let bound = self.procs.bound_of(p);
        match r.ops(&compiled.ops) {
            [Op::Const(v)] => return Ok(*v),
            [Op::Load(s)] => {
                let s = *s as usize;
                return if bound[s] {
                    Ok(vars[s])
                } else {
                    Err(EvalError::UnboundVar(compiled.var_names[s].clone()))
                };
            }
            _ => {}
        }
        let env = SlotEnv {
            rank: p as i64,
            nprocs: self.config.nprocs as i64,
            vars,
            bound,
            var_names: &compiled.var_names,
            params: &self.params,
            param_names: &compiled.param_names,
            inputs: &self.config.inputs,
        };
        eval_ops(r.ops(&compiled.ops), &env, &mut self.eval_stack)
    }

    fn resolve_rank(&mut self, p: usize, expr: ExprRef) -> Option<usize> {
        match self.eval_ref(p, expr) {
            Ok(v) if v >= 0 && (v as usize) < self.config.nprocs => Some(v as usize),
            Ok(v) => {
                self.runtime_error(p, format!("rank expression evaluated to {v}, out of range"));
                None
            }
            Err(e) => {
                self.runtime_error(p, e);
                None
            }
        }
    }

    fn execute(&mut self, p: usize, t: SimTime) {
        let mut now = t;
        let mut inline = 0u32;
        let max_steps = self.config.max_steps_per_proc;
        let instr_us = self.config.cost.instr_overhead_us;
        loop {
            if self.outcome.is_some() {
                return;
            }
            if self.procs.executed[p] >= max_steps {
                self.outcome = Some(Outcome::StepLimit(p));
                return;
            }
            if self.use_timer && self.coord.timer_due(p, now) {
                self.procs.executed[p] += 1;
                let trigger = self.coord.timer_trigger(p);
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
            let pc = self.procs.pc[p];
            let instr = self.compiled.lowered[pc];
            self.procs.executed[p] += 1;
            match instr {
                LowInstr::Compute { cost } => {
                    let c = match self.eval_ref(p, cost) {
                        Ok(v) if v >= 0 => v as u64,
                        Ok(v) => {
                            self.runtime_error(p, format!("negative compute cost {v}"));
                            return;
                        }
                        Err(e) => {
                            self.runtime_error(p, e);
                            return;
                        }
                    };
                    now +=
                        c * self.config.cost.compute_unit_us + self.config.cost.instr_overhead_us;
                    self.procs.pc[p] = pc + 1;
                    if self.can_run_ahead(now) {
                        self.mark_progress(p, now);
                        continue;
                    }
                    self.yield_ready(p, now);
                    return;
                }
                LowInstr::Assign { var, value } => {
                    match self.eval_ref(p, value) {
                        Ok(v) => {
                            let at = p * self.procs.nslots + var as usize;
                            self.procs.vars[at] = v;
                            if !self.procs.bound[at] {
                                self.procs.bound[at] = true;
                                self.procs.bound_arc[p] = None;
                            }
                        }
                        Err(e) => {
                            self.runtime_error(p, e);
                            return;
                        }
                    }
                    now += instr_us;
                    self.procs.pc[p] = pc + 1;
                }
                LowInstr::Jump { target } => {
                    now += instr_us;
                    self.procs.pc[p] = target as usize;
                }
                LowInstr::JumpIfFalse { cond, target } => {
                    let v = match self.eval_ref(p, cond) {
                        Ok(v) => v,
                        Err(e) => {
                            self.runtime_error(p, e);
                            return;
                        }
                    };
                    now += instr_us;
                    self.procs.pc[p] = if v == 0 { target as usize } else { pc + 1 };
                }
                LowInstr::Send {
                    dest,
                    size_bits,
                    stmt,
                } => {
                    let Some(to) = self.resolve_rank(p, dest) else {
                        return;
                    };
                    let bits = match self.eval_ref(p, size_bits) {
                        Ok(v) if v >= 0 => v as u64,
                        Ok(v) => {
                            self.runtime_error(p, format!("negative message size {v}"));
                            return;
                        }
                        Err(e) => {
                            self.runtime_error(p, e);
                            return;
                        }
                    };
                    self.do_send(p, to, bits, stmt, now);
                    now += self.config.cost.send_overhead_us;
                    self.procs.pc[p] = pc + 1;
                }
                LowInstr::Recv { src, stmt } => {
                    let want: Option<usize> = match src {
                        LowSrc::Any => None,
                        LowSrc::Rank(e) => {
                            let Some(s) = self.resolve_rank(p, e) else {
                                return;
                            };
                            Some(s)
                        }
                    };
                    if let Some(m) = self.pick_inbox(p, want) {
                        now = self.consume_message(p, m, stmt, now);
                        self.procs.pc[p] = pc + 1;
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
                LowInstr::Checkpoint { stmt, label } => {
                    self.procs.pc[p] = pc + 1;
                    if self.passive || self.coord.take_app_checkpoint(p, now) {
                        let label = if label == NO_LABEL {
                            None
                        } else {
                            Some(self.compiled.labels[label as usize].clone())
                        };
                        self.take_checkpoint(
                            p,
                            Some(stmt),
                            label,
                            CkptTrigger::AppStatement,
                            &mut now,
                        );
                        if self.can_run_ahead(now) {
                            self.mark_progress(p, now);
                            continue;
                        }
                        self.yield_ready(p, now);
                        return;
                    } else {
                        now += instr_us;
                    }
                }
                LowInstr::Halt => {
                    self.procs.state[p] = PState::Halted;
                    self.procs.now[p] = now;
                    self.note_time(now);
                    self.events.push(RunEvent::Halt {
                        proc: p,
                        vtime_us: now.as_micros(),
                    });
                    return;
                }
            }
        }
    }

    fn can_run_ahead(&mut self, now: SimTime) -> bool {
        match self.queue.peek_key() {
            None => true,
            Some((t, _)) => t > now.as_micros(),
        }
    }

    fn mark_progress(&mut self, p: usize, now: SimTime) {
        self.procs.now[p] = now;
        self.note_time(now);
    }

    fn yield_ready(&mut self, p: usize, now: SimTime) {
        self.procs.now[p] = now;
        self.note_time(now);
        let epoch = self.epochs[p];
        self.push(now, Ev::Ready { p, epoch });
    }

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
                    },
                );
                i
            }
        }
    }

    fn do_send(&mut self, p: usize, to: usize, bits: u64, stmt: StmtId, now: SimTime) {
        self.procs.vc[p].tick(p);
        self.procs.step[p] += 1;
        let piggyback = if self.passive {
            self.procs.ckpt_seq[p]
        } else {
            self.coord.piggyback(p, to, self.procs.ckpt_seq[p], now)
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
        self.messages.push(MessageRecord {
            id,
            from: p,
            to,
            size_bits: bits,
            send_stmt: stmt,
            sent_at,
            send_vc: self.procs.vc[p].clone(),
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

    fn consume_message(&mut self, p: usize, m: usize, stmt: StmtId, at: SimTime) -> SimTime {
        let mut now = at;
        let piggyback = self.messages[m].piggyback;
        let mut guard = 0u32;
        while !self.passive {
            let own_seq = self.procs.ckpt_seq[p];
            if self.coord.on_recv(p, piggyback, own_seq, now)
                != acfc_sim::RecvAction::ForceCheckpointFirst
            {
                break;
            }
            self.take_checkpoint(p, None, None, CkptTrigger::Forced, &mut now);
            guard += 1;
            assert!(
                guard < 100_000,
                "coordinator demanded forced checkpoints without converging"
            );
        }
        self.procs.vc[p].merge(&self.messages[m].send_vc);
        self.procs.vc[p].tick(p);
        self.procs.step[p] += 1;
        now += self.config.cost.instr_overhead_us;
        let rec = &mut self.messages[m];
        rec.recv_at = Some(now);
        rec.recv_vc = Some(self.procs.vc[p].clone());
        rec.recv_step = Some(self.procs.step[p]);
        rec.recv_stmt = Some(stmt);
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
        let coord = if self.passive {
            CoordinationCost::default()
        } else {
            self.coord.coordination_cost(p, *now)
        };
        self.procs.vc[p].tick(p);
        self.procs.step[p] += 1;
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
        let vc_stamp = self.procs.vc[p].clone();
        let base = p * self.procs.nslots;
        let bound_row = &self.procs.bound[base..base + self.procs.nslots];
        let bound = self.procs.bound_arc[p]
            .get_or_insert_with(|| bound_row.into())
            .clone();
        let snapshot = Snapshot {
            pc: self.procs.pc[p],
            vars: VarStore::from_slots(
                self.compiled.var_names.clone(),
                self.procs.vars_of(p).to_vec(),
                bound,
            ),
            vc: vc_stamp.clone(),
            ckpt_seq: self.procs.ckpt_seq[p],
            stmt_instances: backend::stmt_instances(
                self.procs
                    .insts_of(p)
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c > 0)
                    .map(|(i, &c)| (i as u32, c)),
            ),
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
        let rec = self.checkpoints.last().expect("just pushed");
        let snap = self.ports[p].fill(SlotState {
            seq: rec.seq,
            trigger,
            label: rec.label.as_deref(),
            pc: rec.snapshot.pc,
            step: rec.step,
            values: rec.snapshot.vars.values(),
            bound: rec.snapshot.vars.bound_row(),
            vc: &rec.vc,
            stmt_instances: self.procs.insts_of(p),
        });
        if let Err(e) = self.backend.commit(snap) {
            self.outcome
                .get_or_insert(Outcome::RuntimeError(p, format!("backend commit: {e}")));
        }
        self.events.push(RunEvent::Checkpoint {
            proc: p,
            seq: self.procs.ckpt_seq[p],
            trigger: trigger_name(trigger),
            vtime_us: start.as_micros(),
        });
        *now = start + stall;
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
        if !self.passive {
            self.coord.checkpoint_taken(p, trigger, *now);
        }
    }

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
        let _span = acfc_obs::span("runtime/det_recovery");
        if matches!(self.procs.state[p], PState::Halted)
            && self.procs.state.iter().all(|q| matches!(q, PState::Halted))
        {
            return;
        }
        self.events.push(RunEvent::Kill {
            proc: p,
            vtime_us: t.as_micros(),
        });
        self.metrics.failures += 1;
        let nprocs = self.config.nprocs;
        let mut live: Vec<Vec<&CheckpointRecord>> = vec![Vec::new(); nprocs];
        for c in &self.checkpoints {
            if !c.rolled_back {
                live[c.proc].push(c);
            }
        }
        let view = RecoveryView {
            live: &live,
            messages: &self.messages,
        };
        let picked = self.picker.pick(&view);
        let latest_seq: Vec<u64> = live
            .iter()
            .map(|v| v.last().map(|c| c.seq).unwrap_or(0))
            .collect();
        drop(live);
        let mut cut_step = vec![0u64; nprocs];
        let mut restored: Vec<Option<usize>> = vec![None; nprocs];
        for (i, c) in self.checkpoints.iter().enumerate() {
            if !c.rolled_back && picked[c.proc] == Some(c.seq) {
                cut_step[c.proc] = c.snapshot.step;
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
        let mut lost_us = 0u64;
        #[allow(clippy::needless_range_loop)]
        for q in 0..nprocs {
            let back_to = restored[q]
                .map(|i| self.checkpoints[i].start)
                .unwrap_or(SimTime::ZERO);
            lost_us += self.procs.now[q].saturating_sub(back_to).as_micros();
        }
        for c in &mut self.checkpoints {
            if !c.rolled_back && c.step > cut_step[c.proc] {
                c.rolled_back = true;
            }
        }
        for (q, p) in picked.iter().enumerate() {
            if let Err(e) = self.backend.discard_after(q, p.unwrap_or(0)) {
                self.outcome
                    .get_or_insert(Outcome::RuntimeError(q, format!("backend discard: {e}")));
            }
        }
        let resume = t + self.config.cost.recovery_us;
        self.metrics.recovery_us += self.config.cost.recovery_us * nprocs as u64;
        let mut redeliveries: Vec<(usize, SimTime)> = Vec::new();
        for (i, m) in self.messages.iter_mut().enumerate() {
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
                redeliveries.push((i, resume));
            }
        }
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
            }
        }
        redeliveries.sort_by_key(|&(i, _)| (self.messages[i].from, self.messages[i].send_step));
        let redelivered = redeliveries.len();
        for (i, at) in redeliveries {
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
                (at.as_micros() + self.config.net.base_delay_us(bits) + jitter)
                    .max(chan.last.as_micros()),
            );
            chan.last = deliver_at;
            let (slot, gen) = self.arena.alloc(i);
            self.push(deliver_at, Ev::Arrive { slot, gen });
        }
        #[allow(clippy::needless_range_loop)]
        for q in 0..nprocs {
            self.epochs[q] += 1;
            let base = q * self.procs.nslots;
            let nslots = self.procs.nslots;
            match restored[q] {
                Some(i) => {
                    let snap = &self.checkpoints[i].snapshot;
                    self.procs.pc[q] = snap.pc;
                    self.procs.vars[base..base + nslots].copy_from_slice(snap.vars.values());
                    self.procs.bound[base..base + nslots].copy_from_slice(snap.vars.bound_row());
                    self.procs.bound_arc[q] = Some(snap.vars.bound_row().clone());
                    self.procs.vc[q].clone_from(&snap.vc);
                    self.procs.ckpt_seq[q] = snap.ckpt_seq;
                    let insts = self.procs.insts_of_mut(q);
                    insts.fill(0);
                    for (sid, count) in snap.stmt_instances.iter_nonzero() {
                        insts[sid as usize] = count;
                    }
                    self.procs.step[q] = snap.step;
                }
                None => {
                    self.procs.pc[q] = 0;
                    // Values reset to 0; binding state is untouched
                    // (mirrors the simulator's restore-to-initial).
                    self.procs.vars[base..base + nslots].fill(0);
                    self.procs.vc[q] = VectorClock::new(nprocs);
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
        self.events.push(RunEvent::Recovery {
            killed: p,
            vtime_us: resume.as_micros(),
            restored: picked.clone(),
            redelivered,
            lost_us,
        });
        self.failures.push(FailureRecord {
            proc: p,
            at: t,
            restored_seq: picked,
            latest_seq,
            lost_us,
        });
        self.note_time(resume);
    }
}
