//! Free-running scheduler: one OS thread per worker over real `mpsc`
//! channels.
//!
//! Each worker steps its lowered instruction stream on its own thread
//! through the simulator's interpreter ([`Stepper`]), advancing a
//! *virtual* cost-model clock (the same cost charges as the engine's)
//! that drives protocol timers and the
//! [`FailureInjector`]'s kill schedule. Receives block on the worker's
//! real channel; sends go through real `Sender` handles. Interleaving
//! is whatever the OS scheduler produces — the point of this mode is
//! that checkpointing correctness must not depend on event order, and
//! the kill/recover tests drive exactly that.
//!
//! Recovery is stop-the-world and *backend-driven*: when a worker
//! crashes, every worker winds down and the controller reads the
//! committed snapshot set back out of the [`StateBackend`] (nothing is
//! recovered from worker memory — the dead thread's state is gone).
//! Records built from the loaded snapshots, together with the send log
//! (which holds the same [`MessageRecord`]s the engine's trace does),
//! go through the engine's own [`rollback`]: the same picker, the same
//! orphan/in-transit classification by per-process step numbers, the
//! same lost-work sum. What stays here is the restore — every worker
//! from the loaded snapshot of its restored checkpoint — and the
//! re-injection: the in-transit messages become packets preloaded into
//! the next round's channels before the workers respawn. A store that
//! cannot list, load or discard ends the run with a runtime error.

use crate::coordinator::CheckpointCoordinator;
use crate::report::{trigger_name, RunEvent, RunReport};
use acfc_mpsl::StmtId;
use acfc_sim::backend::{
    BackendError, SlotNames, SlotSnapshot, SlotState, StateBackend, StateSnapshot,
};
use acfc_sim::bytecode::Compiled;
use acfc_sim::failure::rollback;
use acfc_sim::step::{Step, Stepper};
use acfc_sim::trace::{CheckpointRecord, CkptTrigger, MessageRecord, MsgId, Outcome};
use acfc_sim::{
    CoordinationCost, CutPicker, FailurePlan, RecvAction, SimConfig, SimTime, VectorClock,
    FORCED_RUNAWAY, MAX_FORCED_PER_RECV,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Kill schedule for the failure injector: `(virtual_time_us, proc)`
/// pairs. A kill fires the first time the victim's virtual clock
/// reaches the deadline; each entry fires at most once.
#[derive(Debug, Clone, Default)]
pub struct FailureInjector {
    kills: Vec<(u64, usize)>,
}

impl FailureInjector {
    /// No kills.
    pub fn none() -> FailureInjector {
        FailureInjector::default()
    }

    /// Kills from explicit `(virtual_time_us, proc)` pairs.
    pub fn at(kills: Vec<(u64, usize)>) -> FailureInjector {
        let mut f = FailureInjector { kills };
        f.kills.sort_unstable();
        f
    }

    /// Parses one CLI kill spec `proc@vtime_us` (e.g. `1@250000`).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed specs.
    pub fn parse_spec(spec: &str) -> Result<(u64, usize), String> {
        let (p, t) = spec
            .split_once('@')
            .ok_or_else(|| format!("kill spec '{spec}' is not of the form proc@vtime_us"))?;
        let proc: usize = p
            .trim()
            .parse()
            .map_err(|_| format!("kill spec '{spec}': bad proc '{p}'"))?;
        let at: u64 = t
            .trim()
            .parse()
            .map_err(|_| format!("kill spec '{spec}': bad virtual time '{t}'"))?;
        Ok((at, proc))
    }

    /// Adds one kill.
    pub fn push(&mut self, at_us: u64, proc: usize) {
        self.kills.push((at_us, proc));
        self.kills.sort_unstable();
    }

    /// The schedule as a simulator [`FailurePlan`] (for the
    /// deterministic scheduler).
    pub fn plan(&self) -> FailurePlan {
        FailurePlan::at(
            self.kills
                .iter()
                .map(|&(at, p)| (SimTime::from_micros(at), p))
                .collect(),
        )
    }

    /// Whether any kills are scheduled.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty()
    }
}

/// Wall-clock knobs of the free-running scheduler (virtual time is
/// governed by [`SimConfig`]'s cost model, not by these).
#[derive(Debug, Clone)]
pub struct FreeConfig {
    /// Poll interval while blocked on a receive (abort checks).
    pub poll: Duration,
    /// A worker blocked longer than this without any arrival declares
    /// the run deadlocked.
    pub idle_timeout: Duration,
    /// Upper bound on recovery rounds (defence against a kill schedule
    /// that keeps restoring to a state that re-crashes).
    pub max_recoveries: u32,
}

impl Default for FreeConfig {
    fn default() -> FreeConfig {
        FreeConfig {
            poll: Duration::from_millis(1),
            idle_timeout: Duration::from_secs(5),
            max_recoveries: 64,
        }
    }
}

/// One wire message between workers.
struct Packet {
    from: usize,
    /// Index into the shared send log.
    idx: usize,
    /// The sender's clock at the send.
    vc: VectorClock,
    piggyback: u64,
    bits: u64,
    sent_at: u64,
}

struct Shared<'a> {
    config: &'a SimConfig,
    /// The variable slot table in name order.
    names: SlotNames,
    coord: Mutex<&'a mut dyn CheckpointCoordinator>,
    backend: Mutex<&'a mut (dyn StateBackend + Send)>,
    /// Every message sent, rolled-back ones included: what recovery
    /// classifies against the cut and re-injects from.
    log: Mutex<Vec<MessageRecord>>,
    events: Mutex<Vec<RunEvent>>,
    /// Virtual commit time of each `(proc, seq)` — lost-work accounting
    /// (the portable snapshot itself carries no clock).
    ckpt_times: Mutex<BTreeMap<(usize, u64), u64>>,
    abort: AtomicBool,
    crash: Mutex<Option<(usize, u64)>>,
    fatal: Mutex<Option<Outcome>>,
    use_timer: bool,
    passive: bool,
}

impl Shared<'_> {
    fn raise(&self, o: Outcome) {
        self.fatal.lock().unwrap().get_or_insert(o);
        self.abort.store(true, Ordering::SeqCst);
    }

    fn event(&self, e: RunEvent) {
        self.events.lock().unwrap().push(e);
    }
}

/// Everything a worker thread owns between rounds; survives recovery in
/// the controller (restored from the backend, not from here).
#[derive(Clone)]
struct WorkerState {
    pc: usize,
    vars: Vec<i64>,
    bound: Vec<bool>,
    vc: VectorClock,
    step: u64,
    ckpt_seq: u64,
    insts: Vec<u64>,
    executed: u64,
    now: u64,
    halted: bool,
}

impl WorkerState {
    /// Restores this worker from a loaded snapshot. A snapshot naming a
    /// variable or statement the program lacks is corrupt.
    fn restore(&mut self, s: &StateSnapshot, names: &SlotNames) -> Result<(), BackendError> {
        let corrupt = |what: String| BackendError::Corrupt(format!("process {}: {what}", s.proc));
        self.pc = s.pc;
        self.vars.fill(0);
        self.bound.fill(false);
        for (name, v) in &s.vars {
            let slot = names
                .slot_of(name)
                .ok_or_else(|| corrupt(format!("unknown variable `{name}`")))?;
            self.vars[slot] = *v;
            self.bound[slot] = true;
        }
        // Dense, mutable clock (from_entries alone yields an immutable
        // sparse stamp unfit for tick/merge).
        self.vc = VectorClock::new(s.nprocs);
        self.vc
            .merge(&VectorClock::from_entries(s.nprocs, s.vc.iter().copied()));
        self.ckpt_seq = s.seq;
        self.insts.fill(0);
        for &(sid, c) in &s.stmt_instances {
            *self
                .insts
                .get_mut(sid as usize)
                .ok_or_else(|| corrupt(format!("unknown statement {sid}")))? = c;
        }
        self.step = s.step;
        Ok(())
    }
}

struct Worker<'s, 'a> {
    rank: usize,
    st: WorkerState,
    shared: &'s Shared<'a>,
    rx: Receiver<Packet>,
    txs: Vec<Sender<Packet>>,
    /// Earliest unfired kill deadline for this rank this round.
    kill_at: Option<u64>,
    /// Buffered arrivals per source rank.
    pending: Vec<VecDeque<Packet>>,
    /// This worker's interpreter.
    stepper: Stepper<'a>,
    /// The reusable portable snapshot this worker commits.
    port: SlotSnapshot,
    fc: FreeConfig,
}

enum Exit {
    Halted,
    /// Aborted (crash elsewhere, fatal error, or own kill).
    Wound,
}

impl Worker<'_, '_> {
    /// Fires this round's kill if the virtual clock has reached it.
    fn check_kill(&mut self) -> bool {
        if let Some(at) = self.kill_at {
            if self.st.now >= at {
                let mut c = self.shared.crash.lock().unwrap();
                if c.is_none() {
                    *c = Some((self.rank, at));
                }
                drop(c);
                self.shared.abort.store(true, Ordering::SeqCst);
                return true;
            }
        }
        false
    }

    fn take_checkpoint(&mut self, stmt: Option<StmtId>, label: Option<&str>, t: CkptTrigger) {
        let rank = self.rank;
        let coord = if self.shared.passive {
            CoordinationCost::default()
        } else {
            self.shared
                .coord
                .lock()
                .unwrap()
                .coordination_cost(rank, SimTime::from_micros(self.st.now))
        };
        self.st.vc.tick(rank);
        self.st.step += 1;
        self.st.ckpt_seq += 1;
        if let Some(sid) = stmt {
            self.st.insts[sid.0 as usize] += 1;
        }
        let snap = self.port.fill(SlotState {
            seq: self.st.ckpt_seq,
            trigger: t,
            label,
            pc: self.st.pc,
            step: self.st.step,
            values: &self.st.vars,
            bound: &self.st.bound,
            vc: &self.st.vc,
            stmt_instances: &self.st.insts,
        });
        if let Err(e) = self.shared.backend.lock().unwrap().commit(snap) {
            self.shared
                .raise(Outcome::RuntimeError(rank, format!("backend commit: {e}")));
            return;
        }
        self.shared
            .ckpt_times
            .lock()
            .unwrap()
            .insert((rank, self.st.ckpt_seq), self.st.now);
        self.shared.event(RunEvent::Checkpoint {
            proc: rank,
            seq: self.st.ckpt_seq,
            trigger: trigger_name(t),
            vtime_us: self.st.now,
        });
        self.st.now += self.shared.config.cost.ckpt_overhead_us + coord.stall_us;
        if !self.shared.passive {
            self.shared.coord.lock().unwrap().checkpoint_taken(
                rank,
                t,
                SimTime::from_micros(self.st.now),
            );
        }
    }

    fn do_send(&mut self, to: usize, bits: u64, stmt: StmtId) {
        let rank = self.rank;
        self.st.vc.tick(rank);
        self.st.step += 1;
        let piggyback = if self.shared.passive {
            self.st.ckpt_seq
        } else {
            self.shared.coord.lock().unwrap().piggyback(
                rank,
                to,
                self.st.ckpt_seq,
                SimTime::from_micros(self.st.now),
            )
        };
        let sent_at = self.st.now + self.shared.config.cost.send_overhead_us;
        let idx = {
            let mut log = self.shared.log.lock().unwrap();
            let idx = log.len();
            log.push(MessageRecord {
                id: MsgId(idx as u64),
                from: rank,
                to,
                size_bits: bits,
                send_stmt: stmt,
                sent_at: SimTime::from_micros(sent_at),
                send_vc: self.st.vc.clone(),
                send_step: self.st.step,
                piggyback,
                delivered_at: None,
                recv_at: None,
                recv_vc: None,
                recv_step: None,
                recv_stmt: None,
                rolled_back: false,
            });
            idx
        };
        // A closed channel means the run is already winding down.
        let _ = self.txs[to].send(Packet {
            from: rank,
            idx,
            vc: self.st.vc.clone(),
            piggyback,
            bits,
            sent_at,
        });
        self.st.now += self.shared.config.cost.send_overhead_us;
    }

    /// Takes a buffered packet matching `want` (lowest sender rank
    /// first for `any` — arrival order between channels is up to the OS
    /// anyway).
    fn take_pending(&mut self, want: Option<usize>) -> Option<Packet> {
        match want {
            Some(src) => self.pending[src].pop_front(),
            None => self
                .pending
                .iter_mut()
                .find(|q| !q.is_empty())
                .and_then(|q| q.pop_front()),
        }
    }

    /// Blocks until a packet matching `want` is available, buffering
    /// others. Returns `None` on abort or idle timeout.
    fn wait_for(&mut self, want: Option<usize>) -> Option<Packet> {
        let start = Instant::now();
        loop {
            if let Some(p) = self.take_pending(want) {
                return Some(p);
            }
            if self.shared.abort.load(Ordering::SeqCst) {
                return None;
            }
            match self.rx.recv_timeout(self.fc.poll) {
                Ok(p) => {
                    let from = p.from;
                    self.pending[from].push_back(p);
                }
                Err(RecvTimeoutError::Timeout) => {
                    if start.elapsed() > self.fc.idle_timeout {
                        self.shared.raise(Outcome::Deadlock(vec![self.rank]));
                        return None;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // All senders gone: either everyone halted (then a
                    // blocked recv is a deadlock) or the run aborted.
                    if !self.shared.abort.load(Ordering::SeqCst) {
                        self.shared.raise(Outcome::Deadlock(vec![self.rank]));
                    }
                    return None;
                }
            }
        }
    }

    /// Completes a receive of `p`; `false` when the coordinator's
    /// forced checkpoints never satisfied it (the run is then over).
    fn consume(&mut self, p: Packet) -> bool {
        let rank = self.rank;
        if !self.shared.passive {
            let mut guard = 0u32;
            loop {
                let act = self.shared.coord.lock().unwrap().on_recv(
                    rank,
                    p.piggyback,
                    self.st.ckpt_seq,
                    SimTime::from_micros(self.st.now),
                );
                if act != RecvAction::ForceCheckpointFirst {
                    break;
                }
                self.take_checkpoint(None, None, CkptTrigger::Forced);
                guard += 1;
                if guard >= MAX_FORCED_PER_RECV {
                    self.shared
                        .raise(Outcome::RuntimeError(rank, FORCED_RUNAWAY.into()));
                    return false;
                }
            }
        }
        self.st.vc.merge(&p.vc);
        self.st.vc.tick(rank);
        self.st.step += 1;
        // Virtual arrival: the message cannot be seen before it spent
        // its modelled latency in the network.
        let arrive = p.sent_at + self.shared.config.net.base_delay_us(p.bits);
        self.st.now = self.st.now.max(arrive) + self.shared.config.cost.instr_overhead_us;
        self.shared.log.lock().unwrap()[p.idx].recv_step = Some(self.st.step);
        true
    }

    fn run(mut self) -> (WorkerState, Exit) {
        let max_steps = self.shared.config.max_steps_per_proc;
        let instr_us = self.shared.config.cost.instr_overhead_us;
        loop {
            if self.shared.abort.load(Ordering::SeqCst) || self.check_kill() {
                return (self.st, Exit::Wound);
            }
            if self.st.executed >= max_steps {
                self.shared.raise(Outcome::StepLimit(self.rank));
                return (self.st, Exit::Wound);
            }
            if self.shared.use_timer {
                let due = self
                    .shared
                    .coord
                    .lock()
                    .unwrap()
                    .timer_checkpoint_due(self.rank, SimTime::from_micros(self.st.now));
                if due {
                    self.st.executed += 1;
                    let trigger = self.shared.coord.lock().unwrap().timer_trigger(self.rank);
                    self.take_checkpoint(None, None, trigger);
                    continue;
                }
            }
            self.st.executed += 1;
            let step = self.stepper.step(
                self.rank,
                &mut self.st.pc,
                &mut self.st.vars,
                &mut self.st.bound,
            );
            match step {
                Step::Local { cost_us }
                | Step::Bound { cost_us }
                | Step::Compute { cost_us, .. } => self.st.now += cost_us,
                Step::Send { to, bits, stmt } => self.do_send(to, bits, stmt),
                Step::Recv { want, .. } => {
                    let Some(packet) = self.wait_for(want) else {
                        return (self.st, Exit::Wound);
                    };
                    if !self.consume(packet) {
                        return (self.st, Exit::Wound);
                    }
                    self.st.pc += 1;
                }
                Step::Checkpoint { stmt, label } => {
                    let take = self.shared.passive
                        || self
                            .shared
                            .coord
                            .lock()
                            .unwrap()
                            .take_app_checkpoint(self.rank, SimTime::from_micros(self.st.now));
                    if take {
                        let label = label.map(|l| &**l);
                        self.take_checkpoint(Some(stmt), label, CkptTrigger::AppStatement);
                    } else {
                        self.st.now += instr_us;
                    }
                }
                Step::Halt => {
                    self.st.halted = true;
                    self.shared.event(RunEvent::Halt {
                        proc: self.rank,
                        vtime_us: self.st.now,
                    });
                    return (self.st, Exit::Halted);
                }
                Step::Error(e) => {
                    self.shared.raise(Outcome::RuntimeError(self.rank, e));
                    return (self.st, Exit::Wound);
                }
            }
        }
    }
}

/// Runs `compiled` on live OS threads. See the module docs for the
/// execution and recovery model.
pub fn run_free(
    compiled: &Compiled,
    config: &SimConfig,
    coordinator: &mut dyn CheckpointCoordinator,
    backend: &mut (dyn StateBackend + Send),
    injector: &FailureInjector,
    fc: &FreeConfig,
) -> RunReport {
    let _span = acfc_obs::span("runtime/free_run");
    let n = config.nprocs;
    assert!(n >= 1, "need at least one worker");
    let picker = coordinator.picker();
    let coordinator_name = coordinator.name().to_string();
    let use_timer = coordinator.uses_timers();
    let passive = coordinator.passive();
    let backend_name = backend.name().to_string();

    let nslots = compiled.var_names.len();
    let declared = compiled.vars.len();
    let stmt_limit = compiled.stmt_limit as usize;
    let mut states: Vec<WorkerState> = (0..n)
        .map(|_| {
            let mut bound = vec![false; nslots];
            bound[..declared].fill(true);
            WorkerState {
                pc: 0,
                vars: vec![0; nslots],
                bound,
                vc: VectorClock::new(n),
                step: 0,
                ckpt_seq: 0,
                insts: vec![0; stmt_limit],
                executed: 0,
                now: 0,
                halted: false,
            }
        })
        .collect();

    let shared = Shared {
        config,
        names: SlotNames::new(compiled.var_names.clone()),
        coord: Mutex::new(coordinator),
        backend: Mutex::new(backend),
        log: Mutex::new(Vec::new()),
        events: Mutex::new(Vec::new()),
        ckpt_times: Mutex::new(BTreeMap::new()),
        abort: AtomicBool::new(false),
        crash: Mutex::new(None),
        fatal: Mutex::new(None),
        use_timer,
        passive,
    };

    let mut kills = injector.kills.clone();
    let mut preload: Vec<Packet> = Vec::new();
    let mut failures = 0u64;
    let mut recoveries = 0u32;
    let outcome;

    loop {
        // Fresh channels each round: nothing stale survives a rollback.
        let mut txs = Vec::with_capacity(n);
        let mut rxs = VecDeque::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel::<Packet>();
            txs.push(tx);
            rxs.push_back(rx);
        }
        for p in preload.drain(..) {
            let to = shared.log.lock().unwrap()[p.idx].to;
            let _ = txs[to].send(p);
        }
        let round_states: Vec<Option<(WorkerState, Exit)>> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (rank, st) in states.iter().enumerate() {
                if st.halted {
                    // Drop the halted worker's receiver; senders to it
                    // get a closed channel, which they ignore.
                    rxs.pop_front();
                    handles.push(None);
                    continue;
                }
                let worker = Worker {
                    rank,
                    st: st.clone(),
                    shared: &shared,
                    rx: rxs.pop_front().expect("one receiver per rank"),
                    txs: txs.clone(),
                    kill_at: kills
                        .iter()
                        .filter(|&&(_, p)| p == rank)
                        .map(|&(at, _)| at)
                        .min(),
                    pending: (0..n).map(|_| VecDeque::new()).collect(),
                    stepper: Stepper::new(compiled, config),
                    port: SlotSnapshot::new(shared.names.clone(), rank, n),
                    fc: fc.clone(),
                };
                handles.push(Some(scope.spawn(move || worker.run())));
            }
            drop(txs);
            handles
                .into_iter()
                .map(|h| h.map(|h| h.join().expect("worker thread panicked")))
                .collect()
        });
        for (rank, r) in round_states.into_iter().enumerate() {
            if let Some((st, _)) = r {
                states[rank] = st;
            }
        }

        if let Some(o) = shared.fatal.lock().unwrap().take() {
            outcome = o;
            break;
        }
        let crash = shared.crash.lock().unwrap().take();
        if let Some((victim, at)) = crash {
            failures += 1;
            recoveries += 1;
            if recoveries > fc.max_recoveries {
                outcome = Outcome::RuntimeError(
                    victim,
                    format!("recovery limit ({}) exceeded", fc.max_recoveries),
                );
                break;
            }
            // This kill has fired; it must not fire again after restore.
            if let Some(i) = kills.iter().position(|&(t, p)| p == victim && t == at) {
                kills.remove(i);
            }
            shared.abort.store(false, Ordering::SeqCst);
            shared.event(RunEvent::Kill {
                proc: victim,
                vtime_us: at,
            });
            match recover(&shared, &picker, &mut states, victim, at) {
                Ok(packets) => preload = packets,
                Err(o) => {
                    outcome = o;
                    break;
                }
            }
            continue;
        }
        if states.iter().all(|s| s.halted) {
            outcome = Outcome::Completed;
        } else {
            outcome = Outcome::Deadlock(
                states
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| !s.halted)
                    .map(|(i, _)| i)
                    .collect(),
            );
        }
        break;
    }

    let vtime_us = states.iter().map(|s| s.now).max().unwrap_or(0);
    let final_vars: Vec<Vec<(String, i64)>> = states
        .iter()
        .map(|s| shared.names.bound_pairs(&s.vars, &s.bound))
        .collect();
    let messages = shared.log.into_inner().unwrap().len() as u64;
    RunReport {
        program: compiled.name.clone(),
        nprocs: n,
        coordinator: coordinator_name,
        backend: backend_name,
        mode: "free",
        outcome,
        vtime_us,
        events: shared.events.into_inner().unwrap(),
        final_vars,
    }
    .framed(messages, failures)
}

/// Stop-the-world recovery: rolls back over records built from the
/// store's committed set and over the send log ([`rollback`]), restores
/// every worker from the loaded snapshot of its restored checkpoint, and
/// returns the in-transit packets to re-inject into the next round's
/// channels. A failing store ends the run with the returned outcome.
fn recover(
    shared: &Shared<'_>,
    picker: &CutPicker,
    states: &mut [WorkerState],
    victim: usize,
    at: u64,
) -> Result<Vec<Packet>, Outcome> {
    let n = shared.config.nprocs;
    let load_err = |e: BackendError| Outcome::RuntimeError(victim, format!("backend load: {e}"));
    let mut backend = shared.backend.lock().unwrap();
    let loaded: Vec<StateSnapshot> = backend
        .committed()
        .map_err(load_err)?
        .into_iter()
        .map(|(p, seq)| backend.load(p, seq))
        .collect::<Result<_, _>>()
        .map_err(load_err)?;
    // The portable snapshot carries no clock: `start` is the virtual
    // time this run committed it at, so lost work is the engine's sum.
    let times = shared.ckpt_times.lock().unwrap();
    let mut records = Vec::with_capacity(loaded.len());
    for s in &loaded {
        if s.proc >= n || s.nprocs != n {
            let e = format!(
                "snapshot of process {} of {} in a run of {n}",
                s.proc, s.nprocs
            );
            return Err(load_err(BackendError::Corrupt(e)));
        }
        let snapshot = s.to_snapshot();
        records.push(CheckpointRecord {
            proc: s.proc,
            seq: s.seq,
            stmt: None,
            instance: 0,
            label: s.label.as_deref().map(Into::into),
            trigger: s.trigger,
            start: SimTime::from_micros(times.get(&(s.proc, s.seq)).copied().unwrap_or(0)),
            durable_at: SimTime::ZERO,
            vc: snapshot.vc.clone(),
            step: s.step,
            snapshot,
            rolled_back: false,
        });
    }
    drop(times);
    let now: Vec<SimTime> = states.iter().map(|s| SimTime::from_micros(s.now)).collect();
    let mut log = shared.log.lock().unwrap();
    let rb = rollback(picker, &mut records, &mut log, &now);
    rb.discard_after(&mut **backend)?;
    drop(backend);
    let resume = at + shared.config.cost.recovery_us;
    let preload: Vec<Packet> = rb
        .in_transit
        .iter()
        .map(|&i| {
            let m = &log[i];
            Packet {
                from: m.from,
                idx: i,
                vc: m.send_vc.clone(),
                piggyback: m.piggyback,
                bits: m.size_bits,
                // Redelivery happens after the recovery pause.
                sent_at: resume,
            }
        })
        .collect();
    drop(log);
    for (st, restored) in states.iter_mut().zip(&rb.restored) {
        match restored {
            Some(i) => st.restore(&loaded[*i], &shared.names).map_err(load_err)?,
            None => {
                st.pc = 0;
                // Values reset to 0; binding state is untouched
                // (mirrors the simulator's restore-to-initial).
                st.vars.fill(0);
                st.vc = VectorClock::new(n);
                st.ckpt_seq = 0;
                st.insts.fill(0);
                st.step = 0;
            }
        }
        st.halted = false;
        st.now = resume;
    }
    shared.event(RunEvent::Recovery {
        killed: victim,
        vtime_us: resume,
        restored: rb.picked,
        redelivered: preload.len(),
        lost_us: rb.lost_us,
    });
    Ok(preload)
}
