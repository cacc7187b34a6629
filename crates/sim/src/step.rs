//! The MPSL interpreter: one lowered instruction at a time.
//!
//! Every scheduler executes a process by calling [`Stepper::step`] in a
//! loop and acting on the [`Step`] it returns — the discrete-event
//! [`engine`](crate::engine) and the runtime's free-running worker
//! threads alike, so both run the same program by construction. The
//! stepper owns what an instruction *means*: expression evaluation
//! against the process's variable slots, rank resolution, the pc
//! advance, the runtime-error messages, and the cost model's
//! per-instruction charges. The scheduler owns how a process is
//! *scheduled*: its clock, channels, blocking, checkpoint records, step
//! budget and kills.

use crate::bytecode::{Compiled, ExprRef, LowInstr, LowSrc};
use crate::config::SimConfig;
use acfc_mpsl::lowered::{eval_ops, Op, SlotEnv};
use acfc_mpsl::{EvalError, StmtId};
use std::fmt::Display;
use std::sync::Arc;

/// What one executed instruction asks of its scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step<'a> {
    /// An assignment, jump or branch costing `cost_us`.
    Local {
        /// Virtual time the instruction took.
        cost_us: u64,
    },
    /// An assignment that bound its slot for the first time, so the
    /// process's binding row changed; costs `cost_us`.
    Bound {
        /// Virtual time the instruction took.
        cost_us: u64,
    },
    /// A `compute` statement.
    Compute {
        /// Virtual time the instruction took, overhead included.
        cost_us: u64,
        /// The modelled computation alone.
        work_us: u64,
    },
    /// Send `bits` to rank `to`.
    Send {
        /// Destination rank (in range).
        to: usize,
        /// Message size.
        bits: u64,
        /// Originating statement.
        stmt: StmtId,
    },
    /// A blocking receive from `want` (`None` = any sender). The pc
    /// stays on the receive: the scheduler advances it once a message is
    /// consumed, so a checkpoint forced before delivery records the
    /// receive's pc.
    Recv {
        /// Source rank (in range), or any.
        want: Option<usize>,
        /// Originating statement.
        stmt: StmtId,
    },
    /// A `checkpoint` statement; whether it is taken is the protocol's
    /// call, and a skipped one costs the instruction overhead.
    Checkpoint {
        /// Originating statement.
        stmt: StmtId,
        /// The statement's label, if any.
        label: Option<&'a Arc<str>>,
    },
    /// Normal termination; the pc stays on the `Halt`.
    Halt,
    /// A runtime error: the run ends with this message.
    Error(String),
}

/// Interprets one compiled program under one configuration. Processes
/// differ only in their rank and registers, which every call passes in;
/// the stepper itself holds the run's parameter bindings and a reusable
/// evaluation stack.
pub struct Stepper<'a> {
    compiled: &'a Compiled,
    config: &'a SimConfig,
    /// Parameter values by slot, shared by all processes (parameters
    /// are rank-independent); `None` = referenced but never bound.
    params: Vec<Option<i64>>,
    /// Scratch stack reused by every expression evaluation.
    stack: Vec<i64>,
    /// Hoisted from `config`: the step loop is the simulator's hottest.
    nprocs: usize,
    instr_us: u64,
    unit_us: u64,
}

impl<'a> Stepper<'a> {
    /// A stepper for `compiled` with `config`'s parameter overrides,
    /// inputs and cost model.
    pub fn new(compiled: &'a Compiled, config: &'a SimConfig) -> Stepper<'a> {
        Stepper {
            compiled,
            config,
            params: compiled.bind_params(&config.param_overrides),
            stack: Vec::new(),
            nprocs: config.nprocs,
            instr_us: config.cost.instr_overhead_us,
            unit_us: config.cost.compute_unit_us,
        }
    }

    /// Executes the instruction at `*pc` for process `rank` with
    /// variable slots `vars` / `bound`, advancing `*pc` past everything
    /// but a receive, a halt and an error.
    #[inline(always)]
    pub fn step(
        &mut self,
        rank: usize,
        pc: &mut usize,
        vars: &mut [i64],
        bound: &mut [bool],
    ) -> Step<'a> {
        let at = *pc;
        let instr_us = self.instr_us;
        match self.compiled.lowered[at] {
            LowInstr::Compute { cost } => {
                let units = match self.eval(cost, rank, vars, bound) {
                    Ok(v) if v >= 0 => v as u64,
                    Ok(v) => return Step::Error(fail(format_args!("negative compute cost {v}"))),
                    Err(e) => return Step::Error(fail(e)),
                };
                *pc = at + 1;
                let work_us = units * self.unit_us;
                Step::Compute {
                    cost_us: work_us + instr_us,
                    work_us,
                }
            }
            LowInstr::Assign { var, value } => {
                let v = match self.eval(value, rank, vars, bound) {
                    Ok(v) => v,
                    Err(e) => return Step::Error(fail(e)),
                };
                *pc = at + 1;
                let s = var as usize;
                vars[s] = v;
                if bound[s] {
                    Step::Local { cost_us: instr_us }
                } else {
                    bound[s] = true;
                    Step::Bound { cost_us: instr_us }
                }
            }
            LowInstr::Jump { target } => {
                *pc = target as usize;
                Step::Local { cost_us: instr_us }
            }
            LowInstr::JumpIfFalse { cond, target } => {
                let v = match self.eval(cond, rank, vars, bound) {
                    Ok(v) => v,
                    Err(e) => return Step::Error(fail(e)),
                };
                *pc = if v == 0 { target as usize } else { at + 1 };
                Step::Local { cost_us: instr_us }
            }
            LowInstr::Send {
                dest,
                size_bits,
                stmt,
            } => {
                let to = match self.resolve_rank(dest, rank, vars, bound) {
                    Ok(to) => to,
                    Err(e) => return Step::Error(e),
                };
                let bits = match self.eval(size_bits, rank, vars, bound) {
                    Ok(v) if v >= 0 => v as u64,
                    Ok(v) => return Step::Error(fail(format_args!("negative message size {v}"))),
                    Err(e) => return Step::Error(fail(e)),
                };
                *pc = at + 1;
                Step::Send { to, bits, stmt }
            }
            LowInstr::Recv { src, stmt } => {
                let want = match src {
                    LowSrc::Any => None,
                    LowSrc::Rank(e) => match self.resolve_rank(e, rank, vars, bound) {
                        Ok(from) => Some(from),
                        Err(e) => return Step::Error(e),
                    },
                };
                Step::Recv { want, stmt }
            }
            LowInstr::Checkpoint { stmt, label } => {
                *pc = at + 1;
                Step::Checkpoint {
                    stmt,
                    label: self.compiled.label(label),
                }
            }
            LowInstr::Halt => Step::Halt,
        }
    }

    /// Kept out of line: inlined into every arm it bloats the step loop
    /// and measured slower.
    #[inline(never)]
    fn eval(
        &mut self,
        r: ExprRef,
        rank: usize,
        vars: &[i64],
        bound: &[bool],
    ) -> Result<i64, EvalError> {
        let compiled = self.compiled;
        let ops = r.ops(&compiled.ops);
        // The two dominant shapes — a folded constant and a plain
        // variable read — need none (or almost none) of the SlotEnv,
        // so resolve them before paying for its construction.
        match ops {
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
            rank: rank as i64,
            nprocs: self.nprocs as i64,
            vars,
            bound,
            var_names: &compiled.var_names,
            params: &self.params,
            param_names: &compiled.param_names,
            inputs: &self.config.inputs,
        };
        eval_ops(ops, &env, &mut self.stack)
    }

    /// Evaluates a rank expression; out of range is a runtime error.
    fn resolve_rank(
        &mut self,
        r: ExprRef,
        rank: usize,
        vars: &[i64],
        bound: &[bool],
    ) -> Result<usize, String> {
        match self.eval(r, rank, vars, bound) {
            Ok(v) if v >= 0 && (v as usize) < self.nprocs => Ok(v as usize),
            Ok(v) => Err(fail(format_args!(
                "rank expression evaluated to {v}, out of range"
            ))),
            Err(e) => Err(fail(e)),
        }
    }
}

/// A runtime error's message, built out of line: no instruction's fast
/// path pays for formatting.
#[cold]
#[inline(never)]
fn fail(e: impl Display) -> String {
    e.to_string()
}
