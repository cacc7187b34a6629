//! Compilation of MPSL programs to a flat instruction sequence.
//!
//! The simulator does not interpret the AST directly: structured control
//! flow is compiled to jumps so that per-process execution state is a
//! single program counter plus a variable store — which is exactly what a
//! checkpoint snapshot needs to capture.
//!
//! There is one instruction form, [`LowInstr`]: `Copy` instructions whose
//! expressions are [`ExprRef`] ranges into one shared constant-folded
//! postfix [`Op`] pool, and whose variable and parameter names are
//! interned into dense slot indices ([`Compiled::var_names`] /
//! [`Compiled::param_names`]). Each instruction is lowered as it is
//! emitted, in program-counter order, so slot numbers, pool offsets and
//! label indices follow first appearance in the code. A program counter —
//! including the `pc` captured in checkpoint snapshots — is an index
//! into [`Compiled::lowered`]; [`crate::step`] interprets it.

use acfc_mpsl::lowered::{lower_expr, Op, SlotResolver};
use acfc_mpsl::{BinOp, Block, Expr, Program, RecvSrc, StmtId, StmtKind};
use std::collections::HashMap;
use std::sync::Arc;

/// A range of a [`Compiled::ops`] pool holding one lowered expression
/// in postfix order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExprRef {
    /// First op index.
    pub start: u32,
    /// Number of ops.
    pub len: u32,
}

impl ExprRef {
    /// The ops of this expression within `pool`.
    #[inline]
    pub fn ops<'a>(&self, pool: &'a [Op]) -> &'a [Op] {
        &pool[self.start as usize..(self.start + self.len) as usize]
    }
}

/// Sentinel for "no label" in [`LowInstr::Checkpoint`].
pub const NO_LABEL: u32 = u32::MAX;

/// Lowered receive source.
#[derive(Debug, Clone, Copy)]
pub enum LowSrc {
    /// Receive from any sender.
    Any,
    /// Receive from the rank this expression evaluates to.
    Rank(ExprRef),
}

/// One instruction. Statement ids are kept only where a scheduler
/// records them (sends, receives, checkpoints).
#[derive(Debug, Clone, Copy)]
pub enum LowInstr {
    /// Local computation costing `cost` expression value (in compute
    /// units of simulated time).
    Compute {
        /// Cost expression.
        cost: ExprRef,
    },
    /// Assignment to variable slot `var`.
    Assign {
        /// Target variable slot.
        var: u32,
        /// Right-hand side.
        value: ExprRef,
    },
    /// Send a message.
    Send {
        /// Destination rank expression.
        dest: ExprRef,
        /// Size in bits.
        size_bits: ExprRef,
        /// Originating statement.
        stmt: StmtId,
    },
    /// Blocking receive.
    Recv {
        /// Source spec.
        src: LowSrc,
        /// Originating statement.
        stmt: StmtId,
    },
    /// Take a checkpoint.
    Checkpoint {
        /// Originating statement (the paper's static checkpoint node id).
        stmt: StmtId,
        /// Index into [`Compiled::labels`], or [`NO_LABEL`].
        label: u32,
    },
    /// Unconditional jump.
    Jump {
        /// Target pc.
        target: u32,
    },
    /// Jump when the condition evaluates to zero.
    JumpIfFalse {
        /// Condition.
        cond: ExprRef,
        /// Target pc when false.
        target: u32,
    },
    /// Normal termination.
    Halt,
}

/// A compiled program: the shared instruction sequence every process
/// executes (SPMD), plus metadata.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// Program name.
    pub name: String,
    /// Default parameter bindings from the program header.
    pub params: Vec<(String, i64)>,
    /// Declared variables (all initialised to 0).
    pub vars: Vec<String>,
    /// Flat code; `Halt` terminated.
    pub lowered: Vec<LowInstr>,
    /// The shared postfix op pool [`ExprRef`]s point into.
    pub ops: Vec<Op>,
    /// Variable slot names: the declared variables first (in
    /// declaration order), then any undeclared names the code assigns
    /// or reads.
    pub var_names: Arc<[String]>,
    /// Parameter slot names: declared parameters first, then any
    /// undeclared names the code references.
    pub param_names: Vec<String>,
    /// Checkpoint label table ([`LowInstr::Checkpoint`] indexes this).
    /// `Arc<str>` so recording a labelled checkpoint is a refcount
    /// bump, not a heap copy.
    pub labels: Vec<Arc<str>>,
    /// One past the largest statement id appearing in the code (the
    /// size of dense per-statement tables).
    pub stmt_limit: u32,
}

impl Compiled {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.lowered.len()
    }

    /// `true` when the program is just `Halt`.
    pub fn is_empty(&self) -> bool {
        self.lowered.len() <= 1
    }

    /// The label a [`LowInstr::Checkpoint`] carries, if any.
    #[inline]
    pub fn label(&self, label: u32) -> Option<&Arc<str>> {
        (label != NO_LABEL).then(|| &self.labels[label as usize])
    }

    /// Parameter values by slot ([`Compiled::param_names`] order): the
    /// program header's defaults; `None` = referenced but never bound.
    pub fn bind_params(&self) -> Vec<Option<i64>> {
        let mut params = vec![None; self.param_names.len()];
        for (k, v) in &self.params {
            if let Some(s) = self.param_names.iter().position(|p| p == k) {
                params[s] = Some(*v);
            }
        }
        params
    }
}

/// Compiles a program. Collectives are lowered first (on a clone).
///
/// # Examples
///
/// ```
/// use acfc_sim::bytecode::LowInstr;
/// let p = acfc_mpsl::parse("program t; var i; for i in 0..2 { checkpoint; }").unwrap();
/// let c = acfc_sim::compile(&p);
/// assert!(c.lowered.iter().any(|i| matches!(i, LowInstr::Checkpoint { .. })));
/// ```
pub fn compile(program: &Program) -> Compiled {
    let _span = acfc_obs::span("sim/lower");
    let mut source = program.clone();
    if source.has_collectives() {
        source.lower_collectives();
    }
    let mut lowering = Lowering {
        code: Vec::new(),
        interner: Interner::new(
            source.vars.iter().cloned(),
            source.params.iter().map(|(name, _)| name.clone()),
        ),
        ops: Vec::new(),
        labels: Vec::new(),
        stmt_limit: 0,
    };
    lowering.block(&source.body);
    lowering.code.push(LowInstr::Halt);
    Compiled {
        name: source.name.clone(),
        params: source.params.clone(),
        vars: source.vars.clone(),
        lowered: lowering.code,
        ops: lowering.ops,
        var_names: lowering.interner.var_names.into(),
        param_names: lowering.interner.param_names,
        labels: lowering.labels,
        stmt_limit: lowering.stmt_limit,
    }
}

/// Interns names to dense slots during lowering; declared names get the
/// leading slots so the engine can mark exactly that prefix as bound at
/// start-up.
struct Interner {
    var_names: Vec<String>,
    var_index: HashMap<String, u32>,
    param_names: Vec<String>,
    param_index: HashMap<String, u32>,
}

impl Interner {
    fn new(
        declared_vars: impl Iterator<Item = String>,
        declared_params: impl Iterator<Item = String>,
    ) -> Interner {
        let mut interner = Interner {
            var_names: Vec::new(),
            var_index: HashMap::new(),
            param_names: Vec::new(),
            param_index: HashMap::new(),
        };
        for v in declared_vars {
            interner.var_slot(&v);
        }
        for p in declared_params {
            interner.param_slot(&p);
        }
        interner
    }
}

impl SlotResolver for Interner {
    fn var_slot(&mut self, name: &str) -> u32 {
        if let Some(&slot) = self.var_index.get(name) {
            return slot;
        }
        let slot = self.var_names.len() as u32;
        self.var_names.push(name.to_string());
        self.var_index.insert(name.to_string(), slot);
        slot
    }

    fn param_slot(&mut self, name: &str) -> u32 {
        if let Some(&slot) = self.param_index.get(name) {
            return slot;
        }
        let slot = self.param_names.len() as u32;
        self.param_names.push(name.to_string());
        self.param_index.insert(name.to_string(), slot);
        slot
    }
}

/// Code generation state: instructions are appended in pc order and
/// lowered as they are appended, so the interner, the op pool and the
/// label table fill in program order.
struct Lowering {
    code: Vec<LowInstr>,
    interner: Interner,
    ops: Vec<Op>,
    labels: Vec<Arc<str>>,
    stmt_limit: u32,
}

impl Lowering {
    fn expr(&mut self, e: &Expr) -> ExprRef {
        let start = self.ops.len() as u32;
        lower_expr(e, &mut self.interner, &mut self.ops);
        ExprRef {
            start,
            len: self.ops.len() as u32 - start,
        }
    }

    /// Appends an instruction originating from statement `sid`; returns
    /// its pc.
    fn emit(&mut self, sid: StmtId, instr: LowInstr) -> usize {
        self.stmt_limit = self.stmt_limit.max(sid.0 + 1);
        self.code.push(instr);
        self.code.len() - 1
    }

    fn assign(&mut self, sid: StmtId, var: &str, value: &Expr) {
        let value = self.expr(value);
        let var = self.interner.var_slot(var);
        self.emit(sid, LowInstr::Assign { var, value });
    }

    /// Appends a conditional jump with its target left to [`Self::patch`].
    fn jump_if_false(&mut self, sid: StmtId, cond: &Expr) -> usize {
        let cond = self.expr(cond);
        self.emit(
            sid,
            LowInstr::JumpIfFalse {
                cond,
                target: u32::MAX,
            },
        )
    }

    fn jump(&mut self, target: usize) -> usize {
        self.code.push(LowInstr::Jump {
            target: target as u32,
        });
        self.code.len() - 1
    }

    /// Points the jump at `at` to the next instruction to be emitted.
    fn patch(&mut self, at: usize) {
        let here = self.code.len() as u32;
        match &mut self.code[at] {
            LowInstr::Jump { target } | LowInstr::JumpIfFalse { target, .. } => *target = here,
            _ => unreachable!("patch on a non-jump"),
        }
    }

    fn block(&mut self, block: &Block) {
        for stmt in block {
            let sid = stmt.id;
            match &stmt.kind {
                StmtKind::Compute { cost } => {
                    let cost = self.expr(cost);
                    self.emit(sid, LowInstr::Compute { cost });
                }
                StmtKind::Assign { var, value } => self.assign(sid, var, value),
                StmtKind::Send { dest, size_bits } => {
                    let dest = self.expr(dest);
                    let size_bits = self.expr(size_bits);
                    self.emit(
                        sid,
                        LowInstr::Send {
                            dest,
                            size_bits,
                            stmt: sid,
                        },
                    );
                }
                StmtKind::Recv { src } => {
                    let src = match src {
                        RecvSrc::Any => LowSrc::Any,
                        RecvSrc::Rank(e) => LowSrc::Rank(self.expr(e)),
                    };
                    self.emit(sid, LowInstr::Recv { src, stmt: sid });
                }
                StmtKind::Checkpoint { label } => {
                    let label = match label {
                        Some(text) => {
                            self.labels.push(text.as_str().into());
                            (self.labels.len() - 1) as u32
                        }
                        None => NO_LABEL,
                    };
                    self.emit(sid, LowInstr::Checkpoint { stmt: sid, label });
                }
                StmtKind::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    let jif_at = self.jump_if_false(sid, cond);
                    self.block(then_branch);
                    if else_branch.is_empty() {
                        self.patch(jif_at);
                    } else {
                        let jmp_at = self.jump(usize::MAX);
                        self.patch(jif_at);
                        self.block(else_branch);
                        self.patch(jmp_at);
                    }
                }
                StmtKind::While { cond, body } => {
                    let check_at = self.jump_if_false(sid, cond);
                    self.block(body);
                    self.jump(check_at);
                    self.patch(check_at);
                }
                StmtKind::For {
                    var,
                    from,
                    to,
                    body,
                } => {
                    self.assign(sid, var, from);
                    let cond = Expr::bin(BinOp::Lt, Expr::Var(var.clone()), to.clone());
                    let check_at = self.jump_if_false(sid, &cond);
                    self.block(body);
                    let incr = Expr::bin(BinOp::Add, Expr::Var(var.clone()), Expr::Int(1));
                    self.assign(sid, var, &incr);
                    self.jump(check_at);
                    self.patch(check_at);
                }
                StmtKind::Bcast { .. } | StmtKind::Exchange { .. } => {
                    unreachable!("collectives lowered before compilation")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acfc_mpsl::parse;

    fn compile_src(src: &str) -> Compiled {
        compile(&parse(src).unwrap())
    }

    #[test]
    fn straight_line_compiles_in_order() {
        let c = compile_src("program t; compute 1; checkpoint; send to 0;");
        assert!(matches!(c.lowered[0], LowInstr::Compute { .. }));
        assert!(matches!(c.lowered[1], LowInstr::Checkpoint { .. }));
        assert!(matches!(c.lowered[2], LowInstr::Send { .. }));
        assert!(matches!(c.lowered[3], LowInstr::Halt));
    }

    #[test]
    fn if_else_jumps_are_patched() {
        let c =
            compile_src("program t; if rank == 0 { compute 1; } else { compute 2; } checkpoint;");
        // 0: JIF -> 3 (else), 1: compute, 2: Jump -> 4, 3: compute, 4: chkpt
        let LowInstr::JumpIfFalse { target, .. } = c.lowered[0] else {
            panic!()
        };
        assert_eq!(target, 3);
        let LowInstr::Jump { target } = c.lowered[2] else {
            panic!()
        };
        assert_eq!(target, 4);
        assert!(matches!(c.lowered[4], LowInstr::Checkpoint { .. }));
    }

    #[test]
    fn if_without_else_falls_through() {
        let c = compile_src("program t; if rank == 0 { compute 1; } checkpoint;");
        let LowInstr::JumpIfFalse { target, .. } = c.lowered[0] else {
            panic!()
        };
        assert_eq!(target, 2);
        assert!(matches!(c.lowered[2], LowInstr::Checkpoint { .. }));
    }

    #[test]
    fn while_loops_back_to_check() {
        let c = compile_src("program t; var i; while i < 2 { i := i + 1; } checkpoint;");
        // 0: JIF -> 3, 1: assign, 2: Jump -> 0, 3: chkpt
        let LowInstr::JumpIfFalse { target, .. } = c.lowered[0] else {
            panic!()
        };
        assert_eq!(target, 3);
        let LowInstr::Jump { target } = c.lowered[2] else {
            panic!()
        };
        assert_eq!(target, 0);
    }

    #[test]
    fn for_desugars_with_init_and_incr() {
        let c = compile_src("program t; var i; for i in 0..3 { compute 1; }");
        assert!(matches!(c.lowered[0], LowInstr::Assign { .. })); // init
        assert!(matches!(c.lowered[1], LowInstr::JumpIfFalse { .. }));
        assert!(matches!(c.lowered[2], LowInstr::Compute { .. }));
        assert!(matches!(c.lowered[3], LowInstr::Assign { .. })); // incr
        assert!(matches!(c.lowered[4], LowInstr::Jump { .. }));
        assert!(matches!(c.lowered[5], LowInstr::Halt));
    }

    #[test]
    fn no_unpatched_targets_in_stock_programs() {
        for p in acfc_mpsl::programs::all_stock() {
            let c = compile(&p);
            for (pc, instr) in c.lowered.iter().enumerate() {
                let target = match *instr {
                    LowInstr::Jump { target } => Some(target),
                    LowInstr::JumpIfFalse { target, .. } => Some(target),
                    _ => None,
                };
                if let Some(t) = target {
                    assert!(
                        (t as usize) <= c.len(),
                        "{}: pc {pc} target {t} wild",
                        p.name
                    );
                    assert_ne!(t, u32::MAX, "{}: pc {pc} unpatched", p.name);
                }
            }
            assert!(matches!(c.lowered.last(), Some(LowInstr::Halt)));
        }
    }

    #[test]
    fn collectives_compile_to_point_to_point() {
        let c = compile_src("program t; exchange with rank + 1 size 64;");
        assert!(c.lowered.iter().any(|i| matches!(i, LowInstr::Send { .. })));
        assert!(c.lowered.iter().any(|i| matches!(i, LowInstr::Recv { .. })));
    }
}
