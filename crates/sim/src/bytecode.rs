//! Compilation of MPSL programs to a flat instruction sequence.
//!
//! The simulator does not interpret the AST directly: structured control
//! flow is compiled to jumps so that per-process execution state is a
//! single program counter plus a variable store — which is exactly what a
//! checkpoint snapshot needs to capture.
//!
//! Compilation produces two parallel representations of the same code:
//!
//! * [`Instr`] — the AST-carrying form, kept as the analysis-facing
//!   surface (expressions are inspectable trees, names are strings);
//! * [`LowInstr`] — the **lowered** form the engine executes: `Copy`
//!   instructions whose expressions are [`ExprRef`] ranges into one
//!   shared constant-folded postfix [`Op`] pool, and whose variable and
//!   parameter names are interned into dense slot indices
//!   ([`Compiled::var_names`] / [`Compiled::param_names`]).
//!
//! The two arrays are index-for-index identical (`lowered[pc]` lowers
//! `code[pc]`), so program counters — including the `pc` captured in
//! checkpoint snapshots — mean the same thing in both.

use acfc_mpsl::lowered::{lower_expr, Op, SlotResolver};
use acfc_mpsl::{BinOp, Block, Expr, Program, RecvSrc, StmtId, StmtKind};
use std::collections::HashMap;
use std::sync::Arc;

/// One executable instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Local computation costing `cost` (expression value, in
    /// milliseconds of simulated time).
    Compute {
        /// Cost expression.
        cost: Expr,
        /// Originating statement.
        stmt: StmtId,
    },
    /// Variable assignment.
    Assign {
        /// Target variable.
        var: String,
        /// Right-hand side.
        value: Expr,
        /// Originating statement.
        stmt: StmtId,
    },
    /// Send a message.
    Send {
        /// Destination rank expression.
        dest: Expr,
        /// Size in bits.
        size_bits: Expr,
        /// Originating statement.
        stmt: StmtId,
    },
    /// Blocking receive.
    Recv {
        /// Source spec.
        src: RecvSrc,
        /// Originating statement.
        stmt: StmtId,
    },
    /// Take a checkpoint.
    Checkpoint {
        /// Originating statement (the paper's static checkpoint node id).
        stmt: StmtId,
        /// Optional label.
        label: Option<String>,
    },
    /// Unconditional jump.
    Jump {
        /// Target pc.
        target: usize,
    },
    /// Jump when the condition evaluates to zero.
    JumpIfFalse {
        /// Condition.
        cond: Expr,
        /// Target pc when false.
        target: usize,
        /// Originating statement.
        stmt: StmtId,
    },
    /// Normal termination.
    Halt,
}

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

/// One lowered instruction: the `Copy` mirror of [`Instr`] the engine
/// steps without cloning. Statement ids are kept only where the engine
/// records them (sends, receives, checkpoints).
#[derive(Debug, Clone, Copy)]
pub enum LowInstr {
    /// Local computation costing `cost` expression value.
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
        /// Originating statement.
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
    /// Flat code; `Halt` terminated.
    pub code: Vec<Instr>,
    /// Default parameter bindings from the program header.
    pub params: Vec<(String, i64)>,
    /// Declared variables (all initialised to 0).
    pub vars: Vec<String>,
    /// Lowered code, index-for-index parallel to [`Compiled::code`].
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
        self.code.len()
    }

    /// `true` when the program is just `Halt`.
    pub fn is_empty(&self) -> bool {
        self.code.len() <= 1
    }

    /// Parameter values by slot ([`Compiled::param_names`] order): the
    /// program header's defaults, then `overrides` (later entries win);
    /// `None` = referenced but never bound.
    pub fn bind_params(&self, overrides: &[(String, i64)]) -> Vec<Option<i64>> {
        let mut params = vec![None; self.param_names.len()];
        for (k, v) in self.params.iter().chain(overrides) {
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
/// let p = acfc_mpsl::parse("program t; var i; for i in 0..2 { checkpoint; }").unwrap();
/// let c = acfc_sim::compile(&p);
/// assert!(c.code.iter().any(|i| matches!(i, acfc_sim::Instr::Checkpoint { .. })));
/// ```
pub fn compile(program: &Program) -> Compiled {
    let _span = acfc_obs::span("sim/lower");
    let mut source = program.clone();
    if source.has_collectives() {
        source.lower_collectives();
    }
    let mut code = Vec::new();
    emit_block(&mut code, &source.body);
    code.push(Instr::Halt);
    let mut interner = Interner::new(
        source.vars.iter().cloned(),
        source.params.iter().map(|(name, _)| name.clone()),
    );
    let mut ops = Vec::new();
    let mut labels = Vec::new();
    let mut stmt_limit = 0u32;
    let lowered = code
        .iter()
        .map(|instr| lower_instr(instr, &mut interner, &mut ops, &mut labels, &mut stmt_limit))
        .collect();
    Compiled {
        name: source.name.clone(),
        code,
        params: source.params.clone(),
        vars: source.vars.clone(),
        lowered,
        ops,
        var_names: interner.var_names.into(),
        param_names: interner.param_names,
        labels,
        stmt_limit,
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

fn lower_instr(
    instr: &Instr,
    interner: &mut Interner,
    ops: &mut Vec<Op>,
    labels: &mut Vec<Arc<str>>,
    stmt_limit: &mut u32,
) -> LowInstr {
    let mut expr = |e: &Expr| -> ExprRef {
        let start = ops.len() as u32;
        lower_expr(e, interner, ops);
        ExprRef {
            start,
            len: ops.len() as u32 - start,
        }
    };
    let mut note_stmt = |sid: StmtId| *stmt_limit = (*stmt_limit).max(sid.0 + 1);
    match instr {
        Instr::Compute { cost, stmt } => {
            note_stmt(*stmt);
            LowInstr::Compute { cost: expr(cost) }
        }
        Instr::Assign { var, value, stmt } => {
            note_stmt(*stmt);
            let value = expr(value);
            LowInstr::Assign {
                var: interner.var_slot(var),
                value,
            }
        }
        Instr::Send {
            dest,
            size_bits,
            stmt,
        } => {
            note_stmt(*stmt);
            LowInstr::Send {
                dest: expr(dest),
                size_bits: expr(size_bits),
                stmt: *stmt,
            }
        }
        Instr::Recv { src, stmt } => {
            note_stmt(*stmt);
            LowInstr::Recv {
                src: match src {
                    RecvSrc::Any => LowSrc::Any,
                    RecvSrc::Rank(e) => LowSrc::Rank(expr(e)),
                },
                stmt: *stmt,
            }
        }
        Instr::Checkpoint { stmt, label } => {
            note_stmt(*stmt);
            let label = match label {
                Some(text) => {
                    labels.push(text.as_str().into());
                    (labels.len() - 1) as u32
                }
                None => NO_LABEL,
            };
            LowInstr::Checkpoint { stmt: *stmt, label }
        }
        Instr::Jump { target } => LowInstr::Jump {
            target: *target as u32,
        },
        Instr::JumpIfFalse { cond, target, stmt } => {
            note_stmt(*stmt);
            LowInstr::JumpIfFalse {
                cond: expr(cond),
                target: *target as u32,
            }
        }
        Instr::Halt => LowInstr::Halt,
    }
}

fn emit_block(code: &mut Vec<Instr>, block: &Block) {
    for stmt in block {
        let sid = stmt.id;
        match &stmt.kind {
            StmtKind::Compute { cost } => code.push(Instr::Compute {
                cost: cost.clone(),
                stmt: sid,
            }),
            StmtKind::Assign { var, value } => code.push(Instr::Assign {
                var: var.clone(),
                value: value.clone(),
                stmt: sid,
            }),
            StmtKind::Send { dest, size_bits } => code.push(Instr::Send {
                dest: dest.clone(),
                size_bits: size_bits.clone(),
                stmt: sid,
            }),
            StmtKind::Recv { src } => code.push(Instr::Recv {
                src: src.clone(),
                stmt: sid,
            }),
            StmtKind::Checkpoint { label } => code.push(Instr::Checkpoint {
                stmt: sid,
                label: label.clone(),
            }),
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let jif_at = code.len();
                code.push(Instr::JumpIfFalse {
                    cond: cond.clone(),
                    target: usize::MAX,
                    stmt: sid,
                });
                emit_block(code, then_branch);
                if else_branch.is_empty() {
                    let after = code.len();
                    patch_jif(code, jif_at, after);
                } else {
                    let jmp_at = code.len();
                    code.push(Instr::Jump { target: usize::MAX });
                    let else_start = code.len();
                    patch_jif(code, jif_at, else_start);
                    emit_block(code, else_branch);
                    let after = code.len();
                    patch_jump(code, jmp_at, after);
                }
            }
            StmtKind::While { cond, body } => {
                let check_at = code.len();
                code.push(Instr::JumpIfFalse {
                    cond: cond.clone(),
                    target: usize::MAX,
                    stmt: sid,
                });
                emit_block(code, body);
                code.push(Instr::Jump { target: check_at });
                let after = code.len();
                patch_jif(code, check_at, after);
            }
            StmtKind::For {
                var,
                from,
                to,
                body,
            } => {
                code.push(Instr::Assign {
                    var: var.clone(),
                    value: from.clone(),
                    stmt: sid,
                });
                let check_at = code.len();
                code.push(Instr::JumpIfFalse {
                    cond: Expr::bin(BinOp::Lt, Expr::Var(var.clone()), to.clone()),
                    target: usize::MAX,
                    stmt: sid,
                });
                emit_block(code, body);
                code.push(Instr::Assign {
                    var: var.clone(),
                    value: Expr::bin(BinOp::Add, Expr::Var(var.clone()), Expr::Int(1)),
                    stmt: sid,
                });
                code.push(Instr::Jump { target: check_at });
                let after = code.len();
                patch_jif(code, check_at, after);
            }
            StmtKind::Bcast { .. } | StmtKind::Exchange { .. } => {
                unreachable!("collectives lowered before compilation")
            }
        }
    }
}

fn patch_jif(code: &mut [Instr], at: usize, to: usize) {
    if let Instr::JumpIfFalse { target, .. } = &mut code[at] {
        *target = to;
    } else {
        unreachable!("patch_jif on non-JumpIfFalse");
    }
}

fn patch_jump(code: &mut [Instr], at: usize, to: usize) {
    if let Instr::Jump { target } = &mut code[at] {
        *target = to;
    } else {
        unreachable!("patch_jump on non-Jump");
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
        assert!(matches!(c.code[0], Instr::Compute { .. }));
        assert!(matches!(c.code[1], Instr::Checkpoint { .. }));
        assert!(matches!(c.code[2], Instr::Send { .. }));
        assert!(matches!(c.code[3], Instr::Halt));
    }

    #[test]
    fn if_else_jumps_are_patched() {
        let c =
            compile_src("program t; if rank == 0 { compute 1; } else { compute 2; } checkpoint;");
        // 0: JIF -> 3 (else), 1: compute, 2: Jump -> 4, 3: compute, 4: chkpt
        let Instr::JumpIfFalse { target, .. } = &c.code[0] else {
            panic!()
        };
        assert_eq!(*target, 3);
        let Instr::Jump { target } = &c.code[2] else {
            panic!()
        };
        assert_eq!(*target, 4);
        assert!(matches!(c.code[4], Instr::Checkpoint { .. }));
    }

    #[test]
    fn if_without_else_falls_through() {
        let c = compile_src("program t; if rank == 0 { compute 1; } checkpoint;");
        let Instr::JumpIfFalse { target, .. } = &c.code[0] else {
            panic!()
        };
        assert_eq!(*target, 2);
        assert!(matches!(c.code[2], Instr::Checkpoint { .. }));
    }

    #[test]
    fn while_loops_back_to_check() {
        let c = compile_src("program t; var i; while i < 2 { i := i + 1; } checkpoint;");
        // 0: JIF -> 3, 1: assign, 2: Jump -> 0, 3: chkpt
        let Instr::JumpIfFalse { target, .. } = &c.code[0] else {
            panic!()
        };
        assert_eq!(*target, 3);
        let Instr::Jump { target } = &c.code[2] else {
            panic!()
        };
        assert_eq!(*target, 0);
    }

    #[test]
    fn for_desugars_with_init_and_incr() {
        let c = compile_src("program t; var i; for i in 0..3 { compute 1; }");
        assert!(matches!(c.code[0], Instr::Assign { .. })); // init
        assert!(matches!(c.code[1], Instr::JumpIfFalse { .. }));
        assert!(matches!(c.code[2], Instr::Compute { .. }));
        assert!(matches!(c.code[3], Instr::Assign { .. })); // incr
        assert!(matches!(c.code[4], Instr::Jump { .. }));
        assert!(matches!(c.code[5], Instr::Halt));
    }

    #[test]
    fn no_unpatched_targets_in_stock_programs() {
        for p in acfc_mpsl::programs::all_stock() {
            let c = compile(&p);
            for (pc, instr) in c.code.iter().enumerate() {
                let target = match instr {
                    Instr::Jump { target } => Some(*target),
                    Instr::JumpIfFalse { target, .. } => Some(*target),
                    _ => None,
                };
                if let Some(t) = target {
                    assert!(t <= c.code.len(), "{}: pc {pc} target {t} wild", p.name);
                    assert_ne!(t, usize::MAX, "{}: pc {pc} unpatched", p.name);
                }
            }
            assert!(matches!(c.code.last(), Some(Instr::Halt)));
        }
    }

    #[test]
    fn collectives_compile_to_point_to_point() {
        let c = compile_src("program t; exchange with rank + 1 size 64;");
        assert!(c.code.iter().any(|i| matches!(i, Instr::Send { .. })));
        assert!(c.code.iter().any(|i| matches!(i, Instr::Recv { .. })));
    }
}
