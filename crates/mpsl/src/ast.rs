//! Abstract syntax for MPSL, the message-passing source language.
//!
//! MPSL is a small SPMD language: every process runs the same program with a
//! distinct *rank* in `0..nprocs`. The statement forms mirror exactly the
//! events of the paper's system model (§2): **computation**, **send**,
//! **receive**, and **checkpoint**, plus the control structure (loops and
//! conditions) that the control-flow graph of §2 represents.

use std::fmt;

/// A stable identifier for a statement in a [`Program`].
///
/// Identifiers are assigned by [`Program::renumber`] in a deterministic
/// pre-order walk, so the same program text always yields the same ids.
/// CFG nodes, checkpoint records, and simulator traces all refer back to
/// statements through this id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StmtId(pub u32);

impl fmt::Display for StmtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Binary operators. Comparison and logical operators evaluate to `0`/`1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (truncating; division by zero is an evaluation error)
    Div,
    /// `%` (Euclidean remainder, always non-negative for positive modulus)
    Mod,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (non-short-circuit on purpose: expressions are effect-free)
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// The surface-syntax token for this operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }

    /// Parser precedence (higher binds tighter).
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Ne => 3,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 4,
            BinOp::Add | BinOp::Sub => 5,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 6,
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (`!`): zero becomes `1`, nonzero becomes `0`.
    Not,
}

/// Integer expressions.
///
/// Expressions are effect-free. The distinguished leaves are:
///
/// * [`Expr::Rank`] — the executing process's id (the paper's `myRank`),
/// * [`Expr::NProcs`] — the number of processes `n`,
/// * [`Expr::Param`] — a compile-time program parameter (e.g. iteration
///   counts), fixed per run,
/// * [`Expr::Input`] — an *input-dependent* value. The paper calls
///   communication patterns that depend on such values **irregular**
///   (§3.2); the offline analysis must treat them conservatively.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// The executing process's rank (`myRank` in the paper's examples).
    Rank,
    /// The number of processes `n`.
    NProcs,
    /// A named program parameter (resolved from [`Program::params`]).
    Param(String),
    /// A mutable local variable.
    Var(String),
    /// The `k`-th input value: data-dependent, hence *irregular* statically.
    Input(u32),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience constructor for a binary node.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    /// `true` if the expression mentions [`Expr::Input`] anywhere, i.e. it
    /// is an *irregular* computation pattern in the paper's sense.
    pub fn mentions_input(&self) -> bool {
        match self {
            Expr::Input(_) => true,
            Expr::Unary(_, e) => e.mentions_input(),
            Expr::Binary(_, a, b) => a.mentions_input() || b.mentions_input(),
            _ => false,
        }
    }

    /// `true` if the expression mentions [`Expr::Rank`] anywhere.
    pub fn mentions_rank(&self) -> bool {
        match self {
            Expr::Rank => true,
            Expr::Unary(_, e) => e.mentions_rank(),
            Expr::Binary(_, a, b) => a.mentions_rank() || b.mentions_rank(),
            _ => false,
        }
    }

    /// `true` if the expression mentions any [`Expr::Var`].
    pub fn mentions_var(&self) -> bool {
        match self {
            Expr::Var(_) => true,
            Expr::Unary(_, e) => e.mentions_var(),
            Expr::Binary(_, a, b) => a.mentions_var() || b.mentions_var(),
            _ => false,
        }
    }

    /// Collects the names of all variables mentioned, in first-occurrence order.
    pub fn vars(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Var(v) if !out.contains(&v.as_str()) => {
                out.push(v);
            }
            Expr::Unary(_, e) => e.collect_vars(out),
            Expr::Binary(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            _ => {}
        }
    }

    /// Substitutes every `Var(name)` with `replacement(name)` when the
    /// closure returns `Some`; other variables are left in place.
    pub fn substitute(&self, replacement: &dyn Fn(&str) -> Option<Expr>) -> Expr {
        match self {
            Expr::Var(v) => replacement(v).unwrap_or_else(|| self.clone()),
            Expr::Unary(op, e) => Expr::Unary(*op, Box::new(e.substitute(replacement))),
            Expr::Binary(op, a, b) => Expr::Binary(
                *op,
                Box::new(a.substitute(replacement)),
                Box::new(b.substitute(replacement)),
            ),
            other => other.clone(),
        }
    }
}

/// The source specification of a `recv` statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RecvSrc {
    /// Receive from the specific rank this expression evaluates to.
    Rank(Expr),
    /// Receive from any sender (the analogue of `MPI_ANY_SOURCE`); an
    /// irregular pattern for the offline analysis.
    Any,
}

impl RecvSrc {
    /// `true` when the source cannot be resolved statically — either
    /// [`RecvSrc::Any`] or an expression mentioning input data.
    pub fn is_irregular(&self) -> bool {
        match self {
            RecvSrc::Any => true,
            RecvSrc::Rank(e) => e.mentions_input(),
        }
    }
}

/// A sequence of statements.
pub type Block = Vec<Stmt>;

/// One statement: an id plus the statement form.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Stable id; assigned by [`Program::renumber`].
    pub id: StmtId,
    /// The statement form.
    pub kind: StmtKind,
}

impl Stmt {
    /// Creates a statement with a placeholder id (`u32::MAX`); ids are
    /// assigned when the statement is installed into a [`Program`].
    pub fn new(kind: StmtKind) -> Stmt {
        Stmt {
            id: StmtId(u32::MAX),
            kind,
        }
    }
}

/// Statement forms.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// Local computation consuming `cost` simulated milliseconds.
    Compute {
        /// Cost expression, evaluated at run time (≥ 0).
        cost: Expr,
    },
    /// Assignment to a local variable.
    Assign {
        /// Variable name (must be declared).
        var: String,
        /// Right-hand side.
        value: Expr,
    },
    /// Point-to-point send of a `size_bits`-bit message to rank `dest`.
    Send {
        /// Destination rank expression.
        dest: Expr,
        /// Message size in bits (for the network delay model).
        size_bits: Expr,
    },
    /// Blocking point-to-point receive.
    Recv {
        /// Source specification.
        src: RecvSrc,
    },
    /// Take a local checkpoint (the paper's `chkpt` statement).
    Checkpoint {
        /// Optional user label, shown in diagnostics.
        label: Option<String>,
    },
    /// Conditional.
    If {
        /// Condition; nonzero means true.
        cond: Expr,
        /// Then branch.
        then_branch: Block,
        /// Else branch (possibly empty).
        else_branch: Block,
    },
    /// While loop.
    While {
        /// Loop condition; nonzero means true.
        cond: Expr,
        /// Loop body.
        body: Block,
    },
    /// Counted loop: `for var in from..to { body }`. Desugars to a `While`
    /// in the CFG and the interpreter, but is kept structured in the AST so
    /// the pretty-printer can round-trip it.
    For {
        /// Induction variable (must be declared).
        var: String,
        /// Inclusive lower bound.
        from: Expr,
        /// Exclusive upper bound.
        to: Expr,
        /// Loop body.
        body: Block,
    },
    /// Collective broadcast from rank `root` to all other ranks.
    ///
    /// §3.2: collective communication appears in the code of *every*
    /// process and reduces to send/receive statements; see
    /// [`Program::lower_collectives`].
    Bcast {
        /// Root rank expression (must be rank-independent).
        root: Expr,
        /// Message size in bits.
        size_bits: Expr,
    },
    /// Symmetric pairwise exchange with rank `peer`: send then receive.
    ///
    /// This is the idiom of the paper's Jacobi example (Figure 1): each
    /// process exchanges boundary data with a neighbour. It reduces to a
    /// send followed by a receive from the same peer.
    Exchange {
        /// Peer rank expression.
        peer: Expr,
        /// Message size in bits.
        size_bits: Expr,
    },
}

/// A complete MPSL program.
///
/// # Examples
///
/// ```
/// use acfc_mpsl::{parse, Program};
/// let p: Program = parse(
///     "program demo; var i; for i in 0..3 { compute 5; checkpoint; }",
/// ).unwrap();
/// assert_eq!(p.name, "demo");
/// assert_eq!(p.checkpoint_ids().len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Program name (from the `program <name>;` header).
    pub name: String,
    /// Named compile-time parameters with their default values.
    pub params: Vec<(String, i64)>,
    /// Declared variable names.
    pub vars: Vec<String>,
    /// Top-level statements.
    pub body: Block,
}

impl Program {
    /// Creates a program and assigns statement ids.
    pub fn new(
        name: impl Into<String>,
        params: Vec<(String, i64)>,
        vars: Vec<String>,
        body: Block,
    ) -> Program {
        let mut p = Program {
            name: name.into(),
            params,
            vars,
            body,
        };
        p.renumber();
        p
    }

    /// Reassigns all statement ids in deterministic pre-order.
    ///
    /// Call after structurally editing [`Program::body`]; all previously
    /// held [`StmtId`]s are invalidated.
    pub fn renumber(&mut self) {
        let mut next = 0u32;
        fn walk(block: &mut Block, next: &mut u32) {
            for stmt in block {
                stmt.id = StmtId(*next);
                *next += 1;
                match &mut stmt.kind {
                    StmtKind::If {
                        then_branch,
                        else_branch,
                        ..
                    } => {
                        walk(then_branch, next);
                        walk(else_branch, next);
                    }
                    StmtKind::While { body, .. } | StmtKind::For { body, .. } => walk(body, next),
                    _ => {}
                }
            }
        }
        walk(&mut self.body, &mut next);
    }

    /// Total number of statements (all nesting levels).
    pub fn stmt_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }

    /// Visits every statement in pre-order.
    pub fn visit(&self, f: &mut dyn FnMut(&Stmt)) {
        fn walk(block: &Block, f: &mut dyn FnMut(&Stmt)) {
            for stmt in block {
                f(stmt);
                match &stmt.kind {
                    StmtKind::If {
                        then_branch,
                        else_branch,
                        ..
                    } => {
                        walk(then_branch, f);
                        walk(else_branch, f);
                    }
                    StmtKind::While { body, .. } | StmtKind::For { body, .. } => walk(body, f),
                    _ => {}
                }
            }
        }
        walk(&self.body, f);
    }

    /// Visits every statement mutably in pre-order.
    pub fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Stmt)) {
        fn walk(block: &mut Block, f: &mut dyn FnMut(&mut Stmt)) {
            for stmt in block {
                f(stmt);
                match &mut stmt.kind {
                    StmtKind::If {
                        then_branch,
                        else_branch,
                        ..
                    } => {
                        walk(then_branch, f);
                        walk(else_branch, f);
                    }
                    StmtKind::While { body, .. } | StmtKind::For { body, .. } => walk(body, f),
                    _ => {}
                }
            }
        }
        walk(&mut self.body, f);
    }

    /// Ids of all `checkpoint` statements, in pre-order.
    pub fn checkpoint_ids(&self) -> Vec<StmtId> {
        let mut out = Vec::new();
        self.visit(&mut |s| {
            if matches!(s.kind, StmtKind::Checkpoint { .. }) {
                out.push(s.id);
            }
        });
        out
    }

    /// Ids of all `send`/`bcast`/`exchange` statements, in pre-order.
    pub fn send_ids(&self) -> Vec<StmtId> {
        let mut out = Vec::new();
        self.visit(&mut |s| {
            if matches!(
                s.kind,
                StmtKind::Send { .. } | StmtKind::Bcast { .. } | StmtKind::Exchange { .. }
            ) {
                out.push(s.id);
            }
        });
        out
    }

    /// Ids of all `recv` statements, in pre-order.
    pub fn recv_ids(&self) -> Vec<StmtId> {
        let mut out = Vec::new();
        self.visit(&mut |s| {
            if matches!(s.kind, StmtKind::Recv { .. }) {
                out.push(s.id);
            }
        });
        out
    }

    /// Looks up a statement by id.
    pub fn stmt(&self, id: StmtId) -> Option<&Stmt> {
        fn find(block: &Block, id: StmtId) -> Option<&Stmt> {
            for stmt in block {
                if stmt.id == id {
                    return Some(stmt);
                }
                let inner = match &stmt.kind {
                    StmtKind::If {
                        then_branch,
                        else_branch,
                        ..
                    } => find(then_branch, id).or_else(|| find(else_branch, id)),
                    StmtKind::While { body, .. } | StmtKind::For { body, .. } => find(body, id),
                    _ => None,
                };
                if inner.is_some() {
                    return inner;
                }
            }
            None
        }
        find(&self.body, id)
    }

    /// The default value of parameter `name`, if declared.
    pub fn param(&self, name: &str) -> Option<i64> {
        self.params.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Rewrites every collective statement (`bcast`, `exchange`) into its
    /// point-to-point reduction, as §3.2 prescribes, and renumbers.
    ///
    /// * `bcast root` becomes
    ///   `if rank == root { send to 0; ...; send to n-1 (skipping root) } else { recv from root }`
    ///   expressed as a rank-indexed loop so the program stays independent
    ///   of the concrete `nprocs`.
    /// * `exchange peer` becomes `send to peer; recv from peer;`.
    pub fn lower_collectives(&mut self) {
        fn lower_block(block: &mut Block, fresh: &mut u32) {
            let mut i = 0;
            while i < block.len() {
                let replace = match &block[i].kind {
                    StmtKind::Bcast { root, size_bits } => {
                        let root = root.clone();
                        let size_bits = size_bits.clone();
                        let loopvar = format!("__bc{fresh}");
                        *fresh += 1;
                        // if rank == root { for v in 0..nprocs { if v != rank { send to v } } }
                        // else { recv from root }
                        let send_all = Stmt::new(StmtKind::For {
                            var: loopvar.clone(),
                            from: Expr::Int(0),
                            to: Expr::NProcs,
                            body: vec![Stmt::new(StmtKind::If {
                                cond: Expr::bin(BinOp::Ne, Expr::Var(loopvar.clone()), Expr::Rank),
                                then_branch: vec![Stmt::new(StmtKind::Send {
                                    dest: Expr::Var(loopvar.clone()),
                                    size_bits: size_bits.clone(),
                                })],
                                else_branch: vec![],
                            })],
                        });
                        Some(vec![Stmt::new(StmtKind::If {
                            cond: Expr::bin(BinOp::Eq, Expr::Rank, root.clone()),
                            then_branch: vec![send_all],
                            else_branch: vec![Stmt::new(StmtKind::Recv {
                                src: RecvSrc::Rank(root),
                            })],
                        })])
                    }
                    StmtKind::Exchange { peer, size_bits } => Some(vec![
                        Stmt::new(StmtKind::Send {
                            dest: peer.clone(),
                            size_bits: size_bits.clone(),
                        }),
                        Stmt::new(StmtKind::Recv {
                            src: RecvSrc::Rank(peer.clone()),
                        }),
                    ]),
                    _ => None,
                };
                if let Some(repl) = replace {
                    let n = repl.len();
                    block.splice(i..=i, repl);
                    i += n;
                    continue;
                }
                match &mut block[i].kind {
                    StmtKind::If {
                        then_branch,
                        else_branch,
                        ..
                    } => {
                        lower_block(then_branch, fresh);
                        lower_block(else_branch, fresh);
                    }
                    StmtKind::While { body, .. } | StmtKind::For { body, .. } => {
                        lower_block(body, fresh)
                    }
                    _ => {}
                }
                i += 1;
            }
        }
        let mut fresh = 0;
        lower_block(&mut self.body, &mut fresh);
        // Loop variables introduced by bcast lowering need declarations.
        let mut needed: Vec<String> = Vec::new();
        self.visit(&mut |s| {
            if let StmtKind::For { var, .. } = &s.kind {
                if var.starts_with("__bc") && !needed.contains(var) {
                    needed.push(var.clone());
                }
            }
        });
        for v in needed {
            if !self.vars.contains(&v) {
                self.vars.push(v);
            }
        }
        self.renumber();
    }

    /// `true` if the program contains any collective statement.
    pub fn has_collectives(&self) -> bool {
        let mut yes = false;
        self.visit(&mut |s| {
            if matches!(s.kind, StmtKind::Bcast { .. } | StmtKind::Exchange { .. }) {
                yes = true;
            }
        });
        yes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Program {
        Program::new(
            "t",
            vec![("iters".into(), 4)],
            vec!["i".into()],
            vec![
                Stmt::new(StmtKind::Assign {
                    var: "i".into(),
                    value: Expr::Int(0),
                }),
                Stmt::new(StmtKind::While {
                    cond: Expr::bin(
                        BinOp::Lt,
                        Expr::Var("i".into()),
                        Expr::Param("iters".into()),
                    ),
                    body: vec![
                        Stmt::new(StmtKind::Compute { cost: Expr::Int(1) }),
                        Stmt::new(StmtKind::Checkpoint { label: None }),
                        Stmt::new(StmtKind::Assign {
                            var: "i".into(),
                            value: Expr::bin(BinOp::Add, Expr::Var("i".into()), Expr::Int(1)),
                        }),
                    ],
                }),
            ],
        )
    }

    #[test]
    fn renumber_assigns_preorder_ids() {
        let p = sample();
        let mut ids = Vec::new();
        p.visit(&mut |s| ids.push(s.id.0));
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn stmt_count_counts_nested() {
        assert_eq!(sample().stmt_count(), 5);
    }

    #[test]
    fn checkpoint_ids_found() {
        let p = sample();
        assert_eq!(p.checkpoint_ids(), vec![StmtId(3)]);
    }

    #[test]
    fn param_lookup() {
        let p = sample();
        assert_eq!(p.param("iters"), Some(4));
        assert_eq!(p.param("missing"), None);
    }

    #[test]
    fn exchange_lowering_produces_send_then_recv() {
        let mut p = Program::new(
            "x",
            vec![],
            vec![],
            vec![Stmt::new(StmtKind::Exchange {
                peer: Expr::bin(BinOp::Add, Expr::Rank, Expr::Int(1)),
                size_bits: Expr::Int(64),
            })],
        );
        p.lower_collectives();
        assert_eq!(p.body.len(), 2);
        assert!(matches!(p.body[0].kind, StmtKind::Send { .. }));
        assert!(matches!(p.body[1].kind, StmtKind::Recv { .. }));
    }

    #[test]
    fn bcast_lowering_splits_on_rank() {
        let mut p = Program::new(
            "b",
            vec![],
            vec![],
            vec![Stmt::new(StmtKind::Bcast {
                root: Expr::Int(0),
                size_bits: Expr::Int(8),
            })],
        );
        p.lower_collectives();
        assert_eq!(p.body.len(), 1);
        let StmtKind::If {
            then_branch,
            else_branch,
            ..
        } = &p.body[0].kind
        else {
            panic!("expected if");
        };
        assert!(matches!(then_branch[0].kind, StmtKind::For { .. }));
        assert!(matches!(else_branch[0].kind, StmtKind::Recv { .. }));
        assert!(!p.has_collectives());
        // The synthetic loop variable must have been declared.
        assert!(p.vars.iter().any(|v| v.starts_with("__bc")));
    }

    #[test]
    fn expr_irregularity_detection() {
        let e = Expr::bin(BinOp::Add, Expr::Rank, Expr::Input(0));
        assert!(e.mentions_input());
        assert!(e.mentions_rank());
        assert!(!e.mentions_var());
        assert!(RecvSrc::Any.is_irregular());
        assert!(RecvSrc::Rank(e).is_irregular());
        assert!(!RecvSrc::Rank(Expr::Rank).is_irregular());
    }

    #[test]
    fn substitute_replaces_vars() {
        let e = Expr::bin(BinOp::Add, Expr::Var("a".into()), Expr::Var("b".into()));
        let r = e.substitute(&|name| (name == "a").then_some(Expr::Int(7)));
        assert_eq!(
            r,
            Expr::bin(BinOp::Add, Expr::Int(7), Expr::Var("b".into()))
        );
    }
}
