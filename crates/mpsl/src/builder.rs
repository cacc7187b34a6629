//! Programmatic construction of MPSL programs.
//!
//! The [`ProgramBuilder`] plus the expression helpers in [`e`] let tests
//! and generators build programs without going through the parser:
//!
//! ```
//! use acfc_mpsl::builder::{e, ProgramBuilder};
//!
//! let p = ProgramBuilder::new("ring")
//!     .var("i")
//!     .body(|b| {
//!         b.for_("i", e::int(0), e::int(4), |b| {
//!             b.send(e::modulo(e::add(e::rank(), e::int(1)), e::nprocs()), e::int(256));
//!             b.recv(e::modulo(e::sub(e::rank(), e::int(1)), e::nprocs()));
//!             b.checkpoint();
//!         });
//!     })
//!     .build();
//! assert_eq!(p.checkpoint_ids().len(), 1);
//! ```

use crate::ast::{Block, Expr, Program, RecvSrc, Stmt, StmtKind};

/// Expression constructor helpers.
pub mod e {
    use crate::ast::{BinOp, Expr, UnOp};

    /// Integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Int(v)
    }
    /// The executing process's rank.
    pub fn rank() -> Expr {
        Expr::Rank
    }
    /// The number of processes.
    pub fn nprocs() -> Expr {
        Expr::NProcs
    }
    /// A named variable.
    pub fn var(name: &str) -> Expr {
        Expr::Var(name.to_string())
    }
    /// A named parameter.
    pub fn param(name: &str) -> Expr {
        Expr::Param(name.to_string())
    }
    /// The `k`-th input value (irregular).
    pub fn input(k: u32) -> Expr {
        Expr::Input(k)
    }
    /// `a + b`
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Add, a, b)
    }
    /// `a - b`
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Sub, a, b)
    }
    /// `a % b` (Euclidean)
    pub fn modulo(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Mod, a, b)
    }
    /// `a == b`
    pub fn eq(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Eq, a, b)
    }
    /// `a < b`
    pub fn lt(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Lt, a, b)
    }
    /// `a <= b`
    pub fn le(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Le, a, b)
    }
    /// `a >= b`
    pub fn ge(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Ge, a, b)
    }
    /// `a && b`
    pub fn and(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::And, a, b)
    }
    /// `a || b`
    pub fn or(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Or, a, b)
    }
    /// `!a`
    pub fn not(a: Expr) -> Expr {
        Expr::Unary(UnOp::Not, Box::new(a))
    }
    /// `-a`
    pub fn neg(a: Expr) -> Expr {
        Expr::Unary(UnOp::Neg, Box::new(a))
    }
    /// `rank % 2 == 0`: the paper's canonical ID-dependent condition.
    pub fn rank_is_even() -> Expr {
        eq(modulo(rank(), int(2)), int(0))
    }
    /// `(rank + 1) % nprocs`: right neighbour on a ring.
    pub fn right_neighbor() -> Expr {
        modulo(add(rank(), int(1)), nprocs())
    }
    /// `(rank - 1) % nprocs`: left neighbour on a ring.
    pub fn left_neighbor() -> Expr {
        modulo(sub(rank(), int(1)), nprocs())
    }
}

/// Builds a [`Block`] through imperative-looking method calls.
#[derive(Debug, Default)]
pub struct BlockBuilder {
    stmts: Block,
}

impl BlockBuilder {
    /// Appends a raw statement.
    pub fn push(&mut self, kind: StmtKind) -> &mut Self {
        self.stmts.push(Stmt::new(kind));
        self
    }

    /// `compute cost;`
    pub fn compute(&mut self, cost: Expr) -> &mut Self {
        self.push(StmtKind::Compute { cost })
    }

    /// `var := value;`
    pub fn assign(&mut self, var: &str, value: Expr) -> &mut Self {
        self.push(StmtKind::Assign {
            var: var.to_string(),
            value,
        })
    }

    /// `send to dest size size_bits;`
    pub fn send(&mut self, dest: Expr, size_bits: Expr) -> &mut Self {
        self.push(StmtKind::Send { dest, size_bits })
    }

    /// `recv from src;`
    pub fn recv(&mut self, src: Expr) -> &mut Self {
        self.push(StmtKind::Recv {
            src: RecvSrc::Rank(src),
        })
    }

    /// `recv from any;`
    pub fn recv_any(&mut self) -> &mut Self {
        self.push(StmtKind::Recv { src: RecvSrc::Any })
    }

    /// `checkpoint;`
    pub fn checkpoint(&mut self) -> &mut Self {
        self.push(StmtKind::Checkpoint { label: None })
    }

    /// `if cond { then } else { els }`
    pub fn if_else(
        &mut self,
        cond: Expr,
        then: impl FnOnce(&mut BlockBuilder),
        els: impl FnOnce(&mut BlockBuilder),
    ) -> &mut Self {
        let mut tb = BlockBuilder::default();
        then(&mut tb);
        let mut eb = BlockBuilder::default();
        els(&mut eb);
        self.push(StmtKind::If {
            cond,
            then_branch: tb.stmts,
            else_branch: eb.stmts,
        })
    }

    /// `if cond { then }`
    pub fn if_(&mut self, cond: Expr, then: impl FnOnce(&mut BlockBuilder)) -> &mut Self {
        self.if_else(cond, then, |_| {})
    }

    /// `for var in from..to { body }`
    pub fn for_(
        &mut self,
        var: &str,
        from: Expr,
        to: Expr,
        body: impl FnOnce(&mut BlockBuilder),
    ) -> &mut Self {
        let mut bb = BlockBuilder::default();
        body(&mut bb);
        self.push(StmtKind::For {
            var: var.to_string(),
            from,
            to,
            body: bb.stmts,
        })
    }

    /// `bcast from root size size_bits;`
    pub fn bcast(&mut self, root: Expr, size_bits: Expr) -> &mut Self {
        self.push(StmtKind::Bcast { root, size_bits })
    }

    /// `exchange with peer size size_bits;`
    pub fn exchange(&mut self, peer: Expr, size_bits: Expr) -> &mut Self {
        self.push(StmtKind::Exchange { peer, size_bits })
    }
}

/// Builder for whole programs; see the [module docs](self) for an example.
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    params: Vec<(String, i64)>,
    vars: Vec<String>,
    body: Block,
}

impl ProgramBuilder {
    /// Starts a program named `name`.
    pub fn new(name: &str) -> ProgramBuilder {
        ProgramBuilder {
            name: name.to_string(),
            params: Vec::new(),
            vars: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Declares a parameter with its default value.
    pub fn param(mut self, name: &str, value: i64) -> Self {
        self.params.push((name.to_string(), value));
        self
    }

    /// Declares a variable.
    pub fn var(mut self, name: &str) -> Self {
        self.vars.push(name.to_string());
        self
    }

    /// Populates the top-level body.
    pub fn body(mut self, f: impl FnOnce(&mut BlockBuilder)) -> Self {
        let mut bb = BlockBuilder::default();
        f(&mut bb);
        self.body = bb.stmts;
        self
    }

    /// Finishes the program (assigning statement ids).
    pub fn build(self) -> Program {
        Program::new(self.name, self.params, self.vars, self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::pretty::to_source;

    #[test]
    fn builder_matches_parser() {
        let built = ProgramBuilder::new("demo")
            .param("iters", 3)
            .var("i")
            .body(|b| {
                b.for_("i", e::int(0), e::param("iters"), |b| {
                    b.compute(e::int(5));
                    b.if_else(
                        e::rank_is_even(),
                        |b| {
                            b.checkpoint();
                            b.send(e::right_neighbor(), e::int(1024));
                            b.recv(e::left_neighbor());
                        },
                        |b| {
                            b.send(e::right_neighbor(), e::int(1024));
                            b.recv(e::left_neighbor());
                            b.checkpoint();
                        },
                    );
                });
            })
            .build();
        let parsed = parse(
            "program demo;
             param iters = 3;
             var i;
             for i in 0..iters {
               compute 5;
               if rank % 2 == 0 {
                 checkpoint;
                 send to (rank + 1) % nprocs size 1024;
                 recv from (rank - 1) % nprocs;
               } else {
                 send to (rank + 1) % nprocs size 1024;
                 recv from (rank - 1) % nprocs;
                 checkpoint;
               }
             }",
        )
        .unwrap();
        assert_eq!(built, parsed, "\n{}", to_source(&built));
    }

    #[test]
    fn empty_else_collapses() {
        let p = ProgramBuilder::new("t")
            .body(|b| {
                b.if_(e::eq(e::rank(), e::int(0)), |b| {
                    b.compute(e::int(1));
                });
            })
            .build();
        let StmtKind::If { else_branch, .. } = &p.body[0].kind else {
            panic!()
        };
        assert!(else_branch.is_empty());
    }
}
