//! # MPSL — a message-passing source language
//!
//! MPSL is the SPMD substrate for the ACFC reproduction of *Agbaria &
//! Sanders, "Application-Driven Coordination-Free Distributed
//! Checkpointing" (ICDCS 2005)*. The paper's offline analysis consumes
//! message-passing **programs**; MPSL provides exactly the program forms
//! the paper's system model needs — computation, point-to-point and
//! collective communication, checkpoints, loops, and (possibly
//! ID-dependent) conditionals — with nothing extraneous.
//!
//! The crate offers four ways in:
//!
//! * [`parse`] — the textual surface syntax (tests and generators write
//!   MPSL text and parse it too),
//! * [`programs`] — the paper's running examples (Jacobi, Figures 2/5/6)
//!   and other stock SPMD patterns,
//! * [`mpmd`] — combining multiple per-role programs into one SPMD
//!   dispatch (the paper's §3 MPMD remark),
//! * [`to_source`] — pretty-printing back to parseable text.
//!
//! ```
//! use acfc_mpsl::{parse, to_source, validate};
//!
//! let program = parse(
//!     "program jacobi;
//!      param iters = 10;
//!      var i;
//!      for i in 0..iters {
//!        compute 50;
//!        send to (rank + 1) % nprocs size 4096;
//!        recv from (rank - 1) % nprocs;
//!        checkpoint;
//!      }",
//! )?;
//! assert!(validate(&program).is_empty());
//! let _printed = to_source(&program);
//! # Ok::<(), acfc_mpsl::ParseError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod expr;
pub mod lexer;
pub mod lowered;
pub mod mpmd;
pub mod parser;
pub mod pretty;
pub mod programs;
pub mod validate;

pub use ast::{BinOp, Block, Expr, Program, RecvSrc, Stmt, StmtId, StmtKind, UnOp};
pub use expr::{eval, rank_eval, Env, EvalError, RankEnv, RankExprId, RankExprs, RankVal};
pub use lexer::{lex, LexError};
pub use lowered::{eval_ops, lower_expr, Op, SlotEnv, SlotResolver};
pub use parser::{parse, ParseError};
pub use pretty::{expr_to_string, to_source};
pub use validate::{validate, ValidateError};
