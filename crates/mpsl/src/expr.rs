//! Expression evaluation: concrete (for the simulator) and rank-abstract
//! (for the offline analysis).
//!
//! The concrete evaluator needs a full environment — rank, `nprocs`,
//! parameter values, variable bindings, input data. The *rank-abstract*
//! evaluator is what Phase II of the paper relies on: it evaluates an
//! expression knowing only `rank` and `nprocs`, reporting
//! [`RankVal::Irregular`] where input data is consulted and
//! [`RankVal::Unknown`] where an unresolved variable appears.

use crate::ast::{BinOp, Expr, UnOp};
use std::collections::HashMap;
use std::fmt;

/// An error raised while evaluating an expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Division or remainder by zero.
    DivideByZero,
    /// An undeclared or unbound variable was referenced.
    UnboundVar(String),
    /// An undeclared parameter was referenced.
    UnboundParam(String),
    /// `input(k)` referenced beyond the supplied input vector.
    MissingInput(u32),
    /// Arithmetic overflow.
    Overflow,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::DivideByZero => write!(f, "division by zero"),
            EvalError::UnboundVar(v) => write!(f, "unbound variable `{v}`"),
            EvalError::UnboundParam(p) => write!(f, "unbound parameter `{p}`"),
            EvalError::MissingInput(k) => write!(f, "missing input value #{k}"),
            EvalError::Overflow => write!(f, "arithmetic overflow"),
        }
    }
}

impl std::error::Error for EvalError {}

/// A concrete evaluation environment.
#[derive(Debug, Clone)]
pub struct Env {
    /// Rank of the evaluating process.
    pub rank: i64,
    /// Total number of processes.
    pub nprocs: i64,
    /// Parameter bindings.
    pub params: HashMap<String, i64>,
    /// Variable bindings.
    pub vars: HashMap<String, i64>,
    /// Program input data (`input(k)` reads `inputs[k]`).
    pub inputs: Vec<i64>,
}

impl Env {
    /// Creates an environment with no variables, params, or inputs.
    pub fn new(rank: i64, nprocs: i64) -> Env {
        Env {
            rank,
            nprocs,
            params: HashMap::new(),
            vars: HashMap::new(),
            inputs: Vec::new(),
        }
    }
}

#[inline]
pub(crate) fn apply_bin(op: BinOp, a: i64, b: i64) -> Result<i64, EvalError> {
    let bool_to_i = |b: bool| i64::from(b);
    Ok(match op {
        BinOp::Add => a.checked_add(b).ok_or(EvalError::Overflow)?,
        BinOp::Sub => a.checked_sub(b).ok_or(EvalError::Overflow)?,
        BinOp::Mul => a.checked_mul(b).ok_or(EvalError::Overflow)?,
        BinOp::Div => {
            if b == 0 {
                return Err(EvalError::DivideByZero);
            }
            a.checked_div(b).ok_or(EvalError::Overflow)?
        }
        BinOp::Mod => {
            if b == 0 {
                return Err(EvalError::DivideByZero);
            }
            // Euclidean remainder so that `(rank - 1) % nprocs` is a valid
            // rank even for rank 0 — matching what SPMD programs intend.
            a.rem_euclid(b)
        }
        BinOp::Eq => bool_to_i(a == b),
        BinOp::Ne => bool_to_i(a != b),
        BinOp::Lt => bool_to_i(a < b),
        BinOp::Le => bool_to_i(a <= b),
        BinOp::Gt => bool_to_i(a > b),
        BinOp::Ge => bool_to_i(a >= b),
        BinOp::And => bool_to_i(a != 0 && b != 0),
        BinOp::Or => bool_to_i(a != 0 || b != 0),
    })
}

/// Evaluates `expr` in the concrete environment `env`.
///
/// # Errors
///
/// Returns an [`EvalError`] on division by zero, unbound names, missing
/// input values, or arithmetic overflow.
///
/// # Examples
///
/// ```
/// use acfc_mpsl::{eval, Env, Expr, BinOp};
/// let env = Env::new(3, 8);
/// let left = Expr::bin(BinOp::Mod, Expr::bin(BinOp::Sub, Expr::Rank, Expr::Int(1)), Expr::NProcs);
/// assert_eq!(eval(&left, &env).unwrap(), 2);
/// ```
pub fn eval(expr: &Expr, env: &Env) -> Result<i64, EvalError> {
    match expr {
        Expr::Int(v) => Ok(*v),
        Expr::Rank => Ok(env.rank),
        Expr::NProcs => Ok(env.nprocs),
        Expr::Param(p) => env
            .params
            .get(p)
            .copied()
            .ok_or_else(|| EvalError::UnboundParam(p.clone())),
        Expr::Var(v) => env
            .vars
            .get(v)
            .copied()
            .ok_or_else(|| EvalError::UnboundVar(v.clone())),
        Expr::Input(k) => env
            .inputs
            .get(*k as usize)
            .copied()
            .ok_or(EvalError::MissingInput(*k)),
        Expr::Unary(op, e) => {
            let v = eval(e, env)?;
            Ok(match op {
                UnOp::Neg => v.checked_neg().ok_or(EvalError::Overflow)?,
                UnOp::Not => i64::from(v == 0),
            })
        }
        Expr::Binary(op, a, b) => apply_bin(*op, eval(a, env)?, eval(b, env)?),
    }
}

/// The result of rank-abstract evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankVal {
    /// The expression has this value for the given rank.
    Known(i64),
    /// The value depends on input data (*irregular pattern*, §3.2).
    Irregular,
    /// The value depends on run-time state the analysis does not track
    /// (e.g. an unresolved mutable variable).
    Unknown,
}

impl RankVal {
    fn join_op(op: BinOp, a: RankVal, b: RankVal) -> RankVal {
        match (a, b) {
            (RankVal::Known(x), RankVal::Known(y)) => match apply_bin(op, x, y) {
                Ok(v) => RankVal::Known(v),
                Err(_) => RankVal::Unknown,
            },
            // Irregular taints harder than Unknown: the paper's matching
            // rules explicitly special-case irregular patterns.
            (RankVal::Irregular, _) | (_, RankVal::Irregular) => RankVal::Irregular,
            _ => RankVal::Unknown,
        }
    }
}

/// Id of a closed expression in a [`RankExprs`] pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RankExprId(u32);

/// One pool entry: an [`Expr`] node other than `Var`, children by id.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Closed {
    Int(i64),
    Rank,
    NProcs,
    Param(String),
    Input(u32),
    Unary(UnOp, RankExprId),
    Binary(BinOp, RankExprId, RankExprId),
}

/// A hash-consed pool of *closed* expressions: over `rank`, `nprocs`,
/// parameters, integers and `input(·)`, no variables.
///
/// Structurally equal expressions get the same id, so comparing two
/// bindings is an id comparison, and rebinding `acc := acc + 1` adds one
/// node that points at the previous binding instead of copying it: a
/// chain of `k` such assignments costs `O(k)` nodes, not `O(k²)`.
#[derive(Debug, Clone, Default)]
pub struct RankExprs {
    nodes: Vec<Closed>,
    ids: HashMap<Closed, RankExprId>,
}

impl RankExprs {
    /// Interns `expr` with every variable replaced by its binding in
    /// `vars`; `None` if it mentions a variable `vars` does not bind.
    pub fn close(&mut self, expr: &Expr, vars: &HashMap<String, RankExprId>) -> Option<RankExprId> {
        let node = match expr {
            Expr::Var(v) => return vars.get(v).copied(),
            Expr::Int(v) => Closed::Int(*v),
            Expr::Rank => Closed::Rank,
            Expr::NProcs => Closed::NProcs,
            Expr::Param(p) => Closed::Param(p.clone()),
            Expr::Input(k) => Closed::Input(*k),
            Expr::Unary(op, e) => Closed::Unary(*op, self.close(e, vars)?),
            Expr::Binary(op, a, b) => {
                Closed::Binary(*op, self.close(a, vars)?, self.close(b, vars)?)
            }
        };
        if let Some(&id) = self.ids.get(&node) {
            return Some(id);
        }
        let id = RankExprId(u32::try_from(self.nodes.len()).expect("expression pool overflow"));
        self.nodes.push(node.clone());
        self.ids.insert(node, id);
        Some(id)
    }

    /// Number of distinct expression nodes interned so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The expression behind `id` as a plain tree (shared subterms are
    /// copied out, so this is for diagnostics, not for the analysis).
    pub fn to_expr(&self, id: RankExprId) -> Expr {
        match &self.nodes[id.0 as usize] {
            Closed::Int(v) => Expr::Int(*v),
            Closed::Rank => Expr::Rank,
            Closed::NProcs => Expr::NProcs,
            Closed::Param(p) => Expr::Param(p.clone()),
            Closed::Input(k) => Expr::Input(*k),
            Closed::Unary(op, e) => Expr::Unary(*op, Box::new(self.to_expr(*e))),
            Closed::Binary(op, a, b) => Expr::bin(*op, self.to_expr(*a), self.to_expr(*b)),
        }
    }
}

/// A rank-abstract environment: the analysis knows `rank`, `nprocs`, and
/// the program parameters; selected variables may be bound to *rank
/// expressions* (from the ID-dependence constant propagation).
#[derive(Debug, Clone)]
pub struct RankEnv<'a> {
    /// Rank being queried.
    pub rank: i64,
    /// Total number of processes.
    pub nprocs: i64,
    /// Parameter bindings.
    pub params: &'a HashMap<String, i64>,
    /// Variables resolved to closed expressions in `exprs`.
    pub vars: &'a HashMap<String, RankExprId>,
    /// The pool `vars` points into.
    pub exprs: &'a RankExprs,
}

/// Evaluates `expr` knowing only the rank, `nprocs`, parameters, and any
/// variables the dataflow analysis resolved to rank expressions.
///
/// Never fails: anything unresolvable degrades to [`RankVal::Unknown`]
/// and anything touching input data to [`RankVal::Irregular`].
pub fn rank_eval(expr: &Expr, env: &RankEnv<'_>) -> RankVal {
    rank_eval_depth(expr, env, 0)
}

/// Evaluation gives up ([`RankVal::Unknown`]) below this nesting depth,
/// counted through the expression and on into a variable's binding. It
/// bounds the recursion; a branch on a variable built by a longer chain
/// of assignments is therefore unresolved, not rank-determined.
const MAX_SUBST_DEPTH: u32 = 64;

fn apply_un(op: UnOp, v: RankVal) -> RankVal {
    match (op, v) {
        (UnOp::Neg, RankVal::Known(v)) => v
            .checked_neg()
            .map(RankVal::Known)
            .unwrap_or(RankVal::Unknown),
        (UnOp::Not, RankVal::Known(v)) => RankVal::Known(i64::from(v == 0)),
        (_, other) => other,
    }
}

fn param(p: &str, env: &RankEnv<'_>) -> RankVal {
    match env.params.get(p) {
        Some(v) => RankVal::Known(*v),
        None => RankVal::Unknown,
    }
}

fn rank_eval_depth(expr: &Expr, env: &RankEnv<'_>, depth: u32) -> RankVal {
    if depth > MAX_SUBST_DEPTH {
        return RankVal::Unknown;
    }
    match expr {
        Expr::Int(v) => RankVal::Known(*v),
        Expr::Rank => RankVal::Known(env.rank),
        Expr::NProcs => RankVal::Known(env.nprocs),
        Expr::Param(p) => param(p, env),
        Expr::Var(v) => match env.vars.get(v) {
            Some(&id) => closed_eval(id, env, depth + 1),
            None => RankVal::Unknown,
        },
        Expr::Input(_) => RankVal::Irregular,
        Expr::Unary(op, e) => apply_un(*op, rank_eval_depth(e, env, depth + 1)),
        Expr::Binary(op, a, b) => RankVal::join_op(
            *op,
            rank_eval_depth(a, env, depth + 1),
            rank_eval_depth(b, env, depth + 1),
        ),
    }
}

/// Values of pool entries already evaluated in one [`closed_eval`],
/// keyed by `(entry, depth)`: the depth limit makes an entry's value
/// depend on how deep it was reached.
type Memo = HashMap<(RankExprId, u32), RankVal>;

/// [`rank_eval_depth`] over the binding `id`, reached at `depth`. A
/// binding that shares subterms can stand for a tree exponentially
/// larger than the pool (`x := x + x` written `k` times is `k` entries
/// and `2^(k+1) − 1` tree nodes), so its subterms are evaluated once per
/// `(entry, depth)` — at most `MAX_SUBST_DEPTH + 1` times per entry —
/// which gives the tree walk's answer at a cost linear in the pool. The
/// entries memoised are counted in `mpsl/rank_eval/memo_entries`.
fn closed_eval(id: RankExprId, env: &RankEnv<'_>, depth: u32) -> RankVal {
    let mut memo = Memo::new();
    let v = closed_eval_depth(id, env, depth, &mut memo);
    acfc_obs::count("mpsl/rank_eval/memo_entries", memo.len() as u64);
    v
}

/// [`rank_eval_depth`] over a pool entry, its subterms through `memo`.
fn closed_eval_depth(id: RankExprId, env: &RankEnv<'_>, depth: u32, memo: &mut Memo) -> RankVal {
    if depth > MAX_SUBST_DEPTH {
        return RankVal::Unknown;
    }
    match &env.exprs.nodes[id.0 as usize] {
        Closed::Int(v) => RankVal::Known(*v),
        Closed::Rank => RankVal::Known(env.rank),
        Closed::NProcs => RankVal::Known(env.nprocs),
        Closed::Param(p) => param(p, env),
        Closed::Input(_) => RankVal::Irregular,
        Closed::Unary(op, e) => apply_un(*op, subterm_eval(*e, env, depth + 1, memo)),
        Closed::Binary(op, a, b) => RankVal::join_op(
            *op,
            subterm_eval(*a, env, depth + 1, memo),
            subterm_eval(*b, env, depth + 1, memo),
        ),
    }
}

/// [`closed_eval_depth`] over a subterm, which other paths through the
/// binding may reach too: evaluated once per `(entry, depth)`. A leaf,
/// or an operator over leaves alone, costs no more to evaluate again than
/// to look up, and is not memoised — so the small bindings programs
/// usually have (`left := (rank - 1) % nprocs`) allocate no table.
fn subterm_eval(id: RankExprId, env: &RankEnv<'_>, depth: u32, memo: &mut Memo) -> RankVal {
    let composite = |c: &RankExprId| {
        matches!(
            env.exprs.nodes[c.0 as usize],
            Closed::Unary(..) | Closed::Binary(..)
        )
    };
    let over_composite = match &env.exprs.nodes[id.0 as usize] {
        Closed::Unary(_, e) => composite(e),
        Closed::Binary(_, a, b) => composite(a) || composite(b),
        _ => false,
    };
    if depth > MAX_SUBST_DEPTH || !over_composite {
        return closed_eval_depth(id, env, depth, memo);
    }
    if let Some(&v) = memo.get(&(id, depth)) {
        return v;
    }
    let v = closed_eval_depth(id, env, depth, memo);
    memo.insert((id, depth), v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr as E;

    #[test]
    fn euclidean_mod_wraps_negative() {
        let env = Env::new(0, 4);
        let e = E::bin(
            BinOp::Mod,
            E::bin(BinOp::Sub, E::Rank, E::Int(1)),
            E::NProcs,
        );
        assert_eq!(eval(&e, &env).unwrap(), 3);
    }

    #[test]
    fn division_by_zero_is_error() {
        let env = Env::new(0, 4);
        let e = E::bin(BinOp::Div, E::Int(1), E::Int(0));
        assert_eq!(eval(&e, &env), Err(EvalError::DivideByZero));
        let e = E::bin(BinOp::Mod, E::Int(1), E::Int(0));
        assert_eq!(eval(&e, &env), Err(EvalError::DivideByZero));
    }

    #[test]
    fn unbound_names_are_errors() {
        let env = Env::new(0, 4);
        assert_eq!(
            eval(&E::Var("x".into()), &env),
            Err(EvalError::UnboundVar("x".into()))
        );
        assert_eq!(
            eval(&E::Param("p".into()), &env),
            Err(EvalError::UnboundParam("p".into()))
        );
        assert_eq!(eval(&E::Input(2), &env), Err(EvalError::MissingInput(2)));
    }

    #[test]
    fn inputs_resolve() {
        let mut env = Env::new(0, 4);
        env.inputs = vec![10, 20];
        assert_eq!(eval(&E::Input(1), &env).unwrap(), 20);
    }

    #[test]
    fn comparison_and_logic() {
        let env = Env::new(2, 4);
        let even = E::bin(BinOp::Eq, E::bin(BinOp::Mod, E::Rank, E::Int(2)), E::Int(0));
        assert_eq!(eval(&even, &env).unwrap(), 1);
        let not = E::Unary(UnOp::Not, Box::new(even));
        assert_eq!(eval(&not, &env).unwrap(), 0);
        let and = E::bin(BinOp::And, E::Int(3), E::Int(0));
        assert_eq!(eval(&and, &env).unwrap(), 0);
        let or = E::bin(BinOp::Or, E::Int(0), E::Int(7));
        assert_eq!(eval(&or, &env).unwrap(), 1);
    }

    #[test]
    fn overflow_reported() {
        let env = Env::new(0, 4);
        let e = E::bin(BinOp::Add, E::Int(i64::MAX), E::Int(1));
        assert_eq!(eval(&e, &env), Err(EvalError::Overflow));
    }

    /// A rank environment over `bindings`, closed in order (a binding
    /// may mention the ones before it).
    fn with_bindings(
        bindings: &[(&str, E)],
        rank: i64,
        nprocs: i64,
        check: impl FnOnce(&RankEnv<'_>),
    ) {
        let params = HashMap::new();
        let mut exprs = RankExprs::default();
        let mut vars = HashMap::new();
        for (name, e) in bindings {
            let id = exprs.close(e, &vars).expect("binding is closed");
            vars.insert(name.to_string(), id);
        }
        check(&RankEnv {
            rank,
            nprocs,
            params: &params,
            vars: &vars,
            exprs: &exprs,
        });
    }

    #[test]
    fn rank_eval_known_and_unknown() {
        with_bindings(&[], 3, 8, |env| {
            let e = E::bin(
                BinOp::Mod,
                E::bin(BinOp::Add, E::Rank, E::Int(1)),
                E::NProcs,
            );
            assert_eq!(rank_eval(&e, env), RankVal::Known(4));
            assert_eq!(rank_eval(&E::Var("x".into()), env), RankVal::Unknown);
            assert_eq!(rank_eval(&E::Input(0), env), RankVal::Irregular);
        });
    }

    #[test]
    fn rank_eval_resolves_bound_vars() {
        let left = E::bin(BinOp::Sub, E::Rank, E::Int(1));
        with_bindings(&[("left", left)], 5, 8, |env| {
            assert_eq!(rank_eval(&E::Var("left".into()), env), RankVal::Known(4));
        });
    }

    #[test]
    fn irregular_dominates_unknown() {
        with_bindings(&[], 0, 2, |env| {
            let e = E::bin(BinOp::Add, E::Var("x".into()), E::Input(0));
            assert_eq!(rank_eval(&e, env), RankVal::Irregular);
        });
    }

    #[test]
    fn pool_shares_equal_terms_and_refuses_open_ones() {
        let mut exprs = RankExprs::default();
        let mut vars = HashMap::new();
        let one_more = E::bin(BinOp::Add, E::Var("x".into()), E::Int(1));
        assert_eq!(exprs.close(&one_more, &vars), None, "x is unbound");
        let x = exprs.close(&E::Rank, &vars).unwrap();
        vars.insert("x".to_string(), x);
        let a = exprs.close(&one_more, &vars).unwrap();
        let before = exprs.len();
        let b = exprs
            .close(&E::bin(BinOp::Add, E::Rank, E::Int(1)), &vars)
            .unwrap();
        assert_eq!(a, b, "structurally equal terms intern to one id");
        assert_eq!(exprs.len(), before, "and add no node");
        assert_eq!(exprs.to_expr(a), E::bin(BinOp::Add, E::Rank, E::Int(1)));
    }

    /// The evaluator's answer on a long chain of rebindings, as it was
    /// when bindings were substituted trees: 63 nested additions below
    /// a variable still evaluate, 64 do not.
    #[test]
    fn rank_eval_gives_up_past_the_depth_limit() {
        for (links, want) in [(63, RankVal::Known(5 + 63)), (64, RankVal::Unknown)] {
            let step = E::bin(BinOp::Add, E::Var("x".into()), E::Int(1));
            let mut bindings = vec![("x", E::Rank)];
            bindings.extend((0..links).map(|_| ("x", step.clone())));
            with_bindings(&bindings, 5, 8, |env| {
                assert_eq!(rank_eval(&E::Var("x".into()), env), want, "{links} links");
                assert_eq!(env.exprs.len(), 2 + links, "one node per link");
            });
        }
    }

    /// Shared subterms keep the same cliff: `x := x - x` with 63 links
    /// stands for a tree of 2^64 − 1 nodes, which a tree walk would never
    /// finish, and still evaluates; 64 links do not.
    #[test]
    fn shared_subterms_evaluate_once_below_the_same_depth_limit() {
        for (links, want) in [(63, RankVal::Known(0)), (64, RankVal::Unknown)] {
            let step = E::bin(BinOp::Sub, E::Var("x".into()), E::Var("x".into()));
            let mut bindings = vec![("x", E::Rank)];
            bindings.extend((0..links).map(|_| ("x", step.clone())));
            with_bindings(&bindings, 5, 8, |env| {
                assert_eq!(rank_eval(&E::Var("x".into()), env), want, "{links} links");
            });
        }
    }
}
