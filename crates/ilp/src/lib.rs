//! 0-1 integer-linear programming for the Nova/IXP register allocator.
//!
//! The paper solves register-bank assignment, aggregate coloring, and
//! spilling as a 0-1 ILP described in AMPL and solved by CPLEX. Neither is
//! available here, so this crate provides both halves from scratch:
//!
//! * [`Model`] — an AMPL-like modeling layer with indexed 0-1 variable
//!   families and named constraint groups for statistics;
//! * [`Problem`] — the raw variables/constraints/objective representation:
//!   rows stream in through a [`RowBuilder`], and the objective is one
//!   coefficient per column;
//! * [`Simplex`] — a bounded-variable two-phase revised simplex for the LP
//!   relaxations;
//! * [`solve_milp`] — branch and bound with a rounding heuristic, run to the
//!   paper's 0.01 % optimality gap by default.
//!
//! # Example
//!
//! ```
//! use ilp::{solve_milp, BranchConfig, Cmp, Problem};
//! // max 5x + 4y  s.t.  6x + 4y <= 24, x + 2y <= 6, x,y integer >= 0
//! let mut p = Problem::maximize();
//! let x = p.add_int_var("x", 0.0, 10.0);
//! let y = p.add_int_var("y", 0.0, 10.0);
//! let c = p.group("c");
//! p.row(c).term(x, 6.0).term(y, 4.0).finish(Cmp::Le, 24.0);
//! p.row(c).term(x, 1.0).term(y, 2.0).finish(Cmp::Le, 6.0);
//! p.objective_term(x, 5.0);
//! p.objective_term(y, 4.0);
//! let sol = solve_milp(&p, &BranchConfig::default())?;
//! assert!((sol.objective - 20.0).abs() < 1e-6); // x = 4, y = 0 (LP gives 21)
//! # Ok::<(), ilp::MilpError>(())
//! ```

#![warn(missing_docs)]

mod branch;
mod model;
mod presolve;
mod problem;
mod simplex;

pub use branch::{
    solve_milp, solve_milp_with, solve_rounded, solve_rounded_with, BranchConfig, MilpError,
    MilpSolution, SolveStats,
};
pub use model::{Family, Key, Model, ModelStats};
pub use presolve::{presolve, Infeasible, PresolveStats, Presolved};
pub use problem::{Cmp, GroupId, Problem, Row, RowBuilder, Sense, Var, VarData, VarKind};
pub use simplex::{LpError, LpSolution, Simplex};
