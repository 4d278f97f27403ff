//! Problem representation: variables with bounds, linear constraints, and a
//! linear objective.
//!
//! A [`Problem`] is the solver-facing form of an optimization task. The
//! higher-level [`crate::Model`] builds a `Problem` underneath; code that
//! wants full control can construct one directly.
//!
//! # Storage
//!
//! Constraints live in one shared CSR (compressed sparse row) triple —
//! `row_starts` / `row_cols` / `row_vals` — instead of a per-constraint
//! `Vec<(Var, f64)>`. Rows enter only through a [`RowBuilder`], which
//! merges duplicate variables *eagerly* with a sort-free mark/generation
//! scratch, so a finished row is always normalized (sorted-by-insertion,
//! deduplicated, zero coefficients dropped) without ever materializing an
//! intermediate expression. Rows are not named: each is counted under an
//! interned constraint group, which is all the model-size tables read.
//!
//! The objective is one coefficient per column, accumulated by
//! [`Problem::objective_term`]; a zero coefficient means the column is
//! not in the objective.

use std::collections::HashMap;
use std::fmt;

/// A variable of an optimization problem, identified by its column index.
///
/// `Var`s are created by [`Problem::add_var`] (or the higher-level
/// [`crate::Model`]) and are only meaningful for the problem that created
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub(crate) u32);

impl Var {
    /// The column index of this variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Direction of optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Comparison operator of a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `expr ≤ rhs`
    Le,
    /// `expr = rhs`
    Eq,
    /// `expr ≥ rhs`
    Ge,
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Cmp::Le => "<=",
            Cmp::Eq => "=",
            Cmp::Ge => ">=",
        })
    }
}

/// Kind of a variable's domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Continuous within its bounds.
    Continuous,
    /// Integer within its bounds (binaries are `Integer` with bounds `[0,1]`).
    Integer,
}

/// Per-variable data.
#[derive(Debug, Clone)]
pub struct VarData {
    /// Human-readable name, used in diagnostics and model dumps.
    pub name: String,
    /// Lower bound (may be `f64::NEG_INFINITY`).
    pub lower: f64,
    /// Upper bound (may be `f64::INFINITY`).
    pub upper: f64,
    /// Continuous or integer.
    pub kind: VarKind,
}

/// An interned constraint-group name (see [`Problem::group`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupId(pub(crate) u32);

/// Per-row metadata (the coefficients live in the shared CSR arrays).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowMeta {
    pub(crate) cmp: Cmp,
    pub(crate) rhs: f64,
    pub(crate) lazy: bool,
}

/// Borrowed view of one constraint row: parallel `cols`/`vals` slices into
/// the problem's shared CSR arrays plus the comparison metadata.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    /// Column (variable) indices, strictly increasing in insertion order of
    /// first occurrence; never contains duplicates.
    pub cols: &'a [u32],
    /// Coefficients parallel to `cols`; never zero.
    pub vals: &'a [f64],
    /// Comparison operator.
    pub cmp: Cmp,
    /// Right-hand side (any [`RowBuilder::constant`] already folded in).
    pub rhs: f64,
    /// Lazy constraints start outside the working LP and are activated by
    /// the solver only when a candidate solution violates them (typical
    /// for the allocator's interference rows, which are almost all slack).
    pub lazy: bool,
}

impl Row<'_> {
    /// Evaluate the row's left-hand side at assignment `x`.
    pub fn eval(&self, x: &[f64]) -> f64 {
        self.cols
            .iter()
            .zip(self.vals)
            .map(|(&c, &a)| a * x[c as usize])
            .sum()
    }

    /// Violation of the row at `x` (0 when satisfied).
    pub fn violation(&self, x: &[f64]) -> f64 {
        let lhs = self.eval(x);
        match self.cmp {
            Cmp::Le => (lhs - self.rhs).max(0.0),
            Cmp::Ge => (self.rhs - lhs).max(0.0),
            Cmp::Eq => (lhs - self.rhs).abs(),
        }
    }

    /// Number of nonzero terms.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True when the row has no terms.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }
}

/// A linear (mixed-integer) optimization problem.
///
/// # Examples
///
/// Solve `min x + y  s.t.  x + 2y ≥ 3, 0 ≤ x,y ≤ 2`:
///
/// ```
/// use ilp::{Cmp, Problem};
/// let mut p = Problem::minimize();
/// let x = p.add_var("x", 0.0, 2.0);
/// let y = p.add_var("y", 0.0, 2.0);
/// let g = p.group("c");
/// p.row(g).term(x, 1.0).term(y, 2.0).finish(Cmp::Ge, 3.0);
/// p.objective_term(x, 1.0);
/// p.objective_term(y, 1.0);
/// let sol = p.solve_lp().unwrap();
/// assert!((sol.objective - 1.5).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct Problem {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<VarData>,
    /// Objective coefficient per column (grows with the columns).
    pub(crate) objective: Vec<f64>,
    // Shared CSR storage for all constraint rows.
    pub(crate) row_starts: Vec<u32>,
    pub(crate) row_cols: Vec<u32>,
    pub(crate) row_vals: Vec<f64>,
    pub(crate) rows: Vec<RowMeta>,
    // Interned group names and per-group row counts.
    groups: Vec<String>,
    group_next: Vec<u32>,
    group_lookup: HashMap<String, u32>,
    // RowBuilder dedup scratch: `pos[v]` is valid when `mark[v] == gen`.
    mark: Vec<u32>,
    pos: Vec<u32>,
    gen: u32,
}

impl Problem {
    /// Create an empty minimization problem.
    pub fn minimize() -> Self {
        Problem {
            sense: Sense::Minimize,
            vars: Vec::new(),
            objective: Vec::new(),
            row_starts: vec![0],
            row_cols: Vec::new(),
            row_vals: Vec::new(),
            rows: Vec::new(),
            groups: Vec::new(),
            group_next: Vec::new(),
            group_lookup: HashMap::new(),
            mark: Vec::new(),
            pos: Vec::new(),
            gen: 0,
        }
    }

    /// Create an empty maximization problem.
    pub fn maximize() -> Self {
        Problem {
            sense: Sense::Maximize,
            ..Problem::minimize()
        }
    }

    /// The optimization sense.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Add a continuous variable with the given bounds.
    pub fn add_var(&mut self, name: impl Into<String>, lower: f64, upper: f64) -> Var {
        self.push_var(name.into(), lower, upper, VarKind::Continuous)
    }

    /// Add an integer variable with the given bounds.
    pub fn add_int_var(&mut self, name: impl Into<String>, lower: f64, upper: f64) -> Var {
        self.push_var(name.into(), lower, upper, VarKind::Integer)
    }

    /// Add a 0-1 variable.
    pub fn add_binary(&mut self, name: impl Into<String>) -> Var {
        self.push_var(name.into(), 0.0, 1.0, VarKind::Integer)
    }

    fn push_var(&mut self, name: String, lower: f64, upper: f64, kind: VarKind) -> Var {
        assert!(
            lower <= upper,
            "variable {name}: lower bound {lower} > upper bound {upper}"
        );
        let v = Var(self.vars.len() as u32);
        self.vars.push(VarData {
            name,
            lower,
            upper,
            kind,
        });
        self.objective.push(0.0);
        v
    }

    /// Add `coeff` to the objective coefficient of `v`.
    pub fn objective_term(&mut self, v: Var, coeff: f64) {
        self.objective[v.index()] += coeff;
    }

    /// Intern a constraint-group name; rows added under the returned id
    /// are counted per group.
    pub fn group(&mut self, name: &str) -> GroupId {
        if let Some(&g) = self.group_lookup.get(name) {
            return GroupId(g);
        }
        let g = self.groups.len() as u32;
        self.groups.push(name.to_string());
        self.group_next.push(0);
        self.group_lookup.insert(name.to_string(), g);
        GroupId(g)
    }

    /// Interned group names with their row counts, in interning order.
    pub fn group_counts(&self) -> impl Iterator<Item = (&str, usize)> {
        self.groups
            .iter()
            .zip(&self.group_next)
            .map(|(n, &c)| (n.as_str(), c as usize))
    }

    /// Start streaming a new constraint row under group `g`. Terms are
    /// merged eagerly; call [`RowBuilder::finish`] (or
    /// [`RowBuilder::finish_lazy`]) to commit the row. Dropping the builder
    /// without finishing rolls the row back.
    pub fn row(&mut self, g: GroupId) -> RowBuilder<'_> {
        self.group_next[g.0 as usize] += 1;
        if self.mark.len() < self.vars.len() {
            self.mark.resize(self.vars.len(), 0);
            self.pos.resize(self.vars.len(), 0);
        }
        self.gen = match self.gen.checked_add(1) {
            Some(g) => g,
            None => {
                self.mark.iter_mut().for_each(|m| *m = 0);
                1
            }
        };
        RowBuilder {
            start: self.row_cols.len(),
            constant: 0.0,
            done: false,
            p: self,
        }
    }

    /// Borrowed view of constraint row `i`.
    pub fn row_view(&self, i: usize) -> Row<'_> {
        let m = &self.rows[i];
        let s = self.row_starts[i] as usize;
        let e = self.row_starts[i + 1] as usize;
        Row {
            cols: &self.row_cols[s..e],
            vals: &self.row_vals[s..e],
            cmp: m.cmp,
            rhs: m.rhs,
            lazy: m.lazy,
        }
    }

    /// Iterate over all constraint rows.
    pub fn row_views(&self) -> impl Iterator<Item = Row<'_>> {
        (0..self.rows.len()).map(|i| self.row_view(i))
    }

    /// Evaluate constraint row `i` at `x` and report the violation amount
    /// (0 when satisfied).
    pub fn violation(&self, i: usize, x: &[f64]) -> f64 {
        self.row_view(i).violation(x)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Total number of nonzero coefficients across all constraint rows.
    pub fn num_nonzeros(&self) -> usize {
        self.row_cols.len()
    }

    /// Data for variable `v`.
    pub fn var_data(&self, v: Var) -> &VarData {
        &self.vars[v.index()]
    }

    /// Data for every variable, in column order (differential harnesses
    /// rebuild a structurally identical problem from this).
    pub fn var_datas(&self) -> &[VarData] {
        &self.vars
    }

    /// Tighten the bounds of `v` (used by branch & bound).
    pub fn set_bounds(&mut self, v: Var, lower: f64, upper: f64) {
        let d = &mut self.vars[v.index()];
        d.lower = lower;
        d.upper = upper;
    }

    /// Metadata of row `i` (used by presolve to carry it across the
    /// reduction).
    pub(crate) fn row_meta(&self, i: usize) -> RowMeta {
        self.rows[i]
    }

    /// Copy of this problem with the same variables, objective, and interned
    /// group names but no constraint rows (presolve materializes the reduced
    /// row set into it).
    pub(crate) fn clone_shell(&self) -> Problem {
        Problem {
            sense: self.sense,
            vars: self.vars.clone(),
            objective: self.objective.clone(),
            row_starts: vec![0],
            row_cols: Vec::new(),
            row_vals: Vec::new(),
            rows: Vec::new(),
            groups: self.groups.clone(),
            group_next: self.group_next.clone(),
            group_lookup: self.group_lookup.clone(),
            mark: Vec::new(),
            pos: Vec::new(),
            gen: 0,
        }
    }

    /// Append a row whose terms are already deduplicated (presolve streams
    /// surviving rows of an existing problem, which the `RowBuilder`
    /// normalized on first construction).
    pub(crate) fn push_row_raw(&mut self, meta: RowMeta, terms: impl Iterator<Item = (u32, f64)>) {
        for (c, a) in terms {
            self.row_cols.push(c);
            self.row_vals.push(a);
        }
        self.row_starts.push(self.row_cols.len() as u32);
        self.rows.push(meta);
    }

    /// Check whether a full assignment satisfies every constraint and bound
    /// within tolerance `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.vars.len() {
            return false;
        }
        for (i, d) in self.vars.iter().enumerate() {
            if x[i] < d.lower - tol || x[i] > d.upper + tol {
                return false;
            }
            if d.kind == VarKind::Integer && (x[i] - x[i].round()).abs() > tol {
                return false;
            }
        }
        for r in self.row_views() {
            let lhs = r.eval(x);
            let ok = match r.cmp {
                Cmp::Le => lhs <= r.rhs + tol,
                Cmp::Eq => (lhs - r.rhs).abs() <= tol,
                Cmp::Ge => lhs >= r.rhs - tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Evaluate the objective at assignment `x`: the nonzero coefficients'
    /// terms, summed in column order.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.objective
            .iter()
            .zip(x)
            .filter(|&(&c, _)| c != 0.0)
            .fold(0.0, |acc, (&c, &xj)| acc + c * xj)
    }

    /// Solve the continuous (LP) relaxation of this problem with the
    /// built-in simplex engine; integrality restrictions are ignored.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::LpError`] from the simplex.
    pub fn solve_lp(&self) -> Result<crate::LpSolution, crate::LpError> {
        crate::Simplex::new(self).solve()
    }
}

/// Streaming builder for one constraint row (see [`Problem::row`]).
///
/// Terms are appended directly to the problem's shared CSR arrays;
/// duplicate variables are merged in place via a persistent
/// mark/generation scratch, so no sorting or intermediate allocation
/// happens per row.
pub struct RowBuilder<'a> {
    p: &'a mut Problem,
    start: usize,
    constant: f64,
    done: bool,
}

impl RowBuilder<'_> {
    /// Add `coeff·var` to the row, merging with any existing term for `var`.
    pub fn term(&mut self, v: Var, coeff: f64) -> &mut Self {
        let j = v.index();
        if self.p.mark[j] == self.p.gen {
            self.p.row_vals[self.p.pos[j] as usize] += coeff;
        } else {
            self.p.mark[j] = self.p.gen;
            self.p.pos[j] = self.p.row_vals.len() as u32;
            self.p.row_cols.push(v.0);
            self.p.row_vals.push(coeff);
        }
        self
    }

    /// Add a constant to the row's left-hand side (folded into the
    /// right-hand side at finish time).
    pub fn constant(&mut self, c: f64) -> &mut Self {
        self.constant += c;
        self
    }

    /// Number of distinct variables streamed so far.
    pub fn len(&self) -> usize {
        self.p.row_cols.len() - self.start
    }

    /// True when no terms have been streamed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Commit the row as `lhs cmp rhs`. Further calls on this builder are
    /// a logic error (the builder is inert once finished).
    pub fn finish(&mut self, cmp: Cmp, rhs: f64) {
        self.commit(cmp, rhs, false);
    }

    /// Commit the row as a lazy constraint (see [`Row::lazy`]).
    pub fn finish_lazy(&mut self, cmp: Cmp, rhs: f64) {
        self.commit(cmp, rhs, true);
    }

    fn commit(&mut self, cmp: Cmp, rhs: f64, lazy: bool) {
        debug_assert!(!self.done, "row already finished");
        self.done = true;
        // Compact exact-zero coefficients (cancelled terms) in place.
        let mut w = self.start;
        for r in self.start..self.p.row_vals.len() {
            let a = self.p.row_vals[r];
            if a != 0.0 {
                self.p.row_cols[w] = self.p.row_cols[r];
                self.p.row_vals[w] = a;
                w += 1;
            }
        }
        self.p.row_cols.truncate(w);
        self.p.row_vals.truncate(w);
        self.p.row_starts.push(w as u32);
        self.p.rows.push(RowMeta {
            cmp,
            rhs: rhs - self.constant,
            lazy,
        });
    }
}

impl Drop for RowBuilder<'_> {
    fn drop(&mut self) {
        if !self.done {
            // Roll back an unfinished row.
            self.p.row_cols.truncate(self.start);
            self.p.row_vals.truncate(self.start);
        }
    }
}

/// Test shorthands over [`RowBuilder`] and [`Problem::objective_term`].
#[cfg(test)]
pub(crate) mod testing {
    use super::{Cmp, Problem, Var};

    /// Append `Σ coeff·var cmp rhs` as one row (lazy when `lazy`).
    pub(crate) fn row(p: &mut Problem, terms: &[(Var, f64)], cmp: Cmp, rhs: f64, lazy: bool) {
        let g = p.group("r");
        let mut b = p.row(g);
        for &(v, c) in terms {
            b.term(v, c);
        }
        if lazy {
            b.finish_lazy(cmp, rhs);
        } else {
            b.finish(cmp, rhs);
        }
    }

    /// Add each `coeff·var` to the objective.
    pub(crate) fn objective(p: &mut Problem, terms: &[(Var, f64)]) {
        for &(v, c) in terms {
            p.objective_term(v, c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folds_into_rhs() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", 0.0, 10.0);
        let g = p.group("c");
        p.row(g).term(x, 1.0).constant(4.0).finish(Cmp::Le, 10.0);
        assert_eq!(p.row_view(0).rhs, 6.0);
    }

    #[test]
    fn feasibility_checks_bounds_and_integrality() {
        let mut p = Problem::minimize();
        let x = p.add_binary("x");
        let g = p.group("c");
        p.row(g).term(x, 1.0).finish(Cmp::Le, 1.0);
        assert!(p.is_feasible(&[1.0], 1e-6));
        assert!(!p.is_feasible(&[0.5], 1e-6)); // fractional binary
        assert!(!p.is_feasible(&[2.0], 1e-6)); // out of bounds
    }

    #[test]
    #[should_panic(expected = "lower bound")]
    fn rejects_crossed_bounds() {
        let mut p = Problem::minimize();
        p.add_var("x", 1.0, 0.0);
    }

    #[test]
    fn objective_terms_accumulate_per_column() {
        let mut p = Problem::minimize();
        let x = p.add_binary("x");
        let y = p.add_binary("y");
        let z = p.add_binary("z");
        p.objective_term(y, 2.0);
        p.objective_term(x, 1.5);
        p.objective_term(y, 0.5);
        p.objective_term(z, 1.0);
        p.objective_term(z, -1.0);
        assert_eq!(p.objective, vec![1.5, 2.5, 0.0]);
        assert_eq!(p.objective_value(&[1.0, 1.0, 1.0]), 4.0);
        assert_eq!(p.objective_value(&[0.0, 0.0, 1.0]), 0.0);
    }

    #[test]
    fn row_builder_merges_duplicates_and_drops_zeros() {
        let mut p = Problem::minimize();
        let x = p.add_binary("x");
        let y = p.add_binary("y");
        let z = p.add_binary("z");
        let g = p.group("g");
        p.row(g)
            .term(x, 1.0)
            .term(y, 2.0)
            .term(x, 1.5)
            .term(z, 1.0)
            .term(z, -1.0)
            .finish(Cmp::Le, 4.0);
        let r = p.row_view(0);
        assert_eq!(r.cols, &[0, 1]);
        assert_eq!(r.vals, &[2.5, 2.0]);
    }

    #[test]
    fn dropped_builder_rolls_back() {
        let mut p = Problem::minimize();
        let x = p.add_binary("x");
        let g = p.group("g");
        {
            let mut b = p.row(g);
            b.term(x, 1.0);
            // dropped without finish
        }
        assert_eq!(p.num_constraints(), 0);
        assert_eq!(p.num_nonzeros(), 0);
    }

    #[test]
    fn group_counts_count_rows() {
        let mut p = Problem::minimize();
        let x = p.add_binary("x");
        let g = p.group("One");
        p.row(g).term(x, 1.0).finish(Cmp::Eq, 1.0);
        p.row(g).term(x, 1.0).finish(Cmp::Le, 1.0);
        let counts: Vec<_> = p.group_counts().collect();
        assert_eq!(counts, vec![("One", 2)]);
    }
}
