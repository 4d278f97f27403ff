//! AMPL-style modeling layer: indexed families of 0-1 variables,
//! expression aliases, and named constraint groups.
//!
//! The paper (§5, Figure 2) describes its ILP through AMPL: an abstract
//! model (`var Move {Exists, Banks, Banks} binary;`) instantiated with data
//! sets. This module provides the same ergonomics in Rust: a [`Model`] owns
//! a [`crate::Problem`] and hands out [`Family`] handles; `fam.var(&mut m,
//! &[p, v, b1, b2])` creates (or looks up) the 0-1 variable `Move[p,v,b1,b2]`.
//!
//! Two AMPL idioms the allocator relies on:
//!
//! * **Aliases.** The paper's `Before`/`After` variables are "redundant
//!   variables ... whose values are uniquely determined by the values of
//!   other variables" (§6). [`Model::alias`] binds an index to a
//!   [`LinExpr`] instead of a fresh column; constraint templates mentioning
//!   the alias expand symbolically, shrinking the generated program without
//!   changing its feasible set.
//! * **Constraint groups.** Constraints carry a group name, and
//!   [`Model::stats`] reports per-group counts — the data behind the
//!   Figure-6/Figure-7 model-size tables.

use crate::expr::{LinExpr, Var};
use crate::problem::{Cmp, GroupId, Problem, RowBuilder};
use std::collections::HashMap;
use std::fmt::Write as _;

/// One dimension of a family index. Program points, temporaries, banks and
/// registers all map onto these two cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Key {
    /// Numeric index (program point, temporary id, register number).
    Int(u32),
    /// Symbolic index (bank name); interned as a small id by the caller or
    /// used directly with `Key::sym`.
    Sym(&'static str),
}

impl From<u32> for Key {
    fn from(v: u32) -> Key {
        Key::Int(v)
    }
}

impl From<usize> for Key {
    fn from(v: usize) -> Key {
        Key::Int(v as u32)
    }
}

impl From<&'static str> for Key {
    fn from(v: &'static str) -> Key {
        Key::Sym(v)
    }
}

impl std::fmt::Display for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Key::Int(v) => write!(f, "{v}"),
            Key::Sym(s) => f.write_str(s),
        }
    }
}

/// Handle to a named family of indexed entries (variables or aliases).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Family(usize);

#[derive(Debug)]
enum Entry {
    Column(Var),
    Alias(LinExpr),
}

#[derive(Debug)]
struct FamilyData {
    name: String,
    entries: HashMap<Vec<Key>, Entry>,
}

/// A model under construction. Wraps a [`Problem`] and provides indexed
/// variable families and named constraint groups.
///
/// # Examples
///
/// ```
/// use ilp::{Model, Cmp, LinExpr};
/// let mut m = Model::minimize();
/// let x = m.family("X");
/// let a = m.binary(x, &["p1".into(), 0u32.into()]);
/// let b = m.binary(x, &["p1".into(), 1u32.into()]);
/// m.constrain("OnePlace", LinExpr::from(a) + b, Cmp::Eq, 1.0);
/// m.add_objective(LinExpr::from(a) * 2.0 + LinExpr::from(b));
/// let sol = m.solve(&Default::default()).unwrap();
/// assert_eq!(sol.objective, 1.0);
/// ```
#[derive(Debug)]
pub struct Model {
    problem: Problem,
    families: Vec<FamilyData>,
    objective: LinExpr,
}

/// Per-model statistics (sizes behind Figures 6 and 7).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModelStats {
    /// Total columns in the generated program.
    pub variables: usize,
    /// Total rows.
    pub constraints: usize,
    /// Nonzero terms in the objective.
    pub objective_terms: usize,
    /// Columns per family name.
    pub variables_by_family: Vec<(String, usize)>,
    /// Rows per constraint group.
    pub constraints_by_group: Vec<(String, usize)>,
}

impl Model {
    /// New minimization model.
    pub fn minimize() -> Self {
        Model {
            problem: Problem::minimize(),
            families: Vec::new(),
            objective: LinExpr::new(),
        }
    }

    /// Declare (or fetch) a family by name.
    pub fn family(&mut self, name: &str) -> Family {
        if let Some(i) = self.families.iter().position(|f| f.name == name) {
            return Family(i);
        }
        self.families.push(FamilyData {
            name: name.to_string(),
            entries: HashMap::new(),
        });
        Family(self.families.len() - 1)
    }

    /// Create (or fetch) the 0-1 variable `fam[index]`.
    ///
    /// # Panics
    ///
    /// Panics if `fam[index]` was previously bound as an alias.
    pub fn binary(&mut self, fam: Family, index: &[Key]) -> Var {
        let fd = &mut self.families[fam.0];
        if let Some(e) = fd.entries.get(index) {
            return match e {
                Entry::Column(v) => *v,
                Entry::Alias(_) => panic!(
                    "{}[{}] is an alias, not a column",
                    fd.name,
                    fmt_index(index)
                ),
            };
        }
        let name = format!("{}[{}]", fd.name, fmt_index(index));
        let v = self.problem.add_binary(name);
        self.families[fam.0]
            .entries
            .insert(index.to_vec(), Entry::Column(v));
        v
    }

    /// Create (or fetch) a continuous variable `fam[index]` within bounds.
    ///
    /// # Panics
    ///
    /// Panics if `fam[index]` was previously bound as an alias.
    pub fn continuous(&mut self, fam: Family, index: &[Key], lower: f64, upper: f64) -> Var {
        let fd = &mut self.families[fam.0];
        if let Some(e) = fd.entries.get(index) {
            return match e {
                Entry::Column(v) => *v,
                Entry::Alias(_) => panic!(
                    "{}[{}] is an alias, not a column",
                    fd.name,
                    fmt_index(index)
                ),
            };
        }
        let name = format!("{}[{}]", fd.name, fmt_index(index));
        let v = self.problem.add_var(name, lower, upper);
        self.families[fam.0]
            .entries
            .insert(index.to_vec(), Entry::Column(v));
        v
    }

    /// Look up `fam[index]` without creating it.
    pub fn lookup(&self, fam: Family, index: &[Key]) -> Option<LinExpr> {
        self.families[fam.0].entries.get(index).map(|e| match e {
            Entry::Column(v) => LinExpr::from(*v),
            Entry::Alias(e) => e.clone(),
        })
    }

    /// Bind `fam[index]` to an expression alias (the paper's "redundant
    /// variable" elimination). Later [`Model::expr`] calls expand the alias.
    ///
    /// # Panics
    ///
    /// Panics if the entry already exists.
    pub fn alias(&mut self, fam: Family, index: &[Key], expr: LinExpr) {
        let fd = &mut self.families[fam.0];
        let prev = fd.entries.insert(index.to_vec(), Entry::Alias(expr));
        assert!(
            prev.is_none(),
            "{}[{}] bound twice",
            fd.name,
            fmt_index(index)
        );
    }

    /// The expression for `fam[index]`: the column itself, or the alias
    /// expansion.
    ///
    /// # Panics
    ///
    /// Panics if the entry does not exist — the allocator's templates only
    /// reference entries created by earlier phases, so a miss is a bug.
    pub fn expr(&self, fam: Family, index: &[Key]) -> LinExpr {
        self.lookup(fam, index).unwrap_or_else(|| {
            panic!(
                "{}[{}] not defined",
                self.families[fam.0].name,
                fmt_index(index)
            )
        })
    }

    /// Whether `fam[index]` exists (column or alias).
    pub fn defined(&self, fam: Family, index: &[Key]) -> bool {
        self.families[fam.0].entries.contains_key(index)
    }

    /// Iterate over the indices defined in a family.
    pub fn indices(&self, fam: Family) -> impl Iterator<Item = &Vec<Key>> {
        self.families[fam.0].entries.keys()
    }

    /// Intern a constraint group name on the underlying problem. Rows
    /// created under the returned id are counted and displayed per group
    /// without allocating a name per constraint.
    pub fn group(&mut self, name: &str) -> GroupId {
        self.problem.group(name)
    }

    /// Begin streaming a constraint row under a previously interned group
    /// (the zero-copy path; see [`crate::Problem::row`]).
    pub fn row(&mut self, g: GroupId) -> RowBuilder<'_> {
        self.problem.row(g)
    }

    /// Add a named constraint.
    pub fn constrain(&mut self, group: &str, expr: LinExpr, cmp: Cmp, rhs: f64) {
        let g = self.problem.group(group);
        let mut b = self.problem.row(g);
        for &(v, c) in &expr.terms {
            b.term(v, c);
        }
        b.constant(expr.constant);
        b.finish(cmp, rhs);
    }

    /// Add a named lazy constraint (activated by the solver only when
    /// violated; see [`crate::Problem::add_lazy_constraint`]).
    pub fn constrain_lazy(&mut self, group: &str, expr: LinExpr, cmp: Cmp, rhs: f64) {
        let g = self.problem.group(group);
        let mut b = self.problem.row(g);
        for &(v, c) in &expr.terms {
            b.term(v, c);
        }
        b.constant(expr.constant);
        b.finish_lazy(cmp, rhs);
    }

    /// Accumulate terms into the objective.
    pub fn add_objective(&mut self, expr: LinExpr) {
        self.objective += expr;
    }

    /// Finish and return the underlying problem (objective installed).
    pub fn into_problem(mut self) -> Problem {
        self.problem.set_objective(self.objective);
        self.problem
    }

    /// Borrow the problem with the current objective installed.
    pub fn problem(&mut self) -> &Problem {
        let obj = self.objective.clone();
        self.problem.set_objective(obj);
        &self.problem
    }

    /// Solve by branch and bound.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::MilpError`] from the solver.
    pub fn solve(
        &mut self,
        config: &crate::branch::BranchConfig,
    ) -> Result<crate::branch::MilpSolution, crate::branch::MilpError> {
        self.solve_with(config, &nova_obs::Obs::noop())
    }

    /// [`solve`](Self::solve) with structured telemetry (see
    /// [`crate::solve_milp_with`]).
    ///
    /// # Errors
    ///
    /// Propagates [`crate::MilpError`] from the solver.
    pub fn solve_with(
        &mut self,
        config: &crate::branch::BranchConfig,
        obs: &nova_obs::Obs,
    ) -> Result<crate::branch::MilpSolution, crate::branch::MilpError> {
        crate::branch::solve_milp_with(self.problem(), config, obs)
    }

    /// Solve only the LP relaxation and round (see
    /// [`crate::solve_rounded`]); telemetry goes to `obs`.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::MilpError`] from the solver.
    pub fn solve_rounded_with(
        &mut self,
        config: &crate::branch::BranchConfig,
        obs: &nova_obs::Obs,
    ) -> Result<crate::branch::MilpSolution, crate::branch::MilpError> {
        crate::branch::solve_rounded_with(self.problem(), config, obs)
    }

    /// Model-size statistics. Takes `&self`: the objective term count is
    /// computed from a normalized copy without installing it on the problem.
    pub fn stats(&self) -> ModelStats {
        let mut obj = self.objective.clone();
        obj.normalize();
        let mut by_family: Vec<(String, usize)> = self
            .families
            .iter()
            .map(|f| {
                let cols = f
                    .entries
                    .values()
                    .filter(|e| matches!(e, Entry::Column(_)))
                    .count();
                (f.name.clone(), cols)
            })
            .collect();
        by_family.sort();
        let mut by_group: Vec<(String, usize)> = self
            .problem
            .group_counts()
            .filter(|&(_, n)| n > 0)
            .map(|(k, n)| (k.to_string(), n))
            .collect();
        by_group.sort();
        ModelStats {
            variables: self.problem.num_vars(),
            constraints: self.problem.num_constraints(),
            objective_terms: obj.len(),
            variables_by_family: by_family,
            constraints_by_group: by_group,
        }
    }

    /// Value of `fam[index]` in a solution vector (aliases are evaluated).
    pub fn value(&self, fam: Family, index: &[Key], values: &[f64]) -> f64 {
        self.expr(fam, index).eval(|v| values[v.index()])
    }
}

fn fmt_index(index: &[Key]) -> String {
    let mut s = String::new();
    for (i, k) in index.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{k}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::BranchConfig;

    #[test]
    fn families_dedupe_and_name() {
        let mut m = Model::minimize();
        let f = m.family("Move");
        let v1 = m.binary(f, &[Key::Int(1), Key::Sym("A")]);
        let v2 = m.binary(f, &[Key::Int(1), Key::Sym("A")]);
        assert_eq!(v1, v2);
        let f2 = m.family("Move");
        assert_eq!(f, f2);
    }

    #[test]
    fn alias_expands_in_expr() {
        let mut m = Model::minimize();
        let mv = m.family("Move");
        let before = m.family("Before");
        let a = m.binary(mv, &[Key::Int(0)]);
        let b = m.binary(mv, &[Key::Int(1)]);
        m.alias(before, &[Key::Int(0)], LinExpr::from(a) + b);
        let e = m.expr(before, &[Key::Int(0)]);
        assert_eq!(e.len(), 2);
        // Aliases do not create columns.
        let stats = m.stats();
        assert_eq!(stats.variables, 2);
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn alias_rebinding_panics() {
        let mut m = Model::minimize();
        let f = m.family("B");
        m.alias(f, &[Key::Int(0)], LinExpr::constant(0.0));
        m.alias(f, &[Key::Int(0)], LinExpr::constant(1.0));
    }

    #[test]
    fn solve_tiny_model() {
        // Choose exactly one of three slots, minimizing cost 3/1/2.
        let mut m = Model::minimize();
        let x = m.family("X");
        let v: Vec<_> = (0..3u32).map(|i| m.binary(x, &[Key::Int(i)])).collect();
        m.constrain("OneOf", LinExpr::sum(v.iter().copied()), Cmp::Eq, 1.0);
        m.add_objective(3.0 * v[0] + 1.0 * v[1] + 2.0 * v[2]);
        let sol = m.solve(&BranchConfig::default()).unwrap();
        assert_eq!(sol.objective, 1.0);
        assert_eq!(m.value(x, &[Key::Int(1)], &sol.values), 1.0);
    }

    #[test]
    fn stats_group_counts() {
        let mut m = Model::minimize();
        let x = m.family("X");
        let a = m.binary(x, &[Key::Int(0)]);
        let b = m.binary(x, &[Key::Int(1)]);
        m.constrain("G", LinExpr::from(a), Cmp::Le, 1.0);
        m.constrain("G", LinExpr::from(b), Cmp::Le, 1.0);
        m.constrain("H", LinExpr::from(a) + b, Cmp::Ge, 1.0);
        let s = m.stats();
        assert_eq!(s.constraints, 3);
        assert!(s.constraints_by_group.contains(&("G".to_string(), 2)));
        assert!(s.constraints_by_group.contains(&("H".to_string(), 1)));
    }
}
