//! AMPL-style modeling layer: indexed families of 0-1 variables and named
//! constraint groups.
//!
//! The paper (§5, Figure 2) describes its ILP through AMPL: an abstract
//! model (`var Move {Exists, Banks, Banks} binary;`) instantiated with data
//! sets. This module provides the same ergonomics in Rust: a [`Model`] owns
//! a [`crate::Problem`] and hands out [`Family`] handles;
//! `m.binary(fam, &[p, v, b1, b2])` creates (or looks up) the 0-1 variable
//! `Move[p,v,b1,b2]`. Rows stream through [`Model::row`] under a
//! constraint group, and [`Model::stats`] reports per-group counts — the
//! data behind the Figure-6/Figure-7 model-size tables.

use crate::problem::{GroupId, Problem, RowBuilder, Var};
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

/// Handle to a named family of indexed variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Family(usize);

#[derive(Debug)]
struct FamilyData {
    name: String,
    columns: HashMap<Vec<Key>, Var>,
}

/// A model under construction. Wraps a [`Problem`] and provides indexed
/// variable families and named constraint groups.
///
/// # Examples
///
/// ```
/// use ilp::{Cmp, Model};
/// let mut m = Model::minimize();
/// let x = m.family("X");
/// let a = m.binary(x, &["p1".into(), 0u32.into()]);
/// let b = m.binary(x, &["p1".into(), 1u32.into()]);
/// let one_place = m.group("OnePlace");
/// m.row(one_place).term(a, 1.0).term(b, 1.0).finish(Cmp::Eq, 1.0);
/// m.objective_term(a, 2.0);
/// m.objective_term(b, 1.0);
/// let sol = m.solve(&Default::default()).unwrap();
/// assert_eq!(sol.objective, 1.0);
/// ```
#[derive(Debug)]
pub struct Model {
    problem: Problem,
    families: Vec<FamilyData>,
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
        }
    }

    /// Declare (or fetch) a family by name.
    pub fn family(&mut self, name: &str) -> Family {
        if let Some(i) = self.families.iter().position(|f| f.name == name) {
            return Family(i);
        }
        self.families.push(FamilyData {
            name: name.to_string(),
            columns: HashMap::new(),
        });
        Family(self.families.len() - 1)
    }

    /// Create (or fetch) the 0-1 variable `fam[index]`.
    pub fn binary(&mut self, fam: Family, index: &[Key]) -> Var {
        self.column(fam, index, |p, name| p.add_binary(name))
    }

    /// Create (or fetch) a continuous variable `fam[index]` within bounds.
    pub fn continuous(&mut self, fam: Family, index: &[Key], lower: f64, upper: f64) -> Var {
        self.column(fam, index, |p, name| p.add_var(name, lower, upper))
    }

    fn column(
        &mut self,
        fam: Family,
        index: &[Key],
        add: impl FnOnce(&mut Problem, String) -> Var,
    ) -> Var {
        let fd = &mut self.families[fam.0];
        if let Some(&v) = fd.columns.get(index) {
            return v;
        }
        let v = add(
            &mut self.problem,
            format!("{}[{}]", fd.name, fmt_index(index)),
        );
        fd.columns.insert(index.to_vec(), v);
        v
    }

    /// Intern a constraint group name on the underlying problem. Rows
    /// created under the returned id are counted per group without
    /// allocating a name per constraint.
    pub fn group(&mut self, name: &str) -> GroupId {
        self.problem.group(name)
    }

    /// Begin streaming a constraint row under a previously interned group
    /// (the zero-copy path; see [`crate::Problem::row`]).
    pub fn row(&mut self, g: GroupId) -> RowBuilder<'_> {
        self.problem.row(g)
    }

    /// Add `coeff` to the objective coefficient of `v` (see
    /// [`crate::Problem::objective_term`]).
    pub fn objective_term(&mut self, v: Var, coeff: f64) {
        self.problem.objective_term(v, coeff);
    }

    /// The underlying problem.
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// Solve by branch and bound.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::MilpError`] from the solver.
    pub fn solve(
        &self,
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
        &self,
        config: &crate::branch::BranchConfig,
        obs: &nova_obs::Obs,
    ) -> Result<crate::branch::MilpSolution, crate::branch::MilpError> {
        crate::branch::solve_milp_with(&self.problem, config, obs)
    }

    /// Solve only the LP relaxation and round (see
    /// [`crate::solve_rounded`]); telemetry goes to `obs`.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::MilpError`] from the solver.
    pub fn solve_rounded_with(
        &self,
        config: &crate::branch::BranchConfig,
        obs: &nova_obs::Obs,
    ) -> Result<crate::branch::MilpSolution, crate::branch::MilpError> {
        crate::branch::solve_rounded_with(&self.problem, config, obs)
    }

    /// Model-size statistics.
    pub fn stats(&self) -> ModelStats {
        let mut by_family: Vec<(String, usize)> = self
            .families
            .iter()
            .map(|f| (f.name.clone(), f.columns.len()))
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
            objective_terms: self.problem.objective.iter().filter(|&&c| c != 0.0).count(),
            variables_by_family: by_family,
            constraints_by_group: by_group,
        }
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
    use crate::problem::Cmp;

    #[test]
    fn families_dedupe_and_name() {
        let mut m = Model::minimize();
        let f = m.family("Move");
        let v1 = m.binary(f, &[Key::Int(1), Key::Sym("A")]);
        let v2 = m.binary(f, &[Key::Int(1), Key::Sym("A")]);
        assert_eq!(v1, v2);
        let f2 = m.family("Move");
        assert_eq!(f, f2);
        assert_eq!(m.problem().var_data(v1).name, "Move[1,A]");
    }

    #[test]
    fn solve_tiny_model() {
        // Choose exactly one of three slots, minimizing cost 3/1/2.
        let mut m = Model::minimize();
        let x = m.family("X");
        let v: Vec<_> = (0..3u32).map(|i| m.binary(x, &[Key::Int(i)])).collect();
        let g = m.group("OneOf");
        {
            let mut row = m.row(g);
            for &vi in &v {
                row.term(vi, 1.0);
            }
            row.finish(Cmp::Eq, 1.0);
        }
        for (&vi, cost) in v.iter().zip([3.0, 1.0, 2.0]) {
            m.objective_term(vi, cost);
        }
        let sol = m.solve(&BranchConfig::default()).unwrap();
        assert_eq!(sol.objective, 1.0);
        assert_eq!(sol.values[v[1].index()], 1.0);
        assert_eq!(m.stats().objective_terms, 3);
    }

    #[test]
    fn stats_group_counts() {
        let mut m = Model::minimize();
        let x = m.family("X");
        let a = m.binary(x, &[Key::Int(0)]);
        let b = m.binary(x, &[Key::Int(1)]);
        let g = m.group("G");
        let h = m.group("H");
        m.row(g).term(a, 1.0).finish(Cmp::Le, 1.0);
        m.row(g).term(b, 1.0).finish(Cmp::Le, 1.0);
        m.row(h).term(a, 1.0).term(b, 1.0).finish(Cmp::Ge, 1.0);
        let s = m.stats();
        assert_eq!(s.constraints, 3);
        assert!(s.constraints_by_group.contains(&("G".to_string(), 2)));
        assert!(s.constraints_by_group.contains(&("H".to_string(), 1)));
        assert_eq!(s.variables_by_family, vec![("X".to_string(), 2)]);
    }
}
