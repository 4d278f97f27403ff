//! Bounded-variable revised simplex on a sparse LU basis factorization,
//! with dual-simplex warm starting and incremental row addition.
//!
//! This is the LP engine behind [`crate::branch`]'s branch-and-bound:
//!
//! * **cold solves** run the textbook two-phase primal method: slack basis,
//!   artificials only for rows the slacks cannot cover, devex pricing with
//!   a candidate list and a Bland's-rule anti-cycling fallback, bound
//!   flips for the bounded-variable generalization;
//! * **warm solves** ([`Simplex::resolve_with_bounds`]) reuse the previous
//!   optimal basis after bound changes: the basis stays dual feasible, so
//!   a handful of dual-simplex pivots restores primal feasibility — this
//!   is what makes branch-and-bound nodes cheap;
//! * **row addition** ([`Simplex::add_rows`]) extends the basis with the
//!   new slacks (a block-triangular append operator on the factorization)
//!   without disturbing dual feasibility — this is what makes
//!   lazy-constraint activation cheap.
//!
//! The basis is represented by a sparse LU factorization with Markowitz
//! threshold pivoting plus a product-form eta file appended per pivot
//! ([`factor`]); FTRAN/BTRAN run through the factors in O(nnz) instead of
//! the O(m²) of the previous dense explicit inverse. The factorization is
//! rebuilt every ~[`factor::DEFAULT_REFACTOR_INTERVAL`] etas, and early
//! whenever the FTRAN and BTRAN images of the pivot element disagree
//! (accumulated error); each rebuild also recomputes the basic solution
//! against `b` and the reduced costs from scratch. Reduced costs are
//! otherwise maintained incrementally from the pivot row, so a pivot costs
//! O(m + nnz(pivot row)) rather than a dense pricing pass. A release build
//! has this one kernel; the dense explicit inverse it replaced survives
//! only in test builds (`dense.rs`), as the reference the LP-level
//! differential tests below solve against.

mod factor;
mod pricing;

use crate::problem::{Cmp, Problem, Sense};
use factor::SparseKernel;
use pricing::{DualPricing, PrimalPricing};
use std::time::Instant;

/// Numeric tolerance for feasibility and reduced-cost tests.
const TOL: f64 = 1e-7;
/// Smallest pivot magnitude accepted.
const PIVOT_TOL: f64 = 1e-9;
/// Consecutive degenerate pivots before switching to Bland's rule.
const DEGENERATE_LIMIT: usize = 200;
/// Pivots between deadline polls (keeps `Instant::now` off the hot path).
const DEADLINE_STRIDE: usize = 64;
/// Relative FTRAN-vs-BTRAN disagreement on the pivot element that
/// triggers an early refactorization.
const PIVOT_AGREE_TOL: f64 = 1e-7;
/// Reduced-cost refreshes allowed per `optimize` call before an
/// optimality claim is accepted without re-verification.
const MAX_OPT_REFRESH: usize = 10;

/// Why an LP solve did not return an optimum.
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// No assignment satisfies the constraints and bounds.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// The iteration limit was exceeded (numerical trouble).
    IterationLimit,
    /// The solve deadline installed by [`Simplex::set_deadline`] passed
    /// mid-pivot-loop. The workspace state is *not* reusable for a warm
    /// start afterwards.
    TimeLimit,
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LpError::Infeasible => "linear program is infeasible",
            LpError::Unbounded => "linear program is unbounded",
            LpError::IterationLimit => "simplex iteration limit exceeded",
            LpError::TimeLimit => "simplex deadline exceeded",
        })
    }
}

impl std::error::Error for LpError {}

/// An optimal LP solution.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Optimal objective value (in the problem's original sense).
    pub objective: f64,
    /// Value of each structural variable, indexed by [`crate::Var::index`].
    pub values: Vec<f64>,
    /// Simplex pivots performed.
    pub iterations: usize,
}

/// Cumulative factorization telemetry for a [`Simplex`] workspace.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct KernelStats {
    /// LU factorizations performed (cold starts + periodic rebuilds).
    pub(crate) refactorizations: usize,
    /// Eta matrices appended to the factorization (one per basis pivot).
    pub(crate) eta_pivots: usize,
    /// Peak nonzero count of an LU factorization (fill-in measure).
    pub(crate) lu_fill_nnz: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ColState {
    Basic(usize),
    AtLower,
    AtUpper,
}

/// Basis kernel: the shared FTRAN/BTRAN/update/append interface over the
/// sparse LU engine (and, in test builds, the dense reference inverse).
enum Kernel {
    Sparse(Box<SparseKernel>),
    #[cfg(test)]
    Dense(dense::DenseKernel),
}

impl Kernel {
    fn sparse() -> Kernel {
        Kernel::Sparse(Box::new(SparseKernel::new(
            factor::DEFAULT_REFACTOR_INTERVAL,
        )))
    }

    /// Install a fresh basis (cold start; `basis[p]` indexes the column of
    /// `cols` basic at position `p`). The cold basis is diagonal by
    /// construction.
    fn reset_basis(
        &mut self,
        m: usize,
        basis: &[usize],
        cols: &[Vec<(usize, f64)>],
    ) -> Result<(), LpError> {
        match self {
            #[cfg(test)]
            Kernel::Dense(dk) => {
                dk.reset_diag(m, basis, cols);
                Ok(())
            }
            Kernel::Sparse(sk) => sk
                .refactor(m, basis, cols)
                .map_err(|_| LpError::IterationLimit),
        }
    }

    /// Mid-solve refactorization; returns whether a fresh factorization
    /// was installed. The dense kernel never refactors; a numerically
    /// singular factorization keeps the (valid) eta pipeline and retries
    /// after another interval.
    fn try_refactor(&mut self, m: usize, basis: &[usize], cols: &[Vec<(usize, f64)>]) -> bool {
        match self {
            #[cfg(test)]
            Kernel::Dense(_) => false,
            Kernel::Sparse(sk) => match sk.refactor(m, basis, cols) {
                Ok(()) => true,
                Err(_) => {
                    sk.defer_refactor();
                    false
                }
            },
        }
    }

    fn should_refactor(&self) -> bool {
        match self {
            #[cfg(test)]
            Kernel::Dense(_) => false,
            Kernel::Sparse(sk) => sk.should_refactor(),
        }
    }

    /// w = B⁻¹ a for a sparse column (duplicate row entries summed).
    fn ftran_col(&mut self, col: &[(usize, f64)], out: &mut [f64]) {
        match self {
            #[cfg(test)]
            Kernel::Dense(dk) => dk.ftran_col(col, out),
            Kernel::Sparse(sk) => {
                for v in out.iter_mut() {
                    *v = 0.0;
                }
                for &(i, a) in col {
                    out[i] += a;
                }
                sk.ftran(out);
            }
        }
    }

    /// x = B⁻¹ v in place.
    fn ftran_dense(&mut self, v: &mut [f64]) {
        match self {
            #[cfg(test)]
            Kernel::Dense(dk) => dk.ftran(v),
            Kernel::Sparse(sk) => sk.ftran(v),
        }
    }

    /// y = B⁻ᵀ v in place.
    fn btran_dense(&mut self, v: &mut [f64]) {
        match self {
            #[cfg(test)]
            Kernel::Dense(dk) => dk.btran(v),
            Kernel::Sparse(sk) => sk.btran(v),
        }
    }

    /// ρ = B⁻ᵀ e_r (the pivot row of B⁻¹).
    fn btran_unit(&mut self, r: usize, out: &mut [f64]) {
        match self {
            #[cfg(test)]
            Kernel::Dense(dk) => dk.btran_unit(r, out),
            Kernel::Sparse(sk) => {
                for v in out.iter_mut() {
                    *v = 0.0;
                }
                out[r] = 1.0;
                sk.btran(out);
            }
        }
    }

    /// Basis change at position `r`; `w` is the entering column's FTRAN
    /// image.
    fn update(&mut self, r: usize, w: &[f64]) {
        match self {
            #[cfg(test)]
            Kernel::Dense(dk) => dk.update(r, w),
            Kernel::Sparse(sk) => sk.update(r, w),
        }
    }

    /// Extend the basis for appended rows; `c_rows[k]` holds row k's
    /// coefficients under the current basic columns, by basis position.
    fn append(&mut self, c_rows: Vec<Vec<(u32, f64)>>) {
        match self {
            #[cfg(test)]
            Kernel::Dense(dk) => dk.append(&c_rows),
            Kernel::Sparse(sk) => sk.append(c_rows),
        }
    }

    #[cfg(test)]
    fn set_refactor_interval(&mut self, k: usize) {
        if let Kernel::Sparse(sk) = self {
            sk.set_refactor_interval(k);
        }
    }

    fn stats(&self) -> KernelStats {
        match self {
            #[cfg(test)]
            Kernel::Dense(_) => KernelStats::default(),
            Kernel::Sparse(sk) => KernelStats {
                refactorizations: sk.refactorizations,
                eta_pivots: sk.total_etas,
                lu_fill_nnz: sk.lu_fill_nnz,
            },
        }
    }
}

/// Reusable simplex workspace. The constraint matrix may grow by
/// [`Simplex::add_rows`]; variable bounds change per solve.
pub struct Simplex {
    m: usize,
    n_struct: usize,
    /// Sparse columns: (row, coefficient) pairs.
    cols: Vec<Vec<(usize, f64)>>,
    /// Row-major mirror of `cols`: (column, coefficient) pairs per row,
    /// used to form pivot-row alphas from a sparse BTRAN image.
    rows_idx: Vec<Vec<(u32, f64)>>,
    /// Right-hand sides per row.
    b: Vec<f64>,
    /// Slack column of each row.
    slack_cols: Vec<usize>,
    /// Default bounds per column (structural defaults, slack senses,
    /// artificial `[0, ∞)`); same length as `cols`.
    lower0: Vec<f64>,
    upper0: Vec<f64>,
    /// Phase-2 cost per column (minimization form).
    cost: Vec<f64>,
    obj_negate: bool,
    /// Artificial columns created by cold starts (zombified on reset).
    artificials: Vec<usize>,

    // Per-solve state.
    lower: Vec<f64>,
    upper: Vec<f64>,
    x: Vec<f64>,
    state: Vec<ColState>,
    basis: Vec<usize>,
    /// Basis factorization kernel (sparse LU + etas).
    kernel: Kernel,
    /// Reduced costs, maintained incrementally from the pivot row (valid
    /// for warm starts when `warm`).
    d: Vec<f64>,
    /// Active cost vector of the current pivot loop (phase-1 artificial
    /// costs or a copy of `cost`); a reusable buffer so per-node solves
    /// never clone the cost vector.
    ccur: Vec<f64>,
    /// Reusable right-hand-side buffer for [`Simplex::recompute_basics`].
    rhs_buf: Vec<f64>,
    /// Warm-start state is valid (basis optimal & dual feasible).
    warm: bool,
    /// The last completed solve stayed on the dual-simplex warm path.
    last_warm: bool,
    /// Abort pivot loops past this instant with [`LpError::TimeLimit`].
    deadline: Option<Instant>,
    // Pricing state.
    primal_pricing: PrimalPricing,
    dual_pricing: DualPricing,
    // Scratch.
    y: Vec<f64>,
    w: Vec<f64>,
    alpha: Vec<f64>,
    /// Columns with nonzero `alpha` this pivot.
    touched: Vec<u32>,
    /// Generation marks validating `alpha` entries.
    mark: Vec<u64>,
    mark_gen: u64,
}

impl Simplex {
    /// Build a workspace for `problem` (all of its constraints) on the
    /// sparse LU kernel.
    pub fn new(problem: &Problem) -> Self {
        Self::with_rows(problem, None)
    }

    /// Build a workspace containing only the selected constraint indices
    /// (used by the lazy-row solver).
    pub fn with_rows(problem: &Problem, rows: Option<&[usize]>) -> Self {
        Self::build(problem, rows, Kernel::sparse())
    }

    /// [`Simplex::with_rows`] on the dense reference kernel.
    #[cfg(test)]
    pub(crate) fn with_rows_dense(problem: &Problem, rows: Option<&[usize]>) -> Self {
        Self::build(problem, rows, Kernel::Dense(dense::DenseKernel::default()))
    }

    fn build(problem: &Problem, rows: Option<&[usize]>, kernel: Kernel) -> Self {
        let idx: Vec<usize> = match rows {
            Some(r) => r.to_vec(),
            None => (0..problem.num_constraints()).collect(),
        };
        let m = idx.len();
        let n_struct = problem.vars.len();
        let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n_struct];
        let mut b = Vec::with_capacity(m);
        let mut slack_cols = Vec::with_capacity(m);
        let mut lower0: Vec<f64> = problem.vars.iter().map(|d| d.lower).collect();
        let mut upper0: Vec<f64> = problem.vars.iter().map(|d| d.upper).collect();
        for (i, &ci) in idx.iter().enumerate() {
            let r = problem.row_view(ci);
            for (&v, &a) in r.cols.iter().zip(r.vals) {
                cols[v as usize].push((i, a));
            }
            let sc = cols.len();
            cols.push(vec![(i, 1.0)]);
            let (l, u) = slack_bounds(r.cmp);
            lower0.push(l);
            upper0.push(u);
            slack_cols.push(sc);
            b.push(r.rhs);
        }
        let mut rows_idx: Vec<Vec<(u32, f64)>> = vec![Vec::new(); m];
        for (j, col) in cols.iter().enumerate() {
            for &(i, a) in col {
                rows_idx[i].push((j as u32, a));
            }
        }
        let obj_negate = problem.sense == Sense::Maximize;
        let mut cost = vec![0.0; cols.len()];
        for (cj, &c) in cost.iter_mut().zip(&problem.objective) {
            if c != 0.0 {
                *cj = if obj_negate { -c } else { c };
            }
        }
        Simplex {
            m,
            n_struct,
            cols,
            rows_idx,
            b,
            slack_cols,
            lower0,
            upper0,
            cost,
            obj_negate,
            artificials: Vec::new(),
            lower: Vec::new(),
            upper: Vec::new(),
            x: Vec::new(),
            state: Vec::new(),
            basis: Vec::new(),
            kernel,
            d: Vec::new(),
            ccur: Vec::new(),
            rhs_buf: Vec::new(),
            warm: false,
            last_warm: false,
            deadline: None,
            primal_pricing: PrimalPricing::new(),
            dual_pricing: DualPricing::new(),
            y: Vec::new(),
            w: Vec::new(),
            alpha: Vec::new(),
            touched: Vec::new(),
            mark: Vec::new(),
            mark_gen: 0,
        }
    }

    /// Number of rows currently in the working LP.
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Cumulative factorization counters (zeros on the dense kernel).
    pub(crate) fn kernel_stats(&self) -> KernelStats {
        self.kernel.stats()
    }

    /// Override the eta-file length that triggers refactorization (no
    /// effect on the dense kernel).
    #[cfg(test)]
    pub(crate) fn set_refactor_interval(&mut self, etas: usize) {
        self.kernel.set_refactor_interval(etas);
    }

    /// Install (or clear) a wall-clock deadline. Both pivot loops poll it
    /// every [`DEADLINE_STRIDE`] iterations and abort with
    /// [`LpError::TimeLimit`] once it has passed, so a single long LP
    /// cannot overshoot a solver time budget by more than a few pivots.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Whether the last completed solve was served by the dual-simplex
    /// warm path (no cold two-phase fallback). Used for warm-start-hit
    /// telemetry by the branch-and-bound driver.
    pub(crate) fn last_solve_was_warm(&self) -> bool {
        self.last_warm
    }

    fn deadline_hit(&self, iterations: usize) -> bool {
        iterations.is_multiple_of(DEADLINE_STRIDE)
            && self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Append constraints to the working LP. The previous optimal basis is
    /// extended with the new slacks (which may start out of bounds) by an
    /// append operator on the factorization; dual feasibility is
    /// preserved, so the next [`Simplex::resolve_with_bounds`] repairs
    /// primal feasibility with a few dual pivots.
    pub fn add_rows(&mut self, problem: &Problem, rows: &[usize]) {
        let k = rows.len();
        if k == 0 {
            return;
        }
        let m_old = self.m;
        let m_new = m_old + k;
        // Extend columns and create the new slacks.
        let mut c_rows: Vec<Vec<(u32, f64)>> = Vec::with_capacity(k);
        for (off, &ci) in rows.iter().enumerate() {
            let c = problem.row_view(ci);
            let r = m_old + off;
            let mut row_pat: Vec<(u32, f64)> = Vec::with_capacity(c.cols.len() + 1);
            let mut crow: Vec<(u32, f64)> = Vec::new();
            for (&v, &a) in c.cols.iter().zip(c.vals) {
                self.cols[v as usize].push((r, a));
                row_pat.push((v, a));
                if self.warm {
                    if let ColState::Basic(p) = self.state[v as usize] {
                        crow.push((p as u32, a));
                    }
                }
            }
            let sc = self.cols.len();
            self.cols.push(vec![(r, 1.0)]);
            row_pat.push((sc as u32, 1.0));
            self.rows_idx.push(row_pat);
            let (l, u) = slack_bounds(c.cmp);
            self.lower0.push(l);
            self.upper0.push(u);
            self.cost.push(0.0);
            self.slack_cols.push(sc);
            self.b.push(c.rhs);
            if self.warm {
                self.lower.push(l);
                self.upper.push(u);
                // Slack value = rhs - a·x (possibly out of bounds).
                let mut val = c.rhs;
                for (&v, &a) in c.cols.iter().zip(c.vals) {
                    val -= a * self.x[v as usize];
                }
                self.x.push(val);
                self.state.push(ColState::Basic(r));
                self.basis.push(sc);
                self.d.push(0.0);
                c_rows.push(crow);
            }
        }
        if self.warm {
            // Block-triangular extension:
            // B' = [[B, 0], [C_B, I]]; the kernel appends it as a pipeline
            // operator (sparse) or rebuilds the inverse block (dense).
            self.kernel.append(c_rows);
            self.y.resize(m_new, 0.0);
            self.w.resize(m_new, 0.0);
        }
        self.m = m_new;
    }

    /// Cold solve with the problem's own bounds.
    ///
    /// # Errors
    ///
    /// See [`LpError`].
    pub fn solve(&mut self) -> Result<LpSolution, LpError> {
        let lo: Vec<f64> = self.lower0[..self.n_struct].to_vec();
        let hi: Vec<f64> = self.upper0[..self.n_struct].to_vec();
        self.solve_with_bounds(&lo, &hi)
    }

    /// Cold solve with per-structural-variable bound overrides.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::Infeasible`], [`LpError::Unbounded`], or
    /// [`LpError::IterationLimit`].
    pub fn solve_with_bounds(&mut self, lo: &[f64], hi: &[f64]) -> Result<LpSolution, LpError> {
        assert_eq!(lo.len(), self.n_struct);
        self.warm = false;
        self.last_warm = false;
        for i in 0..self.n_struct {
            if lo[i] > hi[i] + TOL {
                return Err(LpError::Infeasible);
            }
        }
        self.reset_state(lo, hi)?;
        let mut iterations = 0usize;

        // Phase 1: drive artificials to zero.
        if !self.artificials.is_empty() {
            self.ccur.clear();
            self.ccur.resize(self.cols.len(), 0.0);
            let mut any = false;
            for &a in &self.artificials {
                if self.upper[a] > 0.0 {
                    self.ccur[a] = 1.0;
                    any = true;
                }
            }
            if any {
                iterations += self.optimize()?;
                let infeas: f64 = self
                    .artificials
                    .iter()
                    .filter(|&&a| self.upper[a] > 0.0)
                    .map(|&a| self.x[a])
                    .sum();
                if infeas > 1e-6 {
                    return Err(LpError::Infeasible);
                }
                for &a in &self.artificials.clone() {
                    self.lower[a] = 0.0;
                    self.upper[a] = 0.0;
                    if !matches!(self.state[a], ColState::Basic(_)) {
                        self.x[a] = 0.0;
                    }
                }
            }
        }

        // Phase 2.
        self.load_phase2_cost();
        iterations += self.optimize()?;
        self.finish_warm();
        Ok(self.extract(iterations))
    }

    /// Warm solve after bound changes (and/or [`Simplex::add_rows`]): dual
    /// simplex from the previous basis, with an automatic cold fallback.
    ///
    /// # Errors
    ///
    /// See [`LpError`].
    pub fn resolve_with_bounds(&mut self, lo: &[f64], hi: &[f64]) -> Result<LpSolution, LpError> {
        if !self.warm {
            return self.solve_with_bounds(lo, hi);
        }
        for i in 0..self.n_struct {
            if lo[i] > hi[i] + TOL {
                return Err(LpError::Infeasible);
            }
        }
        // Install the new bounds; rest nonbasic variables on them. A
        // variable that was fixed in the previous solve carries an
        // arbitrary reduced-cost sign; if its range reopened, restore dual
        // feasibility by resting it on the bound its reduced cost favors.
        self.lower[..self.n_struct].copy_from_slice(lo);
        self.upper[..self.n_struct].copy_from_slice(hi);
        for j in 0..self.cols.len() {
            match self.state[j] {
                ColState::AtLower | ColState::AtUpper => {
                    let (l, u) = (self.lower[j], self.upper[j]);
                    if u - l > 0.0 {
                        let dj = self.d[j];
                        if dj < -TOL {
                            if !u.is_finite() {
                                return self.solve_with_bounds(lo, hi);
                            }
                            self.state[j] = ColState::AtUpper;
                        } else if dj > TOL {
                            if !l.is_finite() {
                                return self.solve_with_bounds(lo, hi);
                            }
                            self.state[j] = ColState::AtLower;
                        }
                    }
                    match self.state[j] {
                        ColState::AtLower => {
                            self.x[j] = if l.is_finite() { l } else { u.min(0.0) };
                        }
                        ColState::AtUpper => {
                            self.x[j] = if u.is_finite() { u } else { l.max(0.0) };
                        }
                        ColState::Basic(_) => unreachable!(),
                    }
                }
                ColState::Basic(_) => {}
            }
        }
        self.recompute_basics();
        match self.dual_simplex() {
            Ok(iterations) => {
                self.last_warm = true;
                Ok(self.extract(iterations))
            }
            Err(DualStop::Infeasible) => {
                // Infeasibility proven on the warm path still counts as a
                // warm-start hit: no cold factorization was needed.
                self.last_warm = true;
                Err(LpError::Infeasible)
            }
            Err(DualStop::Deadline) => Err(LpError::TimeLimit),
            Err(DualStop::Stall) => {
                // Numerical trouble or iteration cap: fall back to cold.
                self.solve_with_bounds(lo, hi)
            }
        }
    }

    /// Load the phase-2 objective into the active cost buffer.
    fn load_phase2_cost(&mut self) {
        self.ccur.clear();
        self.ccur.extend_from_slice(&self.cost);
    }

    /// x_B = B⁻¹ (b − N x_N).
    fn recompute_basics(&mut self) {
        let m = self.m;
        let mut rhs = std::mem::take(&mut self.rhs_buf);
        rhs.clear();
        rhs.extend_from_slice(&self.b);
        for j in 0..self.cols.len() {
            if !matches!(self.state[j], ColState::Basic(_)) && self.x[j] != 0.0 {
                for &(i, a) in &self.cols[j] {
                    rhs[i] -= a * self.x[j];
                }
            }
        }
        self.kernel.ftran_dense(&mut rhs[..m]);
        for (&xb, &v) in self.basis[..m].iter().zip(&rhs[..m]) {
            self.x[xb] = v;
        }
        self.rhs_buf = rhs;
    }

    /// Recompute every reduced cost from scratch for the active cost
    /// vector: y = B⁻ᵀ c_B, then d_j = c_j − y·A_j over the nonbasic
    /// columns.
    fn refresh_reduced_costs(&mut self) {
        let m = self.m;
        self.y.resize(m.max(self.y.len()), 0.0);
        for i in 0..m {
            self.y[i] = self.ccur[self.basis[i]];
        }
        self.kernel.btran_dense(&mut self.y[..m]);
        self.d.clear();
        self.d.resize(self.cols.len(), 0.0);
        for (j, col) in self.cols.iter().enumerate() {
            if matches!(self.state[j], ColState::Basic(_)) {
                continue;
            }
            let mut r = self.ccur[j];
            for &(i, a) in col {
                r -= self.y[i] * a;
            }
            self.d[j] = r;
        }
    }

    /// Store reduced costs and mark the basis reusable.
    fn finish_warm(&mut self) {
        self.refresh_reduced_costs();
        self.warm = true;
    }

    fn extract(&self, iterations: usize) -> LpSolution {
        let values: Vec<f64> = self.x[..self.n_struct].to_vec();
        let objective = values.iter().zip(&self.cost).fold(0.0, |acc, (&v, &c)| {
            acc + (if self.obj_negate { -c } else { c }) * v
        });
        LpSolution {
            objective,
            values,
            iterations,
        }
    }

    /// Install bounds, zombify stale artificials, build the slack basis,
    /// and append artificials for rows the slacks cannot cover.
    fn reset_state(&mut self, lo: &[f64], hi: &[f64]) -> Result<(), LpError> {
        let n_cols = self.cols.len();
        self.lower.clear();
        self.upper.clear();
        self.lower.resize(n_cols, 0.0);
        self.upper.resize(n_cols, 0.0);
        self.lower[..self.n_struct].copy_from_slice(lo);
        self.upper[..self.n_struct].copy_from_slice(hi);
        for j in self.n_struct..n_cols {
            self.lower[j] = self.lower0[j];
            self.upper[j] = self.upper0[j];
        }
        // Stale artificials become fixed-at-zero zombies.
        for &a in &self.artificials {
            self.lower[a] = 0.0;
            self.upper[a] = 0.0;
        }
        self.x.clear();
        self.x.resize(n_cols, 0.0);
        self.state.clear();
        self.state.resize(n_cols, ColState::AtLower);
        for j in 0..self.n_struct {
            let (l, u) = (self.lower[j], self.upper[j]);
            let (v, st) = initial_point(l, u);
            self.x[j] = v;
            self.state[j] = st;
        }
        // Residuals with structural variables at their resting points.
        let mut resid: Vec<f64> = self.b.clone();
        for j in 0..self.n_struct {
            if self.x[j] != 0.0 {
                for &(i, a) in &self.cols[j] {
                    resid[i] -= a * self.x[j];
                }
            }
        }
        self.basis.clear();
        for (i, &res) in resid[..self.m].iter().enumerate() {
            let s = self.slack_cols[i];
            let (sl, su) = (self.lower[s], self.upper[s]);
            if res >= sl - TOL && res <= su + TOL {
                self.x[s] = res;
                self.state[s] = ColState::Basic(i);
                self.basis.push(s);
            } else {
                let parked = if res < sl { sl } else { su };
                self.x[s] = parked;
                self.state[s] = if parked == sl {
                    ColState::AtLower
                } else {
                    ColState::AtUpper
                };
                let need = res - parked;
                let a = self.cols.len();
                let coeff = if need >= 0.0 { 1.0 } else { -1.0 };
                self.cols.push(vec![(i, coeff)]);
                self.rows_idx[i].push((a as u32, coeff));
                self.lower0.push(0.0);
                self.upper0.push(f64::INFINITY);
                self.cost.push(0.0);
                self.lower.push(0.0);
                self.upper.push(f64::INFINITY);
                self.x.push(need.abs());
                self.state.push(ColState::Basic(i));
                self.basis.push(a);
                self.artificials.push(a);
            }
        }
        self.kernel.reset_basis(self.m, &self.basis, &self.cols)?;
        self.y.clear();
        self.y.resize(self.m, 0.0);
        self.w.clear();
        self.w.resize(self.m, 0.0);
        Ok(())
    }

    /// Form the pivot-row alphas α_j = ρ·A_j from the BTRAN image ρ in
    /// `self.y`, accumulating over the rows where ρ is nonzero. Results
    /// land in `self.alpha` for the columns listed in `self.touched`
    /// (entries validated by `self.mark`); untouched columns have an
    /// exact zero alpha.
    fn pivot_row_alphas(&mut self) {
        let n_cols = self.cols.len();
        self.alpha.resize(n_cols, 0.0);
        self.mark.resize(n_cols, 0);
        self.mark_gen += 1;
        let gen = self.mark_gen;
        self.touched.clear();
        let Simplex {
            rows_idx,
            y,
            alpha,
            mark,
            touched,
            m,
            ..
        } = self;
        for i in 0..*m {
            let rho = y[i];
            if rho.abs() <= 1e-11 {
                continue;
            }
            for &(j32, a) in &rows_idx[i] {
                let j = j32 as usize;
                if mark[j] != gen {
                    mark[j] = gen;
                    alpha[j] = rho * a;
                    touched.push(j32);
                } else {
                    alpha[j] += rho * a;
                }
            }
        }
    }

    /// Refactor the sparse basis from its current columns, then restore
    /// accuracy: recompute x_B against `b` and the reduced costs for the
    /// active cost vector. No-op on the dense kernel.
    fn refactor_and_refresh(&mut self) {
        if self.kernel.try_refactor(self.m, &self.basis, &self.cols) {
            self.recompute_basics();
            self.refresh_reduced_costs();
        }
    }

    /// Primal simplex minimizing the active cost vector (`self.ccur`).
    /// Returns pivot count.
    ///
    /// Reduced costs are maintained incrementally (one BTRAN of the pivot
    /// row per pivot); entering columns come from the devex candidate
    /// list. An optimality claim with pivots since the last refresh is
    /// re-verified against freshly computed reduced costs.
    ///
    /// # Errors
    ///
    /// See [`LpError`].
    fn optimize(&mut self) -> Result<usize, LpError> {
        let n_total = self.cols.len();
        let m = self.m;
        let max_iter = 50 * (m + n_total) + 10_000;
        let mut iterations = 0;
        let mut degenerate_run = 0usize;
        let mut refreshes = 0usize;
        let mut dirty = false; // pivots since the last reduced-cost refresh
        let mut bland_refreshed = false;
        self.refresh_reduced_costs();
        self.primal_pricing.reset(n_total);
        loop {
            if iterations > max_iter {
                return Err(LpError::IterationLimit);
            }
            if self.deadline_hit(iterations) {
                return Err(LpError::TimeLimit);
            }
            let bland = degenerate_run > DEGENERATE_LIMIT;
            if bland && !bland_refreshed {
                // Bland's rule terminates only with exact reduced-cost
                // signs; start it from a fresh computation.
                self.refresh_reduced_costs();
                self.primal_pricing.invalidate();
                dirty = false;
                bland_refreshed = true;
            }
            let entering: Option<usize> = if bland {
                (0..n_total).find(|&j| {
                    self.upper[j] - self.lower[j] > 0.0
                        && match self.state[j] {
                            ColState::AtLower => self.d[j] < -TOL,
                            ColState::AtUpper => self.d[j] > TOL,
                            ColState::Basic(_) => false,
                        }
                })
            } else {
                match self
                    .primal_pricing
                    .select(&self.d, &self.state, &self.lower, &self.upper)
                {
                    Some(j) => Some(j),
                    None => {
                        if self.primal_pricing.refill(
                            &self.d,
                            &self.state,
                            &self.lower,
                            &self.upper,
                        ) {
                            self.primal_pricing.select(
                                &self.d,
                                &self.state,
                                &self.lower,
                                &self.upper,
                            )
                        } else {
                            None
                        }
                    }
                }
            };
            let Some(j_in) = entering else {
                // No improving column under the maintained reduced costs.
                // If pivots happened since the last exact computation,
                // verify the claim on fresh values before accepting it.
                if dirty && refreshes < MAX_OPT_REFRESH {
                    self.refresh_reduced_costs();
                    self.primal_pricing.invalidate();
                    dirty = false;
                    refreshes += 1;
                    continue;
                }
                return Ok(iterations);
            };
            let dir = match self.state[j_in] {
                ColState::AtLower => 1.0,
                ColState::AtUpper => -1.0,
                ColState::Basic(_) => unreachable!("entering column is basic"),
            };
            // Direction w = B⁻¹ A_j.
            self.kernel.ftran_col(&self.cols[j_in], &mut self.w[..m]);
            // Ratio test with bound flips.
            let mut t_max = self.upper[j_in] - self.lower[j_in];
            let mut leave: Option<(usize, f64, f64)> = None;
            for i in 0..m {
                let delta = dir * self.w[i];
                let bi = self.basis[i];
                let (t, bound_val) = if delta > PIVOT_TOL {
                    ((self.x[bi] - self.lower[bi]) / delta, self.lower[bi])
                } else if delta < -PIVOT_TOL {
                    ((self.upper[bi] - self.x[bi]) / -delta, self.upper[bi])
                } else {
                    continue;
                };
                if !t.is_finite() {
                    continue;
                }
                let t = t.max(0.0);
                let strictly_better = t < t_max - 1e-9;
                let tie = (t - t_max).abs() <= 1e-9;
                let wins_tie = tie
                    && leave.is_some_and(|(prow, _, bd)| {
                        if bland {
                            bi < self.basis[prow]
                        } else {
                            delta.abs() > bd
                        }
                    });
                if strictly_better || wins_tie {
                    t_max = t.min(t_max);
                    leave = Some((i, bound_val, delta.abs()));
                }
            }
            if t_max.is_infinite() {
                return Err(LpError::Unbounded);
            }
            degenerate_run = if t_max <= TOL { degenerate_run + 1 } else { 0 };
            let t = t_max;
            self.x[j_in] += dir * t;
            for i in 0..m {
                let bi = self.basis[i];
                self.x[bi] -= dir * t * self.w[i];
            }
            match leave {
                None => {
                    // Bound flip: the basis (and hence every reduced cost)
                    // is unchanged.
                    self.state[j_in] = match self.state[j_in] {
                        ColState::AtLower => ColState::AtUpper,
                        ColState::AtUpper => ColState::AtLower,
                        b => b,
                    };
                }
                Some((row, bound_val, _)) => {
                    let pivot = self.w[row];
                    // Pivot row via BTRAN, then incremental reduced costs:
                    // d_j ← d_j − (d_q/α_q)·α_j.
                    self.kernel.btran_unit(row, &mut self.y[..m]);
                    self.pivot_row_alphas();
                    let alpha_q = self.alpha.get(j_in).copied().unwrap_or(0.0);
                    let mismatch = (alpha_q - pivot).abs() > PIVOT_AGREE_TOL * (1.0 + pivot.abs());
                    let theta_d = self.d[j_in] / pivot;
                    for &j32 in &self.touched {
                        let j = j32 as usize;
                        if j != j_in && !matches!(self.state[j], ColState::Basic(_)) {
                            self.d[j] -= theta_d * self.alpha[j];
                        }
                    }
                    let j_out = self.basis[row];
                    self.primal_pricing.update(
                        j_in,
                        j_out,
                        pivot,
                        &self.alpha,
                        &self.touched,
                        &self.state,
                    );
                    self.d[j_out] = -theta_d;
                    self.d[j_in] = 0.0;
                    dirty = true;
                    self.x[j_out] = bound_val;
                    self.state[j_out] = if (bound_val - self.lower[j_out]).abs()
                        <= (bound_val - self.upper[j_out]).abs()
                    {
                        ColState::AtLower
                    } else {
                        ColState::AtUpper
                    };
                    self.basis[row] = j_in;
                    self.state[j_in] = ColState::Basic(row);
                    self.kernel.update(row, &self.w[..m]);
                    if mismatch || self.kernel.should_refactor() {
                        self.refactor_and_refresh();
                        self.primal_pricing.invalidate();
                        dirty = false;
                    }
                }
            }
            iterations += 1;
        }
    }

    /// Dual simplex: repair primal feasibility while keeping reduced costs
    /// valid. Requires `self.d` from a previous optimal solve. Leaving
    /// rows are picked by dual devex weights; the pivot row comes from one
    /// sparse BTRAN.
    fn dual_simplex(&mut self) -> Result<usize, DualStop> {
        let m = self.m;
        let max_iter = 4 * (m + 64);
        let mut iterations = 0usize;
        self.load_phase2_cost();
        self.dual_pricing.reset(m);
        loop {
            if iterations > max_iter {
                return Err(DualStop::Stall);
            }
            if self.deadline_hit(iterations) {
                return Err(DualStop::Deadline);
            }
            // Leaving row: weighted most-violated basic variable.
            let Some((r, below)) =
                self.dual_pricing
                    .select_row(&self.x, &self.basis, &self.lower, &self.upper)
            else {
                return Ok(iterations);
            };
            // Pivot row alphas: α_j = (B⁻ᵀ e_r) · A_j for nonbasic j.
            // Fixed columns cannot enter, but their reduced costs must
            // still be updated (a later resolve may reopen them), so their
            // alphas are computed too.
            self.kernel.btran_unit(r, &mut self.y[..m]);
            self.pivot_row_alphas();
            // Dual ratio test over the touched columns (untouched ones
            // have an exact zero alpha and are never eligible).
            let mut enter: Option<(usize, f64, f64)> = None; // (col, theta, |alpha|)
            for &j32 in &self.touched {
                let j = j32 as usize;
                let a = self.alpha[j];
                if a.abs() < PIVOT_TOL || self.upper[j] - self.lower[j] <= 0.0 {
                    continue;
                }
                let eligible = match (self.state[j], below) {
                    // x_Br must increase: Δx_Br = -α_j Δx_j > 0.
                    (ColState::AtLower, true) => a < 0.0,
                    (ColState::AtUpper, true) => a > 0.0,
                    // x_Br must decrease.
                    (ColState::AtLower, false) => a > 0.0,
                    (ColState::AtUpper, false) => a < 0.0,
                    _ => false,
                };
                if !eligible {
                    continue;
                }
                let theta = (self.d[j] / a).abs();
                let better = match enter {
                    None => true,
                    Some((be, bt, ba)) => {
                        theta < bt - 1e-10
                            || ((theta - bt).abs() <= 1e-10
                                && (a.abs() > ba || (a.abs() == ba && j < be)))
                    }
                };
                if better {
                    enter = Some((j, theta, a.abs()));
                }
            }
            let Some((e, _theta, _)) = enter else {
                return Err(DualStop::Infeasible);
            };
            // FTRAN for the entering column.
            self.kernel.ftran_col(&self.cols[e], &mut self.w[..m]);
            let pivot = self.w[r];
            if pivot.abs() < PIVOT_TOL {
                return Err(DualStop::Stall);
            }
            let j_out = self.basis[r];
            let target = if below {
                self.lower[j_out]
            } else {
                self.upper[j_out]
            };
            let delta = (self.x[j_out] - target) / pivot;
            // Entering direction must respect its resting bound.
            match self.state[e] {
                ColState::AtLower if delta < -1e-7 => return Err(DualStop::Stall),
                ColState::AtUpper if delta > 1e-7 => return Err(DualStop::Stall),
                _ => {}
            }
            // Apply the primal step.
            self.x[e] += delta;
            for i in 0..m {
                let bi = self.basis[i];
                self.x[bi] -= delta * self.w[i];
            }
            self.x[j_out] = target;
            self.state[j_out] =
                if (target - self.lower[j_out]).abs() <= (target - self.upper[j_out]).abs() {
                    ColState::AtLower
                } else {
                    ColState::AtUpper
                };
            // Accumulated-error detector: the pivot element computed by
            // FTRAN must agree with the BTRAN row pass.
            let mismatch = (self.alpha[e] - pivot).abs() > PIVOT_AGREE_TOL * (1.0 + pivot.abs());
            self.dual_pricing.update(r, &self.w[..m]);
            self.basis[r] = e;
            self.state[e] = ColState::Basic(r);
            // Reduced-cost update: d_j -= (d_e/α_e)·α_j; leaving gets -d_e/α_e.
            let theta_signed = self.d[e] / self.alpha[e];
            for &j32 in &self.touched {
                let j = j32 as usize;
                if j != e && self.alpha[j] != 0.0 {
                    self.d[j] -= theta_signed * self.alpha[j];
                }
            }
            self.d[j_out] = -theta_signed;
            self.d[e] = 0.0;
            self.kernel.update(r, &self.w[..m]);
            if mismatch || self.kernel.should_refactor() {
                self.refactor_and_refresh();
            }
            iterations += 1;
        }
    }
}

enum DualStop {
    Infeasible,
    Stall,
    Deadline,
}

fn slack_bounds(cmp: Cmp) -> (f64, f64) {
    match cmp {
        Cmp::Le => (0.0, f64::INFINITY),
        Cmp::Ge => (f64::NEG_INFINITY, 0.0),
        Cmp::Eq => (0.0, 0.0),
    }
}

/// Initial resting point for a variable with bounds `[l, u]`.
fn initial_point(l: f64, u: f64) -> (f64, ColState) {
    if l.is_finite() {
        (l, ColState::AtLower)
    } else if u.is_finite() {
        (u, ColState::AtUpper)
    } else {
        (0.0, ColState::AtLower)
    }
}

#[cfg(test)]
mod dense;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::testing::{objective, row};
    use crate::problem::{Cmp, Problem, Var};
    use proptest::prelude::*;

    fn solve(p: &Problem) -> Result<LpSolution, LpError> {
        Simplex::new(p).solve()
    }

    #[test]
    fn unconstrained_min_at_bounds() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", 1.0, 5.0);
        objective(&mut p, &[(x, 1.0)]);
        let s = solve(&p).unwrap();
        assert!((s.objective - 1.0).abs() < 1e-6);
    }

    #[test]
    fn basic_le_constraint() {
        let mut p = Problem::maximize();
        let x = p.add_var("x", 0.0, 3.0);
        let y = p.add_var("y", 0.0, 2.0);
        row(&mut p, &[(x, 1.0), (y, 1.0)], Cmp::Le, 4.0, false);
        objective(&mut p, &[(x, 1.0), (y, 1.0)]);
        let s = solve(&p).unwrap();
        assert!((s.objective - 4.0).abs() < 1e-6, "got {}", s.objective);
    }

    #[test]
    fn equality_requires_phase1() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", 0.0, 2.0);
        let y = p.add_var("y", 0.0, 5.0);
        row(&mut p, &[(x, 1.0), (y, 1.0)], Cmp::Eq, 3.0, false);
        objective(&mut p, &[(x, 1.0), (y, 2.0)]);
        let s = solve(&p).unwrap();
        assert!((s.objective - 4.0).abs() < 1e-6, "got {}", s.objective);
        assert!((s.values[0] - 2.0).abs() < 1e-6);
        assert!((s.values[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn detects_infeasible() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", 0.0, 1.0);
        row(&mut p, &[(x, 1.0)], Cmp::Ge, 2.0, false);
        assert_eq!(solve(&p).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut p = Problem::maximize();
        let x = p.add_var("x", 0.0, f64::INFINITY);
        objective(&mut p, &[(x, 1.0)]);
        assert_eq!(solve(&p).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn ge_constraints() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", 1.0, f64::INFINITY);
        let y = p.add_var("y", 0.0, f64::INFINITY);
        row(&mut p, &[(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0, false);
        objective(&mut p, &[(x, 3.0), (y, 2.0)]);
        let s = solve(&p).unwrap();
        assert!((s.objective - 9.0).abs() < 1e-6, "got {}", s.objective);
    }

    #[test]
    fn warm_resolve_matches_cold_after_bound_changes() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..20 {
            let n = 6;
            let mut p = Problem::minimize();
            let vars: Vec<_> = (0..n)
                .map(|i| p.add_var(format!("v{i}"), 0.0, 1.0))
                .collect();
            for c in 0..4 {
                let terms: Vec<(Var, f64)> = vars
                    .iter()
                    .map(|&v| (v, rng.gen_range(-3..=3) as f64))
                    .collect();
                let sense = if c == 0 { Cmp::Eq } else { Cmp::Le };
                row(&mut p, &terms, sense, rng.gen_range(0..=3) as f64, false);
            }
            for &v in &vars {
                p.objective_term(v, rng.gen_range(-5..=5) as f64);
            }
            let mut s = Simplex::new(&p);
            if s.solve().is_err() {
                continue;
            }
            // Random sequences of bound fixings: warm must equal cold.
            for _ in 0..8 {
                let mut lo = vec![0.0; n];
                let mut hi = vec![1.0; n];
                for j in 0..n {
                    if rng.gen_bool(0.4) {
                        let v = if rng.gen_bool(0.5) { 0.0 } else { 1.0 };
                        lo[j] = v;
                        hi[j] = v;
                    }
                }
                let warm = s.resolve_with_bounds(&lo, &hi);
                let cold = Simplex::new(&p).solve_with_bounds(&lo, &hi);
                match (warm, cold) {
                    (Ok(a), Ok(b)) => assert!(
                        (a.objective - b.objective).abs() < 1e-6,
                        "trial {trial}: warm {} vs cold {}",
                        a.objective,
                        b.objective
                    ),
                    (Err(LpError::Infeasible), Err(LpError::Infeasible)) => {}
                    (w, c) => panic!("trial {trial}: warm {w:?} vs cold {c:?}"),
                }
            }
        }
    }

    #[test]
    fn add_rows_then_resolve_matches_full_model() {
        // min -x - y - z, rows added lazily one at a time.
        let mut p = Problem::minimize();
        let x = p.add_binary("x");
        let y = p.add_binary("y");
        let z = p.add_binary("z");
        objective(&mut p, &[(x, -1.0), (y, -1.0), (z, -1.0)]);
        row(&mut p, &[(x, 1.0), (y, 1.0)], Cmp::Le, 1.0, false);
        row(&mut p, &[(y, 1.0), (z, 1.0)], Cmp::Le, 1.0, false);
        row(&mut p, &[(x, 1.0), (z, 1.0)], Cmp::Le, 1.0, false);

        // Start with only c0.
        let mut s = Simplex::with_rows(&p, Some(&[0]));
        let lo = vec![0.0; 3];
        let hi = vec![1.0; 3];
        let first = s.solve_with_bounds(&lo, &hi).unwrap();
        assert!(
            (first.objective + 2.0).abs() < 1e-6,
            "x+z or y+z free: {}",
            first.objective
        );
        // Add the remaining rows and re-solve warm.
        s.add_rows(&p, &[1, 2]);
        assert_eq!(s.rows(), 3);
        let warm = s.resolve_with_bounds(&lo, &hi).unwrap();
        let cold = Simplex::new(&p).solve_with_bounds(&lo, &hi).unwrap();
        assert!(
            (warm.objective - cold.objective).abs() < 1e-6,
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
        // LP optimum is -1.5 (x=y=z=0.5).
        assert!(
            (warm.objective + 1.5).abs() < 1e-6,
            "got {}",
            warm.objective
        );
    }

    #[test]
    fn degenerate_assignment_polytope() {
        let mut p = Problem::minimize();
        let cost = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [3.0, 1.0, 2.0]];
        let x: Vec<[Var; 3]> = (0..3)
            .map(|i| [0, 1, 2].map(|j| p.add_var(format!("x{i}{j}"), 0.0, 1.0)))
            .collect();
        for item in &x {
            row(&mut p, &item.map(|v| (v, 1.0)), Cmp::Eq, 1.0, false);
        }
        for j in 0..3 {
            let slot: Vec<(Var, f64)> = x.iter().map(|item| (item[j], 1.0)).collect();
            row(&mut p, &slot, Cmp::Le, 1.0, false);
        }
        for (item, c) in x.iter().zip(cost) {
            objective(&mut p, &[(item[0], c[0]), (item[1], c[1]), (item[2], c[2])]);
        }
        let s = solve(&p).unwrap();
        assert!((s.objective - 6.0).abs() < 1e-6, "got {}", s.objective);
    }

    #[test]
    fn repeated_cold_solves_reuse_workspace() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", 0.0, 10.0);
        let y = p.add_var("y", 0.0, 10.0);
        row(&mut p, &[(x, 1.0), (y, 1.0)], Cmp::Ge, 5.0, false);
        objective(&mut p, &[(x, 1.0), (y, 2.0)]);
        let mut s = Simplex::new(&p);
        for _ in 0..5 {
            let sol = s.solve_with_bounds(&[0.0, 0.0], &[10.0, 10.0]).unwrap();
            assert!((sol.objective - 5.0).abs() < 1e-6);
            let sol = s.solve_with_bounds(&[0.0, 0.0], &[2.0, 10.0]).unwrap();
            assert!((sol.objective - 8.0).abs() < 1e-6, "got {}", sol.objective);
        }
    }

    #[test]
    fn frequent_refactorization_matches_reference() {
        // Refactor after every pivot: exercises the refactor path hard and
        // must give the same optimum.
        let mut p = Problem::minimize();
        let x = p.add_var("x", 0.0, 4.0);
        let y = p.add_var("y", 0.0, 4.0);
        let z = p.add_var("z", 0.0, 4.0);
        row(&mut p, &[(x, 1.0), (y, 1.0), (z, 1.0)], Cmp::Ge, 5.0, false);
        row(&mut p, &[(x, 2.0), (y, -1.0)], Cmp::Le, 3.0, false);
        row(&mut p, &[(y, 1.0), (z, 2.0)], Cmp::Le, 7.0, false);
        objective(&mut p, &[(x, 2.0), (y, 1.0), (z, 3.0)]);
        let reference = Simplex::new(&p).solve().unwrap();
        let mut s = Simplex::new(&p);
        s.set_refactor_interval(1);
        let sol = s.solve().unwrap();
        assert!(
            (sol.objective - reference.objective).abs() < 1e-6,
            "refactor-every-pivot {} vs reference {}",
            sol.objective,
            reference.objective
        );
        assert!(s.kernel_stats().refactorizations > 1);
    }

    /// A random bounded LP: per row `(coeffs, cmp 0/1/2, rhs)`, and per
    /// column `(lower, width)`.
    #[derive(Debug, Clone)]
    struct RandLp {
        maximize: bool,
        rows: Vec<(Vec<i8>, u8, i8)>,
        obj: Vec<i8>,
        bounds: Vec<(u8, u8)>,
    }

    fn lp_strategy() -> impl Strategy<Value = RandLp> {
        (2usize..=8).prop_flat_map(|n| {
            let row = (proptest::collection::vec(-3i8..=3, n), 0u8..3, -2i8..=8);
            (
                any::<bool>(),
                proptest::collection::vec(row, 1..6),
                proptest::collection::vec(-5i8..=5, n),
                proptest::collection::vec((0u8..3, 1u8..4), n),
            )
                .prop_map(|(maximize, rows, obj, bounds)| RandLp {
                    maximize,
                    rows,
                    obj,
                    bounds,
                })
        })
    }

    fn build_lp(rp: &RandLp) -> Problem {
        let mut p = if rp.maximize {
            Problem::maximize()
        } else {
            Problem::minimize()
        };
        let vars: Vec<Var> = rp
            .bounds
            .iter()
            .enumerate()
            .map(|(i, &(lo, w))| p.add_var(format!("x{i}"), lo as f64, (lo + w) as f64))
            .collect();
        for (coeffs, cmp, rhs) in &rp.rows {
            let terms: Vec<(Var, f64)> = vars
                .iter()
                .zip(coeffs)
                .map(|(&v, &c)| (v, c as f64))
                .collect();
            let cmp = match cmp {
                0 => Cmp::Le,
                1 => Cmp::Ge,
                _ => Cmp::Eq,
            };
            row(&mut p, &terms, cmp, *rhs as f64, false);
        }
        for (&v, &c) in vars.iter().zip(&rp.obj) {
            p.objective_term(v, c as f64);
        }
        p
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Same random bounded LP through the sparse kernel and the dense
        /// reference: identical verdicts and equal objectives.
        #[test]
        fn lp_dense_equals_sparse(rp in lp_strategy()) {
            let p = build_lp(&rp);
            let sparse = Simplex::new(&p).solve();
            let dense = Simplex::with_rows_dense(&p, None).solve();
            match (sparse, dense) {
                (Ok(a), Ok(b)) => prop_assert!(
                    (a.objective - b.objective).abs() < 1e-5,
                    "sparse {} vs dense {}", a.objective, b.objective
                ),
                (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb),
                (a, b) => prop_assert!(false, "sparse {a:?} vs dense {b:?}"),
            }
        }

        /// Warm-started `resolve_with_bounds` on the sparse kernel tracks a
        /// cold dense solve under random bound fixings — the eta file and
        /// refactorizations must not drift the warm path away from the
        /// reference answer.
        #[test]
        fn warm_sparse_tracks_cold_dense(
            rp in lp_strategy(),
            fixings in proptest::collection::vec((0usize..8, any::<bool>()), 0..16),
        ) {
            let p = build_lp(&rp);
            let mut warm = Simplex::new(&p);
            // Refactorize after every eta so the warm path crosses many
            // factorization boundaries even on tiny problems.
            warm.set_refactor_interval(1);
            let n = p.num_vars();
            let mut lo: Vec<f64> = rp.bounds.iter().map(|&(l, _)| l as f64).collect();
            let mut hi: Vec<f64> = rp.bounds.iter().map(|&(l, w)| (l + w) as f64).collect();
            if warm.solve_with_bounds(&lo, &hi).is_err() {
                return Ok(());
            }
            for (j, up) in fixings {
                let j = j % n;
                let v = if up { hi[j] } else { lo[j] };
                lo[j] = v;
                hi[j] = v;
                let w = warm.resolve_with_bounds(&lo, &hi);
                let c = Simplex::with_rows_dense(&p, None).solve_with_bounds(&lo, &hi);
                match (w, c) {
                    (Ok(a), Ok(b)) => prop_assert!(
                        (a.objective - b.objective).abs() < 1e-5,
                        "warm sparse {} vs cold dense {}", a.objective, b.objective
                    ),
                    (Err(LpError::Infeasible), Err(LpError::Infeasible)) => {}
                    (a, b) => prop_assert!(false, "warm {a:?} vs cold {b:?}"),
                }
            }
        }
    }

    /// `add_rows` immediately after a refactorization must preserve dual
    /// feasibility: the appended block enters the factorization (not a
    /// rebuilt inverse), and the following warm dual-simplex resolve has to
    /// reach the same optimum as a cold solve of the full system.
    #[test]
    fn add_rows_after_refactorization_preserves_dual_feasibility() {
        // max x + y + z  s.t.  x + y <= 4, y + z <= 4  (0 <= each <= 3)
        let mut p = Problem::maximize();
        let x = p.add_var("x", 0.0, 3.0);
        let y = p.add_var("y", 0.0, 3.0);
        let z = p.add_var("z", 0.0, 3.0);
        row(&mut p, &[(x, 1.0), (y, 1.0)], Cmp::Le, 4.0, false);
        row(&mut p, &[(y, 1.0), (z, 1.0)], Cmp::Le, 4.0, false);
        // Lazy cuts activated later via add_rows.
        row(&mut p, &[(x, 1.0), (z, 1.0)], Cmp::Le, 3.0, true);
        row(&mut p, &[(x, 1.0), (y, 1.0), (z, 1.0)], Cmp::Le, 5.0, true);
        objective(&mut p, &[(x, 1.0), (y, 1.0), (z, 1.0)]);

        let mut sx = Simplex::with_rows(&p, Some(&[0, 1]));
        // Force a refactorization on every pivot so add_rows always appends
        // to a freshly refactorized basis (the regression scenario).
        sx.set_refactor_interval(1);
        let lo = [0.0, 0.0, 0.0];
        let hi = [3.0, 3.0, 3.0];
        let relaxed = sx.solve_with_bounds(&lo, &hi).expect("relaxation solves");
        assert!(relaxed.objective >= 6.0 - 1e-7, "relaxation too weak");

        sx.add_rows(&p, &[2, 3]);
        let tightened = sx.resolve_with_bounds(&lo, &hi).expect("warm resolve");
        assert!(
            sx.last_solve_was_warm(),
            "resolve after add_rows fell back to a cold solve"
        );

        let cold = Simplex::with_rows_dense(&p, None)
            .solve_with_bounds(&lo, &hi)
            .expect("cold reference solves");
        assert!(
            (tightened.objective - cold.objective).abs() < 1e-7,
            "warm {} vs cold {}",
            tightened.objective,
            cold.objective
        );
        // The warm answer must satisfy the activated cuts.
        assert!(p.is_feasible(&tightened.values, 1e-7));
    }
}
