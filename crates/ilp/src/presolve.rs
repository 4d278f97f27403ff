//! MILP presolve: bound-based row reduction plus cutting planes.
//!
//! [`presolve`] shrinks a [`Problem`] before the branch-and-bound search
//! sees it, applying only *forced* reductions — transformations implied by
//! the constraints and integrality alone — so the integer feasible set (and
//! therefore the optimal objective) is exactly preserved:
//!
//! * **singleton rows** become variable bounds and leave the LP entirely
//!   (subsuming the solver's historical singleton pass);
//! * **activity-based bound tightening** propagates row activities into
//!   tighter variable bounds, with inward rounding for integers; rows whose
//!   worst-case activity can no longer violate them are dropped as
//!   redundant, and rows forced to their bound fix every participating
//!   variable;
//! * **fixed-variable substitution** folds `lo == hi` columns into the
//!   right-hand sides, often cascading into new singletons;
//! * **coefficient-wise domination** drops a row implied, coordinate by
//!   coordinate, by another row over the same support (requires nonnegative
//!   lower bounds, which the allocator's 0-1 models satisfy);
//! * **cover cuts** strengthen the LP relaxation of knapsack-like `≤` rows
//!   over binaries: if the `k` largest coefficients already overflow the
//!   right-hand side, at most `k − 1` of those variables can be set.
//!
//! Variable *columns are never renumbered*: a fixed variable keeps its
//! column with `lower == upper`, so a solution of the reduced problem is a
//! solution of the original one verbatim and postsolve is the identity.
//! This is what keeps the solver's lexicographic incumbent tie-break — and
//! with it the allocator's exact-match determinism counters — stable under
//! presolve.
//!
//! Every pass iterates rows and terms in index order, so the reduction is
//! deterministic regardless of hash-map iteration order.

use crate::problem::{Cmp, Problem, Var, VarKind};

/// Tolerance below which a bound improvement is not worth recording.
const TIGHTEN_MIN: f64 = 1e-6;
/// Feasibility slack when comparing bounds and activities.
const FEAS_TOL: f64 = 1e-7;
/// Inward-rounding tolerance for integer bounds.
const INT_TOL: f64 = 1e-6;
/// Coefficients smaller than this are not divided by.
const COEF_TOL: f64 = 1e-9;
/// Fixpoint pass cap (each pass is `O(nnz)`; real models converge in 2-4).
const MAX_PASSES: usize = 16;
/// Pairwise domination is skipped for support buckets larger than this.
const MAX_BUCKET: usize = 64;

/// Counters describing one presolve reduction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PresolveStats {
    /// Rows removed for any reason (singleton, redundant, dominated, empty).
    pub rows_dropped: usize,
    /// Rows converted into variable bounds (one live term).
    pub singleton_rows: usize,
    /// Rows dropped because their worst-case activity already satisfies them.
    pub redundant_rows: usize,
    /// Rows dropped because another row implies them coefficient-wise.
    pub dominated_rows: usize,
    /// Variable bound improvements applied (both sides counted).
    pub bounds_tightened: usize,
    /// Variables fixed (`lower == upper`) by the reduction.
    pub fixed_vars: usize,
    /// Cover-cut rows appended to the reduced problem.
    pub cuts_added: usize,
}

/// Output of [`presolve`]: the reduced problem plus the partition of its
/// rows into the working LP (`core`) and the lazily activated set (`lazy`).
#[derive(Debug, Clone)]
pub struct Presolved {
    /// The reduced problem. Same variable columns as the input (postsolve is
    /// the identity); rows are the surviving originals, with fixed variables
    /// substituted out, followed by any cut rows.
    pub problem: Problem,
    /// Indices of non-lazy rows of `problem` (cut rows included).
    pub core: Vec<usize>,
    /// Indices of lazy rows of `problem`.
    pub lazy: Vec<usize>,
    /// What the reduction did.
    pub stats: PresolveStats,
}

/// Marker error: presolve proved the problem has no feasible point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Infeasible;

/// Bound store with tightening helpers; every mutation keeps `lo <= hi`
/// or reports [`Infeasible`].
struct Bounds<'a> {
    lo: &'a mut [f64],
    hi: &'a mut [f64],
    int: &'a [bool],
    tightened: usize,
}

impl Bounds<'_> {
    /// Impose `x_j <= b` (rounded inward for integers). Returns whether the
    /// bound actually improved.
    fn le(&mut self, j: usize, mut b: f64) -> Result<bool, Infeasible> {
        if self.int[j] {
            b = (b + INT_TOL).floor();
        }
        if b >= self.hi[j] - TIGHTEN_MIN {
            return Ok(false);
        }
        if b < self.lo[j] - FEAS_TOL {
            return Err(Infeasible);
        }
        self.hi[j] = b.max(self.lo[j]);
        self.tightened += 1;
        Ok(true)
    }

    /// Impose `x_j >= b` (rounded inward for integers).
    fn ge(&mut self, j: usize, mut b: f64) -> Result<bool, Infeasible> {
        if self.int[j] {
            b = (b - INT_TOL).ceil();
        }
        if b <= self.lo[j] + TIGHTEN_MIN {
            return Ok(false);
        }
        if b > self.hi[j] + FEAS_TOL {
            return Err(Infeasible);
        }
        self.lo[j] = b.min(self.hi[j]);
        self.tightened += 1;
        Ok(true)
    }

    fn fixed(&self, j: usize) -> bool {
        self.lo[j] == self.hi[j]
    }
}

/// Activity range of the live (non-fixed) part of a row, tracking infinite
/// contributions separately so single-infinity residuals still tighten.
#[derive(Default, Clone, Copy)]
struct Activity {
    min: f64,
    max: f64,
    inf_min: usize,
    inf_max: usize,
}

impl Activity {
    fn add(&mut self, a: f64, lo: f64, hi: f64) {
        let (cmin, cmax) = if a > 0.0 {
            (a * lo, a * hi)
        } else {
            (a * hi, a * lo)
        };
        if cmin.is_finite() {
            self.min += cmin;
        } else {
            self.inf_min += 1;
        }
        if cmax.is_finite() {
            self.max += cmax;
        } else {
            self.inf_max += 1;
        }
    }

    /// Lower activity bound excluding one term's contribution `cmin`, or
    /// `None` when still `-inf`.
    fn min_without(&self, cmin: f64) -> Option<f64> {
        if cmin.is_finite() {
            (self.inf_min == 0).then_some(self.min - cmin)
        } else {
            (self.inf_min == 1).then_some(self.min)
        }
    }

    fn max_without(&self, cmax: f64) -> Option<f64> {
        if cmax.is_finite() {
            (self.inf_max == 0).then_some(self.max - cmax)
        } else {
            (self.inf_max == 1).then_some(self.max)
        }
    }

    fn min_bound(&self) -> f64 {
        if self.inf_min == 0 {
            self.min
        } else {
            f64::NEG_INFINITY
        }
    }

    fn max_bound(&self) -> f64 {
        if self.inf_max == 0 {
            self.max
        } else {
            f64::INFINITY
        }
    }
}

/// Reduce `p` by forced bound reasoning and (optionally) append cover cuts.
///
/// The reduced problem has exactly the same variables and optimal integer
/// objective as `p`; see the module docs for the catalogue of reductions.
///
/// # Errors
///
/// [`Infeasible`] when the reduction proves no assignment can satisfy the
/// constraints and integrality.
pub fn presolve(p: &Problem, cuts: bool) -> Result<Presolved, Infeasible> {
    let n = p.num_vars();
    let m = p.num_constraints();
    let mut stats = PresolveStats::default();
    let mut lo: Vec<f64> = p.vars.iter().map(|d| d.lower).collect();
    let mut hi: Vec<f64> = p.vars.iter().map(|d| d.upper).collect();
    let is_int: Vec<bool> = p.vars.iter().map(|d| d.kind == VarKind::Integer).collect();
    let fixed_before = lo.iter().zip(hi.iter()).filter(|(l, h)| l == h).count();
    let mut b = Bounds {
        lo: &mut lo,
        hi: &mut hi,
        int: &is_int,
        tightened: 0,
    };
    // Integer bounds start rounded inward.
    for j in 0..n {
        if b.int[j] {
            b.lo[j] = b.lo[j].ceil();
            b.hi[j] = b.hi[j].floor();
            if b.lo[j] > b.hi[j] {
                return Err(Infeasible);
            }
        }
    }

    let mut alive = vec![true; m];
    let mut changed = true;
    let mut passes = 0;
    while changed && passes < MAX_PASSES {
        changed = false;
        passes += 1;
        for (i, row_alive) in alive.iter_mut().enumerate() {
            if !*row_alive {
                continue;
            }
            let r = p.row_view(i);
            // Substitute fixed variables and measure the live remainder.
            let mut erhs = r.rhs;
            let mut live = 0usize;
            let mut last = 0usize;
            let mut act = Activity::default();
            for (k, (&c, &a)) in r.cols.iter().zip(r.vals).enumerate() {
                let j = c as usize;
                if b.fixed(j) {
                    erhs -= a * b.lo[j];
                } else {
                    live += 1;
                    last = k;
                    act.add(a, b.lo[j], b.hi[j]);
                }
            }
            if live == 0 {
                let ok = match r.cmp {
                    Cmp::Le => 0.0 <= erhs + FEAS_TOL,
                    Cmp::Ge => 0.0 >= erhs - FEAS_TOL,
                    Cmp::Eq => erhs.abs() <= FEAS_TOL,
                };
                if !ok {
                    return Err(Infeasible);
                }
                *row_alive = false;
                stats.rows_dropped += 1;
                stats.redundant_rows += 1;
                continue;
            }
            if live == 1 {
                let (c, a) = (r.cols[last], r.vals[last]);
                let j = c as usize;
                if a.abs() < COEF_TOL {
                    // Degenerate coefficient: keep the row for the LP.
                    continue;
                }
                let bound = erhs / a;
                let improved = match (r.cmp, a > 0.0) {
                    (Cmp::Le, true) | (Cmp::Ge, false) => b.le(j, bound)?,
                    (Cmp::Ge, true) | (Cmp::Le, false) => b.ge(j, bound)?,
                    (Cmp::Eq, _) => {
                        let x = b.le(j, bound)?;
                        b.ge(j, bound)? || x
                    }
                };
                changed |= improved;
                *row_alive = false;
                stats.rows_dropped += 1;
                stats.singleton_rows += 1;
                continue;
            }
            // Redundancy: the row can never be violated within the bounds.
            let redundant = match r.cmp {
                Cmp::Le => act.max_bound() <= erhs + FEAS_TOL,
                Cmp::Ge => act.min_bound() >= erhs - FEAS_TOL,
                Cmp::Eq => act.max_bound() <= erhs + FEAS_TOL && act.min_bound() >= erhs - FEAS_TOL,
            };
            if redundant {
                *row_alive = false;
                stats.rows_dropped += 1;
                stats.redundant_rows += 1;
                continue;
            }
            // Infeasibility: the row can never be satisfied.
            let impossible = match r.cmp {
                Cmp::Le => act.min_bound() > erhs + FEAS_TOL,
                Cmp::Ge => act.max_bound() < erhs - FEAS_TOL,
                Cmp::Eq => act.min_bound() > erhs + FEAS_TOL || act.max_bound() < erhs - FEAS_TOL,
            };
            if impossible {
                return Err(Infeasible);
            }
            // Activity-based tightening of each live variable.
            for (&c, &a) in r.cols.iter().zip(r.vals) {
                let j = c as usize;
                if b.fixed(j) || a.abs() < COEF_TOL {
                    continue;
                }
                let (cmin, cmax) = if a > 0.0 {
                    (a * b.lo[j], a * b.hi[j])
                } else {
                    (a * b.hi[j], a * b.lo[j])
                };
                if matches!(r.cmp, Cmp::Le | Cmp::Eq) {
                    if let Some(rest) = act.min_without(cmin) {
                        let limit = (erhs - rest) / a;
                        changed |= if a > 0.0 {
                            b.le(j, limit)?
                        } else {
                            b.ge(j, limit)?
                        };
                    }
                }
                if matches!(r.cmp, Cmp::Ge | Cmp::Eq) {
                    if let Some(rest) = act.max_without(cmax) {
                        let limit = (erhs - rest) / a;
                        changed |= if a > 0.0 {
                            b.ge(j, limit)?
                        } else {
                            b.le(j, limit)?
                        };
                    }
                }
            }
        }
    }

    // ---- coefficient-wise domination over identical supports ----
    // Live supports (fixed columns excluded) are bucketed; within a bucket
    // a row implied coordinate-by-coordinate by another is dropped. Valid
    // only when every support variable has a nonnegative lower bound.
    {
        // One arena of live-support terms with (start, len) spans per row:
        // no per-row Vec, no hash-map key allocation. Rows are grouped by
        // sorting their indices by support columns (row index breaks ties,
        // so buckets list rows in ascending order exactly as before).
        let mut sig_data: Vec<(u32, f64)> = Vec::new();
        let mut span: Vec<(u32, u32)> = vec![(0, 0); m];
        let mut erhs_of: Vec<f64> = vec![0.0; m];
        let mut order: Vec<u32> = Vec::new();
        for i in 0..m {
            if !alive[i] {
                continue;
            }
            let r = p.row_view(i);
            let mut erhs = r.rhs;
            let start = sig_data.len();
            for (&c, &a) in r.cols.iter().zip(r.vals) {
                let j = c as usize;
                if b.fixed(j) {
                    erhs -= a * b.lo[j];
                } else {
                    sig_data.push((c, a));
                }
            }
            sig_data[start..].sort_unstable_by_key(|&(c, _)| c);
            if sig_data[start..]
                .iter()
                .any(|&(c, _)| b.lo[c as usize] < 0.0)
            {
                sig_data.truncate(start);
                continue;
            }
            span[i] = (start as u32, (sig_data.len() - start) as u32);
            erhs_of[i] = erhs;
            order.push(i as u32);
        }
        let sig = |i: usize| {
            let (s, l) = span[i];
            &sig_data[s as usize..(s + l) as usize]
        };
        order.sort_unstable_by(|&x, &y| {
            let (a, c) = (sig(x as usize), sig(y as usize));
            a.iter()
                .map(|&(col, _)| col)
                .cmp(c.iter().map(|&(col, _)| col))
                .then(x.cmp(&y))
        });
        let mut s = 0;
        while s < order.len() {
            let mut e = s + 1;
            while e < order.len()
                && sig(order[s] as usize)
                    .iter()
                    .map(|&(c, _)| c)
                    .eq(sig(order[e] as usize).iter().map(|&(c, _)| c))
            {
                e += 1;
            }
            let bucket = &order[s..e];
            s = e;
            if bucket.len() < 2 || bucket.len() > MAX_BUCKET {
                continue;
            }
            for xi in 0..bucket.len() {
                let i = bucket[xi] as usize;
                if !alive[i] {
                    continue;
                }
                for &k in &bucket[xi + 1..] {
                    let k = k as usize;
                    if !alive[k] || !alive[i] {
                        continue;
                    }
                    if let Some(d) = dominated(p, i, k, sig(i), sig(k), &erhs_of)? {
                        alive[d] = false;
                        stats.rows_dropped += 1;
                        stats.dominated_rows += 1;
                    }
                }
            }
        }
    }

    stats.bounds_tightened = b.tightened;
    stats.fixed_vars = lo
        .iter()
        .zip(hi.iter())
        .filter(|(l, h)| l == h)
        .count()
        .saturating_sub(fixed_before);

    // ---- materialize the reduced problem ----
    let mut out = p.clone_shell();
    for j in 0..n {
        out.set_bounds(Var(j as u32), lo[j], hi[j]);
    }
    let mut core = Vec::new();
    let mut lazy = Vec::new();
    // `push_row_raw` must see the final rhs, so the live terms are staged
    // in one buffer (reused across rows) while the substitutions adjust
    // `erhs`.
    let mut terms: Vec<(u32, f64)> = Vec::new();
    for (i, &row_alive) in alive.iter().enumerate() {
        if !row_alive {
            continue;
        }
        let r = p.row_view(i);
        let mut meta = p.row_meta(i);
        let mut erhs = r.rhs;
        let idx = out.num_constraints();
        terms.clear();
        for (&c, &a) in r.cols.iter().zip(r.vals) {
            let j = c as usize;
            if lo[j] == hi[j] {
                erhs -= a * lo[j];
            } else {
                terms.push((c, a));
            }
        }
        meta.rhs = erhs;
        out.push_row_raw(meta, terms.iter().copied());
        if meta.lazy {
            lazy.push(idx);
        } else {
            core.push(idx);
        }
    }

    // ---- cover cuts on knapsack-like binary ≤-rows ----
    if cuts {
        let n_rows = out.num_constraints();
        let mut covers: Vec<(Vec<u32>, f64)> = Vec::new();
        let mut terms: Vec<(f64, u32)> = Vec::new();
        for i in 0..n_rows {
            let r = out.row_view(i);
            if r.cmp != Cmp::Le || r.len() < 2 {
                continue;
            }
            let binary = r.cols.iter().zip(r.vals).all(|(&c, &a)| {
                let j = c as usize;
                a > COEF_TOL && is_int[j] && lo[j] >= 0.0 && hi[j] <= 1.0 && lo[j] < hi[j]
            });
            if !binary || r.rhs <= 0.0 {
                continue;
            }
            terms.clear();
            terms.extend(r.cols.iter().zip(r.vals).map(|(&c, &a)| (a, c)));
            // Largest coefficients first; column index breaks ties so the
            // cut is independent of input order.
            terms.sort_unstable_by(|x, y| y.0.total_cmp(&x.0).then(x.1.cmp(&y.1)));
            let mut sum = 0.0;
            let mut k = 0;
            while k < terms.len() && sum <= r.rhs + FEAS_TOL {
                sum += terms[k].0;
                k += 1;
            }
            // Cover of the k largest coefficients: at most k-1 of them can
            // be 1. Only worth adding when it tightens the LP relaxation.
            if k >= 2 && sum > r.rhs + FEAS_TOL && ((k - 1) as f64) < r.rhs - TIGHTEN_MIN {
                covers.push((terms[..k].iter().map(|&(_, c)| c).collect(), (k - 1) as f64));
            }
        }
        for (cols, rhs) in covers {
            let g = out.group("cover_cut");
            let idx = out.num_constraints();
            let mut row = out.row(g);
            for &c in &cols {
                row.term(Var(c), 1.0);
            }
            row.finish(Cmp::Le, rhs);
            core.push(idx);
            stats.cuts_added += 1;
        }
    }

    Ok(Presolved {
        problem: out,
        core,
        lazy,
        stats,
    })
}

/// Does row `i` imply row `k` (or vice versa) coefficient-wise? Both rows
/// share the same live support with nonnegative variables. Returns the row
/// to drop, or `Err` when two equality rows over identical coefficients
/// demand different right-hand sides.
fn dominated(
    p: &Problem,
    i: usize,
    k: usize,
    a: &[(u32, f64)],
    c: &[(u32, f64)],
    erhs: &[f64],
) -> Result<Option<usize>, Infeasible> {
    let (ri, rk) = (p.row_view(i), p.row_view(k));
    if ri.cmp != rk.cmp {
        return Ok(None);
    }
    debug_assert_eq!(a.len(), c.len());
    let mut a_ge = true; // every coeff of i >= coeff of k
    let mut c_ge = true;
    for (&(_, ai), &(_, ci)) in a.iter().zip(c.iter()) {
        if ai < ci - COEF_TOL {
            a_ge = false;
        }
        if ci < ai - COEF_TOL {
            c_ge = false;
        }
    }
    match ri.cmp {
        Cmp::Le => {
            // i: Σa·x ≤ ra implies k: Σc·x ≤ rc when a ≥ c and ra ≤ rc.
            if a_ge && erhs[i] <= erhs[k] + FEAS_TOL {
                return Ok(Some(k));
            }
            if c_ge && erhs[k] <= erhs[i] + FEAS_TOL {
                return Ok(Some(i));
            }
        }
        Cmp::Ge => {
            // i: Σa·x ≥ ra implies k: Σc·x ≥ rc when c ≥ a... i.e. k's lhs
            // dominates from above; drop the weaker (smaller-rhs) row.
            if c_ge && erhs[k] <= erhs[i] + FEAS_TOL {
                return Ok(Some(k));
            }
            if a_ge && erhs[i] <= erhs[k] + FEAS_TOL {
                return Ok(Some(i));
            }
        }
        Cmp::Eq => {
            if a_ge && c_ge {
                // Identical coefficients: rhs must agree.
                if (erhs[i] - erhs[k]).abs() > FEAS_TOL {
                    return Err(Infeasible);
                }
                return Ok(Some(k));
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::testing::row;

    #[test]
    fn singleton_rows_become_bounds() {
        let mut p = Problem::minimize();
        let x = p.add_binary("x");
        let y = p.add_binary("y");
        row(&mut p, &[(x, 1.0)], Cmp::Eq, 1.0, false);
        row(&mut p, &[(x, 1.0), (y, 1.0)], Cmp::Le, 1.0, false);
        let r = presolve(&p, true).unwrap();
        // `fix` pins x=1; substitution turns `cap` into y <= 0, fixing y.
        assert_eq!(r.problem.num_constraints(), 0);
        assert_eq!(r.stats.singleton_rows, 2);
        assert_eq!(r.stats.fixed_vars, 2);
        assert_eq!(r.problem.var_data(x).lower, 1.0);
        assert_eq!(r.problem.var_data(y).upper, 0.0);
    }

    #[test]
    fn infeasible_singleton_detected() {
        let mut p = Problem::minimize();
        let x = p.add_binary("x");
        row(&mut p, &[(x, 2.0)], Cmp::Eq, 1.0, false);
        assert_eq!(presolve(&p, false).unwrap_err(), Infeasible);
    }

    #[test]
    fn redundant_row_dropped() {
        let mut p = Problem::minimize();
        let x = p.add_binary("x");
        let y = p.add_binary("y");
        row(&mut p, &[(x, 1.0), (y, 1.0)], Cmp::Le, 5.0, false);
        row(&mut p, &[(x, 1.0), (y, 1.0)], Cmp::Le, 1.0, false);
        let r = presolve(&p, false).unwrap();
        assert_eq!(r.problem.num_constraints(), 1);
        assert!(r.stats.redundant_rows + r.stats.dominated_rows >= 1);
    }

    #[test]
    fn bound_tightening_forces_vars() {
        // x + y >= 2 over binaries forces x = y = 1.
        let mut p = Problem::minimize();
        let x = p.add_binary("x");
        let y = p.add_binary("y");
        row(&mut p, &[(x, 1.0), (y, 1.0)], Cmp::Ge, 2.0, false);
        let r = presolve(&p, false).unwrap();
        assert_eq!(r.problem.var_data(x).lower, 1.0);
        assert_eq!(r.problem.var_data(y).lower, 1.0);
        assert_eq!(r.problem.num_constraints(), 0);
    }

    #[test]
    fn domination_drops_weaker_le_row() {
        let mut p = Problem::minimize();
        let x = p.add_binary("x");
        let y = p.add_binary("y");
        let z = p.add_binary("z");
        // Same support and coefficients; the tighter rhs implies the looser.
        row(&mut p, &[(x, 1.0), (y, 1.0), (z, 1.0)], Cmp::Le, 1.0, false);
        row(&mut p, &[(x, 1.0), (y, 1.0), (z, 1.0)], Cmp::Le, 2.0, false);
        let r = presolve(&p, false).unwrap();
        assert_eq!(r.stats.dominated_rows, 1);
        assert_eq!(r.problem.num_constraints(), 1);
        assert_eq!(r.problem.row_view(0).rhs, 1.0);
    }

    #[test]
    fn cover_cut_added_for_fractional_knapsack() {
        // 1·a + 1·b + 1·c <= 2.5 admits the cover {a,b,c}: at most 2 set.
        let mut p = Problem::minimize();
        let a = p.add_binary("a");
        let bb = p.add_binary("b");
        let c = p.add_binary("c");
        row(
            &mut p,
            &[(a, 1.0), (bb, 1.0), (c, 1.0)],
            Cmp::Le,
            2.5,
            false,
        );
        let r = presolve(&p, true).unwrap();
        assert_eq!(r.stats.cuts_added, 1);
        let cut = r.problem.row_view(r.problem.num_constraints() - 1);
        assert_eq!(cut.rhs, 2.0);
        assert_eq!(cut.len(), 3);
        // And the cut is not added when it would be implied.
        let mut q = Problem::minimize();
        let a = q.add_binary("a");
        let bb = q.add_binary("b");
        row(&mut q, &[(a, 1.0), (bb, 1.0)], Cmp::Le, 1.0, false);
        let r = presolve(&q, true).unwrap();
        assert_eq!(r.stats.cuts_added, 0);
    }

    #[test]
    fn lazy_partition_preserved() {
        let mut p = Problem::minimize();
        let x = p.add_binary("x");
        let y = p.add_binary("y");
        let z = p.add_binary("z");
        row(&mut p, &[(x, 1.0), (y, 1.0)], Cmp::Le, 1.0, false);
        row(&mut p, &[(y, 1.0), (z, 1.0)], Cmp::Le, 1.0, true);
        let r = presolve(&p, false).unwrap();
        assert_eq!(r.core.len(), 1);
        assert_eq!(r.lazy.len(), 1);
        assert!(r.problem.row_view(r.lazy[0]).lazy);
    }

    #[test]
    fn feasible_set_identical_on_integer_points() {
        // Brute-force equivalence over all 0-1 points of a small model.
        let mut p = Problem::minimize();
        let v: Vec<Var> = (0..4).map(|i| p.add_binary(format!("v{i}"))).collect();
        row(
            &mut p,
            &[(v[0], 2.0), (v[1], 1.0), (v[2], 1.0)],
            Cmp::Le,
            2.5,
            false,
        );
        row(
            &mut p,
            &[(v[1], 1.0), (v[2], 1.0), (v[3], 1.0)],
            Cmp::Ge,
            1.0,
            false,
        );
        row(&mut p, &[(v[0], 1.0), (v[3], 1.0)], Cmp::Le, 1.0, true);
        let r = presolve(&p, true).unwrap();
        for mask in 0..16u32 {
            let x: Vec<f64> = (0..4)
                .map(|i| if mask >> i & 1 == 1 { 1.0 } else { 0.0 })
                .collect();
            assert_eq!(
                p.is_feasible(&x, 1e-9),
                r.problem.is_feasible(&x, 1e-9),
                "mask {mask:04b}"
            );
        }
    }
}
