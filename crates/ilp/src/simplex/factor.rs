//! Basis representation for the revised simplex: a sparse LU
//! factorization with Markowitz threshold pivoting plus a product-form
//! eta file. (The dense explicit inverse it replaced lives on in test
//! builds as `dense.rs`, with the same interface.)
//!
//! The kernel exposes these operations, all in *basis position / row*
//! index space (`0..m`):
//!
//! * `ftran_col`  — w = B⁻¹ a for a sparse column `a`;
//! * `ftran`      — x = B⁻¹ v for a dense right-hand side, in place;
//! * `btran`      — y = B⁻ᵀ c for a dense right-hand side, in place;
//! * `btran_unit` — ρ = B⁻ᵀ e_r (the pivot row of B⁻¹);
//! * `update`     — basis change: column at position `r` replaced by the
//!   column whose FTRAN image is `w`;
//! * `append`     — dimension growth for lazy row activation: the new
//!   basis is `[[B, 0], [C, I]]` where `C` holds the new rows'
//!   coefficients under the current basic columns.
//!
//! The sparse kernel composes a pipeline `B = LU · op₁ · op₂ · …` where
//! each op is either an eta matrix (one pivot) or an append block (one
//! `add_rows` call). FTRAN runs the pipeline forward, BTRAN backward with
//! transposes. [`SparseKernel::should_refactor`] asks for a fresh LU once
//! the eta file grows past the refactor interval; the driver then calls
//! [`SparseKernel::refactor`] with the current basis columns, collapsing
//! the pipeline.

/// Etas accumulated before a refactorization is requested.
pub(super) const DEFAULT_REFACTOR_INTERVAL: usize = 250;
/// Relative Markowitz threshold: a pivot must be at least this fraction
/// of the largest entry in its column.
const MARKOWITZ_THRESHOLD: f64 = 0.1;
/// Columns with an acceptable pivot examined per elimination step before
/// settling for the best found (Suhl-style bounded search).
const SEARCH_COLS: usize = 4;
/// Entries smaller than this are dropped during elimination.
const DROP_TOL: f64 = 1e-12;
/// A pivot candidate below this magnitude means the basis is numerically
/// singular.
const SINGULAR_TOL: f64 = 1e-11;

/// The basis turned out to be (numerically) singular.
#[derive(Debug)]
pub(super) struct Singular;

/// One elimination step: pivot position, L multipliers, and the U row /
/// column it produced.
struct LuStep {
    /// Pivot row (original row index).
    pr: u32,
    /// Pivot column (basis position).
    pc: u32,
    /// Pivot value.
    diag: f64,
    /// L multipliers `(row, a_row/diag)` for rows eliminated by this step.
    lrow: Vec<(u32, f64)>,
    /// U entries of the pivot row over columns eliminated later: `(basis
    /// position, value)`.
    urow: Vec<(u32, f64)>,
    /// U entries of the pivot column from rows eliminated earlier: `(row,
    /// value)`.
    ucol: Vec<(u32, f64)>,
}

/// A sparse LU factorization of an m×m basis.
pub(super) struct Lu {
    m: usize,
    steps: Vec<LuStep>,
    /// Total stored nonzeros (diagonal + L + U).
    nnz: usize,
}

impl Lu {
    fn identity(m: usize) -> Lu {
        Lu {
            m,
            steps: (0..m)
                .map(|i| LuStep {
                    pr: i as u32,
                    pc: i as u32,
                    diag: 1.0,
                    lrow: Vec::new(),
                    urow: Vec::new(),
                    ucol: Vec::new(),
                })
                .collect(),
            nnz: m,
        }
    }

    /// Solve `B x = v` in place (`v[0..m]`), using `work` as scratch.
    fn ftran(&self, v: &mut [f64], work: &mut [f64]) {
        // Forward: apply the eliminations L⁻¹.
        for s in &self.steps {
            let t = v[s.pr as usize];
            if t != 0.0 {
                for &(r, mult) in &s.lrow {
                    v[r as usize] -= mult * t;
                }
            }
        }
        // Backward: solve U x = v, writing x by basis position into work.
        for s in self.steps.iter().rev() {
            let mut acc = v[s.pr as usize];
            if acc != 0.0 || !s.urow.is_empty() {
                for &(pc, u) in &s.urow {
                    acc -= u * work[pc as usize];
                }
            }
            work[s.pc as usize] = acc / s.diag;
        }
        v[..self.m].copy_from_slice(&work[..self.m]);
    }

    /// Solve `Bᵀ y = v` in place (`v[0..m]`), using `work` as scratch.
    fn btran(&self, v: &mut [f64], work: &mut [f64]) {
        // Forward: solve Uᵀ z = v (v indexed by position, z by row).
        for s in &self.steps {
            let mut acc = v[s.pc as usize];
            if acc != 0.0 || !s.ucol.is_empty() {
                for &(pr, u) in &s.ucol {
                    acc -= u * work[pr as usize];
                }
            }
            work[s.pr as usize] = acc / s.diag;
        }
        // Backward: apply Lᵀ in reverse elimination order.
        for s in self.steps.iter().rev() {
            let mut acc = 0.0;
            for &(r, mult) in &s.lrow {
                acc += mult * work[r as usize];
            }
            if acc != 0.0 {
                work[s.pr as usize] -= acc;
            }
        }
        v[..self.m].copy_from_slice(&work[..self.m]);
    }
}

/// Reusable workspaces for [`factor`], kept across refactorizations so a
/// rebuild allocates nothing once the pools are warm. `spare` recycles
/// the `(u32, f64)` vectors of retired LU steps and eta files.
#[derive(Default)]
pub(super) struct FactorScratch {
    colv: Vec<Vec<(u32, f64)>>,
    rowpat: Vec<Vec<u32>>,
    rowcnt: Vec<u32>,
    colcnt: Vec<u32>,
    row_active: Vec<bool>,
    col_active: Vec<bool>,
    buckets: Vec<Vec<u32>>,
    acc: Vec<f64>,
    stamp: Vec<u32>,
    ucol_accum: Vec<Vec<(u32, f64)>>,
    /// Recycled `(u32, f64)` vectors (from dropped LU steps / eta ops).
    pub(super) spare: Vec<Vec<(u32, f64)>>,
}

impl FactorScratch {
    /// Return a retired vector to the pool.
    pub(super) fn recycle(&mut self, v: Vec<(u32, f64)>) {
        self.spare.push(v);
    }
}

fn clear_resize<T: Clone + Default>(v: &mut Vec<T>, n: usize, fill: T) {
    v.clear();
    v.resize(n, fill);
}

/// Clear nested vectors in place (keeping their capacity) and extend to
/// length `n`.
fn clear_nested<T>(v: &mut Vec<Vec<T>>, n: usize) {
    for inner in v.iter_mut() {
        inner.clear();
    }
    if v.len() > n {
        v.truncate(n);
    } else {
        v.resize_with(n, Vec::new);
    }
}

/// Sparse LU of the basis columns `cols[basis[p]]` (position `p`, entries
/// `(row, val)`) with Markowitz threshold pivoting. Workspaces come from
/// `scratch` and are returned to it, so repeated factorizations reuse
/// their allocations.
pub(super) fn factor(
    m: usize,
    basis: &[usize],
    cols: &[Vec<(usize, f64)>],
    scratch: &mut FactorScratch,
) -> Result<Lu, Singular> {
    debug_assert_eq!(basis.len(), m);
    if m == 0 {
        return Ok(Lu {
            m,
            steps: Vec::new(),
            nnz: 0,
        });
    }
    // Active-submatrix workspace: values live in columns; rows keep a
    // (possibly stale, possibly duplicated) pattern of column ids.
    clear_nested(&mut scratch.colv, m);
    for (j, &bj) in basis.iter().enumerate() {
        scratch.colv[j].extend(cols[bj].iter().map(|&(r, v)| (r as u32, v)));
    }
    clear_nested(&mut scratch.rowpat, m);
    clear_resize(&mut scratch.rowcnt, m, 0u32);
    clear_resize(&mut scratch.colcnt, m, 0u32);
    let FactorScratch {
        colv,
        rowpat,
        rowcnt,
        colcnt,
        row_active,
        col_active,
        buckets,
        acc,
        stamp,
        ucol_accum,
        spare,
    } = scratch;
    let grab = |spare: &mut Vec<Vec<(u32, f64)>>| -> Vec<(u32, f64)> {
        let mut v = spare.pop().unwrap_or_default();
        v.clear();
        v
    };
    for (j, c) in colv.iter().enumerate() {
        colcnt[j] = c.len() as u32;
        for &(r, _) in c {
            rowpat[r as usize].push(j as u32);
            rowcnt[r as usize] += 1;
        }
    }
    clear_resize(row_active, m, true);
    clear_resize(col_active, m, true);
    // Count buckets with lazy deletion: a column may sit in several
    // buckets; entries are validated against `colcnt` on inspection.
    let max_cnt = m + 1;
    clear_nested(buckets, max_cnt + 1);
    for j in 0..m {
        buckets[(colcnt[j] as usize).min(max_cnt)].push(j as u32);
    }
    // Dense accumulator for column updates.
    clear_resize(acc, m, 0.0f64);
    clear_resize(stamp, m, 0u32);
    let mut cur_stamp = 0u32;
    // U-column accumulators, filled as pivot rows shed entries.
    clear_nested(ucol_accum, m);

    let mut steps: Vec<LuStep> = Vec::with_capacity(m);
    let mut nnz = 0usize;

    for _step in 0..m {
        // ---- pivot search ----
        let mut best: Option<(u64, u32, u32, f64)> = None; // (cost, pr, pc, val)
        let mut examined = 0usize;
        'search: for (c, bucket) in buckets.iter_mut().enumerate().skip(1) {
            let mut k = 0;
            while k < bucket.len() {
                let j = bucket[k] as usize;
                if !col_active[j] || colcnt[j] as usize != c {
                    bucket.swap_remove(k);
                    continue;
                }
                k += 1;
                let colmax = colv[j].iter().fold(0.0f64, |mx, &(_, v)| mx.max(v.abs()));
                if colmax < SINGULAR_TOL {
                    return Err(Singular);
                }
                let mut found = false;
                for &(r, v) in &colv[j] {
                    if v.abs() >= MARKOWITZ_THRESHOLD * colmax {
                        let cost = (c as u64 - 1) * (rowcnt[r as usize] as u64 - 1);
                        let better = match best {
                            None => true,
                            Some((bc, _, _, bv)) => cost < bc || (cost == bc && v.abs() > bv.abs()),
                        };
                        if better {
                            best = Some((cost, r, j as u32, v));
                        }
                        found = true;
                    }
                }
                if found {
                    examined += 1;
                    let floor = ((c - 1) * (c - 1)) as u64;
                    if let Some((bc, ..)) = best {
                        if bc <= floor || examined >= SEARCH_COLS {
                            break 'search;
                        }
                    }
                }
            }
        }
        let Some((_, pr, pc, pv)) = best else {
            return Err(Singular);
        };
        let (pr_u, pc_u) = (pr as usize, pc as usize);

        // ---- eliminate ----
        col_active[pc_u] = false;
        row_active[pr_u] = false;
        let mut piv_col = std::mem::take(&mut colv[pc_u]);
        let mut lrow: Vec<(u32, f64)> = grab(spare);
        for &(r, v) in &piv_col {
            if r != pr {
                lrow.push((r, v / pv));
                rowcnt[r as usize] -= 1;
            }
        }
        piv_col.clear();
        colv[pc_u] = piv_col;
        // Gather the surviving pivot-row entries; each becomes a U entry
        // and drives one column update.
        cur_stamp += 1;
        let seen = cur_stamp;
        let mut pat = std::mem::take(&mut rowpat[pr_u]);
        let mut urow: Vec<(u32, f64)> = grab(spare);
        for &j32 in &pat {
            let j = j32 as usize;
            if j == pc_u || !col_active[j] || stamp[j] == seen {
                continue;
            }
            stamp[j] = seen;
            let Some(idx) = colv[j].iter().position(|&(r, _)| r == pr) else {
                continue; // stale pattern entry
            };
            let (_, uval) = colv[j].swap_remove(idx);
            colcnt[j] -= 1;
            urow.push((j32, uval));
            ucol_accum[j].push((pr, uval));
            if lrow.is_empty() {
                buckets[(colcnt[j] as usize).min(max_cnt)].push(j32);
                continue;
            }
            // col_j -= mult * uval at each multiplier row, via a dense
            // stamped accumulator (fill-in may appear).
            cur_stamp += 1;
            let tag = cur_stamp;
            for &(r, v) in &colv[j] {
                acc[r as usize] = v;
                stamp[r as usize] = tag;
            }
            for &(r, mult) in &lrow {
                let r_u = r as usize;
                if stamp[r_u] == tag {
                    acc[r_u] -= mult * uval;
                } else {
                    acc[r_u] = -mult * uval;
                    stamp[r_u] = tag;
                    colv[j].push((r, 0.0)); // placeholder, gathered below
                    rowpat[r_u].push(j32);
                    rowcnt[r_u] += 1;
                    colcnt[j] += 1;
                }
            }
            // Gather back, dropping numerically dead entries.
            let mut w = 0;
            for i in 0..colv[j].len() {
                let (r, _) = colv[j][i];
                let v = acc[r as usize];
                if v.abs() > DROP_TOL {
                    colv[j][w] = (r, v);
                    w += 1;
                } else {
                    rowcnt[r as usize] -= 1;
                    colcnt[j] -= 1;
                }
            }
            colv[j].truncate(w);
            // The stamp generation guards double-gathering duplicate rows:
            // a row appears at most once in colv[j] by construction.
            buckets[(colcnt[j] as usize).min(max_cnt)].push(j32);
        }
        pat.clear();
        rowpat[pr_u] = pat;
        let replacement = grab(spare);
        let ucol = std::mem::replace(&mut ucol_accum[pc_u], replacement);
        nnz += 1 + lrow.len() + urow.len();
        steps.push(LuStep {
            pr,
            pc,
            diag: pv,
            lrow,
            urow,
            ucol,
        });
    }
    Ok(Lu { m, steps, nnz })
}

/// Basis-change pipeline entry layered on top of the LU.
enum UpdateOp {
    /// Product-form eta from one pivot: position `r` replaced by a column
    /// whose FTRAN image had value `wr` at `r` and `nz` elsewhere.
    Eta {
        r: u32,
        wr: f64,
        nz: Vec<(u32, f64)>,
    },
    /// Lazy-row append: rows `base..base+rows.len()` joined the basis with
    /// their slacks; `rows[k]` holds the new row's coefficients under the
    /// basic columns at creation time, by basis position.
    Append {
        base: u32,
        rows: Vec<Vec<(u32, f64)>>,
    },
}

/// Sparse basis kernel: LU + eta/append pipeline.
pub(super) struct SparseKernel {
    m: usize,
    lu: Lu,
    ops: Vec<UpdateOp>,
    etas_since_refactor: usize,
    refactor_interval: usize,
    work: Vec<f64>,
    /// Pooled factorization workspaces + recycled step/eta vectors.
    scratch: FactorScratch,
    /// Cumulative telemetry for `SolveStats`.
    pub refactorizations: usize,
    pub total_etas: usize,
    pub lu_fill_nnz: usize,
}

impl SparseKernel {
    pub fn new(refactor_interval: usize) -> SparseKernel {
        SparseKernel {
            m: 0,
            lu: Lu::identity(0),
            ops: Vec::new(),
            etas_since_refactor: 0,
            refactor_interval,
            work: Vec::new(),
            scratch: FactorScratch::default(),
            refactorizations: 0,
            total_etas: 0,
            lu_fill_nnz: 0,
        }
    }

    /// Factor the basis columns `cols[basis[p]]` from scratch, collapsing
    /// the pipeline. The retired LU steps and eta file are recycled into
    /// the scratch pool, so steady-state refactorization is allocation-free.
    pub fn refactor(
        &mut self,
        m: usize,
        basis: &[usize],
        cols: &[Vec<(usize, f64)>],
    ) -> Result<(), Singular> {
        let lu = factor(m, basis, cols, &mut self.scratch)?;
        let old = std::mem::replace(&mut self.lu, lu);
        for mut s in old.steps {
            s.lrow.clear();
            self.scratch.recycle(s.lrow);
            s.urow.clear();
            self.scratch.recycle(s.urow);
            s.ucol.clear();
            self.scratch.recycle(s.ucol);
        }
        for op in self.ops.drain(..) {
            match op {
                UpdateOp::Eta { mut nz, .. } => {
                    nz.clear();
                    self.scratch.recycle(nz);
                }
                UpdateOp::Append { rows, .. } => {
                    for mut r in rows {
                        r.clear();
                        self.scratch.recycle(r);
                    }
                }
            }
        }
        self.m = m;
        self.etas_since_refactor = 0;
        self.refactorizations += 1;
        self.lu_fill_nnz = self.lu_fill_nnz.max(self.lu.nnz);
        self.work.resize(m, 0.0);
        Ok(())
    }

    pub fn should_refactor(&self) -> bool {
        self.etas_since_refactor >= self.refactor_interval
    }

    #[cfg(test)]
    pub fn set_refactor_interval(&mut self, k: usize) {
        self.refactor_interval = k.max(1);
    }

    /// Postpone a failed refactorization by another full interval (the
    /// existing eta pipeline stays valid).
    pub fn defer_refactor(&mut self) {
        self.etas_since_refactor = 0;
    }

    fn apply_ops_forward(&self, v: &mut [f64]) {
        for op in &self.ops {
            match op {
                UpdateOp::Eta { r, wr, nz } => {
                    let t = v[*r as usize] / wr;
                    if t != 0.0 {
                        for &(i, w) in nz {
                            v[i as usize] -= w * t;
                        }
                    }
                    v[*r as usize] = t;
                }
                UpdateOp::Append { base, rows } => {
                    for (k, crow) in rows.iter().enumerate() {
                        let mut acc = v[*base as usize + k];
                        for &(p, a) in crow {
                            acc -= a * v[p as usize];
                        }
                        v[*base as usize + k] = acc;
                    }
                }
            }
        }
    }

    fn apply_ops_backward(&self, v: &mut [f64]) {
        for op in self.ops.iter().rev() {
            match op {
                UpdateOp::Eta { r, wr, nz } => {
                    let mut acc = v[*r as usize];
                    for &(i, w) in nz {
                        acc -= w * v[i as usize];
                    }
                    v[*r as usize] = acc / wr;
                }
                UpdateOp::Append { base, rows } => {
                    for (k, crow) in rows.iter().enumerate() {
                        let t = v[*base as usize + k];
                        if t != 0.0 {
                            for &(p, a) in crow {
                                v[p as usize] -= a * t;
                            }
                        }
                    }
                }
            }
        }
    }

    /// x = B⁻¹ v, in place.
    pub fn ftran(&mut self, v: &mut [f64]) {
        let m0 = self.lu.m;
        self.lu.ftran(&mut v[..m0], &mut self.work[..m0]);
        self.apply_ops_forward(v);
    }

    /// y = B⁻ᵀ v, in place.
    pub fn btran(&mut self, v: &mut [f64]) {
        self.apply_ops_backward(v);
        let m0 = self.lu.m;
        self.lu.btran(&mut v[..m0], &mut self.work[..m0]);
    }

    /// Record the pivot `(r, w)` as an eta. The eta vector comes from the
    /// recycle pool when one is available.
    pub fn update(&mut self, r: usize, w: &[f64]) {
        let wr = w[r];
        let mut nz = self.scratch.spare.pop().unwrap_or_default();
        nz.clear();
        nz.extend(
            w.iter()
                .enumerate()
                .filter(|&(i, &v)| i != r && v.abs() > DROP_TOL)
                .map(|(i, &v)| (i as u32, v)),
        );
        self.ops.push(UpdateOp::Eta {
            r: r as u32,
            wr,
            nz,
        });
        self.etas_since_refactor += 1;
        self.total_etas += 1;
    }

    /// Extend the basis with appended rows (their slacks basic).
    pub fn append(&mut self, c_rows: Vec<Vec<(u32, f64)>>) {
        let base = self.m;
        self.m += c_rows.len();
        self.work.resize(self.m, 0.0);
        self.ops.push(UpdateOp::Append {
            base: base as u32,
            rows: c_rows,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::super::dense::DenseKernel;
    use super::*;

    fn dense_of(cols: &[Vec<(usize, f64)>]) -> Vec<Vec<f64>> {
        let m = cols.len();
        let mut a = vec![vec![0.0; m]; m];
        for (j, c) in cols.iter().enumerate() {
            for &(r, v) in c {
                a[r][j] = v;
            }
        }
        a
    }

    fn mat_vec(a: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        a.iter()
            .map(|row| row.iter().zip(x).map(|(c, v)| c * v).sum())
            .collect()
    }

    fn mat_t_vec(a: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        let m = a.len();
        (0..m)
            .map(|j| (0..m).map(|i| a[i][j] * x[i]).sum())
            .collect()
    }

    fn check_solves(cols: &[Vec<(usize, f64)>]) {
        let m = cols.len();
        let basis: Vec<usize> = (0..m).collect();
        let lu = factor(m, &basis, cols, &mut FactorScratch::default()).expect("nonsingular");
        let a = dense_of(cols);
        let mut work = vec![0.0; m];
        // FTRAN: B x = b.
        let b: Vec<f64> = (0..m).map(|i| (i as f64) - 1.5).collect();
        let mut x = b.clone();
        lu.ftran(&mut x, &mut work);
        let back = mat_vec(&a, &x);
        for i in 0..m {
            assert!(
                (back[i] - b[i]).abs() < 1e-8,
                "ftran row {i}: {} vs {}",
                back[i],
                b[i]
            );
        }
        // BTRAN: Bᵀ y = c.
        let c: Vec<f64> = (0..m).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let mut y = c.clone();
        lu.btran(&mut y, &mut work);
        let back = mat_t_vec(&a, &y);
        for i in 0..m {
            assert!(
                (back[i] - c[i]).abs() < 1e-8,
                "btran row {i}: {} vs {}",
                back[i],
                c[i]
            );
        }
    }

    #[test]
    fn lu_identity_and_diagonal() {
        let cols: Vec<Vec<(usize, f64)>> = (0..5).map(|i| vec![(i, 1.0 + i as f64)]).collect();
        check_solves(&cols);
    }

    #[test]
    fn lu_random_sparse() {
        // Deterministic pseudo-random sparse nonsingular matrices: diagonal
        // dominance guarantees nonsingularity.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for m in [1usize, 2, 3, 8, 20, 50] {
            let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
            for (j, col) in cols.iter_mut().enumerate() {
                col.push((j, 4.0 + (next() % 5) as f64));
                for _ in 0..(next() % 3) {
                    let r = (next() % m as u64) as usize;
                    if r != j && !col.iter().any(|&(rr, _)| rr == r) {
                        col.push((r, ((next() % 7) as f64) - 3.0));
                    }
                }
            }
            check_solves(&cols);
        }
    }

    #[test]
    fn singular_detected() {
        let basis = vec![0usize, 1];
        // Column of zeros.
        let cols = vec![vec![(0usize, 1.0)], vec![]];
        assert!(factor(2, &basis, &cols, &mut FactorScratch::default()).is_err());
        // Two identical columns.
        let cols = vec![vec![(0usize, 1.0), (1, 2.0)], vec![(0usize, 1.0), (1, 2.0)]];
        assert!(factor(2, &basis, &cols, &mut FactorScratch::default()).is_err());
    }

    #[test]
    fn eta_update_matches_dense() {
        // Start from a diagonal basis, pivot in a new column, and compare
        // sparse FTRAN/BTRAN against the dense kernel on the same ops.
        let m = 4;
        let cols: Vec<Vec<(usize, f64)>> = (0..m).map(|i| vec![(i, 2.0)]).collect();
        let basis: Vec<usize> = (0..m).collect();
        let mut sk = SparseKernel::new(100);
        sk.refactor(m, &basis, &cols).unwrap();
        let mut dk = DenseKernel::default();
        dk.reset_diag(m, &basis, &cols);

        // New column a = [1, 3, 0, 1] enters at position 1.
        let a = vec![(0usize, 1.0), (1, 3.0), (3, 1.0)];
        let mut w = vec![0.0; m];
        for &(i, v) in &a {
            w[i] = v;
        }
        sk.ftran(&mut w);
        let mut wd = vec![0.0; m];
        dk.ftran_col(&a, &mut wd);
        for i in 0..m {
            assert!((w[i] - wd[i]).abs() < 1e-10);
        }
        sk.update(1, &w);
        dk.update(1, &w);

        let b = vec![1.0, -2.0, 0.5, 3.0];
        let mut xs = b.clone();
        sk.ftran(&mut xs);
        let mut xd = b.clone();
        dk.ftran(&mut xd);
        for i in 0..m {
            assert!(
                (xs[i] - xd[i]).abs() < 1e-9,
                "ftran {i}: {} vs {}",
                xs[i],
                xd[i]
            );
        }
        let mut ys = b.clone();
        sk.btran(&mut ys);
        let mut yd = b.clone();
        dk.btran(&mut yd);
        for i in 0..m {
            assert!(
                (ys[i] - yd[i]).abs() < 1e-9,
                "btran {i}: {} vs {}",
                ys[i],
                yd[i]
            );
        }
        let mut rho_s = vec![0.0; m];
        rho_s[2] = 1.0;
        sk.btran(&mut rho_s);
        let mut rho_d = vec![0.0; m];
        dk.btran_unit(2, &mut rho_d);
        for i in 0..m {
            assert!((rho_s[i] - rho_d[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn append_matches_dense() {
        let m = 3;
        let cols: Vec<Vec<(usize, f64)>> = (0..m).map(|i| vec![(i, 1.0)]).collect();
        let basis: Vec<usize> = (0..m).collect();
        let mut sk = SparseKernel::new(100);
        sk.refactor(m, &basis, &cols).unwrap();
        let mut dk = DenseKernel::default();
        dk.reset_diag(m, &basis, &cols);
        // Pivot, then append two rows referencing basic positions.
        let a = vec![(0usize, 2.0), (2, 1.0)];
        let mut w = vec![0.0; m];
        for &(i, v) in &a {
            w[i] = v;
        }
        sk.ftran(&mut w);
        sk.update(0, &w);
        dk.update(0, &w);
        let c_rows = vec![vec![(0u32, 1.5), (2, -1.0)], vec![(1u32, 2.0)]];
        sk.append(c_rows.clone());
        dk.append(&c_rows);
        let b = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let mut xs = b.clone();
        sk.ftran(&mut xs);
        let mut xd = b.clone();
        dk.ftran(&mut xd);
        for i in 0..5 {
            assert!(
                (xs[i] - xd[i]).abs() < 1e-9,
                "ftran {i}: {} vs {}",
                xs[i],
                xd[i]
            );
        }
        let mut ys = b.clone();
        sk.btran(&mut ys);
        let mut yd = b.clone();
        dk.btran(&mut yd);
        for i in 0..5 {
            assert!(
                (ys[i] - yd[i]).abs() < 1e-9,
                "btran {i}: {} vs {}",
                ys[i],
                yd[i]
            );
        }
    }
}
