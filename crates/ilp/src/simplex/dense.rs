//! The dense explicit-inverse basis kernel the sparse LU replaced. It is
//! compiled only into test builds, as the reference the LP-level
//! differential tests solve against: same interface as
//! [`super::factor::SparseKernel`], O(m²) per operation.

/// Dense explicit product-form basis inverse.
#[derive(Default)]
pub(super) struct DenseKernel {
    m: usize,
    /// Row-major m×m basis inverse.
    binv: Vec<f64>,
    /// Scratch for the in-place FTRAN/BTRAN.
    work: Vec<f64>,
}

impl DenseKernel {
    /// Reset to the inverse of a diagonal basis (`cols[basis[p]]` has a
    /// single entry on row `p`).
    pub fn reset_diag(&mut self, m: usize, basis: &[usize], cols: &[Vec<(usize, f64)>]) {
        self.m = m;
        self.binv.clear();
        self.binv.resize(m * m, 0.0);
        for (p, &bp) in basis.iter().enumerate() {
            let diag = cols[bp]
                .iter()
                .find(|&&(r, _)| r == p)
                .map_or(1.0, |&(_, v)| v);
            self.binv[p * m + p] = 1.0 / diag;
        }
    }

    /// w = B⁻¹ a for a sparse column.
    pub fn ftran_col(&self, col: &[(usize, f64)], out: &mut [f64]) {
        let m = self.m;
        out[..m].fill(0.0);
        for &(i, a) in col {
            for (r, o) in out[..m].iter_mut().enumerate() {
                *o += self.binv[r * m + i] * a;
            }
        }
    }

    /// x = B⁻¹ v, in place.
    pub fn ftran(&mut self, v: &mut [f64]) {
        let m = self.m;
        if m == 0 {
            return;
        }
        self.work.resize(m, 0.0);
        for (w, row) in self.work.iter_mut().zip(self.binv.chunks_exact(m)) {
            *w = row.iter().zip(&v[..m]).map(|(a, b)| a * b).sum();
        }
        v[..m].copy_from_slice(&self.work);
    }

    /// y = B⁻ᵀ v, in place.
    pub fn btran(&mut self, v: &mut [f64]) {
        let m = self.m;
        if m == 0 {
            return;
        }
        self.work.clear();
        self.work.resize(m, 0.0);
        for (&c, row) in v[..m].iter().zip(self.binv.chunks_exact(m)) {
            if c != 0.0 {
                for (w, &r) in self.work.iter_mut().zip(row) {
                    *w += c * r;
                }
            }
        }
        v[..m].copy_from_slice(&self.work);
    }

    /// ρ = B⁻ᵀ e_r: row `r` of B⁻¹.
    pub fn btran_unit(&self, r: usize, out: &mut [f64]) {
        out[..self.m].copy_from_slice(&self.binv[r * self.m..(r + 1) * self.m]);
    }

    /// Product-form update after pivoting on `(row, w)`.
    pub fn update(&mut self, row: usize, w: &[f64]) {
        let m = self.m;
        let inv_p = 1.0 / w[row];
        for k in 0..m {
            self.binv[row * m + k] *= inv_p;
        }
        let pr: Vec<f64> = self.binv[row * m..(row + 1) * m].to_vec();
        for (i, &f) in w[..m].iter().enumerate() {
            if i != row && f != 0.0 {
                let dst = &mut self.binv[i * m..(i + 1) * m];
                for (d, &p) in dst.iter_mut().zip(&pr) {
                    *d -= f * p;
                }
            }
        }
    }

    /// Block-triangular extension:
    /// `B' = [[B, 0], [C, I]]  ⇒  B'⁻¹ = [[B⁻¹, 0], [-C B⁻¹, I]]`.
    pub fn append(&mut self, c_rows: &[Vec<(u32, f64)>]) {
        let m_old = self.m;
        let m_new = m_old + c_rows.len();
        let mut nb = vec![0.0f64; m_new * m_new];
        for i in 0..m_old {
            nb[i * m_new..i * m_new + m_old]
                .copy_from_slice(&self.binv[i * m_old..(i + 1) * m_old]);
        }
        for (off, crow) in c_rows.iter().enumerate() {
            let r = m_old + off;
            for &(p, a) in crow {
                let p = p as usize;
                if p < m_old {
                    for col in 0..m_old {
                        nb[r * m_new + col] -= a * self.binv[p * m_old + col];
                    }
                }
            }
            nb[r * m_new + r] = 1.0;
        }
        self.binv = nb;
        self.m = m_new;
    }
}
