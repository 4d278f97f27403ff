//! Differential tests between the sparse-LU and dense basis kernels.
//!
//! The sparse kernel (Markowitz LU + eta file + devex pricing) and the
//! dense product-form inverse must agree on every solve: same LP
//! objectives, same branch-and-bound incumbents, same
//! feasible/infeasible verdicts. These tests push random bounded LPs and
//! small MILPs through both kernels explicitly (via
//! [`Simplex::with_rows_kernel`] / [`BranchConfig::with_kernel`]), the
//! only way to select the dense reference kernel.

use ilp::{solve_milp, BranchConfig, Cmp, KernelKind, LinExpr, Problem, Simplex};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandLp {
    n: usize,
    rows: Vec<(Vec<i8>, u8, i8)>, // coeffs, cmp (0/1/2), rhs
    obj: Vec<i8>,
    bounds: Vec<(u8, u8)>, // lower, width
}

fn lp_strategy() -> impl Strategy<Value = RandLp> {
    (2usize..=8).prop_flat_map(|n| {
        let row = (proptest::collection::vec(-3i8..=3, n), 0u8..3, -2i8..=8);
        (
            Just(n),
            proptest::collection::vec(row, 1..6),
            proptest::collection::vec(-5i8..=5, n),
            proptest::collection::vec((0u8..3, 1u8..4), n),
        )
            .prop_map(|(n, rows, obj, bounds)| RandLp {
                n,
                rows,
                obj,
                bounds,
            })
    })
}

/// Build a bounded continuous LP from the random description.
fn build_lp(rp: &RandLp) -> Problem {
    let mut p = Problem::minimize();
    let vars: Vec<_> = (0..rp.n)
        .map(|i| {
            let (lo, w) = rp.bounds[i];
            p.add_var(format!("x{i}"), lo as f64, (lo + w) as f64)
        })
        .collect();
    for (k, (coeffs, cmp, rhs)) in rp.rows.iter().enumerate() {
        let mut e = LinExpr::new();
        for (v, c) in vars.iter().zip(coeffs) {
            e.add_term(*v, *c as f64);
        }
        let cmp = match cmp {
            0 => Cmp::Le,
            1 => Cmp::Ge,
            _ => Cmp::Eq,
        };
        p.add_constraint(format!("c{k}"), e, cmp, *rhs as f64);
    }
    let mut obj = LinExpr::new();
    for (v, c) in vars.iter().zip(&rp.obj) {
        obj.add_term(*v, *c as f64);
    }
    p.set_objective(obj);
    p
}

/// Build a small 0-1 MILP over the same random row structure. The
/// objective is perturbed by distinct dyadic weights (exact in binary
/// floating point) so the optimal vector is unique: two binary vectors
/// can only tie if they agree on every perturbed coordinate. Without
/// this, equally-optimal incumbents would be search-order dependent —
/// each kernel finds one tie member and fathoms the subtree holding the
/// other, so the vectors could legitimately differ.
fn build_milp(rp: &RandLp) -> Problem {
    let mut p = Problem::minimize();
    let vars: Vec<_> = (0..rp.n).map(|i| p.add_binary(format!("b{i}"))).collect();
    for (k, (coeffs, cmp, rhs)) in rp.rows.iter().enumerate() {
        let mut e = LinExpr::new();
        for (v, c) in vars.iter().zip(coeffs) {
            e.add_term(*v, *c as f64);
        }
        let cmp = match cmp {
            0 => Cmp::Le,
            1 => Cmp::Ge,
            _ => Cmp::Eq,
        };
        p.add_constraint(format!("c{k}"), e, cmp, *rhs as f64);
    }
    let mut obj = LinExpr::new();
    for (i, (v, c)) in vars.iter().zip(&rp.obj).enumerate() {
        obj.add_term(*v, *c as f64 + (0.5f64).powi(i as i32 + 3));
    }
    p.set_objective(obj);
    p
}

fn lp_solve(p: &Problem, kind: KernelKind) -> Result<f64, ilp::LpError> {
    let core: Vec<usize> = (0..p.num_constraints()).collect();
    let mut sx = Simplex::with_rows_kernel(p, Some(&core), kind);
    sx.solve().map(|s| s.objective)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Same random bounded LP through both kernels: identical
    /// feasibility verdicts and equal objectives within tolerance.
    #[test]
    fn lp_dense_equals_sparse(rp in lp_strategy()) {
        let p = build_lp(&rp);
        let sparse = lp_solve(&p, KernelKind::Sparse);
        let dense = lp_solve(&p, KernelKind::Dense);
        match (sparse, dense) {
            (Ok(a), Ok(b)) => prop_assert!(
                (a - b).abs() < 1e-5,
                "sparse {a} vs dense {b}"
            ),
            (Err(ilp::LpError::Infeasible), Err(ilp::LpError::Infeasible)) => {}
            (a, b) => prop_assert!(false, "sparse {a:?} vs dense {b:?}"),
        }
    }

    /// Branch-and-bound on small MILPs: both kernels must land on the
    /// same objective AND the same incumbent vector (the exact-gap
    /// lexicographic incumbent rule pins ties down, so with fathoming
    /// tolerances disabled the searches are bit-for-bit comparable).
    #[test]
    fn milp_dense_equals_sparse(rp in lp_strategy()) {
        let p = build_milp(&rp);
        let cfg = BranchConfig {
            relative_gap: 0.0,
            fathom_abs: 0.0,
            fathom_rel: 0.0,
            ..BranchConfig::default()
        };
        let sparse = solve_milp(&p, &cfg.clone().with_kernel(Some(KernelKind::Sparse)));
        let dense = solve_milp(&p, &cfg.with_kernel(Some(KernelKind::Dense)));
        match (&sparse, &dense) {
            (Ok(a), Ok(b)) => {
                prop_assert!((a.objective - b.objective).abs() < 1e-6,
                    "sparse {} vs dense {}", a.objective, b.objective);
                let ra: Vec<i64> = a.values.iter().map(|v| v.round() as i64).collect();
                let rb: Vec<i64> = b.values.iter().map(|v| v.round() as i64).collect();
                prop_assert_eq!(ra, rb,
                    "incumbent integer solutions diverged between kernels");
                prop_assert_eq!(a.stats.kernel.as_str(), "sparse");
                prop_assert_eq!(b.stats.kernel.as_str(), "dense");
            }
            (Err(ilp::MilpError::Infeasible), Err(ilp::MilpError::Infeasible)) => {}
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
        let core: Vec<usize> = (0..p.num_constraints()).collect();
        let mut warm = Simplex::with_rows_kernel(&p, Some(&core), KernelKind::Sparse);
        // Refactorize after every eta so the warm path crosses many
        // factorization boundaries even on tiny problems.
        warm.set_refactor_interval(1);
        let n = p.num_vars();
        let mut lo: Vec<f64> = (0..n).map(|i| rp.bounds[i].0 as f64).collect();
        let mut hi: Vec<f64> =
            (0..n).map(|i| (rp.bounds[i].0 + rp.bounds[i].1) as f64).collect();
        if warm.solve_with_bounds(&lo, &hi).is_err() {
            return Ok(());
        }
        for (j, up) in fixings {
            let j = j % n;
            let v = if up { hi[j] } else { lo[j] };
            lo[j] = v;
            hi[j] = v;
            let w = warm.resolve_with_bounds(&lo, &hi);
            let c = Simplex::with_rows_kernel(&p, Some(&core), KernelKind::Dense)
                .solve_with_bounds(&lo, &hi);
            match (w, c) {
                (Ok(a), Ok(b)) => prop_assert!(
                    (a.objective - b.objective).abs() < 1e-5,
                    "warm sparse {} vs cold dense {}", a.objective, b.objective
                ),
                (Err(ilp::LpError::Infeasible), Err(ilp::LpError::Infeasible)) => {}
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
    p.add_constraint("r0", LinExpr::from(x) + y, Cmp::Le, 4.0);
    p.add_constraint("r1", LinExpr::from(y) + z, Cmp::Le, 4.0);
    // Lazy cuts activated later via add_rows.
    p.add_lazy_constraint("cut0", LinExpr::from(x) + z, Cmp::Le, 3.0);
    p.add_lazy_constraint("cut1", LinExpr::from(x) + y + z, Cmp::Le, 5.0);
    p.set_objective(LinExpr::from(x) + y + z);

    let core = [0usize, 1];
    let mut sx = Simplex::with_rows_kernel(&p, Some(&core), KernelKind::Sparse);
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

    let full: Vec<usize> = (0..p.num_constraints()).collect();
    let cold = Simplex::with_rows_kernel(&p, Some(&full), KernelKind::Dense)
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
