//! Property tests for the MILP solver: brute-force cross-checks over
//! random 0-1 programs, warm/cold equivalence, and lazy-row transparency.

use ilp::{solve_milp, BranchConfig, Cmp, LinExpr, Problem, Simplex};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandProblem {
    n: usize,
    rows: Vec<(Vec<i8>, u8, i8, bool)>, // coeffs, cmp (0/1/2), rhs, lazy
    obj: Vec<i8>,
}

fn problem_strategy() -> impl Strategy<Value = RandProblem> {
    (2usize..=7).prop_flat_map(|n| {
        let row = (
            proptest::collection::vec(-3i8..=3, n),
            0u8..3,
            -2i8..=6,
            any::<bool>(),
        );
        (
            Just(n),
            proptest::collection::vec(row, 1..5),
            proptest::collection::vec(-5i8..=5, n),
        )
            .prop_map(|(n, rows, obj)| RandProblem { n, rows, obj })
    })
}

fn build(rp: &RandProblem) -> Problem {
    let mut p = Problem::minimize();
    let vars: Vec<_> = (0..rp.n).map(|i| p.add_binary(format!("b{i}"))).collect();
    for (k, (coeffs, cmp, rhs, lazy)) in rp.rows.iter().enumerate() {
        let mut e = LinExpr::new();
        for (v, c) in vars.iter().zip(coeffs) {
            e.add_term(*v, *c as f64);
        }
        let cmp = match cmp {
            0 => Cmp::Le,
            1 => Cmp::Ge,
            _ => Cmp::Eq,
        };
        if *lazy {
            p.add_lazy_constraint(format!("c{k}"), e, cmp, *rhs as f64);
        } else {
            p.add_constraint(format!("c{k}"), e, cmp, *rhs as f64);
        }
    }
    let mut obj = LinExpr::new();
    for (v, c) in vars.iter().zip(&rp.obj) {
        obj.add_term(*v, *c as f64);
    }
    p.set_objective(obj);
    p
}

fn brute_force(p: &Problem) -> Option<f64> {
    let n = p.num_vars();
    let mut best: Option<f64> = None;
    for mask in 0..(1u32 << n) {
        let x: Vec<f64> = (0..n).map(|i| ((mask >> i) & 1) as f64).collect();
        if p.is_feasible(&x, 1e-9) {
            let v = p.objective_value(&x);
            best = Some(best.map_or(v, |b: f64| b.min(v)));
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn milp_matches_brute_force(rp in problem_strategy()) {
        let p = build(&rp);
        let expect = brute_force(&p);
        let got = solve_milp(&p, &BranchConfig::default());
        match expect {
            Some(b) => {
                let s = got.unwrap_or_else(|e| panic!("solver said {e}, brute force found {b}"));
                prop_assert!((s.objective - b).abs() < 1e-4,
                    "solver {} vs brute force {b}", s.objective);
            }
            None => prop_assert!(got.is_err(), "solver found a solution to an infeasible program"),
        }
    }

    #[test]
    fn warm_equals_cold_under_random_fixings(
        rp in problem_strategy(),
        fixings in proptest::collection::vec((0usize..7, any::<bool>()), 0..20),
    ) {
        let p = build(&rp);
        // Only exercise the LP layer: strip lazy flags by rebuilding core.
        let core: Vec<usize> = (0..p.num_constraints()).collect();
        let mut warm = Simplex::with_rows(&p, Some(&core));
        let n = p.num_vars();
        let mut lo = vec![0.0; n];
        let mut hi = vec![1.0; n];
        if warm.solve_with_bounds(&lo, &hi).is_err() {
            return Ok(());
        }
        for (j, up) in fixings {
            let j = j % n;
            let v = if up { 1.0 } else { 0.0 };
            lo[j] = v;
            hi[j] = v;
            let w = warm.resolve_with_bounds(&lo, &hi);
            let c = Simplex::with_rows(&p, Some(&core)).solve_with_bounds(&lo, &hi);
            match (w, c) {
                (Ok(a), Ok(b)) => prop_assert!(
                    (a.objective - b.objective).abs() < 1e-5,
                    "warm {} vs cold {}", a.objective, b.objective
                ),
                (Err(ilp::LpError::Infeasible), Err(ilp::LpError::Infeasible)) => {}
                (a, b) => prop_assert!(false, "warm {a:?} vs cold {b:?}"),
            }
            // Occasionally unfix to exercise bound loosening.
            if j.is_multiple_of(3) {
                lo[j] = 0.0;
                hi[j] = 1.0;
            }
        }
    }
}
