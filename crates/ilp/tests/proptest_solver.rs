//! Property tests for the MILP solver: brute-force cross-checks over
//! random 0-1 programs, warm/cold equivalence, and lazy-row transparency.

use ilp::{solve_milp, BranchConfig, Cmp, Problem, Simplex};
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

/// Build the random 0-1 program. With `perturb`, column `i`'s objective
/// coefficient gains the distinct dyadic weight 2^-(i+3) (exact in binary
/// floating point), so the optimal vector is unique: two 0-1 vectors can
/// only tie if they agree on every perturbed coordinate.
fn build(rp: &RandProblem, perturb: bool) -> Problem {
    let mut p = Problem::minimize();
    let vars: Vec<_> = (0..rp.n).map(|i| p.add_binary(format!("b{i}"))).collect();
    let g = p.group("c");
    for (coeffs, cmp, rhs, lazy) in &rp.rows {
        let mut row = p.row(g);
        for (&v, &c) in vars.iter().zip(coeffs) {
            row.term(v, c as f64);
        }
        let cmp = match cmp {
            0 => Cmp::Le,
            1 => Cmp::Ge,
            _ => Cmp::Eq,
        };
        if *lazy {
            row.finish_lazy(cmp, *rhs as f64);
        } else {
            row.finish(cmp, *rhs as f64);
        }
    }
    for (i, (&v, &c)) in vars.iter().zip(&rp.obj).enumerate() {
        let eps = if perturb {
            0.5f64.powi(i as i32 + 3)
        } else {
            0.0
        };
        p.objective_term(v, c as f64 + eps);
    }
    p
}

/// The minimum objective over every feasible 0-1 point, with the first
/// point (in mask order) that attains it.
fn brute_force(p: &Problem) -> Option<(f64, Vec<f64>)> {
    let n = p.num_vars();
    let mut best: Option<(f64, Vec<f64>)> = None;
    for mask in 0..(1u32 << n) {
        let x: Vec<f64> = (0..n).map(|i| ((mask >> i) & 1) as f64).collect();
        if p.is_feasible(&x, 1e-9) {
            let v = p.objective_value(&x);
            if best.as_ref().is_none_or(|(b, _)| v < *b) {
                best = Some((v, x));
            }
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn milp_matches_brute_force(rp in problem_strategy()) {
        let p = build(&rp, false);
        let expect = brute_force(&p);
        let got = solve_milp(&p, &BranchConfig::default());
        match expect {
            Some((b, _)) => {
                let s = got.unwrap_or_else(|e| panic!("solver said {e}, brute force found {b}"));
                prop_assert!((s.objective - b).abs() < 1e-4,
                    "solver {} vs brute force {b}", s.objective);
            }
            None => prop_assert!(got.is_err(), "solver found a solution to an infeasible program"),
        }
    }

    /// With the gap and both fathoming tolerances at zero, branch and
    /// bound must reach the unique argmin of the perturbed objective: the
    /// same objective and the same 0-1 vector as brute force.
    #[test]
    fn exact_milp_reaches_the_brute_force_argmin(rp in problem_strategy()) {
        let p = build(&rp, true);
        let cfg = BranchConfig {
            relative_gap: 0.0,
            fathom_abs: 0.0,
            fathom_rel: 0.0,
            ..BranchConfig::default()
        };
        match (brute_force(&p), solve_milp(&p, &cfg)) {
            (Some((b, x)), Ok(s)) => {
                prop_assert!((s.objective - b).abs() < 1e-6,
                    "solver {} vs brute force {b}", s.objective);
                let got: Vec<f64> = s.values.iter().map(|v| v.round()).collect();
                prop_assert_eq!(got, x);
            }
            (None, Err(ilp::MilpError::Infeasible)) => {}
            (b, s) => prop_assert!(false, "brute force {b:?} vs solver {s:?}"),
        }
    }

    #[test]
    fn warm_equals_cold_under_random_fixings(
        rp in problem_strategy(),
        fixings in proptest::collection::vec((0usize..7, any::<bool>()), 0..20),
    ) {
        let p = build(&rp, false);
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
