//! Corpus-level tests of the allocation models: the models NAT, AES and
//! Kasumi build are pinned bit for bit by a digest, and presolve (with or
//! without cutting planes) must never change the reported optimum on
//! them.
//!
//! The small NAT model is solved for real in every build; the
//! benchmark-sized AES/Kasumi solves run
//! only in release builds (`cargo test --release -p bench`) and are
//! `#[ignore]`d in debug, following the tier-1 convention for
//! solver-heavy tests. The digest covers all three programs in every
//! build.

use bench::Benchmark;
use ilp::{solve_milp, BranchConfig, ModelStats, Problem, VarKind};
use nova::CompileConfig;
use nova_backend::alloc::build_model;

/// Build the allocation MILP for one benchmark program exactly the way
/// the staged allocator does: the fully optimized pipeline CPS, pruned
/// candidates, and the automatic spill-machinery drop when register
/// pressure provably fits the general-purpose banks.
fn corpus_problem(b: Benchmark) -> Problem {
    corpus_model(b).0
}

/// [`corpus_problem`] plus the model's size statistics.
fn corpus_model(b: Benchmark) -> (Problem, ModelStats) {
    let out = bench::compile(b, &CompileConfig::default());
    let prog = nova_backend::select(&out.cps).unwrap();
    let facts = nova_backend::alloc::build_facts(&prog);
    let freqs = nova_backend::freq::estimate(&prog);
    let mut cfg = CompileConfig::default().alloc;
    let pressure = facts.exists.values().map(|s| s.len()).max().unwrap_or(0);
    if cfg.allow_spill && cfg.spill_auto && pressure + 4 <= cfg.k_a + cfg.k_b {
        cfg.allow_spill = false;
    }
    let bm = build_model(&prog, &facts, &freqs, &cfg);
    (bm.model.problem().clone(), bm.model.stats())
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Digest of everything the solver reads from an allocation model: each
/// column's bounds and kind; each row's columns, coefficient bits,
/// comparison, right-hand-side bits and lazy flag; the model statistics;
/// and the objective's value bits at three seeded 0/1 points.
fn model_digest(p: &Problem, stats: &ModelStats) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for d in p.var_datas() {
        h.word(d.lower.to_bits());
        h.word(d.upper.to_bits());
        h.word(u64::from(d.kind == VarKind::Integer));
    }
    for r in p.row_views() {
        h.word(r.cols.len() as u64);
        for (&c, &v) in r.cols.iter().zip(r.vals) {
            h.word(u64::from(c));
            h.word(v.to_bits());
        }
        h.word(r.cmp as u64);
        h.word(r.rhs.to_bits());
        h.word(u64::from(r.lazy));
    }
    h.bytes(format!("{stats:?}").as_bytes());
    let mut seed = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..3 {
        let x: Vec<f64> = (0..p.num_vars())
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                ((seed >> 32) & 1) as f64
            })
            .collect();
        h.word(p.objective_value(&x).to_bits());
    }
    h.0
}

/// The allocation models of the corpus are pinned bit for bit: a change
/// to how a model is built or how its objective is stored and evaluated
/// that moves any coefficient, bound, row or objective value fails here.
#[test]
fn allocation_models_match_the_pinned_digest() {
    let got: Vec<(&str, u64)> = [Benchmark::Nat, Benchmark::Aes, Benchmark::Kasumi]
        .into_iter()
        .map(|b| {
            let (p, stats) = corpus_model(b);
            (b.name(), model_digest(&p, &stats))
        })
        .collect();
    let pinned: Vec<(&str, u64)> = vec![
        ("NAT", 0x48c1_9e1a_851b_b948),
        ("AES", 0x5504_dcfc_f295_226b),
        ("Kasumi", 0xbc75_b3d0_783c_880a),
    ];
    assert_eq!(got, pinned, "allocation model digests moved");
}

/// Objectives are compared to within twice the default fathoming margin
/// (`BranchConfig::fathom_abs`): at `relative_gap = 0` a node whose bound
/// sits inside the margin of the incumbent is pruned, so which of two
/// sub-margin ties becomes the incumbent depends on the order the search
/// meets them, and presolve or cuts change that order. NAT has reported
/// 32.916695878… and 32.916702672… (Δ 6.8e-6) — equal optima as far as
/// the solver can tell, and far below the ≥ 1e-2 by which genuinely
/// different allocations differ.
fn same_objective(a: f64, b: f64) -> bool {
    (a - b).abs() <= 2.0 * BranchConfig::default().fathom_abs
}

fn exact() -> BranchConfig {
    BranchConfig {
        relative_gap: 0.0,
        ..BranchConfig::default()
    }
}

/// Presolve on, presolve off, and cuts off must agree on the optimum,
/// and every reported solution must satisfy the *original* model (the
/// postsolve contract: columns are never renumbered).
fn assert_presolve_transparent(p: &Problem, what: &str) {
    let on = solve_milp(p, &exact()).unwrap_or_else(|e| panic!("{what}: presolve on: {e}"));
    let off = solve_milp(p, &exact().with_presolve(false))
        .unwrap_or_else(|e| panic!("{what}: presolve off: {e}"));
    let no_cuts = solve_milp(p, &exact().with_cuts(false))
        .unwrap_or_else(|e| panic!("{what}: cuts off: {e}"));
    for (label, got) in [("presolve off", &off), ("cuts off", &no_cuts)] {
        assert!(
            same_objective(on.objective, got.objective),
            "{what}: {label} gave {} vs {}",
            got.objective,
            on.objective
        );
    }
    for (label, got) in [("presolve on", &on), ("presolve off", &off)] {
        assert!(
            p.is_feasible(&got.values, 1e-6),
            "{what}: {label} solution violates the original model"
        );
    }
}

#[test]
fn nat_presolve_and_cuts_are_transparent() {
    let p = corpus_problem(Benchmark::Nat);
    assert_presolve_transparent(&p, "NAT");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "benchmark-sized solves; run with --release"
)]
fn aes_kasumi_presolve_and_cuts_are_transparent() {
    for b in [Benchmark::Aes, Benchmark::Kasumi] {
        let p = corpus_problem(b);
        assert_presolve_transparent(&p, b.name());
    }
}
