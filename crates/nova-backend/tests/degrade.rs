//! Fallback-policy tests: the ladder makes allocation total, the greedy
//! rung produces runnable (if costly) code, and the strict policies
//! reproduce the historical budget-exhaustion error.

use nova_backend::{
    allocate, allocate_solved_with, select, AllocConfig, AllocError, FallbackPolicy,
};
use nova_cps::{convert, optimize, to_ssu, OptConfig};
use nova_frontend::{check, parse};
use std::time::Duration;

const SAMPLES: &[&str] = &[
    "fun main() { let (x, y) = sram(0); sram(10) <- (x + y); 0 }",
    r#"fun main() {
        let (a, b, c, d) = sram(100);
        let (e, f, g, h, i, j) = sram(200);
        let u = a + c;
        let v = g + h;
        sram(300) <- (b, e, v, u);
        sram(500) <- (f, j, d, i);
        0
    }"#,
    r#"fun main() {
        let (u, v, x, w) = sram(0);
        sram(100) <- (u, v, x, w);
        sram(200) <- (w, x, u, v);
        sram(300) <- (x);
        0
    }"#,
    r#"fun main() {
        let i = 0;
        let acc = 0;
        while (i < 10) { acc = acc + i; i = i + 1; }
        sram(0) <- (acc);
        0
    }"#,
];

fn program(src: &str) -> ixp_machine::Program<ixp_machine::Temp> {
    let p = parse(src).unwrap_or_else(|d| panic!("parse: {}", d.render(src)));
    let info = check(&p).unwrap_or_else(|d| panic!("check: {}", d.render(src)));
    let mut cps = convert(&p, &info).unwrap();
    optimize(&mut cps, &OptConfig::default());
    to_ssu(&mut cps);
    select(&cps).unwrap()
}

fn zero_deadline(policy: FallbackPolicy) -> AllocConfig {
    let mut cfg = AllocConfig::default();
    cfg.solver.time_limit = Some(Duration::ZERO);
    cfg.fallback = policy;
    cfg
}

#[test]
fn exact_runs_report_stage_zero() {
    // Default config: generous budget, Ladder policy. Small programs
    // solve exactly, so the ladder must never engage.
    for src in SAMPLES {
        let a = allocate(&program(src), &AllocConfig::default()).expect("allocates");
        assert_eq!(a.quality.stage, 0);
        assert!(a.quality.proven_optimal);
        assert_eq!(a.quality.spills, a.stats.spills);
    }
}

#[test]
fn ladder_terminates_under_zero_deadline() {
    // The never-fail guarantee: a zero deadline exhausts stage 0
    // immediately, and the ladder still produces a validated (and, in
    // debug builds, verifier-checked) allocation for every sample.
    for src in SAMPLES {
        let a = allocate(&program(src), &zero_deadline(FallbackPolicy::Ladder))
            .unwrap_or_else(|e| panic!("ladder must not fail: {e}"));
        assert!(a.quality.stage >= 1, "zero budget cannot prove stage 0");
        assert!(a.quality.stage <= 4);
    }
}

#[test]
fn greedy_policy_skips_the_solver() {
    for src in SAMPLES {
        let a = allocate(&program(src), &zero_deadline(FallbackPolicy::Greedy))
            .unwrap_or_else(|e| panic!("greedy must not fail: {e}"));
        assert_eq!(a.quality.stage, 4);
        assert!(!a.quality.proven_optimal);
        assert_eq!(a.quality.gap, 1.0);
        // The solver never ran.
        assert_eq!(a.stats.solve.nodes, 0);
        assert_eq!(a.stats.solve.simplex_iterations, 0);
    }
}

#[test]
fn fail_policy_reproduces_budget_error() {
    let err = allocate(&program(SAMPLES[0]), &zero_deadline(FallbackPolicy::Fail))
        .err()
        .expect("zero budget must fail under Fail");
    match &err {
        AllocError::Solver(ilp::MilpError::BudgetExhausted(_)) => {}
        other => panic!("expected BudgetExhausted, got {other}"),
    }
    assert!(err
        .to_string()
        .contains("budget exhausted before an integer solution was found"));
}

#[test]
fn incumbent_policy_errors_without_incumbent() {
    // The historical behavior: no incumbent under the budget is an error,
    // with the same message Fail produces.
    let fail = allocate(&program(SAMPLES[0]), &zero_deadline(FallbackPolicy::Fail))
        .err()
        .expect("Fail errors")
        .to_string();
    let incumbent = allocate(
        &program(SAMPLES[0]),
        &zero_deadline(FallbackPolicy::Incumbent),
    )
    .err()
    .expect("Incumbent errors with no incumbent")
    .to_string();
    assert_eq!(fail, incumbent);
}

#[test]
fn greedy_quality_is_bounded_by_exact() {
    // Degradation is a quality trade, not a correctness one: greedy may
    // spill (the exact runs don't), but both must validate.
    for src in SAMPLES {
        let prog = program(src);
        let exact = allocate(&prog, &AllocConfig::default()).expect("exact");
        let greedy = allocate(&prog, &zero_deadline(FallbackPolicy::Greedy)).expect("greedy");
        assert!(
            greedy.stats.moves >= exact.stats.moves,
            "greedy cannot beat the proven optimum"
        );
        assert!(greedy.stats.spills >= exact.stats.spills);
    }
}

/// The ladder's observable trace at a zero deadline, pinned for two
/// real programs. Stage 0 exhausts deterministically (the deadline has
/// passed before the root LP starts); how far the walk then goes depends
/// on how fast the host solves, so the trace is pinned as a function of
/// the accepted rung `s`: `s + 1` attempts, one `phase.ilp.stage` span
/// each, the backoff budgets 50, 100, 200 ms in that order up to rung
/// `min(s, 3)`, and one published outcome — the accepted one. Debug
/// builds typically walk all five rungs, release builds accept rung 1.
#[test]
fn ladder_trace_at_zero_deadline_is_pinned() {
    use nova_obs::{EventKind, MemoryRecorder, Obs};
    use workloads::{classifier_rules, classifier_source, NAT_NOVA};

    let classifier = classifier_source(&classifier_rules(7, 0, 16));
    for (name, src) in [("nat", NAT_NOVA), ("classifier16", classifier.as_str())] {
        let memory = MemoryRecorder::new();
        let (alloc, solved) = allocate_solved_with(
            &program(src),
            &zero_deadline(FallbackPolicy::Ladder),
            &Obs::new(memory.clone()),
        )
        .unwrap_or_else(|e| panic!("{name}: ladder must not fail: {e}"));

        let q = alloc.quality;
        assert!((1..=4).contains(&q.stage), "{name}: {q:?}");
        assert_eq!(solved.quality, q, "{name}");
        assert_eq!(q.spills, alloc.stats.spills, "{name}");
        if q.stage == 4 {
            assert!(!q.proven_optimal && q.gap == 1.0, "{name}: {q:?}");
        }

        let s = u64::from(q.stage);
        let summary = memory.summary();
        let counter = |c: &str| summary.counter_total(c);
        assert_eq!(counter("backend.staged.attempts"), Some(s + 1), "{name}");
        assert_eq!(
            summary.span("phase.ilp.stage").map(|sp| sp.count as u64),
            Some(s + 1),
            "{name}"
        );
        // Exhausted rungs publish nothing; the accepted one publishes its
        // stage once (no downstream rejection on these programs).
        assert_eq!(counter("backend.staged.stage"), Some(s), "{name}");
        assert_eq!(counter("backend.staged.finish_failed"), None, "{name}");
        assert_eq!(
            summary.sample("backend.staged.gap").map(|g| g.count),
            Some(1)
        );

        let backoff_ms: Vec<f64> = memory
            .events()
            .iter()
            .filter(|e| e.name == "backend.staged.backoff_ms")
            .map(|e| match e.kind {
                EventKind::Sample { value } => value,
                other => panic!("{name}: backoff is a sample, got {other:?}"),
            })
            .collect();
        assert_eq!(
            backoff_ms,
            [50.0, 100.0, 200.0][..usize::from(q.stage.min(3))],
            "{name}"
        );
    }
}
