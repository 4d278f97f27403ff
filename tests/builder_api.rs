//! The `CompileConfig::builder()` surface: solver knobs land where the
//! pipeline reads them.

use nova::CompileConfig;
use std::time::Duration;

#[test]
fn builder_sets_solver_knobs() {
    let cfg = CompileConfig::builder()
        .solver_deadline(Some(Duration::from_secs(7)))
        .solver_gap(0.25)
        .skip_opt(true)
        .build();
    assert_eq!(cfg.alloc.solver.time_limit, Some(Duration::from_secs(7)));
    assert_eq!(cfg.alloc.solver.relative_gap, 0.25);
    assert!(cfg.skip_opt);
}

#[test]
fn build_resolves_every_automatic_knob() {
    // After build() nothing is left to resolve later: the unset deadline
    // and gap land in the solver config as concrete values.
    let cfg = CompileConfig::builder().build();
    assert_eq!(cfg.alloc.solver.time_limit, None);
    assert_eq!(
        cfg.alloc.solver.relative_gap,
        ilp::BranchConfig::default().relative_gap
    );
}

#[test]
fn compile_works_through_builder_config() {
    let cfg = CompileConfig::builder().solver_gap(0.0).build();
    let out = nova::compile(
        "fun main() { let (a, b) = sram(0); sram(8) <- (a + b, a); 0 }",
        &cfg,
    )
    .expect("compiles")
    .artifact;
    assert!(ixp_machine::validate(&out.prog).is_empty());
}
