//! The `CompileConfig::builder()` surface: solver knobs land where the
//! pipeline reads them.

use ilp::KernelKind;
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
    // After build() nothing is left to resolve later: the kernel default
    // is the sparse LU (the dense reference kernel is reachable only
    // through `BranchConfig::with_kernel`).
    let cfg = CompileConfig::builder().build();
    assert_eq!(cfg.alloc.solver.kernel, None);
    assert_eq!(cfg.alloc.solver.effective_kernel(), KernelKind::Sparse);
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
