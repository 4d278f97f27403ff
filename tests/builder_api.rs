//! The `CompileConfig::builder()` surface: solver knobs land where the
//! pipeline reads them, and the one environment override resolves exactly
//! once at `build()`.

use ilp::KernelKind;
use nova::CompileConfig;
use std::time::Duration;

#[test]
fn builder_sets_solver_knobs() {
    let cfg = CompileConfig::builder()
        .solver_threads(3)
        .solver_deadline(Some(Duration::from_secs(7)))
        .solver_gap(0.25)
        .skip_opt(true)
        .build();
    assert_eq!(cfg.alloc.solver.threads, 3);
    assert_eq!(cfg.alloc.solver.time_limit, Some(Duration::from_secs(7)));
    assert_eq!(cfg.alloc.solver.relative_gap, 0.25);
    assert!(cfg.skip_opt);
}

#[test]
fn build_resolves_every_automatic_knob() {
    // After build() nothing is left "ask the environment later": the
    // solver's own effective_* accessors (which never read the
    // environment) resolve to concrete values.
    let cfg = CompileConfig::builder().build();
    assert!(cfg.alloc.solver.effective_threads() >= 1);
    assert_eq!(cfg.alloc.solver.effective_kernel(), KernelKind::Sparse);
}

#[test]
fn env_overrides_resolve_once_at_build_time() {
    // Sequential set/build/remove inside one test: the other tests in
    // this binary never rely on these variables being unset.
    std::env::set_var("NOVA_ILP_THREADS", "2");
    std::env::set_var("NOVA_ILP_KERNEL", "dense");
    let cfg = CompileConfig::builder().build();
    std::env::remove_var("NOVA_ILP_THREADS");
    std::env::remove_var("NOVA_ILP_KERNEL");
    assert_eq!(cfg.alloc.solver.threads, 2, "NOVA_ILP_THREADS honored");
    // The environment is gone, but the resolved config still carries the
    // value: a later solve cannot observe the change.
    assert_eq!(cfg.alloc.solver.effective_threads(), 2);
    // The retired kernel variable is inert: nothing reads it, so the
    // dense reference kernel is reachable only through
    // `BranchConfig::with_kernel`.
    assert_eq!(cfg.alloc.solver.kernel, None);
    assert_eq!(cfg.alloc.solver.effective_kernel(), KernelKind::Sparse);

    // Explicit builder calls beat the environment.
    std::env::set_var("NOVA_ILP_THREADS", "2");
    let cfg = CompileConfig::builder().solver_threads(5).build();
    std::env::remove_var("NOVA_ILP_THREADS");
    assert_eq!(cfg.alloc.solver.threads, 5);
}

#[test]
fn compile_works_through_builder_config() {
    let cfg = CompileConfig::builder().solver_threads(1).build();
    let out = nova::compile(
        "fun main() { let (a, b) = sram(0); sram(8) <- (a + b, a); 0 }",
        &cfg,
    )
    .expect("compiles")
    .artifact;
    assert!(ixp_machine::validate(&out.prog).is_empty());
}
