//! The `CompileConfig::builder()` surface: solver and simulation knobs
//! land where the pipeline reads them, and environment overrides resolve
//! exactly once at `build()`.

use nova::{CompileConfig, KernelKind};
use std::time::Duration;

#[test]
fn builder_sets_solver_and_sim_knobs() {
    let cfg = CompileConfig::builder()
        .solver_threads(3)
        .solver_kernel(KernelKind::Dense)
        .solver_deadline(Some(Duration::from_secs(7)))
        .solver_gap(0.25)
        .engines(2)
        .contexts(8)
        .max_cycles(12_345)
        .skip_opt(true)
        .build();
    assert_eq!(cfg.alloc.solver.threads, 3);
    assert_eq!(cfg.alloc.solver.kernel, Some(KernelKind::Dense));
    assert_eq!(cfg.alloc.solver.time_limit, Some(Duration::from_secs(7)));
    assert_eq!(cfg.alloc.solver.relative_gap, 0.25);
    assert!(cfg.skip_opt);
    assert_eq!(cfg.sim.engines, 2);
    assert_eq!(cfg.sim.contexts, 8);
    assert_eq!(cfg.sim.max_cycles, 12_345);

    let chip = cfg.sim.chip_config();
    assert_eq!(chip.engines, 2);
    assert_eq!(chip.contexts, 8);
    assert_eq!(chip.max_cycles, 12_345);
}

#[test]
fn build_resolves_every_automatic_knob() {
    // After build() nothing is left "ask the environment later": the
    // kernel is always pinned to a concrete value, and the solver's own
    // effective_* accessors (which no longer read the environment) agree
    // with what the builder resolved.
    let cfg = CompileConfig::builder().build();
    assert!(
        cfg.alloc.solver.kernel.is_some(),
        "kernel pinned at build time"
    );
    assert_eq!(
        cfg.alloc.solver.effective_kernel(),
        cfg.alloc.solver.kernel.unwrap(),
    );
    assert_eq!(cfg.sim.engines, 6, "IXP1200 chip shape");
    assert_eq!(cfg.sim.contexts, 4);
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
    assert_eq!(
        cfg.alloc.solver.kernel,
        Some(KernelKind::Dense),
        "NOVA_ILP_KERNEL honored"
    );
    // The environment is gone, but the resolved config still carries the
    // values: a later solve cannot observe the change.
    assert_eq!(cfg.alloc.solver.effective_threads(), 2);
    assert_eq!(cfg.alloc.solver.effective_kernel(), KernelKind::Dense);

    // Explicit builder calls beat the environment.
    std::env::set_var("NOVA_ILP_THREADS", "2");
    let cfg = CompileConfig::builder()
        .solver_threads(5)
        .solver_kernel(KernelKind::Sparse)
        .build();
    std::env::remove_var("NOVA_ILP_THREADS");
    assert_eq!(cfg.alloc.solver.threads, 5);
    assert_eq!(cfg.alloc.solver.kernel, Some(KernelKind::Sparse));
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
