//! Run-to-run determinism of a cold compile at application scale:
//! compiling each benchmark program six times in one process, each in a
//! fresh session, must produce one image (`image_checksum`), one pivot
//! count and one node count. Every `HashMap`/`HashSet` in the process
//! draws fresh hash keys per instance, so six compiles see six iteration
//! orders — anything that lets one reach the model or the search shows up
//! as a second value here. Run with an exact gap so the optimum objective
//! is unique.

use nova::{image_checksum, CompileConfig, Compiler};
use std::collections::BTreeSet;
use workloads::{AES_NOVA, KASUMI_NOVA, NAT_NOVA};

const RUNS: usize = 6;

fn check(name: &str, src: &str) {
    let cfg = CompileConfig::builder().solver_gap(0.0).build();
    let seen: BTreeSet<(u64, usize, usize)> = (0..RUNS)
        .map(|_| {
            let out = Compiler::new(cfg.clone())
                .compile_output(src)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                out.alloc_stats.spills, 0,
                "{name}: paper reports zero spills"
            );
            let solve = &out.alloc_stats.solve;
            (
                image_checksum(&out.prog),
                solve.simplex_iterations,
                solve.nodes,
            )
        })
        .collect();
    assert_eq!(
        seen.len(),
        1,
        "{name}: {RUNS} cold compiles gave different (checksum, pivots, nodes): {seen:x?}"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "benchmark-sized ILP solves are slow unoptimized; run with --release"
)]
fn aes_cold_compiles_are_identical_run_to_run() {
    check("AES", AES_NOVA);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "benchmark-sized ILP solves are slow unoptimized; run with --release"
)]
fn kasumi_cold_compiles_are_identical_run_to_run() {
    check("Kasumi", KASUMI_NOVA);
}

#[test]
fn nat_cold_compiles_are_identical_run_to_run() {
    check("NAT", NAT_NOVA);
}
