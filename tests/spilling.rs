//! End-to-end spill test: a program whose register pressure exceeds the
//! machine (15 A + 16 B usable + 8 L = 39 simultaneous values) forces the
//! ILP to place temporaries in the scratch spill bank `M`, and the
//! extraction phase to materialize the spill stores/reloads through spare
//! S/L registers (§9 "K and Spilling for transfer banks").

use ixp_sim::{simulate_chip, ChipConfig, SimMemory};
use nova::{CompileConfig, Compiler};
use nova_cps::eval::{run, Machine};

/// Five 8-word reads, all 40 values live at once, then all consumed.
fn high_pressure_program() -> String {
    let names: Vec<Vec<String>> = (0..5)
        .map(|g| (0..8).map(|i| format!("v{g}_{i}")).collect())
        .collect();
    let mut src = String::from("fun main() {\n");
    for (g, group) in names.iter().enumerate() {
        src.push_str(&format!(
            "    let ({}) = sram({});\n",
            group.join(", "),
            g * 8
        ));
    }
    // Consume everything pairwise so all 40 stay live until here.
    for g in 0..4 {
        let pairs: Vec<String> = (0..8)
            .map(|i| format!("{} + {}", names[g][i], names[g + 1][i]))
            .collect();
        src.push_str(&format!(
            "    sram({}) <- ({});\n",
            100 + g * 8,
            pairs.join(", ")
        ));
    }
    src.push_str("    0\n}\n");
    src
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "ILP solve of the spill model takes minutes unoptimized; run with --release"
)]
fn forced_spills_execute_correctly() {
    let src = high_pressure_program();
    let mut cfg = CompileConfig::default();
    cfg.alloc.solver.time_limit = Some(std::time::Duration::from_secs(240));
    let out = Compiler::new(cfg)
        .compile_output(&src)
        .unwrap_or_else(|e| panic!("{e}\n{src}"));
    assert!(ixp_machine::validate(&out.prog).is_empty());
    assert!(
        out.alloc_stats.spills > 0,
        "40 simultaneous values exceed the 39-register machine: spills required"
    );
    eprintln!(
        "spills: {}, moves: {}, solve: {:?}",
        out.alloc_stats.spills, out.alloc_stats.moves, out.alloc_stats.solve.total_time
    );

    // Differential execution with the spill code in place.
    let mut oracle = Machine::with_sizes(512, 64, 2048);
    for i in 0..40 {
        oracle.sram[i] = (i as u32 + 1) * 17;
    }
    run(&out.cps, &mut oracle, 10_000_000).unwrap();

    let mut sim = SimMemory::with_sizes(512, 64, 2048);
    for i in 0..40 {
        sim.sram[i] = (i as u32 + 1) * 17;
    }
    simulate_chip(
        &out.prog,
        &mut sim,
        &ChipConfig {
            engines: 1,
            contexts: 1,
            max_cycles: 1 << 30,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(
        &oracle.sram[..512],
        &sim.sram[..512],
        "spilled program output diverged"
    );
    // Spot-check one value against arithmetic.
    assert_eq!(sim.sram[100], 17 + 9 * 17);
}

#[test]
fn pressure_below_capacity_never_spills() {
    // The same shape with three groups fits without touching scratch.
    let names: Vec<Vec<String>> = (0..3)
        .map(|g| (0..8).map(|i| format!("v{g}_{i}")).collect())
        .collect();
    let mut src = String::from("fun main() {\n");
    for (g, group) in names.iter().enumerate() {
        src.push_str(&format!(
            "    let ({}) = sram({});\n",
            group.join(", "),
            g * 8
        ));
    }
    for g in 0..2 {
        let pairs: Vec<String> = (0..8)
            .map(|i| format!("{} + {}", names[g][i], names[g + 1][i]))
            .collect();
        src.push_str(&format!(
            "    sram({}) <- ({});\n",
            100 + g * 8,
            pairs.join(", ")
        ));
    }
    src.push_str("    0\n}\n");
    let out = Compiler::new(CompileConfig::default())
        .compile_output(&src)
        .unwrap();
    assert_eq!(out.alloc_stats.spills, 0);
}
