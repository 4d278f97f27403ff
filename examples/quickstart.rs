//! Quickstart: compile a small Nova program all the way to allocated
//! IXP1200 machine code, look at every intermediate artifact, and execute
//! the result on the cycle simulator.
//!
//! Run with `cargo run --release --example quickstart`.

use nova::{simulate_chip, ChipConfig, CompileConfig, Compiler, SimMemory};

const PROGRAM: &str = r#"
// Swap two pairs of SRAM words and store their sums.
fun main() {
    let (a, b, c, d) = sram(100);
    sram(200) <- (b, a, d, c);
    sram(300) <- (a + b, c + d);
    0
}
"#;

fn main() {
    // 1. Compile: parse -> typecheck -> CPS -> optimize -> SSU -> select ->
    //    ILP bank assignment + transfer coloring -> A/B coloring.
    let compiler = Compiler::new(CompileConfig::default());
    let out = compiler.compile_output(PROGRAM).expect("compiles");

    println!("=== optimized CPS ===");
    println!("{}", nova_cps::ir::pretty(&out.cps));

    println!("=== allocated machine code ===");
    println!("{}", out.prog);

    println!("=== allocator statistics (the paper's Figure-7 row) ===");
    let st = &out.alloc_stats;
    println!(
        "model: {} variables, {} constraints, {} objective terms",
        st.model.variables, st.model.constraints, st.model.objective_terms
    );
    println!(
        "solve: root {:?}, total {:?}, {} nodes",
        st.solve.root_time, st.solve.total_time, st.solve.nodes
    );
    println!(
        "solution: {} inter-bank moves, {} spills",
        st.moves, st.spills
    );

    // 2. Execute on one simulated micro-engine context.
    let chip = ChipConfig {
        engines: 1,
        contexts: 1,
        ..ChipConfig::default()
    };
    let mut mem = SimMemory::with_sizes(512, 64, 64);
    mem.sram[100..104].copy_from_slice(&[10, 20, 30, 40]);
    let res = simulate_chip(&out.prog, &mut mem, &chip).expect("runs");
    println!("=== execution ===");
    println!("cycles: {}, instructions: {}", res.cycles, res.instructions);
    println!("sram[200..204] = {:?}", &mem.sram[200..204]);
    println!("sram[300..302] = {:?}", &mem.sram[300..302]);
    assert_eq!(&mem.sram[200..204], &[20, 10, 40, 30]);
    assert_eq!(&mem.sram[300..302], &[30, 70]);
    println!("ok!");
}
