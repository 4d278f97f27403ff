//! Property-based tests across the stack.
//!
//! The heavyweight one is the differential compiler test: random Nova
//! programs (arithmetic, aggregates, branches, loops, layouts) are
//! compiled to machine code and executed on the cycle simulator; the
//! architectural result must equal the CPS reference interpreter's on the
//! same initial memory. Every shrunken counterexample here is a real
//! compiler bug.

use ixp_sim::{simulate_chip, ChipConfig, SimMemory};
use nova::{CompileConfig, Compiler};
use nova_cps::eval::{run, Machine};
use proptest::prelude::*;

// ---------- layout extract/deposit ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn layout_extract_deposit_roundtrip(
        offset in 0u32..96,
        width in 1u32..=32,
        value in any::<u32>(),
        backing in any::<[u32; 4]>(),
    ) {
        use nova_frontend::layout::{deposit, extract, mask};
        let mut words = backing.to_vec();
        let v = value & mask(width);
        deposit(&mut words, offset, width, v);
        prop_assert_eq!(extract(&words, offset, width), v);
        // Bits outside the field are untouched.
        let mut reference = backing.to_vec();
        deposit(&mut reference, offset, width, v);
        for bit in 0..128u32 {
            let w = (bit / 32) as usize;
            let b = 31 - (bit % 32);
            let inside = bit >= offset && bit < offset + width;
            if !inside {
                prop_assert_eq!(
                    (words[w] >> b) & 1,
                    (backing[w] >> b) & 1,
                    "bit {} changed", bit
                );
            }
        }
    }
}

// ---------- random straight-line program compilation ----------

/// A tiny generator of well-formed Nova statement sequences over a fixed
/// set of variables seeded from SRAM.
#[derive(Debug, Clone)]
enum Op {
    Arith(u8, u8, u8, u8), // dst, op, a, b
    Store2(u8, u8, u16),   // two vars to sram base
    Load(u8, u16),         // var <- sram[base]
    IfSwap(u8, u8, u8),    // if (a > b) x = a; else x = b;
}

fn program_of(ops: &[Op]) -> String {
    let mut body = String::new();
    body.push_str("fun main() {\n");
    body.push_str("    let (v0, v1, v2, v3) = sram(0);\n");
    for op in ops {
        match op {
            Op::Arith(d, o, a, b) => {
                let sym = ["+", "-", "^", "&", "|"][(*o % 5) as usize];
                body.push_str(&format!(
                    "    v{} = v{} {} v{};\n",
                    d % 4,
                    a % 4,
                    sym,
                    b % 4
                ));
            }
            Op::Store2(a, b, base) => {
                body.push_str(&format!(
                    "    sram({}) <- (v{}, v{});\n",
                    64 + (base % 128),
                    a % 4,
                    b % 4
                ));
            }
            Op::Load(d, base) => {
                body.push_str(&format!(
                    "    let (t{}_{}) = sram({});\n    v{} = t{}_{};\n",
                    d % 4,
                    base,
                    8 + base % 16,
                    d % 4,
                    d % 4,
                    base
                ));
            }
            Op::IfSwap(x, a, b) => {
                body.push_str(&format!(
                    "    if (v{} > v{}) {{ v{} = v{}; }} else {{ v{} = v{}; }}\n",
                    a % 4,
                    b % 4,
                    x % 4,
                    a % 4,
                    x % 4,
                    b % 4
                ));
            }
        }
    }
    body.push_str("    sram(48) <- (v0, v1, v2, v3);\n    0\n}\n");
    body
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(d, o, a, b)| Op::Arith(d, o, a, b)),
        (any::<u8>(), any::<u8>(), any::<u16>()).prop_map(|(a, b, s)| Op::Store2(a, b, s)),
        (any::<u8>(), any::<u16>()).prop_map(|(d, s)| Op::Load(d, s % 16)),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(x, a, b)| Op::IfSwap(x, a, b)),
    ]
}

proptest! {
    // Each case compiles a program through the full pipeline (including
    // the ILP solve), so keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    #[cfg_attr(debug_assertions, ignore = "compiles 48 programs through the ILP; run with --release")]
    fn compiled_code_matches_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..10),
        seed in any::<[u32; 4]>(),
    ) {
        let src = program_of(&ops);
        let mut cfg = CompileConfig::default();
        cfg.alloc.solver.time_limit = Some(std::time::Duration::from_secs(30));
        let out = Compiler::new(cfg)
            .compile_output(&src)
            .unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
        prop_assert!(ixp_machine::validate(&out.prog).is_empty());

        let mut oracle = Machine::with_sizes(512, 64, 64);
        oracle.sram[0..4].copy_from_slice(&seed);
        run(&out.cps, &mut oracle, 10_000_000).expect("oracle runs");

        let mut sim = SimMemory::with_sizes(512, 64, 64);
        sim.sram[0..4].copy_from_slice(&seed);
        let res = simulate_chip(
            &out.prog,
            &mut sim,
            &ChipConfig { engines: 1, contexts: 1, max_cycles: 100_000_000, ..Default::default() },
        )
        .expect("sim runs");
        prop_assert_eq!(res.stop, ixp_sim::StopReason::AllHalted);
        prop_assert_eq!(&oracle.sram, &sim.sram, "program:\n{}\ncode:\n{}", src, out.prog);
    }
}

// ---------- optimizer behaviour preservation on random programs ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn optimizer_preserves_oracle_semantics(
        ops in proptest::collection::vec(op_strategy(), 1..14),
        seed in any::<[u32; 4]>(),
    ) {
        let src = program_of(&ops);
        let program = nova_frontend::parse(&src).unwrap();
        let info = nova_frontend::check(&program).unwrap();
        let unopt = nova_cps::convert(&program, &info).unwrap();
        let mut opt = nova_cps::convert(&program, &info).unwrap();
        nova_cps::optimize(&mut opt, &Default::default());

        let mut m1 = Machine::with_sizes(512, 64, 64);
        m1.sram[0..4].copy_from_slice(&seed);
        run(&unopt, &mut m1, 10_000_000).unwrap();
        let mut m2 = Machine::with_sizes(512, 64, 64);
        m2.sram[0..4].copy_from_slice(&seed);
        run(&opt, &mut m2, 10_000_000).unwrap();
        prop_assert_eq!(&m1.sram, &m2.sram, "program:\n{}", src);
    }
}

// ---------- simulator determinism across thread counts ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn threaded_simulation_is_architecturally_deterministic(
        payload_words in 2u32..8,
        count in 1usize..6,
    ) {
        // A per-packet transformation is order-independent across packets:
        // any thread count must produce the same final SDRAM.
        let src = r#"fun main() {
            let (len, addr) = rx_packet();
            let (a, b) = sdram(addr);
            sdram(addr) <- (a ^ 0xAAAA, b + 1);
            tx_packet(addr, len);
            main()
        }"#;
        let out = Compiler::new(CompileConfig::default())
            .compile_output(src)
            .unwrap();
        let build = || {
            let mut mem = SimMemory::with_sizes(64, 4096, 64);
            for p in 0..count as u32 {
                let base = p * (payload_words + 2);
                for w in 0..payload_words {
                    mem.sdram[(base + w) as usize] = p * 1000 + w;
                }
                mem.rx_queue.push_back((payload_words * 4, base));
            }
            mem
        };
        let mut one = build();
        simulate_chip(&out.prog, &mut one, &ChipConfig { engines: 1, contexts: 1, max_cycles: 1 << 30, ..Default::default() }).unwrap();
        let mut four = build();
        simulate_chip(&out.prog, &mut four, &ChipConfig { engines: 1, contexts: 4, max_cycles: 1 << 30, ..Default::default() }).unwrap();
        prop_assert_eq!(&one.sdram, &four.sdram);
        prop_assert_eq!(one.tx_log.len(), four.tx_log.len());
    }
}
