//! The compiler's end-to-end correctness gate: for every program, the
//! allocated machine code executed by the cycle simulator must produce
//! exactly the same architectural state (memories, CSRs, transmit log) as
//! the CPS reference interpreter running the same program.

use ixp_sim::{simulate_chip, ChipConfig, SimMemory};
use nova::{CompileConfig, Compiler};
use nova_cps::eval::{run, Machine};

/// Run both execution models and compare final state.
fn check_equivalence(src: &str, setup: impl Fn(&mut Machine)) {
    let out = Compiler::new(CompileConfig::default())
        .compile_output(src)
        .unwrap_or_else(|e| panic!("compile: {e}"));
    assert!(
        ixp_machine::validate(&out.prog).is_empty(),
        "validator must accept the output"
    );

    // Oracle: CPS interpreter.
    let mut oracle = Machine::with_sizes(2048, 8192, 1024);
    setup(&mut oracle);
    let rx: Vec<(u32, u32)> = oracle.rx_queue.iter().copied().collect();
    run(&out.cps, &mut oracle, 50_000_000).unwrap_or_else(|e| panic!("oracle: {e}"));

    // Machine code on the simulator (one engine, one context, so the
    // rx/processing order matches the oracle exactly).
    let mut sim = SimMemory::with_sizes(2048, 8192, 1024);
    {
        let mut m = Machine::with_sizes(2048, 8192, 1024);
        setup(&mut m);
        sim.sram = m.sram;
        sim.sdram = m.sdram;
        sim.scratch = m.scratch;
        sim.csr = m.csr;
        sim.rx_queue = rx.into_iter().collect();
    }
    let res = simulate_chip(
        &out.prog,
        &mut sim,
        &ChipConfig {
            engines: 1,
            contexts: 1,
            max_cycles: 500_000_000,
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| panic!("simulate: {e}"));
    assert_eq!(
        res.stop,
        ixp_sim::StopReason::AllHalted,
        "simulation must run to completion"
    );

    assert_eq!(oracle.sram, sim.sram, "sram state diverged\n{}", out.prog);
    assert_eq!(
        oracle.sdram, sim.sdram,
        "sdram state diverged\n{}",
        out.prog
    );
    // The allocator may use scratch above the spill base; compare only the
    // program-visible region below it.
    let base = nova_backend::alloc::SPILL_BASE as usize;
    let cut = |v: &Vec<u32>| -> Vec<u32> { v.iter().copied().take(base).collect() };
    assert_eq!(
        cut(&oracle.scratch),
        cut(&sim.scratch),
        "scratch state diverged"
    );
    assert_eq!(oracle.csr, sim.csr, "csr state diverged");
    let sim_tx: Vec<(u32, u32)> = sim.tx_log.iter().map(|(a, l, _)| (*a, *l)).collect();
    assert_eq!(oracle.tx_log, sim_tx, "tx log diverged");
}

#[test]
fn arithmetic_chain() {
    check_equivalence(
        r#"fun main() {
            let (a, b, c) = sram(0);
            let x = (a + b) ^ (c << 3);
            let y = (x | b) - (a >> 1);
            sram(10) <- (x, y, x & y);
            0
        }"#,
        |m| m.sram[0..3].copy_from_slice(&[0x1234, 0x00FF, 7]),
    );
}

#[test]
fn figure3_shape() {
    check_equivalence(
        r#"fun main() {
            let (a, b, c, d) = sram(100);
            let (e, f, g, h, i, j) = sram(200);
            let u = a + c;
            let v = g + h;
            sram(300) <- (b, e, v, u);
            sram(500) <- (f, j, d, i);
            0
        }"#,
        |m| {
            for k in 0..4 {
                m.sram[100 + k] = (k as u32 + 1) * 3;
            }
            for k in 0..6 {
                m.sram[200 + k] = (k as u32 + 1) * 7;
            }
        },
    );
}

#[test]
fn cloned_operands() {
    check_equivalence(
        r#"fun main() {
            let (u, v, x, w) = sram(0);
            sram(100) <- (u, v, x, w);
            sram(200) <- (w, x, u, v);
            sram(300) <- (x + u);
            0
        }"#,
        |m| m.sram[0..4].copy_from_slice(&[11, 22, 33, 44]),
    );
}

#[test]
fn control_flow_and_loops() {
    check_equivalence(
        r#"fun main() {
            let (n) = sram(0);
            let i = 0;
            let acc = 0;
            while (i < n) {
                if (i & 1 == 1) { acc = acc + i; } else { acc = acc + 1; }
                i = i + 1;
            }
            sram(1) <- (acc);
            0
        }"#,
        |m| m.sram[0] = 9,
    );
}

#[test]
fn layouts_and_packing() {
    check_equivalence(
        r#"
        layout hdr = { version: 4, priority: 4, flow: 24, len: 16, proto: 8, ttl: 8 };
        fun main() {
            let p: packed(hdr) = sram(0);
            let u = unpack[hdr](p);
            let q = pack[hdr] [
                version = u.version, priority = u.priority + 1,
                flow = u.flow, len = u.len, proto = u.proto, ttl = u.ttl - 1
            ];
            sram(8) <- q;
            sram(16) <- (u.version, u.flow, u.ttl);
            0
        }"#,
        |m| {
            m.sram[0] = (6 << 28) | (2 << 24) | 0xBEEF5;
            m.sram[1] = (1500 << 16) | (6 << 8) | 64;
        },
    );
}

#[test]
fn tail_recursive_packet_loop() {
    check_equivalence(
        r#"fun main() {
            let (len, addr) = rx_packet();
            let (w0, w1) = sdram(addr);
            sdram(addr) <- (w1 ^ 0xFFFF, w0 + 1);
            tx_packet(addr, len);
            main()
        }"#,
        |m| {
            for i in 0..4u32 {
                m.rx_queue.push_back((8, i * 2));
                m.sdram[(i * 2) as usize] = i * 100;
                m.sdram[(i * 2 + 1) as usize] = i * 100 + 1;
            }
        },
    );
}

#[test]
fn exceptions_and_nested_calls() {
    check_equivalence(
        r#"
        fun checked_div [num: word, den: word, div_zero: exn(word)] {
            if (den == 0) raise div_zero (num) else num
        }
        fun main() {
            let (a, b) = sram(0);
            let r1 = try { checked_div[num = a, den = b, div_zero = Z] }
                     handle Z (n) { n + 9999 };
            let r2 = try { checked_div[num = a, den = 0, div_zero = Z2] }
                     handle Z2 (n) { n + 1111 };
            sram(10) <- (r1, r2);
            0
        }"#,
        |m| m.sram[0..2].copy_from_slice(&[500, 3]),
    );
}

#[test]
fn hash_unit_and_scratch() {
    check_equivalence(
        r#"fun main() {
            let (k) = sram(0);
            let h = hash(k);
            scratch(16) <- (h, h & 0xFF);
            let (x, y) = scratch(16);
            sram(1) <- (x ^ y);
            0
        }"#,
        |m| m.sram[0] = 0xCAFE,
    );
}

#[test]
fn overlays_both_views() {
    check_equivalence(
        r#"
        layout h = { vp: overlay { whole: 8 | parts: { ver: 4, pri: 4 } }, rest: 24 };
        fun main() {
            let p: packed(h) = sram(0);
            let u = unpack[h](p);
            let w1 = pack[h] [ vp = [ whole = u.vp.whole ], rest = u.rest ];
            let w2 = pack[h] [ vp = [ parts = [ ver = u.vp.parts.ver, pri = u.vp.parts.pri ] ], rest = u.rest ];
            sram(4) <- (w1, w2, u.vp.whole, u.vp.parts.ver);
            0
        }"#,
        |m| m.sram[0] = 0x45AB_CDEF,
    );
}

#[test]
fn nested_functions_inline() {
    check_equivalence(
        r#"fun main() {
            let (base) = sram(0);
            fun scale(x) { x + base }
            fun twice(x) { scale(x) + scale(x + 1) }
            sram(1) <- (twice(10));
            0
        }"#,
        |m| m.sram[0] = 1000,
    );
}

#[test]
fn test_and_set_and_csrs() {
    check_equivalence(
        r#"fun main() {
            // Claim two lock words; the second claim of the same word
            // observes the bit already set.
            let old1 = bit_test_set(40, 1);
            let old2 = bit_test_set(40, 2);
            let old3 = bit_test_set(41, 4);
            csr_write(7, old2 | (old3 << 8));
            sram(0) <- (old1, old2, old3, csr_read(7));
            0
        }"#,
        |m| {
            m.sram[40] = 0;
            m.sram[41] = 0x30;
        },
    );
}

#[test]
fn deep_expression_trees() {
    check_equivalence(
        r#"fun main() {
            let (a, b, c, d, e, f, g, h) = sram(0);
            let x = ((a + b) ^ (c | d)) - ((e & f) + (g >> 2) + (h << 1));
            let y = (((x ^ a) + (x ^ b)) | ((x ^ c) & (x ^ d))) + (x >> 5);
            sram(16) <- (x, y);
            0
        }"#,
        |m| {
            for i in 0..8 {
                m.sram[i] = (i as u32 + 3) * 0x01010101;
            }
        },
    );
}

#[test]
fn shifted_layout_alignments() {
    // §3.2's alignment example: the same layout at offsets 0, 16 and 24
    // within three packed words, selected at run time.
    check_equivalence(
        r#"
        layout lyt = { x: 16, y: 32, z: 8 };
        fun main() {
            let (sel) = sram(0);
            let (p0, p1, p2) = sram(1);
            let v = {
                if (sel == 0) {
                    let u = unpack[lyt ## {40}]((p0, p1, p2));
                    u.x + u.z
                } else if (sel == 1) {
                    let u = unpack[{16} ## lyt ## {24}]((p0, p1, p2));
                    u.x + u.z
                } else {
                    let u = unpack[{24} ## lyt ## {16}]((p0, p1, p2));
                    u.x + u.z
                }
            };
            sram(10) <- (v);
            0
        }"#,
        |m| {
            m.sram[0] = 1; // middle alignment
            m.sram[1] = 0xAAAA_1234;
            m.sram[2] = 0x5678_9ABC;
            m.sram[3] = 0xDEF0_5555;
        },
    );
}
