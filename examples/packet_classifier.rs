//! A packet classifier on the fast path — the kind of program the paper's
//! introduction motivates. Demonstrates the layout sublanguage (§3.2):
//! overlays for competing header views, `##` concatenation for shifted
//! alignments, exceptions for the slow path, and the hash unit for flow
//! lookup.
//!
//! Run with `cargo run --release --example packet_classifier`.

use ixp_sim::{simulate_chip, ChipConfig, SimMemory};
use nova::{CompileConfig, Compiler};

const CLASSIFIER: &str = r#"
const FLOW_TABLE = 0x200;   // SRAM: 64 flow counters

layout ipv6_address = { a1: 32, a2: 32, a3: 32, a4: 32 };
layout ipv6_header = {
    verpri: overlay { whole: 8 | parts: { version: 4, priority: 4 } },
    flow_label: 24,
    payload_length: 16, next_header: 8, hop_limit: 8,
    src: ipv6_address, dst: ipv6_address
};

fun main() {
    let (len, addr) = rx_packet();
    try {
        classify(addr, len, Slow)
    } handle Slow (a, l) {
        // Not fast-path material: punt to the host CPU (modelled as a
        // transmit on the slow queue) and keep going.
        tx_packet(a, l);
        main()
    }
}

fun classify [addr: word, len: word, slow: exn(word, word)] {
    let (w0, w1, w2, w3, w4, w5, w6, w7) = sdram(addr);
    let (w8, w9) = sdram(addr + 8);
    let u = unpack[ipv6_header]((w0, w1, w2, w3, w4, w5, w6, w7, w8, w9));
    // The overlay's cheap whole-byte view gates the fast path...
    if (u.verpri.whole != 0x60) raise slow (addr, len);
    // ...and expired packets leave it too.
    if (u.hop_limit == 0) raise slow (addr, len);
    // Count the flow through the hash unit.
    let h = hash(u.flow_label ^ u.src.a4);
    let slot = FLOW_TABLE + (h & 0x3F);
    let (count) = sram(slot);
    sram(slot) <- (count + 1);
    // Decrement the hop limit in place (only word 1 changes, but the
    // repack keeps the example honest about layout round-trips).
    let (p0, p1, p2, p3, p4, p5, p6, p7, p8, p9) = pack[ipv6_header] [
        verpri = [ whole = u.verpri.whole ],
        flow_label = u.flow_label,
        payload_length = u.payload_length, next_header = u.next_header,
        hop_limit = u.hop_limit - 1,
        src = [a1 = u.src.a1, a2 = u.src.a2, a3 = u.src.a3, a4 = u.src.a4],
        dst = [a1 = u.dst.a1, a2 = u.dst.a2, a3 = u.dst.a3, a4 = u.dst.a4]
    ];
    sdram(addr) <- (p0, p1);
    tx_packet(addr, len);
    main()
}
"#;

fn main() {
    let t0 = std::time::Instant::now();
    let out = Compiler::new(CompileConfig::default())
        .compile_output(CLASSIFIER)
        .expect("compiles");
    println!(
        "compiled {} machine instructions in {:?} ({} moves, {} spills)",
        out.code_size,
        t0.elapsed(),
        out.alloc_stats.moves,
        out.alloc_stats.spills
    );

    let mut mem = SimMemory::with_sizes(1024, 4096, 256);
    // Three packets: two fast-path IPv6, one that trips the slow path.
    let mk = |mem: &mut SimMemory, base: usize, ver: u32, hop: u32, flow: u32| {
        mem.sdram[base] = (ver << 24) | flow;
        mem.sdram[base + 1] = (64 << 16) | (6 << 8) | hop;
        for i in 2..10 {
            mem.sdram[base + i] = 0x2001_0000 + i as u32;
        }
        mem.rx_queue.push_back((40 + 16, base as u32));
    };
    mk(&mut mem, 0, 0x60, 64, 0x111);
    mk(&mut mem, 16, 0x45, 64, 0x222); // IPv4: slow path
    mk(&mut mem, 32, 0x60, 64, 0x111); // same flow as the first

    let res = simulate_chip(
        &out.prog,
        &mut mem,
        &ChipConfig {
            engines: 1,
            contexts: 2,
            ..Default::default()
        },
    )
    .expect("runs");
    println!("processed {} packets in {} cycles", res.packets, res.cycles);
    println!(
        "tx log: {:?}",
        mem.tx_log
            .iter()
            .map(|(a, l, _)| (*a, *l))
            .collect::<Vec<_>>()
    );

    // The two fast-path packets hashed to the same flow counter.
    let counted: Vec<(usize, u32)> = mem.sram[0x200..0x240]
        .iter()
        .enumerate()
        .filter(|(_, c)| **c > 0)
        .map(|(i, c)| (i, *c))
        .collect();
    println!("flow counters: {counted:?}");
    assert_eq!(counted.iter().map(|(_, c)| c).sum::<u32>(), 2);
    // The fast-path packets had their hop limit decremented.
    assert_eq!(mem.sdram[1] & 0xFF, 63);
    assert_eq!(mem.sdram[17] & 0xFF, 64, "slow path untouched");
    println!("ok!");
}
