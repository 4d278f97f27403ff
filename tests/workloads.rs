//! Application-level correctness: the three benchmark programs compiled by
//! our compiler must produce, on both execution models, exactly the packet
//! transformations computed by the trusted Rust reference implementations.

use ixp_sim::{simulate_chip, ChipConfig, SimMemory};
use nova::{CompileConfig, CompileOutput, Compiler};
use nova_cps::eval::{run, Machine};
use workloads::{aes, kasumi, nat, AES_NOVA, KASUMI_NOVA, NAT_NOVA};

const HDR_WORDS: usize = 14;

fn compile(name: &str, src: &str) -> CompileOutput {
    let t0 = std::time::Instant::now();
    let out = Compiler::new(CompileConfig::default())
        .compile_output(src)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    eprintln!(
        "{name}: compiled in {:?} (model: {} vars, {} rows; solve: {:?}, {} nodes; moves {}, spills {}; {} instrs)",
        t0.elapsed(),
        out.alloc_stats.model.variables,
        out.alloc_stats.model.constraints,
        out.alloc_stats.solve.total_time,
        out.alloc_stats.solve.nodes,
        out.alloc_stats.moves,
        out.alloc_stats.spills,
        out.code_size,
    );
    out
}

/// Build a packet buffer: 14 header words + payload words.
fn packet(payload: &[u32]) -> Vec<u32> {
    let mut words = vec![0u32; HDR_WORDS];
    // Valid fast-path header: IPv4, TCP, TTL 64.
    let total = (HDR_WORDS + payload.len()) as u32 * 4;
    words[0] = (4 << 28) | (5 << 24) | (total & 0xFFFF);
    words[1] = (64 << 24) | (6 << 16) | 0x1234;
    for (i, w) in words.iter_mut().enumerate().skip(2) {
        *w = 0xE000_0000 | i as u32; // synthetic header filler
    }
    words.extend_from_slice(payload);
    words
}

/// Run a compiled program on the simulator over the given SDRAM packets.
fn run_sim(
    out: &CompileOutput,
    sram: &[(u32, u32)],
    scratch: &[(u32, u32)],
    packets: &[Vec<u32>],
) -> SimMemory {
    let mut mem = SimMemory::with_sizes(4096, 1 << 16, 2048);
    for &(a, v) in sram {
        mem.sram[a as usize] = v;
    }
    for &(a, v) in scratch {
        mem.scratch[a as usize] = v;
    }
    let mut base = 0u32;
    for p in packets {
        for (i, w) in p.iter().enumerate() {
            mem.sdram[(base as usize) + i] = *w;
        }
        mem.rx_queue.push_back(((p.len() * 4) as u32, base));
        base += ((p.len() as u32) + 2) & !1;
    }
    let res = simulate_chip(
        &out.prog,
        &mut mem,
        &ChipConfig {
            engines: 1,
            contexts: 1,
            max_cycles: 2_000_000_000,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(res.stop, ixp_sim::StopReason::AllHalted);
    assert_eq!(
        res.packets as usize,
        packets.len(),
        "all packets transmitted"
    );
    mem
}

/// Run the CPS oracle over the same state and return its memory.
fn run_oracle(
    out: &CompileOutput,
    sram: &[(u32, u32)],
    scratch: &[(u32, u32)],
    packets: &[Vec<u32>],
) -> Machine {
    let mut m = Machine::with_sizes(4096, 1 << 16, 2048);
    for &(a, v) in sram {
        m.sram[a as usize] = v;
    }
    for &(a, v) in scratch {
        m.scratch[a as usize] = v;
    }
    let mut base = 0u32;
    for p in packets {
        for (i, w) in p.iter().enumerate() {
            m.sdram[(base as usize) + i] = *w;
        }
        m.rx_queue.push_back(((p.len() * 4) as u32, base));
        base += ((p.len() as u32) + 2) & !1;
    }
    run(&out.cps, &mut m, 2_000_000_000).unwrap();
    m
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "benchmark-sized ILP solves are slow unoptimized; run with --release"
)]
fn aes_matches_reference_everywhere() {
    let out = compile("aes", AES_NOVA);
    assert_eq!(out.alloc_stats.spills, 0, "paper: zero spills");

    let key: [u8; 16] = core::array::from_fn(|i| (i as u8).wrapping_mul(7).wrapping_add(1));
    let mut sram = Vec::new();
    aes::load_sram(&key, |a, v| sram.push((a, v)));

    // Two packets: one 16-byte and one 48-byte payload.
    let p1 = packet(&[0x00112233, 0x44556677, 0x8899aabb, 0xccddeeff]);
    let p2 = packet(
        &(0..12)
            .map(|i| 0x0101_0101u32.wrapping_mul(i + 1))
            .collect::<Vec<_>>(),
    );
    let packets = vec![p1.clone(), p2.clone()];

    let sim = run_sim(&out, &sram, &[], &packets);
    let oracle = run_oracle(&out, &sram, &[], &packets);
    assert_eq!(sim.sdram, oracle.sdram, "simulator and CPS oracle agree");

    // Reference encryption of each payload.
    let rk = aes::expand_key(&key);
    let mut ref1 = p1[HDR_WORDS..].to_vec();
    aes::encrypt_words(&mut ref1, &rk);
    assert_eq!(
        &sim.sdram[HDR_WORDS..HDR_WORDS + 4],
        &ref1[..],
        "packet 1 ciphertext"
    );
    let base2 = (p1.len() + 2) & !1;
    let mut ref2 = p2[HDR_WORDS..].to_vec();
    aes::encrypt_words(&mut ref2, &rk);
    assert_eq!(
        &sim.sdram[base2 + HDR_WORDS..base2 + HDR_WORDS + 12],
        &ref2[..],
        "packet 2 ciphertext"
    );
    // The checksum field (header word 13) was maintained.
    let csum = {
        let mut s: u32 = ref1.iter().map(|w| (w >> 16) + (w & 0xFFFF)).sum();
        s = (s & 0xFFFF) + (s >> 16);
        (s & 0xFFFF) + (s >> 16)
    };
    assert_eq!(sim.sdram[13], csum, "TCP-style checksum maintained");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "benchmark-sized ILP solves are slow unoptimized; run with --release"
)]
fn kasumi_matches_reference_everywhere() {
    let out = compile("kasumi", KASUMI_NOVA);
    assert_eq!(out.alloc_stats.spills, 0, "paper: zero spills");

    let key: [u8; 16] = core::array::from_fn(|i| (i as u8).wrapping_mul(31).wrapping_add(5));
    let mut sram = Vec::new();
    let mut scratch = Vec::new();
    kasumi::load_memory(&key, |a, v| sram.push((a, v)), |a, v| scratch.push((a, v)));

    let p1 = packet(&[0x01234567, 0x89ABCDEF]);
    let p2 = packet(&(0..8).map(|i| 0xDEAD_0000u32 + i).collect::<Vec<_>>());
    let packets = vec![p1.clone(), p2.clone()];

    let sim = run_sim(&out, &sram, &scratch, &packets);
    let oracle = run_oracle(&out, &sram, &scratch, &packets);
    assert_eq!(sim.sdram, oracle.sdram);

    let sk = kasumi::key_schedule(&key);
    let (s7, s9) = (kasumi::s7_table(), kasumi::s9_table());
    let mut ref1 = p1[HDR_WORDS..].to_vec();
    kasumi::encrypt_words(&mut ref1, &sk, &s7, &s9);
    assert_eq!(
        &sim.sdram[HDR_WORDS..HDR_WORDS + 2],
        &ref1[..],
        "packet 1 ciphertext"
    );
    let base2 = (p1.len() + 2) & !1;
    let mut ref2 = p2[HDR_WORDS..].to_vec();
    kasumi::encrypt_words(&mut ref2, &sk, &s7, &s9);
    assert_eq!(
        &sim.sdram[base2 + HDR_WORDS..base2 + HDR_WORDS + 8],
        &ref2[..],
        "packet 2 ciphertext"
    );
}

#[test]
fn nat_matches_reference_everywhere() {
    let out = compile("nat", NAT_NOVA);
    assert_eq!(out.alloc_stats.spills, 0, "paper: zero spills");

    // An IPv6 TCP packet (translated) and a non-TCP one (slow path).
    let v6 = nat::Ipv6Header {
        version: 6,
        traffic_class: 0x2E,
        flow: 0xBEEF5,
        payload_len: 24,
        next_header: 6,
        hop_limit: 63,
        src: [0x2001_0DB8, 0, 0, 0xC0A8_0101],
        dst: [0x2001_0DB8, 0, 1, 0x0A00_0002],
    };
    let mut p1: Vec<u32> = v6.pack().to_vec();
    p1.extend((0..6).map(|i| 0xFACE_0000u32 + i)); // 24-byte payload
    let mut v6b = v6;
    v6b.next_header = 17; // UDP: slow path
    let mut p2: Vec<u32> = v6b.pack().to_vec();
    p2.extend((0..6).map(|i| 0xBEAD_0000u32 + i));
    let packets = vec![p1.clone(), p2.clone()];

    let sim = run_sim(&out, &[], &[], &packets);
    let oracle = run_oracle(&out, &[], &[], &packets);
    assert_eq!(sim.sdram, oracle.sdram);

    // Reference translation of packet 1 (the MAP table is all zeros, so
    // the mapped address equals the low source word).
    let mut refbuf = p1.clone();
    let (start, newlen) = nat::translate_packet(&mut refbuf, (p1.len() * 4) as u32);
    assert_eq!(&sim.sdram[5..10], &refbuf[5..10], "IPv4 header");
    // Transmit log: packet 1 translated (start advanced), packet 2 as-is.
    let tx: Vec<(u32, u32)> = sim.tx_log.iter().map(|(a, l, _)| (*a, *l)).collect();
    let base2 = ((p1.len() + 2) & !1) as u32;
    assert_eq!(
        tx,
        vec![(start as u32, newlen), (base2, (p2.len() * 4) as u32)]
    );
}
