//! A crypto gateway: the paper's AES workload end-to-end. Compiles the
//! benchmark Nova program, cross-checks one packet against the FIPS-197
//! validated Rust reference, and sweeps payload sizes the way §11's
//! throughput experiment does — including the latency-hiding effect of
//! the micro-engine's hardware threads.
//!
//! Run with `cargo run --release --example crypto_gateway`.

use ixp_sim::{simulate_chip, ChipConfig, SimMemory};
use nova::{CompileConfig, Compiler};
use workloads::{aes, AES_NOVA, HEADER_WORDS};

fn main() {
    let t0 = std::time::Instant::now();
    let compiler = Compiler::new(CompileConfig::default());
    let out = compiler.compile_output(AES_NOVA).expect("compiles");
    println!(
        "AES compiled in {:?}: {} instructions, ILP {} vars / {} rows, {} moves, {} spills",
        t0.elapsed(),
        out.code_size,
        out.alloc_stats.model.variables,
        out.alloc_stats.model.constraints,
        out.alloc_stats.moves,
        out.alloc_stats.spills,
    );

    // Correctness spot check against the FIPS-validated reference.
    let key: [u8; 16] = *b"our 16-byte key!";
    let rk = aes::expand_key(&key);
    let mut mem = SimMemory::with_sizes(4096, 1 << 16, 1024);
    aes::load_sram(&key, |a, v| mem.sram[a as usize] = v);
    let plaintext = [0x00112233u32, 0x44556677, 0x8899aabb, 0xccddeeff];
    for (i, w) in plaintext.iter().enumerate() {
        mem.sdram[HEADER_WORDS as usize + i] = *w;
    }
    mem.sdram[0..2].copy_from_slice(&fast_path_header(56 + 16));
    mem.rx_queue.push_back((56 + 16, 0));
    simulate_chip(
        &out.prog,
        &mut mem,
        &ChipConfig {
            engines: 1,
            contexts: 1,
            ..Default::default()
        },
    )
    .expect("runs");
    let mut expected = plaintext;
    aes::encrypt_words(&mut expected, &rk);
    let got = &mem.sdram[HEADER_WORDS as usize..HEADER_WORDS as usize + 4];
    assert_eq!(got, &expected, "ciphertext matches the reference");
    println!(
        "ciphertext check: {:08x} {:08x} {:08x} {:08x}  ok",
        got[0], got[1], got[2], got[3]
    );

    // Throughput sweep: payload sizes x hardware contexts.
    println!("\npayload sweep at 233 MHz (paper, real hardware: 270 Mb/s @ 16 B):");
    println!("{:>10} {:>12} {:>12}", "payload", "1 thread", "4 threads");
    for payload in [16u32, 64, 256] {
        let mut row = format!("{payload:>9}B");
        for threads in [1usize, 4] {
            let mut mem = SimMemory::with_sizes(4096, 1 << 18, 1024);
            aes::load_sram(&key, |a, v| mem.sram[a as usize] = v);
            let words = (56 + payload) / 4;
            let stride = (words + 1) & !1;
            for p in 0..32u32 {
                let base = p * stride;
                for w in 0..words {
                    mem.sdram[(base + w) as usize] = p ^ (w << 8);
                }
                mem.sdram[base as usize..base as usize + 2]
                    .copy_from_slice(&fast_path_header(56 + payload));
                mem.rx_queue.push_back((56 + payload, base));
            }
            let res = simulate_chip(
                &out.prog,
                &mut mem,
                &ChipConfig {
                    engines: 1,
                    contexts: threads,
                    max_cycles: 1 << 32,
                    ..Default::default()
                },
            )
            .expect("runs");
            row.push_str(&format!(" {:>9.1} Mb/s", res.mbps));
        }
        println!("{row}");
    }
    println!("\nshape checks: throughput falls with payload (per-block cost),");
    println!("and extra contexts hide SRAM/SDRAM latency.");
}

/// First two header words of a packet the AES program encrypts: IPv4,
/// IHL 5, TTL 64, TCP. Anything else takes the program's slow path and is
/// forwarded as is.
fn fast_path_header(total_len: u32) -> [u32; 2] {
    [
        (4 << 28) | (5 << 24) | (total_len & 0xFFFF),
        (64 << 24) | (6 << 16),
    ]
}
