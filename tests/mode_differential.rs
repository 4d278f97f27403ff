//! Scheduler-mode differential testing on real compiled workloads: for
//! every benchmark, the event-driven fast path must reproduce the
//! cycle-slice oracle bit for bit — result, telemetry, and the full
//! memory image. Paired with the synthetic and property-based coverage in `crates/ixp-sim/tests/modes.rs`, this
//! is what licenses running every benchmark and the traffic harness in
//! fast-path mode by default.

use bench::{compile, setup_memory, Benchmark};
use ixp_sim::{simulate_chip, ChipConfig, SimMode};
use nova::CompileConfig;

const PACKETS: usize = 48;

fn check(b: Benchmark, payload: u32) {
    let out = compile(b, &CompileConfig::default());
    let mut fingerprints = Vec::new();
    for mode in [SimMode::CycleSlice, SimMode::FastPath] {
        let mut mem = setup_memory(b, PACKETS, payload);
        let chip = ChipConfig {
            engines: 6,
            contexts: 4,
            mode,
            ..ChipConfig::default()
        };
        let res = simulate_chip(&out.prog, &mut mem, &chip)
            .unwrap_or_else(|e| panic!("{}/{mode:?}: {e}", b.name()));
        assert_eq!(res.packets, PACKETS as u64, "{}: all packets", b.name());
        fingerprints.push((
            (
                res.cycles,
                res.instructions,
                res.packets,
                res.bytes,
                res.mem_refs,
                res.stop,
                res.channels,
                res.engines,
            ),
            (mem.sram, mem.sdram, mem.scratch, mem.csr, mem.tx_log),
        ));
    }
    assert_eq!(
        fingerprints[0],
        fingerprints[1],
        "{}: fast path diverged from the cycle-slice oracle",
        b.name()
    );
}

#[test]
fn nat_fast_path_matches_oracle() {
    check(Benchmark::Nat, 64);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "benchmark-sized ILP solves are slow unoptimized; run with --release"
)]
fn aes_fast_path_matches_oracle() {
    check(Benchmark::Aes, 16);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "benchmark-sized ILP solves are slow unoptimized; run with --release"
)]
fn kasumi_fast_path_matches_oracle() {
    check(Benchmark::Kasumi, 16);
}
