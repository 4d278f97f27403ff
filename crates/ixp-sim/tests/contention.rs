//! Timing-model behaviour: channel contention and latency hiding.

use ixp_machine::timing::{burst_extra, read_latency};
use ixp_machine::{Addr, Bank, Block, BlockId, Instr, MemSpace, PhysReg, Program, Terminator};
use ixp_sim::{simulate_chip, ChipConfig, SimMemory};

fn reg(b: Bank, n: u8) -> PhysReg {
    PhysReg::new(b, n)
}

/// Cycles `prog` takes on a single micro-engine with `contexts` contexts.
fn one_engine_cycles(prog: &Program<PhysReg>, contexts: usize) -> u64 {
    let mut m = SimMemory::with_sizes(64, 64, 64);
    let cfg = ChipConfig {
        engines: 1,
        contexts,
        max_cycles: 1 << 20,
        ..Default::default()
    };
    simulate_chip(prog, &mut m, &cfg).unwrap().cycles
}

/// N back-to-back SRAM reads in one thread.
fn serial_reads(n: usize) -> Program<PhysReg> {
    let instrs = (0..n)
        .map(|i| Instr::MemRead {
            space: MemSpace::Sram,
            addr: Addr::Imm(i as u32),
            dst: vec![reg(Bank::L, 0)],
        })
        .collect();
    Program {
        blocks: vec![Block {
            instrs,
            term: Terminator::Halt,
        }],
        entry: BlockId(0),
    }
}

#[test]
fn serial_reads_pay_full_latency() {
    let one = one_engine_cycles(&serial_reads(1), 1);
    let ten = one_engine_cycles(&serial_reads(10), 1);
    // A single thread cannot overlap its own reads: ~10x the single-read
    // time.
    assert!(ten > one * 8, "one={one} ten={ten}");
}

#[test]
fn threads_overlap_but_channel_serializes_bursts() {
    // 4 threads each read 8 words: the channel's per-word occupancy
    // bounds the speedup below perfect overlap.
    let prog = Program {
        blocks: vec![Block {
            instrs: vec![Instr::MemRead {
                space: MemSpace::Sram,
                addr: Addr::Imm(0),
                dst: (0..8).map(|i| reg(Bank::L, i)).collect(),
            }],
            term: Terminator::Halt,
        }],
        entry: BlockId(0),
    };
    let t1 = one_engine_cycles(&prog, 1);
    let t4 = one_engine_cycles(&prog, 4);
    assert!(t4 < t1 * 4, "overlap must help: t1={t1} t4={t4}");
    assert!(t4 > t1, "but four bursts cannot be free: t1={t1} t4={t4}");
}

#[test]
fn six_engines_serialize_on_one_sdram_channel() {
    // Six engines, one context each, all issuing an 8-word SDRAM burst in
    // the same cycle: the shared channel must grant them one at a time,
    // each occupying the bus for its burst. With every engine running the
    // identical program the issue cycle is identical too, so the expected
    // channel telemetry is exact.
    const WORDS: usize = 8;
    const ENGINES: usize = 6;
    let prog = Program {
        blocks: vec![Block {
            instrs: vec![Instr::MemRead {
                space: MemSpace::Sdram,
                addr: Addr::Imm(0),
                dst: (0..WORDS as u8).map(|i| reg(Bank::Ld, i)).collect(),
            }],
            term: Terminator::Halt,
        }],
        entry: BlockId(0),
    };
    let run = |engines: usize| {
        let mut m = SimMemory::with_sizes(16, 64, 16);
        let cfg = ChipConfig {
            engines,
            contexts: 1,
            ..ChipConfig::default()
        };
        simulate_chip(&prog, &mut m, &cfg).unwrap()
    };
    let one = run(1);
    let six = run(ENGINES);

    // Bus occupancy per burst read: the burst transfer plus the grant slot.
    let per_burst = burst_extra(MemSpace::Sdram) * WORDS as u64 + 1;
    let sdram = &six.channels[1];
    assert_eq!(sdram.space, MemSpace::Sdram);
    assert_eq!(sdram.reads, ENGINES as u64);
    assert_eq!(
        sdram.busy_cycles,
        ENGINES as u64 * per_burst,
        "bursts serialize on the bus"
    );
    // Request k (0-based, canonical engine order) waits k full bursts.
    let expected_wait: u64 = (0..ENGINES as u64).map(|k| k * per_burst).sum();
    assert_eq!(sdram.wait_cycles, expected_wait, "FIFO queueing delay");
    assert_eq!(
        sdram.max_queue_depth, ENGINES,
        "all six contended in one epoch"
    );

    // The last engine cannot finish before five whole bursts of queueing
    // plus its own read; a single engine pays only the unloaded latency.
    let unloaded = read_latency(MemSpace::Sdram) + burst_extra(MemSpace::Sdram) * WORDS as u64;
    assert!(
        six.cycles >= 5 * per_burst + unloaded,
        "six-engine run: {}",
        six.cycles
    );
    assert!(
        one.cycles < six.cycles,
        "contention must cost: {} vs {}",
        one.cycles,
        six.cycles
    );
}

#[test]
fn scratch_beats_sram_beats_sdram() {
    let mk = |space: MemSpace, n: usize| Program {
        blocks: vec![Block {
            instrs: (0..n)
                .map(|i| Instr::MemRead {
                    space,
                    addr: Addr::Imm(i as u32 * 2),
                    dst: if space == MemSpace::Sdram {
                        vec![reg(Bank::Ld, 0), reg(Bank::Ld, 1)]
                    } else {
                        vec![reg(Bank::L, 0)]
                    },
                })
                .collect(),
            term: Terminator::Halt,
        }],
        entry: BlockId(0),
    };
    let run = |p: &Program<PhysReg>| one_engine_cycles(p, 1);
    let scratch = run(&mk(MemSpace::Scratch, 8));
    let sram = run(&mk(MemSpace::Sram, 8));
    let sdram = run(&mk(MemSpace::Sdram, 8));
    assert!(scratch < sram, "scratch {scratch} vs sram {sram}");
    assert!(sram < sdram, "sram {sram} vs sdram {sdram}");
}
