//! Channel fault injection: perturbed memory channels slow a run down
//! deterministically, never wedge it — the cycle watchdog still fires
//! and partial statistics still come back.

use ixp_machine::{
    Addr, AluOp, AluSrc, Bank, Block, BlockId, ChannelFaults, Instr, MemSpace, PhysReg, Program,
    Terminator,
};
use ixp_sim::{simulate_chip, ChipConfig, SimMemory, StopReason};

fn reg(b: Bank, n: u8) -> PhysReg {
    PhysReg::new(b, n)
}

/// A program that never halts: an ALU op and an SRAM read, forever.
fn spin_forever() -> Program<PhysReg> {
    Program {
        blocks: vec![Block {
            instrs: vec![
                Instr::Alu {
                    op: AluOp::Add,
                    dst: reg(Bank::A, 0),
                    a: reg(Bank::A, 0),
                    b: AluSrc::Imm(1),
                },
                Instr::MemRead {
                    space: MemSpace::Sram,
                    addr: Addr::Imm(0),
                    dst: vec![reg(Bank::L, 0)],
                },
            ],
            term: Terminator::Jump(BlockId(0)),
        }],
        entry: BlockId(0),
    }
}

/// A short program: read two words, add, store, halt. The words come in
/// two separate reads so that [`FAULTS`]' every-second-reference stall
/// lands on a read: writes are posted, so only a faulted read holds the
/// context up.
fn read_add_store() -> Program<PhysReg> {
    Program {
        blocks: vec![Block {
            instrs: vec![
                Instr::MemRead {
                    space: MemSpace::Sram,
                    addr: Addr::Imm(0),
                    dst: vec![reg(Bank::L, 0)],
                },
                Instr::MemRead {
                    space: MemSpace::Sram,
                    addr: Addr::Imm(1),
                    dst: vec![reg(Bank::L, 1)],
                },
                Instr::Move {
                    dst: reg(Bank::A, 0),
                    src: reg(Bank::L, 0),
                },
                Instr::Move {
                    dst: reg(Bank::B, 0),
                    src: reg(Bank::L, 1),
                },
                Instr::Alu {
                    op: AluOp::Add,
                    dst: reg(Bank::A, 1),
                    a: reg(Bank::A, 0),
                    b: AluSrc::Reg(reg(Bank::B, 0)),
                },
                Instr::Move {
                    dst: reg(Bank::S, 0),
                    src: reg(Bank::A, 1),
                },
                Instr::MemWrite {
                    space: MemSpace::Sram,
                    addr: Addr::Imm(8),
                    src: vec![reg(Bank::S, 0)],
                },
            ],
            term: Terminator::Halt,
        }],
        entry: BlockId(0),
    }
}

const FAULTS: ChannelFaults = ChannelFaults {
    stall_every: 2,
    stall_cycles: 64,
    drop_every: 3,
};

#[test]
fn faults_slow_the_run_but_preserve_results() {
    let run = |faults: ChannelFaults| {
        let mut mem = SimMemory::with_sizes(64, 16, 16);
        mem.sram[0] = 30;
        mem.sram[1] = 12;
        let res = simulate_chip(
            &read_add_store(),
            &mut mem,
            &ChipConfig {
                engines: 1,
                contexts: 1,
                max_cycles: 1 << 20,
                faults,
                ..ChipConfig::default()
            },
        )
        .unwrap();
        assert_eq!(res.stop, StopReason::AllHalted);
        assert_eq!(mem.sram[8], 42, "faults must not corrupt data");
        res.cycles
    };
    let clean = run(ChannelFaults::default());
    let faulty = run(FAULTS);
    assert!(
        faulty > clean,
        "injected stalls/retries must cost cycles ({clean} vs {faulty})"
    );
    // Deterministic: the same knobs reproduce the same slowdown.
    assert_eq!(faulty, run(FAULTS));
}

#[test]
fn watchdog_still_fires_under_faults_with_partial_stats() {
    const LIMIT: u64 = 5_000;
    let mut mem = SimMemory::with_sizes(64, 16, 16);
    let res = simulate_chip(
        &spin_forever(),
        &mut mem,
        &ChipConfig {
            engines: 1,
            contexts: 2,
            max_cycles: LIMIT,
            faults: FAULTS,
            ..ChipConfig::default()
        },
    )
    .unwrap();
    assert_eq!(res.stop, StopReason::CycleLimit);
    assert!(res.instructions > 0, "partial stats survive the cutoff");
    let sram = &res.channels[ixp_machine::Channel::index(MemSpace::Sram)];
    assert!(sram.reads > 0);
    assert!(sram.stalled > 0, "stalls were injected and counted");
    assert!(sram.dropped > 0, "drops were injected and counted");
    assert!(
        sram.wait_cycles > 0,
        "injected stalls show up as queueing delay"
    );
}

#[test]
fn chip_simulator_honors_faults_and_cycle_limit() {
    const LIMIT: u64 = 5_000;
    let mut mem = SimMemory::with_sizes(64, 16, 16);
    let res = simulate_chip(
        &spin_forever(),
        &mut mem,
        &ChipConfig {
            engines: 2,
            contexts: 2,
            max_cycles: LIMIT,
            faults: FAULTS,
            ..ChipConfig::default()
        },
    )
    .unwrap();
    assert_eq!(res.stop, StopReason::CycleLimit);
    assert!(res.instructions > 0);
    let sram = &res.channels[ixp_machine::Channel::index(MemSpace::Sram)];
    assert!(sram.stalled > 0);
    assert!(sram.dropped > 0);
}
