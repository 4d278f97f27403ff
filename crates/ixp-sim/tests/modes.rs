//! Differential tests of the two scheduler modes: the event-driven fast
//! path must be bit-identical to the cycle-slice oracle — same cycles,
//! same telemetry, same channel stats, same memory image, same transmit
//! log — on every workload shape, for any traffic seed. The fast path is only allowed to change how much *host*
//! time a run costs.

use ixp_machine::{Addr, Bank, Block, BlockId, Instr, MemSpace, PhysReg, Program, Terminator};
use ixp_sim::{simulate_chip, ChipConfig, SimMemory, SimMode, SimResult, StopReason, TrafficSpec};
use proptest::prelude::*;

fn r(bank: Bank, n: u8) -> PhysReg {
    PhysReg::new(bank, n)
}

/// rx -> burst read -> header rewrite -> tx, forever.
fn rewriting_forwarder() -> Program<PhysReg> {
    Program {
        blocks: vec![Block {
            instrs: vec![
                Instr::RxPacket {
                    len_dst: r(Bank::A, 0),
                    addr_dst: r(Bank::A, 1),
                },
                Instr::MemRead {
                    space: MemSpace::Sdram,
                    addr: Addr::Reg(r(Bank::A, 1), 0),
                    dst: vec![r(Bank::Ld, 0), r(Bank::Ld, 1)],
                },
                Instr::Alu {
                    op: ixp_machine::AluOp::Xor,
                    dst: r(Bank::Sd, 0),
                    a: r(Bank::Ld, 0),
                    b: ixp_machine::AluSrc::Imm(0xFFFF),
                },
                Instr::Move {
                    dst: r(Bank::Sd, 1),
                    src: r(Bank::Ld, 1),
                },
                Instr::MemWrite {
                    space: MemSpace::Sdram,
                    addr: Addr::Reg(r(Bank::A, 1), 0),
                    src: vec![r(Bank::Sd, 0), r(Bank::Sd, 1)],
                },
                Instr::TxPacket {
                    addr: r(Bank::A, 1),
                    len: r(Bank::A, 0),
                },
            ],
            term: Terminator::Jump(BlockId(0)),
        }],
        entry: BlockId(0),
    }
}

/// A workload with SRAM contention and a shared-counter race on top of
/// packet forwarding: every packet also bumps a shared SRAM counter via
/// test-and-set-free read/write (races resolve in canonical order).
fn counting_forwarder() -> Program<PhysReg> {
    Program {
        blocks: vec![Block {
            instrs: vec![
                Instr::RxPacket {
                    len_dst: r(Bank::A, 0),
                    addr_dst: r(Bank::A, 1),
                },
                Instr::MemRead {
                    space: MemSpace::Sram,
                    addr: Addr::Imm(0),
                    dst: vec![r(Bank::L, 0)],
                },
                Instr::Alu {
                    op: ixp_machine::AluOp::Add,
                    dst: r(Bank::S, 0),
                    a: r(Bank::L, 0),
                    b: ixp_machine::AluSrc::Imm(1),
                },
                Instr::MemWrite {
                    space: MemSpace::Sram,
                    addr: Addr::Imm(0),
                    src: vec![r(Bank::S, 0)],
                },
                Instr::TxPacket {
                    addr: r(Bank::A, 1),
                    len: r(Bank::A, 0),
                },
            ],
            term: Terminator::Jump(BlockId(0)),
        }],
        entry: BlockId(0),
    }
}

/// Timed traffic memory from a TrafficSpec trace, all steered to one chip
/// with a 16-slot ring of 16-word buffers.
fn traffic_mem(packets: usize, seed: u64, capacity: usize) -> SimMemory {
    let trace = TrafficSpec {
        packets,
        flows: 24,
        length_classes: vec![64, 200, 576],
        seed,
        ..TrafficSpec::default()
    }
    .generate();
    let mut mem = SimMemory::with_sizes(64, 4096, 64);
    mem.rx_capacity = capacity;
    for (i, p) in trace.iter().enumerate() {
        mem.rx_arrivals
            .push_back((p.arrival, p.bytes, (i % 32 * 16) as u32));
    }
    mem
}

fn fingerprint(res: &SimResult, mem: &SimMemory) -> impl PartialEq + std::fmt::Debug {
    (
        (
            res.cycles,
            res.instructions,
            res.packets,
            res.bytes,
            res.mem_refs.clone(),
            res.stop,
            res.channels.clone(),
            res.engines.clone(),
        ),
        (
            mem.sram.clone(),
            mem.sdram.clone(),
            mem.scratch.clone(),
            mem.csr.clone(),
            mem.tx_log.clone(),
            mem.rx_grants.clone(),
            mem.rx_dropped,
        ),
    )
}

fn run(
    prog: &Program<PhysReg>,
    mem: SimMemory,
    mode: SimMode,
    max_cycles: u64,
) -> (impl PartialEq + std::fmt::Debug, StopReason) {
    run_on(3, prog, mem, mode, max_cycles)
}

fn run_on(
    engines: usize,
    prog: &Program<PhysReg>,
    mut mem: SimMemory,
    mode: SimMode,
    max_cycles: u64,
) -> (impl PartialEq + std::fmt::Debug, StopReason) {
    let cfg = ChipConfig {
        engines,
        contexts: 2,
        max_cycles,
        mode,
        ..ChipConfig::default()
    };
    let res = simulate_chip(prog, &mut mem, &cfg).expect("simulation");
    let stop = res.stop;
    (fingerprint(&res, &mem), stop)
}

#[test]
fn modes_agree_on_every_workload() {
    let progs = [rewriting_forwarder(), counting_forwarder()];
    for prog in &progs {
        let mem = || traffic_mem(200, 0xBEEF, 8);
        let (slow, stop) = run(prog, mem(), SimMode::CycleSlice, u64::MAX);
        let (fast, _) = run(prog, mem(), SimMode::FastPath, u64::MAX);
        assert_eq!(stop, StopReason::AllHalted);
        assert_eq!(slow, fast);
    }
}

#[test]
fn modes_agree_on_partial_cycle_limited_runs() {
    // Cut the run off mid-trace at an uneven budget (not a slice
    // multiple), in the middle of a skip window for the fast path.
    let prog = rewriting_forwarder();
    for budget in [1_001u64, 4_999, 20_000] {
        let (slow, stop) = run(&prog, traffic_mem(300, 7, 4), SimMode::CycleSlice, budget);
        let (fast, _) = run(&prog, traffic_mem(300, 7, 4), SimMode::FastPath, budget);
        assert_eq!(stop, StopReason::CycleLimit, "budget {budget} must cut off");
        assert_eq!(slow, fast, "budget {budget}");
    }
}

#[test]
fn modes_agree_on_the_legacy_preloaded_queue() {
    // No timed arrivals at all: the original rx_queue model.
    let prog = counting_forwarder();
    let mem = || {
        let mut m = SimMemory::with_sizes(64, 4096, 64);
        for i in 0..48u32 {
            m.rx_queue.push_back((64, (i % 16) * 16));
        }
        m
    };
    let (slow, _) = run(&prog, mem(), SimMode::CycleSlice, u64::MAX);
    let (fast, _) = run(&prog, mem(), SimMode::FastPath, u64::MAX);
    assert_eq!(slow, fast);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any traffic seed, any buffer bound, any engine count down to the single engine: the fast path and the
    /// oracle tell exactly the same story, drops and all.
    #[test]
    fn modes_agree_for_random_traffic(
        seed in any::<u64>(),
        packets in 50usize..250,
        capacity in 0usize..12,
        engines in 1usize..=3,
    ) {
        let prog = rewriting_forwarder();
        let (slow, _) = run_on(
            engines,
            &prog,
            traffic_mem(packets, seed, capacity),
            SimMode::CycleSlice,
            u64::MAX,
        );
        let (fast, _) = run_on(
            engines,
            &prog,
            traffic_mem(packets, seed, capacity),
            SimMode::FastPath,
            u64::MAX,
        );
        prop_assert_eq!(slow, fast);
    }
}
