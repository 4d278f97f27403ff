//! Statistics contracts: cycle-limit partial results and channel
//! queue-depth accounting, at one engine and at several, plus the
//! observability events the instrumented entry point emits for them.

use ixp_machine::{
    Addr, AluOp, AluSrc, Bank, Block, BlockId, Instr, MemSpace, PhysReg, Program, Terminator,
};
use ixp_sim::{simulate_chip, simulate_chip_with, ChipConfig, SimMemory, StopReason};
use nova_obs::{MemoryRecorder, Obs};

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

#[test]
fn cycle_limit_returns_partial_stats() {
    const LIMIT: u64 = 2_000;
    let mut mem = SimMemory::with_sizes(64, 16, 16);
    let res = simulate_chip(
        &spin_forever(),
        &mut mem,
        &ChipConfig {
            engines: 1,
            contexts: 2,
            max_cycles: LIMIT,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(res.stop, StopReason::CycleLimit);
    // The run is cut off, but everything accumulated so far must be
    // reported: issued instructions, channel traffic, engine telemetry.
    assert!(
        res.cycles >= LIMIT,
        "stopped at or after the budget: {}",
        res.cycles
    );
    assert!(res.instructions > 0, "partial instruction count survives");
    let sram = &res.channels[0];
    assert_eq!(sram.space, MemSpace::Sram);
    assert!(sram.reads > 0, "partial channel reads survive");
    assert!(sram.busy_cycles > 0, "partial channel busy time survives");
    assert_eq!(res.engines.len(), 1);
    assert!(res.engines[0].instructions > 0);
    assert_eq!(res.packets, 0, "the spin loop transmits nothing");

    // Doubling the budget must scale the partial work: the limit is a
    // real cut-off, not an early abort.
    let mut mem2 = SimMemory::with_sizes(64, 16, 16);
    let res2 = simulate_chip(
        &spin_forever(),
        &mut mem2,
        &ChipConfig {
            engines: 1,
            contexts: 2,
            max_cycles: 2 * LIMIT,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(res2.stop, StopReason::CycleLimit);
    assert!(res2.instructions > res.instructions);
}

#[test]
fn chip_cycle_limit_reports_every_engine() {
    const LIMIT: u64 = 2_000;
    let mut mem = SimMemory::with_sizes(64, 16, 16);
    let cfg = ChipConfig {
        engines: 3,
        contexts: 2,
        max_cycles: LIMIT,
        ..ChipConfig::default()
    };
    let res = simulate_chip(&spin_forever(), &mut mem, &cfg).unwrap();
    assert_eq!(res.stop, StopReason::CycleLimit);
    assert_eq!(res.engines.len(), 3);
    for e in &res.engines {
        assert!(
            e.instructions > 0,
            "engine {} issued before the cut-off",
            e.engine
        );
    }
    let total: u64 = res.engines.iter().map(|e| e.instructions).sum();
    assert_eq!(
        total, res.instructions,
        "per-engine counts sum to the total"
    );
}

#[test]
fn queue_depth_tracks_contending_requesters_per_epoch() {
    // Queue depth is an arbitration-epoch statistic: the chip simulator
    // batches the requests contending for a channel and records the
    // largest batch. Every context of every engine issues its SRAM read
    // in the same epoch here, so the recorded maximum must equal the
    // total requester count.
    let one_read = Program {
        blocks: vec![Block {
            instrs: vec![Instr::MemRead {
                space: MemSpace::Sram,
                addr: Addr::Imm(0),
                dst: vec![reg(Bank::L, 0)],
            }],
            term: Terminator::Halt,
        }],
        entry: BlockId(0),
    };
    let chip = |engines: usize, contexts: usize| {
        let mut mem = SimMemory::with_sizes(64, 16, 16);
        let cfg = ChipConfig {
            engines,
            contexts,
            ..ChipConfig::default()
        };
        simulate_chip(&one_read, &mut mem, &cfg).unwrap()
    };
    let solo = chip(1, 1);
    assert_eq!(
        solo.channels[0].max_queue_depth, 1,
        "one requester, depth 1"
    );
    assert_eq!(solo.channels[0].wait_cycles, 0, "nothing to queue behind");
    let four = chip(2, 2);
    assert_eq!(
        four.channels[0].max_queue_depth, 4,
        "2 engines x 2 contexts contend"
    );
    assert_eq!(four.channels[0].reads, 4);
    assert!(
        four.channels[0].wait_cycles > 0,
        "latecomers in the batch waited"
    );
    // Untouched channels must stay at depth 0.
    assert_eq!(four.channels[1].space, MemSpace::Sdram);
    assert_eq!(four.channels[1].max_queue_depth, 0);
    assert_eq!(four.channels[2].max_queue_depth, 0);

    // One engine is the same model, not a special case: depth counts the
    // requests batched in an arbitration epoch, whichever engine they
    // come from. Its four contexts issue one cycle apart, all inside the
    // first epoch, so the depth is the context count.
    let serial = chip(1, 4);
    assert_eq!(serial.channels[0].max_queue_depth, 4);
    assert!(serial.channels[0].wait_cycles > 0);
}

#[test]
fn instrumented_run_reports_partial_stats_as_events() {
    const LIMIT: u64 = 2_000;
    let rec = MemoryRecorder::new();
    let obs = Obs::new(rec.clone());
    let mut mem = SimMemory::with_sizes(64, 16, 16);
    let res = simulate_chip_with(
        &spin_forever(),
        &mut mem,
        &ChipConfig {
            engines: 1,
            contexts: 2,
            max_cycles: LIMIT,
            ..Default::default()
        },
        &obs,
    )
    .unwrap();
    assert_eq!(res.stop, StopReason::CycleLimit);
    let sum = rec.summary();
    assert!(
        sum.span("phase.sim").is_some(),
        "sim phase span closes on cycle-limit too"
    );
    assert_eq!(sum.counter_total("sim.cycles"), Some(res.cycles));
    assert_eq!(
        sum.counter_total("sim.instructions"),
        Some(res.instructions)
    );
    assert_eq!(
        sum.counter_total("sim.channel.sram.reads"),
        Some(res.channels[0].reads),
        "partial channel telemetry is mirrored into counters"
    );
    assert_eq!(
        sum.counter_total("sim.channel.sram.max_queue_depth"),
        Some(res.channels[0].max_queue_depth as u64)
    );
}

#[test]
fn chip_and_engine_events_match_result() {
    let rec = MemoryRecorder::new();
    let obs = Obs::new(rec.clone());
    let mut mem = SimMemory::with_sizes(64, 16, 16);
    let cfg = ChipConfig {
        engines: 2,
        contexts: 2,
        max_cycles: 2_000,
        ..ChipConfig::default()
    };
    let res = simulate_chip_with(&spin_forever(), &mut mem, &cfg, &obs).unwrap();
    let sum = rec.summary();
    assert_eq!(sum.counter_total("sim.cycles"), Some(res.cycles));
    for e in &res.engines {
        assert_eq!(
            sum.counter_total(&format!("sim.engine.{}.instructions", e.engine)),
            Some(e.instructions)
        );
    }
    // The windowed occupancy sampler only fires every 16 384 modeled
    // cycles; a 2 000-cycle run must rely on the end-of-run summary
    // sample instead, which is always present per channel.
    assert!(sum.sample("sim.channel.sram.occupancy").is_some());
}
