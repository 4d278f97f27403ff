//! Differential tests across compiler configurations: every knob must
//! preserve semantics, including the unoptimized path (which exercises
//! instruction selection's safety nets directly).

use ixp_sim::{simulate_chip, ChipConfig, SimMemory};
use nova::{CompileConfig, Compiler};
use nova_cps::eval::{run, Machine};

const PROGRAM: &str = r#"
layout h = { ver: 4, pri: 4, label: 24 };
fun scale(x, k) { (x << 1) ^ k }
fun main() {
    let (w, k) = sram(0);
    let u = unpack[h]((w));
    let a = scale(u.label, k);
    let b = a + a;
    if (u.ver == 4) { sram(8) <- (b, a, u.pri); } else { sram(8) <- (a, b, u.ver); }
    let i = 0;
    let acc = 0;
    while (i < u.pri) { acc = acc + b; i = i + 1; }
    sram(16) <- (acc);
    0
}
"#;

fn run_config(cfg: &CompileConfig, seed: [u32; 2]) -> (Vec<u32>, Vec<u32>) {
    let out = Compiler::new(cfg.clone())
        .compile_output(PROGRAM)
        .unwrap_or_else(|e| panic!("{e}"));
    assert!(ixp_machine::validate(&out.prog).is_empty());
    let mut oracle = Machine::with_sizes(256, 64, 64);
    oracle.sram[0..2].copy_from_slice(&seed);
    run(&out.cps, &mut oracle, 10_000_000).unwrap();
    let mut sim = SimMemory::with_sizes(256, 64, 64);
    sim.sram[0..2].copy_from_slice(&seed);
    simulate_chip(
        &out.prog,
        &mut sim,
        &ChipConfig {
            engines: 1,
            contexts: 1,
            max_cycles: 1 << 30,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(oracle.sram, sim.sram, "oracle vs sim under {cfg:?}");
    (oracle.sram.clone(), sim.sram)
}

#[test]
fn all_configurations_agree() {
    let seed = [(4 << 28) | (5 << 24) | 0xBEEF, 0x1357];
    let baseline = run_config(&CompileConfig::default(), seed).0;

    let unopt = CompileConfig {
        skip_opt: true,
        ..Default::default()
    };
    assert_eq!(run_config(&unopt, seed).0, baseline, "skip_opt");

    let mut no_cuts = CompileConfig::default();
    no_cuts.alloc.redundant_cuts = false;
    assert_eq!(run_config(&no_cuts, seed).0, baseline, "no redundant cuts");

    let mut no_bias = CompileConfig::default();
    no_bias.alloc.bias = 1.0;
    assert_eq!(run_config(&no_bias, seed).0, baseline, "no bias");

    let mut full_spill = CompileConfig::default();
    full_spill.alloc.spill_auto = false;
    assert_eq!(
        run_config(&full_spill, seed).0,
        baseline,
        "full spill model"
    );

    let mut unpruned = CompileConfig::default();
    unpruned.alloc.prune = false;
    assert_eq!(
        run_config(&unpruned, seed).0,
        baseline,
        "unpruned candidates"
    );
}

#[test]
fn spill_disabled_without_auto_errors_under_pressure() {
    // 20 simultaneously-live values exceed nothing here (fits in A+B), so
    // allocation succeeds even with spilling hard-disabled; the point is
    // that the configuration is honored end to end.
    let mut cfg = CompileConfig::default();
    cfg.alloc.allow_spill = false;
    cfg.alloc.spill_auto = false;
    let out = Compiler::new(cfg).compile_output(PROGRAM).unwrap();
    assert_eq!(out.alloc_stats.spills, 0);
}

#[test]
fn validator_rejects_corrupted_output() {
    // Failure injection: break an allocated program in characteristic ways
    // and confirm the validator catches each.
    use ixp_machine::{AluSrc, Bank, Instr, PhysReg};
    let out = Compiler::new(CompileConfig::default())
        .compile_output(PROGRAM)
        .unwrap();
    assert!(ixp_machine::validate(&out.prog).is_empty());

    // (a) Swap an ALU destination into a load transfer bank.
    let mut broken = out.prog.clone();
    'outer: for b in &mut broken.blocks {
        for ins in &mut b.instrs {
            if let Instr::Alu { dst, .. } = ins {
                *dst = PhysReg::new(Bank::L, 0);
                break 'outer;
            }
        }
    }
    assert!(
        !ixp_machine::validate(&broken).is_empty(),
        "L-dest ALU must be rejected"
    );

    // (b) Force both ALU operands into the same bank.
    let mut broken = out.prog.clone();
    'outer2: for b in &mut broken.blocks {
        for ins in &mut b.instrs {
            if let Instr::Alu {
                a,
                b: AluSrc::Reg(rb),
                ..
            } = ins
            {
                *rb = PhysReg::new(a.bank, (a.num + 1) % 8);
                break 'outer2;
            }
        }
    }
    assert!(
        !ixp_machine::validate(&broken).is_empty(),
        "same-bank operands rejected"
    );

    // (c) Make an aggregate non-consecutive.
    let mut broken = out.prog.clone();
    let mut did = false;
    for b in &mut broken.blocks {
        for ins in &mut b.instrs {
            if let Instr::MemWrite { src, .. } = ins {
                if src.len() >= 2 {
                    let bank = src[0].bank;
                    src[1] = PhysReg::new(bank, (src[0].num + 3) % 8);
                    did = true;
                }
            }
        }
    }
    if did {
        assert!(
            !ixp_machine::validate(&broken).is_empty(),
            "gap in aggregate rejected"
        );
    }
}
