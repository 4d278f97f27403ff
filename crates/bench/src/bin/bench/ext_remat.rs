//! `bench ext-remat` (E10) — §12's re-materialization extension. The paper: "We treat every
//! individual constant as a temporary and invent a virtual register bank
//! `C` \[of\] unlimited capacity... A move to `C` represents discarding a
//! constant (zero cost); a move from `C` represents the load operation...
//! This scheme can be further refined by paying attention to pairs
//! (c1, c2) of constants where calculating c2 from c1 is cheaper than
//! loading c2 from scratch. (We have an AMPL model that takes all this
//! into account, but we did not find the time to complete the rest of our
//! compiler infrastructure to take advantage of it.)"
//!
//! We reproduce exactly that state of the work: the ILP model exists and
//! is solved here — choosing which constants stay resident in the unused
//! general-purpose registers and which are re-derived from others — and
//! its projected cycle savings are reported, without rewiring code
//! generation.

use bench::{compile, table, Benchmark};
use ilp::{BranchConfig, Cmp, Problem};
use ixp_machine::{timing, Instr};
use nova::CompileConfig;
use std::collections::HashMap;

/// Can `c2` be derived from `c1` in one ALU instruction (shift or small
/// add)? Cheaper than a 2-cycle wide `immed`.
fn derivable(c1: u32, c2: u32) -> bool {
    if c1 == c2 {
        return false;
    }
    for k in 1..32 {
        if c1 << k == c2 || c1 >> k == c2 {
            return true;
        }
    }
    c2.wrapping_sub(c1) < 32 || c1.wrapping_sub(c2) < 32
}

pub fn run() {
    println!("E10: re-materialization with the constant bank C (§12)\n");
    let mut rows = Vec::new();
    for b in Benchmark::ALL {
        let out = compile(b, &CompileConfig::default());
        // Collect constant loads with a uniform frequency model (blocks in
        // packet loops all run once per packet here).
        let mut loads: HashMap<u32, u32> = HashMap::new();
        for blk in &out.prog.blocks {
            for ins in &blk.instrs {
                if let Instr::Imm { val, .. } = ins {
                    *loads.entry(*val).or_insert(0) += 1;
                }
            }
        }
        let consts: Vec<(u32, u32)> = {
            let mut v: Vec<(u32, u32)> = loads.into_iter().collect();
            v.sort();
            v
        };
        // Spare general-purpose registers after allocation.
        let used: std::collections::HashSet<ixp_machine::PhysReg> = out
            .prog
            .blocks
            .iter()
            .flat_map(|b| b.instrs.iter())
            .flat_map(|i| i.defs().into_iter().copied().collect::<Vec<_>>())
            .filter(|r| !r.bank.is_transfer())
            .collect();
        let spare = 32usize.saturating_sub(used.len());

        // The ILP: resident[c] = keep c in a register for the whole loop;
        // derived[(i,j)] = re-derive c_j from resident c_i (1 cycle).
        let mut p = Problem::minimize();
        let (g_needs, g_cover, g_budget) = (p.group("needs"), p.group("cover"), p.group("budget"));
        let n = consts.len();
        let resident: Vec<_> = (0..n).map(|i| p.add_binary(format!("res{i}"))).collect();
        let mut derive_vars: Vec<(usize, usize, ilp::Var)> = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i != j && derivable(consts[i].0, consts[j].0) {
                    let v = p.add_binary(format!("der{i}_{j}"));
                    // Deriving from c_i requires c_i resident.
                    p.row(g_needs)
                        .term(v, 1.0)
                        .term(resident[i], -1.0)
                        .finish(Cmp::Le, 0.0);
                    derive_vars.push((i, j, v));
                }
            }
        }
        // Each constant is loaded, resident, or derived. The objective is
        // the load cycles left after residency and derivation, less the
        // `baseline` every constant pays when it is simply loaded.
        let mut baseline = 0.0;
        for j in 0..n {
            let (val, uses) = consts[j];
            let load_cost = timing::issue_cycles(&Instr::Imm {
                dst: ixp_machine::PhysReg::new(ixp_machine::Bank::A, 0),
                val,
            }) as f64;
            let derives: Vec<ilp::Var> = derive_vars
                .iter()
                .filter(|(_, jj, _)| *jj == j)
                .map(|(_, _, v)| *v)
                .collect();
            // covered_j = resident_j + sum(derive into j) <= 1
            {
                let mut covered = p.row(g_cover);
                covered.term(resident[j], 1.0);
                for &d in &derives {
                    covered.term(d, 1.0);
                }
                covered.finish(Cmp::Le, 1.0);
            }
            // Cost: per use, full load if uncovered; 1 cycle if derived;
            // free if resident (one setup load amortized over the loop).
            let full = uses as f64 * load_cost;
            baseline += full;
            p.objective_term(resident[j], -full + 0.01);
            for &d in &derives {
                p.objective_term(d, -(full - uses as f64) + 0.005);
            }
        }
        // Register budget.
        {
            let mut budget = p.row(g_budget);
            for &r in &resident {
                budget.term(r, 1.0);
            }
            budget.finish(Cmp::Le, spare as f64);
        }
        let sol = ilp::solve_milp(&p, &BranchConfig::default()).expect("remat model solves");
        let after = baseline + sol.objective;
        let n_res = resident
            .iter()
            .filter(|v| sol.values[v.index()] > 0.5)
            .count();
        let n_der = derive_vars
            .iter()
            .filter(|(_, _, v)| sol.values[v.index()] > 0.5)
            .count();
        rows.push(vec![
            b.name().to_string(),
            n.to_string(),
            spare.to_string(),
            n_res.to_string(),
            n_der.to_string(),
            format!("{baseline:.0}"),
            format!("{after:.0}"),
            format!("{:.0}%", 100.0 * (baseline - after) / baseline.max(1.0)),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "program",
                "consts",
                "spare regs",
                "resident",
                "derived",
                "load cyc",
                "after",
                "saved"
            ],
            &rows
        )
    );
    println!("\nAs in the paper, the model is solved but not yet wired into code");
    println!("generation; the savings are projected per packet-loop iteration.");
}
