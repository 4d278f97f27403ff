//! The paper's tables: Figures 5–7 and the §7–§10 ablations, one
//! subcommand each. Absolute sizes and times differ from the paper by
//! design: CPLEX on the authors' 800 MHz PIII is replaced by this
//! repository's own simplex/branch-and-bound, and the move-point
//! compression plus `Before`/`After` aliasing shrink the generated
//! programs (DESIGN.md §5).

use bench::{compile, table, Benchmark};
use ilp::MilpError;
use nova::CompileConfig;
use nova_backend::alloc::{build_facts, build_model, prune, unpruned};
use nova_backend::AllocError;

/// E1 — regenerate Figure 5: static benchmark program statistics.
///
/// "Line counts are those reported by wc and include whitespace and
/// comments." Our programs are smaller than the paper's (the compiler,
/// not the applications, is the artifact under study); the paper's numbers
/// are printed alongside for comparison.
pub fn fig5() {
    println!("Figure 5: static benchmark program statistics\n");
    let mut rows = Vec::new();
    for b in Benchmark::ALL {
        let src = b.source();
        let prog = nova_frontend::parse(src).expect("benchmarks parse");
        let s = prog.static_stats();
        let lines = src.lines().count();
        let instrs = compile(b, &CompileConfig::default()).code_size;
        rows.push(vec![
            b.name().to_string(),
            lines.to_string(),
            instrs.to_string(),
            s.layouts.to_string(),
            s.packs.to_string(),
            s.unpacks.to_string(),
            s.raises.to_string(),
            s.handles.to_string(),
            s.functions.to_string(),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "program", "lines", "instrs", "layouts", "pack", "unpack", "raise", "handle",
                "funs"
            ],
            &rows
        )
    );
    println!("paper (Figure 5):");
    println!("  AES:    541 lines, 588 instrs, 7 layouts, 8 pack, 5 unpack, 3 raise, 1 handle");
    println!("  Kasumi: 587 lines, 538 instrs, 7 layouts, 7 pack, 4 unpack, 2 raise, 2 handle");
    println!("  NAT:    839 lines, 740 instrs (pre-layout Nova: no layout/pack/unpack counts)");
}

/// E2 — regenerate Figure 6: "AMPL statistics", the number of variables
/// participating in aggregate coloring (`DefLi`/`DefLDj` members on the
/// read side, `UseSi`/`UseSDj` members on the write side).
pub fn fig6() {
    println!("Figure 6: aggregate-coloring participation\n");
    let mut rows = Vec::new();
    for b in Benchmark::ALL {
        let out = compile(b, &CompileConfig::default());
        let f = out.alloc_stats.fig6;
        rows.push(vec![
            b.name().to_string(),
            f.def_l.to_string(),
            f.def_ld.to_string(),
            f.def_total().to_string(),
            f.use_s.to_string(),
            f.use_sd.to_string(),
            f.use_total().to_string(),
        ]);
    }
    println!(
        "{}",
        table(
            &["program", "DefLi", "DefLDj", "DefTot", "UseSi", "UseSDj", "UseTot"],
            &rows
        )
    );
    println!("paper (Figure 6):");
    println!("  AES:    DefLi 68, DefLDj 16, total 84;  UseSi 4, UseSDj 10, total 14");
    println!("  Kasumi: DefLi 44, DefLDj 14, total 58;  UseSi 4, UseSDj 14, total 18");
    println!("  NAT:    DefLi 43, DefLDj 22, total 65;  UseSi 8, UseSDj 60(?), total 64");
}

/// E3 — regenerate Figure 7: solver statistics. Root-relaxation time,
/// integer solve time (to the paper's 0.01 % gap), model sizes, and the
/// solution's inter-bank moves and spills.
///
/// The shape to check: root relaxations solve quickly, integer optima are
/// close to the roots, moves are few, and spills are zero.
pub fn fig7() {
    println!("Figure 7: solver statistics\n");
    let mut rows = Vec::new();
    let mut telemetry = Vec::new();
    for b in Benchmark::ALL {
        let out = compile(b, &CompileConfig::default());
        let st = &out.alloc_stats;
        rows.push(vec![
            b.name().to_string(),
            format!("{:.2}", st.solve.root_time.as_secs_f64()),
            format!("{:.2}", st.solve.total_time.as_secs_f64()),
            st.model.variables.to_string(),
            st.model.constraints.to_string(),
            st.model.objective_terms.to_string(),
            st.solve.nodes.to_string(),
            st.moves.to_string(),
            st.spills.to_string(),
        ]);
        telemetry.push(vec![
            b.name().to_string(),
            st.solve.simplex_iterations.to_string(),
            format!("{:.0}%", 100.0 * st.solve.warm_hit_rate()),
            st.solve.activated_rows.to_string(),
            st.solve.presolved_rows.to_string(),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "program", "root(s)", "total(s)", "vars", "rows", "objterms", "nodes", "moves",
                "spills"
            ],
            &rows
        )
    );
    println!("solver telemetry:\n");
    println!(
        "{}",
        table(
            &["program", "pivots", "warm-hit", "lazy-act", "presolved"],
            &telemetry
        )
    );
    println!("paper (Figure 7, CPLEX on 800 MHz dual PIII):");
    println!("  AES:    root 30.4s, integer 35.9s, 108k vars, 102k rows, 37k obj terms, 25 moves, 0 spills");
    println!("  Kasumi: root 48.2s, integer 59.2s, 138k vars, 131k rows, 50k obj terms, 20 moves, 0 spills");
    println!("  NAT:    root 69.2s, integer 155.6s, 208k vars, 203k rows, 72k obj terms, 60 moves, 0 spills");
}

/// E5 — the paper's two-stage objective experiment (§11): first determine
/// "whether spills are required at all, and if so, where"; if none are,
/// drop the spill machinery and solve a much smaller program (the paper
/// reports 9 s for AES and 19.2 s for NAT this way, versus 35.9/155.6 s).
///
/// Our `spill_auto` pressure test plays the same role statically. This
/// ablation compares: (a) full model with the M bank, (b) the automatic
/// pressure-based reduction (the default).
pub fn ablation_spill_prepass() {
    println!("E5: spill machinery on vs pressure-based pre-pass (default)\n");
    let mut rows = Vec::new();
    for b in Benchmark::ALL {
        for (mode, auto) in [("full-spill", false), ("prepass", true)] {
            let mut cfg = CompileConfig::default();
            cfg.alloc.spill_auto = auto;
            let out = compile(b, &cfg);
            rows.push(vec![
                b.name().to_string(),
                mode.to_string(),
                out.alloc_stats.model.variables.to_string(),
                out.alloc_stats.model.constraints.to_string(),
                format!("{:.2}", out.alloc_stats.solve.total_time.as_secs_f64()),
                out.alloc_stats.moves.to_string(),
                out.alloc_stats.spills.to_string(),
            ]);
        }
    }
    println!(
        "{}",
        table(
            &["program", "mode", "vars", "rows", "solve(s)", "moves", "spills"],
            &rows
        )
    );
    println!("paper: the two-stage objective cut AES 35.9s -> 9s and NAT 155.6s -> 19.2s.");
}

/// E6 — §9's redundant aggregate-position cuts: "adding a redundant set of
/// constraints that immediately rules out a number of impossible
/// allocations for an aggregate speeds up the solver." On/off comparison.
pub fn ablation_redundant_cuts() {
    println!("E6: redundant aggregate-position cuts\n");
    let mut rows = Vec::new();
    for b in Benchmark::ALL {
        for (mode, cuts) in [("with-cuts", true), ("no-cuts", false)] {
            let mut cfg = CompileConfig::default();
            cfg.alloc.redundant_cuts = cuts;
            let out = compile(b, &cfg);
            rows.push(vec![
                b.name().to_string(),
                mode.to_string(),
                format!("{:.2}", out.alloc_stats.solve.root_time.as_secs_f64()),
                format!("{:.2}", out.alloc_stats.solve.total_time.as_secs_f64()),
                out.alloc_stats.solve.nodes.to_string(),
                out.alloc_stats.moves.to_string(),
            ]);
        }
    }
    println!(
        "{}",
        table(
            &["program", "mode", "root(s)", "total(s)", "nodes", "moves"],
            &rows
        )
    );
}

/// E7 — §7's A-over-B bias: "we also added a small bias towards using A
/// registers over B registers since we found that this speeds up the ILP
/// solver." Bias 1.01 (paper) vs 1.0 (off).
pub fn ablation_bias() {
    println!("E7: objective bias on moves out of B\n");
    let mut rows = Vec::new();
    for b in Benchmark::ALL {
        for (mode, bias) in [("bias=1.01", 1.01), ("bias=1.0", 1.0)] {
            let mut cfg = CompileConfig::default();
            cfg.alloc.bias = bias;
            let out = compile(b, &cfg);
            rows.push(vec![
                b.name().to_string(),
                mode.to_string(),
                format!("{:.2}", out.alloc_stats.solve.total_time.as_secs_f64()),
                out.alloc_stats.solve.nodes.to_string(),
                out.alloc_stats.moves.to_string(),
            ]);
        }
    }
    println!(
        "{}",
        table(&["program", "mode", "total(s)", "nodes", "moves"], &rows)
    );
}

/// E8 — §8 "A million variables": candidate pruning. Without the static
/// analysis every temporary could occupy any of the 7 locations at every
/// point; the paper estimates ~a million Move variables for a full
/// instruction store. We compare generated model sizes with pruning on
/// and off (the unpruned NAT model is solved too if time permits; the
/// larger ones are reported build-only).
pub fn ablation_pruning() {
    println!("E8: §8 candidate pruning\n");
    let mut rows = Vec::new();
    for b in Benchmark::ALL {
        // Build the flowgraph once.
        let src = b.source();
        let p = nova_frontend::parse(src).unwrap();
        let info = nova_frontend::check(&p).unwrap();
        let mut cps = nova_cps::convert(&p, &info).unwrap();
        nova_cps::optimize(&mut cps, &Default::default());
        nova_cps::to_ssu(&mut cps);
        let prog = nova_backend::select(&cps).unwrap();
        let facts = build_facts(&prog);
        let freqs = nova_backend::freq::estimate(&prog);
        for (mode, do_prune) in [("pruned", true), ("unpruned", false)] {
            let mut cfg = CompileConfig::default().alloc;
            cfg.prune = do_prune;
            cfg.allow_spill = true;
            cfg.spill_auto = do_prune; // the full model keeps M everywhere
            let bm = build_model(&prog, &facts, &freqs, &cfg);
            let st = bm.model.stats();
            let cands = if do_prune {
                prune(&facts, true)
            } else {
                unpruned(&facts, true)
            };
            rows.push(vec![
                b.name().to_string(),
                mode.to_string(),
                cands.total().to_string(),
                st.variables.to_string(),
                st.constraints.to_string(),
                st.objective_terms.to_string(),
            ]);
        }
    }
    println!(
        "{}",
        table(
            &["program", "mode", "cand-banks", "vars", "rows", "objterms"],
            &rows
        )
    );
    println!("paper: without reduction, ~1,000,000 Move variables (72 banks^2 x");
    println!("~20 live x 1000 instructions); with it, 102k-203k total variables.");
}

const CONFLICT: &str = r#"
fun main() {
    let (x, a, b, c) = sram(0);
    sram(100) <- (x, a, b, c);
    sram(200) <- (a, b, c, x);
    0
}
"#;

fn compile_with_ssu(src: &str, ssu: bool) -> Result<usize, String> {
    let p = nova_frontend::parse(src).map_err(|d| d.render(src))?;
    let info = nova_frontend::check(&p).map_err(|d| d.render(src))?;
    let mut cps = nova_cps::convert(&p, &info).map_err(|d| d.render(src))?;
    nova_cps::optimize(&mut cps, &Default::default());
    if ssu {
        nova_cps::to_ssu(&mut cps);
    }
    let prog = nova_backend::select(&cps).map_err(|e| e.to_string())?;
    match nova_backend::allocate(&prog, &Default::default()) {
        Ok(a) => Ok(a.stats.moves),
        Err(AllocError::Solver(MilpError::Infeasible)) => Err("INFEASIBLE".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// E9 — §9(3,4)/§10: SSA and SSU are what make point-independent coloring
/// feasible. The paper's example: without static single use there is no
/// solution for
///
/// ```text
/// sram(...) <- (X, a, b, c);
/// sram(...) <- (a, b, c, X);
/// ```
///
/// This ablation compiles that program with the SSU pass disabled (the
/// ILP becomes infeasible) and enabled (clones make it solvable), and
/// reports clone statistics for the three benchmarks.
pub fn ablation_ssu() {
    println!("E9: the role of static single use\n");
    println!(
        "conflicting-aggregate program without SSU: {:?}",
        compile_with_ssu(CONFLICT, false)
    );
    println!(
        "conflicting-aggregate program with SSU:    {:?}",
        compile_with_ssu(CONFLICT, true)
    );
    println!();
    let mut rows = Vec::new();
    for b in Benchmark::ALL {
        let out = compile(b, &CompileConfig::default());
        rows.push(vec![
            b.name().to_string(),
            out.ssu_stats.cloned_vars.to_string(),
            out.ssu_stats.clones.to_string(),
            out.alloc_stats.moves.to_string(),
        ]);
    }
    println!(
        "{}",
        table(&["program", "cloned vars", "clones", "moves"], &rows)
    );
    println!("\nClones are copies that do not interfere: most share their");
    println!("original's register and cost nothing (moves stay low).");
}
