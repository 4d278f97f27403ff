//! The staged compile driver of the traced run.
//!
//! `nova::Compiler` is one call from the outside, so the per-layer split
//! of a compile comes from calling the layers' own public functions in
//! the session's order — lex / parse / check → convert / optimize / SSU →
//! select → facts / model → solve → extract / colour / verify → finish —
//! with a span around each. The driver's final `Program<PhysReg>` must
//! equal the session's for the same source; a split that does not is
//! reported invalid and fails the run. It drives the exact (stage-0) rung
//! of the allocation ladder only, which is where every benchmark input
//! lands.

use crate::trace::Tracer;
use ixp_machine::{PhysReg, Program, Temp};
use nova::CompileConfig;
use nova_backend::alloc::{self, AllocConfig, AllocQuality, AllocStats};
use nova_backend::{color, freq, refinish_with, select, SolvedAllocation};
use nova_obs::Obs;
use std::time::Instant;

/// Host µs per layer call and the work counts of one staged compile.
#[derive(Debug, Clone, Default)]
pub struct StagedCompile {
    pub lex_us: f64,
    pub parse_us: f64,
    pub check_us: f64,
    pub convert_us: f64,
    pub optimize_us: f64,
    pub ssu_us: f64,
    pub select_us: f64,
    /// Cold path only (zero on a warm, refinish-only compile):
    pub facts_us: f64,
    pub build_model_us: f64,
    pub presolve_us: f64,
    pub root_lp_us: f64,
    pub tree_us: f64,
    pub extract_color_us: f64,
    pub verify_us: f64,
    /// The product's own finishing half (extract, colour, validate).
    pub refinish_us: f64,
    pub tokens: usize,
    pub terms_after_opt: usize,
    pub opt_rewrites: usize,
    pub vinstrs: usize,
    pub model_vars: usize,
    pub model_rows: usize,
    pub model_nnz: usize,
    pub presolved_rows: usize,
    pub pivots: usize,
    pub nodes: usize,
    pub refactorizations: usize,
    pub warm_hits: usize,
    pub warm_misses: usize,
    pub proven_optimal: bool,
    pub moves: usize,
    pub spills: usize,
    /// Whether the MILP ran (cold) or a cached solve was re-finished.
    pub cold: bool,
}

impl StagedCompile {
    /// Sum of every layer time the driver measured on the real pipeline's
    /// path. The stand-alone presolve and the extract/colour/verify
    /// timings are measured beside the path (the solver presolves
    /// internally; `refinish` extracts and colours again), so they are
    /// left out.
    pub fn path_us(&self) -> f64 {
        self.lex_us
            + self.parse_us
            + self.check_us
            + self.convert_us
            + self.optimize_us
            + self.ssu_us
            + self.select_us
            + self.facts_us
            + self.build_model_us
            + self.root_lp_us
            + self.tree_us
            + self.refinish_us
    }
}

/// Run `f` under a span and return its result with the host µs it took.
fn timed<T>(tracer: &Tracer, name: &'static str, request: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = tracer.span(name, request, f);
    (out, start.elapsed().as_secs_f64() * 1e6)
}

/// The deterministic preamble `allocate_solved_with` applies: drop the
/// spill machinery when no point can exhaust the general-purpose banks.
fn effective_alloc_config(cfg: &AllocConfig, facts: &alloc::Facts) -> AllocConfig {
    let mut cfg = cfg.clone();
    let pressure = facts.exists.values().map(|s| s.len()).max().unwrap_or(0);
    if cfg.allow_spill && cfg.spill_auto && pressure + 4 <= cfg.k_a + cfg.k_b {
        cfg.allow_spill = false;
    }
    cfg
}

/// Compile `source` layer by layer. With `warm` (the solved allocation of
/// a structurally identical program) the MILP half is skipped, as the
/// session's allocation-cache hit does. Returns the final program, the
/// timings, and — on the cold path — the solved allocation for later
/// warm compiles of the same structure.
pub fn staged_compile(
    source: &str,
    config: &CompileConfig,
    warm: Option<&SolvedAllocation>,
    tracer: &Tracer,
    request: u64,
) -> Result<(Program<PhysReg>, StagedCompile, Option<SolvedAllocation>), String> {
    let mut t = StagedCompile::default();
    let fail = |layer: &str, e: &dyn std::fmt::Display| format!("{layer}: {e}");

    let (tokens, us) = timed(tracer, "nova-frontend.lex", request, || {
        nova_frontend::lex(source)
    });
    t.lex_us = us;
    t.tokens = tokens.map_err(|d| fail("lex", &d.render(source)))?.len();
    let (program, us) = timed(tracer, "nova-frontend.parse", request, || {
        nova_frontend::parse(source)
    });
    t.parse_us = us;
    let program = program.map_err(|d| fail("parse", &d.render(source)))?;
    let (info, us) = timed(tracer, "nova-frontend.check", request, || {
        nova_frontend::check(&program)
    });
    t.check_us = us;
    let info = info.map_err(|d| fail("check", &d.render(source)))?;

    let (cps, us) = timed(tracer, "nova-cps.convert", request, || {
        nova_cps::convert(&program, &info)
    });
    t.convert_us = us;
    let mut cps = cps.map_err(|d| fail("convert", &d.render(source)))?;
    let (opt_stats, us) = timed(tracer, "nova-cps.optimize", request, || {
        nova_cps::optimize(&mut cps, &config.opt)
    });
    t.optimize_us = us;
    t.opt_rewrites =
        opt_stats.inlined + opt_stats.dead_funs + opt_stats.trimmed_reads + opt_stats.specialized;
    t.terms_after_opt = cps.size();
    let (_, us) = timed(tracer, "nova-cps.to_ssu", request, || {
        nova_cps::to_ssu(&mut cps)
    });
    t.ssu_us = us;

    let (vprog, us) = timed(tracer, "nova-backend.select", request, || select(&cps));
    t.select_us = us;
    let vprog: Program<Temp> = vprog.map_err(|e| fail("select", &e.0))?;
    t.vinstrs = vprog.len();

    let solved = match warm {
        Some(_) => None,
        None => {
            t.cold = true;
            let ((facts, freqs), us) = timed(tracer, "nova-backend.build_facts", request, || {
                (alloc::build_facts(&vprog), freq::estimate(&vprog))
            });
            t.facts_us = us;
            let cfg = effective_alloc_config(&config.alloc, &facts);
            let (mut bm, us) = timed(tracer, "nova-backend.build_model", request, || {
                alloc::build_model(&vprog, &facts, &freqs, &cfg)
            });
            t.build_model_us = us;
            let problem = bm.model.problem();
            t.model_vars = problem.num_vars();
            t.model_rows = problem.num_constraints();
            t.model_nnz = problem.num_nonzeros();
            let (_, us) = timed(tracer, "ilp.presolve", request, || {
                ilp::presolve(problem, cfg.solver.cuts)
            });
            t.presolve_us = us;
            let (solve, _) = timed(tracer, "ilp.solve", request, || alloc::solve(&mut bm, &cfg));
            let (asg, stats): (alloc::Assignment, AllocStats) =
                solve.map_err(|e| fail("solve", &e))?;
            let s = &stats.solve;
            t.root_lp_us = s.root_time.as_secs_f64() * 1e6;
            t.tree_us = s.total_time.saturating_sub(s.root_time).as_secs_f64() * 1e6;
            t.presolved_rows = s.presolved_rows;
            t.pivots = s.simplex_iterations;
            t.nodes = s.nodes;
            t.refactorizations = s.refactorizations;
            t.warm_hits = s.warm_hits;
            t.warm_misses = s.warm_misses;
            t.proven_optimal = s.proven_optimal;

            let (placed, extract_us) = timed(tracer, "nova-backend.extract", request, || {
                alloc::extract(&vprog, &facts, &bm, &asg)
            });
            let placed = placed.map_err(|e| fail("extract", &e))?;
            let (ab, color_us) = timed(tracer, "nova-backend.assign_ab", request, || {
                color::assign_ab(&placed)
            });
            let (ab, _) = ab.map_err(|e| fail("assign_ab", &e))?;
            t.extract_color_us = extract_us + color_us;
            let (violations, us) = timed(tracer, "nova-backend.verify", request, || {
                alloc::verify(&placed, &ab)
            });
            t.verify_us = us;
            if !violations.is_empty() {
                return Err(format!("verify: {}", violations.join("; ")));
            }
            let quality = AllocQuality {
                stage: 0,
                proven_optimal: stats.solve.proven_optimal,
                gap: stats.solve.gap,
                spills: asg.n_spills,
            };
            Some(SolvedAllocation {
                facts,
                bm,
                asg,
                stats,
                quality,
                values: None,
            })
        }
    };
    let from = warm
        .or(solved.as_ref())
        .expect("either a warm or a fresh solve");
    t.moves = from.stats.moves;
    t.spills = from.stats.spills;
    let (finished, us) = timed(tracer, "nova-backend.refinish", request, || {
        refinish_with(&vprog, from, &Obs::noop())
    });
    t.refinish_us = us;
    let finished = finished.map_err(|e| fail("refinish", &e))?;
    Ok((finished.prog, t, solved))
}
