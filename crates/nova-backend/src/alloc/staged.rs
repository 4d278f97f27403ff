//! Staged allocation with graceful degradation.
//!
//! The exact MILP is the quality ceiling but also the availability floor:
//! when branch-and-bound exhausts its budget without an incumbent,
//! `allocate` used to surface [`ilp::MilpError::BudgetExhausted`] and the
//! compile died. This module turns allocation into a ladder of
//! progressively cheaper stages so a compile always terminates with
//! runnable code under any deadline:
//!
//! | stage | strategy                                   | quality          |
//! |-------|--------------------------------------------|------------------|
//! | 0     | exact MILP under the configured deadline   | optimal / gap    |
//! | 1     | MILP, optimality gap widened to ≥ 5 %      | bounded gap      |
//! | 2     | MILP without §9 redundant cuts, gap 20 %   | bounded gap      |
//! | 3     | root-LP relaxation + rounding              | gap vs. LP bound |
//! | 4     | greedy park-in-scratch ([`super::greedy`]) | spills, no bound |
//!
//! Stages 1–3 retry with exponential *budget* backoff (the wall-clock
//! allowance doubles per rung, floored at 50 ms) rather than sleeping —
//! locally there is nothing to wait for, the point is to give each
//! relaxation a progressively longer look. A stage is accepted only if
//! its solution survives extraction, coloring, machine validation, and
//! (in debug builds) the [`super::verify`] checker; a solution that fails
//! downstream falls through to the next rung instead of aborting.
//!
//! Every attempt runs under a `phase.ilp.stage` span and the outcome is
//! published as `backend.staged.*` telemetry plus an [`AllocQuality`]
//! record on the final [`Allocation`].

use super::facts::Facts;
use super::greedy;
use super::model::{
    build_model, decode_assignment, solve_with, AllocConfig, AllocStats, Assignment, BankModel,
};
use super::{finish, AllocError, Allocation};
use crate::freq::Frequencies;
use ilp::MilpError;
use ixp_machine::{Program, Temp};
use std::time::Duration;

/// What the allocator does when the MILP budget expires without a usable
/// solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FallbackPolicy {
    /// Strict: only a *proven-optimal* (within the configured gap) stage-0
    /// solution is accepted; anything else is an error. The all-or-nothing
    /// compiler model.
    Fail,
    /// Accept any stage-0 incumbent the search found before the budget
    /// expired (recording the proven gap); error only when there is no
    /// incumbent at all. This is the historical behavior.
    Incumbent,
    /// Walk the full relaxation ladder down to the greedy allocator, so
    /// allocation cannot fail on budget exhaustion (the default).
    #[default]
    Ladder,
    /// Skip the MILP entirely and use the greedy allocator (stage 4).
    Greedy,
}

/// How good the accepted allocation is, and where it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocQuality {
    /// Ladder stage that produced the allocation (0 = exact MILP,
    /// 1 = widened gap, 2 = no redundant cuts, 3 = LP rounding,
    /// 4 = greedy).
    pub stage: u8,
    /// The solver proved optimality within its configured gap.
    pub proven_optimal: bool,
    /// Proven relative optimality gap. `1.0` when no bound is available
    /// (the greedy stage).
    pub gap: f64,
    /// Spills (transitions into scratch) in the accepted allocation.
    pub spills: usize,
}

/// Minimum per-stage wall-clock budget for ladder retries.
const BACKOFF_FLOOR: Duration = Duration::from_millis(50);

/// The solver-side artifacts of the rung that produced an accepted
/// allocation: the model, the decoded assignment, and (for MILP/LP rungs)
/// the raw solution values. A session caches these to re-finish a
/// structurally identical program, or to warm-start the next solve.
pub struct Solved {
    /// The generated bank model the accepted solution indexes into.
    pub bm: BankModel,
    /// The decoded assignment.
    pub asg: Assignment,
    /// Model and solver statistics of the accepted rung.
    pub stats: AllocStats,
    /// Stage/gap/spill quality record of the accepted rung.
    pub quality: AllocQuality,
    /// Raw MILP/LP variable values of the accepted solution (`None` for
    /// the greedy rung, which never builds a solution vector).
    pub values: Option<Vec<f64>>,
}

/// Run the staged allocator: solve (with fallback per `cfg.fallback`),
/// then extract, color, and validate. Returns the finished allocation
/// together with the accepted rung's solver artifacts. `hint` warm-starts
/// the stage-0 exact solve (ignored when infeasible for the model).
pub(crate) fn run(
    prog: &Program<Temp>,
    facts: &Facts,
    freqs: &Frequencies,
    cfg: &AllocConfig,
    hint: Option<&[f64]>,
    obs: &nova_obs::Obs,
) -> Result<(Allocation, Solved), AllocError> {
    match cfg.fallback {
        FallbackPolicy::Greedy => greedy_stage(prog, facts, freqs, cfg, obs),
        FallbackPolicy::Fail | FallbackPolicy::Incumbent => {
            let mut bm = build_model_timed(prog, facts, freqs, cfg, obs);
            let (asg, stats, values) =
                attempt(&mut bm, cfg, hint, obs).map_err(AllocError::Solver)?;
            if cfg.fallback == FallbackPolicy::Fail && !stats.solve.proven_optimal {
                return Err(AllocError::Solver(MilpError::BudgetExhausted(Box::new(
                    stats.solve,
                ))));
            }
            let quality = AllocQuality {
                stage: 0,
                proven_optimal: stats.solve.proven_optimal,
                gap: stats.solve.gap,
                spills: asg.n_spills,
            };
            emit_outcome(obs, &quality);
            let alloc = finish(prog, facts, &bm, &asg, stats.clone(), quality, obs)?;
            Ok((
                alloc,
                Solved {
                    bm,
                    asg,
                    stats,
                    quality,
                    values: Some(values),
                },
            ))
        }
        FallbackPolicy::Ladder => ladder(prog, facts, freqs, cfg, hint, obs),
    }
}

/// CSR model generation under a `phase.ilp.model` span, so the report
/// harness can see the build's wall time and heap traffic separately
/// from the solve.
fn build_model_timed(
    prog: &Program<Temp>,
    facts: &Facts,
    freqs: &Frequencies,
    cfg: &AllocConfig,
    obs: &nova_obs::Obs,
) -> BankModel {
    let span = obs.span("phase.ilp.model");
    let bm = build_model(prog, facts, freqs, cfg);
    span.end();
    bm
}

/// One MILP attempt under a `phase.ilp.stage` span.
fn attempt(
    bm: &mut BankModel,
    cfg: &AllocConfig,
    hint: Option<&[f64]>,
    obs: &nova_obs::Obs,
) -> Result<(Assignment, AllocStats, Vec<f64>), MilpError> {
    let span = obs.span("phase.ilp.stage");
    obs.counter("backend.staged.attempts", 1);
    let out = solve_with(bm, cfg, hint, obs);
    span.end();
    out
}

fn emit_outcome(obs: &nova_obs::Obs, q: &AllocQuality) {
    obs.counter("backend.staged.stage", u64::from(q.stage));
    obs.sample("backend.staged.gap", q.gap);
}

/// Try to finish a solved rung; `Ok(None)` means the solution failed a
/// downstream phase and the ladder should fall to the next rung.
fn try_finish(
    prog: &Program<Temp>,
    facts: &Facts,
    bm: &BankModel,
    asg: &Assignment,
    stats: &AllocStats,
    quality: AllocQuality,
    obs: &nova_obs::Obs,
) -> Result<Option<Allocation>, AllocError> {
    emit_outcome(obs, &quality);
    match finish(prog, facts, bm, asg, stats.clone(), quality, obs) {
        Ok(alloc) => Ok(Some(alloc)),
        // Downstream rejection of this stage's solution: fall through.
        Err(
            AllocError::Extract(_)
            | AllocError::Color(_)
            | AllocError::Invalid(_)
            | AllocError::Verify(_),
        ) => {
            obs.counter("backend.staged.finish_failed", 1);
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

fn ladder(
    prog: &Program<Temp>,
    facts: &Facts,
    freqs: &Frequencies,
    cfg: &AllocConfig,
    hint: Option<&[f64]>,
    obs: &nova_obs::Obs,
) -> Result<(Allocation, Solved), AllocError> {
    // ---- stage 0: exact MILP under the configured deadline ----
    let mut bm = build_model_timed(prog, facts, freqs, cfg, obs);
    match attempt(&mut bm, cfg, hint, obs) {
        Ok((asg, stats, values)) => {
            let quality = AllocQuality {
                stage: 0,
                proven_optimal: stats.solve.proven_optimal,
                gap: stats.solve.gap,
                spills: asg.n_spills,
            };
            if let Some(alloc) = try_finish(prog, facts, &bm, &asg, &stats, quality, obs)? {
                return Ok((
                    alloc,
                    Solved {
                        bm,
                        asg,
                        stats,
                        quality,
                        values: Some(values),
                    },
                ));
            }
        }
        Err(MilpError::BudgetExhausted(_)) => {}
        // Infeasible/Unbounded/Numerical are facts about the model, not
        // the budget: no relaxation rung below changes them.
        Err(e) => return Err(AllocError::Solver(e)),
    }

    // Exponential budget backoff: each rung gets twice the allowance of
    // the previous one, floored at 50 ms.
    let base = cfg
        .solver
        .time_limit
        .unwrap_or(BACKOFF_FLOOR)
        .max(BACKOFF_FLOOR);

    // ---- stage 1: widen the optimality gap on the same model ----
    {
        let mut c1 = cfg.clone();
        c1.solver.relative_gap = cfg.solver.relative_gap.max(0.05);
        c1.solver.time_limit = Some(base);
        obs.sample("backend.staged.backoff_ms", base.as_secs_f64() * 1e3);
        match attempt(&mut bm, &c1, None, obs) {
            Ok((asg, stats, values)) => {
                let quality = AllocQuality {
                    stage: 1,
                    proven_optimal: stats.solve.proven_optimal,
                    gap: stats.solve.gap,
                    spills: asg.n_spills,
                };
                if let Some(alloc) = try_finish(prog, facts, &bm, &asg, &stats, quality, obs)? {
                    return Ok((
                        alloc,
                        Solved {
                            bm,
                            asg,
                            stats,
                            quality,
                            values: Some(values),
                        },
                    ));
                }
            }
            Err(MilpError::BudgetExhausted(_)) => {}
            Err(e) => return Err(AllocError::Solver(e)),
        }
    }

    // ---- stage 2: drop the redundant aggregate cuts, gap 20 % ----
    let mut c2 = cfg.clone();
    c2.redundant_cuts = false;
    c2.solver.relative_gap = cfg.solver.relative_gap.max(0.20);
    c2.solver.time_limit = Some(base * 2);
    let mut bm2 = build_model_timed(prog, facts, freqs, &c2, obs);
    obs.sample("backend.staged.backoff_ms", (base * 2).as_secs_f64() * 1e3);
    match attempt(&mut bm2, &c2, None, obs) {
        Ok((asg, stats, values)) => {
            let quality = AllocQuality {
                stage: 2,
                proven_optimal: stats.solve.proven_optimal,
                gap: stats.solve.gap,
                spills: asg.n_spills,
            };
            if let Some(alloc) = try_finish(prog, facts, &bm2, &asg, &stats, quality, obs)? {
                return Ok((
                    alloc,
                    Solved {
                        bm: bm2,
                        asg,
                        stats,
                        quality,
                        values: Some(values),
                    },
                ));
            }
        }
        Err(MilpError::BudgetExhausted(_)) => {}
        Err(e) => return Err(AllocError::Solver(e)),
    }

    // ---- stage 3: root-LP relaxation + rounding on the cut-free model ----
    {
        let mut c3 = c2.solver.clone();
        c3.time_limit = Some(base * 4);
        obs.sample("backend.staged.backoff_ms", (base * 4).as_secs_f64() * 1e3);
        let span = obs.span("phase.ilp.stage");
        obs.counter("backend.staged.attempts", 1);
        let rounded = bm2.model.solve_rounded_with(&c3, obs);
        span.end();
        match rounded {
            Ok(sol) => {
                let asg = decode_assignment(&bm2, &sol.values);
                let quality = AllocQuality {
                    stage: 3,
                    proven_optimal: sol.stats.proven_optimal,
                    gap: sol.stats.gap,
                    spills: asg.n_spills,
                };
                let stats = AllocStats {
                    model: bm2.model.stats(),
                    solve: sol.stats,
                    fig6: bm2.fig6,
                    moves: asg.n_moves,
                    spills: asg.n_spills,
                    objective: sol.objective,
                };
                if let Some(alloc) = try_finish(prog, facts, &bm2, &asg, &stats, quality, obs)? {
                    return Ok((
                        alloc,
                        Solved {
                            bm: bm2,
                            asg,
                            stats,
                            quality,
                            values: Some(sol.values),
                        },
                    ));
                }
            }
            Err(MilpError::BudgetExhausted(_)) => {}
            Err(e) => return Err(AllocError::Solver(e)),
        }
    }

    // ---- stage 4: greedy park-in-scratch, always succeeds ----
    greedy_stage(prog, facts, freqs, cfg, obs)
}

/// The terminal rung: deterministic greedy allocation. Failures here (or
/// downstream of here) are genuine errors — there is nothing left to try.
fn greedy_stage(
    prog: &Program<Temp>,
    facts: &Facts,
    freqs: &Frequencies,
    cfg: &AllocConfig,
    obs: &nova_obs::Obs,
) -> Result<(Allocation, Solved), AllocError> {
    let span = obs.span("phase.ilp.stage");
    obs.counter("backend.staged.attempts", 1);
    let out = greedy::allocate(prog, facts, freqs, cfg);
    span.end();
    let (bm, asg, stats) = out?;
    let quality = AllocQuality {
        stage: 4,
        proven_optimal: false,
        gap: 1.0,
        spills: asg.n_spills,
    };
    emit_outcome(obs, &quality);
    let alloc = finish(prog, facts, &bm, &asg, stats.clone(), quality, obs)?;
    Ok((
        alloc,
        Solved {
            bm,
            asg,
            stats,
            quality,
            values: None,
        },
    ))
}
