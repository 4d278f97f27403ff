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
use super::model::{build_model, decode_solution, solve_with, AllocConfig, BankModel};
use super::{finish, AllocError, Allocation, SolvedAllocation};
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

/// One solver-backed row of the table above: the configured allocator
/// settings with this rung's relaxations applied.
struct Rung {
    stage: u8,
    /// Floor under the configured relative optimality gap.
    gap_floor: f64,
    /// The §9 redundant cuts stay as configured (`true`) or are dropped.
    redundant_cuts: bool,
    /// Wall-clock budget in multiples of the backoff base (the configured
    /// deadline, floored at [`BACKOFF_FLOOR`]); 0 keeps the configured
    /// deadline itself.
    budget: u32,
    /// Round the root-LP relaxation instead of searching a tree.
    rounding: bool,
}

const EXACT: Rung = Rung {
    stage: 0,
    gap_floor: 0.0,
    redundant_cuts: true,
    budget: 0,
    rounding: false,
};

#[rustfmt::skip]
const RELAXED: [Rung; 3] = [
    Rung { stage: 1, gap_floor: 0.05, redundant_cuts: true,  budget: 1, rounding: false },
    Rung { stage: 2, gap_floor: 0.20, redundant_cuts: false, budget: 2, rounding: false },
    Rung { stage: 3, gap_floor: 0.20, redundant_cuts: false, budget: 4, rounding: true },
];

/// Run the staged allocator: solve (with fallback per `cfg.fallback`),
/// then extract, color, and validate. Returns the finished allocation
/// together with the accepted rung's solver artifacts.
pub(crate) fn run(
    prog: &Program<Temp>,
    facts: Facts,
    freqs: &Frequencies,
    cfg: &AllocConfig,
    obs: &nova_obs::Obs,
) -> Result<(Allocation, SolvedAllocation), AllocError> {
    if cfg.fallback == FallbackPolicy::Greedy {
        return greedy_stage(prog, facts, freqs, cfg, obs);
    }
    // Only `Ladder` survives a rung that exhausts its budget or whose
    // solution a downstream phase rejects; under `Fail`/`Incumbent` the
    // exact rung is the only one and every failure of it is the error.
    let ladder = cfg.fallback == FallbackPolicy::Ladder;
    let relaxed: &[Rung] = if ladder { &RELAXED } else { &[] };
    // Exponential budget backoff: each relaxed rung gets a multiple of
    // the configured deadline, floored at 50 ms.
    let base = cfg
        .solver
        .time_limit
        .unwrap_or(BACKOFF_FLOOR)
        .max(BACKOFF_FLOOR);

    // One model serves consecutive rungs; it is rebuilt when the cuts
    // column changes.
    let mut bm = build_model_timed(prog, &facts, freqs, cfg, obs);
    let mut cuts = EXACT.redundant_cuts;
    for rung in std::iter::once(&EXACT).chain(relaxed) {
        let mut c = cfg.clone();
        c.redundant_cuts &= rung.redundant_cuts;
        c.solver.relative_gap = c.solver.relative_gap.max(rung.gap_floor);
        if rung.redundant_cuts != cuts {
            bm = build_model_timed(prog, &facts, freqs, &c, obs);
            cuts = rung.redundant_cuts;
        }
        if rung.budget > 0 {
            let budget = base * rung.budget;
            c.solver.time_limit = Some(budget);
            obs.sample("backend.staged.backoff_ms", budget.as_secs_f64() * 1e3);
        }

        let span = obs.span("phase.ilp.stage");
        obs.counter("backend.staged.attempts", 1);
        let solved = if rung.rounding {
            let rounded = bm.model.solve_rounded_with(&c.solver, obs);
            rounded.map(|sol| decode_solution(&bm, sol))
        } else {
            solve_with(&mut bm, &c, obs)
        };
        span.end();
        let (asg, stats) = match solved {
            Ok(s) => s,
            Err(MilpError::BudgetExhausted(_)) if ladder => continue,
            // Infeasible/Unbounded/Numerical are facts about the model, not
            // the budget: no relaxation rung below changes them.
            Err(e) => return Err(AllocError::Solver(e)),
        };
        if cfg.fallback == FallbackPolicy::Fail && !stats.solve.proven_optimal {
            return Err(AllocError::Solver(MilpError::BudgetExhausted(Box::new(
                stats.solve,
            ))));
        }

        // ---- accept: the rung's solution must survive the shared gates ----
        let quality = AllocQuality {
            stage: rung.stage,
            proven_optimal: stats.solve.proven_optimal,
            gap: stats.solve.gap,
            spills: asg.n_spills,
        };
        emit_outcome(obs, &quality);
        match finish(prog, &facts, &bm, &asg, stats.clone(), quality, obs) {
            Ok(alloc) => {
                let solved = SolvedAllocation {
                    facts,
                    bm,
                    asg,
                    stats,
                    quality,
                    values: None,
                };
                return Ok((alloc, solved));
            }
            // Downstream rejection of this rung's solution: fall through.
            Err(
                AllocError::Extract(_)
                | AllocError::Color(_)
                | AllocError::Invalid(_)
                | AllocError::Verify(_),
            ) if ladder => obs.counter("backend.staged.finish_failed", 1),
            Err(e) => return Err(e),
        }
    }

    // ---- stage 4: greedy park-in-scratch, always succeeds ----
    greedy_stage(prog, facts, freqs, cfg, obs)
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

fn emit_outcome(obs: &nova_obs::Obs, q: &AllocQuality) {
    obs.counter("backend.staged.stage", u64::from(q.stage));
    obs.sample("backend.staged.gap", q.gap);
}

/// The terminal rung: deterministic greedy allocation. Failures here (or
/// downstream of here) are genuine errors — there is nothing left to try.
fn greedy_stage(
    prog: &Program<Temp>,
    facts: Facts,
    freqs: &Frequencies,
    cfg: &AllocConfig,
    obs: &nova_obs::Obs,
) -> Result<(Allocation, SolvedAllocation), AllocError> {
    let span = obs.span("phase.ilp.stage");
    obs.counter("backend.staged.attempts", 1);
    let out = greedy::allocate(prog, &facts, freqs, cfg);
    span.end();
    let (bm, asg, stats) = out?;
    let quality = AllocQuality {
        stage: 4,
        proven_optimal: false,
        gap: 1.0,
        spills: asg.n_spills,
    };
    emit_outcome(obs, &quality);
    let alloc = finish(prog, &facts, &bm, &asg, stats.clone(), quality, obs)?;
    let solved = SolvedAllocation {
        facts,
        bm,
        asg,
        stats,
        quality,
        values: None,
    };
    Ok((alloc, solved))
}
